"""Paper Table IV + Figure 2: MetBench cases A-D.

Regenerates the per-case characterisation (Proc/Core/P/Comp%/Sync%/Imb%/
exec time), the paper-vs-simulated comparison, and the case traces.
Asserts the paper's shape: A > B > C (C best, ~balanced), D reverses.
"""

import pytest

from repro.experiments.cases import metbench_suite
from repro.experiments.figures import case_trace
from repro.experiments.runner import comparison_table, run_suite


def run_all(system):
    suite = metbench_suite(iterations=10)
    results = run_suite(suite, system)
    return suite, results


def test_table4_metbench(benchmark, system, save_artifact):
    suite, results = benchmark.pedantic(
        lambda: run_all(system), rounds=1, iterations=1
    )
    parts = [comparison_table(results).render()]
    for r in results:
        parts.append(r.rank_table(f"MetBench case {r.case.name}").render())
    save_artifact("table4_metbench", "\n\n".join(parts))

    t = {r.case.name: r.measured_exec for r in results}
    imb = {r.case.name: r.measured_imbalance for r in results}
    # Calibrated reference: case A within 5% of the paper's 81.64 s.
    assert t["A"] == pytest.approx(81.64, rel=0.05)
    assert imb["A"] == pytest.approx(75.69, abs=5.0)
    # The paper's ordering: C < B < A < D.
    assert t["C"] < t["B"] < t["A"] < t["D"]
    # C nearly balanced (paper: 1.96%).
    assert imb["C"] < 15.0


def test_figure2_traces(benchmark, system, save_artifact):
    suite = metbench_suite(iterations=10)

    def render():
        panels = []
        for name in ("A", "B", "C", "D"):
            chart, run = case_trace(suite, name, system, width=90)
            panels.append(
                f"Figure 2({name.lower()}) MetBench case {name} "
                f"(exec {run.total_time:.2f}s, imb {run.imbalance_percent:.1f}%):\n"
                + chart
            )
        return "\n\n".join(panels)

    rendered = benchmark.pedantic(render, rounds=1, iterations=1)
    save_artifact("figure2_metbench_traces", rendered)
    assert "case A" in rendered and "case D" in rendered

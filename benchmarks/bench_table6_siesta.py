"""Paper Table VI + Figure 4: SIESTA cases ST, A-D.

Shape targets: balanced cases (B, C) beat A modestly; the over-boosted
case D loses by double digits and moves the bottleneck onto P1; ST mode
is far slower than the 4-rank SMT run.
"""

import pytest

from repro.experiments.cases import siesta_suite
from repro.experiments.figures import case_trace
from repro.experiments.runner import comparison_table, run_suite


def test_table6_siesta(benchmark, system, save_artifact):
    suite = siesta_suite(n_iterations=40)
    results = benchmark.pedantic(
        lambda: run_suite(suite, system), rounds=1, iterations=1
    )
    parts = [comparison_table(results).render()]
    for r in results:
        parts.append(r.rank_table(f"SIESTA case {r.case.name}").render())
    save_artifact("table6_siesta", "\n\n".join(parts))

    t = {r.case.name: r.measured_exec for r in results}
    by_name = {r.case.name: r for r in results}
    assert t["B"] < t["A"] and t["C"] < t["A"]  # balanced cases win
    assert t["D"] > t["A"] * 1.05  # over-boost backfires (paper: +13.7%)
    assert by_name["D"].run.stats.bottleneck_rank == 0  # P1 starved in D
    assert t["ST"] > t["A"] * 1.1  # paper: +44%


def test_figure4_traces(benchmark, system, save_artifact):
    suite = siesta_suite(n_iterations=40)

    def render():
        panels = []
        for name in ("A", "B", "C", "D"):
            chart, run = case_trace(suite, name, system, width=90)
            panels.append(
                f"Figure 4({name.lower()}) SIESTA case {name} "
                f"(exec {run.total_time:.2f}s, imb {run.imbalance_percent:.1f}%):\n"
                + chart
            )
        return "\n\n".join(panels)

    rendered = benchmark.pedantic(render, rounds=1, iterations=1)
    save_artifact("figure4_siesta_traces", rendered)
    assert "case D" in rendered

"""Report generation: the EXPERIMENTS.md content, programmatically.

``python -m repro.experiments.report`` regenerates the full paper-vs-
measured report on stdout; the benchmarks print the same tables per
experiment.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.experiments.allocation import allocation_axes_table
from repro.experiments.cases import Suite, btmz_suite, metbench_suite, siesta_suite
from repro.experiments.figures import figure1_traces
from repro.experiments.runner import comparison_table, run_suite
from repro.experiments.table2 import decode_cycles_table, measured_decode_shares
from repro.experiments.table3 import special_cases_table
from repro.machine.system import System, SystemConfig
from repro.util.tables import TextTable

__all__ = ["suite_report", "full_report"]


def suite_report(
    suite: Suite,
    system: Optional[System] = None,
    cases: Optional[Sequence[str]] = None,
) -> str:
    """Run a suite and render its comparison + per-case rank breakdowns."""
    results = run_suite(suite, system=system, cases=cases)
    parts: List[str] = [comparison_table(results).render()]
    for r in results:
        parts.append(r.rank_table(f"case {r.case.name}").render())
    return "\n\n".join(parts)


def _decode_share_table() -> TextTable:
    table = TextTable(
        ["diff", "expected A", "expected B", "measured A", "measured B"],
        title="Table II check: decode shares, law vs cycle simulator",
    )
    for diff, ea, eb, ma, mb in measured_decode_shares():
        table.add_row([diff, f"{ea:.4f}", f"{eb:.4f}", f"{ma:.4f}", f"{mb:.4f}"])
    return table


def full_report(fast: bool = False) -> str:
    """Everything: Tables II/III, Figure 1, and the three application suites.

    ``fast`` shrinks iteration counts for quick smoke runs.
    """
    system = System(SystemConfig())
    parts: List[str] = []
    parts.append(decode_cycles_table().render())
    parts.append(special_cases_table().render())
    parts.append(_decode_share_table().render())

    chart_a, chart_b, before, after = figure1_traces(system)
    parts.append(
        "Figure 1(a) — imbalanced "
        f"(exec {before.total_time:.2f}s, imb {before.imbalance_percent:.1f}%):\n"
        + chart_a
    )
    parts.append(
        "Figure 1(b) — rebalanced "
        f"(exec {after.total_time:.2f}s, imb {after.imbalance_percent:.1f}%):\n"
        + chart_b
    )

    parts.append(allocation_axes_table(system=system).render())

    mb = metbench_suite(iterations=3 if fast else 10)
    bt = btmz_suite(iterations=10 if fast else 50)
    si = siesta_suite(n_iterations=10 if fast else 40,
                      time_scale=0.1 if fast else 1.0)
    for suite in (mb, bt, si):
        parts.append(suite_report(suite, system=system))
    return "\n\n".join(parts)


if __name__ == "__main__":  # pragma: no cover - manual entry point
    import sys

    print(full_report(fast="--fast" in sys.argv))

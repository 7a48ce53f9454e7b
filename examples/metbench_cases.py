#!/usr/bin/env python
"""MetBench cases A-D: the paper's Table IV, end to end.

Runs the calibrated MetBench suite through all four priority
configurations the paper evaluates and prints the paper-vs-simulated
comparison plus the per-case rank breakdowns and traces.

Run:  python examples/metbench_cases.py
"""

from repro.experiments import case_trace, comparison_table, metbench_suite, run_suite
from repro.machine.system import System, SystemConfig

system = System(SystemConfig())
suite = metbench_suite(iterations=10)

results = run_suite(suite, system)
print(comparison_table(results).render())
print()

for r in results:
    print(r.rank_table(f"case {r.case.name}: {r.case.description}").render())
    print()

# Figure 2-style trace of the winning configuration.
chart, run = case_trace(suite, "C", system, width=90)
print("Trace of case C (the paper's best MetBench configuration):")
print(chart)

best = min(results, key=lambda r: r.measured_exec)
ref = next(r for r in results if r.case.name == "A")
gain = (ref.measured_exec - best.measured_exec) / ref.measured_exec * 100
print(f"\nbest case: {best.case.name} "
      f"({gain:.1f}% over the unbalanced reference; the paper reports 8.26%)")

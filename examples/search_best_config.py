#!/usr/bin/env python
"""Automating the paper's manual tuning: search the configuration space.

The authors found the best priorities per application by trying cases
A-D by hand. With a simulator, the whole space is searchable: this
example exhaustively evaluates every per-core priority combination
(levels 3-6, gap <= 2) for a BT-MZ-like workload and prints the ranking,
then shows the greedy hill-climb reaching a comparable answer with far
fewer runs.

Run:  python examples/search_best_config.py
"""

from repro import System, SystemConfig, paper_mapping
from repro.core import greedy_priority_search, joint_search
from repro.util.tables import TextTable
from repro.workloads import ZoneGrid, bt_mz_programs

system = System(SystemConfig())
works = ZoneGrid().rank_works(4, instructions_per_point=2e4)
mapping = paper_mapping("btmz")  # the paper's pairing: P1+P4, P2+P3


def factory():
    return bt_mz_programs(works, iterations=8, profile="cfd", init_factor=0.5)


print("exhaustive search over levels 3-6, max gap 2 ...")
result = joint_search(
    system, factory, n_ranks=4, levels=(3, 4, 5, 6), max_gap=2,
    mappings=[mapping],
)
baseline_time = [
    t for a, t, _ in result.entries
    if a.priority_dict == {r: 4 for r in range(4)}
][0]

table = TextTable(["rank", "priorities (P1..P4)", "exec time", "imbalance %"],
                  title=f"Top configurations of {result.evaluated} evaluated")
for i, (assignment, t, imb) in enumerate(result.entries[:8], start=1):
    prios = assignment.priority_dict
    table.add_row([i, " ".join(str(prios[r]) for r in range(4)),
                   f"{t:.2f}s", f"{imb:.1f}"])
print(table.render())
print(f"\nbest improves {result.improvement_over(baseline_time):.1f}% "
      f"over all-MEDIUM ({baseline_time:.2f}s)")

greedy = greedy_priority_search(
    system, factory, mapping, levels=(3, 4, 5, 6), max_gap=2, max_steps=6
)
print(f"\ngreedy hill-climb: best {greedy.best_time:.2f}s "
      f"after {greedy.evaluated} evaluations "
      f"(exhaustive best {result.best_time:.2f}s)")
print("greedy's answer:", greedy.best.describe())

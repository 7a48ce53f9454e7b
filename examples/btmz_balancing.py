#!/usr/bin/env python
"""BT-MZ: comparing three answers to zone-skew imbalance.

BT Multi-Zone's geometric zone sizes skew per-rank work ~5.6x. This
example contrasts the classic approaches with the paper's:

1. *data re-distribution* — greedy zone bin-packing (METIS-style, the
   related-work baseline): balanced, but must be redone per input;
2. *the paper's mechanism* — keep the naive distribution, re-pair ranks
   (heaviest with lightest) and re-divide each core's decode slots;
3. *the static balancer* — profile once, plan, verify.

Run:  python examples/btmz_balancing.py
"""

from repro import ProcessMapping, System, SystemConfig, paper_mapping
from repro.core import StaticPriorityBalancer
from repro.util.tables import TextTable
from repro.workloads import ZoneGrid, bt_mz_programs

system = System(SystemConfig())
grid = ZoneGrid()  # 4x4 zones, geometric sizes (class-A-like)
print(f"zone grid: {grid.x_zones}x{grid.y_zones}, "
      f"largest/smallest zone = {grid.skew:.1f}x")

naive_works = grid.rank_works(4, instructions_per_point=3e4)
greedy_works = grid.rank_works(4, instructions_per_point=3e4, assignment="greedy")
print("naive zone assignment, per-rank work ratio:",
      [round(w / min(naive_works), 2) for w in naive_works])

ITER = 20
results = {}
results["naive distribution"] = system.run(
    bt_mz_programs(naive_works, iterations=ITER, profile="cfd", init_factor=0.5),
    ProcessMapping.identity(4),
)
results["greedy re-distribution"] = system.run(
    bt_mz_programs(greedy_works, iterations=ITER, profile="cfd", init_factor=0.5),
    ProcessMapping.identity(4),
)
results["priority balancing (paper case C)"] = system.run(
    bt_mz_programs(naive_works, iterations=ITER, profile="cfd", init_factor=0.5),
    paper_mapping("btmz"),  # P1 with P4, P2 with P3
    priorities={0: 4, 1: 4, 2: 6, 3: 6},
)

# Profile the naive run, plan from each rank's compute time, verify.
profile = results["naive distribution"]
compute_seconds = [
    r.compute_fraction * profile.total_time for r in profile.stats.ranks
]
plan = StaticPriorityBalancer().plan(compute_seconds, ProcessMapping.identity(4))
results["static balancer (profile -> plan)"] = system.run(
    bt_mz_programs(naive_works, iterations=ITER, profile="cfd", init_factor=0.5),
    plan.mapping,
    priorities=plan.priority_dict,
)

table = TextTable(["approach", "exec time", "imbalance %", "vs naive"],
                  title="BT-MZ balancing approaches")
ref = results["naive distribution"].total_time
for name, run in results.items():
    delta = (run.total_time - ref) / ref * 100
    table.add_row([name, f"{run.total_time:.2f}s",
                   f"{run.imbalance_percent:.1f}", f"{delta:+.1f}%"])
print()
print(table.render())
print(f"\nstatic balancer's plan: {plan.describe()}")

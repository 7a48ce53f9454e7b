#!/usr/bin/env python
"""Scaling out: SMT balancing on a multi-node cluster.

The paper's motivation is MareNostrum-scale waste: one laggard rank idles
thousands of CPUs. This example runs a 16-rank BT-MZ-like application on
a 4-node cluster behind a two-level switch tree and shows the two
imbalance sources composing:

* *intrinsic*: zone-size skew within each node's ranks, fixed per-core
  with hardware priorities exactly as on one node;
* *extrinsic*: a bad job placement that puts communicating neighbours on
  opposite sides of the spine.

Run:  python examples/cluster_topology.py
"""

from repro import ProcessMapping, System, SystemConfig, TwoLevelTree
from repro.util.tables import TextTable
from repro.workloads import ZoneGrid, bt_mz_programs

N_NODES, N_RANKS = 4, 16
system = System(
    SystemConfig(
        n_nodes=N_NODES,
        network=TwoLevelTree(nodes_per_switch=2, far_latency=60e-6,
                             far_bandwidth=80e6),
    )
)

# Each node hosts the same light/heavy pattern: under the packed
# (identity) mapping every core pairs one light rank with one 3.5x
# heavier one — the intrinsic skew, repeated per node. Ring neighbours
# are consecutive ranks, so packing keeps most traffic on-node.
works = [1e9 if r % 2 == 0 else 3.5e9 for r in range(N_RANKS)]
ITER = 8


def programs():
    return bt_mz_programs(works, iterations=ITER, profile="cfd",
                          exchange_bytes=8 << 20, init_factor=0.5)


packed = ProcessMapping.identity(N_RANKS)
# A scattered placement: round-robin ranks over nodes, so every ring
# neighbour pair crosses the network (and half cross the spine).
scattered = ProcessMapping.from_dict(
    {rank: (rank % N_NODES) * 4 + rank // N_NODES for rank in range(N_RANKS)}
)

# Per-core priority plan under the packed mapping: favour the heavy rank
# of every core pair by one level.
prios = {rank: (5 if rank % 2 else 4) for rank in range(N_RANKS)}

table = TextTable(["configuration", "exec time", "imbalance %"],
                  title=f"BT-MZ-like, {N_RANKS} ranks on {N_NODES} nodes")
for name, mapping, priorities in (
    ("packed placement", packed, None),
    ("packed + per-core priorities", packed, prios),
    ("scattered placement (bad job scheduler)", scattered, None),
    ("scattered + per-core priorities", scattered, prios),
):
    r = system.run(programs(), mapping, priorities=priorities)
    table.add_row([name, f"{r.total_time:.2f}s", f"{r.imbalance_percent:.1f}"])
print(table.render())
print(
    "\nthree lessons compose here:\n"
    " 1. per-core priorities recover the intrinsic skew under the packed\n"
    "    placement (each core pairs a light rank with a heavy one);\n"
    " 2. the scattered placement pays the spine for every exchange -- an\n"
    "    extrinsic cost only the job scheduler can remove; and\n"
    " 3. scattering also pairs like with like on each core, so the same\n"
    "    priority plan has nothing to shift -- the paper's pairing insight\n"
    "    (who shares a core) is a precondition for the priority mechanism."
)

"""Multi-node runs end to end."""

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterSystem,
    ClusterSystemConfig,
    TwoLevelTree,
    UniformNetwork,
)
from repro.core import joint_search
from repro.errors import ConfigurationError
from repro.machine.mapping import ProcessMapping
from repro.machine.system import System, SystemConfig
from repro.scenarios.engines import trace_digest
from repro.workloads.generators import barrier_loop_programs


def pingpong_programs(peer, rounds=10, nbytes=1 << 20):
    def make(rank):
        def prog(mpi):
            for i in range(rounds):
                if mpi.rank == 0:
                    yield mpi.send(dest=peer, tag=i, nbytes=nbytes)
                    yield mpi.recv(source=peer, tag=i)
                else:
                    yield mpi.recv(source=0, tag=i)
                    yield mpi.send(dest=0, tag=i, nbytes=nbytes)

        return prog

    return [make(0), make(peer)]


@pytest.fixture()
def cluster():
    return System(SystemConfig(n_nodes=2))


class TestClusterRuns:
    def test_eight_ranks_over_two_nodes(self, cluster):
        result = cluster.run(
            barrier_loop_programs([2e9] * 8, iterations=2),
            ProcessMapping.identity(8),
        )
        assert result.total_time > 0
        assert result.imbalance_percent < 5.0

    def test_inter_node_messages_cost_more(self, cluster):
        intra = cluster.run(
            pingpong_programs(1), ProcessMapping.from_dict({0: 0, 1: 2})
        ).total_time
        inter = cluster.run(
            pingpong_programs(1), ProcessMapping.from_dict({0: 0, 1: 4})
        ).total_time
        assert inter > intra * 2

    def test_no_cross_node_smt_interference(self, cluster):
        """Ranks on different nodes share nothing: each runs at solo
        speed. Use the cache-hungry dft profile, whose same-core pair tax
        is ~20%."""

        def prog(mpi):
            yield mpi.compute(2e9, profile="dft")

        same_core = cluster.run(
            [prog, prog], ProcessMapping.from_dict({0: 0, 1: 1})
        ).total_time
        other_node = cluster.run(
            [prog, prog], ProcessMapping.from_dict({0: 0, 1: 4})
        ).total_time
        assert other_node < same_core * 0.85

    def test_priorities_work_per_node(self, cluster):
        works = [1e9, 4e9, 1e9, 4e9, 1e9, 4e9, 1e9, 4e9]
        base = cluster.run(
            barrier_loop_programs(works, iterations=2), ProcessMapping.identity(8)
        )
        balanced = cluster.run(
            barrier_loop_programs(works, iterations=2),
            ProcessMapping.identity(8),
            priorities={r: (6 if r % 2 else 4) for r in range(8)},
        )
        assert balanced.total_time < base.total_time

    def test_mapping_size_checked(self, cluster):
        def prog(mpi):
            yield mpi.compute(1e6, profile="hpc")

        with pytest.raises(ConfigurationError):
            cluster.run([prog, prog], ProcessMapping.identity(3))


class TestTopologyImbalance:
    def test_far_neighbour_creates_extrinsic_imbalance(self):
        """The paper's 'network topology' extrinsic cause: identical work,
        but one rank's barrier-partner messages cross the spine."""
        system = System(
            SystemConfig(
                n_nodes=4,
                network=TwoLevelTree(
                    nodes_per_switch=2, far_latency=4e-3, far_bandwidth=40e6
                ),
            )
        )

        def make(peer, nbytes):
            def prog(mpi):
                for it in range(4):
                    yield mpi.compute(5e8, profile="hpc")
                    yield mpi.sendrecv(
                        dest=peer, send_tag=it, nbytes=nbytes,
                        source=peer, recv_tag=it,
                    )

            return prog

        nbytes = 1 << 22
        # Pair (0,1) near (same switch: nodes 0,1); pair (2,3) far
        # (nodes 0 and 2 across the spine).
        near = system.run(
            [make(1, nbytes), make(0, nbytes)],
            ProcessMapping.from_dict({0: 0, 1: 4}),
        ).total_time
        far = system.run(
            [make(1, nbytes), make(0, nbytes)],
            ProcessMapping.from_dict({0: 0, 1: 8}),
        ).total_time
        assert far > near * 1.2


class TestOneRunner:
    def test_former_cluster_names_run_the_same_trace(self):
        """``ClusterSystem``/``ClusterSystemConfig`` remain as names for
        older callers: they build the same System and run the same trace."""
        old = ClusterSystem(
            ClusterSystemConfig(
                cluster=ClusterConfig(n_nodes=2), network=UniformNetwork()
            )
        )
        new = System(SystemConfig(n_nodes=2, network=UniformNetwork()))
        assert isinstance(old, System)
        assert old.config == new.config
        # CPUs 0 and 4 sit on different nodes: messages cross the network.
        mapping = ProcessMapping.from_dict({0: 0, 1: 4})
        old_run = old.run(pingpong_programs(1), mapping)
        new_run = new.run(pingpong_programs(1), mapping)
        assert trace_digest(old_run) == trace_digest(new_run)
        assert old_run.total_time == new_run.total_time

    @pytest.mark.parametrize("n_nodes", [1, 2])
    def test_joint_search_defaults_to_one_node_chip(self, n_nodes):
        """Without ``n_cores`` the joint search sweeps one node's chip,
        on any System."""
        system = System(SystemConfig(n_nodes=n_nodes))
        result = joint_search(
            system,
            lambda: barrier_loop_programs([1e9, 3e9], iterations=1),
            n_ranks=2,
            levels=(4, 5),
            max_gap=1,
            workers=1,
        )
        assert result.evaluated > 0
        mapping = result.best.mapping
        assert all(
            mapping.cpu_of(r) < system.config.chip.n_cpus for r in range(2)
        )

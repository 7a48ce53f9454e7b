"""ClusterMachine facade."""

import pytest

from repro.cluster.machine import ClusterConfig, ClusterMachine
from repro.errors import ConfigurationError
from repro.smt.instructions import BASE_PROFILES


@pytest.fixture()
def machine():
    return ClusterMachine(ClusterConfig(n_nodes=3))


class TestAddressing:
    def test_global_cpu_layout(self, machine):
        assert machine.config.n_cpus == 12
        assert machine.cpus == list(range(12))

    def test_out_of_range(self, machine):
        with pytest.raises(ConfigurationError):
            machine.priority(12)

    def test_core_groups_per_chip(self, machine):
        assert machine.core_groups == [[0, 1], [2, 3], [4, 5]]
        assert len(machine.cores) == 6


class TestStateRouting:
    def test_priority_routes_to_right_chip(self, machine):
        machine.set_priority(5, 6)  # node 1, local cpu 1 -> core 0 thread 1
        assert int(machine.priority(5)) == 6
        assert int(machine.chips[1].priority(1)) == 6
        assert int(machine.chips[0].priority(1)) == 4  # untouched

    def test_load_routes_to_right_chip(self, machine):
        machine.set_load(8, BASE_PROFILES["hpc"])
        assert machine.chips[2].load(0).name == "hpc"
        assert machine.load(8).name == "hpc"

    def test_reset(self, machine):
        machine.set_priority(0, 6)
        machine.set_load(0, BASE_PROFILES["hpc"])
        machine.reset()
        assert int(machine.priority(0)) == 4
        assert machine.load(0) is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(n_nodes=0)

"""Experiment suite definitions and calibration."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.cases import btmz_suite, metbench_suite, siesta_suite


class TestSuiteStructure:
    def test_metbench_cases(self):
        suite = metbench_suite(iterations=2)
        assert [c.name for c in suite.cases] == ["A", "B", "C", "D"]
        assert suite.case("C").spec.priority_dict() == {0: 4, 1: 6, 2: 4, 3: 6}
        with pytest.raises(ConfigurationError):
            suite.case("Z")

    def test_btmz_cases_include_st(self):
        suite = btmz_suite(iterations=2)
        names = [c.name for c in suite.cases]
        assert names == ["ST", "A", "B", "C", "D"]
        assert suite.case("ST").spec.n_ranks == 2
        # Case D per Table V: P3 at 5, P4 at 6.
        assert suite.case("D").spec.priority_dict() == {0: 4, 1: 4, 2: 5, 3: 6}

    def test_btmz_remap_pairs_p1_with_p4(self):
        suite = btmz_suite(iterations=2)
        mapping = suite.case("C").spec.mapping_obj()
        assert mapping.sibling_of(0) == 3

    def test_siesta_cases(self):
        suite = siesta_suite(n_iterations=2, time_scale=0.05)
        assert [c.name for c in suite.cases] == ["ST", "A", "B", "C", "D"]
        assert suite.case("C").spec.priority_dict() == {0: 4, 1: 4, 2: 4, 3: 5}

    def test_paper_values_attached(self):
        suite = metbench_suite(iterations=2)
        a = suite.case("A")
        assert a.paper_exec_seconds == pytest.approx(81.64)
        assert a.paper_imbalance_percent == pytest.approx(75.69)
        assert len(a.paper_comp_percent) == 4


class TestFactories:
    def test_programs_fresh_per_call(self):
        suite = metbench_suite(iterations=2)
        case = suite.case("A")
        p1 = suite.programs(case)
        p2 = suite.programs(case)
        assert p1 is not p2
        assert len(p1) == 4

    def test_st_factory_two_ranks(self):
        suite = btmz_suite(iterations=2)
        assert len(suite.programs(suite.case("ST"))) == 2

    def test_time_scale_validation(self):
        with pytest.raises(ConfigurationError):
            siesta_suite(time_scale=0.0)


class TestCalibration:
    def test_metbench_case_a_work_ratio_matches_comp_percent(self):
        """The calibration contract: work ratios follow the paper's
        compute shares (per-rank rates almost equal under blending)."""
        suite = metbench_suite(iterations=1)
        progs = suite.programs(suite.case("A"))
        assert len(progs) == 4

    def test_metbench_case_a_reproduces_reference(self, system):
        """Case A must land close to the paper's total time & imbalance —
        it is calibrated, so this validates the whole pipeline."""
        from repro.experiments.runner import run_case

        suite = metbench_suite(iterations=3)
        result = run_case(system, suite, suite.case("A"))
        assert result.measured_exec == pytest.approx(81.64, rel=0.05)
        assert result.measured_imbalance == pytest.approx(75.69, abs=4.0)

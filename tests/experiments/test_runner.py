"""Experiment runner and comparison tables."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.cases import metbench_suite
from repro.experiments.runner import CaseResult, comparison_table, run_case, run_suite


@pytest.fixture(scope="module")
def quick_results():
    from repro.machine.system import System, SystemConfig

    suite = metbench_suite(iterations=2)
    return run_suite(suite, System(SystemConfig()), cases=["A", "C"])


class TestRunSuite:
    def test_selected_cases_in_order(self, quick_results):
        assert [r.case.name for r in quick_results] == ["A", "C"]

    def test_case_result_fields(self, quick_results):
        r = quick_results[0]
        assert r.suite == "metbench"
        assert r.measured_exec > 0
        assert 0 <= r.measured_imbalance <= 100
        assert len(r.measured_comp_percent) == 4

    def test_no_matching_cases(self):
        suite = metbench_suite(iterations=2)
        with pytest.raises(ConfigurationError):
            run_suite(suite, cases=["Z"])

    def test_case_c_beats_case_a(self, quick_results):
        by_name = {r.case.name: r for r in quick_results}
        assert by_name["C"].measured_exec < by_name["A"].measured_exec


class TestComparisonTable:
    def test_render_contains_both_columns(self, quick_results):
        out = comparison_table(quick_results).render()
        assert "Paper exec" in out and "Sim exec" in out
        assert "81.64s" in out  # paper value for case A

    def test_deltas_relative_to_reference(self, quick_results):
        out = comparison_table(quick_results, reference="A").render()
        lines = [l for l in out.splitlines() if l.startswith("C")]
        assert lines and "%" in lines[0]

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            comparison_table([])


class TestRankTable:
    @staticmethod
    def core_and_priority(result):
        """(Core, P) cells per rank row of the rendered table."""
        rows = result.rank_table("t").render().splitlines()[3:]
        return [tuple(c.strip() for c in row.split("|")[1:3]) for row in rows]

    def test_default_priorities_are_medium(self, quick_results):
        case_a = quick_results[0]
        assert case_a.case.spec.priority_dict() is None
        assert self.core_and_priority(case_a) == [
            ("1", "4"), ("1", "4"), ("2", "4"), ("2", "4"),
        ]

    def test_case_priorities_and_one_based_cores(self, quick_results):
        case_c = quick_results[1]
        assert self.core_and_priority(case_c) == [
            ("1", "4"), ("1", "6"), ("2", "4"), ("2", "6"),
        ]
        assert case_c.rank_table("MetBench case C").title == "MetBench case C"

"""Cross-model conformance and the seeded fuzz driver."""

import pytest

from repro.errors import ConfigurationError, ValidationError
from repro.oracle.differential import (
    ScenarioGenerator,
    Tolerances,
    check_conformance,
    fast_cycle_table,
    fuzz,
)
from repro.scenarios import ScenarioSpec, get_engine


def digest(spec, **options):
    return get_engine("fluid").run(spec, options=options).digest


class TestScenario:
    def test_round_trips_through_doc(self, oracle_scenario):
        doc = oracle_scenario.to_doc()
        assert ScenarioSpec.from_doc(doc) == oracle_scenario
        assert ScenarioSpec.from_doc(doc).fingerprint == oracle_scenario.fingerprint

    def test_fingerprint_is_content_addressed(self, oracle_scenario):
        import dataclasses

        other = dataclasses.replace(oracle_scenario, iterations=3)
        assert other.fingerprint != oracle_scenario.fingerprint

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="x", kind="quantum", works=(1e9,), iterations=1)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="x", kind="metbench", works=(), iterations=1)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                name="x", kind="metbench", works=(1e9,), iterations=1,
                priorities=((0, 7),),  # 7 is not OS-settable
            )

    def test_malformed_doc_raises_validation_error(self):
        # Migrated with the ScenarioSpec unification: malformed documents
        # now raise the typed ValidationError (still a ValueError, and
        # still a ReproError like OracleError was).
        with pytest.raises(ValidationError):
            ScenarioSpec.from_doc({"name": "x"})


class TestTraceDigest:
    def test_same_scenario_same_digest(self, oracle_scenario):
        assert digest(oracle_scenario) == digest(oracle_scenario)

    def test_different_physics_different_digest(self, oracle_scenario):
        import dataclasses

        other = dataclasses.replace(oracle_scenario, priorities=())
        assert digest(oracle_scenario) != digest(other)

    def test_incremental_rates_toggle_is_digest_invisible(self, oracle_scenario):
        on = digest(oracle_scenario, incremental_rates=True)
        off = digest(oracle_scenario, incremental_rates=False)
        assert on == off


class TestModelPaths:
    def test_three_paths_agree_within_declared_tolerances(self, oracle_scenario):
        tol = Tolerances()
        fluid = get_engine("fluid").run(oracle_scenario)
        cycle = get_engine("cycle").run(
            oracle_scenario, options={"table": fast_cycle_table()}
        )
        estimate = get_engine("analytic").run(oracle_scenario).total_time
        ratio = fluid.total_time / cycle.total_time
        assert 1.0 / tol.model_time_ratio <= ratio <= tol.model_time_ratio
        assert (
            estimate * tol.estimate_lower
            <= fluid.total_time
            <= estimate * tol.estimate_upper
        )

    def test_check_conformance_reports_clean(self, oracle_scenario):
        result = check_conformance(oracle_scenario)
        assert result.ok, result.disagreements
        assert result.incremental_digest_equal

    def test_impossible_tolerance_is_reported_not_raised(self, oracle_scenario):
        tight = Tolerances(model_time_ratio=1.0000001)
        result = check_conformance(oracle_scenario, tolerances=tight)
        # The cycle and analytic models differ by more than 1e-7; the
        # disagreement is data, not an exception.
        assert not result.ok
        assert any("fluid/cycle" in d for d in result.disagreements)


class TestScenarioGenerator:
    def test_deterministic_per_seed(self):
        a = ScenarioGenerator(seed=5).take(6)
        b = ScenarioGenerator(seed=5).take(6)
        assert [s.fingerprint for s in a] == [s.fingerprint for s in b]

    def test_seeds_diverge(self):
        a = ScenarioGenerator(seed=5).take(6)
        b = ScenarioGenerator(seed=6).take(6)
        assert [s.fingerprint for s in a] != [s.fingerprint for s in b]

    def test_draws_are_valid_scenarios(self):
        for s in ScenarioGenerator(seed=0).take(12):
            assert s.kind in ("barrier_loop", "metbench", "btmz")
            assert s.n_ranks in (2, 4)
            assert all(w > 0 for w in s.works)
            for _, p in s.priorities:
                assert 1 <= p <= 6


class TestFuzz:
    def test_small_budget_conforms(self):
        report = fuzz(4, seed=0)
        assert report.ok, report.summary()
        assert report.checked == 4
        assert "conform" in report.summary()

    def test_budget_validated(self):
        with pytest.raises(ConfigurationError):
            fuzz(0)

"""InvariantChecker / RuntimeChecker wiring into runs."""

import dataclasses

import pytest

from repro.errors import InvariantViolation
from repro.machine.mapping import ProcessMapping
from repro.machine.system import System, SystemConfig
from repro.mpi.runtime import RuntimeConfig
from repro.oracle.checker import (
    CheckReport,
    InvariantChecker,
    verify_decode_law,
    verify_run,
    verify_trace,
)
from repro.scenarios import get_engine
from repro.workloads.generators import barrier_loop_programs


def _fluid_run(spec, check_invariants=False):
    """The raw RunResult of one fluid-engine run."""
    return get_engine("fluid").run(
        spec, options={"check_invariants": check_invariants}
    ).run


class TestCheckReport:
    def test_ok_and_summary(self):
        report = CheckReport(checked=["a", "b"])
        assert report.ok
        assert "2 invariants hold" in report.summary()

    def test_merge_accumulates(self):
        left = CheckReport(checked=["a"])
        right = CheckReport(
            checked=["b"], violations=[InvariantViolation("b", "boom")]
        )
        left.merge(right)
        assert left.checked == ["a", "b"]
        assert not left.ok
        assert "1 of 2" in left.summary()


class TestPostHocSweeps:
    def test_decode_law_holds(self):
        assert verify_decode_law().ok

    def test_clean_run_passes_run_and_trace_sweeps(self, oracle_scenario):
        result = _fluid_run(oracle_scenario)
        assert verify_run(result).ok
        assert verify_trace(result.trace).ok

    def test_collecting_mode_gathers_instead_of_raising(self, oracle_scenario):
        result = _fluid_run(oracle_scenario)
        # Tamper post-hoc: a non-physical execution time.
        bad = dataclasses.replace(result, total_time=-1.0)
        checker = InvariantChecker(strict=False)
        report = checker.check_run(bad)
        assert not report.ok
        assert any(v.invariant == "run.accounting" for v in report.violations)

    def test_strict_mode_raises_on_first_violation(self, oracle_scenario):
        result = _fluid_run(oracle_scenario)
        bad = dataclasses.replace(result, final_priorities=(9, 4, 4, 4))
        with pytest.raises(InvariantViolation) as exc:
            verify_run(bad)
        assert exc.value.invariant == "run.accounting"


class TestLiveRuntimeChecker:
    def test_checked_run_matches_unchecked_run_exactly(self, oracle_scenario):
        """The live oracle observes; it must never perturb the physics."""
        plain = _fluid_run(oracle_scenario, check_invariants=False)
        checked = _fluid_run(oracle_scenario, check_invariants=True)
        assert checked.total_time == plain.total_time
        assert checked.events_processed == plain.events_processed

    def test_knob_reaches_the_runtime(self):
        system = System(
            SystemConfig(runtime=RuntimeConfig(check_invariants=True))
        )
        result = system.run(
            barrier_loop_programs([1e8, 2e8], iterations=2),
            ProcessMapping.identity(2),
        )
        assert result.total_time > 0  # ran to completion under the oracle

    def test_off_by_default(self):
        assert RuntimeConfig().check_invariants is False

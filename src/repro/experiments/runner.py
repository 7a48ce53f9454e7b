"""Run experiment suites and build paper-vs-measured comparisons."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.experiments.cases import ExperimentCase, Suite
from repro.machine.system import System, SystemConfig
from repro.mpi.runtime import RunResult
from repro.scenarios.registry import engine_for_model, get_engine
from repro.util.stats import percent_change
from repro.util.tables import TextTable

__all__ = ["CaseResult", "run_case", "run_suite", "comparison_table"]


@dataclass(frozen=True)
class CaseResult:
    """One case's measured outcome, paired with the paper's numbers."""

    suite: str
    case: ExperimentCase
    run: RunResult

    @property
    def measured_exec(self) -> float:
        return self.run.total_time

    @property
    def measured_imbalance(self) -> float:
        return self.run.imbalance_percent

    @property
    def measured_comp_percent(self) -> List[float]:
        return [r.compute_percent for r in self.run.stats.ranks]

    def rank_table(self, label: str) -> TextTable:
        """The paper-style per-rank table (Tables IV-VI): each rank's
        priority (MEDIUM when the case sets none) and 1-based core."""
        spec = self.case.spec
        ranks = range(spec.n_ranks)
        priorities = spec.priority_dict() or {r: 4 for r in ranks}
        mapping = spec.mapping_obj()
        cores = {r: mapping.core_of(r) + 1 for r in ranks}
        return self.run.stats.as_table(priorities, cores, label=label)


def run_case(
    system: System,
    suite: Suite,
    case: ExperimentCase,
    check_invariants: bool = False,
) -> CaseResult:
    """Execute one case of a suite on ``system``.

    The case's :class:`~repro.scenarios.ScenarioSpec` is dispatched to
    the engine that realises ``system``'s model knob (analytic model ->
    "fluid", cycle model -> "cycle"), running on the caller's ``system``
    so warm model caches and loaded throughput tables are reused across
    a suite.

    ``check_invariants=True`` sweeps the oracle layer's run/trace
    invariants over the finished result (strict: the first violation
    raises) — the cheap post-hoc mode, independent of the runtime's own
    ``RuntimeConfig.check_invariants`` live hooks.
    """
    engine = get_engine(engine_for_model(system.config.model))
    result = engine.run(
        case.spec,
        label=f"{suite.name}.{case.name}",
        system=system,
    )
    if check_invariants:
        from repro.oracle.checker import verify_run

        verify_run(result.run)
    return CaseResult(suite.name, case, result.run)


def run_suite(
    suite: Suite,
    system: Optional[System] = None,
    cases: Optional[Sequence[str]] = None,
    check_invariants: bool = False,
) -> List[CaseResult]:
    """Execute all (or the named) cases of a suite, in definition order."""
    system = system or System(SystemConfig())
    wanted = set(cases) if cases is not None else None
    results: List[CaseResult] = []
    for case in suite.cases:
        if wanted is not None and case.name not in wanted:
            continue
        results.append(run_case(system, suite, case, check_invariants=check_invariants))
    if not results:
        raise ConfigurationError(f"no cases selected from suite {suite.name!r}")
    # Cycle-model systems with a configured table path persist whatever
    # new measurements this suite produced, so the next invocation
    # starts warm.
    system.save_throughput_table()
    return results


def comparison_table(results: Sequence[CaseResult], reference: str = "A") -> TextTable:
    """Paper-vs-measured table: exec time, imbalance, and the improvement
    over the reference case, for every case."""
    if not results:
        raise ConfigurationError("no results to tabulate")
    by_name: Dict[str, CaseResult] = {r.case.name: r for r in results}
    ref = by_name.get(reference)
    table = TextTable(
        [
            "Case",
            "Paper exec",
            "Sim exec",
            "Paper imb%",
            "Sim imb%",
            "Paper vs A",
            "Sim vs A",
        ],
        title=f"{results[0].suite}: paper vs simulated",
    )
    for r in results:
        if ref is not None and r.case.name != reference and ref.case.paper_exec_seconds:
            paper_delta = percent_change(
                r.case.paper_exec_seconds, ref.case.paper_exec_seconds
            )
            sim_delta = percent_change(r.measured_exec, ref.measured_exec)
            paper_delta_s = f"{paper_delta:+.2f}%"
            sim_delta_s = f"{sim_delta:+.2f}%"
        else:
            paper_delta_s = sim_delta_s = "--"
        table.add_row(
            [
                r.case.name,
                f"{r.case.paper_exec_seconds:.2f}s",
                f"{r.measured_exec:.2f}s",
                f"{r.case.paper_imbalance_percent:.2f}",
                f"{r.measured_imbalance:.2f}",
                paper_delta_s,
                sim_delta_s,
            ]
        )
    return table

"""One benchmark process for the in-process workloads.

Run by ``run.py``, never by hand::

    python3 perfbench/child.py <search|tournament|report> --seed N
        (--setup-only | --seconds S | --ops K) [--traced] [--spans FILE]

The process imports the program, warms up, and prints ``READY``; the
parent times process start to that line as one set-up sample. It then
times the host-speed kernel (``common.host_ref_s``) three times, which
scales that sample. With ``--setup-only`` it prints those in one
``RESULT <json>`` line and exits. Otherwise it runs operations for
``--seconds`` (or exactly ``--ops`` of them), each bracketed by kernel
samples, checks every output, and prints one ``RESULT <json>`` line.
``--traced`` wraps the program's layer boundaries in spans (installed
after the warm-up) and adds the per-layer numbers to the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from tracer import Tracer, install, replace_everywhere  # noqa: E402

# -- search -------------------------------------------------------------------

#: ``repro search`` CLI defaults (see ``repro.cli.build_parser``).
SEARCH_DEFAULT_WORKS = (8e8, 2.4e9, 1.2e9, 2e9)
SEARCH_ARGS = dict(
    kind="metbench", profile="hpc", iterations=2, levels=(3, 4, 5, 6),
    max_gap=2, top=10, spec_seed=0, nodes=2, exchange_bytes=16_000_000,
)


def search_works(seed: int, index: int) -> tuple:
    """Four per-rank works (instructions), drawn from the seed."""
    rng = random.Random(f"search:{seed}:{index}")
    return tuple(round(rng.uniform(6e8, 2.6e9), -7) for _ in range(4))


class SearchWorkload:
    """``repro search joint`` then ``repro search cluster``, as the CLI
    runs them, on a seeded work vector per operation."""

    def __init__(self, seed: int) -> None:
        from repro.scenarios.engines import FluidEngine

        self.seed = seed
        self.engine = FluidEngine()
        self.checks: List[dict] = []
        self.winners: List[tuple] = []

    def joint(self, works) -> tuple:
        import repro.core as core
        from repro.machine.mapping import ProcessMapping
        from repro.machine.system import System, SystemConfig
        from repro.scenarios import ScenarioSpec

        a = SEARCH_ARGS
        spec = ScenarioSpec(
            name="search-joint", kind=a["kind"], works=works,
            iterations=a["iterations"], profile=a["profile"], seed=a["spec_seed"],
        )
        system = System(SystemConfig(seed=a["spec_seed"]))
        system.run(
            list(spec.programs()),
            mapping=ProcessMapping.identity(spec.n_ranks),
            label="search.baseline",
        )
        result = core.joint_search(
            system, spec.programs, n_ranks=spec.n_ranks, levels=a["levels"],
            max_gap=a["max_gap"], keep_top=a["top"], workers=1,
        )
        return spec, result

    def cluster(self, works) -> tuple:
        import repro.core as core
        from repro.cluster import (
            ClusterConfig, ClusterSystem, ClusterSystemConfig, UniformNetwork,
        )
        from repro.machine.mapping import ProcessMapping
        from repro.workloads.generators import distant_pairs_programs

        a = SEARCH_ARGS

        def factory():
            return distant_pairs_programs(
                list(works), iterations=a["iterations"], profile=a["profile"],
                exchange_bytes=a["exchange_bytes"],
            )

        system = ClusterSystem(
            ClusterSystemConfig(
                cluster=ClusterConfig(n_nodes=a["nodes"]), network=UniformNetwork()
            )
        )
        system.run(
            list(factory()), mapping=ProcessMapping.identity(len(works)),
            label="search.cluster.baseline",
        )
        return core.two_level_search(
            system, factory, n_ranks=len(works), n_nodes=a["nodes"],
            levels=a["levels"], max_gap=a["max_gap"], keep_top=a["top"], workers=1,
        )

    def verify(self) -> None:
        """Each winner's time, re-simulated through the fluid engine."""
        from repro.cluster import TopologySpec
        from repro.scenarios import ScenarioSpec

        a = SEARCH_ARGS
        for kind, works, (assignment, best_time, _imbalance) in self.winners:
            extra = {}
            if kind == "cluster":
                extra = dict(
                    params={"exchange_bytes": a["exchange_bytes"]},
                    topology=TopologySpec(n_nodes=a["nodes"]),
                )
            spec = ScenarioSpec(
                name=f"check-{kind}",
                kind=a["kind"] if kind == "joint" else "distant_pairs",
                works=works, iterations=a["iterations"], profile=a["profile"],
                seed=a["spec_seed"], mapping=assignment.mapping.rank_to_cpu,
                priorities=assignment.priorities, **extra,
            )
            replayed = self.engine.run(spec).total_time
            self.checks.append({
                "check": f"search.{kind}.winner_replay", "ok": replayed == best_time,
                "works": list(works), "search_time": best_time,
                "fluid_time": replayed,
            })

    def op(self, index: Optional[int]) -> dict:
        works = SEARCH_DEFAULT_WORKS if index is None else search_works(self.seed, index)
        t0 = time.perf_counter()
        _spec, joint = self.joint(works)
        t1 = time.perf_counter()
        cluster = self.cluster(works)
        t2 = time.perf_counter()
        self.winners.append(("joint", works, joint.entries[0]))
        self.winners.append(("cluster", works, cluster.entries[0]))
        return {
            "joint_s": t1 - t0, "joint_cands": joint.stats.evaluations,
            "cluster_s": t2 - t1, "cluster_cands": cluster.stats.evaluations,
            "memo_hits": joint.stats.cache_hits + cluster.stats.cache_hits,
            "memo_misses": joint.stats.cache_misses + cluster.stats.cache_misses,
        }

    @staticmethod
    def summarise(ops: List[dict]) -> dict:
        # Rates are medians over operations, each scaled to the nominal
        # host speed measured around it (see ``common.host_ref_s``).
        joint_rate = statistics.median(
            [o["joint_cands"] / (o["joint_s"] * o["speed"]) for o in ops]
        )
        joint_ms = statistics.median([1000.0 * o["joint_s"] * o["speed"] for o in ops])
        cluster_rate = statistics.median(
            [o["cluster_cands"] / (o["cluster_s"] * o["speed"]) for o in ops]
        )
        cluster_ms = [1000.0 * o["cluster_s"] * o["speed"] for o in ops]
        raw_rate = statistics.median([o["joint_cands"] / o["joint_s"] for o in ops])
        tail, tail_q = common.tail_percentile(cluster_ms)
        hits = sum(o["memo_hits"] for o in ops)
        lookups = hits + sum(o["memo_misses"] for o in ops)
        return {
            "attempted": sum(o["joint_cands"] + o["cluster_cands"] for o in ops),
            "throughput_per_s": joint_rate,
            "p50_ms": joint_ms,
            "named": {
                "search.joint_cands_per_s": [joint_rate, "1/s"],
                "search.cluster_cands_per_s": [cluster_rate, "1/s"],
                "search.joint_search_ms.p50": [joint_ms, "ms"],
                "search.cluster_search_ms.p50": [statistics.median(cluster_ms), "ms"],
                f"search.cluster_search_ms.p{tail_q:.3g}": [tail, "ms"],
                "search.searches": [2 * len(ops), "count"],
                "search.joint_cands_per_s.unscaled": [raw_rate, "1/s"],
            },
            "layers": {"smt.memo_hit_ratio": hits / lookups if lookups else 0.0},
        }


# -- tournament ---------------------------------------------------------------


class TournamentWorkload:
    """The default ``repro tournament run`` on a seeded corpus, cold
    engine per tournament as in a fresh CLI process."""

    CELL_SAMPLES = 3

    def __init__(self, seed: int) -> None:
        import repro.policies  # noqa: F401 - an import is set-up

        self.seed = seed
        self.checks: List[dict] = []
        self.cells: List[tuple] = []

    def op(self, index: Optional[int]) -> dict:
        from repro.policies import DEFAULT_POLICIES, TournamentConfig, run_tournament
        from repro.scenarios.engines import FluidEngine

        if index is None:
            corpus_seed = 0
        else:
            corpus_seed = random.Random(f"tournament:{self.seed}:{index}").randrange(1, 2**31)
        config = TournamentConfig(
            policies=DEFAULT_POLICIES, corpus="mixed", n_scenarios=50,
            seed=corpus_seed, engine="fluid",
        )
        engine = FluidEngine()
        batches: List[tuple] = []
        run_batch = engine.run_batch

        def recording_run_batch(specs, *, labels=None, options=None):
            results = run_batch(specs, labels=labels, options=options)
            batches.append((list(specs), labels, options, results))
            return results

        engine.run_batch = recording_run_batch
        t0 = time.perf_counter()
        board = run_tournament(config, batch=True, engine=engine)
        wall = time.perf_counter() - t0
        cells = sum(score.cells for score in board.scores)
        if index is None:
            self.checks.append({
                "check": "tournament.seed0_fingerprint",
                "ok": board.fingerprint == common.TOURNAMENT_SEED0_FINGERPRINT,
                "fingerprint": board.fingerprint,
            })
        flat = [
            (spec, label, options, result.digest, result.total_time)
            for specs, labels, options, results in batches
            for spec, label, result in zip(specs, labels, results)
        ]
        rng = random.Random(f"cells:{self.seed}:{corpus_seed}")
        self.cells.extend(rng.sample(flat, self.CELL_SAMPLES))
        return {"wall_s": wall, "cells": cells}

    def verify(self) -> None:
        """The sampled cells, re-run one by one on a fresh engine, must
        reproduce their batch digests and times."""
        from repro.scenarios.engines import FluidEngine

        scalar = FluidEngine()
        for spec, label, options, digest, total_time in self.cells:
            again = scalar.run(spec, label=label, options=options)
            self.checks.append({
                "check": "tournament.scalar_matches_batch", "label": label,
                "ok": (again.digest, again.total_time) == (digest, total_time),
            })

    @staticmethod
    def summarise(ops: List[dict]) -> dict:
        wall_ms = [1000.0 * o["wall_s"] * o["speed"] for o in ops]
        tail, tail_q = common.tail_percentile(wall_ms)
        cells_per_s = statistics.median([o["cells"] / (o["wall_s"] * o["speed"]) for o in ops])
        raw_rate = statistics.median([o["cells"] / o["wall_s"] for o in ops])
        return {
            "attempted": sum(o["cells"] for o in ops),
            "throughput_per_s": cells_per_s,
            "p50_ms": statistics.median(wall_ms),
            "named": {
                "tournament.cells_per_s": [cells_per_s, "1/s"],
                "tournament.wall_ms.p50": [statistics.median(wall_ms), "ms"],
                f"tournament.wall_ms.p{tail_q:.3g}": [tail, "ms"],
                "tournament.tournaments": [len(ops), "count"],
                "tournament.cells_per_s.unscaled": [raw_rate, "1/s"],
            },
        }


# -- report -------------------------------------------------------------------


class ReportWorkload:
    """One cold ``full_report()`` per process, as ``repro report`` runs."""

    def __init__(self, seed: int) -> None:
        del seed  # the report takes no input
        import repro.experiments.report  # noqa: F401 - an import is set-up

        self.checks: List[dict] = []

    def op(self, index: Optional[int]) -> dict:
        from repro.experiments.report import full_report

        t0 = time.perf_counter()
        text = full_report()
        wall = time.perf_counter() - t0
        digest = hashlib.sha256((text + "\n").encode("utf-8")).hexdigest()
        self.checks.append({
            "check": "report.sha256", "ok": digest == common.REPORT_SHA256,
            "sha256": digest,
        })
        return {"wall_s": wall}

    @staticmethod
    def summarise(ops: List[dict]) -> dict:
        return {
            "attempted": len(ops),
            "wall_ms": [1000.0 * o["wall_s"] * o["speed"] for o in ops],
            "wall_ms_unscaled": [1000.0 * o["wall_s"] for o in ops],
        }

    def verify(self) -> None:
        """The output digest is checked as each report finishes."""


WORKLOADS = {
    "search": SearchWorkload,
    "tournament": TournamentWorkload,
    "report": ReportWorkload,
}

# -- tracing ------------------------------------------------------------------


def trace_points(tracer: Tracer) -> list:
    """Every layer boundary the in-process workloads cross."""
    import repro.core.search as search
    import repro.experiments.allocation as allocation
    import repro.experiments.figures as figures
    import repro.experiments.runner as runner
    import repro.experiments.table2 as table2
    import repro.policies.tournament as tournament
    import repro.scenarios.engines as engines
    import repro.smt.priorities as priorities
    import repro.trace.stats as trace_stats
    from repro.cluster.system import ClusterSystem
    from repro.core.dynamic import DynamicBalancer
    from repro.kernel.hmt import HmtController
    from repro.machine.system import System
    from repro.mpi.runtime import MpiRuntime
    from repro.smt.analytic import AnalyticThroughputModel
    from repro.smt.pipeline import CorePipeline
    from repro.smt.throughput import ThroughputTable

    # One span name per suite: wrap lazily, keyed by the suite's name.
    original_run_suite = runner.run_suite
    per_suite: Dict[str, object] = {}

    def run_suite(suite, *args, **kwargs):
        fn = per_suite.get(suite.name)
        if fn is None:
            fn = per_suite[suite.name] = tracer.wrap(
                f"experiments.run_suite.{suite.name}", original_run_suite, True
            )
        return fn(suite, *args, **kwargs)

    replace_everywhere(original_run_suite, run_suite)

    def events(_args, _kwargs, result):
        return result.events_processed

    def cycles(args, kwargs, _result):
        return int(kwargs.get("cycles", args[1] if len(args) > 1 else 0))

    return [
        ("core.search", search, "joint_search"),
        ("core.search", search, "two_level_search"),
        ("machine.run", System, "run", True),
        ("cluster.run", ClusterSystem, "run", True),
        ("scenarios.run", engines.FluidEngine, "run", True),
        ("scenarios.run_batch", engines.FluidEngine, "run_batch"),
        ("mpi.run", MpiRuntime, "run", False, events),
        ("kernel.set_priority", HmtController, "set_priority"),
        ("smt.validate_priority", priorities, "validate_priority"),
        ("smt.chip_ipc", AnalyticThroughputModel, "chip_ipc"),
        ("smt.chip_ipc_stack", AnalyticThroughputModel, "chip_ipc_stack"),
        ("trace.stats", trace_stats, "compute_stats"),
        ("trace.digest", engines, "trace_digest"),
        ("policies.apply_policy", tournament, "apply_policy"),
        ("core.dynamic.on_tick", DynamicBalancer, "on_tick"),
        ("smt.cycle_measure", ThroughputTable, "measure", True),
        ("smt.pipeline", CorePipeline, "run", False, cycles),
        ("experiments.decode_shares", table2, "measured_decode_shares", True),
        ("experiments.figure1", figures, "figure1_traces", True),
        ("experiments.allocation", allocation, "allocation_axes_table", True),
    ]


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer numbers of one traced run, every name present."""
    summary = tracer.summary()

    def get(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    events = tracer.counts.get("mpi.run", 0)
    cycles = tracer.counts.get("smt.pipeline", 0)
    out = {
        "mpi.run.self_s": get("mpi.run", "self_s"),
        "mpi.events": events,
        "mpi.us_per_event": 1e6 * get("mpi.run", "self_s") / events if events else 0.0,
        "kernel.set_priority.calls": get("kernel.set_priority", "calls"),
        "kernel.set_priority.s": get("kernel.set_priority", "s"),
        "smt.validate_priority.calls": get("smt.validate_priority", "calls"),
        "trace.stats.s": get("trace.stats", "s"),
        "core.search.self_s": get("core.search", "self_s"),
        "machine.run.calls": get("machine.run", "calls"),
        "machine.run.self_s": get("machine.run", "self_s"),
        "cluster.run.calls": get("cluster.run", "calls"),
        "cluster.run.self_s": get("cluster.run", "self_s"),
        "smt.chip_ipc.calls": get("smt.chip_ipc", "calls"),
        "smt.chip_ipc.s": get("smt.chip_ipc", "s"),
        "policies.apply_policy.calls": get("policies.apply_policy", "calls"),
        "policies.apply_policy.s": get("policies.apply_policy", "s"),
        "scenarios.run_batch.self_s": get("scenarios.run_batch", "self_s"),
        "smt.chip_ipc_stack.calls": get("smt.chip_ipc_stack", "calls"),
        "smt.chip_ipc_stack.s": get("smt.chip_ipc_stack", "s"),
        "core.dynamic.on_tick.calls": get("core.dynamic.on_tick", "calls"),
        "core.dynamic.on_tick.s": get("core.dynamic.on_tick", "s"),
        "trace.digest.s": get("trace.digest", "s"),
        "smt.cycle_measure.calls": get("smt.cycle_measure", "calls"),
        "smt.cycle_measure.s": get("smt.cycle_measure", "s"),
        "smt.pipeline.cycles": cycles,
        "smt.pipeline.cycles_per_s": (
            cycles / get("smt.pipeline", "s") if cycles else 0.0
        ),
        "experiments.decode_shares.s": get("experiments.decode_shares", "s"),
        "experiments.figure1.s": get("experiments.figure1", "s"),
        "experiments.allocation.s": get("experiments.allocation", "s"),
    }
    for suite in ("metbench", "btmz", "siesta"):
        out[f"experiments.run_suite.{suite}.s"] = get(f"experiments.run_suite.{suite}", "s")
    return out


# -- main ---------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--ops", type=int)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    if args.workload != "report":
        # Warm-up on the CLI's default inputs (first calls pay lazy
        # imports and allocator growth); its outputs are checked too.
        workload.op(None)
    tracer = None
    if args.traced:
        tracer = Tracer()
        install(tracer, trace_points(tracer))
    print("READY", flush=True)
    # The host's speed just after set-up scales the parent's set-up sample.
    setup_refs = [common.host_ref_s() for _ in range(common.SETUP_REFS)]
    setup_ref_s = statistics.median(setup_refs)
    if args.setup_only:
        print("RESULT " + json.dumps({"setup_ref_s": setup_ref_s}), flush=True)
        return 0

    ops: List[dict] = []
    failed = 0
    t_end = time.perf_counter() + (args.seconds or 0.0)
    index = 0
    ref_before = setup_refs[-1]
    while (len(ops) < args.ops) if args.ops else (time.perf_counter() < t_end or not ops):
        try:
            op = workload.op(index)
        except Exception as exc:  # a failed operation is counted, not fatal
            failed += 1
            workload.checks.append({"check": "operation", "ok": False, "error": repr(exc)})
            if failed > 3:
                break
        else:
            ref_after = common.host_ref_s()
            op["speed"] = common.host_speed(0.5 * (ref_before + ref_after))
            ops.append(op)
            ref_before = ref_after
        index += 1
        if args.workload == "report":
            break

    doc = {
        "summary": workload.summarise(ops) if ops else {"attempted": 0},
        "ops": ops,
        "failed": failed,
        "peak_rss_mb": common.vm_hwm_mb(),
        "setup_ref_s": setup_ref_s,
    }
    if tracer is not None:
        doc["layers"] = layer_metrics(tracer)
        tracer.enabled = False  # the replays below are checks, not load
        if args.spans:
            tracer.dump(args.spans)
            doc["spans"] = len(tracer.spans)
    workload.verify()
    doc["checks"] = workload.checks
    print("RESULT " + json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

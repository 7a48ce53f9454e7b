"""The repository benchmark: one command, four workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload <search|tournament|service|report>
        --seed N --seconds S --trace <0|1>

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs a fixed, seed-determined amount of work three times
(untraced, traced, traced again) and reports the per-layer metrics of
the first traced run, the tracing overhead (traced minus untraced) for
every end-to-end metric, and checks that the deterministic counts
repeat exactly across the two traced runs.

Every run checks its outputs. Human-readable lines go first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The full result, with
provenance, is written under ``perfbench/out/``. See
``perfbench/README.md`` for the workloads, the layers each one loads,
and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import service_load  # noqa: E402

WORKLOADS = ("search", "tournament", "service", "report")

#: Per-layer metrics, every one reported by every workload (0 where the
#: workload bypasses the layer): name -> unit.
LAYER_UNITS: Dict[str, str] = {
    "mpi.run.self_s": "s",
    "mpi.events": "count",
    "mpi.us_per_event": "us",
    "mpi.loop_s": "s",
    "kernel.set_priority.calls": "count",
    "kernel.set_priority.s": "s",
    "smt.validate_priority.calls": "count",
    "trace.stats.s": "s",
    "trace.digest.s": "s",
    "core.search.self_s": "s",
    "machine.run.calls": "count",
    "machine.run.self_s": "s",
    "cluster.run.calls": "count",
    "cluster.run.self_s": "s",
    "smt.chip_ipc.calls": "count",
    "smt.chip_ipc.s": "s",
    "smt.memo_hit_ratio": "ratio",
    "smt.chip_ipc_stack.calls": "count",
    "smt.chip_ipc_stack.s": "s",
    "policies.apply_policy.calls": "count",
    "policies.apply_policy.s": "s",
    "scenarios.run_batch.self_s": "s",
    "core.dynamic.on_tick.calls": "count",
    "core.dynamic.on_tick.s": "s",
    "service.submit_ms.p50": "ms",
    "service.submit_ms.p99": "ms",
    "service.queue_wait_ms.p50": "ms",
    "service.queue_wait_ms.p99": "ms",
    "service.run_ms.p50": "ms",
    "service.run_ms.p99": "ms",
    "service.cache_hit_ratio": "ratio",
    "service.batch_size_mean": "jobs",
    "service.rejected": "count",
    "service.timeouts": "count",
    "service.retries": "count",
    "service.generator_late_ms.p99": "ms",
    "smt.cycle_measure.calls": "count",
    "smt.cycle_measure.s": "s",
    "smt.pipeline.cycles": "count",
    "smt.pipeline.cycles_per_s": "1/s",
    "experiments.run_suite.metbench.s": "s",
    "experiments.run_suite.btmz.s": "s",
    "experiments.run_suite.siesta.s": "s",
    "experiments.decode_shares.s": "s",
    "experiments.figure1.s": "s",
    "experiments.allocation.s": "s",
}
LAYER_UNITS.update({f"overhead.{name}": unit for name, unit in common.E2E_UNITS.items()})

#: Counts that must repeat exactly across two traced runs on one seed.
DETERMINISTIC = (
    "mpi.events",
    "kernel.set_priority.calls",
    "smt.validate_priority.calls",
    "smt.chip_ipc.calls",
    "smt.pipeline.cycles",
)

#: Operations in one traced run of each in-process workload.
TRACED_OPS = {"search": 3, "tournament": 2, "report": 1}
#: Set-up samples per untraced run (the measuring process is one).
SETUP_SAMPLES = 3
#: Fewest cold reports one untraced ``report`` run takes.
MIN_REPORTS = 3
CHILD_TIMEOUT_S = 150.0
#: Every run must end within 180 s; one still going after this many
#: seconds stops with an error.
RUN_LIMIT_S = 170


class BenchError(RuntimeError):
    pass


def _out_of_time(_signum, _frame):
    raise BenchError(f"run exceeded {RUN_LIMIT_S} s")


# -- in-process workloads -----------------------------------------------------


def spawn(workload: str, seed: int, mode: List[str], traced: bool = False,
          spans: Optional[Path] = None) -> dict:
    """Run ``child.py`` once; returns its set-up time and result."""
    cmd = [sys.executable, str(common.HERE / "child.py"), workload, "--seed", str(seed), *mode]
    if traced:
        cmd.append("--traced")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    ref_before = common.host_ref_s()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, env=common.child_env(), cwd=str(common.ROOT),
        stdout=subprocess.PIPE, text=True,
    )
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} child timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if first.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{workload} child failed (exit {proc.returncode})")
    out = {"setup_s_unscaled": setup_s}
    for line in rest.splitlines():
        if line.startswith("RESULT "):
            out.update(json.loads(line[len("RESULT "):]))
    if "setup_ref_s" not in out:
        raise BenchError(f"{workload} child printed no result")
    out["setup_s"] = setup_s * common.host_speed(0.5 * (ref_before + out["setup_ref_s"]))
    return out


def e2e_of(workload: str, child: dict) -> Dict[str, float]:
    """The end-to-end metrics of one measuring child."""
    summary = child["summary"]
    if workload == "report":
        wall_ms = summary["wall_ms"]
        return {
            "setup_s": child["setup_s"],
            "peak_rss_mb": child["peak_rss_mb"],
            "throughput_per_s": 1000.0 / statistics.median(wall_ms),
            "p50_ms": statistics.median(wall_ms),
        }
    return {
        "setup_s": child["setup_s"],
        "peak_rss_mb": child["peak_rss_mb"],
        "throughput_per_s": summary["throughput_per_s"],
        "p50_ms": summary["p50_ms"],
    }


def run_in_process(workload: str, seed: int, seconds: float) -> dict:
    """Untraced measurement of ``search``, ``tournament`` or ``report``."""
    if workload == "report":
        # One cold report per process, as ``repro report`` runs it.
        children = []
        t_end = time.perf_counter() + seconds
        while len(children) < MIN_REPORTS or time.perf_counter() < t_end:
            children.append(spawn(workload, seed, ["--ops", "1"]))
        wall_ms = [c["summary"]["wall_ms"][0] for c in children]
        tail, tail_q = common.tail_percentile(wall_ms)
        metrics = {
            "setup_s": statistics.median(c["setup_s"] for c in children),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
            "throughput_per_s": 1000.0 / statistics.median(wall_ms),
            "p50_ms": statistics.median(wall_ms),
        }
        unscaled = [c["summary"]["wall_ms_unscaled"][0] for c in children]
        named = {
            "report.wall_s": [statistics.median(wall_ms) / 1000.0, "s"],
            "report.wall_s.unscaled": [statistics.median(unscaled) / 1000.0, "s"],
            f"report.wall_s.p{tail_q:.3g}": [tail / 1000.0, "s"],
            "report.reports": [len(children), "count"],
            "setup_s.unscaled": [
                statistics.median(c["setup_s_unscaled"] for c in children), "s"
            ],
        }
        return {
            "metrics": metrics, "named": named,
            "attempted": len(children),
            "failed": sum(c["failed"] for c in children),
            "checks": [check for c in children for check in c["checks"]],
        }

    setups = [spawn(workload, seed, ["--setup-only"]) for _ in range(SETUP_SAMPLES - 1)]
    child = spawn(workload, seed, ["--seconds", str(seconds)])
    setups.append(child)
    metrics = e2e_of(workload, child)
    metrics["setup_s"] = statistics.median(c["setup_s"] for c in setups)
    named = dict(child["summary"]["named"])
    named["setup_s.unscaled"] = [statistics.median(c["setup_s_unscaled"] for c in setups), "s"]
    return {
        "metrics": metrics,
        "ops": child["ops"],
        "named": named,
        "attempted": child["summary"]["attempted"],
        "failed": child["failed"],
        "checks": child["checks"],
    }


def run_in_process_traced(workload: str, seed: int) -> dict:
    """Fixed work untraced, then traced twice; per-layer metrics."""
    ops = ["--ops", str(TRACED_OPS[workload])]
    base = spawn(workload, seed, ops)
    spans = common.OUT / f"spans-{workload}-seed{seed}.jsonl.gz"
    first = spawn(workload, seed, ops, traced=True, spans=spans)
    second = spawn(workload, seed, ops, traced=True)
    layers = dict(first["layers"])
    layers.update(first["summary"].get("layers", {}))
    return {
        "untraced": e2e_of(workload, base),
        "traced": e2e_of(workload, first),
        "layers": layers,
        "repeat_counts": {k: second["layers"][k] for k in DETERMINISTIC},
        "attempted": first["summary"]["attempted"],
        "failed": first["failed"] + second["failed"] + base["failed"],
        "checks": first["checks"] + second["checks"] + base["checks"],
        "spans_file": str(spans.relative_to(common.ROOT)),
        "spans": first.get("spans"),
    }


# -- service ------------------------------------------------------------------


def run_service(seed: int, seconds: float) -> dict:
    setups = [service_load.setup_sample() for _ in range(SETUP_SAMPLES - 1)]
    out = service_load.run_once(seed, seconds, traced=False, fixed=False)
    setups.append((out["setup_s"], out["setup_s_unscaled"]))
    metrics = {k: out[k] for k in common.E2E_UNITS}
    metrics["setup_s"] = statistics.median(scaled for scaled, _ in setups)
    named = dict(out["named"])
    named["setup_s.unscaled"] = [statistics.median(raw for _, raw in setups), "s"]
    return {
        "metrics": metrics, "named": named, "attempted": out["attempted"],
        "failed": out["failed"], "checks": out["checks"], "server": out["server"],
        "open_phase": out["open_valid"], "failures": out["failures"],
    }


def run_service_traced(seed: int, seconds: float) -> dict:
    base = service_load.run_once(seed, seconds, traced=False, fixed=True)
    spans = common.OUT / f"spans-service-seed{seed}.jsonl.gz"
    first = service_load.run_once(seed, seconds, traced=True, fixed=True, spans_path=str(spans))
    second = service_load.run_once(seed, seconds, traced=True, fixed=True)
    return {
        "untraced": {k: base[k] for k in common.E2E_UNITS},
        "traced": {k: first[k] for k in common.E2E_UNITS},
        "layers": first["layers"],
        "repeat_counts": {"mpi.events": second["layers"]["mpi.events"]},
        "attempted": first["attempted"],
        "failed": first["failed"] + second["failed"] + base["failed"],
        "checks": first["checks"] + second["checks"] + base["checks"],
        "server": first["server"],
        "open_phase": first["open_valid"],
        "spans_file": str(spans.relative_to(common.ROOT)),
    }


# -- main ---------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="the repro benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not common.program_available():
        print(f"perfbench: no program sources under {common.SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 2

    sys.path.insert(0, str(common.SRC))
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(RUN_LIMIT_S)
    t0 = time.perf_counter()
    try:
        if args.trace:
            if args.workload == "service":
                res = run_service_traced(args.seed, args.seconds)
            else:
                res = run_in_process_traced(args.workload, args.seed)
        elif args.workload == "service":
            res = run_service(args.seed, args.seconds)
        else:
            res = run_in_process(args.workload, args.seed, args.seconds)
    except service_load.ServiceRefused as exc:
        print(f"perfbench: refused: {exc}", file=sys.stderr)
        return 3
    except (BenchError, OSError, RuntimeError) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    signal.alarm(0)

    checks = res["checks"]
    correct = bool(checks) and all(c["ok"] for c in checks)
    if args.trace:
        layers = {name: 0.0 for name in LAYER_UNITS}
        layers.update(res["layers"])
        for name in common.E2E_UNITS:
            layers[f"overhead.{name}"] = res["traced"][name] - res["untraced"][name]
        mismatched = {
            k: (layers[k], v) for k, v in res["repeat_counts"].items() if layers[k] != v
        }
        if mismatched:
            correct = False
            print(f"deterministic counts differ between traced runs: {mismatched}")
        metrics = {name: common.metric(layers[name], LAYER_UNITS[name]) for name in LAYER_UNITS}
    else:
        metrics = {
            name: common.metric(res["metrics"][name], unit)
            for name, unit in common.E2E_UNITS.items()
        }

    failed_checks = [c for c in checks if not c["ok"]]
    doc = {
        "workload": args.workload,
        "provenance": common.provenance(args.seed, bool(args.trace)),
        "elapsed_s": time.perf_counter() - t0,
        "correct": correct,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": metrics,
        "named": res.get("named", {}),
        "checks_run": len(checks),
        "failed_checks": failed_checks,
    }
    for key in ("ops", "server", "open_phase", "failures", "untraced", "traced",
                "repeat_counts", "spans_file", "spans"):
        if key in res:
            doc[key] = res[key]
    if "server" in res:
        doc["provenance"]["service_config"] = res["server"]
        doc["provenance"]["repro_telemetry"] = res["server"]["repro_telemetry"]
    out_path = common.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    common.write_json(out_path, doc)

    for name, (value, unit) in sorted(doc["named"].items()):
        print(f"{name} = {value:.6g} {unit}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if "open_phase" in doc and doc["open_phase"]["behind_schedule"]:
        print("WARNING: the open-loop generator fell behind schedule; "
              "service latencies of this run are not valid")
    for check in failed_checks[:10]:
        print(f"FAILED CHECK: {json.dumps(check)}")
    print(f"checks: {len(checks) - len(failed_checks)}/{len(checks)} passed; "
          f"attempted {doc['attempted']}, failed {doc['failed']}")
    print("provenance: " + json.dumps(doc["provenance"], sort_keys=True))
    print(f"full result: {out_path.relative_to(common.ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

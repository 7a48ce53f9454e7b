"""Helpers shared by ``run.py``, ``child.py`` and the service client."""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: CPUs this process may use when it starts (the service client later
#: narrows its own set).
NPROC = len(os.sched_getaffinity(0))

#: The shipped ``repro report`` output (``full_report()`` plus the newline
#: ``print`` adds), pinned by its sha256.
REPORT_SHA256 = "f51d23916ba281bbea765e6d9a47358a629ed782d1dad2be1433df9d873c5214"

#: Leaderboard fingerprint of the default ``repro tournament run``
#: (7 policies x 50 ``mixed`` scenarios, seed 0, fluid engine).
TOURNAMENT_SEED0_FINGERPRINT = (
    "b6ca37eb249b90f5fdaa50ef80d969a12e069e0bdbf3daa7b5d2c70cc9053774"
)

#: End-to-end metrics every workload reports: name -> unit.
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
}


#: Seconds :func:`host_ref_s` takes at the nominal host speed, a typical
#: time on the 2-vCPU reference host (where samples range from about 17
#: to 45 ms). Scaled times are ``raw * speed`` with
#: ``speed = REF_NOMINAL_S / host_ref_s()`` measured around them.
REF_NOMINAL_S = 0.025
REF_STEPS = 36_000
#: Kernel samples whose median gives the host speed right after a set-up.
SETUP_REFS = 3


class _Cell:
    __slots__ = ("rate", "key")

    def __init__(self, rate: float, key: int) -> None:
        self.rate = rate
        self.key = key


def host_ref_s() -> float:
    """Seconds one fixed pure-Python kernel takes right now.

    The reference host is shared: the same work runs up to twice as slow
    in phases that last from seconds to minutes, which moves a run's
    medians more than any change worth measuring. Timed next to the
    program's operations, this kernel gives the host's speed at that
    moment. It does what the simulator does most (heap-ordered events,
    float updates, dict and attribute access) and imports nothing from
    the program, so a change to the program never moves it; the garbage
    collector is paused so the program's heap cannot either.
    """
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        heap = [(float(i), i) for i in range(64)]
        heapq.heapify(heap)
        cells = {i: _Cell(1.0 + (i % 5) * 0.1, i & 7) for i in range(64)}
        seen: Dict[int, float] = {}
        for _ in range(REF_STEPS):
            t, k = heapq.heappop(heap)
            cell = cells[k]
            cell.rate = cell.rate * 0.999 + 0.001 * (t % 3.0)
            seen[cell.key] = seen.get(cell.key, 0.0) + cell.rate
            heapq.heappush(heap, (t + 1.0 / cell.rate, k))
        return time.perf_counter() - t0
    finally:
        if gc_was_on:
            gc.enable()


def host_speed(ref_s: float) -> float:
    """Host speed relative to nominal, from a :func:`host_ref_s` time."""
    return REF_NOMINAL_S / ref_s


def program_available() -> bool:
    """Whether the checkout holds the program's sources."""
    return (SRC / "repro" / "__init__.py").is_file()


def child_env(telemetry: bool = False) -> Dict[str, str]:
    """Environment for a process that imports ``repro`` from ``src/``.

    ``REPRO_TELEMETRY`` is removed unless ``telemetry`` asks for it, so
    an untraced run never inherits the hot-path instrumentation.
    """
    env = dict(os.environ)
    env.pop("REPRO_TELEMETRY", None)
    if telemetry:
        env["REPRO_TELEMETRY"] = "1"
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` (default: this process)."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{path} has no VmHWM line")


def tail_percentile(values: Sequence[float], q: float = 99.0) -> Tuple[float, float]:
    """``(value, percentile used)`` for the tail of ``values``.

    The nearest-rank ``q``-th percentile, lowered if need be to the
    highest percentile with at least ten samples beyond it. When that
    would fall under the 90th percentile there are too few samples for
    a tail, and the maximum is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = min(math.ceil(q * n / 100.0), n - 10)
    if rank < math.ceil(0.9 * n):
        rank = n
    return ordered[rank - 1], 100.0 * rank / n


def source_digest() -> str:
    """sha256 over every file under ``src/`` (path and bytes), so a
    result names the code it measured even outside a git checkout."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def provenance(seed: int, trace: bool) -> dict:
    """Where and how a result was measured. Benchmark processes run with
    ``REPRO_TELEMETRY`` unset (see :func:`child_env`); a traced service
    run records the server's own setting on top."""
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "python_executable": sys.executable,
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "repro_telemetry": "unset",
        "seed": seed,
        "trace": trace,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

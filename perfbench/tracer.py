"""In-memory spans recorded around the program's public functions.

The benchmark measures every layer from outside: :func:`install` swaps
each named function or method for a wrapper that records one span per
call, and nothing under ``src/`` changes. A span is
``(name, start, end, parent, op)``: ``parent`` is the index of the span
that was open on the same thread when this one started (-1 at the top),
and ``op`` is the operation id (candidate, cell, report part) the span
belongs to. Spans stay in memory until :meth:`Tracer.dump` writes them.

A layer's *self time* is its span's duration minus the time its child
spans cover. Children of one span run on the same thread, one after
another, so the covered time is the sum of their durations.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

class Tracer:
    """Collects spans from every wrapped call, on any thread."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_op = 0
        #: While false, wrapped calls run without recording a span.
        self.enabled = True
        #: Work counted at the boundaries, by span name (see ``wrap``).
        self.counts: Dict[str, int] = {}

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        op_boundary: bool = False,
        count: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` with a span named ``name`` around every call.

        An ``op_boundary`` span that opens with no enclosing operation
        starts a new operation id; every span nested in it shares it.
        ``count(args, kwargs, result)``, when given, returns the work
        the call did (events, cycles), summed into ``counts[name]``.
        """
        spans = self.spans
        lock = self._lock
        clock = time.perf_counter
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent, op = stack[-1]
            else:
                parent, op = -1, -1
            if op_boundary and op < 0:
                with lock:
                    op = tracer._next_op
                    tracer._next_op += 1
            record = [name, clock(), 0.0, parent, op]
            with lock:
                index = len(spans)
                spans.append(record)
            stack.append((index, op))
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                with lock:
                    counts[name] = counts.get(name, 0) + int(count(args, kwargs, result))
            return result

        return traced

    # -- reading ---------------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, total ``s`` and ``self_s``."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def replace_everywhere(original: Callable, replacement: Callable) -> int:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement``; returns how many bindings changed.

    Functions reach their callers through ``from x import f`` copies as
    well as through their home module, so each copy is rebound.
    """
    changed = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed += 1
    return changed


def install(tracer: Tracer, points: List[tuple]) -> None:
    """Wrap every ``(span name, owner, attribute[, op_boundary[, count]])``.

    ``owner`` is a class (the method is replaced on it) or a module (the
    function is replaced in it and in every module that imported it).
    """
    for name, owner, attr, *options in points:
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, *options)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
        elif replace_everywhere(original, wrapped) == 0:
            raise RuntimeError(f"trace point {name}: {attr} is bound nowhere")


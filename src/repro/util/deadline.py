"""A cooperative deadline for long-running work.

Python threads cannot be interrupted from outside, so a time limit is
enforced by the work itself: :func:`deadline_scope` records an expiry
in a :mod:`contextvars` variable (per thread, per context), and the
code that loops — the MPI runtime's event loop, anything calling
:func:`check_deadline` — raises :class:`~repro.errors.DeadlineExceeded`
once it has passed. Outside any scope the check is a single ``is None``
test, so work that is never given a deadline pays nothing for it.
"""

from __future__ import annotations

import contextvars
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.errors import DeadlineExceeded

__all__ = ["deadline_scope", "current_deadline", "check_deadline"]

_expiry: contextvars.ContextVar[Optional[float]] = contextvars.ContextVar(
    "repro_deadline", default=None
)


@contextmanager
def deadline_scope(timeout_s: float) -> Iterator[float]:
    """Run the body under a deadline ``timeout_s`` seconds from now;
    yields the expiry as a :func:`time.monotonic` instant."""
    expiry = time.monotonic() + timeout_s
    token = _expiry.set(expiry)
    try:
        yield expiry
    finally:
        _expiry.reset(token)


def current_deadline() -> Optional[float]:
    """The active expiry (a :func:`time.monotonic` instant), or ``None``."""
    return _expiry.get()


def check_deadline() -> None:
    """Raise :class:`~repro.errors.DeadlineExceeded` if the active
    deadline has passed; a no-op outside any scope."""
    expiry = _expiry.get()
    if expiry is not None:
        now = time.monotonic()
        if now >= expiry:
            raise DeadlineExceeded(now - expiry)

"""One atomic JSON file writer for the package's on-disk artifacts.

Golden snapshots, the tournament leaderboard and the persisted
throughput table are all written the same way: to ``<path>.tmp``
first, then renamed over ``path``, so a reader never sees a
half-written file. The bytes are ``indent=1`` JSON with sorted keys and
a trailing newline, so a re-recorded artifact diffs cleanly.
"""

from __future__ import annotations

import json
import os

__all__ = ["write_json_atomic"]


def write_json_atomic(path: str, doc: object) -> None:
    """Write ``doc`` to ``path`` atomically, creating parent directories."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)

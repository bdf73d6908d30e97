"""Content-addressed on-disk result cache for experiment points.

The key is a SHA-256 over the canonical JSON of

    {"experiment": <name>, "version": repro.__version__,
     "config": <canonicalized point config>, "seed": <point seed>}

so a cache entry is invalidated by bumping the package version, renaming the
experiment, or changing any part of the point's config or seed — and by
nothing else.  Canonicalization sorts dict keys and turns tuples into lists,
so semantically equal configs hash equally regardless of construction order.

Entries live at ``<root>/<experiment>/<key>.json`` (one JSON file per point,
written atomically via rename), which keeps the cache greppable and lets a
sweep be resumed or extended by any later process.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Optional, Union

from .. import __version__

__all__ = ["json_safe", "canonical_json", "cache_key", "ResultCache"]


def json_safe(obj):
    """Recursively coerce ``obj`` into JSON-representable types.

    Dict keys become strings, tuples become lists, unknown objects fall back
    to ``repr``.  Shared by the cache, the runner's result normalization and
    the CLI's output encoder, so all three agree on one canonical form.
    """
    if isinstance(obj, dict):
        return {str(k): json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        return obj
    return repr(obj)


def canonical_json(obj) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace."""
    return json.dumps(json_safe(obj), sort_keys=True, separators=(",", ":"))


def cache_key(experiment_name: str, point, extra=None) -> str:
    """The content hash identifying one ``(experiment, point)`` result under
    this repro version.

    ``extra`` folds additional run-shaping state into the key — the runner
    uses it for the active fault plan (``{"faults": plan.to_dict()}``), so a
    faulted run never aliases a healthy one.  ``None`` (the default) leaves
    the payload, and therefore every pre-existing key, unchanged.
    """
    payload = {
        "experiment": experiment_name,
        "version": __version__,
        "config": json_safe(point.config),
        "seed": point.seed,
    }
    if extra is not None:
        payload["extra"] = json_safe(extra)
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


class ResultCache:
    """Directory-backed store of per-point results, addressed by cache key."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, experiment_name: str, key: str) -> Path:
        return self.root / experiment_name / f"{key}.json"

    def get(self, experiment_name: str, key: str) -> Optional[dict]:
        """The stored entry (``{"result": ..., ...}``), or ``None`` on miss.

        A corrupt or truncated file (e.g. from a killed writer on a
        filesystem without atomic rename) is treated as a miss.
        """
        path = self._path(experiment_name, key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict) or "result" not in entry:
            return None
        return entry

    def info(self) -> dict:
        """Inspect the store: entry/byte counts, per experiment and total.

        Powers ``repro.api.cache_info``.  Cheap: one directory walk, no JSON
        parsing.
        """
        per_experiment: dict = {}
        total_entries = 0
        total_bytes = 0
        for sub in sorted(self.root.iterdir() if self.root.is_dir() else []):
            if not sub.is_dir():
                continue
            entries = 0
            nbytes = 0
            for entry in sub.glob("*.json"):
                try:
                    nbytes += entry.stat().st_size
                except OSError:  # racing eviction/cleanup
                    continue
                entries += 1
            if entries:
                per_experiment[sub.name] = {"entries": entries, "bytes": nbytes}
                total_entries += entries
                total_bytes += nbytes
        return {
            "dir": str(self.root),
            "entries": total_entries,
            "bytes": total_bytes,
            "experiments": per_experiment,
        }

    def put(self, experiment_name: str, key: str, point, result) -> Path:
        """Atomically persist one point result; returns the entry path."""
        path = self._path(experiment_name, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "key": key,
            "experiment": experiment_name,
            "point": point.name,
            "config": json_safe(point.config),
            "seed": point.seed,
            "version": __version__,
            "created_unix_s": time.time(),
            "result": result,
        }
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

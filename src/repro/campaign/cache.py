"""Content-addressed on-disk result cache for campaigns.

Each task result is stored under its :func:`~repro.campaign.spec.config_key`
— a hash of the repro version and the task's full configuration — in a
two-level fan-out directory (``<root>/<key[:2]>/<key>.json``).  That gives:

* **resume-after-interrupt**: a killed campaign rerun skips every task that
  already completed;
* **zero-cost re-runs**: a warm rerun of an unchanged spec executes nothing;
* **automatic invalidation**: any change to a config field, the seed, the
  campaign name, or the library version changes the key, so stale entries
  are simply never looked up again.

Entries are JSON with ``allow_nan`` enabled (the cache is an internal
store, not an export format), so NaN metric values survive the round-trip
and a warm read is bit-identical to the cold computation.  Corrupt
entries — truncated JSON (e.g. from a kill mid-write, although writes are
atomic via ``os.replace``), valid JSON that is not an entry object, another
key's entry, or a timestamp that is not a number — are treated as misses
and deleted.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro._version import __version__
from repro.campaign.spec import TaskSpec

__all__ = ["ResultCache"]


class ResultCache:
    """A directory of content-addressed task results."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _load(self, path: Path, key: str) -> Optional[Dict[str, Any]]:
        """The entry stored at ``path`` for ``key``, or ``None``.

        Anything else found there is corrupt: it is deleted and reads as a
        miss.
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError, UnicodeDecodeError):
            payload = None
        if isinstance(payload, dict) and payload.get("key") == key and "result" in payload:
            return payload
        self._discard(path)
        return None

    def get(self, task: TaskSpec) -> Optional[Dict[str, Any]]:
        """Return the cached result for ``task``, or ``None`` on a miss."""
        payload = self._load(self.path_for(task.key), task.key)
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload["result"]

    def get_stale(
        self, key: str, *, max_age_s: Optional[float] = None
    ) -> Optional[Tuple[Dict[str, Any], float]]:
        """Entry for a raw ``key`` with its age: ``(result, age_s)`` or None.

        This is the degraded-mode lookup: unlike :meth:`get` it is keyed
        directly (no :class:`TaskSpec` needed) and reports how old the
        entry is, so callers can distinguish *fresh*, *stale-but-usable*,
        and *absent*.  Entries written before timestamps existed stay
        readable: their age is ``inf``, which any finite ``max_age_s``
        rejects but ``max_age_s=None`` accepts.
        """
        path = self.path_for(key)
        payload = self._load(path, key)
        if payload is None:
            return None
        stored_at = payload.get("stored_at")
        age_s = math.inf
        if stored_at is not None:
            try:
                age_s = max(0.0, time.time() - float(stored_at))
            except (TypeError, ValueError):
                self._discard(path)
                return None
        if max_age_s is not None and age_s > max_age_s:
            return None
        return payload["result"], age_s

    def put(
        self,
        task: TaskSpec,
        result: Mapping[str, Any],
        meta: Optional[Mapping[str, Any]] = None,
    ) -> Path:
        """Store ``result`` for ``task`` atomically; returns the entry path."""
        path = self.path_for(task.key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "key": task.key,
            "repro_version": __version__,
            "campaign": task.campaign,
            "params": task.config,
            "replicate": task.replicate,
            "seed": task.seed,
            "stored_at": time.time(),
            "result": dict(result),
            "meta": dict(meta) if meta else {},
        }
        # pid + thread id: the synthesis service writes through from worker
        # threads, and two threads storing the same key must not share a tmp.
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
        return path

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

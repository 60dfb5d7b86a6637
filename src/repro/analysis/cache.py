"""Content-hash incremental cache for boomerlint.

The CI lint gate re-parses the whole tree on every push even though a
typical commit touches a handful of files.  This cache memoizes the
per-file work — parse, rule pass, suppression filtering — keyed by the
SHA-256 of the file *bytes*, so a warm run only re-analyzes files whose
content actually changed.  Every rule sees one file at a time, so a
file's verdict depends on its bytes alone.

Invalidation is wholesale: the cache records a ruleset signature
(sorted rule ids) and a format version, and a mismatch in either
discards everything.  A rule's *implementation* changing without its id
changing is not detected — bump :data:`CACHE_VERSION` when rule
semantics or the entry format change, which is also what keeps stale CI
caches harmless (a restored older cache starts cold).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Iterable

__all__ = ["CACHE_VERSION", "LintCache", "ruleset_signature"]

CACHE_VERSION = 2


def ruleset_signature(rule_ids: Iterable[str]) -> str:
    """The cache-invalidation key of a rule set."""
    return ",".join(sorted(rule_ids))


class LintCache:
    """A JSON file of per-content-hash lint results.

    Entries are opaque dicts owned by the engine (the file's unsuppressed
    violations and its suppressed count).  ``save()`` persists only when
    something changed, so a fully-warm run never rewrites the file.
    """

    def __init__(self, path: Path, signature: str) -> None:
        self.path = path
        self.signature = signature
        self.hits = 0
        self.misses = 0
        self._entries: dict[str, dict[str, Any]] = {}
        self._dirty = False
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return  # absent or corrupt: start cold
        if (
            isinstance(payload, dict)
            and payload.get("version") == CACHE_VERSION
            and payload.get("ruleset") == signature
            and isinstance(payload.get("entries"), dict)
        ):
            self._entries = payload["entries"]

    @staticmethod
    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    def lookup(self, digest: str) -> dict[str, Any] | None:
        entry = self._entries.get(digest)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def store(self, digest: str, entry: dict[str, Any]) -> None:
        self._entries[digest] = entry
        self._dirty = True

    def save(self) -> None:
        if not self._dirty:
            return
        payload = {
            "version": CACHE_VERSION,
            "ruleset": self.signature,
            "entries": self._entries,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
        self._dirty = False

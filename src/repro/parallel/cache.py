"""Content-addressed persistent cache of JSON payloads.

Every cached artifact of the tree — simulation sweep points, serving and
sharded reports, fault campaigns, lint per-file outcomes — is one entry
of the same format: one JSON file at ``<dir>/<key[:2]>/<key>.json``
holding ``schema``, ``key``, ``fingerprint``, ``digest`` and
``payload``.  ``key`` comes from :func:`content_key`: the SHA-256 of the
canonical request description plus a
:func:`~repro.parallel.fingerprint.code_fingerprint` of the sources that
can change the payload.

Because the code fingerprint is *inside* the key, a source change makes
every existing entry unreachable — stale results can never be served.
The ``digest`` covers the payload; a file that fails to parse, fails
digest verification, or carries an unknown schema is treated as a miss,
deleted, and recomputed (corruption heals itself).

A cache never fails the work it caches: any ``OSError`` on read (an
unreadable entry, a cache directory that is a regular file) is a miss,
and any ``OSError`` on write is a no-op.  Writes are atomic (temp file +
``os.replace``) so a killed worker never leaves a half-written entry for
the next process to trip over.
"""

from __future__ import annotations

import dataclasses
import hashlib
import hmac
import json
import os
import tempfile
from typing import Dict, Iterator, Optional, Tuple

from repro.parallel.fingerprint import code_fingerprint, current_fingerprints
from repro.parallel.serialize import SCHEMA_VERSION, canonical_json

#: Environment override consulted by CLI/benchmark entry points.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default directory name (relative to the invoking tool's anchor).
DEFAULT_CACHE_DIRNAME = ".repro-cache"


def default_cache_dir(anchor: Optional[str] = None) -> str:
    """Resolve the cache directory: env override, else ``anchor`` dir."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return override
    return os.path.join(anchor or os.getcwd(), DEFAULT_CACHE_DIRNAME)


def content_key(artifact: str, schema: int, spec: Dict[str, object],
                fingerprint: Optional[str] = None, **extra: object) -> str:
    """The cache key of one request: the only key builder of the tree.

    ``artifact`` names the payload kind, ``schema`` its layout version,
    ``spec`` its canonical request dict; ``extra`` fields (a fault
    plan's digest, say) join the hashed request.
    """
    request = dict(extra, artifact=artifact, schema=schema, spec=spec,
                   fingerprint=fingerprint if fingerprint is not None
                   else code_fingerprint())
    return hashlib.sha256(canonical_json(request).encode()).hexdigest()


def _payload_digest(payload: Dict[str, object]) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


@dataclasses.dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`RunCache` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corruptions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class RunCache:
    """Persistent, content-addressed store of JSON payloads."""

    def __init__(self, directory: str):
        self.directory = directory
        self.stats = CacheStats()

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key[:2], key + ".json")

    def get_json(self, key: str) -> Optional[Dict[str, object]]:
        """Fetch one payload; anything unusable becomes a miss.

        Schema, key, and digest are all verified; a corrupt entry is
        deleted so the rewrite heals it.
        """
        path = self._path(key)
        try:
            with open(path, "r") as handle:
                entry = json.load(handle)
            if entry.get("schema") != SCHEMA_VERSION:
                raise ValueError("unknown cache schema")
            if entry.get("key") != key:
                raise ValueError("entry/key mismatch")
            payload = entry["payload"]
            # integrity check against torn/bit-rotted files, not an
            # authentication boundary — but compare_digest costs nothing
            if not hmac.compare_digest(_payload_digest(payload),
                                       str(entry.get("digest"))):
                raise ValueError("payload digest mismatch")
        except OSError:
            self.stats.misses += 1
            return None
        except (ValueError, KeyError, TypeError, AttributeError):
            self.stats.corruptions += 1
            self.stats.misses += 1
            _remove_quietly(path)
            return None
        self.stats.hits += 1
        return payload

    def put_json(self, key: str, payload: Dict[str, object],
                 fingerprint: Optional[str] = None) -> Optional[str]:
        """Store one payload atomically; returns the path, or ``None``
        when the directory cannot be written."""
        path = self._path(key)
        entry = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "fingerprint": fingerprint if fingerprint is not None
            else code_fingerprint(),
            "digest": _payload_digest(payload),
            "payload": payload,
        }
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            handle, temp_path = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp")
            try:
                with os.fdopen(handle, "w") as stream:
                    json.dump(entry, stream, sort_keys=True,
                              separators=(",", ":"))
                os.replace(temp_path, path)
            except BaseException:
                _remove_quietly(temp_path)
                raise
        except OSError:
            return None
        self.stats.writes += 1
        return path

    # -- maintenance ---------------------------------------------------

    def _scan(self, fingerprint: Optional[str]
              ) -> Iterator[Tuple[str, Optional[bool]]]:
        """``(path, current)`` per entry on disk; ``current`` is ``None``
        for an unreadable entry.  Without ``fingerprint``, an entry is
        current under any fingerprint the current code writes."""
        current = {fingerprint} if fingerprint is not None \
            else current_fingerprints()
        if not os.path.isdir(self.directory):
            return
        for directory, _, files in sorted(os.walk(self.directory)):
            for name in sorted(files):
                if not name.endswith(".json"):
                    continue
                path = os.path.join(directory, name)
                try:
                    with open(path, "r") as handle:
                        entry = json.load(handle)
                except (OSError, ValueError):
                    yield path, None
                    continue
                yield path, (isinstance(entry, dict)
                             and entry.get("fingerprint") in current)

    def prune_stale(self, fingerprint: Optional[str] = None) -> int:
        """Delete entries written under a different code fingerprint.

        Stale entries are already unreachable (the fingerprint is part of
        the key); pruning merely reclaims disk.  Unreadable entries go
        too.  Returns how many entries were removed.
        """
        stale = [path for path, current in self._scan(fingerprint)
                 if not current]
        return sum(_remove_quietly(path) for path in stale)

    def entry_count(self) -> int:
        """Number of entries currently on disk."""
        if not os.path.isdir(self.directory):
            return 0
        return sum(name.endswith(".json")
                   for _, _, files in os.walk(self.directory)
                   for name in files)

    def disk_stats(self, fingerprint: Optional[str] = None
                   ) -> Dict[str, int]:
        """On-disk inventory: total/stale/unreadable entries and bytes.

        ``stale`` counts entries :meth:`prune_stale` would delete — ones
        written under a different code fingerprint plus unreadable files
        (the latter also reported separately as ``unreadable``).
        """
        stats = {"entries": 0, "stale": 0, "unreadable": 0, "bytes": 0}
        for path, current in self._scan(fingerprint):
            stats["entries"] += 1
            stats["stale"] += not current
            stats["unreadable"] += current is None
            try:
                stats["bytes"] += os.path.getsize(path)
            except OSError:
                pass
        return stats


def _remove_quietly(path: str) -> bool:
    """Delete ``path``; ``False`` when it could not be removed."""
    try:
        os.remove(path)
    except OSError:
        return False
    return True

"""Content-addressed persistent cache of simulation runs.

Layout: one JSON file per run at ``<dir>/<key[:2]>/<key>.json``, where
``key`` is the SHA-256 of the canonical request description —

* the full :class:`~repro.config.SystemConfig` (every dataclass field,
  recursively, enums by value),
* the workload name, trace length, warm-up record count, trace seed and
  window policy,
* whether the run collected a trace (a traced ``RunResult`` carries
  ``phase_cycles`` and a Chrome export, so it is a different artifact),
* the :func:`~repro.parallel.fingerprint.code_fingerprint` of the
  ``repro`` package sources.

Because the code fingerprint is *inside* the key, a source change makes
every existing entry unreachable — stale cycles can never be served.
Entries additionally embed a digest of their payload; a file that fails
to parse, fails digest verification, or carries an unknown schema is
treated as a miss, deleted, and recomputed (corruption heals itself).

Writes are atomic (temp file + ``os.replace``) so a killed worker never
leaves a half-written entry for the next process to trip over.
"""

from __future__ import annotations

import dataclasses
import hashlib
import hmac
import json
import os
import tempfile
from typing import Dict, Optional

from repro.config import SystemConfig
from repro.parallel.fingerprint import code_fingerprint
from repro.parallel.serialize import (SCHEMA_VERSION, canonical_json,
                                      run_result_from_dict,
                                      run_result_to_dict)
from repro.sim.stats import RunResult

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


def _encode_value(value: object) -> object:
    # enums carry .value; anything else must already be JSON-friendly
    return getattr(value, "value", str(value))


def config_digest_payload(config: SystemConfig) -> Dict[str, object]:
    """The configuration as a canonical, JSON-friendly dictionary."""
    return dataclasses.asdict(config)


def content_key(artifact: str, schema: int, spec: Dict[str, object],
                fingerprint: Optional[str] = None, **extra: object) -> str:
    """Content hash of one JSON-payload request (serve, shard, campaign).

    ``artifact`` names the payload kind, ``schema`` its layout version,
    ``spec`` its canonical request dict; ``extra`` fields (a fault
    plan's digest, say) join the hashed request.
    """
    request = dict(extra, artifact=artifact, schema=schema, spec=spec,
                   fingerprint=fingerprint if fingerprint is not None
                   else code_fingerprint())
    return hashlib.sha256(canonical_json(request).encode()).hexdigest()


@dataclasses.dataclass
class CachedRun:
    """One deserialized cache entry."""

    result: RunResult
    chrome_json: Optional[str] = None


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
    """Persistent, content-addressed store of :class:`RunResult` payloads."""

    def __init__(self, directory: str):
        self.directory = directory
        self.stats = CacheStats()

    # -- keys ----------------------------------------------------------

    def key_for(self, config: SystemConfig, workload: str,
                trace_length: int, warmup_records: Optional[int] = None,
                trace_seed: int = 2018, window_policy: str = "in-order",
                collect_trace: bool = False, window_cycles: int = 0,
                fingerprint: Optional[str] = None) -> str:
        """Content hash identifying one simulation request."""
        request = {
            "config": config_digest_payload(config),
            "workload": workload,
            "trace_length": trace_length,
            "warmup_records": warmup_records,
            "trace_seed": trace_seed,
            "window_policy": window_policy,
            "collect_trace": collect_trace,
            "window_cycles": window_cycles,
            "fingerprint": fingerprint if fingerprint is not None
            else code_fingerprint(),
        }
        rendered = json.dumps(request, sort_keys=True,
                              separators=(",", ":"), default=_encode_value)
        return hashlib.sha256(rendered.encode()).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key[:2], key + ".json")

    # -- read ----------------------------------------------------------

    def get(self, key: str) -> Optional[CachedRun]:
        """Fetch one entry; corrupt or mismatched files become misses."""
        path = self._path(key)
        try:
            with open(path, "r") as handle:
                entry = json.load(handle)
            if entry.get("schema") != SCHEMA_VERSION:
                raise ValueError("unknown cache schema")
            if entry.get("key") != key:
                raise ValueError("entry/key mismatch")
            payload = entry["result"]
            # integrity check against torn/bit-rotted files, not an
            # authentication boundary — but compare_digest costs nothing
            if not hmac.compare_digest(
                    hashlib.sha256(canonical_json(payload).encode())
                    .hexdigest(),
                    str(entry.get("digest"))):
                raise ValueError("payload digest mismatch")
            result = run_result_from_dict(payload)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (ValueError, KeyError, TypeError, json.JSONDecodeError):
            # corrupt entry: remove it so the rewrite heals the cache
            self.stats.corruptions += 1
            self.stats.misses += 1
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return CachedRun(result=result, chrome_json=entry.get("chrome_json"))

    # -- write ---------------------------------------------------------

    def put(self, key: str, result: RunResult,
            chrome_json: Optional[str] = None,
            fingerprint: Optional[str] = None) -> str:
        """Store one entry atomically; returns the file path."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = run_result_to_dict(result)
        entry = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "fingerprint": fingerprint if fingerprint is not None
            else code_fingerprint(),
            "digest": hashlib.sha256(
                canonical_json(payload).encode()).hexdigest(),
            "result": payload,
        }
        if chrome_json is not None:
            entry["chrome_json"] = chrome_json
        handle, temp_path = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(handle, "w") as stream:
                json.dump(entry, stream, sort_keys=True,
                          separators=(",", ":"))
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.remove(temp_path)
            except OSError:
                pass
            raise
        self.stats.writes += 1
        return path

    # -- generic JSON payloads (fault campaigns and friends) -----------

    def get_json(self, key: str) -> Optional[Dict[str, object]]:
        """Fetch a generic JSON payload stored with :meth:`put_json`.

        Same durability contract as :meth:`get`: schema, key, and digest
        are all verified; anything off becomes a miss and the entry is
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
            if not hmac.compare_digest(
                    hashlib.sha256(canonical_json(payload).encode())
                    .hexdigest(),
                    str(entry.get("digest"))):
                raise ValueError("payload digest mismatch")
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (ValueError, KeyError, TypeError, json.JSONDecodeError):
            self.stats.corruptions += 1
            self.stats.misses += 1
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return payload

    def put_json(self, key: str, payload: Dict[str, object],
                 fingerprint: Optional[str] = None) -> str:
        """Store a generic JSON payload atomically; returns the path."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        entry = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "fingerprint": fingerprint if fingerprint is not None
            else code_fingerprint(),
            "digest": hashlib.sha256(
                canonical_json(payload).encode()).hexdigest(),
            "payload": payload,
        }
        handle, temp_path = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(handle, "w") as stream:
                json.dump(entry, stream, sort_keys=True,
                          separators=(",", ":"))
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.remove(temp_path)
            except OSError:
                pass
            raise
        self.stats.writes += 1
        return path

    # -- maintenance ---------------------------------------------------

    def prune_stale(self, fingerprint: Optional[str] = None) -> int:
        """Delete entries written under a different code fingerprint.

        Stale entries are already unreachable (the fingerprint is part of
        the key); pruning merely reclaims disk.  Returns how many entries
        were removed.
        """
        current = fingerprint if fingerprint is not None \
            else code_fingerprint()
        removed = 0
        if not os.path.isdir(self.directory):
            return 0
        for directory, _, files in sorted(os.walk(self.directory)):
            for name in sorted(files):
                if not name.endswith(".json"):
                    continue
                path = os.path.join(directory, name)
                try:
                    with open(path, "r") as handle:
                        entry = json.load(handle)
                    stale = entry.get("fingerprint") != current
                except (OSError, json.JSONDecodeError):
                    stale = True    # unreadable entries go too
                if stale:
                    try:
                        os.remove(path)
                        removed += 1
                    except OSError:
                        pass
        return removed

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
        current = fingerprint if fingerprint is not None \
            else code_fingerprint()
        entries = stale = unreadable = total_bytes = 0
        if not os.path.isdir(self.directory):
            return {"entries": 0, "stale": 0, "unreadable": 0, "bytes": 0}
        for directory, _, files in sorted(os.walk(self.directory)):
            for name in sorted(files):
                if not name.endswith(".json"):
                    continue
                path = os.path.join(directory, name)
                entries += 1
                try:
                    total_bytes += os.path.getsize(path)
                    with open(path, "r") as handle:
                        entry = json.load(handle)
                except (OSError, json.JSONDecodeError):
                    stale += 1
                    unreadable += 1
                    continue
                if entry.get("fingerprint") != current:
                    stale += 1
        return {"entries": entries, "stale": stale,
                "unreadable": unreadable, "bytes": total_bytes}

"""Code fingerprint: one hash over every source file that can move a run.

The run cache's contract is "a hit equals a re-run".  Simulation results
depend on the *code*, not just the configuration, so the cache key folds
in a digest of the whole ``repro`` package source.  Any committed change
— a timing parameter, a scheduler tweak, a new RNG draw — changes the
fingerprint, every old key becomes unreachable, and the cache cold-starts
instead of serving stale cycles.  (``RunCache.prune_stale`` reclaims the
orphaned entries.)  The lint cache is stamped with
:func:`lint_fingerprint`, a digest of the ``repro.lint`` sources alone.

Hashing the entire package is deliberately coarse: a docstring edit also
invalidates, but a false cold start costs seconds while a false hit
silently corrupts golden-master comparisons.
"""

from __future__ import annotations

import hashlib
import os
from typing import FrozenSet, Optional

_cached_fingerprint: Optional[str] = None


def package_root() -> str:
    """Directory of the installed ``repro`` package sources."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def code_fingerprint(root: Optional[str] = None) -> str:
    """Hex digest over all ``.py`` files under the package (sorted walk).

    Computed once per process for the default root; the simulator cannot
    change underneath a running interpreter.
    """
    global _cached_fingerprint
    if root is None and _cached_fingerprint is not None:
        return _cached_fingerprint
    base = root if root is not None else package_root()
    digest = hashlib.sha256()
    for directory, subdirs, files in sorted(os.walk(base)):
        subdirs.sort()
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            relative = os.path.relpath(path, base)
            digest.update(relative.encode())
            digest.update(b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
            digest.update(b"\0")
    fingerprint = digest.hexdigest()
    if root is None:
        _cached_fingerprint = fingerprint
    return fingerprint


def lint_fingerprint() -> str:
    """Digest of the ``repro.lint`` sources alone: the lint cache's stamp.

    Editing a rule cold-starts the lint cache; editing the simulator
    does not.
    """
    return code_fingerprint(root=os.path.join(package_root(), "lint"))


def current_fingerprints() -> FrozenSet[str]:
    """Every fingerprint the current code stamps on a cache entry."""
    return frozenset((code_fingerprint(), lint_fingerprint()))

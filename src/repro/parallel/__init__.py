"""Parallel sweep execution and the persistent run cache.

Public surface:

* :class:`~repro.parallel.sweep.SweepPoint` /
  :func:`~repro.parallel.sweep.run_sweep` — fan independent simulation
  points over a process pool with deterministic, order-independent
  merging (``docs/performance.md``);
* :class:`~repro.parallel.cache.RunCache` — content-addressed on-disk
  cache of JSON payloads, keyed by
  :func:`~repro.parallel.cache.content_key` (a sweep point's key is
  :func:`~repro.parallel.sweep.point_key`: config digest + workload +
  seed + trace length + window policy + code fingerprint);
* :func:`~repro.parallel.fingerprint.code_fingerprint` — the source
  digest that invalidates the cache whenever the simulator changes.
"""

from repro.parallel.cache import CACHE_DIR_ENV, RunCache, default_cache_dir
from repro.parallel.fingerprint import code_fingerprint
from repro.parallel.serialize import (run_result_from_dict,
                                      run_result_to_dict)
from repro.parallel.sweep import (PointResult, SweepOutcome, SweepPoint,
                                  execute_point, fold_metrics, run_sweep)

__all__ = [
    "CACHE_DIR_ENV",
    "PointResult",
    "RunCache",
    "SweepOutcome",
    "SweepPoint",
    "code_fingerprint",
    "default_cache_dir",
    "execute_point",
    "fold_metrics",
    "run_result_from_dict",
    "run_result_to_dict",
    "run_sweep",
]

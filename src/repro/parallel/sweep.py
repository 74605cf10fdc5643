"""The sweep engine: fan independent simulation points over processes.

Every figure of the paper is a sweep over (design x workload x
trace-length) points, and each point is an independent, deterministic
simulation — embarrassingly parallel work.  The engine:

* executes points through a **warm** ``multiprocessing`` pool (``jobs``
  workers, kept alive across ``run_sweep`` calls and torn down at
  interpreter exit), falling back to the exact same in-process code path
  when ``jobs <= 1`` or a pool cannot be created (restricted
  environments, missing sem support);
* merges results **by submission index**, never by completion order, so
  the output is bit-identical no matter how the pool interleaves — the
  property the golden-master parity tests pin (and reprolint's DET001
  ``imap_unordered`` check enforces syntactically);
* consults a :class:`~repro.parallel.cache.RunCache` before spawning any
  work, and writes every fresh result back, so repeated sweeps cost one
  disk read per point;
* folds each worker's metrics into a single
  :class:`~repro.obs.metrics.MetricsRegistry` for the caller.

Workers re-derive everything from the :class:`SweepPoint` (a small
picklable description), never from parent state, which is what makes the
serial and parallel paths indistinguishable.

The fan-out itself is :func:`ordered_map`, the one loop every fan-out of
the tree shares; :func:`cached_map` puts a cache of JSON payloads in
front of it, and is the one cache-first loop: simulation sweeps
(:func:`run_sweep`), serving, fault campaigns and lint all go through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    TypeVar)

from repro.config import DesignPoint, SystemConfig, table2_config
from repro.obs.metrics import MetricsRegistry
from repro.parallel.cache import RunCache, content_key
from repro.parallel.fingerprint import code_fingerprint
from repro.parallel.serialize import (SCHEMA_VERSION, run_result_from_dict,
                                      run_result_to_dict)
from repro.sim.stats import RunResult

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class SweepPoint:
    """One independent simulation request (picklable, hashable).

    ``config`` overrides the default Table II configuration when given —
    tests sweep :func:`~repro.config.small_config` trees this way.
    """

    design: DesignPoint
    workload: str
    channels: int = 1
    trace_length: int = 4000
    seed: int = 2018
    oram_cache_enabled: bool = True
    window_policy: str = "in-order"
    collect_trace: bool = False
    #: tumbling time-series window size in cycles (0 = no windows);
    #: snapshots ride on ``RunResult.windows`` and round-trip the cache
    window_cycles: int = 0
    config: Optional[SystemConfig] = None

    def system_config(self) -> SystemConfig:
        if self.config is not None:
            return self.config
        return table2_config(self.design, channels=self.channels,
                             oram_cache_enabled=self.oram_cache_enabled,
                             seed=self.seed)


@dataclass
class PointResult:
    """One executed (or cache-served) sweep point."""

    point: SweepPoint
    result: RunResult
    from_cache: bool
    wall_ms: float
    chrome_json: Optional[str] = None


@dataclass
class SweepOutcome:
    """Everything one sweep produced, in submission order."""

    results: List[PointResult]
    metrics: MetricsRegistry
    jobs: int
    cache_stats: Dict[str, int] = field(default_factory=dict)

    def run_results(self) -> List[RunResult]:
        return [entry.result for entry in self.results]

    def fold_windows(self) -> MetricsRegistry:
        """Fold every point's time-series windows into one registry.

        Submission order, then window order — deterministic regardless
        of ``jobs`` or cache hits, so the folded view is byte-identical
        serial vs. pool (``tests/test_obs_timeseries.py`` pins it).
        """
        from repro.obs.timeseries import fold_windows

        snapshots: List[Dict[str, object]] = []
        for entry in self.results:
            snapshots.extend(entry.result.windows)
        return fold_windows(snapshots)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

def execute_point(point: SweepPoint) -> Dict[str, object]:
    """Run one point; returns a picklable, JSON-friendly payload.

    Used verbatim by the serial path and by pool workers, which is the
    determinism argument in one line: both paths run *this* function.
    Every field is replay-stable (host wall time rides next to the
    payload in :func:`cached_map`, never inside it), so a cached payload
    equals a fresh one.
    """
    from repro.obs.tracer import NULL_TRACER, CollectingTracer
    from repro.sim.system import run_simulation

    tracer = CollectingTracer() if point.collect_trace else NULL_TRACER
    result = run_simulation(point.system_config(), point.workload,
                            trace_length=point.trace_length,
                            trace_seed=point.seed,
                            window_policy=point.window_policy,
                            tracer=tracer,
                            window_cycles=point.window_cycles)
    chrome_json = None
    worker_metrics = MetricsRegistry()
    worker_metrics.counter("sweep/executed").inc()
    if isinstance(tracer, CollectingTracer):
        from repro.obs.chrome import render_chrome_trace

        chrome_json = render_chrome_trace(tracer.events)
        worker_metrics.from_events(tracer.events)
    return {
        "result": run_result_to_dict(result),
        "chrome_json": chrome_json,
        "metrics": worker_metrics.as_dict(),
    }


def point_key(point: SweepPoint, fingerprint: Optional[str]) -> str:
    """The cache key of one sweep point (see :func:`content_key`)."""
    from repro.obs.ledger import config_digest_hex

    return content_key("sweep", SCHEMA_VERSION, {
        "config": config_digest_hex(point.system_config()),
        "workload": point.workload,
        "trace_length": point.trace_length,
        "seed": point.seed,
        "window_policy": point.window_policy,
        "collect_trace": point.collect_trace,
        "window_cycles": point.window_cycles,
    }, fingerprint)


# ----------------------------------------------------------------------
# Metrics folding
# ----------------------------------------------------------------------

def fold_metrics(target: MetricsRegistry, payload: Dict[str, object]) -> None:
    """Fold one worker's ``MetricsRegistry.as_dict()`` into ``target``.

    The merge semantics live in
    :func:`repro.obs.metrics.fold_metrics_dict` — shared with the
    time-series window fold so workers and windows merge identically.
    """
    from repro.obs.metrics import fold_metrics_dict

    fold_metrics_dict(target, payload)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------

def make_pool(jobs: int):
    """A worker pool, or ``None`` when the platform cannot provide one.

    :func:`warm_pool` builds every pool of the tree through it.
    """
    try:
        import multiprocessing

        return multiprocessing.get_context().Pool(jobs)
    except (ImportError, OSError, ValueError):
        return None


# ----------------------------------------------------------------------
# Warm pools: reuse workers across run_sweep calls
# ----------------------------------------------------------------------

#: Live pools keyed by (worker count, value of the fast-path switch).  A
#: benchmark session runs many sweeps back to back; keeping the workers
#: alive amortizes process start-up and module import.  Workers
#: re-derive every result from the pickled :class:`SweepPoint` alone, so
#: a warm worker returns byte-identical payloads to a cold one — the
#: jobs-parity tests pin this.  The switch half of the key is the
#: A/B-toggle guard: workers copy the environment when the pool is
#: created (fork and spawn alike), so a worker started before
#: ``REPRO_DISABLE_FASTPATH`` was toggled would keep running the old
#: core.  A toggle therefore retires the pool rather than reuse it
#: (``tests/test_parallel_sweep.py`` pins the differential).
_WARM_POOLS: Dict[Tuple[int, str], object] = {}
_ATEXIT_REGISTERED = False


def warm_pool(jobs: int):
    """The persistent pool for ``jobs`` workers (``None`` if unavailable).

    Pools are created on first use and reused on every later call with
    the same ``jobs`` *and* the same value of the fast-path switch
    (:func:`repro.utils.memo.fastpath_switch`); toggling it retires the
    old pool and starts fresh workers under the new setting.
    Pools are torn down at interpreter exit (or explicitly via
    :func:`shutdown_pools`).  Callers must not ``close()`` the returned
    pool; on a worker exception they should hand it to
    :func:`discard_pool` so the next sweep starts from a fresh pool.
    """
    global _ATEXIT_REGISTERED
    from repro.utils.memo import fastpath_switch

    key = (jobs, fastpath_switch())
    pool = _WARM_POOLS.get(key)
    if pool is not None:
        return pool
    # a pool for the same jobs under a previous switch value is stale by
    # construction — terminate it rather than let it linger
    for stale in [entry for entry in _WARM_POOLS if entry[0] == jobs]:
        _discard_entry(stale)
    pool = make_pool(jobs)
    if pool is not None:
        _WARM_POOLS[key] = pool
        if not _ATEXIT_REGISTERED:
            import atexit

            atexit.register(shutdown_pools)
            _ATEXIT_REGISTERED = True
    return pool


def _discard_entry(key: Tuple[int, str]) -> None:
    pool = _WARM_POOLS.pop(key, None)
    if pool is not None:
        pool.terminate()
        pool.join()


def discard_pool(jobs: int) -> None:
    """Terminate and forget every warm pool for ``jobs`` (error recovery)."""
    for key in [entry for entry in _WARM_POOLS if entry[0] == jobs]:
        _discard_entry(key)


def shutdown_pools() -> None:
    """Terminate every warm pool (atexit hook; also used by tests)."""
    for key in list(_WARM_POOLS):
        _discard_entry(key)


def _indexed_call(item: Tuple[Callable[[T], R], int, T]) -> Tuple[int, R]:
    worker, index, task = item
    return index, worker(task)


def ordered_map(worker: Callable[[T], R], tasks: Sequence[T],
                jobs: int = 1) -> List[R]:
    """``[worker(task) for task in tasks]``, fanned over the warm pool.

    The one fan-out loop of the tree: sweeps, serving points, shards,
    fault campaigns and lint files all go through it.  ``worker`` must
    be a picklable module-level function that re-derives everything
    from its task.  ``jobs <= 1``, a single task, or an unavailable pool
    runs the same calls in-process.  Results come back in task order
    whatever the completion order, so the output is identical for any
    ``jobs``.  A raising worker leaves the pool in an unknown state, so
    the pool is discarded before the error propagates.
    """
    tasks = list(tasks)
    pool = warm_pool(jobs) if jobs > 1 and len(tasks) > 1 else None
    if pool is None:
        return [worker(task) for task in tasks]
    done: Dict[int, R] = {}
    try:
        # completion order is nondeterministic; the index-keyed merge
        # restores task order
        for index, result in pool.imap_unordered(
                _indexed_call,
                [(worker, index, task) for index, task in enumerate(tasks)]):
            done[index] = result
    except BaseException:
        discard_pool(jobs)
        raise
    return [done[index] for index in range(len(tasks))]


def _timed_call(item: Tuple[Callable[[Any], Dict[str, object]], Any]
                ) -> Tuple[Dict[str, object], float]:
    """``worker(task)`` plus its host wall-clock milliseconds."""
    from repro.obs.ledger import host_clock_s

    worker, task = item
    started = host_clock_s()
    result = worker(task)
    return result, (host_clock_s() - started) * 1000.0


def cached_map(worker: Callable[[T], Dict[str, object]], tasks: Sequence[T],
               key_of: Callable[[T, Optional[str]], str], jobs: int = 1,
               cache: Optional[RunCache] = None,
               fingerprint: Optional[str] = None
               ) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
    """:func:`ordered_map` behind a :class:`RunCache` of JSON payloads.

    ``key_of(task, fingerprint)`` names each task's cache entry;
    ``fingerprint`` (default: :func:`code_fingerprint`) is the source
    digest the entries are keyed and stamped with.  Hits skip the pool,
    and every fresh payload is written back.  Returns one ``(payload,
    {"wall_ms", "from_cache"})`` pair per task, in task order: host time
    is measured inside the worker and rides next to the payload, never
    inside it, so payload bytes stay identical across ``jobs`` values
    and cached replays.
    """
    tasks = list(tasks)
    if cache is not None and fingerprint is None:
        fingerprint = code_fingerprint()
    results: Dict[int, Tuple[Dict[str, Any], Dict[str, Any]]] = {}
    keys: Dict[int, str] = {}
    pending: List[int] = []
    for index, task in enumerate(tasks):
        if cache is not None:
            keys[index] = key_of(task, fingerprint)
            cached = cache.get_json(keys[index])
            if cached is not None:
                results[index] = (cached, {"wall_ms": 0.0,
                                           "from_cache": True})
                continue
        pending.append(index)
    fresh: List[Tuple[Dict[str, object], float]] = ordered_map(
        _timed_call, [(worker, tasks[index]) for index in pending],
        jobs=jobs)
    for index, (payload, wall_ms) in zip(pending, fresh):
        results[index] = (payload, {"wall_ms": wall_ms, "from_cache": False})
        if cache is not None:
            cache.put_json(keys[index], payload, fingerprint=fingerprint)
    return [results[index] for index in range(len(tasks))]


def run_sweep(points: Sequence[SweepPoint], jobs: int = 1,
              cache: Optional[RunCache] = None) -> SweepOutcome:
    """Execute every point; results come back in submission order.

    ``jobs <= 1`` (or an unavailable pool) degrades to the in-process
    serial path — same worker function, same merge, same output.
    Worker metrics and ``sweep/wall_ms`` cover the freshly executed
    points only.
    """
    points = list(points)
    metrics = MetricsRegistry()
    metrics.gauge("sweep/jobs").set(max(1, jobs))
    metrics.counter("sweep/points").inc(len(points))
    results: List[PointResult] = []
    for point, (payload, meta) in zip(points, cached_map(
            execute_point, points, point_key, jobs=jobs, cache=cache)):
        if cache is not None:
            metrics.counter("sweep/cache_hits" if meta["from_cache"]
                            else "sweep/cache_misses").inc()
        if not meta["from_cache"]:
            fold_metrics(metrics, payload["metrics"])
            metrics.histogram("sweep/wall_ms").record(int(meta["wall_ms"]))
        results.append(PointResult(
            point=point, result=run_result_from_dict(payload["result"]),
            from_cache=meta["from_cache"], wall_ms=meta["wall_ms"],
            chrome_json=payload["chrome_json"]))
    return SweepOutcome(results=results, metrics=metrics,
                        jobs=max(1, jobs),
                        cache_stats=cache.stats.as_dict() if cache else {})

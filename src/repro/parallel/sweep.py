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
front of it for the serving and fault-campaign sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    TypeVar)

from repro.config import DesignPoint, SystemConfig, table2_config
from repro.obs.metrics import MetricsRegistry
from repro.parallel.cache import RunCache
from repro.parallel.fingerprint import code_fingerprint
from repro.parallel.serialize import (run_result_from_dict,
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
    """Run one point; returns a picklable payload.

    Used verbatim by the serial path and by pool workers, which is the
    determinism argument in one line: both paths run *this* function.
    """
    from repro.obs.ledger import host_clock_s
    from repro.sim.system import run_simulation

    tracer = None
    started = host_clock_s()
    if point.collect_trace:
        from repro.obs.tracer import CollectingTracer

        tracer = CollectingTracer()
    config = point.system_config()
    if tracer is not None:
        result = run_simulation(config, point.workload,
                                trace_length=point.trace_length,
                                trace_seed=point.seed,
                                window_policy=point.window_policy,
                                tracer=tracer,
                                window_cycles=point.window_cycles)
    else:
        result = run_simulation(config, point.workload,
                                trace_length=point.trace_length,
                                trace_seed=point.seed,
                                window_policy=point.window_policy,
                                window_cycles=point.window_cycles)
    wall_ms = (host_clock_s() - started) * 1000.0
    chrome_json = None
    worker_metrics = MetricsRegistry()
    worker_metrics.counter("sweep/executed").inc()
    worker_metrics.histogram("sweep/wall_ms").record(int(wall_ms))
    if tracer is not None:
        from repro.obs.chrome import render_chrome_trace

        chrome_json = render_chrome_trace(tracer.events)
        worker_metrics.from_events(tracer.events)
    return {
        "result": run_result_to_dict(result),
        "wall_ms": wall_ms,
        "chrome_json": chrome_json,
        "metrics": worker_metrics.as_dict(),
    }


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

def make_pool(jobs: int, initializer=None, initargs=()):
    """A worker pool, or ``None`` when the platform cannot provide one.

    :func:`warm_pool` builds every pool of the tree through it.
    ``initializer`` runs once in each worker at pool start — the
    warm-pool layer uses it to resynchronize the A/B switch environment
    (see :func:`_pool_initializer`).
    """
    try:
        import multiprocessing

        return multiprocessing.get_context().Pool(jobs,
                                                  initializer=initializer,
                                                  initargs=initargs)
    except (ImportError, OSError, ValueError):
        return None



# ----------------------------------------------------------------------
# Warm pools: reuse workers across run_sweep calls
# ----------------------------------------------------------------------

#: Live pools keyed by (worker count, A/B switch-env signature).  A
#: benchmark session runs many sweeps back to back; keeping the workers
#: alive amortizes process start-up and module import.  Workers
#: re-derive every result from the pickled :class:`SweepPoint` alone, so
#: a warm worker returns byte-identical payloads to a cold one — the
#: jobs-parity tests pin this.  The signature half of the key is the
#: A/B-toggle guard: a worker forked under ``REPRO_DISABLE_FASTPATH`` (or
#: ``REPRO_REFERENCE_CORE``) would silently keep running that core after
#: the parent toggled the variable, so a toggle must retire the pool
#: rather than reuse it (``tests/test_parallel_sweep.py`` pins the
#: differential).
_WARM_POOLS: Dict[Tuple[int, Tuple[str, ...]], object] = {}
_ATEXIT_REGISTERED = False


def _pool_initializer(signature: Tuple[str, ...]) -> None:
    """Runs once in every pool worker: re-apply the A/B switch env.

    Fork inherits the parent's *imported module state*, and the switch
    flags are read once at import and copied by value into consumer
    modules — so even a freshly created pool can carry settings computed
    under an environment that no longer holds.  Re-applying the snapshot
    and refreshing the switches makes the worker run exactly the cores
    the signature promises, on every start method.
    """
    import os

    from repro.utils import memo

    for name, value in zip(memo.SWITCH_ENVS, signature):
        if value == "":
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
    memo.refresh_switches()


def warm_pool(jobs: int):
    """The persistent pool for ``jobs`` workers (``None`` if unavailable).

    Pools are created on first use and reused on every later call with
    the same ``jobs`` *and* the same A/B switch-env signature
    (:func:`repro.utils.memo.switch_env_signature`); toggling a switch
    retires the old pool and starts fresh workers under the new setting.
    Pools are torn down at interpreter exit (or explicitly via
    :func:`shutdown_pools`).  Callers must not ``close()`` the returned
    pool; on a worker exception they should hand it to
    :func:`discard_pool` so the next sweep starts from a fresh pool.
    """
    global _ATEXIT_REGISTERED
    from repro.utils.memo import switch_env_signature

    signature = switch_env_signature()
    key = (jobs, signature)
    pool = _WARM_POOLS.get(key)
    if pool is not None:
        return pool
    # a pool for the same jobs under a previous signature is stale by
    # construction — terminate it rather than let it linger
    for stale in [entry for entry in _WARM_POOLS if entry[0] == jobs]:
        _discard_entry(stale)
    pool = make_pool(jobs, initializer=_pool_initializer,
                     initargs=(signature,))
    if pool is not None:
        _WARM_POOLS[key] = pool
        if not _ATEXIT_REGISTERED:
            import atexit

            atexit.register(shutdown_pools)
            _ATEXIT_REGISTERED = True
    return pool


def _discard_entry(key: Tuple[int, Tuple[str, ...]]) -> None:
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
               cache: Optional[RunCache] = None
               ) -> List[Tuple[Dict[str, object], Dict[str, object]]]:
    """:func:`ordered_map` behind a :class:`RunCache` of JSON payloads.

    ``key_of(task, fingerprint)`` names each task's cache entry.  Hits
    skip the pool, and every fresh payload is written back.  Returns one
    ``(payload, {"wall_ms", "from_cache"})`` pair per task, in task
    order: host time is measured inside the worker and rides next to the
    payload, never inside it, so payload bytes stay identical across
    ``jobs`` values and cached replays.
    """
    tasks = list(tasks)
    fingerprint = code_fingerprint() if cache is not None else None
    results: Dict[int, Tuple[Dict[str, object], Dict[str, object]]] = {}
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
    """
    points = list(points)
    metrics = MetricsRegistry()
    metrics.gauge("sweep/jobs").set(max(1, jobs))
    metrics.counter("sweep/points").inc(len(points))
    fingerprint = code_fingerprint() if cache is not None else None

    slots: List[Optional[PointResult]] = [None] * len(points)
    pending: List[Tuple[int, SweepPoint]] = []
    keys: Dict[int, str] = {}

    for index, point in enumerate(points):
        if cache is None:
            pending.append((index, point))
            continue
        key = cache.key_for(point.system_config(), point.workload,
                            point.trace_length, trace_seed=point.seed,
                            window_policy=point.window_policy,
                            collect_trace=point.collect_trace,
                            window_cycles=point.window_cycles,
                            fingerprint=fingerprint)
        keys[index] = key
        cached = cache.get(key)
        if cached is not None:
            metrics.counter("sweep/cache_hits").inc()
            slots[index] = PointResult(point=point, result=cached.result,
                                       from_cache=True, wall_ms=0.0,
                                       chrome_json=cached.chrome_json)
        else:
            metrics.counter("sweep/cache_misses").inc()
            pending.append((index, point))

    payloads = ordered_map(execute_point, [point for _, point in pending],
                           jobs=jobs)
    for (index, point), payload in zip(pending, payloads):
        result = run_result_from_dict(payload["result"])
        chrome_json = payload["chrome_json"]
        slots[index] = PointResult(point=point, result=result,
                                   from_cache=False,
                                   wall_ms=float(payload["wall_ms"]),
                                   chrome_json=chrome_json)
        fold_metrics(metrics, payload["metrics"])
        if cache is not None:
            cache.put(keys[index], result, chrome_json=chrome_json,
                      fingerprint=fingerprint)

    results = [entry for entry in slots if entry is not None]
    assert len(results) == len(points), "sweep lost a point"
    return SweepOutcome(results=results, metrics=metrics,
                        jobs=max(1, jobs),
                        cache_stats=cache.stats.as_dict() if cache else {})

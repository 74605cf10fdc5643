"""Golden-master determinism of the parallel sweep engine.

The ISSUE-level guarantee: ``run_sweep(points, jobs=4)`` is **byte
identical** to ``run_sweep(points, jobs=1)`` — same ``RunResult`` fields
(including the traced ``phase_cycles`` breakdown), same Chrome-trace
export, same submission ordering — no matter how pool workers interleave.
Also covered: the serial fallback when no pool can be created, metrics
folding, and cache interaction of a full sweep.
"""

import pytest

from repro.config import DesignPoint, small_config
from repro.parallel import RunCache, SweepPoint, run_result_to_dict, run_sweep
from repro.parallel.cache import content_key
from repro.parallel.serialize import canonical_json
import repro.parallel.sweep as sweep_module

#: 2 designs x 2 workloads, all traced — the matrix the issue asks for.
POINTS = tuple(
    SweepPoint(design, workload, trace_length=300, collect_trace=True,
               config=small_config(design))
    for design in (DesignPoint.FREECURSIVE, DesignPoint.INDEP_2)
    for workload in ("mcf", "gromacs"))


def result_bytes(outcome):
    """Every observable of a sweep, canonically serialized."""
    return [
        (canonical_json(run_result_to_dict(entry.result)),
         entry.chrome_json,
         entry.from_cache)
        for entry in outcome.results
    ]


@pytest.fixture(scope="module")
def serial_outcome():
    return run_sweep(list(POINTS), jobs=1)


class TestDeterminism:
    def test_parallel_is_byte_identical_to_serial(self, serial_outcome):
        parallel = run_sweep(list(POINTS), jobs=4)
        assert result_bytes(parallel) == result_bytes(serial_outcome)

    def test_phase_cycles_survive_the_pool(self, serial_outcome):
        parallel = run_sweep(list(POINTS), jobs=4)
        for serial_entry, parallel_entry in zip(serial_outcome.results,
                                                parallel.results):
            assert serial_entry.result.phase_cycles
            assert (serial_entry.result.phase_cycles ==
                    parallel_entry.result.phase_cycles)

    def test_chrome_traces_are_identical_and_nonempty(self, serial_outcome):
        parallel = run_sweep(list(POINTS), jobs=4)
        for serial_entry, parallel_entry in zip(serial_outcome.results,
                                                parallel.results):
            assert serial_entry.chrome_json
            assert serial_entry.chrome_json == parallel_entry.chrome_json

    def test_results_come_back_in_submission_order(self, serial_outcome):
        for point, entry in zip(POINTS, serial_outcome.results):
            assert entry.point == point


class TestSerialFallback:
    def test_pool_failure_degrades_to_serial(self, serial_outcome,
                                             monkeypatch):
        sweep_module.shutdown_pools()  # a live warm pool would bypass the patch
        monkeypatch.setattr(sweep_module, "make_pool",
                            lambda jobs, **kwargs: None)
        fallback = run_sweep(list(POINTS), jobs=4)
        assert result_bytes(fallback) == result_bytes(serial_outcome)

    def test_jobs_one_never_builds_a_pool(self, monkeypatch):
        def boom(jobs, **kwargs):
            raise AssertionError("jobs=1 must not construct a pool")
        sweep_module.shutdown_pools()
        monkeypatch.setattr(sweep_module, "make_pool", boom)
        outcome = run_sweep([POINTS[0]], jobs=1)
        assert len(outcome.results) == 1


class TestWarmPools:
    def test_pool_is_reused_across_sweeps(self, monkeypatch):
        sweep_module.shutdown_pools()
        builds = []
        real = sweep_module.make_pool

        def counting(jobs, **kwargs):
            builds.append(jobs)
            return real(jobs, **kwargs)

        monkeypatch.setattr(sweep_module, "make_pool", counting)
        first = run_sweep(list(POINTS), jobs=2)
        second = run_sweep(list(POINTS), jobs=2)
        assert result_bytes(first) == result_bytes(second)
        assert builds == [2]  # second sweep reused the warm pool
        sweep_module.shutdown_pools()

    def test_warm_pool_results_match_serial(self, serial_outcome):
        sweep_module.shutdown_pools()
        run_sweep(list(POINTS[:2]), jobs=2)  # warms the 2-worker pool
        warm = run_sweep(list(POINTS), jobs=2)
        assert result_bytes(warm) == result_bytes(serial_outcome)
        sweep_module.shutdown_pools()

    def test_env_switch_toggle_reaches_warm_pool_workers(self, monkeypatch):
        """The A/B switch must not go stale inside a reused warm pool.

        Workers copy the environment when the pool is built, so a worker
        keeps whatever ``REPRO_DISABLE_FASTPATH`` was then.  Pools are
        therefore keyed on the switch's value — two sweeps with the
        switch toggled in between must see different fastpath behaviour
        even though both ran at the same ``jobs`` on warm pools.
        """
        sweep_module.shutdown_pools()
        monkeypatch.delenv("REPRO_DISABLE_FASTPATH", raising=False)
        points = list(POINTS[:2])
        enabled = run_sweep(points, jobs=2)
        monkeypatch.setenv("REPRO_DISABLE_FASTPATH", "1")
        disabled = run_sweep(points, jobs=2)
        sweep_module.shutdown_pools()
        for entry in enabled.results:
            assert entry.result.extras["fastpath_hit_rate"] == 1.0
        for entry in disabled.results:
            assert entry.result.extras["fastpath_hit_rate"] == 0.0
        # the cycle observables themselves are switch-invariant
        assert ([entry.result.execution_cycles
                 for entry in enabled.results] ==
                [entry.result.execution_cycles
                 for entry in disabled.results])

    def test_switch_set_after_import_gives_jobs_parity(self, monkeypatch):
        """Setting the switch after import reaches jobs=1 and jobs=2 alike.

        The switch is read when a backend is built, so the in-process
        serial path and fresh pool workers both run the event core.
        """
        sweep_module.shutdown_pools()
        monkeypatch.setenv("REPRO_DISABLE_FASTPATH", "1")
        points = list(POINTS[:2])
        serial = run_sweep(points, jobs=1)
        parallel = run_sweep(points, jobs=2)
        sweep_module.shutdown_pools()
        assert result_bytes(serial) == result_bytes(parallel)
        for entry in serial.results + parallel.results:
            assert entry.result.extras["fastpath_hit_rate"] == 0.0

    def test_warm_pools_are_keyed_on_env_signature(self, monkeypatch):
        sweep_module.shutdown_pools()
        monkeypatch.delenv("REPRO_DISABLE_FASTPATH", raising=False)
        run_sweep(list(POINTS[:2]), jobs=2)
        keys_before = set(sweep_module._WARM_POOLS)
        monkeypatch.setenv("REPRO_DISABLE_FASTPATH", "1")
        run_sweep(list(POINTS[:2]), jobs=2)
        keys_after = set(sweep_module._WARM_POOLS)
        sweep_module.shutdown_pools()
        assert len(keys_before) == 1 and len(keys_after) == 1
        # the stale same-jobs pool was replaced, not kept alongside
        assert keys_before != keys_after
        assert next(iter(keys_before))[0] == next(iter(keys_after))[0] == 2

    def test_discard_pool_recovers_after_worker_error(self, monkeypatch):
        sweep_module.shutdown_pools()
        bad = SweepPoint(DesignPoint.FREECURSIVE, "no-such-workload",
                         trace_length=300,
                         config=small_config(DesignPoint.FREECURSIVE))
        with pytest.raises(Exception):
            run_sweep([bad, bad], jobs=2)
        assert sweep_module._WARM_POOLS == {}  # broken pool was dropped
        outcome = run_sweep(list(POINTS), jobs=2)
        assert len(outcome.results) == len(POINTS)
        sweep_module.shutdown_pools()


class TestMetrics:
    def test_worker_metrics_fold_into_one_registry(self):
        outcome = run_sweep(list(POINTS[:2]), jobs=2)
        metrics = outcome.metrics.as_dict()
        assert metrics["counters"]["sweep/executed"] == 2
        assert metrics["counters"]["sweep/points"] == 2
        assert metrics["histograms"]["sweep/wall_ms"]["count"] == 2

    def test_jobs_recorded(self):
        outcome = run_sweep([POINTS[0]], jobs=3)
        assert outcome.jobs == 3
        assert outcome.metrics.as_dict()["gauges"]["sweep/jobs"]["last"] == 3


class TestSweepWithCache:
    def test_second_sweep_is_all_hits_and_identical(self, tmp_path,
                                                    serial_outcome):
        cache = RunCache(str(tmp_path / "runs"))
        first = run_sweep(list(POINTS), jobs=2, cache=cache)
        assert all(not entry.from_cache for entry in first.results)
        assert cache.stats.writes == len(POINTS)

        second = run_sweep(list(POINTS), jobs=2, cache=cache)
        assert all(entry.from_cache for entry in second.results)
        # cached bytes match the pool-free serial ground truth
        assert ([bytes_ for bytes_, _, _ in result_bytes(second)] ==
                [bytes_ for bytes_, _, _ in result_bytes(serial_outcome)])
        assert second.cache_stats["hits"] == len(POINTS)

    def test_traced_and_untraced_points_never_share_entries(self, tmp_path):
        cache = RunCache(str(tmp_path / "runs"))
        traced = POINTS[0]
        untraced = SweepPoint(traced.design, traced.workload,
                              trace_length=traced.trace_length,
                              collect_trace=False, config=traced.config)
        run_sweep([traced], jobs=1, cache=cache)
        outcome = run_sweep([untraced], jobs=1, cache=cache)
        assert not outcome.results[0].from_cache
        assert cache.entry_count() == 2


class TestOrderedMap:
    """The one fan-out loop every sweep, shard set and lint run uses."""

    TASKS = [5, -3, 8, -1, 0, 7]

    def test_task_order_for_any_jobs(self):
        serial = sweep_module.ordered_map(abs, self.TASKS, jobs=1)
        assert serial == [abs(task) for task in self.TASKS]
        sweep_module.shutdown_pools()
        assert sweep_module.ordered_map(abs, self.TASKS, jobs=2) == serial
        sweep_module.shutdown_pools()

    def test_worker_error_discards_the_pool(self):
        sweep_module.shutdown_pools()
        with pytest.raises(ValueError):
            sweep_module.ordered_map(int, ["1", "x", "3"], jobs=2)
        assert sweep_module._WARM_POOLS == {}

    def test_cached_map_replays_from_the_cache(self, tmp_path):
        cache = RunCache(str(tmp_path / "runs"))
        tasks = [[("a", 1)], [("b", 2)], [("a", 1), ("c", 3)]]

        def key_of(task, fingerprint):
            return content_key("pairs", 1, dict(task), fingerprint)

        first = sweep_module.cached_map(dict, tasks, key_of, jobs=2,
                                        cache=cache)
        replay = sweep_module.cached_map(dict, tasks, key_of, jobs=1,
                                         cache=cache)
        sweep_module.shutdown_pools()
        assert [payload for payload, _ in first] == [dict(task)
                                                    for task in tasks]
        assert [payload for payload, _ in replay] == \
            [payload for payload, _ in first]
        assert [info["from_cache"] for _, info in first] == [False] * 3
        assert [info["from_cache"] for _, info in replay] == [True] * 3

    def test_content_key_covers_every_field(self):
        base = content_key("serve-bench", 2, {"rate": 0.1}, "f" * 64)
        assert base == content_key("serve-bench", 2, {"rate": 0.1}, "f" * 64)
        assert base != content_key("serve-sharded", 2, {"rate": 0.1},
                                   "f" * 64)
        assert base != content_key("serve-bench", 3, {"rate": 0.1}, "f" * 64)
        assert base != content_key("serve-bench", 2, {"rate": 0.2}, "f" * 64)
        assert base != content_key("serve-bench", 2, {"rate": 0.1}, "e" * 64)
        assert base != content_key("serve-bench", 2, {"rate": 0.1}, "f" * 64,
                                   plan_digest="0")

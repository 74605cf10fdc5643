"""The persistent run cache: hits, misses, corruption, invalidation."""

import json
import os
import re

import pytest

from repro.config import DesignPoint, small_config
from repro.parallel import (RunCache, SweepPoint, default_cache_dir,
                            execute_point, run_sweep)
from repro.parallel.cache import CACHE_DIR_ENV, DEFAULT_CACHE_DIRNAME
from repro.parallel.serialize import run_result_from_dict, run_result_to_dict
from repro.parallel.sweep import point_key

CONFIG = small_config(DesignPoint.FREECURSIVE)
POINT = SweepPoint(DesignPoint.FREECURSIVE, "mcf", trace_length=200,
                   config=CONFIG)


@pytest.fixture(scope="module")
def payload():
    return execute_point(POINT)


@pytest.fixture
def cache(tmp_path):
    return RunCache(str(tmp_path / "runs"))


def key_of(fingerprint, **changes):
    fields = dict(design=POINT.design, workload=POINT.workload,
                  trace_length=POINT.trace_length, config=POINT.config)
    fields.update(changes)
    return point_key(SweepPoint(**fields), fingerprint)


class TestRoundTrip:
    def test_hit_returns_equal_result(self, cache, payload):
        key = point_key(POINT, "f1")
        cache.put_json(key, payload, fingerprint="f1")
        entry = cache.get_json(key)
        assert entry is not None
        assert (run_result_to_dict(run_result_from_dict(entry["result"]))
                == payload["result"])
        assert cache.stats.hits == 1
        assert cache.stats.writes == 1

    def test_chrome_json_round_trips(self, cache):
        traced = SweepPoint(DesignPoint.FREECURSIVE, "mcf", trace_length=200,
                            collect_trace=True, config=CONFIG)
        first = run_sweep([traced], cache=cache).results[0]
        replay = run_sweep([traced], cache=cache).results[0]
        assert not first.from_cache and replay.from_cache
        assert json.loads(first.chrome_json)["traceEvents"]
        assert replay.chrome_json == first.chrome_json

    def test_unknown_key_is_a_miss(self, cache):
        assert cache.get_json("00" * 32) is None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0


class TestKeying:
    def test_fingerprint_is_part_of_the_key(self):
        assert point_key(POINT, "old") != point_key(POINT, "new")

    def test_request_parameters_change_the_key(self):
        base = point_key(POINT, "f")
        assert base != key_of("f", workload="lbm")
        assert base != key_of("f", trace_length=201)
        assert base != key_of("f", seed=3)
        assert base != key_of("f", collect_trace=True)
        assert base != key_of("f", window_cycles=50_000)
        assert base != key_of("f", window_policy="out-of-order")

    def test_config_contents_change_the_key(self):
        other = small_config(DesignPoint.FREECURSIVE, seed=99)
        assert point_key(POINT, "f") != key_of("f", config=other)

    def test_same_request_same_key(self):
        assert point_key(POINT, "f") == key_of("f")


class TestCorruption:
    def put_one(self, cache, payload):
        key = point_key(POINT, "f1")
        path = cache.put_json(key, payload, fingerprint="f1")
        return key, path

    def test_garbage_file_becomes_miss_and_is_deleted(self, cache, payload):
        key, path = self.put_one(cache, payload)
        with open(path, "w") as handle:
            handle.write("not json {{{")
        assert cache.get_json(key) is None
        assert cache.stats.corruptions == 1
        assert cache.stats.misses == 1
        assert not os.path.exists(path)

    def test_tampered_payload_fails_digest_check(self, cache, payload):
        key, path = self.put_one(cache, payload)
        with open(path) as handle:
            entry = json.load(handle)
        entry["payload"]["result"]["execution_cycles"] += 1
        with open(path, "w") as handle:
            json.dump(entry, handle)
        assert cache.get_json(key) is None
        assert cache.stats.corruptions == 1
        assert not os.path.exists(path)

    def test_wrong_schema_rejected(self, cache, payload):
        key, path = self.put_one(cache, payload)
        with open(path) as handle:
            entry = json.load(handle)
        entry["schema"] = 999
        with open(path, "w") as handle:
            json.dump(entry, handle)
        assert cache.get_json(key) is None
        assert cache.stats.corruptions == 1

    def test_heals_after_rewrite(self, cache, payload):
        key, path = self.put_one(cache, payload)
        with open(path, "w") as handle:
            handle.write("garbage")
        assert cache.get_json(key) is None
        cache.put_json(key, payload, fingerprint="f1")
        assert cache.get_json(key) is not None


class TestInvalidation:
    def test_prune_stale_removes_old_fingerprints(self, cache, payload):
        old_key = point_key(POINT, "old")
        new_key = point_key(POINT, "new")
        cache.put_json(old_key, payload, fingerprint="old")
        cache.put_json(new_key, payload, fingerprint="new")
        assert cache.entry_count() == 2
        assert cache.prune_stale("new") == 1
        assert cache.entry_count() == 1
        assert cache.get_json(new_key) is not None

    def test_prune_on_missing_directory_is_noop(self, tmp_path):
        cache = RunCache(str(tmp_path / "never-created"))
        assert cache.prune_stale("f") == 0
        assert cache.entry_count() == 0


class TestUnusableDirectory:
    """A cache directory that is a regular file: misses, no-op writes,
    and the same results as running without a cache."""

    @pytest.fixture
    def blocked(self, tmp_path):
        path = tmp_path / "not-a-directory"
        path.write_text("a regular file\n")
        return str(path)

    def test_reads_miss_and_writes_are_noops(self, blocked, payload):
        cache = RunCache(blocked)
        key = point_key(POINT, "f1")
        assert cache.put_json(key, payload, fingerprint="f1") is None
        assert cache.get_json(key) is None
        assert cache.stats.as_dict() == {"hits": 0, "misses": 1,
                                         "writes": 0, "corruptions": 0}
        assert cache.prune_stale("f1") == 0
        assert cache.disk_stats("f1")["entries"] == 0

    def test_run_sweep(self, blocked):
        plain = run_sweep([POINT])
        cached = run_sweep([POINT], cache=RunCache(blocked))
        assert ([run_result_to_dict(entry.result) for entry in cached.results]
                == [run_result_to_dict(entry.result)
                    for entry in plain.results])

    def test_run_serve_sweep(self, blocked):
        from repro.serve.bench import ServeSpec, run_serve_sweep

        specs = [ServeSpec(design="independent", rate=0.01, levels=5,
                           requests=32, capacity=16, batch=4, seed=2018)]
        assert (run_serve_sweep(specs, cache=RunCache(blocked))
                == run_serve_sweep(specs))

    def test_lint_paths(self, blocked, tmp_path):
        from repro.lint import lint_paths

        source = tmp_path / "sim" / "clock.py"
        source.parent.mkdir()
        source.write_text("import time\n\n\ndef now():\n"
                          "    return time.time()\n")
        plain = lint_paths([str(source)])
        cached = lint_paths([str(source)], cache_dir=blocked)
        assert plain.findings
        assert ([finding.render() for finding in cached.findings]
                == [finding.render() for finding in plain.findings])


class TestDefaultDirectory:
    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, "/somewhere/else")
        assert default_cache_dir("/anchor") == "/somewhere/else"

    def test_anchor_used_without_env(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert (default_cache_dir("/anchor") ==
                os.path.join("/anchor", DEFAULT_CACHE_DIRNAME))


class TestDiskStats:
    def test_counts_entries_stale_and_bytes(self, cache, payload):
        keep = point_key(POINT, "cur")
        drop = key_of("old", workload="lbm")
        keep_path = cache.put_json(keep, payload, fingerprint="cur")
        drop_path = cache.put_json(drop, payload, fingerprint="old")
        stats = cache.disk_stats(fingerprint="cur")
        assert stats["entries"] == 2
        assert stats["stale"] == 1
        assert stats["unreadable"] == 0
        assert stats["bytes"] == (os.path.getsize(keep_path)
                                  + os.path.getsize(drop_path))

    def test_unreadable_entry_counts_as_stale(self, cache, payload):
        key = point_key(POINT, "cur")
        path = cache.put_json(key, payload, fingerprint="cur")
        with open(path, "w") as handle:
            handle.write("not json")
        stats = cache.disk_stats(fingerprint="cur")
        assert stats == {"entries": 1, "stale": 1, "unreadable": 1,
                         "bytes": os.path.getsize(path)}

    def test_missing_directory_is_empty(self, tmp_path):
        cache = RunCache(str(tmp_path / "never-created"))
        assert cache.disk_stats("f") == {"entries": 0, "stale": 0,
                                         "unreadable": 0, "bytes": 0}

    def test_current_lint_entries_are_not_stale(self, tmp_path):
        # Lint entries carry the lint-only fingerprint, not the whole
        # package's; both are current, so stats and prune must keep them.
        from repro.lint import lint_paths

        source = tmp_path / "sim" / "clock.py"
        source.parent.mkdir()
        source.write_text("import time\n\n\ndef now():\n"
                          "    return time.time()\n")
        directory = str(tmp_path / "lint-cache")
        lint_paths([str(source)], cache_dir=directory)
        cache = RunCache(directory)
        stats = cache.disk_stats()
        assert stats["entries"] == 1
        assert stats["stale"] == 0
        assert cache.prune_stale() == 0
        assert cache.entry_count() == 1


class TestCacheCli:
    """The ``cache stats`` / ``cache prune`` CLI verbs."""

    @pytest.fixture
    def populated(self, tmp_path, payload, monkeypatch):
        # The CLI uses the real code fingerprint, so plant one entry
        # under it and one under a fabricated stale fingerprint.
        from repro.parallel.fingerprint import code_fingerprint
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        directory = str(tmp_path / "cli-cache")
        cache = RunCache(directory)
        current = code_fingerprint()
        cache.put_json(point_key(POINT, current), payload,
                       fingerprint=current)
        cache.put_json(key_of("0" * 64, workload="lbm"), payload,
                       fingerprint="0" * 64)
        return directory

    def test_stats_reports_counts(self, populated, capsys):
        from repro.cli import main
        assert main(["cache", "stats", "--cache-dir", populated]) == 0
        out = capsys.readouterr().out
        assert re.search(r"entries:\s+2", out)
        assert re.search(r"stale:\s+1", out)
        assert populated in out

    def test_prune_removes_only_stale_entries(self, populated, capsys):
        from repro.cli import main
        assert main(["cache", "prune", "--cache-dir", populated]) == 0
        out = capsys.readouterr().out
        assert "removed 1 stale entr" in out
        assert RunCache(populated).entry_count() == 1
        assert main(["cache", "stats", "--cache-dir", populated]) == 0
        assert re.search(r"stale:\s+0", capsys.readouterr().out)

    def test_env_var_supplies_default_directory(self, populated, capsys,
                                                monkeypatch):
        from repro.cli import main
        monkeypatch.setenv(CACHE_DIR_ENV, populated)
        assert main(["cache", "stats"]) == 0
        assert re.search(r"entries:\s+2", capsys.readouterr().out)

"""The performance ledger: records, digests, the file, the PR3 history."""

import importlib.util
import json
import os

import pytest

from repro.config import DesignPoint, small_config
from repro.obs.ledger import (LEDGER_DISABLE_ENV, LEDGER_ENV, LEDGER_SCHEMA,
                              Ledger, canonical_core_line, config_digest_hex,
                              canonical_json, make_record,
                              point_key, resolve_ledger, simulation_core,
                              sweep_scaling_core, verify_record)
from repro.sim.system import run_simulation

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks")
PR3_PATH = os.path.join(BENCH_DIR, "results", "BENCH_pr3.json")
TRAJECTORY_PATH = os.path.join(BENCH_DIR, "results", "perf_trajectory.jsonl")


def _small_run():
    config = small_config(DesignPoint.INDEP_2)
    return config, run_simulation(config, "mcf", trace_length=200)


class TestRecords:
    def test_record_shape_and_digest(self):
        record = make_record("test", {"point": {"a": 1}, "measure": {}},
                             wall_ms=12.3456, jobs=2, from_cache=False)
        assert record["schema"] == LEDGER_SCHEMA
        assert verify_record(record)
        assert record["host"]["wall_ms"] == 12.346
        assert record["host"]["jobs"] == 2
        assert record["host"]["from_cache"] is False
        # provenance names the measuring machine
        for key in ("cpu_count", "python", "platform"):
            assert key in record["host"]

    def test_tampered_core_fails_verification(self):
        record = make_record("test", {"point": {"a": 1},
                                      "measure": {"cycles": 10}})
        record["core"]["measure"]["cycles"] = 11
        assert not verify_record(record)

    def test_host_section_is_outside_the_digest(self):
        first = make_record("test", {"point": {"a": 1}}, wall_ms=1.0)
        second = make_record("test", {"point": {"a": 1}}, wall_ms=99.0)
        assert first["core_digest"] == second["core_digest"]
        assert canonical_core_line(first) == canonical_core_line(second)
        assert "wall_ms" not in canonical_core_line(first)

    def test_point_key_distinguishes_kind_and_point(self):
        base = make_record("gate", {"point": {"design": "indep-2"}})
        other_kind = make_record("sweep", {"point": {"design": "indep-2"}})
        other_point = make_record("gate", {"point": {"design": "split-2"}})
        keyless = make_record("sweep-scaling", {"measure": {}})
        assert point_key(base) not in (point_key(other_kind),
                                       point_key(other_point))
        assert point_key(keyless) is None

    def test_simulation_core_measures_the_run(self):
        config, result = _small_run()
        core = simulation_core("indep-2", "mcf", result,
                               config_digest_hex(config), trace_length=200)
        measure = core["measure"]
        assert measure["execution_cycles"] == result.execution_cycles
        assert measure["miss_count"] == result.miss_count
        assert measure["slo"]["count"] == result.miss_latency.count
        assert core["point"]["design"] == "indep-2"
        assert len(core["config_digest"]) == 64
        # the hit rate sits inside the digest-protected measure, so a
        # silent loss of fast-path coverage becomes a gate finding
        assert measure["fastpath_hit_rate"] == \
            result.extras.get("fastpath_hit_rate", 0.0)
        assert 0.0 <= measure["fastpath_hit_rate"] <= 1.0
        # the core is replay-stable: same run, same bytes
        again = simulation_core("indep-2", "mcf", result,
                                config_digest_hex(config),
                                trace_length=200,
                                fingerprint=core["fingerprint"])
        assert json.dumps(core, sort_keys=True) == \
            json.dumps(again, sort_keys=True)


class TestLedgerFile:
    def test_append_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        ledger = Ledger(path)
        records = [make_record("test", {"point": {"i": i}})
                   for i in range(3)]
        ledger.append_all(records)
        back = ledger.read()
        assert [r["core"]["point"]["i"] for r in back] == [0, 1, 2]
        assert ledger.skipped_lines == 0

    def test_corrupt_and_tampered_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        ledger = Ledger(path)
        ledger.append(make_record("test", {"point": {"i": 0}}))
        tampered = make_record("test", {"point": {"i": 1}})
        tampered["core"]["point"]["i"] = 99
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{not json\n")
            handle.write(json.dumps(tampered) + "\n")
        back = ledger.read()
        assert len(back) == 1
        assert ledger.skipped_lines == 2

    def test_missing_file_reads_empty(self, tmp_path):
        ledger = Ledger(str(tmp_path / "absent.jsonl"))
        assert ledger.read() == []

    def test_canonical_dump_is_host_free(self, tmp_path):
        ledger = Ledger(str(tmp_path / "ledger.jsonl"))
        ledger.append(make_record("test", {"point": {"i": 0}},
                                  wall_ms=123.0))
        dump = ledger.canonical_dump()
        assert "wall_ms" not in dump
        assert dump.endswith("\n")
        # dumps from records with different host sections are identical
        other = Ledger(str(tmp_path / "other.jsonl"))
        other.append(make_record("test", {"point": {"i": 0}},
                                 wall_ms=9999.0, jobs=8))
        assert other.canonical_dump() == dump


class TestResolveLedger:
    def test_explicit_path_wins(self, tmp_path, monkeypatch):
        monkeypatch.delenv(LEDGER_DISABLE_ENV, raising=False)
        monkeypatch.setenv(LEDGER_ENV, str(tmp_path / "env.jsonl"))
        ledger = resolve_ledger(str(tmp_path / "explicit.jsonl"))
        assert ledger is not None
        assert ledger.path.endswith("explicit.jsonl")

    def test_env_fallback_and_disable(self, tmp_path, monkeypatch):
        monkeypatch.setenv(LEDGER_ENV, str(tmp_path / "env.jsonl"))
        monkeypatch.delenv(LEDGER_DISABLE_ENV, raising=False)
        assert resolve_ledger().path.endswith("env.jsonl")
        monkeypatch.setenv(LEDGER_DISABLE_ENV, "1")
        assert resolve_ledger() is None

    def test_explicit_path_overrides_disable_env(self, tmp_path,
                                                 monkeypatch, capsys):
        """An explicit ``--ledger FILE`` beats ambient REPRO_NO_LEDGER.

        The env var is a blanket default for *implicit* ledger
        resolution; a user naming a file on the command line asked for
        that file.  The override is announced on stderr so the ambient
        setting is not silently ignored.
        """
        monkeypatch.delenv(LEDGER_ENV, raising=False)
        monkeypatch.setenv(LEDGER_DISABLE_ENV, "1")
        ledger = resolve_ledger(str(tmp_path / "x.jsonl"))
        assert ledger is not None
        assert ledger.path.endswith("x.jsonl")
        captured = capsys.readouterr()
        assert LEDGER_DISABLE_ENV in captured.err
        assert "overrides" in captured.err

    def test_no_warning_without_disable_env(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.delenv(LEDGER_ENV, raising=False)
        monkeypatch.delenv(LEDGER_DISABLE_ENV, raising=False)
        assert resolve_ledger(str(tmp_path / "y.jsonl")) is not None
        assert capsys.readouterr().err == ""

    def test_nothing_configured_is_none(self, monkeypatch):
        monkeypatch.delenv(LEDGER_ENV, raising=False)
        monkeypatch.delenv(LEDGER_DISABLE_ENV, raising=False)
        assert resolve_ledger() is None


class TestScalingCore:
    def test_single_core_caveat_is_explicit(self):
        core = sweep_scaling_core(points=8, serial_wall_s=2.0,
                                  parallel_wall_s=2.2, jobs=4,
                                  results_identical=True, cpu_count=1,
                                  fingerprint="f" * 64)
        assert core["measure"]["single_core_caveat"] is True
        assert core["measure"]["cpu_count"] == 1
        assert core["measure"]["speedup"] == pytest.approx(2.0 / 2.2)

    def test_multi_core_has_no_caveat(self):
        core = sweep_scaling_core(points=8, serial_wall_s=2.0,
                                  parallel_wall_s=1.0, jobs=4,
                                  results_identical=True, cpu_count=8,
                                  fingerprint="f" * 64)
        assert core["measure"]["single_core_caveat"] is False


class TestMigration:
    def test_committed_pr3_history_is_what_the_script_reads(self,
                                                           monkeypatch):
        monkeypatch.syspath_prepend(BENCH_DIR)
        spec = importlib.util.spec_from_file_location(
            "_bench_perf_trend", os.path.join(BENCH_DIR,
                                              "bench_perf_trend.py"))
        trend = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(trend)
        records = trend.migrated_records()
        with open(TRAJECTORY_PATH, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        # the two records head the trajectory, and a --trajectory
        # rewrite reproduces their lines byte for byte
        assert [canonical_json(r) + "\n" for r in records] == lines[:2]
        assert [r["kind"] for r in records] == ["gate", "sweep-scaling"]
        assert all(verify_record(r) for r in records)
        with open(PR3_PATH, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        gate, scaling = records
        assert gate["core"]["point"]["design"] == "freecursive"
        assert gate["core"]["measure"]["execution_cycles"] == \
            payload["hotpath"]["cycles"] == 1078838
        assert gate["core"]["fingerprint"] == payload["code_fingerprint"]
        assert gate["host"]["migrated_from"] == "BENCH_pr3.json"
        assert scaling["core"]["measure"]["single_core_caveat"] is True
        assert scaling["core"]["measure"]["results_identical"] is True

    def test_original_file_still_schema_one(self):
        # the frozen original is never rewritten
        with open(PR3_PATH, "r", encoding="utf-8") as handle:
            assert json.load(handle)["schema"] == 1

"""No benchmark script overwrites a committed record by default.

``benchmarks/results/`` is gitignored apart from a few force-added,
frozen records that tests and ``bench_perf_trend.migrated_records`` read.
A benchmark run with default arguments must leave those files alone, so
no ``--out``-style default of any ``benchmarks/bench_*.py`` command line
may name one of them.
"""

import argparse
import glob
import importlib.util
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(REPO_ROOT, "benchmarks")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")

#: The committed records under ``benchmarks/results/``.
FROZEN_RECORDS = ("BENCH_pr3.json", "BENCH_pr7.json",
                  "perf_trajectory.jsonl")


class _Parsed(Exception):
    """Raised in place of running a benchmark once its defaults are known."""


def _scripts_with_main():
    for path in sorted(glob.glob(os.path.join(BENCH_DIR, "bench_*.py"))):
        with open(path, encoding="utf-8") as handle:
            if "\ndef main(" in handle.read():
                yield path


def _cli_defaults(path, monkeypatch):
    """Every argparse default of the script's ``main`` command line."""
    name = "_bench_defaults_" + os.path.basename(path)[:-3]
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.syspath_prepend(BENCH_DIR)
    spec.loader.exec_module(module)
    captured = {}

    def parse_args(parser, args=None, namespace=None):
        captured.update(vars(parser.parse_known_args([])[0]))
        raise _Parsed()

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", parse_args)
    with pytest.raises(_Parsed):
        module.main([])
    return captured


SCRIPTS = list(_scripts_with_main())


def test_frozen_records_are_present():
    for record in FROZEN_RECORDS:
        assert os.path.isfile(os.path.join(RESULTS_DIR, record)), record


def test_scripts_with_a_command_line_are_found():
    names = {os.path.basename(path) for path in SCRIPTS}
    assert {"bench_speedup.py", "bench_fastpath.py",
            "bench_perf_trend.py"} <= names


@pytest.mark.parametrize("path", SCRIPTS, ids=os.path.basename)
def test_no_default_output_is_a_committed_record(path, monkeypatch):
    frozen = {os.path.realpath(os.path.join(RESULTS_DIR, record))
              for record in FROZEN_RECORDS}
    for option, value in _cli_defaults(path, monkeypatch).items():
        if isinstance(value, str):
            assert os.path.realpath(value) not in frozen, \
                f"--{option} defaults to the committed record {value}"

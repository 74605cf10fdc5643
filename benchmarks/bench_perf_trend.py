"""Record the performance trajectory: ``BENCH_pr8.json`` + the committed
``perf_trajectory.jsonl`` the regression gate compares against.

Four steps, all through the ledger schema (:mod:`repro.obs.ledger`):

1. **Read the PR3 history**: the two ledger records lifted from the
   schema-1 ``BENCH_pr3.json`` (kept untouched), which head the committed
   trajectory with ``host.migrated_from == "BENCH_pr3.json"``.  They are
   read before any ``--trajectory`` rewrite, so those lines stay
   byte-identical.
2. **Measure the gate suite** fresh — the same fixed points
   ``perf-gate`` re-measures (:mod:`repro.obs.regress`) — and a
   serial-vs-parallel sweep-scaling record that carries ``cpu_count``
   *in the core*: on a single-core box the recorded speedup is a caveat
   (``single_core_caveat: true``), not a regression, and pretending
   otherwise would poison every future comparison.
3. **Measure the fast-path A/B** — the differential fast-vs-event
   sweep from :mod:`bench_fastpath` (byte-identity is a hard gate,
   speedup is recorded per point).
4. **Write** the fresh records to ``BENCH_pr8.json`` and (with
   ``--trajectory``) regenerate the committed trajectory file:
   PR3 history first, fresh gate + scaling records after, so the
   gate's latest-record-per-point rule baselines on today's code while
   the dashboard still shows the PR3 -> PR8 history.
   (``BENCH_pr7.json`` stays frozen as that PR's artifact.)

Run directly::

    python benchmarks/bench_perf_trend.py \
        --trajectory benchmarks/results/perf_trajectory.jsonl

Under pytest (tier-2 benchmark suite) the module contributes one smoke
test exercising history -> compare on a miniature trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.config import DesignPoint  # noqa: E402
from repro.obs.ledger import (Ledger, host_clock_s,  # noqa: E402
                              make_record, sweep_scaling_core)
from repro.obs.regress import compare_records, gate_records  # noqa: E402
from repro.parallel import (SweepPoint, code_fingerprint,  # noqa: E402
                            run_result_to_dict, run_sweep)

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")
TRAJECTORY_PATH = os.path.join(RESULTS_DIR, "perf_trajectory.jsonl")
DEFAULT_OUT = os.path.join(RESULTS_DIR, "BENCH_pr8.json")

#: Scaling sweep: same shape as BENCH_pr3's (8 points) so the records
#: are comparable machine-for-machine.
SCALING_DESIGNS = (DesignPoint.FREECURSIVE, DesignPoint.INDEP_2)
SCALING_WORKLOADS = ("mcf", "gromacs", "libquantum", "lbm")


def migrated_records() -> List[Dict[str, object]]:
    """The BENCH_pr3.json measurements, as the committed trajectory
    carries them (``host.migrated_from``)."""
    return [record for record in Ledger(TRAJECTORY_PATH).read()
            if record["host"].get("migrated_from") == "BENCH_pr3.json"]


def measure_scaling(trace_length: int, jobs: int) -> Dict[str, object]:
    """One serial-vs-parallel sweep-scaling ledger record."""
    points = [SweepPoint(design, workload, trace_length=trace_length)
              for design in SCALING_DESIGNS
              for workload in SCALING_WORKLOADS]
    started = host_clock_s()
    serial = run_sweep(points, jobs=1, cache=None)
    serial_wall = host_clock_s() - started
    started = host_clock_s()
    parallel = run_sweep(points, jobs=jobs, cache=None)
    parallel_wall = host_clock_s() - started
    identical = ([run_result_to_dict(e.result) for e in serial.results]
                 == [run_result_to_dict(e.result)
                     for e in parallel.results])
    core = sweep_scaling_core(points=len(points), serial_wall_s=serial_wall,
                              parallel_wall_s=parallel_wall, jobs=jobs,
                              results_identical=identical,
                              fingerprint=code_fingerprint())
    core["measure"]["designs"] = [d.value for d in SCALING_DESIGNS]
    core["measure"]["workloads"] = list(SCALING_WORKLOADS)
    return make_record("sweep-scaling", core)


def run_benchmark(jobs: int, out_path: Optional[str],
                  trajectory_path: Optional[str],
                  trace_length: int = 1200,
                  fastpath_repeats: int = 3) -> Dict[str, object]:
    """Measure, record, and (optionally) regenerate the trajectory."""
    from bench_fastpath import measure_fastpath

    fresh = gate_records(jobs=1)
    scaling = measure_scaling(trace_length, jobs)
    fastpath = measure_fastpath(trace_length=trace_length,
                                repeats=fastpath_repeats)
    history = migrated_records()

    # the fresh suite must agree with itself before it becomes anyone's
    # baseline; compare against the migrated history for the report
    self_check = compare_records(fresh, fresh)
    against_history = compare_records(history, fresh)

    payload = {
        "benchmark": "pr8-perf-trend",
        "schema": 2,                     # ledger record schema
        "records": fresh + [scaling],
        "fastpath": fastpath,
        "gate_self_consistent": self_check.ok,
        "vs_pr3": {
            "ok": against_history.ok,
            "findings": [finding.describe()
                         for finding in against_history.findings],
        },
    }
    if out_path:
        os.makedirs(os.path.dirname(os.path.abspath(out_path)),
                    exist_ok=True)
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if trajectory_path:
        try:
            os.remove(trajectory_path)
        except OSError:
            pass
        ledger = Ledger(trajectory_path)
        ledger.append_all(history)
        ledger.append_all(fresh)
        ledger.append(scaling)
    return payload


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="record the performance trajectory (ledger schema)")
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--trace-length", type=int, default=1200)
    parser.add_argument("--out", default=DEFAULT_OUT, metavar="FILE",
                        help=f"JSON record path (default {DEFAULT_OUT})")
    parser.add_argument("--trajectory", default=None, metavar="FILE",
                        help="regenerate this committed trajectory JSONL "
                             "(migrated history + fresh records)")
    args = parser.parse_args(argv)

    payload = run_benchmark(args.jobs, args.out, args.trajectory,
                            trace_length=args.trace_length)
    scaling = payload["records"][-1]["core"]["measure"]
    print(f"gate points          {len(payload['records']) - 1}")
    for record in payload["records"][:-1]:
        measure = record["core"]["measure"]
        point = record["core"]["point"]
        print(f"  {point['design']:12s} {measure['execution_cycles']:>12,} "
              f"cycles  {measure['windows']} windows  "
              f"hit={measure['fastpath_hit_rate']:.3f}")
    fastpath = payload["fastpath"]
    print(f"fastpath A/B         "
          f"{'identical' if fastpath['cycles_identical'] else 'DIVERGED'}  "
          f"geomean {fastpath['geomean_speedup']:.2f}x "
          f"(min {fastpath['min_speedup']:.2f}x) vs event core")
    print(f"cpu_count            {scaling['cpu_count']}"
          + ("  (single-core caveat: speedup is not expected)"
             if scaling["single_core_caveat"] else ""))
    print(f"serial wall          {scaling['serial_wall_s']:.2f} s")
    print(f"parallel wall (x{scaling['jobs']})   "
          f"{scaling['parallel_wall_s']:.2f} s")
    print(f"sweep speedup        {scaling['speedup']:.2f}x")
    print(f"self-consistent      {payload['gate_self_consistent']}")
    print(f"vs PR3               {'ok' if payload['vs_pr3']['ok'] else 'DRIFT'}")
    for line in payload["vs_pr3"]["findings"]:
        print(f"  {line}")
    print(f"wrote {args.out}")
    if args.trajectory:
        print(f"wrote {args.trajectory}")
    if not scaling["results_identical"]:
        print("FAIL: parallel sweep diverged from serial", file=sys.stderr)
        return 1
    if not payload["gate_self_consistent"]:
        print("FAIL: gate suite not self-consistent", file=sys.stderr)
        return 1
    if not fastpath["cycles_identical"]:
        print("FAIL: fast core diverged from the event core",
              file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# pytest smoke hook (tier-2): history -> compare on a tiny trajectory
# ----------------------------------------------------------------------

def test_migrated_history_is_gate_comparable_smoke():
    history = migrated_records()
    assert all(record["kind"] in ("gate", "sweep-scaling")
               for record in history)
    # the migrated records baseline themselves cleanly
    report = compare_records(history, history)
    assert report.ok and report.compared_points == 1


if __name__ == "__main__":
    sys.exit(main())

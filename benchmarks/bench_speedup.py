"""Serial-vs-parallel sweep throughput, recorded to
``benchmarks/results/BENCH_speedup.json``.

The same point set runs through :func:`repro.parallel.run_sweep` with
``jobs=1`` and ``jobs=N`` (cache disabled for both), and the record
carries the host's ``cpu_count``.  The script *fails* (exit 1) if any
parallel result diverges from its serial twin — this is the CI
perf-smoke divergence gate.  The fast path's own A/B against the event
core is ``bench_fastpath.py``.

Run directly::

    python benchmarks/bench_speedup.py --trace-length 1200 --jobs 4

The default output is a local, gitignored file.  ``BENCH_pr3.json`` in
the same directory is the committed, frozen record of an earlier run of
this script, which also timed a since-deleted reference core; pass
``--out`` explicitly to write anywhere else.

Under pytest (tier-2 benchmark suite) the module contributes one smoke
test that runs a miniature version of the same flow.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
from typing import Dict, List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.config import DesignPoint  # noqa: E402
from repro.parallel import (SweepPoint, code_fingerprint,  # noqa: E402
                            run_result_to_dict, run_sweep)

DEFAULT_OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results", "BENCH_speedup.json")

#: Designs x workloads of the measured sweep (8 points: enough to keep a
#: small pool busy, small enough for a CI smoke run).
SWEEP_DESIGNS = (DesignPoint.FREECURSIVE, DesignPoint.INDEP_2)
SWEEP_WORKLOADS = ("mcf", "gromacs", "libquantum", "lbm")


def sweep_points(trace_length: int) -> List[SweepPoint]:
    return [SweepPoint(design, workload, trace_length=trace_length)
            for design in SWEEP_DESIGNS
            for workload in SWEEP_WORKLOADS]


def measure_sweep(points: List[SweepPoint], jobs: int) -> Dict[str, object]:
    start = time.perf_counter()
    outcome = run_sweep(points, jobs=jobs, cache=None)
    elapsed = time.perf_counter() - start
    return {
        "jobs": jobs,
        "wall_s": elapsed,
        "results": [run_result_to_dict(entry.result)
                    for entry in outcome.results],
    }


def run_benchmark(trace_length: int, jobs: int,
                  out_path: Optional[str]) -> Dict[str, object]:
    """The full measurement; returns the record written to ``out_path``."""
    points = sweep_points(trace_length)
    serial = measure_sweep(points, jobs=1)
    parallel = measure_sweep(points, jobs=jobs)
    identical = serial["results"] == parallel["results"]

    record = {
        "schema": 2,
        "benchmark": "parallel-sweep",
        "cpu_count": multiprocessing.cpu_count(),
        "trace_length": trace_length,
        "code_fingerprint": code_fingerprint(),
        "sweep": {
            "points": len(points),
            "designs": [design.value for design in SWEEP_DESIGNS],
            "workloads": list(SWEEP_WORKLOADS),
            "serial_wall_s": serial["wall_s"],
            "parallel_wall_s": parallel["wall_s"],
            "parallel_jobs": jobs,
            "speedup": serial["wall_s"] / parallel["wall_s"]
            if parallel["wall_s"] else 0.0,
            "results_identical": identical,
        },
    }
    if out_path:
        os.makedirs(os.path.dirname(os.path.abspath(out_path)),
                    exist_ok=True)
        with open(out_path, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="serial-vs-parallel sweep throughput benchmark")
    parser.add_argument("--trace-length", type=int, default=1200)
    parser.add_argument("--jobs", type=int,
                        default=min(4, max(2, multiprocessing.cpu_count())))
    parser.add_argument("--out", default=DEFAULT_OUT, metavar="FILE",
                        help=f"JSON record path (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)

    record = run_benchmark(args.trace_length, args.jobs, args.out)
    sweep = record["sweep"]
    print(f"cpu_count            {record['cpu_count']}")
    print(f"sweep points         {sweep['points']}")
    print(f"serial wall          {sweep['serial_wall_s']:.2f} s")
    print(f"parallel wall (x{sweep['parallel_jobs']})   "
          f"{sweep['parallel_wall_s']:.2f} s")
    print(f"sweep speedup        {sweep['speedup']:.2f}x")
    print(f"wrote {args.out}")
    if not sweep["results_identical"]:
        print("FAIL: parallel sweep diverged from serial", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# pytest smoke hook (tier-2): tiny version of the same flow
# ----------------------------------------------------------------------

def test_parallel_sweep_matches_serial_smoke():
    points = [SweepPoint(DesignPoint.NONSECURE, "mcf", trace_length=600),
              SweepPoint(DesignPoint.INDEP_2, "mcf", trace_length=600)]
    serial = run_sweep(points, jobs=1)
    parallel = run_sweep(points, jobs=2)
    assert ([run_result_to_dict(e.result) for e in serial.results] ==
            [run_result_to_dict(e.result) for e in parallel.results])


if __name__ == "__main__":
    sys.exit(main())

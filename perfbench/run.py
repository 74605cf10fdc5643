"""Host-time benchmark of the simulate and serving paths.

Run from the repository root::

    python3 perfbench/run.py --workload serve-split --seed 1 --seconds 15 \
        --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced rounds and prints
the per-layer metrics (see ``perfbench/README.md``).  Both modes run the
workload's correctness checks.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: A/B switches read at import: a leftover one benchmarks another core.
REFUSED_ENV = ("REPRO_REFERENCE_CORE", "REPRO_DISABLE_MEMO",
               "REPRO_DISABLE_FASTPATH")
#: interpreter start-ups timed per run; ``setup_s`` is their median
SETUP_PROBES = 9
#: fewest timed rounds behind a median, however long a round takes
MIN_ROUNDS = 3


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _git_commit() -> str:
    """HEAD's commit from ``.git`` when the checkout has one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _host() -> Dict[str, object]:
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "commit": _git_commit()}


def _import_workloads():
    """Import the program and the workload table (exit 2 if absent)."""
    source = os.path.join(ROOT, "src")
    sys.path.insert(0, source)
    sys.path.insert(0, HERE)
    import repro  # fails here, not mid-run, without src/
    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        raise ImportError(f"repro resolves to {repro.__file__}, "
                          f"not the checkout's src/")
    import workloads
    return workloads


def _measure_setup(args: argparse.Namespace) -> float:
    """Median interpreter-start-to-specs-built time over fresh processes."""
    from hostspeed import Calibrator

    calibrator = Calibrator()
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        probe = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe-setup",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if probe.returncode != 0:
            raise RuntimeError(f"setup probe failed: {probe.stderr}")
        ready = float(probe.stdout.strip().splitlines()[-1])
        samples.append(calibrator.scale(ready - started))
    return statistics.median(samples)


class Run:
    """Timed rounds of one workload with digest and failure bookkeeping."""

    def __init__(self, workload):
        self.workload = workload
        self.times: List[List[float]] = [[] for _ in workload.calls]
        self.first: List = []
        self.digests: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def call(self, index: int, wrap=None) -> Optional[float]:
        """One workload call; returns its host seconds (None if it raised)."""
        call = self.workload.calls[index]
        # start from a collected heap: garbage the previous call left is
        # not collected on this call's clock
        gc.collect()
        started = time.perf_counter()
        try:
            outcome = wrap(call.run) if wrap else call.run()
        except Exception:  # a raising call is one failed attempt
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"{call.label} raised")
            return None
        elapsed = time.perf_counter() - started
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        if len(self.first) <= index:
            self.first.append(outcome)
            self.digests.append(outcome.digest)
        elif outcome.digest != self.digests[index]:
            self.failed += 1
            self.problems.append(f"{call.label}: simulated outputs moved "
                                 f"between runs")
        return elapsed

    def round(self, wrap=None, calibrator=None) -> Optional[float]:
        """All calls once; returns the round's host seconds.

        With a calibrator, each call's time scaled to the reference host
        speed is kept for the medians.
        """
        total = 0.0
        for index in range(len(self.workload.calls)):
            elapsed = self.call(index, wrap)
            if elapsed is None:
                return None
            if calibrator is not None:
                self.times[index].append(calibrator.scale(elapsed))
            total += elapsed
        return total

    def median_times(self) -> List[float]:
        return [statistics.median(samples) for samples in self.times]

    def digest(self) -> str:
        from workloads import digest_of

        return digest_of(self.digests)

    def check(self) -> List[str]:
        """The workload's output checks over the first round."""
        if len(self.first) != len(self.workload.calls):
            return []
        attempted, failed, lines = self.workload.check(self.first)
        self.attempted += attempted
        self.failed += failed
        return lines


def _timed(run: Run, seconds: float) -> Dict[str, Dict[str, object]]:
    from hostspeed import Calibrator

    calibrator = Calibrator()
    deadline = time.monotonic() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.monotonic() < deadline:
        if run.round(calibrator=calibrator) is None:
            return {}
        rounds += 1
    medians = run.median_times()
    host_s = sum(medians)
    records = sum(outcome.records for outcome in run.first)
    requests = sum(outcome.requests for outcome in run.first)
    print(f"rounds: {rounds}, median reference-host seconds per round: "
          f"{host_s:.4f}")
    return {"records_per_s": {"value": records / host_s,
                              "unit": "records/s"},
            "req_per_s": {"value": requests / host_s, "unit": "req/s"}}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: List[str]) -> int:
    args = _parse(argv)
    leftover = [name for name in REFUSED_ENV if os.environ.get(name)]
    if leftover:
        print(f"refusing to run with {', '.join(leftover)} set: it selects "
              f"another core at import", file=sys.stderr)
        return 2
    # no ledger writes and no RunCache: every timed call does the work
    os.environ["REPRO_NO_LEDGER"] = "1"
    # one process, one thread: the serving path imports numpy, whose BLAS
    # pool would otherwise spin up a thread per CPU beside the workload
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    try:
        workloads = _import_workloads()
    except ImportError as error:
        print(f"cannot import the program from {ROOT}/src: {error}",
              file=sys.stderr)
        return 2
    factory = workloads.WORKLOADS.get(args.workload)
    if factory is None:
        print(f"unknown workload {args.workload!r}; choose one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = factory(args.seed)
    if args.probe_setup:
        print(time.monotonic())
        return 0

    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    host = _host()
    print("host: " + json.dumps(host, sort_keys=True))
    run = Run(workload)
    if args.trace:
        import traced

        metrics = traced.run_traced(run, args, host)
    else:
        setup_s = _measure_setup(args)
        metrics = _timed(run, args.seconds)
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    for line in run.check():
        print(line)
    if not args.trace:
        metrics["peak_rss_mb"] = {"value": _peak_rss_mb(), "unit": "MiB"}
    for problem in run.problems:
        print(f"FAIL {problem}")
    print(f"digest: {run.digest()}")
    correct = run.failed == 0 and not run.problems and bool(metrics)
    attempted = max(1, run.attempted)
    print(f"error_rate: {run.failed / attempted:.6g} "
          f"({run.failed} failed / {attempted} attempted)")
    for name, metric in sorted(metrics.items()):
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The benchmark's workloads: what one call runs and how it is checked.

Each workload is a list of calls that together make one round.  A call
returns an :class:`Outcome` carrying the work it did (input records,
requests), a digest of its simulated outputs, and its own failure count.
The workload seed reaches the program only as ``run_simulation``'s
``trace_seed`` or the serving spec's ``seed``.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List

#: simulate points: one per timing-tier backend class, (design, channels)
SIM_DESIGNS = (("nonsecure", 1), ("freecursive", 1), ("indep-2", 1),
               ("split-2", 1), ("indep-split", 2))
#: memory-bound (MLP 6) and compute-leaning (MLP 12) personalities
SIM_PROFILES = ("mcf", "gromacs")
#: trace records per simulate point, warm-up (the first third) included
SIM_RECORDS = 2000
#: offered requests per serving call
SERVE_SPLIT_REQUESTS = 400
SHARDED_REQUESTS = 1000
#: serving timelines (seeds) per round, so shedding's dependence on the
#: seed averages out within one run
TIMELINES = 4

#: the paper's Figure 6 slowdown over non-secure DRAM (one channel)
PAPER_SLOWDOWN = {"freecursive": 8.8}
#: the paper's Figure 8 execution time normalized to Freecursive
PAPER_OVER_FREECURSIVE = {"indep-2": 0.68, "split-2": 0.665}


def digest_of(payload) -> str:
    rendered = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(rendered.encode()).hexdigest()


@dataclass
class Outcome:
    """What one workload call produced."""

    records: int
    requests: int
    digest: str
    attempted: int
    failed: int
    detail: object = None


@dataclass
class Call:
    label: str
    run: Callable[[], Outcome]


@dataclass
class Workload:
    name: str
    calls: List[Call]
    #: checks over the timed outcomes (first round, in call order);
    #: returns (attempted, failed, report lines)
    check: Callable[[List[Outcome]], tuple]


# ----------------------------------------------------------------------
# sim-designs
# ----------------------------------------------------------------------

def _simulator() -> Callable:
    """The simulate entry point; importing it is part of set-up."""
    from repro.fastpath import reset_delta_tables
    from repro.sim.system import run_simulation

    def simulate(config, profile: str, trace_seed: int):
        # the delta tables are process-wide: start every point as cold as
        # a fresh ``simulate`` process, so rounds do not warm later ones
        reset_delta_tables()
        return run_simulation(config, profile, trace_length=SIM_RECORDS,
                              trace_seed=trace_seed, on_fault="record")
    return simulate


def _sim_call(simulate, config, profile: str,
              trace_seed: int) -> Callable[[], Outcome]:
    def run() -> Outcome:
        result = simulate(config, profile, trace_seed)
        summary = result.to_dict()
        summary["on_dimm_counters"] = result.on_dimm_counters
        return Outcome(records=SIM_RECORDS, requests=result.miss_count,
                       digest=digest_of(summary), attempted=1,
                       failed=1 if result.failures else 0, detail=result)
    return run


def _geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


def _check_sim(simulate, points) -> Callable[[List[Outcome]], tuple]:
    def check(outcomes: List[Outcome]) -> tuple:
        """No failure records; slowdowns over nonsecure on each trace."""
        from repro.config import DesignPoint, table2_config

        baseline = table2_config(DesignPoint.NONSECURE, 1)
        lines = []
        failed = 0
        slowdowns: Dict[str, Dict[str, float]] = {}
        for (design, profile, trace_seed), outcome in zip(points, outcomes):
            result = outcome.detail
            if result.failures:
                failed += 1
                lines.append(f"FAIL {design}/{profile}: failure records "
                             f"{result.failures}")
            if design == "nonsecure":
                continue
            reference = simulate(baseline, profile, trace_seed)
            slowdowns.setdefault(design, {})[profile] = (
                result.execution_cycles / reference.execution_cycles)
        for design, per_profile in slowdowns.items():
            line = (f"slowdown {design} over 1-channel nonsecure: "
                    f"{_geomean(list(per_profile.values())):.2f}x "
                    f"(geomean of {len(per_profile)} profiles, "
                    f"{SIM_RECORDS} records each, not the paper's "
                    f"ten-profile mean)")
            if design in PAPER_SLOWDOWN:
                line += f"; paper Figure 6: {PAPER_SLOWDOWN[design]}x"
            if design in PAPER_OVER_FREECURSIVE:
                relative = _geomean([per_profile[p] /
                                     slowdowns["freecursive"][p]
                                     for p in per_profile])
                line += (f"; {relative:.3f} of Freecursive, paper Figure "
                         f"8: {PAPER_OVER_FREECURSIVE[design]}")
            if design == "indep-split":
                line += ("; the paper has no 1-channel baseline for this "
                         "2-channel point")
            lines.append(line)
        return len(outcomes), failed, lines
    return check


def sim_designs(seed: int) -> Workload:
    from repro.config import DesignPoint, table2_config

    simulate = _simulator()
    calls = []
    points = []
    for design, channels in SIM_DESIGNS:
        config = table2_config(DesignPoint(design), channels)
        for profile in SIM_PROFILES:
            # a trace of its own per point: the trace generator's hot-set
            # placement moves a point's work by up to ±8% between seeds,
            # and ten independent draws average that out within one run
            trace_seed = seed * 100 + len(points)
            points.append((design, profile, trace_seed))
            calls.append(Call(f"{design}.{profile}",
                              _sim_call(simulate, config, profile,
                                        trace_seed)))
    return Workload("sim-designs", calls, _check_sim(simulate, points))


# ----------------------------------------------------------------------
# serving workloads: one call per timeline, TIMELINES timelines a round
# ----------------------------------------------------------------------

def timeline_seeds(seed: int) -> List[int]:
    """The serving specs' seeds: TIMELINES distinct ones per ``--seed``."""
    return [seed * TIMELINES + index for index in range(TIMELINES)]


def serve_split_spec(seed: int):
    from repro.serve.bench import ServeSpec

    return ServeSpec(design="split", rate=0.008, write_fraction=0.25,
                     zipf_exponent=0.0, tenants=1, batch=8, capacity=32,
                     levels=9, requests=SERVE_SPLIT_REQUESTS, seed=seed)


def sharded_spec(seed: int):
    from repro.serve.shard import ShardSpec

    return ShardSpec(design="independent", shards=4, subtrees=16,
                     tenants=2, zipf_exponent=0.99, write_fraction=0.5,
                     adapt=True, rate=0.5, requests=SHARDED_REQUESTS,
                     seed=seed)


def _serve_outcome(report: Dict[str, object], attempted: int,
                   failed: int) -> Outcome:
    from repro.serve.slo import canonical_json

    offered = report["totals"]["offered"]
    return Outcome(records=offered, requests=offered,
                   digest=hashlib.sha256(
                       canonical_json(report).encode()).hexdigest(),
                   attempted=attempted, failed=failed, detail=report)


def _check_read_after_write(spec, timed: Outcome) -> tuple:
    """Every read returns the last admitted write to its address."""
    from repro.oram.path_oram import Op
    from repro.serve.bench import generate_requests, run_serve

    report = run_serve(spec, keep_read_bytes=True)
    read_bytes = report.pop("_read_bytes")
    lines = []
    failed = 0
    if _serve_outcome(report, 0, 0).digest != timed.digest:
        failed += 1
        lines.append(f"FAIL seed {spec.seed}: keep_read_bytes run differs "
                     f"from the timed runs")
    shed = {(record["tenant"], record["sequence"])
            for record in report["shed_records"]}
    shadow: Dict[int, bytes] = {}
    zero = bytes(spec.block_bytes)
    reads = wrong = 0
    for request in generate_requests(spec):
        key = (request.tenant, request.sequence)
        if key in shed:
            continue
        if request.op is Op.WRITE:
            shadow[request.address] = request.data
            continue
        reads += 1
        got = read_bytes.get(f"{key[0]}:{key[1]}")
        if got is None or bytes.fromhex(got) != shadow.get(request.address,
                                                           zero):
            wrong += 1
    lines.append(f"check seed {spec.seed} read-after-write: "
                 f"{reads - wrong} of {reads} reads returned the last "
                 f"admitted write")
    return report["totals"]["offered"], failed + wrong, lines


def serve_split(seed: int) -> Workload:
    from repro.serve.bench import run_serve

    specs = [serve_split_spec(value) for value in timeline_seeds(seed)]

    def call(spec) -> Call:
        return Call(f"serve-split.seed{spec.seed}", lambda: _serve_outcome(
            run_serve(spec), attempted=spec.requests, failed=0))

    def check(outcomes: List[Outcome]) -> tuple:
        results = [_check_read_after_write(spec, outcome)
                   for spec, outcome in zip(specs, outcomes)]
        return (sum(result[0] for result in results),
                sum(result[1] for result in results),
                [line for result in results for line in result[2]])
    return Workload("serve-split", [call(spec) for spec in specs], check)


def sharded_balanced(report: Dict[str, object]) -> bool:
    totals = report["totals"]
    return (totals["offered"] == totals["completed"] + totals["shed"]
            and report["queue"]["depth_bounded"])


def _check_sharded_totals(spec, report: Dict[str, object]) -> tuple:
    """offered = completed + shed, per tenant and in aggregate."""
    from repro.serve.bench import generate_requests

    offered = Counter(request.tenant for request
                      in generate_requests(spec.base_spec()))
    shed = Counter(record["tenant"] for shard in report["shards"]
                   for record in shard["shed_records"])
    completed = {tenant: ladder["count"] for tenant, ladder
                 in report["sojourn"]["per_tenant"].items()}
    lines = []
    failed = 0
    for tenant in sorted(set(offered) | set(completed) | set(shed)):
        ok = offered[tenant] == completed.get(tenant, 0) + shed[tenant]
        failed += 0 if ok else 1
        lines.append(f"check seed {spec.seed} tenant {tenant}: offered "
                     f"{offered[tenant]} = completed "
                     f"{completed.get(tenant, 0)} + shed {shed[tenant]}: "
                     f"{'ok' if ok else 'FAIL'}")
    totals = report["totals"]
    lines.append(f"check seed {spec.seed} aggregate: offered "
                 f"{totals['offered']} = completed {totals['completed']} + "
                 f"shed {totals['shed']}, peak depth "
                 f"{report['queue']['peak_depth']} <= capacity "
                 f"{report['queue']['capacity']}: "
                 f"{'ok' if sharded_balanced(report) else 'FAIL'}")
    return len(offered), failed, lines


def serve_sharded_skew(seed: int) -> Workload:
    from repro.serve.router import run_sharded

    specs = [sharded_spec(value) for value in timeline_seeds(seed)]

    def call(spec) -> Call:
        def run() -> Outcome:
            report = run_sharded(spec, jobs=1, cache=None)
            return _serve_outcome(
                report, attempted=1,
                failed=0 if sharded_balanced(report) else 1)
        return Call(f"serve-sharded-skew.seed{spec.seed}", run)

    def check(outcomes: List[Outcome]) -> tuple:
        results = [_check_sharded_totals(spec, outcome.detail)
                   for spec, outcome in zip(specs, outcomes)]
        return (sum(result[0] for result in results),
                sum(result[1] for result in results),
                [line for result in results for line in result[2]])
    return Workload("serve-sharded-skew", [call(spec) for spec in specs],
                    check)


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    "sim-designs": sim_designs,
    "serve-split": serve_split,
    "serve-sharded-skew": serve_sharded_skew,
}

"""The traced run: per-layer metrics, bypass assertions, span output.

Untraced and traced rounds alternate until ``--seconds`` have passed (at
least one of each).  Untraced rounds give the per-point host times and
the overhead baseline; traced rounds run the same calls with every
entry point in :data:`tracing.ENTRY_POINTS` patched.  Per-layer self
times come from the traced round with the median wall time, so they sum
to that round's traced wall time exactly.  Counts must repeat exactly
across traced rounds.  The first traced round's spans are written to
``perfbench/out/spans-<workload>.csv.gz`` with a JSON summary beside it.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import time
from typing import Dict, List, Set

from hostspeed import Calibrator
from tracing import ENTRY_POINTS, LAYERS, SpanTracer, nearest_rank
from workloads import SIM_DESIGNS, SIM_PROFILES

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

_SIM_LAYERS = {"fastpath", "sim.backends", "sim.events", "sim.bus", "dram",
               "cache", "workloads", "sim.cpu"}
_SERVE_LAYERS = {"crypto", "core", "oram", "serve.scheduler",
                 "serve.router", "serve.loadgen", "control"}

#: Layers whose entry points must record no call at all: the simulate
#: path never reaches the functional protocols, and the serving path
#: never reaches the timing tier.
SILENT_LAYERS: Dict[str, Set[str]] = {
    "sim-designs": _SERVE_LAYERS,
    "serve-split": _SIM_LAYERS | {"serve.router", "control"},
    "serve-sharded-skew": _SIM_LAYERS,
}

#: Entry points (``module.qualname``) each workload must exercise.
MUST_FIRE: Dict[str, Set[str]] = {
    "sim-designs": {
        "repro.fastpath.engine.stamp_pass",
        "repro.fastpath.access.AccessFastPath.try_access",
        "repro.sim.backends.NonSecureBackend.submit",
        "repro.sim.backends.FreecursiveBackend.submit",
        "repro.sim.backends.IndependentBackend.submit",
        "repro.sim.backends.SplitBackend.submit",
        "repro.sim.backends.IndepSplitBackend.submit",
        "repro.sim.events.EventQueue.at",
        "repro.sim.events.EventQueue.call_at",
        "repro.sim.bus.LinkBus.reserve_block",
        "repro.sim.bus.LinkBus.reserve_lines",
        "repro.dram.channel.Channel.schedule_access",
        "repro.cache.cache.SetAssociativeCache.access",
        "repro.workloads.synthetic.iterate_trace",
        "repro.sim.cpu.SimulationDriver.run",
    },
    "serve-split": {
        "repro.crypto.ctr.CounterModeCipher.pad",
        "repro.crypto.ctr.CounterModeCipher.encrypt",
        "repro.crypto.prf.Prf.evaluate",
        "repro.core.split.SplitProtocol.access",
        "repro.serve.scheduler.BatchingScheduler.run",
        "repro.serve.bench.generate_requests",
    },
    "serve-sharded-skew": {
        "repro.crypto.ctr.CounterModeCipher.pad",
        "repro.crypto.ctr.CounterModeCipher.encrypt",
        "repro.crypto.prf.Prf.evaluate",
        "repro.crypto.mac.PmmacAuthenticator.tag",
        "repro.crypto.mac.PmmacAuthenticator.verify",
        "repro.core.independent.IndependentProtocol.access",
        "repro.oram.path_oram.PathOram.read_path_into_stash",
        "repro.oram.path_oram.PathOram.write_path_from_stash",
        "repro.oram.integrity.EncryptedBucketStore.read",
        "repro.oram.integrity.EncryptedBucketStore.write",
        "repro.oram.stash.Stash.plan_eviction",
        "repro.serve.scheduler.BatchingScheduler.run",
        "repro.serve.shard.route_requests",
        "repro.serve.router.fold_shard_reports",
        "repro.serve.shard.model_migrations",
        "repro.serve.bench.generate_requests",
        "repro.control.plane.ServeControlPlane.flush_until",
        "repro.control.plane.ServeControlPlane.flush_final",
    },
}

#: (metric, unit) of every per-layer metric, in report order.
PER_LAYER = [(f"{layer}.self_s", "s") for layer in LAYERS] + [
    ("crypto.pad.calls", "count"),
    ("crypto.pad_cache_hit_ratio", "ratio"),
    ("crypto.prf.blocks_per_req", "blocks/req"),
    ("crypto.mac.calls", "count"),
    ("core.access.calls", "count"),
    ("core.access_ms_p50", "ms"),
    ("core.access_ms_p99", "ms"),
    ("core.link_events_per_access", "events/access"),
    ("oram.bucket_reads", "count"),
    ("oram.bucket_writes", "count"),
    ("oram.evictions", "count"),
    ("serve.scheduler.batches", "count"),
    ("serve.scheduler.coalesced_ratio", "ratio"),
    ("serve.scheduler.shed_ratio", "ratio"),
    ("serve.loadgen.calls", "count"),
    ("control.decisions", "count"),
    ("fastpath.stamp_pass.calls", "count"),
    ("fastpath.eligible_ratio", "ratio"),
    ("fastpath.table_hit_ratio", "ratio"),
    ("sim.backends.submit.calls", "count"),
    ("sim.events.calls", "count"),
    ("sim.bus.reserve.calls", "count"),
    ("dram.schedule.calls", "count"),
    ("dram.row_hit_ratio", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
] + [(f"sim.point.{design}.{profile}.{kind}", unit)
     for design, _ in SIM_DESIGNS for profile in SIM_PROFILES
     for kind, unit in (("host_s", "s"), ("records_per_s", "records/s"))]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _row_hit_ratio(outcomes) -> float:
    hits = accesses = 0
    for outcome in outcomes:
        for counters in getattr(outcome.detail, "channel_counters", ()):
            hits += counters["row_hits"]
            accesses += (counters["row_hits"] + counters["row_misses"] +
                         counters["row_conflicts"])
    return _ratio(hits, accesses)


def _layer_metrics(trace, outcomes, run) -> Dict[str, float]:
    calls = trace.span_calls
    counts = trace.counts
    fastpath = trace.fastpath
    requests = sum(outcome.requests for outcome in outcomes)
    values = {f"{layer}.self_s": trace.layer_self_s[layer]
              for layer in LAYERS}
    core_calls = calls.get("core.access", 0)
    values.update({
        "crypto.pad.calls": calls.get("crypto.pad", 0),
        "crypto.pad_cache_hit_ratio": (
            1.0 - _ratio(counts.get("crypto.pad.prf_evaluations", 0),
                         calls.get("crypto.pad", 0))
            if calls.get("crypto.pad") else 0.0),
        "crypto.prf.blocks_per_req": _ratio(
            counts.get("crypto.prf.blocks", 0), requests),
        "crypto.mac.calls": counts.get("crypto.mac.calls", 0),
        "core.access.calls": core_calls,
        "core.access_ms_p50": nearest_rank(trace.core_access_ms, 0.50),
        "core.access_ms_p99": nearest_rank(trace.core_access_ms, 0.99),
        "core.link_events_per_access": _ratio(
            counts.get("core.link_events", 0), core_calls),
        "oram.bucket_reads": calls.get("oram.bucket_read", 0),
        "oram.bucket_writes": calls.get("oram.bucket_write", 0),
        "oram.evictions": calls.get("oram.eviction", 0),
        "serve.scheduler.batches": counts.get("serve.scheduler.batches", 0),
        "serve.scheduler.coalesced_ratio": _ratio(
            counts.get("serve.scheduler.coalesced", 0),
            counts.get("serve.scheduler.admitted", 0)),
        "serve.scheduler.shed_ratio": _ratio(
            counts.get("serve.scheduler.shed", 0),
            counts.get("serve.scheduler.offered", 0)),
        "serve.loadgen.calls": calls.get("serve.loadgen", 0),
        "control.decisions": counts.get("control.decisions", 0),
        "fastpath.stamp_pass.calls": calls.get("fastpath.stamp_pass", 0),
        "fastpath.eligible_ratio": _ratio(fastpath["fast"],
                                          fastpath["attempts"]),
        "fastpath.table_hit_ratio": _ratio(fastpath["delta_hits"],
                                           fastpath["fast"]),
        "sim.backends.submit.calls": calls.get("sim.backends.submit", 0),
        "sim.events.calls": calls.get("sim.events", 0),
        "sim.bus.reserve.calls": calls.get("sim.bus.reserve", 0),
        "dram.schedule.calls": calls.get("dram.schedule", 0),
        "dram.row_hit_ratio": _row_hit_ratio(outcomes),
        "cache.hit_ratio": _ratio(counts.get("cache.hits", 0),
                                  calls.get("cache.access", 0)),
    })
    if run.workload.name == "sim-designs":
        medians = run.median_times()
        for index, call in enumerate(run.workload.calls):
            values[f"sim.point.{call.label}.host_s"] = medians[index]
            values[f"sim.point.{call.label}.records_per_s"] = (
                outcomes[index].records / medians[index])
    return values


def _bypass_problems(workload: str, trace) -> List[str]:
    problems = []
    fired = trace.entry_calls
    layer_of = {f"{module}.{qualname}": layer
                for module, qualname, _, layer in ENTRY_POINTS}
    for name in sorted(MUST_FIRE[workload]):
        if not fired.get(name):
            problems.append(f"bypass: {name} never fired on {workload}")
    for name, calls in sorted(fired.items()):
        if layer_of.get(name) in SILENT_LAYERS[workload]:
            problems.append(f"bypass: {name} fired {calls} times on "
                            f"{workload}, predicted 0")
    return problems


def _write_out(workload: str, tracer: SpanTracer,
               summary: Dict[str, object]) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{workload}.csv.gz")
    tracer.write_spans(spans)
    with open(os.path.join(OUT_DIR, f"summary-{workload}.json"),
              "w") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
    return spans


def run_traced(run, args, host: Dict[str, object]
               ) -> Dict[str, Dict[str, object]]:
    """Alternate untraced/traced rounds; returns the per-layer metrics."""
    tracer = SpanTracer()
    deadline = time.monotonic() + args.seconds
    untraced: List[float] = []
    traced = []
    run_ids = itertools.count(1)

    def rooted(fn):
        return tracer.root(next(run_ids), fn)

    spans_path = None
    while not traced or time.monotonic() < deadline:
        wall = run.round(calibrator=Calibrator())
        if wall is None:
            return {}
        tracer.reset()
        try:
            tracer.install()
            traced_wall = run.round(wrap=rooted)
        finally:
            tracer.uninstall()
        if traced_wall is None:
            return {}
        trace = tracer.fold()
        if traced and (trace.span_calls != traced[0].span_calls or
                       trace.counts != traced[0].counts or
                       trace.fastpath != traced[0].fastpath):
            run.problems.append("traced counts differ between rounds")
        untraced.append(wall)
        traced.append(trace)
        if spans_path is None:
            spans_path = _write_out(run.workload.name, tracer,
                                    {"host": host, "seed": args.seed,
                                     "entry_calls": trace.entry_calls,
                                     "counts": trace.counts,
                                     "spans": trace.spans})
        tracer.reset()

    run.problems.extend(_bypass_problems(run.workload.name, traced[0]))
    walls = sorted(traced, key=lambda item: item.wall_s)
    chosen = walls[(len(walls) - 1) // 2]
    values = _layer_metrics(chosen, run.first, run)
    values["trace.wall_s"] = chosen.wall_s
    values["trace.untraced_wall_s"] = statistics.median(untraced)
    values["trace.overhead_ratio"] = (chosen.wall_s /
                                      values["trace.untraced_wall_s"])
    self_total = sum(chosen.layer_self_s.values())
    print(f"traced rounds: {len(traced)}, spans per round: {chosen.spans}, "
          f"written to {os.path.relpath(spans_path)}")
    print(f"self-time closure: sum of layer self_s {self_total:.6f} s, "
          f"traced wall {chosen.wall_s:.6f} s")
    if abs(self_total - chosen.wall_s) > 1e-6 * max(1.0, chosen.wall_s):
        run.problems.append("layer self times do not sum to traced wall")
    for layer in LAYERS:
        share = _ratio(chosen.layer_self_s[layer], chosen.wall_s)
        print(f"layer {layer:16s} self {chosen.layer_self_s[layer]:9.4f} s "
              f"({share:6.1%} of traced wall)")
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in PER_LAYER}

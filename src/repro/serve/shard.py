"""Sharding the serving tier over leaf-MSB subtrees (docs/serving.md).

The Independent protocol already partitions its ORAM tree across SDIMMs
by the most significant bits of the leaf ID
(:meth:`repro.core.independent.IndependentBuffer.owner_of`), and Path
ORAM's per-subtree independence makes that split correct without
cross-shard coordination on the access path.  The serving tier reuses
exactly that key one layer up:

* the global leaf space is cut into ``subtrees`` equal leaf-MSB slices
  (``subtree_of`` is ``owner_of`` with more bits);
* a **consistent-hash ring** (:class:`ShardPlan`) maps each subtree to
  one of ``shards`` persistent worker processes, so growing the shard
  count moves only the subtrees that rehash — not the whole space;
* each shard is the single-server serving core
  (:func:`~repro.serve.bench.serve_timeline`) run over its routed slice:
  its own protocol instance and its own bounded
  :class:`~repro.serve.scheduler.BatchingScheduler`, so overload on a
  shard sheds structured ``AdmissionRejected`` records exactly like the
  single-server tier — never unbounded buffering;
* cross-shard block migration — a served block remapping to a leaf
  another shard owns — is modeled by the paper's transfer-queue random
  walk (:class:`~repro.core.transfer_queue.TransferQueue`, Section
  IV-C), with the Figure 13 analytic curves as cross-checks.

Everything here is a pure function of the picklable :class:`ShardSpec`:
workers re-derive the full timeline and routing from the spec alone,
which is what makes the sharded reports byte-identical for any
``--jobs`` value, across warm and cold pools, and across cached replays.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.serve.bench import (ServeSpec, build_serving_protocol,
                               generate_requests, serve_timeline)
from repro.serve.loadgen import Request
from repro.serve.slo import offered_utilization

#: Designs whose protocol exposes the ``quarantine`` resilience seam.
_QUARANTINABLE = ("independent", "indep-split")


def _is_power_of_two(value: int) -> bool:
    return value >= 1 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class ShardSpec(ServeSpec):
    """One sharded serving point (picklable, canonical, cache-keyable).

    The single-server :class:`~repro.serve.bench.ServeSpec` — its fields
    and their validation — plus the shard-tier knobs: how many worker
    shards, how many leaf-MSB subtrees the ring distributes, the
    migration queue, and which shards (if any) are quarantined for a
    degraded-mode run.  ``capacity`` is per shard, and ``adapt`` closes
    the loop per shard plus a drain controller per migration queue.
    """

    design: str = "independent"
    #: worker shard count (power of two)
    shards: int = 2
    #: leaf-MSB subtrees on the hash ring (power of two, >= shards)
    subtrees: int = 16
    #: virtual ring nodes per shard (evens out the consistent hash)
    virtual_nodes: int = 8
    #: cross-shard migration transfer-queue capacity K (Section IV-C)
    migration_capacity: int = 64
    #: per-arrival drain-lottery probability p of the migration queue
    migration_drain: float = 0.05
    #: shards whose whole protocol is quarantined (degraded mode)
    quarantined: Tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not _is_power_of_two(self.shards):
            raise ValueError("shard count must be a power of two")
        if not _is_power_of_two(self.subtrees):
            raise ValueError("subtree count must be a power of two")
        if self.subtrees < self.shards:
            raise ValueError("need at least one subtree per shard")
        if self.subtrees > self.address_limit:
            raise ValueError("more subtrees than leaves: "
                             f"{self.subtrees} > {self.address_limit}")
        if self.virtual_nodes < 1:
            raise ValueError("need at least one virtual node per shard")
        if self.migration_capacity < 1:
            raise ValueError("migration queue needs capacity >= 1")
        if not 0.0 <= self.migration_drain <= 1.0:
            raise ValueError("migration drain must be a probability")
        quarantined = tuple(sorted(set(int(s) for s in self.quarantined)))
        object.__setattr__(self, "quarantined", quarantined)
        for shard in quarantined:
            if not 0 <= shard < self.shards:
                raise ValueError(f"quarantined shard {shard} out of range")
        if quarantined and self.design not in _QUARANTINABLE:
            raise ValueError(
                f"design {self.design!r} has no quarantine seam; "
                f"choose one of {_QUARANTINABLE}")

    def base_spec(self) -> ServeSpec:
        """The spec's single-server fields as a plain ServeSpec."""
        return ServeSpec(**{key: getattr(self, key)
                            for key in ServeSpec.__dataclass_fields__})


class ShardPlan:
    """The deterministic consistent-hash ring over leaf-MSB subtrees.

    Each shard contributes ``virtual_nodes`` ring points; a subtree maps
    to the first ring point clockwise of its own hash.  The ring is a
    pure function of (shards, virtual_nodes), so every process — router,
    worker, auditor — derives the identical assignment with no shared
    state, and adding a shard remaps only the subtrees whose arcs the
    new ring points claim.
    """

    def __init__(self, shards: int, subtrees: int, levels: int,
                 virtual_nodes: int):
        subtree_bits = subtrees.bit_length() - 1
        leaf_bits = levels - 1
        if subtree_bits > leaf_bits:
            raise ValueError("more subtrees than leaves")
        self.shards = shards
        self.subtrees = subtrees
        self.subtree_bits = subtree_bits
        #: right-shift turning an address (== its leaf) into its subtree
        self._shift = leaf_bits - subtree_bits
        points: List[Tuple[int, int]] = []
        for shard in range(shards):
            for node in range(virtual_nodes):
                points.append((self._hash(f"shard:{shard}/node:{node}"),
                               shard))
        points.sort()
        self._ring_keys = [key for key, _ in points]
        self._ring_shards = [shard for _, shard in points]
        self._subtree_shard = [self._ring_lookup(f"subtree:{index}")
                               for index in range(subtrees)]

    @classmethod
    def from_spec(cls, spec: ShardSpec) -> "ShardPlan":
        return cls(spec.shards, spec.subtrees, spec.levels,
                   spec.virtual_nodes)

    @staticmethod
    def _hash(label: str) -> int:
        return int.from_bytes(hashlib.sha256(label.encode()).digest()[:8],
                              "big")

    def _ring_lookup(self, label: str) -> int:
        index = bisect_right(self._ring_keys, self._hash(label))
        return self._ring_shards[index % len(self._ring_shards)]

    def subtree_of(self, address: int) -> int:
        """The leaf-MSB subtree of an address — ``owner_of`` writ small.

        The serving tier maps addresses one-to-one onto leaves
        (``ServeSpec.address_limit`` is one block per leaf), so the top
        ``subtree_bits`` of the address are the top bits of its leaf.
        """
        return address >> self._shift

    def shard_of_subtree(self, subtree: int) -> int:
        return self._subtree_shard[subtree]

    def shard_of_address(self, address: int) -> int:
        return self._subtree_shard[self.subtree_of(address)]

    def assignments(self) -> Dict[str, int]:
        """subtree -> shard, JSON-keyed (the report's routing table)."""
        return {str(index): shard
                for index, shard in enumerate(self._subtree_shard)}

    def shares(self) -> List[float]:
        """Fraction of the leaf space each shard owns."""
        counts = [0] * self.shards
        for shard in self._subtree_shard:
            counts[shard] += 1
        return [count / self.subtrees for count in counts]


def build_plan(spec: ShardSpec) -> ShardPlan:
    """The spec's routing plan (a pure function of the spec)."""
    return ShardPlan.from_spec(spec)


def route_requests(spec: ShardSpec,
                   plan: Optional[ShardPlan] = None
                   ) -> List[Tuple[int, Request]]:
    """The full timeline with each request's owning shard, arrival order.

    Pure function of the spec: router, workers and audits all call this
    and agree on the routing without communicating.
    """
    if plan is None:
        plan = build_plan(spec)
    timeline = generate_requests(spec)
    return [(plan.shard_of_address(request.address), request)
            for request in timeline]


# ----------------------------------------------------------------------
# The per-shard worker
# ----------------------------------------------------------------------

def run_shard(spec: ShardSpec, shard: int) -> Dict[str, object]:
    """Serve one shard's slice of the timeline; returns a payload dict.

    This is the single-server core
    (:func:`~repro.serve.bench.serve_timeline`) run over the shard's
    routed sub-timeline.  Its only extras are quarantine, a per-shard
    ``MetricsRegistry`` and the offered rate scaled by the shard's share
    of the timeline.  The payload carries the canonical per-shard report
    plus the raw material the router folds: the unrounded offered
    utilization, the sojourn samples (aggregate and per tenant) and the
    registry dump.  Everything is re-derived from the spec — no parent
    state crosses the process boundary, which is the determinism
    argument for the pool fan-out.
    """
    if not 0 <= shard < spec.shards:
        raise ValueError(f"shard {shard} out of range")
    routed = route_requests(spec)
    mine = [request for owner, request in routed if owner == shard]
    protocol = build_serving_protocol(spec, shard)
    if shard in spec.quarantined:
        # a whole-shard outage: every site of this shard's protocol is
        # quarantined, so each access runs the degraded (link-shape
        # preserving, zero-data) path and is counted honestly
        for site in range(spec.sites):
            protocol.quarantine(site)
    metrics = MetricsRegistry()
    metrics.gauge("shard/id").set(shard)
    metrics.counter("shard/routed").inc(len(mine))
    share = len(mine) / len(routed) if routed else 0.0
    offered_rate = spec.rate * share
    report, outcome = serve_timeline(spec, mine, protocol=protocol,
                                     metrics=metrics,
                                     offered_rate=offered_rate)
    report["spec"]["shard"] = shard
    report["degraded"] = {
        "quarantined": shard in spec.quarantined,
        "degraded_accesses": int(getattr(protocol, "degraded_accesses", 0)),
        "lost_appends": int(getattr(protocol, "lost_appends", 0)),
    }
    return {
        "report": report,
        # the report rounds rho; the router folds the exact value
        "rho_offered": offered_utilization(offered_rate, outcome),
        "sojourn_samples": list(outcome.sojourn.samples),
        "tenant_samples": {tenant: list(stats.samples)
                           for tenant, stats
                           in sorted(outcome.per_tenant.items())},
        "metrics": metrics.as_dict(),
    }


# ----------------------------------------------------------------------
# Cross-shard migration: the Section IV-C random walk, one tier up
# ----------------------------------------------------------------------

def model_migrations(spec: ShardSpec, plan: ShardPlan,
                     routed: List[Tuple[int, Request]]) -> Dict[str, object]:
    """Replay the transfer-queue random walk over the routed timeline.

    Every served request remaps its block to a fresh uniform leaf (the
    Path ORAM invariant); when the fresh leaf's subtree hashes to a
    different shard, the block crosses shards exactly like an APPEND
    crosses SDIMMs in the paper: the departure vacancy-services the
    source's queue, the arrival joins the destination's bounded
    :class:`~repro.core.transfer_queue.TransferQueue` and may trigger
    its drain lottery.  Overflows are recorded, never raised — the
    serving tier reports pressure instead of crashing on it.

    The ``model`` sub-section carries the Figure 13 cross-checks: the
    M/M/1/K overflow probability at the configured (p, K) *and* at the
    measured busy-server utilization
    (:meth:`~repro.core.transfer_queue.TransferQueue.measured_utilization`)
    — the configured rho lies once a controller makes *p* time-varying,
    so the measured estimator is the comparison of record — plus the
    undrained first-passage probability, what the walk would have done
    with no drain at all.

    With ``spec.adapt`` a :class:`~repro.control.drain.DrainController`
    per shard re-plans its queue's *p* at every tick-window boundary
    toward the overflow budget the open-loop configuration implies; the
    decisions ride in the returned ``control`` sub-section.
    """
    from repro.analysis.queueing import (mm1k_full_probability,
                                         transfer_queue_overflow_probability)
    from repro.analysis.random_walk import first_passage_overflow_probability
    from repro.control.drain import DrainController
    from repro.core.transfer_queue import (TransferQueue,
                                           TransferQueueOverflow)
    from repro.oram.bucket import Block
    from repro.utils.rng import DeterministicRng

    remap = DeterministicRng(spec.seed, "serve-sharded/migration")
    queues = [TransferQueue(spec.migration_capacity, spec.migration_drain,
                            DeterministicRng(spec.seed,
                                             f"serve-sharded/queue/{index}"))
              for index in range(spec.shards)]
    controllers = decisions = None
    window_ticks = 0
    if spec.adapt:
        # the adaptive set-point keeps the budget the open-loop config
        # implied; only the measured arrival fraction is tracked
        budget = transfer_queue_overflow_probability(
            spec.migration_drain, spec.migration_capacity)
        controllers = [
            DrainController(spec.migration_capacity, spec.migration_drain,
                            overflow_budget=max(budget, 1e-12),
                            name=f"drain/{index}")
            for index in range(spec.shards)
        ]
        decisions = []
        window_ticks = spec.effective_window_ticks
    shares = plan.shares()
    migrations = 0
    expected = 0.0
    offered = 0
    next_window = 1
    for shard, request in routed:
        if controllers is not None:
            while next_window * window_ticks <= request.arrival:
                for index, controller in enumerate(controllers):
                    decision = controller.plan(
                        next_window - 1, next_window * window_ticks,
                        queues[index].arrivals, offered)
                    decisions.append(decision)
                    if decision.applied:
                        queues[index].set_drain_probability(
                            decision.after["p"])
                next_window += 1
        offered += 1
        expected += 1.0 - shares[shard]
        fresh = remap.randrange(spec.address_limit)
        destination = plan.shard_of_address(fresh)
        if destination == shard:
            continue
        migrations += 1
        # the departing block frees a slot at the source: a queued
        # in-flight block fills the vacancy for free (Section IV-C)
        queues[shard].service(via_drain=False)
        try:
            drain = queues[destination].push(
                Block(request.address, fresh, b""))
        except TransferQueueOverflow:
            continue  # counted by the queue's own overflow statistics
        if drain:
            queues[destination].service(via_drain=True)
    accesses = len(routed)
    overflows = sum(queue.overflows for queue in queues)
    arrivals = sum(queue.arrivals for queue in queues)
    taken = sum(queue.vacancy_services + queue.drain_services
                for queue in queues)
    opportunities = sum(queue.service_opportunities for queue in queues)
    measured_rho = taken / opportunities if opportunities else None
    payload = {
        "capacity": spec.migration_capacity,
        "drain_probability": round(spec.migration_drain, 9),
        "accesses": accesses,
        "migrations": migrations,
        "migration_fraction": round(migrations / accesses, 9)
        if accesses else 0.0,
        "expected_migration_fraction": round(expected / accesses, 9)
        if accesses else 0.0,
        "overflows": overflows,
        "overflow_rate": round(overflows / arrivals, 9) if arrivals else 0.0,
        "measured_utilization": (round(measured_rho, 9)
                                 if measured_rho is not None else None),
        "per_shard": {
            str(index): dict(
                queue.counters_dict(),
                measured_utilization=(
                    round(queue.measured_utilization(), 9)
                    if queue.measured_utilization() is not None else None),
                drain_probability=round(queue.drain_probability, 9),
            )
            for index, queue in enumerate(queues)
        },
        "model": {
            "mm1k_overflow_probability": round(
                transfer_queue_overflow_probability(
                    spec.migration_drain, spec.migration_capacity), 15),
            # the comparison of record: predicted overflow at the
            # *measured* utilization, honest under time-varying p
            "mm1k_overflow_at_measured": round(
                mm1k_full_probability(measured_rho,
                                      spec.migration_capacity), 15)
            if measured_rho is not None else None,
            "undrained_first_passage": round(
                first_passage_overflow_probability(
                    spec.migration_capacity, max(1, migrations)), 15),
        },
    }
    if controllers is not None:
        payload["control"] = {
            "window_ticks": window_ticks,
            "decisions": [decision.to_dict() for decision in decisions],
            "applied": sum(1 for decision in decisions if decision.applied),
            "final": {str(index): round(queue.drain_probability, 9)
                      for index, queue in enumerate(queues)},
        }
    return payload

"""Span tracing around each layer's public entry points, from outside.

The tracer patches the functions and methods listed in
:data:`ENTRY_POINTS` for the duration of a traced round and restores the
originals afterwards; the program itself is never edited.  Every call
through a patched entry point records one span (entry point, start, end,
parent span, run id) into flat in-memory arrays, and a few entry points
also record counts taken at the same boundary (PRF blocks, link events,
scheduler outcomes, cache hits).  A layer's self time is the duration of
its spans minus the part covered by their child spans, so the self times
of all layers plus the benchmark's own root spans sum to the traced wall
time exactly.
"""

from __future__ import annotations

import gzip
import importlib
import math
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (module, qualified name, span name, layer) of every wrapped entry point.
#: A function is patched everywhere a ``repro`` module binds it by name,
#: so ``from ... import stamp_pass`` copies are traced too.
ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.crypto.ctr", "CounterModeCipher.pad", "crypto.pad", "crypto"),
    ("repro.crypto.ctr", "CounterModeCipher.encrypt", "crypto.encrypt",
     "crypto"),
    ("repro.crypto.prf", "Prf.evaluate", "crypto.prf", "crypto"),
    ("repro.crypto.mac", "MacEngine.tag", "crypto.mac", "crypto"),
    ("repro.crypto.mac", "MacEngine.verify", "crypto.mac", "crypto"),
    ("repro.crypto.mac", "PmmacAuthenticator.tag", "crypto.mac", "crypto"),
    ("repro.crypto.mac", "PmmacAuthenticator.verify", "crypto.mac",
     "crypto"),
    ("repro.core.split", "SplitProtocol.access", "core.access", "core"),
    ("repro.core.independent", "IndependentProtocol.access", "core.access",
     "core"),
    ("repro.core.indep_split", "IndepSplitProtocol.access", "core.access",
     "core"),
    ("repro.oram.path_oram", "PathOram.access", "oram.access", "oram"),
    ("repro.oram.path_oram", "PathOram.read_path_into_stash", "oram.path",
     "oram"),
    ("repro.oram.path_oram", "PathOram.write_path_from_stash", "oram.path",
     "oram"),
    ("repro.oram.path_oram", "PathOram.dummy_access", "oram.path", "oram"),
    ("repro.oram.integrity", "EncryptedBucketStore.read",
     "oram.bucket_read", "oram"),
    ("repro.oram.integrity", "EncryptedBucketStore.write",
     "oram.bucket_write", "oram"),
    ("repro.oram.stash", "Stash.plan_eviction", "oram.eviction", "oram"),
    ("repro.serve.scheduler", "BatchingScheduler.run", "serve.scheduler",
     "serve.scheduler"),
    ("repro.serve.shard", "route_requests", "serve.router", "serve.router"),
    ("repro.serve.router", "fold_shard_reports", "serve.router",
     "serve.router"),
    ("repro.serve.shard", "model_migrations", "serve.router",
     "serve.router"),
    ("repro.serve.bench", "generate_requests", "serve.loadgen",
     "serve.loadgen"),
    ("repro.control.plane", "ServeControlPlane.flush_until", "control.flush",
     "control"),
    ("repro.control.plane", "ServeControlPlane.flush_final", "control.flush",
     "control"),
    ("repro.fastpath.engine", "stamp_pass", "fastpath.stamp_pass",
     "fastpath"),
    ("repro.fastpath.access", "AccessFastPath.try_access",
     "fastpath.try_access", "fastpath"),
    ("repro.sim.backends", "NonSecureBackend.submit", "sim.backends.submit",
     "sim.backends"),
    ("repro.sim.backends", "FreecursiveBackend.submit",
     "sim.backends.submit", "sim.backends"),
    ("repro.sim.backends", "IndependentBackend.submit",
     "sim.backends.submit", "sim.backends"),
    ("repro.sim.backends", "SplitBackend.submit", "sim.backends.submit",
     "sim.backends"),
    ("repro.sim.backends", "IndepSplitBackend.submit",
     "sim.backends.submit", "sim.backends"),
    ("repro.sim.events", "EventQueue.at", "sim.events", "sim.events"),
    ("repro.sim.events", "EventQueue.call_at", "sim.events", "sim.events"),
    ("repro.sim.bus", "LinkBus.reserve_block", "sim.bus.reserve", "sim.bus"),
    ("repro.sim.bus", "LinkBus.reserve_lines", "sim.bus.reserve", "sim.bus"),
    ("repro.dram.channel", "Channel.schedule_access", "dram.schedule",
     "dram"),
    ("repro.dram.channel", "Channel.schedule_run", "dram.schedule", "dram"),
    ("repro.dram.channel", "Channel.schedule_lines", "dram.schedule", "dram"),
    ("repro.cache.cache", "SetAssociativeCache.access", "cache.access",
     "cache"),
    ("repro.workloads.synthetic", "iterate_trace", "workloads.next",
     "workloads"),
    ("repro.sim.cpu", "SimulationDriver.run", "sim.cpu", "sim.cpu"),
)

#: Span name of the benchmark's own root span around each workload call.
ROOT = "bench.call"

#: Every layer that owns spans, in report order (``bench`` is the time a
#: workload call spends outside every wrapped entry point).
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    [layer for _, _, _, layer in ENTRY_POINTS] + ["bench"]))

#: Instances whose counters are read after a round: each fast path with
#: its delta-table counters, and the Split group's own fast-path counters.
CAPTURED_CLASSES = (("repro.fastpath.access", "AccessFastPath"),
                    ("repro.sim.backends", "SplitGroupDevice"))


def _resolve(module_name: str, qualname: str):
    """(owner object, attribute name, original callable)."""
    owner = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], owner.__dict__[parts[-1]]


class _TracedIterator:
    """Times each ``next()`` of a wrapped generator as one span."""

    __slots__ = ("_inner", "_tracer", "_entry")

    def __init__(self, inner, tracer: "SpanTracer", entry: int):
        self._inner = inner
        self._tracer = tracer
        self._entry = entry

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        index = tracer.open(self._entry)
        try:
            return next(self._inner)
        finally:
            tracer.close(index)


class SpanTracer:
    """Flat span arrays plus boundary counts for one traced round."""

    def __init__(self):
        self.entry_names: List[str] = []
        self.entry_spans: List[str] = []
        self.entry_layers: List[str] = []
        for module, qualname, span, layer in ENTRY_POINTS:
            self.entry_names.append(f"{module}.{qualname}")
            self.entry_spans.append(span)
            self.entry_layers.append(layer)
        self.root_entry = len(self.entry_names)
        self.entry_names.append(ROOT)
        self.entry_spans.append(ROOT)
        self.entry_layers.append("bench")
        self.counts: Counter = Counter()
        self.captured: Dict[str, list] = {name: []
                                          for _, name in CAPTURED_CLASSES}
        self._patches: List[Tuple[object, str, object]] = []
        self.reset()

    # ------------------------------------------------------------------
    # span recording
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Drop recorded spans, counts and captured instances."""
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.entries = array("l")
        self.runs = array("l")
        self.current = -1
        self.run_id = 0
        self.counts.clear()
        for instances in self.captured.values():
            instances.clear()

    def open(self, entry: int) -> int:
        index = len(self.entries)
        self.parents.append(self.current)
        self.entries.append(entry)
        self.runs.append(self.run_id)
        self.ends.append(0.0)
        self.current = index
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self.current = self.parents[index]

    def root(self, run_id: int, fn: Callable[[], object]):
        """Run ``fn`` as one workload call under a root span."""
        self.run_id = run_id
        index = self.open(self.root_entry)
        try:
            return fn()
        finally:
            self.close(index)

    def parent_span(self) -> str:
        current = self.current
        if current < 0:
            return ""
        return self.entry_spans[self.entries[current]]

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------

    def _wrap(self, entry: int, fn, span: str):
        tracer = self
        hook = _HOOKS.get(span)
        if span == "workloads.next":
            def generator_wrapper(*args, **kwargs):
                return _TracedIterator(fn(*args, **kwargs), tracer, entry)
            return generator_wrapper
        if hook is None:
            def wrapper(*args, **kwargs):
                index = tracer.open(entry)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(index)
            return wrapper
        before, after = hook

        def hooked_wrapper(*args, **kwargs):
            token = before(tracer, args, kwargs) if before else None
            index = tracer.open(entry)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            after(tracer, args, kwargs, result, token)
            return result
        return hooked_wrapper

    def install(self) -> None:
        """Patch every entry point everywhere ``repro`` binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for entry, (module, qualname, span, _) in enumerate(ENTRY_POINTS):
            owner, attribute, original = _resolve(module, qualname)
            wrapper = self._wrap(entry, original, span)
            self._patch(owner, attribute, wrapper)
            if isinstance(owner, type):
                continue
            for name, loaded in list(sys.modules.items()):
                if loaded is None or loaded is owner:
                    continue
                if name != "repro" and not name.startswith("repro."):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, key, wrapper)
        for module, name in CAPTURED_CLASSES:
            cls = getattr(importlib.import_module(module), name)
            self._patch(cls, "__init__",
                        self._capturing_init(cls.__init__,
                                             self.captured[name]))

    def _capturing_init(self, init, instances: list):
        def capturing_init(instance, *args, **kwargs):
            init(instance, *args, **kwargs)
            instances.append(instance)
        return capturing_init

    def _patch(self, owner, attribute: str, value) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def uninstall(self) -> None:
        """Restore every patched binding (reverse order)."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # folding
    # ------------------------------------------------------------------

    def fold(self) -> "RoundTrace":
        """Self time per layer, calls per entry point, span durations."""
        starts, ends, parents, entries = (self.starts, self.ends,
                                          self.parents, self.entries)
        count = len(entries)
        durations = [ends[i] - starts[i] for i in range(count)]
        covered = [0.0] * count
        for index in range(count):
            parent = parents[index]
            if parent >= 0:
                covered[parent] += durations[index]
        layer_self = dict.fromkeys(LAYERS, 0.0)
        layers = self.entry_layers
        for index in range(count):
            layer_self[layers[entries[index]]] += (durations[index] -
                                                   covered[index])
        entry_calls = Counter(entries)
        span_calls: Counter = Counter()
        for entry, calls in entry_calls.items():
            span_calls[self.entry_spans[entry]] += calls
        core_ms = sorted(durations[index] * 1000.0 for index in range(count)
                         if self.entry_spans[entries[index]] == "core.access")
        wall = sum(durations[index] for index in range(count)
                   if entries[index] == self.root_entry)
        return RoundTrace(
            wall_s=wall, layer_self_s=layer_self,
            entry_calls={self.entry_names[entry]: calls
                         for entry, calls in entry_calls.items()},
            span_calls=dict(span_calls), counts=dict(self.counts),
            fastpath=self._fastpath_counts(), core_access_ms=core_ms,
            spans=count)

    def _fastpath_counts(self) -> Dict[str, int]:
        attempts = fast = hits = 0
        for fastpath in self.captured["AccessFastPath"]:
            attempts += fastpath.attempts
            fast += fastpath.fast_accesses
            hits += fastpath.delta_hits
        for group in self.captured["SplitGroupDevice"]:
            attempts += group.fastpath_attempts
            fast += group.fastpath_accesses
        return {"attempts": attempts, "fast": fast, "delta_hits": hits}

    def write_spans(self, path: str) -> None:
        """The recorded spans as gzip'd CSV (times relative to the first)."""
        origin = self.starts[0] if len(self.starts) else 0.0
        names = self.entry_names
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("run,span,parent,entry,start_s,end_s\n")
            for index in range(len(self.entries)):
                handle.write(f"{self.runs[index]},{index},"
                             f"{self.parents[index]},"
                             f"{names[self.entries[index]]},"
                             f"{self.starts[index] - origin:.9f},"
                             f"{self.ends[index] - origin:.9f}\n")


@dataclass
class RoundTrace:
    """What one traced round measured, folded out of the span arrays."""

    wall_s: float
    layer_self_s: Dict[str, float]
    entry_calls: Dict[str, int]
    span_calls: Dict[str, int]
    counts: Dict[str, int]
    #: attempts / fast accesses / delta-table hits of captured fast paths
    fastpath: Dict[str, int]
    core_access_ms: List[float]
    spans: int


# ----------------------------------------------------------------------
# Boundary counts: (before, after) hooks keyed by span name
# ----------------------------------------------------------------------

def _parent_before(tracer: SpanTracer, args, kwargs):
    # read the parent before this span opens
    return tracer.parent_span()


def _prf_after(tracer: SpanTracer, args, kwargs, result, parent) -> None:
    tracer.counts["crypto.prf.blocks"] += math.ceil(len(result) / 32)
    # a PRF call made directly by CounterModeCipher.pad is a pad-cache miss
    if parent == "crypto.pad":
        tracer.counts["crypto.pad.prf_evaluations"] += 1


def _mac_after(tracer: SpanTracer, args, kwargs, result, parent) -> None:
    # a PMMAC verify calls its own tag: count outermost MAC operations
    if parent != "crypto.mac":
        tracer.counts["crypto.mac.calls"] += 1


def _link_before(tracer: SpanTracer, args, kwargs):
    link = getattr(args[0], "link", None)
    return len(link) if link is not None else 0


def _link_after(tracer: SpanTracer, args, kwargs, result, before) -> None:
    link = getattr(args[0], "link", None)
    if link is not None:
        tracer.counts["core.link_events"] += len(link) - before


def _scheduler_after(tracer: SpanTracer, args, kwargs, outcome,
                     token) -> None:
    counts = tracer.counts
    counts["serve.scheduler.batches"] += outcome.batches
    counts["serve.scheduler.offered"] += outcome.offered
    counts["serve.scheduler.admitted"] += outcome.admitted
    counts["serve.scheduler.shed"] += len(outcome.shed)
    counts["serve.scheduler.coalesced"] += outcome.coalesced


def _control_after(tracer: SpanTracer, args, kwargs, result,
                   token) -> None:
    tracer.counts["control.decisions"] += len(result[0])


def _cache_after(tracer: SpanTracer, args, kwargs, result, token) -> None:
    if result.hit:
        tracer.counts["cache.hits"] += 1


_HOOKS: Dict[str, Tuple[Optional[Callable], Callable]] = {
    "crypto.prf": (_parent_before, _prf_after),
    "crypto.mac": (_parent_before, _mac_after),
    "core.access": (_link_before, _link_after),
    "serve.scheduler": (None, _scheduler_after),
    "control.flush": (None, _control_after),
    "cache.access": (None, _cache_after),
}


def nearest_rank(ordered: Sequence[float], fraction: float) -> float:
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]

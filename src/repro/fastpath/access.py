"""Whole-access flat stamping: the driver of the macro-replay core.

:class:`AccessFastPath` serves one protocol driver (the Freecursive
backend over its striped channels, or one SDIMM device over its internal
channel).  Per access it stamps both ORAM passes flat with
:func:`~repro.fastpath.engine.stamp_pass` and commits the trace events
as one batch.

If a touched rank is parked, the access returns to the caller's
event-core path untouched — nothing is committed until eligibility is
known, so the fallback is exact mid-run.  Refreshes do not force a
fallback: ``stamp_pass`` delegates them to the rank's own
``maybe_refresh`` exactly where ``schedule_run`` would; the per-rank
scan before each pass only decides whether that pass needs the per-run
refresh checks at all.
"""

from __future__ import annotations

from typing import Optional

from repro.dram.commands import PowerState
from repro.fastpath.engine import emit_batch, stamp_pass
from repro.obs.tracer import CATEGORY_PROTOCOL, TraceEvent

_PARKED = (PowerState.POWER_DOWN, PowerState.SELF_REFRESH)


def reset_delta_tables() -> None:
    """No-op: the fast path keeps no process-wide state.

    Kept for callers written against the removed delta tables.
    """


class AccessFastPath:
    """Flat-stamping fast path for one driver's ``accessORAM`` operations."""

    __slots__ = ("channels", "channel_names", "producer", "skip_levels",
                 "crypto", "lane", "tracer", "attempts", "fast_accesses")

    #: Accesses replayed from a delta table.  There are no delta tables,
    #: so this is always 0; kept for readers of the old counter.
    delta_hits = 0

    def __init__(self, channels, producer, skip_levels: int, crypto: int,
                 lane: str, tracer):
        self.channels = list(channels)
        self.channel_names = [channel.name for channel in self.channels]
        self.producer = producer
        self.skip_levels = skip_levels
        self.crypto = crypto
        self.lane = lane
        self.tracer = tracer
        self.attempts = 0
        self.fast_accesses = 0

    def _refresh_due(self, ranks, at: int) -> bool:
        """True when a touched rank has a refresh due by cycle ``at``."""
        channels = self.channels
        for ch, rank_index in ranks:
            rank = channels[ch].ranks[rank_index]
            if rank.refresh_enabled and rank._next_refresh_due <= at:
                return True
        return False

    def try_access(self, leaf: int, start: int) -> Optional[int]:
        """Serve one access fast, or return ``None`` for the event core."""
        self.attempts += 1
        if start < 0:
            return None
        pattern = self.producer.pattern(leaf, self.skip_levels)
        if not pattern.runs:
            return None
        channels = self.channels
        touched_ranks = pattern.touched_ranks
        for ch, rank_index in touched_ranks:
            if channels[ch].ranks[rank_index].power_state in _PARKED:
                return None
        tracer = self.tracer
        traced = tracer.enabled
        per_channel = pattern.per_channel
        multi = len(per_channel) > 1
        read_batch = ([None] * len(pattern.runs) if multi else []) \
            if traced else None
        refresh = self._refresh_due(touched_ranks, start)
        read_end = 0
        for ch, runs, slots in per_channel:
            end = stamp_pass(channels[ch], runs, False, start, read_batch,
                             slots, refresh=refresh)
            if end > read_end:
                read_end = end
        write_start = read_end + self.crypto
        write_batch = ([None] * len(pattern.runs) if multi else []) \
            if traced else None
        refresh = self._refresh_due(touched_ranks, write_start)
        write_end = 0
        for ch, runs, slots in per_channel:
            end = stamp_pass(channels[ch], runs, True, write_start,
                             write_batch, slots, refresh=refresh)
            if end > write_end:
                write_end = end
        if traced:
            events = read_batch
            events.extend(write_batch)
            events.append(TraceEvent("span", "PATH_READ", CATEGORY_PROTOCOL,
                                     self.lane, start, read_end - start))
            events.append(TraceEvent("span", "PATH_WRITE", CATEGORY_PROTOCOL,
                                     self.lane, write_start,
                                     write_end - write_start))
            emit_batch(tracer, events)
        self.fast_accesses += 1
        return write_end + self.crypto

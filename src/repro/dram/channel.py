"""Channel model: shared command/data buses over a set of ranks.

A :class:`Channel` is used both for the CPU's main memory channels and for
each SDIMM's *internal* channel between the secure buffer and its DRAM
chips (the buffer has the same pin budget as an LRDIMM buffer, so the
internal channel has the same width and speed).  The ``on_dimm`` flag tags
transfers for the energy model, which charges on-DIMM I/O far less than
cross-channel I/O.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional

from repro.config import DramOrganization, DramTiming
from repro.dram.address import DecodedAddress
from repro.dram.bank import ScaledTiming
from repro.dram.commands import PowerState, RowBufferOutcome
from repro.dram.rank import Rank
from repro.obs.tracer import CATEGORY_DRAM, NULL_TRACER, Tracer

_request_ids = itertools.count()

_PARKED = (PowerState.POWER_DOWN, PowerState.SELF_REFRESH)
_HIT = RowBufferOutcome.HIT
_CONFLICT = RowBufferOutcome.CONFLICT


@dataclass
class MemoryRequest:
    """One cache-line request presented to a channel scheduler."""

    address: DecodedAddress
    is_write: bool
    arrival_time: int
    request_id: int = field(default_factory=lambda: next(_request_ids))
    completion_time: Optional[int] = None


class AccessTiming(NamedTuple):
    """When one column access actually happened on the channel.

    A NamedTuple rather than a frozen dataclass: one is built per
    scheduled run and tuple construction skips the per-field
    ``object.__setattr__`` a frozen dataclass pays.
    """

    cas_issue: int
    data_start: int
    data_end: int
    outcome: RowBufferOutcome

    @property
    def latency_from(self) -> int:
        return self.data_end


class Channel:
    """One DDR3 channel: ranks, bus arbitration, and event counters."""

    def __init__(self, timing: DramTiming, organization: DramOrganization,
                 scale: int = 2, refresh_enabled: bool = False,
                 on_dimm: bool = False, name: str = "channel",
                 tracer: Tracer = NULL_TRACER):
        self.name = name
        self.tracer = tracer
        self.on_dimm = on_dimm
        self.timing = ScaledTiming(timing, scale)
        self.organization = organization
        self.ranks = [Rank(self.timing, organization.banks_per_rank,
                           refresh_enabled)
                      for _ in range(organization.ranks_per_channel)]
        self._bus_free = 0
        self._last_bus_rank: Optional[int] = None
        self._last_bus_was_write = False
        self._write_to_read_ready: Dict[int, int] = {}
        # DDR4 bank-group CAS pacing: last CAS time per (rank, group)
        self._banks_per_group = (organization.banks_per_rank //
                                 max(1, organization.bank_groups))
        self._last_group_cas: Dict[tuple, int] = {}
        self._row_lines = organization.row_bytes // 64
        self.counters = ChannelCounters()

    def _bank_group(self, address: DecodedAddress) -> tuple:
        return (address.rank, address.bank // self._banks_per_group)

    def _group_cas_ready(self, address: DecodedAddress) -> int:
        """Earliest CAS honouring same-bank-group tCCD_L spacing."""
        last = self._last_group_cas.get(self._bank_group(address))
        if last is None:
            return 0
        return last + self.timing.tccd_l

    def _note_cas(self, address: DecodedAddress, issue_time: int) -> None:
        self._last_group_cas[self._bank_group(address)] = issue_time

    # ------------------------------------------------------------------
    # Core scheduling primitive
    # ------------------------------------------------------------------

    def schedule_access(self, address: DecodedAddress, is_write: bool,
                        earliest: int) -> AccessTiming:
        """Schedule one column access no earlier than ``earliest``.

        Applies the full DDR3 constraint chain — power-state exit, overdue
        refresh, PRE/ACT as the row buffer demands, tRRD/tFAW pacing,
        CAS-to-data latency, data-bus occupancy, rank-to-rank switch and
        write-to-read turnaround — and commits the resulting state.
        """
        rank = self.ranks[address.rank]
        start = max(earliest, 0)
        start = rank.wake(start)
        start = rank.maybe_refresh(start)
        bank = rank.banks[address.bank]

        outcome = bank.classify(address.row)
        if outcome is RowBufferOutcome.CONFLICT:
            precharge_time = max(start, bank.ready_precharge)
            bank.precharge(precharge_time)
            self.counters.precharges += 1
        if bank.open_row is None:
            activate_time = max(start, bank.ready_activate)
            activate_time = rank.earliest_activate(activate_time)
            bank.activate(activate_time, address.row)
            rank.record_activate(activate_time)
            self.counters.activates += 1

        cas_latency = self.timing.tcwl if is_write else self.timing.tcl
        cas_issue = max(start, bank.ready_cas,
                        self._group_cas_ready(address))
        cas_issue = max(cas_issue, self._bus_ready(address.rank) - cas_latency)
        if not is_write:
            cas_issue = max(cas_issue,
                            self._write_to_read_ready.get(address.rank, 0))

        data_start = cas_issue + cas_latency
        data_end = data_start + self.timing.tburst

        if is_write:
            bank.write(cas_issue)
            self._write_to_read_ready[address.rank] = (
                data_end + self.timing.twtr)
            self.counters.writes += 1
        else:
            bank.read(cas_issue)
            self.counters.reads += 1
        self._note_cas(address, cas_issue)

        self._bus_free = data_end
        self._last_bus_rank = address.rank
        self._last_bus_was_write = is_write
        self.counters.note_outcome(outcome)
        self.counters.busy_cycles += self.timing.tburst
        rank.note_active(data_end)
        if self.tracer.enabled:
            self.tracer.span("burst", CATEGORY_DRAM, self.name,
                             data_start, data_end, rank=address.rank,
                             bank=address.bank, row=address.row,
                             write=int(is_write), lines=1,
                             outcome=outcome.value)
        return AccessTiming(cas_issue, data_start, data_end, outcome)

    def schedule_run(self, address: DecodedAddress, count: int,
                     is_write: bool, earliest: int) -> AccessTiming:
        """Schedule ``count`` back-to-back column accesses in one row.

        The run starts at ``address`` and streams consecutive columns —
        exactly what the subtree-packed ORAM layout produces.  Equivalent to
        ``count`` calls of :meth:`schedule_access` (one potential PRE/ACT,
        then CAS streaming at the burst rate) but O(1), which is what makes
        a pure-Python path access affordable.

        This is the hottest function of a timing-tier run, so the body
        trades the helper-per-constraint style of :meth:`schedule_access`
        for hoisted locals and inline comparisons.  Timings, counters and
        bus state match the :meth:`schedule_access` loop exactly
        (``tests/test_refcore.py``); only rank residency differs, since a
        run notes activity once instead of after every CAS.
        """
        if count < 1:
            raise ValueError("run must cover at least one line")
        if address.column + count > self._row_lines:
            raise ValueError("run crosses a row boundary")
        t = self.timing
        counters = self.counters
        rank_index = address.rank
        rank = self.ranks[rank_index]
        start = earliest if earliest > 0 else 0
        if rank.power_state in _PARKED:
            start = rank.wake(start)
        if rank.refresh_enabled:
            start = rank.maybe_refresh(start)
        bank = rank.banks[address.bank]

        row = address.row
        if bank.open_row == row:
            outcome = _HIT
            counters.row_hits += 1
        else:
            outcome = bank.classify(row)
            if outcome is _CONFLICT:
                ready = bank.ready_precharge
                bank.precharge(start if start > ready else ready)
                counters.precharges += 1
                counters.row_conflicts += 1
            else:
                counters.row_misses += 1
            ready = bank.ready_activate
            activate_time = rank.earliest_activate(
                start if start > ready else ready)
            bank.activate(activate_time, row)
            rank.record_activate(activate_time)
            counters.activates += 1

        cas_latency = t.tcwl if is_write else t.tcl
        cas_issue = start
        ready = bank.ready_cas
        if ready > cas_issue:
            cas_issue = ready
        group = (rank_index, address.bank // self._banks_per_group)
        last_group_cas = self._last_group_cas
        last = last_group_cas.get(group)
        if last is not None:
            ready = last + t.tccd_l
            if ready > cas_issue:
                cas_issue = ready
        ready = self._bus_free
        last_bus_rank = self._last_bus_rank
        if last_bus_rank is not None and last_bus_rank != rank_index:
            ready += t.trtrs
        ready -= cas_latency
        if ready > cas_issue:
            cas_issue = ready
        if not is_write:
            ready = self._write_to_read_ready.get(rank_index, 0)
            if ready > cas_issue:
                cas_issue = ready

        # within one bank, CAS pace at max(tBURST, tCCD_L): DDR4 streaming
        # inside one bank group leaves bubbles (DDR3: equal, gapless)
        tburst = t.tburst
        tccd_l = t.tccd_l
        stride = tburst if tburst > tccd_l else tccd_l
        data_start = cas_issue + cas_latency
        data_end = data_start + (count - 1) * stride + tburst
        last_cas = cas_issue + (count - 1) * stride

        if is_write:
            bank.write(last_cas)
            self._write_to_read_ready[rank_index] = data_end + t.twtr
            counters.writes += count
        else:
            bank.read(last_cas)
            counters.reads += count
        last_group_cas[group] = last_cas
        self._bus_free = data_end
        self._last_bus_rank = rank_index
        self._last_bus_was_write = is_write
        if count > 1:
            counters.row_hits += count - 1
        counters.busy_cycles += count * tburst
        rank.note_active(data_end)
        if self.tracer.enabled:
            self.tracer.span("burst", CATEGORY_DRAM, self.name,
                             data_start, data_end, rank=rank_index,
                             bank=address.bank, row=row,
                             write=int(is_write), lines=count,
                             outcome=outcome.value)
        return AccessTiming(cas_issue, data_start, data_end, outcome)

    def _bus_ready(self, rank_index: int) -> int:
        """Earliest time a new data burst may start on the shared bus."""
        ready = self._bus_free
        if self._last_bus_rank is not None and self._last_bus_rank != rank_index:
            ready += self.timing.trtrs
        return ready

    # ------------------------------------------------------------------
    # Convenience for protocol bursts
    # ------------------------------------------------------------------

    def schedule_lines(self, addresses, is_write: bool,
                       earliest: int) -> AccessTiming:
        """Schedule a burst of line accesses; return the last access timing.

        Used by ORAM backends for path reads/writes: each line flows through
        :meth:`schedule_access`, so row-buffer locality of the subtree layout
        shows up naturally as CAS-only hits.
        """
        last: Optional[AccessTiming] = None
        for address in addresses:
            last = self.schedule_access(address, is_write, earliest)
        if last is None:
            raise ValueError("schedule_lines requires at least one address")
        return last

    def command_slot(self, earliest: int) -> int:
        """Occupy one command-bus slot (PROBE polling); returns its time.

        Short commands ride the command/address bus.  We charge them a
        single memory-clock cycle of bus occupancy, serialized against data
        bursts only loosely (command and data buses are separate wires).
        """
        slot = max(earliest, self._bus_free - self.timing.tburst)
        self.counters.command_slots += 1
        return slot

    @property
    def bus_free_at(self) -> int:
        return self._bus_free

    def finalize(self, end_time: int) -> None:
        """Close out rank residency accounting at simulation end."""
        for rank in self.ranks:
            rank.note_activity(end_time)
            rank.finalize(end_time)


class ChannelCounters:
    """Event counts the energy model and reports consume."""

    def __init__(self):
        self.activates = 0
        self.precharges = 0
        self.reads = 0
        self.writes = 0
        self.row_hits = 0
        self.row_misses = 0
        self.row_conflicts = 0
        self.busy_cycles = 0
        self.command_slots = 0

    def note_outcome(self, outcome: RowBufferOutcome) -> None:
        if outcome is RowBufferOutcome.HIT:
            self.row_hits += 1
        elif outcome is RowBufferOutcome.MISS:
            self.row_misses += 1
        else:
            self.row_conflicts += 1

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def row_hit_rate(self) -> float:
        return self.row_hits / self.accesses if self.accesses else 0.0

    def as_dict(self) -> Dict[str, int]:
        return {
            "activates": self.activates,
            "precharges": self.precharges,
            "reads": self.reads,
            "writes": self.writes,
            "row_hits": self.row_hits,
            "row_misses": self.row_misses,
            "row_conflicts": self.row_conflicts,
            "busy_cycles": self.busy_cycles,
            "command_slots": self.command_slots,
        }

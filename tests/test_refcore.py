"""Differential tests: optimized hot paths vs their plain twins.

The optimized ``Channel.schedule_run`` must match ``count`` calls of
``Channel.schedule_access``, the per-line scheduler the DDR constraint
chain is written out in; ``Rank.note_active`` must match the
bank-scanning ``Rank.note_activity``; and every bounded memo must answer
exactly as a fresh, empty instance would, including after it clears.
These tests drive both sides with the same randomized inputs and compare
every observable — returned timings, counters, bus state, power-state
residency, memoized results — which is a much tighter net than the
end-to-end golden masters alone.
"""

from dataclasses import replace

import pytest

import repro.dram.address as address_module
import repro.fastpath.runs as runs_module
import repro.oram.layout as layout_module
from repro.config import (DesignPoint, DramOrganization, DramTiming,
                          small_config, table2_config)
from repro.dram.address import AddressMapper, DecodedAddress
from repro.dram.bank import ScaledTiming
from repro.dram.channel import AccessTiming, Channel
from repro.dram.commands import PowerState
from repro.dram.rank import Rank
from repro.fastpath.runs import FastLowPowerRuns, FastTreeRuns, PathPattern
from repro.oram.layout import LowPowerLayout, TreeLayout
from repro.oram.tree import TreeGeometry
from repro.utils.rng import DeterministicRng

TIMING = DramTiming()
ORGANIZATION = DramOrganization()


def random_runs(seed: int, count: int):
    """A reproducible stream of valid schedule_run argument tuples."""
    rng = DeterministicRng(seed, "refcore-test")
    columns = ORGANIZATION.row_bytes // 64
    ranks = ORGANIZATION.dimms_per_channel * ORGANIZATION.ranks_per_dimm
    now = 0
    for _ in range(count):
        run_len = rng.randint(1, 16)
        address = DecodedAddress(
            rank=rng.randint(0, ranks - 1),
            bank=rng.randint(0, ORGANIZATION.banks_per_rank - 1),
            row=rng.randint(0, 511),
            column=rng.randint(0, columns - run_len))
        now += rng.randint(0, 200)
        yield address, run_len, rng.random() < 0.5, now


def access_loop(channel: Channel, address: DecodedAddress, count: int,
                is_write: bool, earliest: int) -> AccessTiming:
    """``schedule_run`` spelled as ``count`` per-line accesses."""
    timings = [channel.schedule_access(replace(address,
                                               column=address.column + i),
                                       is_write, earliest)
               for i in range(count)]
    first, last = timings[0], timings[-1]
    return AccessTiming(first.cas_issue, first.data_start, last.data_end,
                        first.outcome)


def assert_run_matches_access_loop(runs, refresh=False, parked=False):
    fast = Channel(TIMING, ORGANIZATION, scale=2, refresh_enabled=refresh)
    loop = Channel(TIMING, ORGANIZATION, scale=2, refresh_enabled=refresh)
    if parked:
        for channel in (fast, loop):
            for rank in channel.ranks:
                rank.enter_power_down(0)
    for address, count, is_write, earliest in runs:
        assert fast.schedule_run(address, count, is_write, earliest) == \
            access_loop(loop, address, count, is_write, earliest)
    assert fast.counters.as_dict() == loop.counters.as_dict()
    assert fast.bus_free_at == loop.bus_free_at


class TestScheduleRunDifferential:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("refresh", [False, True])
    def test_matches_reference_on_random_streams(self, seed, refresh):
        assert_run_matches_access_loop(random_runs(seed, 600), refresh)

    def test_matches_reference_after_power_down(self):
        assert_run_matches_access_loop(random_runs(7, 200), parked=True)

    def test_rejects_bad_runs_like_reference(self):
        channel = Channel(TIMING, ORGANIZATION, scale=2)
        address = DecodedAddress(rank=0, bank=0, row=0, column=0)
        with pytest.raises(ValueError):
            channel.schedule_run(address, 0, False, 0)
        columns = ORGANIZATION.row_bytes // 64
        edge = DecodedAddress(rank=0, bank=0, row=0, column=columns - 1)
        with pytest.raises(ValueError):
            channel.schedule_run(edge, 2, False, 0)


class TestNoteActiveDifferential:
    def make_rank(self):
        return Rank(ScaledTiming(TIMING, 2), ORGANIZATION.banks_per_rank)

    def test_open_row_transitions_match(self):
        fast, slow = self.make_rank(), self.make_rank()
        for rank in (fast, slow):
            rank.banks[0].activate(10, 3)
        fast.note_active(50)
        slow.note_activity(50)
        assert fast.power_state == slow.power_state
        assert fast.state_residency == slow.state_residency

    def test_parked_rank_left_alone(self):
        fast, slow = self.make_rank(), self.make_rank()
        for rank in (fast, slow):
            rank.enter_power_down(5)
        fast.note_active(50)
        slow.note_activity(50)
        assert fast.power_state is PowerState.POWER_DOWN
        assert fast.power_state == slow.power_state
        assert fast.state_residency == slow.state_residency

    def test_repeated_calls_are_idempotent(self):
        fast, slow = self.make_rank(), self.make_rank()
        for rank in (fast, slow):
            rank.banks[2].activate(0, 1)
        for now in (10, 20, 30):
            fast.note_active(now)
            slow.note_activity(now)
        assert fast.power_state == slow.power_state
        assert fast.state_residency == slow.state_residency


# ----------------------------------------------------------------------
# Bounded memos vs a fresh instance
# ----------------------------------------------------------------------

def _tree_layout():
    config = small_config(DesignPoint.FREECURSIVE)
    return TreeLayout(TreeGeometry(config.oram.levels), config.oram,
                      config.organization, config.channels)


def _lowpower_layout():
    config = table2_config(DesignPoint.INDEP_2, channels=1)
    levels = config.oram.levels - 3  # an SDIMM-local subtree
    return LowPowerLayout(TreeGeometry(levels),
                          replace(config.oram, levels=levels),
                          replace(config.organization, dimms_per_channel=1))


def _observable(answer):
    """A memo answer in comparable form (PathPattern has no ``__eq__``)."""
    if isinstance(answer, PathPattern):
        return answer.runs, answer.per_channel, answer.touched_ranks
    return answer


#: name -> (module binding DEFAULT_MEMO_CAP, fresh instance, query,
#: cache attribute, keys).  Every key list is longer than the patched cap
#: and repeats a leaf at two skip levels.
MEMOS = {
    "AddressMapper.decode": (
        address_module, lambda: AddressMapper(ORGANIZATION),
        lambda memo, key: memo.decode(key), "_decode_cache",
        [0, 1, 63, 64, 4096, 999_999, 12_345]),
    "TreeLayout.path_runs": (
        layout_module, _tree_layout,
        lambda memo, key: memo.path_runs(*key), "_runs_cache",
        [(0, 0), (1, 0), (5, 1), (5, 3), (17, 2), (30, 0), (31, 3)]),
    "LowPowerLayout.path_runs": (
        layout_module, _lowpower_layout,
        lambda memo, key: memo.path_runs(*key), "_runs_cache",
        [(0, 0), (1, 0), (1 << 10, 1), (1 << 10, 4), (12_345, 2),
         (99_999, 0)]),
    "FastTreeRuns": (
        runs_module, lambda: FastTreeRuns(_tree_layout()),
        lambda memo, key: memo.pattern(*key), "_cache",
        [(0, 0), (1, 0), (5, 1), (5, 3), (17, 2), (30, 0), (31, 3)]),
    "FastLowPowerRuns": (
        runs_module, lambda: FastLowPowerRuns(_lowpower_layout()),
        lambda memo, key: memo.pattern(*key), "_cache",
        [(0, 0), (1, 0), (1 << 10, 1), (1 << 10, 4), (12_345, 2),
         (99_999, 0)]),
}


@pytest.mark.parametrize("name", sorted(MEMOS))
def test_memo_matches_a_fresh_instance(name, monkeypatch):
    module, make, query, cache_attr, keys = MEMOS[name]
    cap = 3
    monkeypatch.setattr(module, "DEFAULT_MEMO_CAP", cap)
    memo = make()
    cache = getattr(memo, cache_attr)
    sizes = []
    for key in keys + keys:  # the second lap re-fills after a clear
        expected = _observable(query(make(), key))
        first = query(memo, key)
        second = query(memo, key)
        assert second is first  # served from the memo
        assert _observable(second) == expected
        sizes.append(len(cache))
    assert max(sizes) == cap
    assert min(sizes[cap:]) == 1  # the cap triggered at least one clear

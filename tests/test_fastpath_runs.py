"""Content equality of the fastpath pattern producers vs the layouts.

:mod:`repro.fastpath.runs` re-derives the layouts' ``path_runs`` with
flat integer arithmetic; these tests pin that every produced run list is
*identical in content* to the layout's, across the real Table II
geometry (1 and 2 channels), the small test geometry, and the low-power
one-subtree-per-rank layout — for every skip level and a broad sample of
leaves.  Also covered: the :class:`PathPattern` metadata the access core
consumes (touched ranks, per-channel grouping with emission slots, the
Split slice shares) against first-principles recomputation.
"""

from dataclasses import replace

import pytest

from repro.config import DesignPoint, small_config, table2_config
from repro.fastpath.runs import FastLowPowerRuns, FastTreeRuns
from repro.oram.layout import LowPowerLayout, TreeLayout
from repro.oram.tree import TreeGeometry


def _sample_leaves(leaf_count):
    """Edge leaves plus a deterministic spread, unique and in range."""
    picks = {0, 1, 2, leaf_count - 1, leaf_count - 2, leaf_count // 2,
             leaf_count // 3}
    for bit in range(leaf_count.bit_length() - 1):
        picks.update({(1 << bit) - 1, 1 << bit, (1 << bit) + 1})
    step = max(1, leaf_count // 61)
    picks.update(range(0, leaf_count, step))
    return sorted(leaf for leaf in picks if 0 <= leaf < leaf_count)


def _layout_runs6(layout, leaf, skip):
    """TreeLayout.path_runs as (channel, rank, bank, row, column, count)."""
    return tuple((channel, address.rank, address.bank, address.row,
                  address.column, count)
                 for channel, address, count in layout.path_runs(leaf, skip))


def _lowpower_runs6(layout, leaf, skip):
    """LowPowerLayout.path_runs in the same 6-tuple form (channel 0)."""
    return tuple((0, address.rank, address.bank, address.row,
                  address.column, count)
                 for address, count in layout.path_runs(leaf, skip))


def _tree_cases():
    for label, config in (
            ("table2-1ch", table2_config(DesignPoint.FREECURSIVE,
                                         channels=1)),
            ("table2-2ch", table2_config(DesignPoint.FREECURSIVE,
                                         channels=2)),
            ("small", small_config(DesignPoint.FREECURSIVE))):
        geometry = TreeGeometry(config.oram.levels)
        layout = TreeLayout(geometry, config.oram, config.organization,
                            config.channels)
        yield label, config, geometry, layout


TREE_CASES = list(_tree_cases())


@pytest.mark.parametrize("label,config,geometry,layout",
                         TREE_CASES, ids=[case[0] for case in TREE_CASES])
class TestTreeRunsEquality:
    def test_runs_match_layout_everywhere(self, label, config, geometry,
                                          layout):
        fast = FastTreeRuns(layout)
        leaves = _sample_leaves(geometry.leaf_count)
        skips = sorted({0, 1, config.effective_cached_levels,
                        config.oram.levels - 1})
        checked = 0
        for skip in skips:
            for leaf in leaves:
                pattern = fast.pattern(leaf, skip)
                assert pattern.runs == _layout_runs6(layout, leaf, skip), \
                    f"{label}: leaf={leaf} skip={skip}"
                checked += 1
        assert checked >= len(leaves)

    def test_pattern_metadata_is_consistent(self, label, config, geometry,
                                            layout):
        fast = FastTreeRuns(layout)
        skip = config.effective_cached_levels
        for leaf in _sample_leaves(geometry.leaf_count)[:24]:
            pattern = fast.pattern(leaf, skip)
            runs = pattern.runs
            # touched ranks: exact set, one entry per (channel, rank)
            assert sorted(pattern.touched_ranks) == sorted(
                {(run[0], run[1]) for run in runs})
            # per-channel grouping covers every run exactly once, in order
            rebuilt = [None] * len(runs)
            for channel, part_runs, slots in pattern.per_channel:
                if slots is None:
                    assert len(pattern.per_channel) == 1
                    for index, run5 in enumerate(part_runs):
                        rebuilt[index] = (channel,) + run5
                else:
                    for slot, run5 in zip(slots, part_runs):
                        rebuilt[slot] = (channel,) + run5
            assert tuple(rebuilt) == runs

    def test_patterns_are_memoized(self, label, config, geometry, layout):
        fast = FastTreeRuns(layout)
        first = fast.pattern(3, 0)
        assert fast.pattern(3, 0) is first


class TestSliceShares:
    def test_slices_match_sdimm_slice_runs(self):
        from repro.sim.backends import SdimmDevice

        label, config, geometry, layout = TREE_CASES[0]
        fast = FastTreeRuns(layout)
        pattern = fast.pattern(geometry.leaf_count // 3, 0)
        layout_runs = [(address, count) for _channel, address, count
                       in layout.path_runs(geometry.leaf_count // 3, 0)]
        for ways in (2, 4):
            shares = pattern.slices(ways)
            assert len(shares) == ways
            for way in range(ways):
                expected = tuple(
                    (address.rank, address.bank, address.row,
                     address.column, count)
                    for address, count in SdimmDevice.slice_runs(
                        layout_runs, way, ways))
                assert shares[way] == expected

    def test_slices_are_memoized(self):
        label, config, geometry, layout = TREE_CASES[-1]
        fast = FastTreeRuns(layout)
        pattern = fast.pattern(1, 0)
        assert pattern.slices(2) is pattern.slices(2)


class TestLowPowerRunsEquality:
    @pytest.fixture(scope="class")
    def case(self):
        config = table2_config(DesignPoint.INDEP_2, channels=1)
        organization = replace(config.organization, dimms_per_channel=1)
        levels = config.oram.levels - 3  # an SDIMM-local subtree
        geometry = TreeGeometry(levels)
        oram = replace(config.oram, levels=levels)
        layout = LowPowerLayout(geometry, oram, organization)
        return geometry, layout

    def test_runs_match_layout_everywhere(self, case):
        geometry, layout = case
        fast = FastLowPowerRuns(layout)
        skips = sorted({0, 1, layout.rank_levels, layout.rank_levels + 1,
                        geometry.levels - 1})
        for skip in skips:
            for leaf in _sample_leaves(geometry.leaf_count):
                pattern = fast.pattern(leaf, skip)
                assert pattern.runs == _lowpower_runs6(layout, leaf, skip), \
                    f"leaf={leaf} skip={skip}"

    def test_single_rank_invariant(self, case):
        geometry, layout = case
        fast = FastLowPowerRuns(layout)
        for leaf in _sample_leaves(geometry.leaf_count)[:32]:
            pattern = fast.pattern(leaf, 0)
            owner = layout.rank_of_leaf(leaf)
            assert pattern.touched_ranks == ((0, owner),)
            assert {run[1] for run in pattern.runs} == {owner}

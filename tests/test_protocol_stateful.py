"""Stateful property tests: every ORAM implementation vs a dict model.

A hypothesis rule-based state machine performs arbitrary interleavings of
reads, writes, and overwrites against each implementation and checks the
result against a plain dictionary after every step.  This is the strongest
correctness net in the suite: it exercises block migration, transfer-queue
residency, stash leftovers, PLB evictions, and split-stash compaction in
combinations no hand-written scenario covers.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.config import OramConfig
from repro.core.indep_split import IndepSplitProtocol
from repro.core.independent import IndependentProtocol
from repro.core.messages import WiredIndependentProtocol
from repro.core.split import SplitProtocol
from repro.oram.freecursive import FreecursiveOram
from repro.oram.path_oram import Op, PathOram
from repro.oram.recursive import RecursiveOram
from repro.utils.rng import DeterministicRng

BLOCK = 64
ADDRESSES = st.integers(min_value=0, max_value=23)
VALUES = st.integers(min_value=0, max_value=255)


def payload(value):
    return bytes([value]) * BLOCK


class OramModelMachine(RuleBasedStateMachine):
    """Shared machine body; subclasses provide make_oram()."""

    def make_oram(self):
        raise NotImplementedError

    @initialize()
    def setup(self):
        self.oram = self.make_oram()
        self.model = {}

    @rule(address=ADDRESSES, value=VALUES)
    def write(self, address, value):
        self.oram.write(address, payload(value))
        self.model[address] = payload(value)

    @rule(address=ADDRESSES)
    def read(self, address):
        expected = self.model.get(address, bytes(BLOCK))
        assert self.oram.read(address) == expected

    @rule(address=ADDRESSES, first=VALUES, second=VALUES)
    def overwrite(self, address, first, second):
        self.oram.write(address, payload(first))
        self.oram.write(address, payload(second))
        self.model[address] = payload(second)

    @invariant()
    def spot_check_one_block(self):
        if self.model:
            address = next(iter(self.model))
            assert self.oram.read(address) == self.model[address]


class _PathOramAdapter:
    """Give PathOram the read/write surface the machine expects."""

    def __init__(self, oram: PathOram):
        self._oram = oram

    def read(self, address):
        return self._oram.access(address, Op.READ)

    def write(self, address, data):
        self._oram.access(address, Op.WRITE, data)


class PathOramMachine(OramModelMachine):
    def make_oram(self):
        return _PathOramAdapter(PathOram(
            levels=6, blocks_per_bucket=4, block_bytes=BLOCK,
            stash_capacity=200, rng=DeterministicRng(5, "sm-path")))


class RecursiveMachine(OramModelMachine):
    def make_oram(self):
        return RecursiveOram(data_blocks=64, block_bytes=BLOCK,
                             blocks_per_bucket=4, stash_capacity=200,
                             rng=DeterministicRng(5, "sm-rec"),
                             onchip_entries=4)


class FreecursiveMachine(OramModelMachine):
    def make_oram(self):
        config = OramConfig(levels=12, cached_levels=3,
                            recursive_posmaps=2, plb_bytes=1024,
                            plb_assoc=2)
        return FreecursiveOram(config, DeterministicRng(5, "sm-free"),
                               data_levels=8)


class IndependentMachine(OramModelMachine):
    def make_oram(self):
        return IndependentProtocol(global_levels=7, sdimm_count=2,
                                   block_bytes=BLOCK, stash_capacity=200,
                                   drain_probability=0.2, seed=5)


class SplitMachine(OramModelMachine):
    def make_oram(self):
        return SplitProtocol(levels=6, ways=2, block_bytes=BLOCK, seed=5)


class IndepSplitMachine(OramModelMachine):
    def make_oram(self):
        return IndepSplitProtocol(global_levels=7, groups=2, ways=2,
                                  block_bytes=BLOCK, drain_probability=0.2,
                                  seed=5)


class WiredIndependentMachine(OramModelMachine):
    def make_oram(self):
        return WiredIndependentProtocol(global_levels=7, sdimm_count=2,
                                        block_bytes=BLOCK,
                                        stash_capacity=200, seed=5)


_SETTINGS = settings(max_examples=12, stateful_step_count=14,
                     deadline=None)

TestPathOramMachine = PathOramMachine.TestCase
TestPathOramMachine.settings = _SETTINGS
TestRecursiveMachine = RecursiveMachine.TestCase
TestRecursiveMachine.settings = _SETTINGS
TestFreecursiveMachine = FreecursiveMachine.TestCase
TestFreecursiveMachine.settings = _SETTINGS
TestIndependentMachine = IndependentMachine.TestCase
TestIndependentMachine.settings = _SETTINGS
TestSplitMachine = SplitMachine.TestCase
TestSplitMachine.settings = _SETTINGS
TestIndepSplitMachine = IndepSplitMachine.TestCase
TestIndepSplitMachine.settings = _SETTINGS
TestWiredIndependentMachine = WiredIndependentMachine.TestCase
TestWiredIndependentMachine.settings = _SETTINGS

"""Targeted edge-path tests for the SDIMM protocol machinery.

These force the rare paths the broad stateful tests hit only by chance:
accessing a block while it waits in a transfer queue, appends to wrong
owners, queue overflow propagation, and vacancy servicing.
"""

import pytest

from repro.core.indep_split import SplitGroup
from repro.core.independent import IndependentBuffer
from repro.core.transfer_queue import TransferQueueOverflow
from repro.oram.bucket import Block
from repro.oram.path_oram import Op
from repro.utils.rng import DeterministicRng


def make_buffer(sdimm_id=0, total=2, levels=7, queue_capacity=8, p=0.0):
    return IndependentBuffer(
        sdimm_id=sdimm_id, total_sdimms=total, global_levels=levels,
        blocks_per_bucket=4, block_bytes=16, stash_capacity=200,
        transfer_queue_capacity=queue_capacity, drain_probability=p,
        rng=DeterministicRng(13, f"edge{sdimm_id}"))


def owned_leaf(buffer, local=0):
    """A global leaf owned by this buffer."""
    return (buffer.sdimm_id << buffer._local_leaf_bits) | local


class TestIndependentBufferEdges:
    def test_access_block_waiting_in_queue(self):
        """A block can be accessed while still in the transfer queue."""
        buffer = make_buffer()
        leaf = owned_leaf(buffer, 3)
        buffer.append(Block(99, leaf, b"Q" * 16))
        assert 99 in buffer.queue
        outcome = buffer.access(99, leaf, Op.READ, None)
        assert outcome.data == b"Q" * 16
        assert 99 not in buffer.queue

    def test_wrong_owner_leaf_rejected(self):
        buffer = make_buffer(sdimm_id=0, total=2)
        foreign_leaf = owned_leaf(make_buffer(sdimm_id=1), 0)
        with pytest.raises(ValueError):
            buffer.access(1, foreign_leaf, Op.READ, None)

    def test_dummy_append_is_free(self):
        buffer = make_buffer()
        assert buffer.append(None) == 0
        assert len(buffer.queue) == 0

    def test_queue_overflow_propagates(self):
        buffer = make_buffer(queue_capacity=2, p=0.0)
        leaf = owned_leaf(buffer)
        buffer.append(Block(1, leaf, bytes(16)))
        buffer.append(Block(2, leaf, bytes(16)))
        with pytest.raises(TransferQueueOverflow):
            buffer.append(Block(3, leaf, bytes(16)))

    def test_departure_services_queue(self):
        """When a block migrates away, a queued block fills the vacancy."""
        buffer = make_buffer()
        leaf = owned_leaf(buffer, 5)
        buffer.append(Block(50, leaf, b"W" * 16))
        # access blocks repeatedly until one draws a foreign new leaf
        serviced = False
        for address in range(40):
            buffer.access(address, owned_leaf(buffer, address % 4),
                          Op.WRITE, bytes(16))
            if buffer.queue.vacancy_services > 0:
                serviced = True
                break
        assert serviced
        assert 50 in buffer.oram.stash or 50 not in buffer.queue

    def test_drain_spends_dummy_access(self):
        buffer = make_buffer(p=1.0)
        before = buffer.oram.dummy_access_count
        leaf = owned_leaf(buffer, 0)
        drains = buffer.append(Block(7, leaf, b"D" * 16))
        assert drains == 1
        assert buffer.oram.dummy_access_count == before + 1
        # the drained block left the queue and is retrievable at its leaf
        assert 7 not in buffer.queue
        outcome = buffer.access(7, leaf, Op.READ, None)
        assert outcome.data == b"D" * 16

    def test_write_requires_full_payload(self):
        buffer = make_buffer()
        with pytest.raises(ValueError):
            buffer.access(1, owned_leaf(buffer), Op.WRITE, b"short")


class TestSplitGroupEdges:
    def make_group(self, p=0.0):
        return SplitGroup(
            group_id=0, groups=2, global_levels=7, ways=2,
            blocks_per_bucket=4, block_bytes=16,
            transfer_queue_capacity=8, drain_probability=p,
            rng=DeterministicRng(17, "group-edge"), key=b"edge-key-16byte!")

    def group_leaf(self, group, local=0):
        return (group.group_id << group._local_leaf_bits) | local

    def test_access_block_waiting_in_queue(self):
        group = self.make_group()
        leaf = self.group_leaf(group, 2)
        group.append(Block(42, leaf, b"G" * 16))
        assert 42 in group.queue
        outcome = group.access(42, leaf, Op.READ, None)
        assert outcome.data == b"G" * 16
        assert 42 not in group.queue
        assert group.split.stashes_aligned()

    def test_wrong_group_leaf_rejected(self):
        group = self.make_group()
        foreign = (1 << group._local_leaf_bits)
        with pytest.raises(ValueError):
            group.access(1, foreign, Op.READ, None)

    def test_drain_runs_dummy_split_access(self):
        group = self.make_group(p=1.0)
        accesses_before = group.split.accesses
        drains = group.append(Block(9, self.group_leaf(group), bytes(16)))
        assert drains == 1
        assert group.split.accesses == accesses_before + 1
        assert group.split.stashes_aligned()

    def test_holds_reports_queue_and_stash(self):
        group = self.make_group()
        leaf = self.group_leaf(group, 1)
        assert not group.holds(5)
        group.append(Block(5, leaf, bytes(16)))
        assert group.holds(5)

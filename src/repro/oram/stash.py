"""The Path ORAM stash and the greedy path write-back.

The stash temporarily holds blocks read off a path (plus any that could not
be evicted earlier).  Write-back walks the just-read path from the *leaf up*
and greedily packs each bucket with stash blocks whose assigned leaf shares
the path at that level — the standard Path ORAM eviction that keeps the
stash small with overwhelming probability for Z >= 4.  The planner,
:func:`plan_greedy_eviction`, also plans the Split protocol's write-back
over its tag-only shadow stash.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, TypeVar

from repro.obs.tracer import CATEGORY_STASH, NULL_TRACER, StepClock, Tracer
from repro.oram.bucket import Block
from repro.oram.tree import TreeGeometry

_Item = TypeVar("_Item")


class Stash:
    """Address-indexed block storage with greedy eviction planning.

    With a tracer attached, every occupancy change is sampled as a
    ``stash_occupancy`` counter on ``lane``, yielding the occupancy
    timeline the paper's stash-size argument (Section II-C) is about.
    """

    def __init__(self, capacity: int, tracer: Tracer = NULL_TRACER,
                 lane: str = "stash", clock: Optional[StepClock] = None):
        self.capacity = capacity
        self._blocks: Dict[int, Block] = {}
        self.peak_occupancy = 0
        self.tracer = tracer
        self.lane = lane
        self.clock = clock if clock is not None else StepClock()

    def _sample(self) -> None:
        self.tracer.counter("stash_occupancy", CATEGORY_STASH, self.lane,
                            self.clock.tick(), len(self._blocks))

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, address: int) -> bool:
        return address in self._blocks

    def get(self, address: int) -> Block:
        return self._blocks[address]

    def add(self, block: Block) -> None:
        """Insert or replace a block (same address replaces in place)."""
        self._blocks[block.address] = block
        self.peak_occupancy = max(self.peak_occupancy, len(self._blocks))
        if self.tracer.enabled:
            self._sample()

    def remove(self, address: int) -> Block:
        block = self._blocks.pop(address)
        if self.tracer.enabled:
            self._sample()
        return block

    def addresses(self) -> List[int]:
        return list(self._blocks)

    @property
    def over_capacity(self) -> bool:
        return len(self._blocks) > self.capacity

    def plan_eviction(self, geometry: TreeGeometry, leaf: int,
                      bucket_capacity: int) -> Dict[int, List[Block]]:
        """Choose which stash blocks go to which bucket of ``leaf``'s path.

        The greedy plan of :func:`plan_greedy_eviction` over the stash's
        blocks; selected blocks are removed from the stash.  Returns a map
        from level to the block list for that level's bucket.
        """
        placement = plan_greedy_eviction(
            geometry, leaf, bucket_capacity,
            [(block, block.leaf) for block in self._blocks.values()])
        for chosen in placement.values():
            for block in chosen:
                del self._blocks[block.address]
        if self.tracer.enabled and placement:
            self._sample()
        return placement


def plan_greedy_eviction(geometry: TreeGeometry, leaf: int,
                         bucket_capacity: int,
                         entries: Iterable[Tuple[_Item, int]]
                         ) -> Dict[int, List[_Item]]:
    """The greedy leaf-to-root write-back plan over ``(item, leaf)`` pairs.

    Walks levels leaf-to-root; at each level, takes (in ``entries`` order)
    up to ``bucket_capacity`` items whose own leaf path passes through that
    bucket (i.e. whose deepest common level with ``leaf`` is at least the
    bucket's level).  Returns a map from level to the items chosen for that
    level's bucket; a level that gets nothing is absent.
    """
    remaining = [(item, geometry.deepest_common_level(item_leaf, leaf))  # reprolint: disable=SEC003 -- leaf comparison inside trusted SRAM; result never leaves the stash
                 for item, item_leaf in entries]
    placement: Dict[int, List[_Item]] = {}
    for level in range(geometry.levels - 1, -1, -1):
        chosen: List[_Item] = []
        survivors = []
        for item, depth in remaining:
            if len(chosen) < bucket_capacity and depth >= level:  # reprolint: disable=SEC003 -- greedy eviction runs in trusted SRAM; write-back shape is the fixed full path regardless of which blocks fit
                chosen.append(item)
            else:
                survivors.append((item, depth))
        remaining = survivors
        if chosen:
            placement[level] = chosen
    return placement

"""Chunk → storage-node placement policies.

Section 6: "These partitions are distributed along storage nodes in a
block-cyclic manner."  Block-cyclic is therefore the default; contiguous and
hash placements exist for the placement-sensitivity ablation (the paper
remarks that Grace Hash "is insensitive to the way data is partitioned
across the storage nodes" while Indexed Join is not).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.rng import splitmix64

__all__ = [
    "PlacementPolicy",
    "BlockCyclicPlacement",
    "ContiguousPlacement",
    "HashPlacement",
]


class PlacementPolicy:
    """Maps a chunk ordinal (its position in the writer's emission order)
    to a storage node id in ``[0, num_nodes)``."""

    def __init__(self, num_nodes: int):
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        self.num_nodes = int(num_nodes)

    def node_for(self, ordinal: int, total: int) -> int:
        """Storage node for the ``ordinal``-th of ``total`` chunks."""
        raise NotImplementedError

    def replicas_for(self, ordinal: int, total: int, k: int) -> Sequence[int]:
        """Node ids for the ``k`` copies of a chunk, primary first.

        Default scheme is chained declustering: replica ``r`` lives on
        ``(primary + r) mod num_nodes``, so a failed node's read load
        spreads over its neighbours instead of doubling one node's load.
        ``k`` must not exceed the node count (a node never holds two copies
        of the same chunk).
        """
        if k < 1:
            raise ValueError(f"replication factor must be >= 1, got {k}")
        if k > self.num_nodes:
            raise ValueError(
                f"replication factor {k} exceeds {self.num_nodes} storage nodes"
            )
        primary = self.node_for(ordinal, total)
        return [(primary + r) % self.num_nodes for r in range(k)]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(num_nodes={self.num_nodes})"


class BlockCyclicPlacement(PlacementPolicy):
    """Deal out blocks of ``block`` consecutive chunks round-robin."""

    def __init__(self, num_nodes: int, block: int = 1):
        super().__init__(num_nodes)
        if block <= 0:
            raise ValueError("block must be positive")
        self.block = int(block)

    def node_for(self, ordinal: int, total: int) -> int:
        if ordinal < 0 or ordinal >= total:
            raise IndexError(f"ordinal {ordinal} out of range [0, {total})")
        return (ordinal // self.block) % self.num_nodes

    def __repr__(self) -> str:
        return f"BlockCyclicPlacement(num_nodes={self.num_nodes}, block={self.block})"


class ContiguousPlacement(PlacementPolicy):
    """Split the chunk sequence into ``num_nodes`` contiguous runs."""

    def node_for(self, ordinal: int, total: int) -> int:
        if ordinal < 0 or ordinal >= total:
            raise IndexError(f"ordinal {ordinal} out of range [0, {total})")
        per_node = -(-total // self.num_nodes)  # ceil division
        return min(ordinal // per_node, self.num_nodes - 1)


class HashPlacement(PlacementPolicy):
    """Pseudo-random but deterministic placement (counter-based splitmix64,
    shared with the fault plans via :mod:`repro.core.rng`)."""

    def __init__(self, num_nodes: int, seed: int = 0):
        super().__init__(num_nodes)
        self.seed = int(seed)

    def node_for(self, ordinal: int, total: int) -> int:
        if ordinal < 0 or ordinal >= total:
            raise IndexError(f"ordinal {ordinal} out of range [0, {total})")
        return splitmix64(self.seed, ordinal) % self.num_nodes

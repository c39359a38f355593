"""Deterministic random-stream handles.

Every source of randomness in the engine flows through a
:class:`RandomStream`, a frozen (seed, stream_id) pair. Identical pairs
reproduce identical variate sequences; there is no global RNG state.
Derived streams (``child``) are collision-free for tags below the
fan-out bound, so pipelines can hand disjoint streams to sub-stages,
inputs and sweep configurations. A sharded draw takes shard i from
``shard(i)``, a fixed-depth path of child tags, so it can draw any
shard alone and stays disjoint beyond ``MAX_CHILDREN`` shards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_CHILD_FANOUT = 1024
MAX_CHILDREN = _CHILD_FANOUT - 1  # child tags run 0 .. MAX_CHILDREN - 1
MAX_SHARDS = MAX_CHILDREN**3  # shard indices run 0 .. MAX_SHARDS - 1 (over 1e9)


@dataclass(frozen=True)
class RandomStream:
    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if self.stream_id < 0:
            raise DomainError(f"stream_id must be >= 0, got {self.stream_id}")

    def generator(self) -> np.random.Generator:
        """A fresh numpy Generator for this stream.

        Repeated calls return generators that emit bit-identical
        sequences, which is what makes sampling operations pure.
        """
        entropy = (self.seed & 0xFFFFFFFFFFFFFFFF, self.stream_id)
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))

    def child(self, tag: int) -> "RandomStream":
        """Derive an independent stream; distinct tags never collide."""
        if not 0 <= tag < MAX_CHILDREN:
            raise DomainError(f"child tag must be in [0, {MAX_CHILDREN - 1}], got {tag}")
        return RandomStream(self.seed, self.stream_id * _CHILD_FANOUT + tag + 1)

    def shard(self, index: int) -> "RandomStream":
        """Stream of shard ``index`` of a draw sharded on this stream.

        It is the descendant reached by the three child tags
        (index // F^2, index // F % F, index % F), F = MAX_CHILDREN. Every
        shard sits at the same depth, so distinct indices reach distinct
        streams; they stay disjoint from every stream outside this one's
        subtree, so the caller must hand no other descendant of it out.
        """
        if not 0 <= index < MAX_SHARDS:
            raise DomainError(f"shard index must be in [0, {MAX_SHARDS - 1}], got {index}")
        f = MAX_CHILDREN
        return self.child(index // (f * f)).child(index // f % f).child(index % f)

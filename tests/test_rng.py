import numpy as np
import pytest

from smoothcert import DomainError, RandomStream


class TestRandomStream:
    def test_reproducible(self):
        g1 = RandomStream(42, 1).generator()
        g2 = RandomStream(42, 1).generator()
        assert np.array_equal(g1.standard_normal(16), g2.standard_normal(16))

    def test_streams_differ(self):
        a = RandomStream(42, 0).generator().standard_normal(16)
        b = RandomStream(42, 1).generator().standard_normal(16)
        assert not np.array_equal(a, b)

    def test_children_distinct(self):
        root = RandomStream(3, 5)
        ids = {root.child(t).stream_id for t in range(100)}
        assert len(ids) == 100
        assert root.child(0).child(1).stream_id != root.child(1).child(0).stream_id

    def test_shards_distinct_past_the_child_fanout(self):
        from smoothcert.rng import MAX_CHILDREN, MAX_SHARDS

        root = RandomStream(3, 5)
        f = MAX_CHILDREN
        picks = list(range(3 * f)) + [f * f - 1, f * f, f * f + 1, 5 * f * f + 7, MAX_SHARDS - 1]
        ids = {root.shard(i).stream_id for i in picks}
        assert len(ids) == len(picks)
        assert ids.isdisjoint(root.child(t).stream_id for t in range(f))
        assert root.shard(f + 2) == root.child(0).child(1).child(2)
        for bad in (-1, MAX_SHARDS):
            with pytest.raises(ValueError):
                root.shard(bad)

    def test_negative_stream_id_rejected(self):
        with pytest.raises(ValueError):
            RandomStream(1, -1)

    def test_seed_is_signed_64_bit(self):
        from smoothcert.rng import SEED_MAX, SEED_MIN

        assert (SEED_MIN, SEED_MAX) == (-(2**63), 2**63 - 1)
        for seed in (SEED_MIN, -1, 0, SEED_MAX):
            assert RandomStream(seed).child(3).seed == seed
        # the generator reads a seed modulo 2^64: past the range, seeds would alias
        for bad in (SEED_MIN - 1, SEED_MAX + 1, 2**64):
            with pytest.raises(DomainError, match="seed must be in"):
                RandomStream(bad)

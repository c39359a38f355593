import numpy as np
import pytest

from smoothcert import RandomStream


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

    def test_negative_stream_id_rejected(self):
        with pytest.raises(ValueError):
            RandomStream(1, -1)

"""HyperLogLog NDV sketch: accuracy, mergeability, serialization (§4.1)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metastore.hll import HyperLogLog


class TestAccuracy:
    @pytest.mark.parametrize("n", [1, 10, 100, 1000, 10_000, 50_000])
    def test_estimate_within_5pct(self, n):
        h = HyperLogLog.of(range(n))
        assert abs(h.cardinality() - n) <= max(2, 0.05 * n)

    def test_empty(self):
        assert HyperLogLog().cardinality() == 0

    def test_duplicates_do_not_inflate(self):
        h = HyperLogLog.of([1, 2, 3] * 1000)
        assert h.cardinality() == pytest.approx(3, abs=1)

    def test_none_and_nan_ignored(self):
        h = HyperLogLog.of([None, float("nan"), 1, 2])
        assert h.cardinality() == pytest.approx(2, abs=1)

    def test_mixed_types(self):
        h = HyperLogLog.of(["a", "b", 1, 2.5])
        assert h.cardinality() == pytest.approx(4, abs=1)

    def test_numpy_scalars(self):
        h = HyperLogLog.of(np.arange(500))
        assert abs(h.cardinality() - 500) <= 25


class TestMerge:
    def test_merge_disjoint(self):
        a = HyperLogLog.of(range(0, 5000))
        b = HyperLogLog.of(range(5000, 10000))
        m = a.merge(b)
        assert abs(m.cardinality() - 10000) <= 500

    def test_merge_overlapping_is_union(self):
        a = HyperLogLog.of(range(0, 6000))
        b = HyperLogLog.of(range(4000, 10000))
        assert abs(a.merge(b).cardinality() - 10000) <= 500

    def test_merge_equals_bulk_build(self):
        """The paper's claim: combination loses no approximation accuracy."""
        a = HyperLogLog.of(range(0, 3000))
        b = HyperLogLog.of(range(3000, 7000))
        bulk = HyperLogLog.of(range(0, 7000))
        assert a.merge(b) == bulk

    def test_merge_commutative(self):
        a, b = HyperLogLog.of(range(100)), HyperLogLog.of(range(50, 200))
        assert a.merge(b) == b.merge(a)

    def test_merge_identity(self):
        a = HyperLogLog.of(range(100))
        assert a.merge(HyperLogLog()) == a

    def test_merge_precision_mismatch_raises(self):
        with pytest.raises(ValueError):
            HyperLogLog(p=10).merge(HyperLogLog(p=12))

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(0, 1000), max_size=200),
        st.lists(st.integers(0, 1000), max_size=200),
    )
    def test_merge_matches_union_property(self, xs, ys):
        merged = HyperLogLog.of(xs).merge(HyperLogLog.of(ys))
        assert merged == HyperLogLog.of(xs + ys)


class TestSerde:
    def test_bad_precision(self):
        with pytest.raises(ValueError):
            HyperLogLog(p=3)
        with pytest.raises(ValueError):
            HyperLogLog(p=19)

"""Additive statistics (§4.1): collection and lossless merge."""
import pandas as pd
import pytest

from repro.metastore.stats import ColumnStats, TableStats, collect_stats


def _pdf(lo, hi):
    return pd.DataFrame({"k": range(lo, hi), "v": [float(i) * 1.5 for i in range(lo, hi)]})


class TestCollect:
    def test_row_count(self):
        assert collect_stats(_pdf(0, 100)).row_count == 100

    def test_min_max(self):
        s = collect_stats(_pdf(5, 50))
        assert s.column("k").min_value == 5
        assert s.column("k").max_value == 49

    def test_ndv(self):
        s = collect_stats(_pdf(0, 1000))
        assert abs(s.column("k").ndv - 1000) <= 50

    def test_null_count(self):
        s = collect_stats(pd.DataFrame({"k": [1, None, 3, None]}))
        assert s.column("k").null_count == 2
        assert s.column("k").min_value == 1

    def test_all_null_column(self):
        s = collect_stats(pd.DataFrame({"k": [None, None]}))
        assert s.column("k").min_value is None
        assert s.column("k").ndv == 0

    def test_timestamps(self):
        s = collect_stats(pd.DataFrame({"d": pd.to_datetime(["2018-01-01", "2018-06-01"])}))
        assert s.column("d").min_value.year == 2018


class TestMerge:
    def test_additive_row_count(self):
        merged = collect_stats(_pdf(0, 60)).merge(collect_stats(_pdf(60, 100)))
        assert merged.row_count == 100

    def test_additive_min_max(self):
        merged = collect_stats(_pdf(50, 100)).merge(collect_stats(_pdf(0, 50)))
        assert merged.column("k").min_value == 0
        assert merged.column("k").max_value == 99

    def test_additive_ndv_no_accuracy_loss(self):
        """Partition-wise merge == bulk collection, the HMS requirement."""
        a = collect_stats(_pdf(0, 400))
        b = collect_stats(_pdf(400, 1000))
        bulk = collect_stats(_pdf(0, 1000))
        assert a.merge(b).column("k").ndv == bulk.column("k").ndv

    def test_merge_disjoint_column_sets(self):
        a = TableStats(1, {"x": ColumnStats(min_value=1, max_value=1)})
        b = TableStats(2, {"y": ColumnStats(min_value=9, max_value=9)})
        m = a.merge(b)
        assert m.row_count == 3 and set(m.columns) == {"x", "y"}

    def test_merge_with_nulls(self):
        a = collect_stats(pd.DataFrame({"k": [1, None]}))
        b = collect_stats(pd.DataFrame({"k": [None, 5]}))
        m = a.merge(b)
        assert m.column("k").null_count == 2
        assert (m.column("k").min_value, m.column("k").max_value) == (1, 5)

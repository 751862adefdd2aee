"""ACID write/read behaviour (§3.2): visibility, snapshot isolation, DML."""
import pandas as pd
import pytest

from repro.oracle import assert_equivalent
from repro.storage import HIDDEN_COLS
from tests.conftest import rows, spark_jobs


def scan_pdf(acid, table, **kw):
    return (
        acid.reader.scan(table, **kw)
        .toPandas()
        .sort_values(["k"])
        .reset_index(drop=True)
    )


class TestInsertVisibility:
    def test_committed_insert_visible(self, acid):
        acid.run_insert("t", rows([1, 2], [1.0, 2.0], [10, 10]))
        assert scan_pdf(acid, "t")["k"].tolist() == [1, 2]

    def test_open_txn_invisible(self, acid):
        t = acid.begin()
        acid.writer.insert(t, "t", rows([1], [1.0], [10]))
        assert acid.reader.scan("t").count() == 0  # writer still open
        acid.hms.txns.commit(t)
        assert acid.reader.scan("t").count() == 1

    def test_aborted_txn_invisible(self, acid):
        t = acid.begin()
        acid.writer.insert(t, "t", rows([1], [1.0], [10]))
        acid.hms.txns.abort(t)
        assert acid.reader.scan("t").count() == 0

    def test_snapshot_pinned_scan(self, acid):
        """A scan bound to an old WriteId list must not see later commits."""
        acid.run_insert("t", rows([1], [1.0], [10]))
        wids = acid.hms.txns.valid_write_ids(acid.hms.txns.snapshot(), "t")
        acid.run_insert("t", rows([2], [2.0], [10]))
        assert scan_pdf(acid, "t", wids=wids)["k"].tolist() == [1]
        assert scan_pdf(acid, "t")["k"].tolist() == [1, 2]

    def test_since_scan_reads_only_what_the_list_misses(self, acid):
        """The Spark twin of ``layout.visible_rows``' ``since``."""
        acid.run_insert("t", rows([1], [1.0], [10]))
        t = acid.begin()
        acid.writer.insert(t, "t", rows([2], [2.0], [10]))
        since = acid.hms.txns.valid_write_ids(acid.hms.txns.snapshot(), "t")
        acid.run_insert("t", rows([3], [3.0], [10]))
        acid.hms.txns.commit(t)
        assert scan_pdf(acid, "t", since=since)["k"].tolist() == [2, 3]

    def test_overwrite_replaces_rows_for_later_snapshots(self, acid):
        acid.run_insert("u", rows([1, 2], [1.0, 2.0]))
        old = acid.hms.txns.valid_write_ids(acid.hms.txns.snapshot(), "u")
        t = acid.begin()
        acid.writer.overwrite(t, "u", rows([7], [7.0]))
        assert scan_pdf(acid, "u")["k"].tolist() == [1, 2]  # writer still open
        acid.hms.txns.commit(t)
        assert scan_pdf(acid, "u")["k"].tolist() == [7]
        assert scan_pdf(acid, "u", wids=old)["k"].tolist() == [1, 2]

    def test_multi_partition_insert(self, acid):
        acid.run_insert("t", rows([1, 2, 3], [1.0, 2.0, 3.0], [10, 20, 10]))
        assert acid.hms.partitions("t") == ["p=10", "p=20"]
        assert scan_pdf(acid, "t")["k"].tolist() == [1, 2, 3]

    def test_partition_restricted_scan(self, acid):
        acid.run_insert("t", rows([1, 2, 3], [1.0, 2.0, 3.0], [10, 20, 10]))
        got = scan_pdf(acid, "t", partitions=["p=10"])
        assert got["k"].tolist() == [1, 3]

    def test_unpartitioned_table(self, acid):
        acid.run_insert("u", rows([5, 6], [0.5, 0.6]))
        assert scan_pdf(acid, "u")["k"].tolist() == [5, 6]

    def test_hidden_columns_exposed_on_request(self, acid):
        wid = acid.run_insert("t", rows([1], [1.0], [10]))
        got = acid.reader.scan("t", include_hidden=True).toPandas()
        assert list(got.columns) == ["k", "v", "p"] + list(HIDDEN_COLS)
        assert got["__writeid"].tolist() == [wid]
        assert got["__rowid"].tolist() == [0]

    def test_empty_table_scan_has_schema(self, acid):
        df = acid.reader.scan("t")
        assert df.columns == ["k", "v", "p"]
        assert df.count() == 0

    def test_missing_column_rejected(self, acid):
        t = acid.begin()
        with pytest.raises(ValueError, match="missing columns"):
            acid.writer.insert(t, "t", pd.DataFrame({"k": [1]}))

    def test_column_projection(self, acid):
        acid.run_insert("t", rows([1], [9.0], [10]))
        assert acid.reader.scan("t", columns=["v"]).columns == ["v"]

    def test_stats_merged_on_insert(self, acid):
        acid.run_insert("t", rows([1, 2], [1.0, 2.0], [10, 10]))
        acid.run_insert("t", rows([9], [9.0], [20]))
        s = acid.hms.stats("t")
        assert s.row_count == 3
        assert s.column("k").max_value == 9
        assert acid.hms.partition_stats("t", "p=20").row_count == 1


class TestDelete:
    def _seed(self, acid):
        acid.run_insert("t", rows([1, 2, 3, 4], [1.0, 2.0, 3.0, 4.0], [10, 10, 20, 20]))

    def _victims(self, acid, ks):
        full = acid.reader.scan("t", include_hidden=True).toPandas()
        return full[full["k"].isin(ks)]

    def test_delete_removes_rows(self, acid):
        self._seed(acid)
        t = acid.begin()
        acid.writer.delete(t, "t", self._victims(acid, [2, 3]))
        acid.hms.txns.commit(t)
        assert scan_pdf(acid, "t")["k"].tolist() == [1, 4]

    def test_uncommitted_delete_invisible(self, acid):
        self._seed(acid)
        t = acid.begin()
        acid.writer.delete(t, "t", self._victims(acid, [1]))
        assert scan_pdf(acid, "t")["k"].tolist() == [1, 2, 3, 4]
        acid.hms.txns.commit(t)
        assert scan_pdf(acid, "t")["k"].tolist() == [2, 3, 4]

    def test_aborted_delete_invisible(self, acid):
        self._seed(acid)
        t = acid.begin()
        acid.writer.delete(t, "t", self._victims(acid, [1]))
        acid.hms.txns.abort(t)
        assert scan_pdf(acid, "t")["k"].tolist() == [1, 2, 3, 4]

    def test_delete_requires_hidden_cols(self, acid):
        self._seed(acid)
        t = acid.begin()
        with pytest.raises(ValueError, match="hidden column"):
            acid.writer.delete(t, "t", rows([1], [1.0], [10]))

    def test_concurrent_deletes_conflict(self, acid):
        """First-commit-wins on overlapping partitions (§3.2)."""
        from repro.metastore import WriteConflict

        self._seed(acid)
        v = self._victims(acid, [1])
        t1, t2 = acid.begin(), acid.begin()
        acid.writer.delete(t1, "t", v)
        acid.writer.delete(t2, "t", v)
        acid.hms.txns.commit(t1)
        with pytest.raises(WriteConflict):
            acid.hms.txns.commit(t2)
        assert scan_pdf(acid, "t")["k"].tolist() == [2, 3, 4]


class TestUpdate:
    def test_update_is_delete_plus_insert(self, acid):
        acid.run_insert("t", rows([1, 2], [1.0, 2.0], [10, 10]))
        full = acid.reader.scan("t", include_hidden=True).toPandas()
        victims = full[full["k"] == 2]
        t = acid.begin()
        wid = acid.writer.update(t, "t", victims, rows([2], [20.0], [10]))
        acid.hms.txns.commit(t)
        got = scan_pdf(acid, "t")
        assert got.loc[got["k"] == 2, "v"].tolist() == [20.0]
        # both halves share the WriteId
        hidden = acid.reader.scan("t", include_hidden=True).toPandas()
        assert hidden.loc[hidden["k"] == 2, "__writeid"].tolist() == [wid]

    def test_update_moving_partition(self, acid):
        acid.run_insert("t", rows([1], [1.0], [10]))
        full = acid.reader.scan("t", include_hidden=True).toPandas()
        t = acid.begin()
        acid.writer.update(t, "t", full, rows([1], [1.0], [30]))
        acid.hms.txns.commit(t)
        got = scan_pdf(acid, "t")
        assert got["p"].tolist() == [30]


class TestOracle:
    def test_scan_matches_duckdb(self, acid):
        src = rows([1, 2, 3, 4, 5], [1.0, 2.0, 3.0, 4.0, 5.0], [10, 10, 20, 20, 30])
        acid.run_insert("t", src)
        got = acid.reader.scan("t").selectExpr("k", "v", "p")
        assert_equivalent(got, "SELECT k, v, p FROM src", src=src)

    def test_post_dml_state_matches_duckdb(self, acid):
        acid.run_insert("t", rows([1, 2, 3], [1.0, 2.0, 3.0], [10, 10, 20]))
        full = acid.reader.scan("t", include_hidden=True).toPandas()
        t = acid.begin()
        acid.writer.delete(t, "t", full[full["k"] == 2])
        acid.hms.txns.commit(t)
        expected = pd.DataFrame({"k": [1, 3], "v": [1.0, 3.0], "p": [10, 20]})
        assert_equivalent(
            acid.reader.scan("t"), "SELECT * FROM expected", expected=expected
        )


class TestScanBuild:
    def test_many_files_build_without_a_listing_job(self, spark, acid):
        """The reader resolves the file list itself: with more files than
        Spark's parallel-listing threshold (32), building the scan still
        launches no Spark job."""
        n = 40
        src = rows(list(range(n)), [float(i) for i in range(n)], list(range(n)))
        acid.run_insert("t", src)  # one delta file per partition
        wids = acid.hms.txns.valid_write_ids(acid.hms.txns.snapshot(), "t")
        assert len(acid.reader.visible_files("t", wids)[0]) == n
        with spark_jobs(spark) as jobs:
            df = acid.reader.scan("t")
        assert jobs == []
        assert_equivalent(df.selectExpr("k", "v", "p"), "SELECT k, v, p FROM src", src=src)

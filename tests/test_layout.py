"""Directory naming, partition keys, row-group metadata (Parquet footer +
Bloom sidecar), Bloom filters."""
import datetime
import json
import math
from pathlib import Path

import pandas as pd
import pyarrow.parquet as pq
import pytest

from repro.bloom import BloomFilter
from repro.core.expr import col
from repro.llap import IOElevator, LlapCache
from repro.metastore import Column, HiveMetastore, Table, ValidWriteIdList
from repro.storage import AcidWriter, Compactor
from repro.storage.layout import (
    AcidDir,
    DirKind,
    base_dir,
    bucket_file,
    delete_delta_dir,
    delta_dir,
    parse_acid_dir,
    partition_key,
    partition_values_from_key,
    read_file_meta,
    select_dirs,
    visible_rows,
    write_data_file,
)


class TestNaming:
    def test_base(self):
        assert base_dir(100) == "base_0000100"
        assert parse_acid_dir("base_0000100") == (DirKind.BASE, 0, 100)

    def test_delta(self):
        assert delta_dir(101, 101) == "delta_0000101_0000101"
        assert parse_acid_dir("delta_0000101_0000105") == (DirKind.DELTA, 101, 105)

    def test_delete_delta(self):
        assert parse_acid_dir(delete_delta_dir(102, 102)) == (
            DirKind.DELETE_DELTA,
            102,
            102,
        )

    def test_non_acid_dirs_ignored(self):
        assert parse_acid_dir("tmp_xyz") is None
        assert parse_acid_dir("base_") is None
        assert parse_acid_dir("delta_1") is None

    def test_bucket_file(self):
        assert bucket_file(3) == "bucket_00003.parquet"


def acid_dirs(*names: str) -> list[AcidDir]:
    return [AcidDir(Path(n), *parse_acid_dir(n)) for n in names]


def selected(names, hwm, invalid=()):
    wids = ValidWriteIdList("t", hwm, frozenset(invalid))
    data, deletes = select_dirs(acid_dirs(*names), wids)
    return [d.path.name for d in data], [d.path.name for d in deletes]


class TestSelectDirs:
    """One snapshot-selection rule (Hive's ``getAcidState``) for the reader,
    the LLAP daemon and the compactor."""

    def test_base_supersedes_covered_deltas(self):
        names = [base_dir(2), delta_dir(1, 1), delta_dir(2, 2), delta_dir(3, 3),
                 delete_delta_dir(2, 2), delete_delta_dir(3, 3)]
        assert selected(names, 3) == (
            [base_dir(2), delta_dir(3, 3)], [delete_delta_dir(3, 3)]
        )

    def test_wider_delta_supersedes_narrower(self):
        names = [delta_dir(1, 1), delta_dir(1, 2), delta_dir(2, 2), delta_dir(3, 3),
                 delete_delta_dir(2, 2), delete_delta_dir(2, 3), delete_delta_dir(3, 3)]
        assert selected(names, 3) == (
            [delta_dir(1, 2), delta_dir(3, 3)], [delete_delta_dir(2, 3)]
        )

    def test_newest_base_at_or_below_watermark(self):
        names = [base_dir(1), base_dir(2), base_dir(4), delta_dir(3, 3), delta_dir(4, 4)]
        assert selected(names, 3) == ([base_dir(2), delta_dir(3, 3)], [])
        assert selected(names, 4) == ([base_dir(4)], [])

    def test_future_and_invalid_single_writes_skipped(self):
        names = [delta_dir(1, 1), delta_dir(2, 2), delta_dir(3, 3), delta_dir(4, 6)]
        assert selected(names, 3, invalid={2}) == ([delta_dir(1, 1), delta_dir(3, 3)], [])
        # a multi-write delta reaching into the snapshot is read and
        # filtered per row
        assert selected(names, 5, invalid={2}) == (
            [delta_dir(1, 1), delta_dir(3, 3), delta_dir(4, 6)], []
        )

    def test_invalid_base_skipped(self):
        """An INSERT OVERWRITE's base is not read while its writer is open
        or after it aborted; the directories it would cover are."""
        names = [delta_dir(1, 1), base_dir(2), delta_dir(3, 3)]
        assert selected(names, 3, invalid={2}) == (
            [delta_dir(1, 1), delta_dir(3, 3)], []
        )
        assert selected(names, 3) == ([base_dir(2), delta_dir(3, 3)], [])

    def test_empty(self):
        assert selected([], 5) == ([], [])


class TestVisibleRows:
    def _rows(self, wids):
        return pd.DataFrame({
            "k": range(len(wids)),
            "__writeid": wids,
            "__fileid": [0] * len(wids),
            "__rowid": range(len(wids)),
        })

    def test_since_keeps_rows_the_stored_list_does_not_see(self):
        """An incremental rebuild's delta: rows the statement sees minus
        those the view's list saw — including a WriteId that was open,
        below that list's watermark, when the view was built."""
        now = ValidWriteIdList("t", 4, frozenset({4}))
        since = ValidWriteIdList("t", 3, frozenset({2}))
        out = visible_rows(self._rows([1, 2, 3, 4, 5]), None, now, since)
        assert out["__writeid"].tolist() == [2]
        assert visible_rows(self._rows([1, 2, 3]), None, now)["k"].tolist() == [0, 1, 2]


class TestPartitionKeys:
    def test_single(self):
        assert partition_key(["p"], (5,)) == "p=5"

    def test_multi(self):
        assert partition_key(["a", "b"], (1, "x")) == "a=1/b=x"

    def test_empty(self):
        assert partition_key([], ()) == ""

    def test_roundtrip(self):
        assert partition_values_from_key("a=1/b=x") == {"a": "1", "b": "x"}
        assert partition_values_from_key("") == {}


class TestFileMeta:
    """Row-group metadata comes from the Parquet footer; Blooms from a sidecar."""

    def _pdf(self, n=25_000):
        return pd.DataFrame({"k": range(n), "v": [i * 0.5 for i in range(n)]})

    def _write(self, tmp_path, pdf, row_group_rows=10_000, bloom_cols=()):
        f = tmp_path / "bucket_00000.parquet"
        write_data_file(f, pdf, row_group_rows, bloom_cols)
        return f

    def test_row_groups_chunked(self, tmp_path):
        f = self._write(tmp_path, self._pdf())
        meta = read_file_meta(f)
        assert [g.n_rows for g in meta.row_groups] == [10_000, 10_000, 5_000]
        assert meta.n_rows == 25_000
        assert pq.read_metadata(f).num_row_groups == 3  # physical row groups

    def test_min_max_per_group(self, tmp_path):
        meta = read_file_meta(self._write(tmp_path, self._pdf()))
        assert meta.row_groups[0].min_max["k"] == (0, 9_999)
        assert meta.row_groups[2].min_max["k"] == (20_000, 24_999)

    def test_blooms_only_for_configured_columns(self, tmp_path):
        meta = read_file_meta(self._write(tmp_path, self._pdf(100), 50, ("k",)))
        assert "k" in meta.row_groups[0].blooms
        assert "v" not in meta.row_groups[0].blooms

    def test_bloom_membership(self, tmp_path):
        meta = read_file_meta(self._write(tmp_path, self._pdf(100), 100, ("k",)))
        b = meta.row_groups[0].blooms["k"]
        assert b.might_contain(42)
        assert not b.might_contain(-1)

    def test_roundtrip(self, tmp_path):
        f = self._write(tmp_path, self._pdf(1000), 400, ("k",))
        got = read_file_meta(f)
        assert got.n_rows == 1000
        assert [g.start for g in got.row_groups] == [0, 400, 800]
        assert got.row_groups[1].min_max["k"] == (400, 799)
        assert got.row_groups[0].blooms["k"].might_contain(5)
        # the sidecar holds one Bloom entry per row group and nothing else
        side = json.loads(f.with_suffix(".meta.json").read_text())
        assert [sorted(g) for g in side] == [["k"]] * 3

    def test_missing_sidecar(self, tmp_path):
        f = self._write(tmp_path, self._pdf(1000), 400)
        assert not f.with_suffix(".meta.json").exists()
        got = read_file_meta(f)
        assert [g.n_rows for g in got.row_groups] == [400, 400, 200]
        assert got.row_groups[2].min_max["v"] == (400.0, 499.5)
        assert all(not g.blooms for g in got.row_groups)

    @pytest.mark.parametrize(
        "literal",
        [pd.Timestamp("2018-09-01"), datetime.date(2018, 9, 1), "2018-09-01"],
        ids=["timestamp", "date", "iso_string"],
    )
    def test_timestamp_range_skips_row_groups(self, tmp_path, literal):
        pdf = pd.DataFrame({"d": pd.date_range("2018-01-01", periods=300, freq="D")})
        f = self._write(tmp_path, pdf, 100)
        # footer min/max are native timestamps, not encoded strings
        assert read_file_meta(f).row_groups[0].min_max["d"][0] == pd.Timestamp("2018-01-01")
        e = IOElevator(LlapCache())
        got = e.read_file(str(f), ["d"], [col("d").ge(literal)])
        assert e.stats.row_groups_skipped_minmax == 2  # Jan–Jul groups
        assert e.stats.row_groups_read == 1
        assert (got["d"] >= pd.Timestamp("2018-09-01")).sum() == 57


class TestAcidFileLayout:
    """Writer and compactor files: physical row groups of ``row_group_rows``,
    footer min/max for pruning, and a sidecar only for Bloom columns."""

    @pytest.fixture
    def env(self, tmp_path):
        hms = HiveMetastore()
        cols = [Column("k", "bigint"), Column("v", "double")]
        hms.create_table(Table("bloomed", cols, properties={"bloom.filter.columns": "k"}))
        hms.create_table(Table("plain", cols))
        writer = AcidWriter(hms, tmp_path, row_group_rows=100)
        compactor = Compactor(hms, tmp_path, row_group_rows=100)
        return hms, writer, compactor, tmp_path

    @staticmethod
    def _rows(lo, hi):
        return pd.DataFrame({"k": range(lo, hi), "v": [float(i) for i in range(lo, hi)]})

    @pytest.mark.parametrize("table", ["bloomed", "plain"])
    def test_insert_and_major_compact(self, env, table):
        hms, writer, compactor, warehouse = env
        for lo, hi in ((0, 250), (250, 430)):
            txn = hms.txns.open_txn()
            writer.insert(txn, table, self._rows(lo, hi))
            hms.txns.commit(txn)
        deltas = sorted((warehouse / table).rglob("*.parquet"))
        assert [pq.read_metadata(f).num_row_groups for f in deltas] == [
            math.ceil(250 / 100),
            math.ceil(180 / 100),
        ]
        txn = hms.txns.open_txn()
        victims = pd.read_parquet(deltas[0])
        writer.delete(txn, table, victims[victims["k"] < 10])
        hms.txns.commit(txn)

        assert compactor.major_compact(table)
        compactor.clean()
        [base] = (warehouse / table).rglob("*.parquet")
        assert pq.read_metadata(base).num_rows == 420
        assert pq.read_metadata(base).num_row_groups == math.ceil(420 / 100)
        sidecars = list((warehouse / table).rglob("*.meta.json"))
        if table == "bloomed":
            assert sidecars == [base.with_suffix(".meta.json")]
            assert [sorted(g) for g in json.loads(sidecars[0].read_text())] == [["k"]] * 5
        else:
            assert sidecars == []

        # groups hold k in [10,110) [110,210) [210,310) [310,410) [410,430)
        e = IOElevator(LlapCache())
        got = e.read_file(str(base), ["k"], [col("k").ge(350)])
        assert e.stats.row_groups_skipped_minmax == 3
        assert e.stats.row_groups_read == 2
        assert sorted(got["k"])[-80:] == list(range(350, 430))


class TestBloomFilter:
    def test_no_false_negatives(self):
        b = BloomFilter.of(range(1000))
        assert all(b.might_contain(i) for i in range(1000))

    def test_fpp_reasonable(self):
        b = BloomFilter.of(range(1000), fpp=0.01)
        fp = sum(b.might_contain(i) for i in range(10_000, 20_000))
        assert fp < 300  # 3% at target 1%

    def test_none_excluded(self):
        b = BloomFilter.of([1, None, 2])
        assert not b.might_contain(None)

    def test_serde_roundtrip(self):
        b = BloomFilter.of(["x", "y", "z"])
        c = BloomFilter.from_b64(b.to_b64())
        assert c.might_contain("x") and not c.might_contain("w")

    def test_strings_and_ints_distinct(self):
        b = BloomFilter.of([1])
        assert not b.might_contain("1")

    @pytest.mark.parametrize("n", [1, 10, 100])
    def test_capacity_sizing(self, n):
        b = BloomFilter.for_capacity(n)
        assert b.m >= 64 and b.k >= 1

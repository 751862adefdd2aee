"""LLAP substrate (§5.1): LRFU, chunk cache, I/O elevator, daemon scans
and the scan → filter → [map join →] aggregate fragments the daemon runs."""
import datetime as dt
import os
import sys
import threading
from dataclasses import asdict

import pandas as pd
import pyarrow.parquet as pq
import pytest

import repro.core.hs2 as hs2_module
import repro.llap.elevator as elevator
from repro.core.compile import compile_plan
from repro.core.expr import AggCall, And, Col, Func, InList, IsNull, Not, Or, col, holds
from repro.core.hs2 import _HS2ExecutionContext
from repro.core.plan import Aggregate, Filter, Join, Scan
from repro.core.semijoin import RuntimeFilter
from repro.llap import ChunkKey, IOElevator, LlapCache, LlapDaemon, LRFUPolicy
from repro.metastore import Column, Table
from repro.oracle import assert_equivalent
from repro.storage.layout import bucket_file, write_data_file
from repro.workloads import tpcds_lite
from tests.conftest import Warehouse, columns_of, make_acid_env, rows


# ---------------------------------------------------------------------------
# LRFU policy
# ---------------------------------------------------------------------------


class TestLRFU:
    def test_lru_extreme_evicts_oldest(self):
        p = LRFUPolicy(lam=1.0)
        for k in "abc":
            p.record_access(k)
        assert p.evict_candidate() == "a"

    def test_lfu_extreme_evicts_least_frequent(self):
        p = LRFUPolicy(lam=0.0)
        for _ in range(5):
            p.record_access("hot")
        p.record_access("cold")
        p.record_access("warm")
        p.record_access("warm")
        assert p.evict_candidate() == "cold"

    def test_mixed_rewards_refrequency(self):
        p = LRFUPolicy(lam=0.2)
        for _ in range(3):
            p.record_access("frequent")
        p.record_access("recent")
        assert p.evict_candidate() == "recent"

    def test_remove(self):
        p = LRFUPolicy()
        p.record_access("a")
        p.remove("a")
        assert p.evict_candidate() is None

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            LRFUPolicy(lam=1.5)


# ---------------------------------------------------------------------------
# Chunk cache
# ---------------------------------------------------------------------------


@pytest.fixture
def data_file(tmp_path):
    f = tmp_path / "bucket_00000.parquet"
    pd.DataFrame({"k": range(1000), "v": [i * 0.5 for i in range(1000)]}).to_parquet(f)
    return str(f)


class TestCache:
    def test_miss_then_hit(self, data_file):
        c = LlapCache()
        key = ChunkKey(data_file, 0, "k")
        assert c.get_chunk(key) is None
        c.put_chunk(key, pd.Series(range(100)))
        assert c.get_chunk(key) is not None
        assert c.stats.data_hits == 1 and c.stats.data_misses == 1

    def test_file_update_invalidates(self, data_file):
        """The ETag-style (size, mtime) version check (§5.1): the metadata
        lookup of a read finds the file changed and drops its metadata and
        chunks."""
        import time

        c = LlapCache()
        c.get_meta(data_file)
        key = ChunkKey(data_file, 0, "k")
        c.put_chunk(key, pd.Series(range(100)))
        time.sleep(0.01)
        pd.DataFrame({"k": range(2000), "v": range(2000)}).to_parquet(data_file)
        os.utime(data_file)
        assert len(c.get_meta(data_file).row_groups) == 1
        assert c.get_chunk(key) is None and len(c) == 0
        assert c.stats.meta_misses == 2 and c.stats.data_misses == 1
        assert c.stats.invalidations == 1

    def test_capacity_eviction(self, data_file):
        c = LlapCache(capacity_bytes=20_000)
        for i in range(10):
            c.put_chunk(ChunkKey(data_file, i, "k"), pd.Series(range(500)))
        assert c.used_bytes <= 20_000
        assert c.stats.evictions > 0

    def test_oversized_chunk_rejected(self, data_file):
        c = LlapCache(capacity_bytes=10)
        c.put_chunk(ChunkKey(data_file, 0, "k"), pd.Series(range(1000)))
        assert len(c) == 0

    def test_metadata_cache_hit(self, tmp_path):
        f = tmp_path / "bucket_00000.parquet"
        write_data_file(f, pd.DataFrame({"k": range(100)}), row_group_rows=50)
        c = LlapCache()
        assert len(c.get_meta(f).row_groups) == 2
        assert len(c.get_meta(f).row_groups) == 2
        assert c.stats.meta_hits == 1 and c.stats.meta_misses == 1

    def test_concurrent_put_get(self, data_file):
        """Executor threads share one cache: LRFU eviction must not race
        inserts, and the byte count must match the chunks actually held."""
        chunk = pd.Series(range(100))
        c = LlapCache(capacity_bytes=4 * int(chunk.memory_usage(deep=True)))
        errors = []

        def work(tid):
            try:
                for i in range(2_000):
                    key = ChunkKey(data_file, (tid * 7 + i) % 32, "k")
                    if c.get_chunk(key) is None:
                        c.put_chunk(key, chunk.copy())
            except Exception as exc:  # noqa: BLE001 - any raise is the failure
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert c.stats.evictions > 0
        assert c.used_bytes == sum(ch.nbytes for ch in c._chunks.values())


# ---------------------------------------------------------------------------
# I/O elevator
# ---------------------------------------------------------------------------


@pytest.fixture
def indexed_file(tmp_path):
    f = tmp_path / "bucket_00000.parquet"
    pdf = pd.DataFrame({"k": range(1000), "v": [i * 0.5 for i in range(1000)]})
    write_data_file(f, pdf, row_group_rows=100, bloom_cols=("k",))
    return str(f)


class TestElevator:
    def test_concurrent_reads_lose_no_counts(self, tmp_path):
        """Executor threads share one elevator: its counters after reads on
        4 threads equal those after the same reads on one thread."""
        files = []
        for i in range(4):
            f = tmp_path / bucket_file(i)
            ks = range(i * 2000, (i + 1) * 2000, 2)  # even keys, 50 per group
            write_data_file(
                f, pd.DataFrame({"k": ks, "v": [0.5] * 1000}), 50, bloom_cols=("k",)
            )
            files.append(str(f))
        # min/max skips the groups with no listed key in range, the Bloom
        # filters those whose only listed keys in range are odd ones; the
        # runtime filter keeps multiples of 4
        wanted = [*range(1, 8000, 200), *range(0, 8000, 400)]
        preds = [col("k").lt(7000), col("k").isin(*wanted)]
        runtime = (RuntimeFilter("k", tuple(range(0, 8000, 4))),)
        reads_per_thread = 6

        def work(elevator):
            for _ in range(reads_per_thread):
                for f in files:
                    elevator.read_file(f, ["k", "v"], preds, runtime)

        serial = IOElevator(LlapCache())
        for _ in range(4):
            work(serial)
        concurrent = IOElevator(LlapCache())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(concurrent,)) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        one_pass = dict(
            row_groups_total=80, row_groups_read=28, row_groups_skipped_minmax=45,
            row_groups_skipped_bloom=7, rows_filtered_by_runtime_bloom=700,
            rows_filtered_pushed=682,
        )
        passes = 4 * reads_per_thread
        assert asdict(serial.stats) == {k: n * passes for k, n in one_pass.items()}
        assert asdict(concurrent.stats) == asdict(serial.stats)

    def test_full_read(self, indexed_file):
        e = IOElevator(LlapCache())
        pdf = e.read_file(indexed_file, ["k", "v"])
        assert len(pdf) == 1000
        assert e.stats.row_groups_read == 10

    def test_minmax_skipping(self, indexed_file):
        """Range predicate reads only overlapping row groups."""
        e = IOElevator(LlapCache())
        pdf = e.read_file(indexed_file, ["k"], [col("k").ge(850)])
        assert e.stats.row_groups_read == 2  # groups [800,900) and [900,1000)
        assert e.stats.row_groups_skipped_minmax == 8
        assert set(pdf["k"]) >= set(range(850, 1000))

    def test_equality_bloom_skipping(self, indexed_file):
        e = IOElevator(LlapCache())
        e.read_file(indexed_file, ["k"], [col("k").eq(250)])
        assert e.stats.row_groups_read == 1

    def test_inlist_pruning(self, indexed_file):
        e = IOElevator(LlapCache())
        pdf = e.read_file(indexed_file, ["k"], [InList(Col("k"), (5, 905))])
        assert e.stats.row_groups_read == 2
        assert {5, 905} <= set(pdf["k"])

    def test_empty_inlist_skips_everything(self, indexed_file):
        e = IOElevator(LlapCache())
        assert e.read_file(indexed_file, ["k"], [InList(Col("k"), ())]) is None

    def test_cache_warm_second_read(self, indexed_file):
        cache = LlapCache()
        e = IOElevator(cache)
        e.read_file(indexed_file, ["k", "v"])
        before = cache.stats.data_hits
        e.read_file(indexed_file, ["k", "v"])
        assert cache.stats.data_hits == before + 20  # 10 groups × 2 columns

    def test_warm_read_stats_its_file_once(self, indexed_file, monkeypatch):
        """A warm read checks its file's version once, in the metadata
        lookup; its chunk lookups make no system call."""
        cache = LlapCache()
        e = IOElevator(cache)
        e.read_file(indexed_file, ["k", "v"])
        stats = []
        real_stat = os.stat
        monkeypatch.setattr(
            os, "stat", lambda p, *a, **kw: stats.append(str(p)) or real_stat(p, *a, **kw)
        )
        assert len(e.read_file(indexed_file, ["k", "v"])) == 1000
        assert cache.stats.data_hits == 20
        assert stats == [indexed_file]

    def test_metadata_first_no_data_load_for_skipped(self, indexed_file):
        """Skipped chunks never enter the cache (no cache trashing)."""
        cache = LlapCache()
        e = IOElevator(cache)
        e.read_file(indexed_file, ["k"], [col("k").ge(950)])
        assert len(cache) == 1  # only the last group's k-chunk

    def test_runtime_bloom_filters_rows(self, indexed_file):
        """The runtime filter keeps exactly its value set's rows of the one
        row group the pushed range reads."""
        e = IOElevator(LlapCache())
        runtime = (RuntimeFilter("k", (3, 1, 2)),)
        pdf = e.read_file(indexed_file, ["k"], [col("k").le(99)], runtime_filters=runtime)
        assert sorted(pdf["k"]) == [1, 2, 3]
        assert e.stats.rows_filtered_by_runtime_bloom == 97
        assert e.stats.rows_filtered_pushed == 0

    def test_no_sidecar_fallback(self, tmp_path):
        """A file without a Bloom sidecar is pruned by its footer alone."""
        f = tmp_path / "plain.parquet"
        pd.DataFrame({"k": range(10)}).to_parquet(f)
        e = IOElevator(LlapCache())
        assert len(e.read_file(str(f), ["k"])) == 10
        assert e.read_file(str(f), ["k"], [col("k").gt(9)]) is None
        assert e.stats.row_groups_skipped_minmax == 1

    def test_pushed_filters_filter_rows(self, indexed_file):
        """Rows of a read row group that a pushed predicate rejects are
        removed in the elevator and counted."""
        e = IOElevator(LlapCache())
        pdf = e.read_file(indexed_file, ["k", "v"], [col("k").ge(850), col("v").lt(460.0)])
        assert sorted(pdf["k"]) == list(range(850, 920))
        assert e.stats.row_groups_read == 2
        assert e.stats.rows_filtered_pushed == 200 - 70

    def test_unevaluable_or_unread_predicate_keeps_rows(self, indexed_file):
        """A predicate on a column not read, or that pandas cannot evaluate,
        is left to the plan's Filter."""
        e = IOElevator(LlapCache())
        preds = [col("v").ne(10.0), Func("rand").gt(2)]
        assert len(e.read_file(indexed_file, ["k"], preds)) == 1000
        assert e.stats.rows_filtered_pushed == 0

    def test_blooms_filter_before_pushed_filters(self, indexed_file):
        """A row both a runtime filter and a pushed range reject counts as
        the runtime filter's: its value set implies the range."""
        e = IOElevator(LlapCache())
        runtime = (RuntimeFilter("k", (10, 20)),)
        pdf = e.read_file(indexed_file, ["k"], [col("k").ge(10), col("k").le(20)], runtime)
        assert sorted(pdf["k"]) == [10, 20]
        assert e.stats.rows_filtered_by_runtime_bloom == 98
        assert e.stats.rows_filtered_pushed == 0

    def test_conjunct_every_kept_row_satisfies_is_not_evaluated(self, indexed_file, monkeypatch):
        """A pushed conjunct that the min/max of every selected row group
        implies, on a column without NULLs there, or that an exact runtime
        filter's value set implies, would remove no row: the elevator does
        not evaluate it. One that some group does not imply, or on a float
        column (whose min/max leave NaN out), is evaluated."""
        evaluated = []
        monkeypatch.setattr(
            elevator, "holds", lambda p, pdf: evaluated.append(p) or holds(p, pdf)
        )
        e = IOElevator(LlapCache())
        implied = [col("k").ge(200), col("k").lt(400), col("k").ne(5000)]
        preds = implied + [col("k").gt(250), col("v").ge(0.0)]
        pdf = e.read_file(indexed_file, ["k", "v"], preds)
        assert sorted(pdf["k"]) == list(range(251, 400))
        assert evaluated == preds[3:]
        assert e.stats.rows_filtered_pushed == 51
        evaluated.clear()
        in_list = col("k").isin(*range(290, 410))
        pdf = e.read_file(indexed_file, ["k"], [col("k").ge(300), col("k").lt(400), in_list])
        assert len(pdf) == 100 and evaluated == []
        # a semijoin's range over the values its runtime filter keeps
        keys = [10, 15, 20]
        runtime = (RuntimeFilter("k", tuple(keys)),)
        pdf = e.read_file(indexed_file, ["k"], [col("k").ge(10), col("k").le(20)], runtime)
        assert sorted(pdf["k"]) == keys and evaluated == []
        assert e.stats.rows_filtered_pushed == 51

    def test_conjunct_on_a_column_with_nulls_is_evaluated(self, tmp_path):
        f = tmp_path / "bucket_00000.parquet"
        k = pd.array([None, *range(1, 100)], dtype="Int64")
        write_data_file(f, pd.DataFrame({"k": k}), row_group_rows=50)
        e = IOElevator(LlapCache())
        assert len(e.read_file(str(f), ["k"], [col("k").ge(0)])) == 99
        assert e.stats.rows_filtered_pushed == 1

    def test_miss_reads_only_selected_row_groups(self, indexed_file, monkeypatch):
        """On a cache miss only the row groups (and columns) whose chunks
        are missing are read from the file."""
        read = pq.ParquetFile.read_row_groups
        calls = []

        def spy(pf, groups, columns=None, **kwargs):
            calls.append((list(groups), list(columns)))
            return read(pf, groups, columns=columns, **kwargs)

        monkeypatch.setattr(pq.ParquetFile, "read_row_groups", spy)
        e = IOElevator(LlapCache())
        e.read_file(indexed_file, ["k"], [col("k").ge(850)])
        pdf = e.read_file(indexed_file, ["k", "v"], [col("k").ge(750)])
        assert calls == [([8, 9], ["k"]), ([7, 8, 9], ["k", "v"])]
        assert sorted(pdf["k"]) == list(range(750, 1000))
        assert pdf["v"].tolist() == [k * 0.5 for k in pdf["k"]]


# ---------------------------------------------------------------------------
# Daemon scans over ACID tables
# ---------------------------------------------------------------------------


@pytest.fixture
def acid_llap(spark, tmp_path):
    env = make_acid_env(spark, tmp_path, row_group_rows=100)
    env.hms.create_table(
        Table(
            name="t",
            columns=[Column("k", "bigint"), Column("v", "double"), Column("p", "bigint")],
            partitioned_by=["p"],
            properties={"bloom.filter.columns": "k"},
        )
    )
    daemon = LlapDaemon(env.hms, str(env.warehouse))
    return env, daemon


class TestDaemonScan:
    def test_matches_container_scan(self, acid_llap):
        env, daemon = acid_llap
        env.run_insert("t", rows(list(range(500)), [float(i) for i in range(500)], [i % 3 for i in range(500)]))
        via_spark = (
            env.reader.scan("t").toPandas().sort_values(["k"]).reset_index(drop=True)
        )
        via_llap = daemon.scan_table("t").sort_values(["k"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            via_spark, via_llap[via_spark.columns], check_dtype=False
        )

    def test_respects_snapshot(self, acid_llap):
        env, daemon = acid_llap
        env.run_insert("t", rows([1], [1.0], [0]))
        wids = env.hms.txns.valid_write_ids(env.hms.txns.snapshot(), "t")
        env.run_insert("t", rows([2], [2.0], [0]))
        assert daemon.scan_table("t", wids=wids)["k"].tolist() == [1]

    def test_applies_deletes(self, acid_llap):
        env, daemon = acid_llap
        env.run_insert("t", rows([1, 2, 3], [1.0, 2.0, 3.0], [0, 0, 0]))
        full = env.reader.scan("t", include_hidden=True).toPandas()
        txn = env.begin()
        env.writer.delete(txn, "t", full[full["k"] == 2])
        env.hms.txns.commit(txn)
        assert sorted(daemon.scan_table("t")["k"]) == [1, 3]

    def test_partition_restriction(self, acid_llap):
        env, daemon = acid_llap
        env.run_insert("t", rows([1, 2, 3], [1.0, 2.0, 3.0], [0, 1, 2]))
        got = daemon.scan_table("t", partitions=["p=1"])
        assert got["k"].tolist() == [2]

    def test_pushed_filters_reduce_io(self, acid_llap):
        env, daemon = acid_llap
        env.run_insert(
            "t", rows(list(range(1000)), [0.0] * 1000, [0] * 1000)
        )
        daemon.scan_table("t", pushed_filters=[col("k").ge(900)])
        assert daemon.elevator.stats.row_groups_skipped_minmax > 0

    def test_cache_warm_across_queries(self, acid_llap):
        env, daemon = acid_llap
        env.run_insert("t", rows(list(range(300)), [0.0] * 300, [0] * 300))
        daemon.scan_table("t")
        h0 = daemon.cache.stats.data_hits
        daemon.scan_table("t")
        assert daemon.cache.stats.data_hits > h0

    def test_new_delta_does_not_invalidate_cache(self, acid_llap):
        """Incremental mutability: adding data adds files; old chunks stay."""
        env, daemon = acid_llap
        env.run_insert("t", rows([1], [1.0], [0]))
        daemon.scan_table("t")
        env.run_insert("t", rows([2], [2.0], [0]))
        daemon.scan_table("t")
        assert daemon.cache.stats.invalidations == 0
        assert sorted(daemon.scan_table("t")["k"]) == [1, 2]

    def test_empty_table(self, acid_llap):
        env, daemon = acid_llap
        assert daemon.scan_table("t").empty

    @staticmethod
    def _columns_read(daemon, monkeypatch) -> list[list[str]]:
        read, read_file = [], daemon.elevator.read_file

        def spy(f, columns, *args):
            read.append(list(columns))
            return read_file(f, columns, *args)

        monkeypatch.setattr(daemon.elevator, "read_file", spy)
        return read

    def test_whole_snapshot_reads_no_identity_columns(self, acid_llap, monkeypatch):
        """With every directory visible whole and no delete delta, a scan
        reads only its columns and skips the merge."""
        env, daemon = acid_llap
        env.run_insert("t", rows([1, 2], [1.0, 2.0], [0, 1]))
        env.run_insert("t", rows([3], [3.0], [0]))
        read = self._columns_read(daemon, monkeypatch)
        got = daemon.scan_table("t", columns=["k", "v"])
        assert sorted(got["k"]) == [1, 2, 3] and list(got.columns) == ["k", "v"]
        assert read and all(cols == ["k", "v"] for cols in read)

    @pytest.mark.parametrize("kind", ["delta", "base"])
    def test_directory_spanning_an_invalid_write_is_filtered_per_row(
        self, acid_llap, kind, monkeypatch
    ):
        """A multi-write delta spanning an aborted WriteId, or a base
        spanning an open one, holds rows the snapshot must not see: the
        scan reads the WriteId and filters row by row."""
        from repro.storage.layout import base_dir, delta_dir

        env, daemon = acid_llap
        env.run_insert("t", rows([1], [1.0], [0]))
        txn = env.begin()
        env.writer.insert(txn, "t", rows([2], [2.0], [0]))
        if kind == "delta":
            env.hms.txns.abort(txn)
        env.run_insert("t", rows([3], [3.0], [0]))
        part = env.writer.table_path("t") / "p=0"
        merged = pd.concat(
            [pd.read_parquet(f) for f in sorted(part.glob("delta_*/*.parquet"))],
            ignore_index=True,
        )
        assert sorted(merged["k"]) == [1, 2, 3]
        spanning = delta_dir(1, 3) if kind == "delta" else base_dir(3)
        write_data_file(part / spanning / bucket_file(99), merged, table=env.hms.get_table("t"))
        read = self._columns_read(daemon, monkeypatch)
        assert sorted(daemon.scan_table("t", columns=["k"])["k"]) == [1, 3]
        assert read == [["k", "__writeid", "__fileid", "__rowid"]]

    def test_partition_with_a_delete_delta_is_anti_joined(self, acid_llap, monkeypatch):
        env, daemon = acid_llap
        env.run_insert("t", rows([1, 2, 3], [1.0, 2.0, 3.0], [0, 0, 1]))
        full = env.reader.scan("t", include_hidden=True).toPandas()
        txn = env.begin()
        env.writer.delete(txn, "t", full[full["k"] == 2])
        env.hms.txns.commit(txn)
        read = self._columns_read(daemon, monkeypatch)
        assert sorted(daemon.scan_table("t", columns=["k"])["k"]) == [1, 3]
        assert read == [["k", "__writeid", "__fileid", "__rowid"]] * 2
        # the other partition has no delete delta: no merge there
        read.clear()
        assert daemon.scan_table("t", partitions=["p=1"], columns=["k"])["k"].tolist() == [3]
        assert read == [["k"]]

    def test_fragment_pool(self, acid_llap):
        _, daemon = acid_llap
        futs = [daemon.submit_fragment(lambda x=i: x * 2) for i in range(8)]
        assert sorted(f.result() for f in futs) == [0, 2, 4, 6, 8, 10, 12, 14]


# ---------------------------------------------------------------------------
# Scan → filter → aggregate fragments run by the daemon
# ---------------------------------------------------------------------------

# NULLs in the key, in integer and double arguments, and in the filters
FACTS = pd.DataFrame(
    {
        "g": ["a", "b", None, "a", "b", None, "a", "c"] * 25,
        "x": pd.array([1, None, 3, 4, None, 6, 7, 8] * 25, dtype="Int64"),
        "y": [0.5, 1.5, None, 2.5, 3.5, None, 4.5, 5.5] * 25,
        "p": [1, 2, 1, 2, 1, 2, 1, 2] * 25,
    }
)
FACT_COLUMNS = [
    Column("g", "string"), Column("x", "bigint"), Column("y", "double"), Column("p", "bigint")
]
# every aggregate function, each also under a FILTER
EVERY_AGG = tuple(
    AggCall(func, None if func == "count_star" else col(arg), f"{func}_{arg}{suffix}", flt)
    for func, arg in [
        ("sum", "x"), ("sum", "y"), ("count", "x"), ("count_star", "all"),
        ("min", "x"), ("max", "y"), ("min", "g"), ("avg", "x"), ("avg", "y"),
    ]
    for suffix, flt in [("", None), ("_f", Not(col("x").gt(3)))]
)


@pytest.fixture(params=["v3_1", "v3_1_container"])
def facts(request, spark, tmp_path):
    """A server in either arm with ``f`` (200 rows, NULLs in every column
    but ``p``, two row groups per file) and the empty ``e``."""
    with Warehouse(spark, tmp_path, request.param) as w:
        w.hs2.writer.row_group_rows = 50
        for name, pdf in (("f", FACTS), ("e", FACTS[:0])):
            w.hs2.create_table(Table(name, FACT_COLUMNS, partitioned_by=["p"]))
            w.hs2.insert(name, pdf)
        yield w


def run_fragment(w, plan, monkeypatch, daemon=True):
    """Execute ``plan``, check it against DuckDB, and check the arm: the
    LLAP daemon ran the aggregate and handed Spark no rows when the
    aggregate is the answer (HS2 fetched it), else at most one row per
    group; containers ran it in Spark (as does LLAP when ``daemon`` is
    off). Returns the report."""
    handed = []
    to_spark = _HS2ExecutionContext._to_spark

    def spy(ctx, pdf, schema):
        handed.append(len(pdf))
        return to_spark(ctx, pdf, schema)

    monkeypatch.setattr(_HS2ExecutionContext, "_to_spark", spy)
    r = w.hs2.execute(plan)
    tables = {t: w.hs2.reader.scan(t).toPandas() for t in plan.tables()}
    spark = w.hs2.spark
    got = (
        spark.createDataFrame(r.result)
        if len(r.result)
        else spark.createDataFrame([], ", ".join(f"{c} string" for c in r.result.columns))
    )
    assert_equivalent(got, plan.to_sql(), **tables)
    if w.hs2.config.llap and daemon:
        assert r.daemon_aggregates == 1
        if isinstance(plan, Aggregate):
            assert r.fetched and handed == []
        else:
            assert not r.fetched and max(handed) <= max(len(r.result), 1)
    else:
        assert r.daemon_aggregates == 0 and not r.fetched
    return r


# dimensions to join ``f`` with: ``d`` has a NULL key and a duplicated key,
# ``q`` one row per partition of ``f``
DIMENSIONS = {
    "d": pd.DataFrame(
        {
            "dg": ["a", "a", "b", None, "c", "z"],
            "dx": pd.array([1, 1, 4, None, 8, 3], dtype="Int64"),
            "w": [10.0, 20.0, 30.0, 40.0, 50.0, 60.0],
            "name": ["one", "uno", "four", "null", "eight", "three"],
        }
    ),
    "q": pd.DataFrame({"qp": [1, 2], "label": ["odd", "even"]}),
}
X_JOIN = col("x").eq(col("dx"))
JOINED_AGG = (
    AggCall("sum", col("y"), "sy"), AggCall("count_star", None, "n"),
    AggCall("max", col("w"), "mw"), AggCall("min", col("g"), "mg"),
)


@pytest.fixture
def star(facts):
    """``facts`` with the dimensions ``d`` and ``q``."""
    for name, pdf in DIMENSIONS.items():
        facts.hs2.create_table(Table(name, columns_of(pdf)))
        facts.hs2.insert(name, pdf)
    return facts


class TestDaemonFragment:
    @pytest.mark.parametrize("keys", [(), ("g",), ("g", "p")], ids=["global", "g", "g_p"])
    def test_every_aggregate_with_and_without_filter(self, facts, keys, monkeypatch):
        plan = Aggregate(Filter(Scan("f"), col("p").ge(1)), keys, EVERY_AGG)
        r = run_fragment(facts, plan, monkeypatch)
        assert len(r.result) == {(): 1, ("g",): 4, ("g", "p"): 7}[keys]

    def test_three_valued_filters(self, facts, monkeypatch):
        """NOT, != and OR over NULLs keep only the rows SQL keeps."""
        cond = Or(Not(col("x").ge(4)), And(col("y").ne(2.5), IsNull(col("g"), negated=True)))
        plan = Aggregate(Filter(Scan("f"), cond), ("g",), EVERY_AGG[:4])
        run_fragment(facts, plan, monkeypatch)

    @pytest.mark.parametrize("keys", [(), ("g",)], ids=["global", "grouped"])
    @pytest.mark.parametrize("table", ["f", "e"])
    def test_empty_input(self, facts, keys, table, monkeypatch):
        """A global aggregate over no rows is one row (COUNT 0, the rest
        NULL); a grouped one is no rows."""
        plan = Aggregate(Filter(Scan(table), col("x").gt(100)), keys, EVERY_AGG)
        r = run_fragment(facts, plan, monkeypatch)
        assert len(r.result) == (0 if keys else 1)

    def test_delete_deltas(self, facts, monkeypatch):
        facts.hs2.delete_where("f", Or(col("x").eq(4), IsNull(col("g"))))
        plan = Aggregate(Scan("f"), ("g",), EVERY_AGG)
        r = run_fragment(facts, plan, monkeypatch)
        assert len(r.result) == 3

    def test_incremental_rebuild(self, facts, monkeypatch):
        """An incremental MV rebuild aggregates only the rows its stored
        list lacks, daemon-side on LLAP."""
        hs2 = facts.hs2
        definition = Aggregate(
            Filter(Scan("f"), col("y").gt(1.0)),
            ("g",),
            (AggCall("sum", col("x"), "sx"), AggCall("count_star", None, "n")),
        )
        hs2.create_materialized_view("mv", definition)
        hs2.insert("f", FACTS[:8])
        ran = []  # (the rebuild's since lists, whether the daemon ran it)
        in_daemon = _HS2ExecutionContext.daemon_groups

        def spy(ctx, agg):
            groups = in_daemon(ctx, agg)
            ran.append((dict(ctx.since), groups is not None))
            return groups

        monkeypatch.setattr(_HS2ExecutionContext, "daemon_groups", spy)
        assert hs2.rebuild_materialized_view("mv") == "incremental"
        assert [since.keys() == {"f"} for since, _ in ran] == [True]
        assert [daemon for _, daemon in ran] == [hs2.config.llap]
        assert_equivalent(
            hs2.reader.scan("mv"), definition.to_sql(), f=hs2.reader.scan("f").toPandas()
        )

    @pytest.mark.parametrize("literal", ["2020-01-03", dt.date(2020, 1, 3)], ids=["string", "date"])
    def test_date_predicate(self, spark, tmp_path, literal):
        """A DATE column against a string literal falls back to Spark, which
        casts the string; against a date literal the daemon runs it."""
        with Warehouse(spark, tmp_path) as w:
            days = pd.DataFrame(
                {"d": [dt.date(2020, 1, i) for i in range(1, 7)], "v": range(6)}
            )
            w.hs2.create_table(Table("days", [Column("d", "date"), Column("v", "bigint")]))
            w.hs2.insert("days", days)
            plan = Aggregate(
                Filter(Scan("days"), col("d").ge(literal)), (), (AggCall("sum", col("v"), "s"),)
            )
            r = w.hs2.execute(plan)
            assert r.daemon_aggregates == (0 if isinstance(literal, str) else 1)
            assert r.result["s"].tolist() == [2 + 3 + 4 + 5]
            assert_equivalent(spark.createDataFrame(r.result), plan.to_sql(), days=days)

    def test_shared_subtree_under_daemon_aggregates(self, facts, monkeypatch):
        """Shared work does not switch the daemon off: on LLAP it runs both
        aggregates over the repeated subtree (its cache serves the second
        read) and nothing is persisted; on containers Spark persists the
        subtree and computes it once."""
        base = Filter(Scan("f"), col("p").eq(1))
        plan = Join(
            Aggregate(base, (), (AggCall("count_star", None, "n1"),)),
            Aggregate(base, (), (AggCall("sum", col("y"), "s2"),)),
            None,
            "cross",
        )
        persisted = []  # fingerprints of the subtrees Spark persisted

        def spy(plan, ctx, shared=None, memo=None):
            df = compile_plan(plan, ctx, shared, memo)
            persisted.extend(memo)
            return df

        monkeypatch.setattr(hs2_module, "compile_plan", spy)
        r = facts.hs2.execute(plan)
        assert r.shared_subtrees >= 1
        if facts.hs2.config.llap:
            assert r.daemon_aggregates == 2 and persisted == []
        else:
            assert r.daemon_aggregates == 0 and len(persisted) == 1
        tables = {"f": facts.hs2.reader.scan("f").toPandas()}
        assert_equivalent(facts.hs2.spark.createDataFrame(r.result), plan.to_sql(), **tables)

    # -- map joins: an aggregate over a join of Filter/Scan chains --------

    @pytest.mark.parametrize("dim_filter", [None, col("w").gt(15.0)], ids=["all", "filtered"])
    def test_join_with_null_and_duplicate_keys(self, star, dim_filter, monkeypatch):
        """NULL keys on both sides join nothing; a key twice on the build
        side doubles its fact rows."""
        dim = Scan("d") if dim_filter is None else Filter(Scan("d"), dim_filter)
        plan = Aggregate(Join(Scan("f"), dim, X_JOIN), ("name",), JOINED_AGG)
        r = run_fragment(star, plan, monkeypatch)
        assert sorted(r.result["name"]) == (
            ["eight", "four", "one", "three", "uno"]
            if dim_filter is None
            else ["eight", "four", "three", "uno"]
        )

    def test_two_column_key(self, star, monkeypatch):
        cond = And(col("dg").eq(col("g")), X_JOIN)
        plan = Aggregate(Join(Scan("d"), Scan("f"), cond), ("g", "name"), JOINED_AGG)
        run_fragment(star, plan, monkeypatch)

    def test_three_way_join(self, star, monkeypatch):
        """The fact joined with two dimensions, each filtered (q16's
        shape, where the planner pushes the filter above the joins into
        its dimension)."""
        inner = Join(Scan("f"), Filter(Scan("d"), col("w").lt(55.0)), X_JOIN)
        plan = Aggregate(
            Filter(Join(inner, Scan("q"), col("p").eq(col("qp"))), col("label").eq("even")),
            ("label", "name"),
            JOINED_AGG,
        )
        run_fragment(star, plan, monkeypatch)

    @pytest.mark.parametrize("keys", [(), ("name",)], ids=["global", "grouped"])
    def test_empty_filtered_dimension(self, star, keys, monkeypatch):
        plan = Aggregate(
            Join(Scan("f"), Filter(Scan("d"), col("name").eq("none")), X_JOIN), keys, JOINED_AGG
        )
        r = run_fragment(star, plan, monkeypatch)
        assert len(r.result) == (0 if keys else 1)

    def test_join_after_deletes(self, star, monkeypatch):
        star.hs2.delete_where("f", Or(col("x").eq(4), col("g").eq("c")))
        plan = Aggregate(Join(Scan("f"), Scan("d"), X_JOIN), ("name",), JOINED_AGG)
        r = run_fragment(star, plan, monkeypatch)
        assert sorted(r.result["name"]) == ["one", "three", "uno"]

    def test_residual_join_conjunct(self, star, monkeypatch):
        """A conjunct that is not a column equality filters the rows the
        hash join on the equality produced."""
        plan = Aggregate(
            Join(Scan("f"), Scan("d"), And(X_JOIN, col("y").lt(col("w")))), ("name",), JOINED_AGG
        )
        run_fragment(star, plan, monkeypatch)

    def test_three_way_join_residual_disjunction(self, star, monkeypatch):
        """A disjunction over the fact and the outer dimension above
        f ⋈ d ⋈ q becomes a conjunct of the outer join's condition; the
        daemon applies it to the joined rows."""
        inner = Join(Scan("f"), Filter(Scan("d"), col("w").lt(55.0)), X_JOIN)
        plan = Aggregate(
            Filter(
                Join(inner, Scan("q"), col("p").eq(col("qp"))),
                Or(col("label").eq("even"), col("y").gt(4.0)),
            ),
            ("label", "name"),
            JOINED_AGG,
        )
        run_fragment(star, plan, monkeypatch)

    @pytest.mark.parametrize(
        "join",
        [
            Join(Scan("f"), Scan("d"), X_JOIN, "left"),
            Join(Scan("f"), Scan("d"), Or(X_JOIN, col("g").eq(col("dg")))),
        ],
        ids=["left_join", "disjunction"],
    )
    def test_joins_the_daemon_leaves_to_spark(self, star, join, monkeypatch):
        plan = Aggregate(join, ("name",), JOINED_AGG)
        run_fragment(star, plan, monkeypatch, daemon=False)

    def test_both_sides_over_the_build_bound(self, star, monkeypatch):
        monkeypatch.setattr(hs2_module, "MAX_BUILD_ROWS", 0)
        plan = Aggregate(Join(Scan("f"), Scan("d"), X_JOIN), ("name",), JOINED_AGG)
        run_fragment(star, plan, monkeypatch, daemon=False)

    def test_overlapping_names(self, star):
        """Both sides output ``p``: the daemon leaves the join to Spark.
        (The planner prunes an unused ``p``, so the scans name it here.)"""
        dim = pd.DataFrame({"dx": [1, 4, 4], "p": [1, 2, 3]})
        star.hs2.create_table(Table("dp", columns_of(dim)))
        star.hs2.insert("dp", dim)
        plan = Aggregate(
            Join(Scan("f", columns=("x", "p")), Scan("dp", columns=("dx", "p")), X_JOIN),
            (),
            (AggCall("count_star", None, "n"),),
        )
        ctx = star.context()
        got = compile_plan(plan, ctx)
        assert ctx.daemon_aggregates == 0
        tables = {t: star.hs2.reader.scan(t).toPandas() for t in ("f", "dp")}
        assert_equivalent(got, plan.to_sql(), **tables)

    def test_incremental_rebuild_over_a_join(self, facts, monkeypatch):
        """An incremental rebuild of store_sales ⋈ date_dim joins only the
        new store_sales rows with every date, in the daemon on LLAP."""
        hs2 = facts.hs2
        frames = tpcds_lite.load_into(hs2, sf=0.002)
        definition = Aggregate(
            Filter(
                Join(Scan("store_sales"), Scan("date_dim"), col("ss_sold_date_sk").eq(col("d_date_sk"))),
                col("d_moy").le(6),
            ),
            ("d_year",),
            (AggCall("sum", col("ss_quantity"), "q"), AggCall("count_star", None, "n")),
        )
        hs2.create_materialized_view("mv", definition)
        hs2.insert("store_sales", frames["store_sales"][:500])
        ran = []  # (the rebuild's since lists, whether the daemon ran it)
        in_daemon = _HS2ExecutionContext.daemon_groups

        def spy(ctx, agg):
            groups = in_daemon(ctx, agg)
            ran.append((dict(ctx.since), groups is not None))
            return groups

        monkeypatch.setattr(_HS2ExecutionContext, "daemon_groups", spy)
        assert hs2.rebuild_materialized_view("mv") == "incremental"
        assert [(since.keys(), daemon) for since, daemon in ran] == [
            ({"store_sales"}, hs2.config.llap)
        ]
        tables = {t: hs2.reader.scan(t).toPandas() for t in ("store_sales", "date_dim")}
        assert_equivalent(hs2.reader.scan("mv"), definition.to_sql(), **tables)

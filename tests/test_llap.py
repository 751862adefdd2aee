"""LLAP substrate (§5.1): LRFU, chunk cache, I/O elevator, daemon scans."""
import sys
import threading
from dataclasses import asdict

import pandas as pd
import pytest

from repro.bloom import BloomFilter
from repro.core.expr import Col, InList, col
from repro.core.semijoin import RuntimeFilter
from repro.llap import ChunkKey, IOElevator, LlapCache, LlapDaemon, LRFUPolicy
from repro.storage.layout import bucket_file, write_data_file
from tests.conftest import make_acid_env, rows


def bloom_only(column, values) -> RuntimeFilter:
    """A runtime filter without a value set: the elevator probes its Bloom
    filter row by row, as Hive's readers do."""
    values = list(values)
    return RuntimeFilter(column, min(values), max(values), BloomFilter.of(values), len(values))


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
        """The ETag-style (size, mtime) version check (§5.1)."""
        import os
        import time

        c = LlapCache()
        key = ChunkKey(data_file, 0, "k")
        c.put_chunk(key, pd.Series(range(100)))
        time.sleep(0.01)
        pd.DataFrame({"k": range(2000), "v": range(2000)}).to_parquet(data_file)
        os.utime(data_file)
        assert c.get_chunk(key) is None
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
        # runtime Bloom keeps multiples of 4
        wanted = [*range(1, 8000, 200), *range(0, 8000, 400)]
        preds = [col("k").lt(7000), col("k").isin(*wanted)]
        runtime = {"k": bloom_only("k", range(0, 8000, 4))}
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
        s = serial.stats
        assert s.row_groups_skipped_minmax and s.row_groups_skipped_bloom
        assert s.rows_filtered_by_runtime_bloom
        assert asdict(concurrent.stats) == asdict(s)

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

    def test_metadata_first_no_data_load_for_skipped(self, indexed_file):
        """Skipped chunks never enter the cache (no cache trashing)."""
        cache = LlapCache()
        e = IOElevator(cache)
        e.read_file(indexed_file, ["k"], [col("k").ge(950)])
        assert len(cache) == 1  # only the last group's k-chunk

    def test_runtime_bloom_filters_rows(self, indexed_file):
        e = IOElevator(LlapCache())
        runtime = {"k": bloom_only("k", [1, 2, 3])}
        pdf = e.read_file(indexed_file, ["k"], [col("k").le(99)], runtime_blooms=runtime)
        # no false negatives; false positives allowed but rare
        assert {1, 2, 3} <= set(pdf["k"])
        assert len(pdf) <= 6
        assert e.stats.rows_filtered_by_runtime_bloom >= 94

    def test_no_sidecar_fallback(self, tmp_path):
        """A file without a Bloom sidecar is pruned by its footer alone."""
        f = tmp_path / "plain.parquet"
        pd.DataFrame({"k": range(10)}).to_parquet(f)
        e = IOElevator(LlapCache())
        assert len(e.read_file(str(f), ["k"])) == 10
        assert e.read_file(str(f), ["k"], [col("k").gt(9)]) is None
        assert e.stats.row_groups_skipped_minmax == 1


# ---------------------------------------------------------------------------
# Daemon scans over ACID tables
# ---------------------------------------------------------------------------


@pytest.fixture
def acid_llap(spark, tmp_path):
    from repro.metastore import Column, Table

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

    def test_fragment_pool(self, acid_llap):
        _, daemon = acid_llap
        futs = [daemon.submit_fragment(lambda x=i: x * 2) for i in range(8)]
        assert sorted(f.result() for f in futs) == [0, 2, 4, 6, 8, 10, 12, 14]

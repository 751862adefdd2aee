"""HiveServer2 driver: the full pipeline of Figure 2, per engine config."""
import sys
import threading

import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.core.expr import AggCall, And, Col, Func, InList, col
from repro.core.features import EngineConfig, SQLFeature, UnsupportedSQLError
import repro.core.hs2 as hs2_module
from repro.core.hs2 import HiveServer2, QuerySpec, _HS2ExecutionContext
from repro.core.plan import Aggregate, Filter, Join, Scan, SetOp, Project, Union, Unpivot
from repro.core.reopt import ExecutionError
from repro.metastore import Column, Table, WriteConflict
from repro.oracle import assert_equivalent
from repro.storage import AcidReader
from repro.workloads import tpcds_lite


def make_server(spark, tmp_path, config=None) -> HiveServer2:
    hs2 = HiveServer2(spark, str(tmp_path / "wh"), config or EngineConfig.v3_1(container_startup_s=0.0))
    hs2.create_table(
        Table(
            "sales",
            [
                Column("item_sk", "bigint"),
                Column("price", "double"),
                Column("month", "bigint"),
            ],
            partitioned_by=["month"],
            properties={"bloom.filter.columns": "item_sk"},
        )
    )
    hs2.create_table(
        Table("item", [Column("i_item_sk", "bigint"), Column("i_cat", "string")])
    )
    g = np.random.default_rng(21)
    n = 2000
    hs2.insert(
        "sales",
        pd.DataFrame(
            {
                "item_sk": g.integers(0, 50, n),
                "price": g.random(n).round(3),
                "month": g.integers(1, 13, n),
            }
        ),
    )
    hs2.insert(
        "item",
        pd.DataFrame(
            {
                "i_item_sk": range(50),
                "i_cat": [("Sports" if i % 5 == 0 else "Other") for i in range(50)],
            }
        ),
    )
    return hs2


def star_query():
    return QuerySpec(
        "q_star",
        Aggregate(
            Filter(
                Join(Scan("sales"), Scan("item"), col("item_sk").eq(col("i_item_sk"))),
                col("i_cat").eq("Sports"),
            ),
            (),
            (AggCall("sum", col("price"), "total"),),
        ),
    )


def oracle_tables(hs2):
    return {
        "sales": hs2.reader.scan("sales").toPandas(),
        "item": hs2.reader.scan("item").toPandas(),
    }


@pytest.fixture(params=["v3.1-llap", "v3.1-container", "v1.2"])
def any_server(request, spark, tmp_path):
    cfg = {
        "v3.1-llap": EngineConfig.v3_1(container_startup_s=0.0),
        "v3.1-container": EngineConfig.v3_1_container(container_startup_s=0.0),
        "v1.2": EngineConfig.v1_2(container_startup_s=0.0),
    }[request.param]
    return make_server(spark, tmp_path, cfg)


class TestEndToEnd:
    def test_star_query_all_configs(self, any_server):
        hs2 = any_server
        r = hs2.execute(star_query())
        t = oracle_tables(hs2)
        expected = t["sales"].merge(
            t["item"][t["item"]["i_cat"] == "Sports"],
            left_on="item_sk",
            right_on="i_item_sk",
        )["price"].sum()
        assert r.result["total"].iloc[0] == pytest.approx(expected)

    def test_projection_query(self, any_server):
        r = any_server.execute(
            QuerySpec(
                "p",
                Project(
                    Filter(Scan("sales"), col("month").eq(3)),
                    (("x", col("price").mul(2)),),
                ),
            )
        )
        assert (r.result["x"] >= 0).all()


class TestFeatureGate:
    def test_v12_rejects_intersect(self, spark, tmp_path):
        hs2 = make_server(spark, tmp_path, EngineConfig.v1_2(container_startup_s=0.0))
        q = QuerySpec(
            "qi",
            SetOp(
                "intersect",
                Project(Scan("sales"), (("k", col("item_sk")),)),
                Project(Scan("item"), (("k", col("i_item_sk")),)),
            ),
            features=frozenset({SQLFeature.INTERSECT}),
        )
        with pytest.raises(UnsupportedSQLError):
            hs2.execute(q)

    def test_v31_runs_intersect(self, spark, tmp_path):
        hs2 = make_server(spark, tmp_path)
        q = QuerySpec(
            "qi",
            SetOp(
                "intersect",
                Project(Scan("sales"), (("k", col("item_sk")),)),
                Project(Scan("item"), (("k", col("i_item_sk")),)),
            ),
            features=frozenset({SQLFeature.INTERSECT}),
        )
        r = hs2.execute(q)
        assert len(r.result) == 50  # all item_sks appear in sales


class TestResultCache:
    def test_second_execution_hits(self, spark, tmp_path):
        hs2 = make_server(spark, tmp_path)
        q = star_query()
        r1 = hs2.execute(q)
        r2 = hs2.execute(q)
        assert not r1.cache_hit and r2.cache_hit
        pd.testing.assert_frame_equal(r1.result, r2.result)

    def test_insert_invalidates(self, spark, tmp_path):
        hs2 = make_server(spark, tmp_path)
        q = star_query()
        hs2.execute(q)
        hs2.insert(
            "sales", pd.DataFrame({"item_sk": [0], "price": [100.0], "month": [1]})
        )
        r = hs2.execute(q)
        assert not r.cache_hit

    def test_v12_has_no_cache(self, spark, tmp_path):
        hs2 = make_server(spark, tmp_path, EngineConfig.v1_2(container_startup_s=0.0))
        q = star_query()
        hs2.execute(q)
        assert not hs2.execute(q).cache_hit


class TestSemijoinIntegration:
    def test_semijoin_report_present(self, spark, tmp_path):
        hs2 = make_server(spark, tmp_path)
        r = hs2.execute(star_query())
        assert r.semijoin is not None
        assert len(r.semijoin.runtime_filters) == 1

    def test_row_groups_skipped_with_llap(self, spark, tmp_path):
        hs2 = make_server(spark, tmp_path)
        q = QuerySpec("narrow", Filter(Scan("sales"), col("item_sk").eq(1)))
        hs2.execute(q)
        assert hs2.daemon.elevator.stats.row_groups_total > 0


class TestDML:
    def test_delete_where(self, spark, tmp_path):
        hs2 = make_server(spark, tmp_path)
        before = len(hs2.reader.scan("sales").toPandas())
        hs2.delete_where("sales", col("month").eq(5))
        after = hs2.reader.scan("sales").toPandas()
        assert len(after) < before
        assert (after["month"] != 5).all()

    def test_update_where(self, spark, tmp_path):
        hs2 = make_server(spark, tmp_path)
        hs2.update_where(
            "sales", col("month").eq(2), {"price": col("price").mul(0)}
        )
        after = hs2.reader.scan("sales").toPandas()
        assert (after.loc[after["month"] == 2, "price"] == 0).all()

    @pytest.mark.parametrize(
        "dml, expected",
        [
            ("delete", "SELECT * FROM before WHERE NOT (month = 5 AND price > 0.5)"),
            (
                "update",
                "SELECT item_sk, CASE WHEN month = 5 AND price > 0.5 THEN price * 2"
                " ELSE price END AS price, month FROM before",
            ),
        ],
        ids=["delete", "update"],
    )
    def test_victims_read_only_matching_partitions(
        self, spark, tmp_path, monkeypatch, dml, expected
    ):
        """A condition with a partition-column conjunct restricts the
        victims' scan to that partition's files."""
        hs2 = make_server(spark, tmp_path)
        before = hs2.reader.scan("sales").toPandas()
        listed, visible_files = [], hs2.reader.visible_files

        def spy(table, wids, partitions=None):
            data, deletes = visible_files(table, wids, partitions)
            listed.extend(data + deletes)
            return data, deletes

        monkeypatch.setattr(hs2.reader, "visible_files", spy)
        cond = And(col("month").eq(5), col("price").gt(0.5))
        if dml == "delete":
            hs2.delete_where("sales", cond)
        else:
            hs2.update_where("sales", cond, {"price": col("price").mul(2)})
        assert listed and all("/month=5/" in f for f in listed)
        assert_equivalent(hs2.reader.scan("sales"), expected, before=before)

    def test_merge_upsert(self, spark, tmp_path):
        hs2 = make_server(spark, tmp_path, EngineConfig.v3_1(container_startup_s=0.0))
        hs2.create_table(
            Table("dim", [Column("k", "bigint"), Column("v", "double")])
        )
        hs2.insert("dim", pd.DataFrame({"k": [1, 2], "v": [1.0, 2.0]}))
        hs2.merge(
            "dim",
            pd.DataFrame({"k": [2, 3], "v": [20.0, 30.0]}),
            on="k",
            update_cols=["v"],
        )
        out = hs2.reader.scan("dim").toPandas().sort_values("k")
        assert out["k"].tolist() == [1, 2, 3]
        assert out["v"].tolist() == [1.0, 20.0, 30.0]


def mv_def():
    """An SPJA view over sales ⋈ item, rebuildable incrementally."""
    return Aggregate(
        Join(Scan("sales"), Scan("item"), col("item_sk").eq(col("i_item_sk"))),
        ("i_cat",),
        (
            AggCall("sum", col("price"), "total"),
            AggCall("count_star", None, "cnt"),
        ),
    )


def by_cat_query():
    """Answerable from ``mv_def()`` whenever the view is fresh."""
    return QuerySpec(
        "by_cat",
        Aggregate(
            Join(Scan("sales"), Scan("item"), col("item_sk").eq(col("i_item_sk"))),
            ("i_cat",),
            (AggCall("sum", col("price"), "total"),),
        ),
    )


class TestMaterializedViews:
    def test_create_and_rewrite(self, spark, tmp_path):
        hs2 = make_server(spark, tmp_path)
        hs2.create_materialized_view("mv_cat", mv_def())
        q = by_cat_query()
        r = hs2.execute(q)
        assert r.mv_used == "mv_cat"
        t = oracle_tables(hs2)
        expected = (
            t["sales"]
            .merge(t["item"], left_on="item_sk", right_on="i_item_sk")
            .groupby("i_cat")["price"]
            .sum()
        )
        got = r.result.set_index("i_cat")["total"]
        for k in expected.index:
            assert got[k] == pytest.approx(expected[k])

    def test_stale_view_not_used_then_rebuild(self, spark, tmp_path):
        hs2 = make_server(spark, tmp_path)
        hs2.create_materialized_view("mv_cat", mv_def())
        hs2.insert(
            "sales", pd.DataFrame({"item_sk": [0], "price": [5.0], "month": [1]})
        )
        q = by_cat_query()
        r = hs2.execute(q)
        assert r.mv_used is None  # stale → skipped
        assert hs2.rebuild_materialized_view("mv_cat") == "incremental"
        # bypass the (still-valid) result cache to observe the MV rewrite
        hs2.result_cache.clear()
        r2 = hs2.execute(q)
        assert r2.mv_used == "mv_cat"
        # contents reflect the new row
        t = oracle_tables(hs2)
        expected = (
            t["sales"]
            .merge(t["item"], left_on="item_sk", right_on="i_item_sk")
            .groupby("i_cat")["price"]
            .sum()
        )
        got = r2.result.set_index("i_cat")["total"]
        assert got["Sports"] == pytest.approx(expected["Sports"])

    def test_update_forces_full_rebuild(self, spark, tmp_path):
        hs2 = make_server(spark, tmp_path)
        hs2.create_materialized_view("mv_cat", mv_def())
        hs2.update_where("sales", col("month").eq(1), {"price": col("price").mul(2)})
        assert hs2.rebuild_materialized_view("mv_cat") == "full"

    def test_rebuild_noop_when_fresh(self, spark, tmp_path):
        hs2 = make_server(spark, tmp_path)
        hs2.create_materialized_view("mv_cat", mv_def())
        assert hs2.rebuild_materialized_view("mv_cat") == "noop"

    def test_incremental_global_aggregate_keeps_column_types(self, v31_server):
        """Merging a global aggregate's states goes through a float frame;
        the view's files still hold its declared types, which the
        container arm's reader names."""
        hs2 = v31_server
        definition = Aggregate(
            Scan("sales"),
            (),
            (
                AggCall("sum", col("price"), "total"),
                AggCall("count_star", None, "n"),
                AggCall("max", col("item_sk"), "top"),
            ),
        )
        hs2.create_materialized_view("mv_all", definition)
        hs2.insert("sales", pd.DataFrame({"item_sk": [99], "price": [5.0], "month": [1]}))
        assert hs2.rebuild_materialized_view("mv_all") == "incremental"
        r = hs2.execute(Scan("mv_all"))
        assert r.result.dtypes.astype(str).to_dict() == {
            "total": "float64",
            "n": "int64",
            "top": "int64",
        }
        check_oracle(hs2, r.result, definition)

    def test_incremental_rebuild_runs_semijoin(self, v31_server, monkeypatch):
        """A rebuild is prepared like any query: the delta of a view over
        sales ⋈ filtered item goes through the semijoin reducer."""
        hs2 = v31_server
        definition = Aggregate(
            Filter(
                Join(Scan("sales"), Scan("item"), col("item_sk").eq(col("i_item_sk"))),
                col("i_cat").eq("Sports"),
            ),
            ("month",),
            (AggCall("sum", col("price"), "total"), AggCall("count_star", None, "cnt")),
        )
        hs2.create_materialized_view("mv_sports", definition)
        hs2.insert(
            "sales",
            pd.DataFrame({"item_sk": [0, 1, 5], "price": [5.0, 7.0, 9.0], "month": [1, 2, 3]}),
        )
        reports = []
        apply_reduction = hs2_module.apply_reduction

        def spy(*args, **kwargs):
            out = apply_reduction(*args, **kwargs)
            reports.append(out[1])
            return out

        monkeypatch.setattr(hs2_module, "apply_reduction", spy)
        assert hs2.rebuild_materialized_view("mv_sports") == "incremental"
        assert any(r.runtime_filters for r in reports)
        monkeypatch.undo()
        check_oracle(hs2, hs2.execute(Scan("mv_sports")).result, definition)


class TestReoptimization:
    def test_injected_failure_triggers_reopt(self, spark, tmp_path):
        hs2 = make_server(spark, tmp_path)
        calls = {"n": 0}

        def injector(plan, result):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ExecutionError(
                    "simulated OOM", runtime_stats={plan.fingerprint(): 1e9}
                )

        hs2.failure_injector = injector
        r = hs2.execute(star_query())
        assert r.attempts == 2
        assert len(r.result) == 1

    def test_v12_fails_without_reopt(self, spark, tmp_path):
        hs2 = make_server(spark, tmp_path, EngineConfig.v1_2(container_startup_s=0.0))

        def injector(plan, result):
            raise ExecutionError("boom")

        hs2.failure_injector = injector
        with pytest.raises(ExecutionError):
            hs2.execute(star_query())


@pytest.fixture(params=["v3_1", "v3_1_container"])
def v31_server(request, spark, tmp_path):
    """A v3.1 server, LLAP or containers, without the result cache so
    every execution runs."""
    config = getattr(EngineConfig, request.param)(
        container_startup_s=0.0, result_cache=False
    )
    with make_server(spark, tmp_path, config) as hs2:
        yield hs2


def check_oracle(hs2, result, plan):
    assert_equivalent(hs2.spark.createDataFrame(result), plan.to_sql(), **oracle_tables(hs2))


class TestDeclaredTypes:
    def test_all_null_string_column(self, v31_server):
        """A string column holding only NULLs is written as a string, also
        by compaction: the container arm's reader names its type."""
        hs2 = v31_server
        hs2.create_table(Table("t", [Column("k", "bigint"), Column("s", "string")]))
        hs2.insert("t", pd.DataFrame({"k": [1, 2], "s": [None, None]}))
        hs2.insert("t", pd.DataFrame({"k": [3], "s": [None]}))
        r = hs2.execute(Scan("t"))
        assert sorted(r.result["k"]) == [1, 2, 3] and r.result["s"].isna().all()
        assert hs2.compactor.major_compact("t")
        r = hs2.execute(Scan("t"))
        assert sorted(r.result["k"]) == [1, 2, 3] and r.result["s"].isna().all()


def sales_by_cat(cat, keys):
    """q02/q16 shape: a fact-dimension join filtered on the dimension,
    which the semijoin reducer turns into a runtime filter on sales."""
    return QuerySpec(
        f"by_{cat}_{'_'.join(keys)}",
        Aggregate(
            Filter(
                Join(Scan("sales"), Scan("item"), col("item_sk").eq(col("i_item_sk"))),
                col("i_cat").eq(cat),
            ),
            keys,
            (AggCall("sum", col("price"), "total"),),
        ),
    )


class TestPerQueryContext:
    """Each query runs in its own execution context on a long-lived server."""

    def test_rebuild_floor_not_seen_by_concurrent_query(self, v31_server, monkeypatch):
        """An incremental MV rebuild reads only the sales rows the view's
        stored WriteId list does not see; a query running meanwhile must
        still see every row."""
        hs2 = v31_server
        hs2.create_materialized_view("mv_cat", mv_def())
        hs2.insert("sales", pd.DataFrame({"item_sk": [0], "price": [5.0], "month": [1]}))
        n_sales = len(hs2.reader.scan("sales").toPandas())

        inside, release = threading.Event(), threading.Event()
        resolve_scan = _HS2ExecutionContext.resolve_scan

        def held_resolve_scan(ctx, scan):
            if threading.current_thread() is rebuilder:
                inside.set()
                release.wait(timeout=120)
            return resolve_scan(ctx, scan)

        monkeypatch.setattr(_HS2ExecutionContext, "resolve_scan", held_resolve_scan)
        modes = []
        rebuilder = threading.Thread(
            target=lambda: modes.append(hs2.rebuild_materialized_view("mv_cat"))
        )
        rebuilder.start()
        try:
            assert inside.wait(timeout=120)
            count = QuerySpec(
                "n", Aggregate(Scan("sales"), (), (AggCall("count_star", None, "n"),))
            )
            assert hs2.execute(count).result["n"].iloc[0] == n_sales
        finally:
            release.set()
            rebuilder.join(timeout=120)
        assert not rebuilder.is_alive()
        assert modes == ["incremental"]
        check_oracle(hs2, hs2.reader.scan("mv_cat").toPandas(), mv_def())

    def test_concurrent_semijoin_queries(self, spark, tmp_path):
        """Four threads on one server; each query's runtime filters are
        its own, so every answer matches the oracle."""
        config = EngineConfig.v3_1(container_startup_s=0.0, result_cache=False)
        queries = [
            star_query(),
            sales_by_cat("Sports", ("item_sk",)),
            sales_by_cat("Other", ("month",)),
        ]
        results, errors = [], []

        with make_server(spark, tmp_path, config) as hs2:

            def client(offset):
                try:
                    for i in range(len(queries)):
                        q = queries[(offset + i) % len(queries)]
                        r = hs2.execute(q)
                        assert r.semijoin is not None and r.semijoin.runtime_filters
                        results.append((q, r.result))
                except Exception as e:  # reported below with the others
                    errors.append(e)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-4)
            try:
                threads = [threading.Thread(target=client, args=(k,)) for k in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=300)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert len(results) == 4 * len(queries)
            for q, result in results:
                check_oracle(hs2, result, q.plan)

    def test_shared_work_released(self, v31_server, spark):
        """Subtrees shared work persisted are unpersisted once the query
        has its result, and a later execution recomputes them."""
        hs2 = v31_server
        base = Filter(Scan("sales"), col("price").gt(0.5))
        q = QuerySpec(
            "q88_shape",
            Union(
                tuple(
                    Project(
                        Aggregate(
                            Filter(base, col("month").eq(m)),
                            (),
                            (AggCall("count_star", None, "c"),),
                        ),
                        (("m", col("c").mul(0).add(m)), ("c", col("c"))),
                    )
                    for m in (1, 2, 3)
                ),
                all=True,
            ),
        )
        persistent = spark.sparkContext._jsc.getPersistentRDDs
        before = persistent().size()
        for _ in range(2):
            r = hs2.execute(q)
            assert r.shared_subtrees >= 1
            assert persistent().size() == before
            check_oracle(hs2, r.result, q.plan)


    def test_shared_subtree_released_without_union(self, v31_server, spark):
        """A self-join of one filtered scan is not a union of aggregates:
        shared work persists the scan's subtree and releases it."""
        hs2 = v31_server
        base = Filter(Scan("sales"), col("price").gt(0.5))
        q = QuerySpec(
            "self_join",
            Aggregate(
                Join(
                    Project(base, (("l_item", col("item_sk")),)),
                    Project(base, (("r_item", col("item_sk")),)),
                    col("l_item").eq(col("r_item")),
                ),
                (),
                (AggCall("count_star", None, "n"),),
            ),
        )
        persistent = spark.sparkContext._jsc.getPersistentRDDs
        before = persistent().size()
        for _ in range(2):
            r = hs2.execute(q)
            assert r.shared_subtrees >= 1
            assert not any(isinstance(n, Unpivot) for n in r.final_plan.walk())
            assert persistent().size() == before
            check_oracle(hs2, r.result, q.plan)


def count_star(name, plan):
    return QuerySpec(name, Aggregate(plan, (), (AggCall("count_star", None, "n"),)))


def sports_sale(price):
    return pd.DataFrame({"item_sk": [0], "price": [price], "month": [1]})


def open_insert(hs2, table, pdf) -> int:
    """Write ``pdf`` to ``table`` in a transaction left open; returns it."""
    txn = hs2.hms.txns.open_txn()
    hs2.writer.insert(txn, table, pdf)
    return txn


def two_counts():
    """A query with two scans, one of ``item`` and one of ``sales``."""
    return QuerySpec(
        "two_counts",
        Join(
            Aggregate(Scan("item"), (), (AggCall("count_star", None, "n1"),)),
            Aggregate(
                Filter(Scan("sales"), col("month").ge(1)),
                (),
                (AggCall("count_star", None, "n2"),),
            ),
            None,
            "cross",
        ),
    )


@pytest.fixture(params=["v3_1", "v3_1_container"])
def cached_server(request, spark, tmp_path):
    """A v3.1 server, LLAP or containers, with the result cache on."""
    config = getattr(EngineConfig, request.param)(container_startup_s=0.0)
    with make_server(spark, tmp_path, config) as hs2:
        yield hs2


class TestStatementSnapshot:
    """A statement reads, caches and records at the one snapshot it takes."""

    def test_cache_filled_while_insert_open_is_not_served_after_commit(
        self, cached_server
    ):
        hs2 = cached_server
        txn = open_insert(
            hs2, "item", pd.DataFrame({"i_item_sk": [50], "i_cat": ["Sports"]})
        )
        q = count_star("n_item", Scan("item"))
        check_oracle(hs2, hs2.execute(q).result, q.plan)  # 50 rows
        hs2.hms.txns.commit(txn)
        r = hs2.execute(q)
        assert not r.cache_hit
        check_oracle(hs2, r.result, q.plan)  # 51 rows
        assert hs2.execute(q).cache_hit

    def test_view_built_while_insert_open_is_stale_after_commit(self, cached_server):
        hs2 = cached_server
        txn = open_insert(hs2, "sales", sports_sale(5.0))
        hs2.create_materialized_view("mv_cat", mv_def())
        check_oracle(hs2, hs2.reader.scan("mv_cat").toPandas(), mv_def())
        hs2.hms.txns.commit(txn)
        q = by_cat_query()
        r = hs2.execute(q)
        assert r.mv_used is None
        check_oracle(hs2, r.result, q.plan)
        assert hs2.rebuild_materialized_view("mv_cat") == "incremental"
        check_oracle(hs2, hs2.reader.scan("mv_cat").toPandas(), mv_def())

    def test_incremental_rebuild_while_insert_open(self, cached_server):
        """The open insert's WriteId is below the list the rebuild stores;
        the next rebuild must still pick its rows up."""
        hs2 = cached_server
        hs2.create_materialized_view("mv_cat", mv_def())
        txn = open_insert(hs2, "sales", sports_sale(7.0))
        hs2.insert("sales", sports_sale(5.0))
        assert hs2.rebuild_materialized_view("mv_cat") == "incremental"
        check_oracle(hs2, hs2.reader.scan("mv_cat").toPandas(), mv_def())
        hs2.hms.txns.commit(txn)
        assert hs2.rebuild_materialized_view("mv_cat") == "incremental"
        check_oracle(hs2, hs2.reader.scan("mv_cat").toPandas(), mv_def())
        assert hs2.rebuild_materialized_view("mv_cat") == "noop"
        q = by_cat_query()
        r = hs2.execute(q)
        assert r.mv_used == "mv_cat"
        check_oracle(hs2, r.result, q.plan)

    def test_delete_committed_during_rebuild_forces_full_rebuild(
        self, v31_server, monkeypatch
    ):
        """A DELETE that commits after an incremental rebuild took its
        snapshot is not in that rebuild; the next rebuild must not merge
        past it incrementally."""
        hs2 = v31_server
        hs2.create_materialized_view("mv_cat", mv_def())
        hs2.insert("sales", sports_sale(5.0))
        inside, release = threading.Event(), threading.Event()
        resolve_scan = _HS2ExecutionContext.resolve_scan

        def held_resolve_scan(ctx, scan):
            if threading.current_thread() is rebuilder:
                inside.set()
                release.wait(timeout=120)
            return resolve_scan(ctx, scan)

        monkeypatch.setattr(_HS2ExecutionContext, "resolve_scan", held_resolve_scan)
        modes = []
        rebuilder = threading.Thread(
            target=lambda: modes.append(hs2.rebuild_materialized_view("mv_cat"))
        )
        rebuilder.start()
        try:
            assert inside.wait(timeout=120)
            hs2.delete_where("sales", col("month").eq(1))
        finally:
            release.set()
            rebuilder.join(timeout=120)
        assert not rebuilder.is_alive()
        assert modes == ["incremental"]
        assert hs2.rebuild_materialized_view("mv_cat") == "full"
        check_oracle(hs2, hs2.reader.scan("mv_cat").toPandas(), mv_def())

    def test_commit_between_two_scans_of_one_query(self, v31_server, monkeypatch):
        """A transaction writing both tables commits between the query's
        two scans; both read the state the query started at."""
        hs2 = v31_server
        q = two_counts()
        before = oracle_tables(hs2)
        # every scan, in either arm, resolves its snapshot's files here
        visible_files = AcidReader.visible_files
        scans = []

        def committing_visible_files(reader, table, *args, **kwargs):
            files = visible_files(reader, table, *args, **kwargs)
            scans.append(table)
            if len(scans) == 1:
                txn = open_insert(
                    hs2, "item", pd.DataFrame({"i_item_sk": [50], "i_cat": ["Sports"]})
                )
                hs2.writer.insert(txn, "sales", sports_sale(5.0))
                hs2.hms.txns.commit(txn)
            return files

        monkeypatch.setattr(AcidReader, "visible_files", committing_visible_files)
        r = hs2.execute(q)
        assert sorted(scans) == ["item", "sales"]
        assert_equivalent(hs2.spark.createDataFrame(r.result), q.plan.to_sql(), **before)

    def test_write_begun_after_snapshot_stays_unseen(self, v31_server, monkeypatch):
        """Transaction A is open when a query takes its snapshot. Between the
        query's two scans an insert B commits to both tables and A then
        takes the next WriteIds; the second scan must still not see B."""
        hs2 = v31_server
        a = hs2.hms.txns.open_txn()
        q = two_counts()
        before = oracle_tables(hs2)
        # every scan, in either arm, resolves its snapshot's files here
        visible_files = AcidReader.visible_files
        scans = []

        def committing_visible_files(reader, table, *args, **kwargs):
            files = visible_files(reader, table, *args, **kwargs)
            scans.append(table)
            if len(scans) == 1:
                b = open_insert(
                    hs2, "item", pd.DataFrame({"i_item_sk": [50], "i_cat": ["Sports"]})
                )
                hs2.writer.insert(b, "sales", sports_sale(5.0))
                hs2.hms.txns.commit(b)
                hs2.writer.insert(a, "item", pd.DataFrame({"i_item_sk": [51], "i_cat": ["Sports"]}))
                hs2.writer.insert(a, "sales", sports_sale(7.0))
            return files

        monkeypatch.setattr(AcidReader, "visible_files", committing_visible_files)
        r = hs2.execute(q)
        assert sorted(scans) == ["item", "sales"]
        assert_equivalent(hs2.spark.createDataFrame(r.result), q.plan.to_sql(), **before)

    def test_rebuild_ignores_write_begun_after_its_snapshot(self, v31_server, monkeypatch):
        """Transaction A is open when an incremental rebuild takes its
        snapshot; an insert B commits and A takes the next WriteId while the
        rebuild runs. The rebuild must not contain B, and after A aborts
        the next rebuild adds B's rows exactly once."""
        hs2 = v31_server
        hs2.create_materialized_view("mv_cat", mv_def())
        hs2.insert("sales", sports_sale(3.0))
        a = hs2.hms.txns.open_txn()
        before = oracle_tables(hs2)
        inside, release = threading.Event(), threading.Event()
        resolve_scan = _HS2ExecutionContext.resolve_scan

        def held_resolve_scan(ctx, scan):
            if threading.current_thread() is rebuilder:
                inside.set()
                release.wait(timeout=120)
            return resolve_scan(ctx, scan)

        monkeypatch.setattr(_HS2ExecutionContext, "resolve_scan", held_resolve_scan)
        modes = []
        rebuilder = threading.Thread(
            target=lambda: modes.append(hs2.rebuild_materialized_view("mv_cat"))
        )
        rebuilder.start()
        try:
            assert inside.wait(timeout=120)
            hs2.insert("sales", sports_sale(5.0))
            hs2.writer.insert(a, "sales", sports_sale(7.0))
        finally:
            release.set()
            rebuilder.join(timeout=120)
        assert not rebuilder.is_alive()
        assert modes == ["incremental"]
        mv = hs2.spark.createDataFrame(hs2.reader.scan("mv_cat").toPandas())
        assert_equivalent(mv, mv_def().to_sql(), **before)
        hs2.hms.txns.abort(a)
        assert hs2.rebuild_materialized_view("mv_cat") == "incremental"
        check_oracle(hs2, hs2.reader.scan("mv_cat").toPandas(), mv_def())

    def test_update_reads_its_victims_inside_its_transaction(
        self, v31_server, monkeypatch
    ):
        """Two UPDATEs of one partition: the one that read its victims
        first but commits second loses first-commit-wins, instead of
        rewriting rows the other has already replaced."""
        hs2 = v31_server
        month1 = count_star("month1", Filter(Scan("sales"), col("month").eq(1)))
        n_month1 = hs2.execute(month1).result["n"].iloc[0]
        inside, release = threading.Event(), threading.Event()
        scan = AcidReader.scan

        def held_scan(reader, *args, **kwargs):
            df = scan(reader, *args, **kwargs)
            if threading.current_thread() is second:
                inside.set()
                release.wait(timeout=120)
            return df

        monkeypatch.setattr(AcidReader, "scan", held_scan)
        errors = []

        def update():
            try:
                hs2.update_where("sales", col("month").eq(1), {"price": col("price").mul(2)})
            except Exception as e:  # asserted below
                errors.append(e)

        second = threading.Thread(target=update)
        second.start()
        try:
            assert inside.wait(timeout=120)
            hs2.update_where("sales", col("month").eq(1), {"price": col("price").mul(3)})
        finally:
            release.set()
            second.join(timeout=120)
        assert not second.is_alive()
        assert len(errors) == 1 and isinstance(errors[0], WriteConflict)
        r = hs2.execute(month1)
        assert r.result["n"].iloc[0] == n_month1
        check_oracle(hs2, r.result, month1.plan)

    def test_query_started_before_view_overwrite_reads_base_tables(
        self, v31_server, monkeypatch
    ):
        """A query whose snapshot predates a rebuild's commit, but which
        looks for rewritings after it, would read the view's old contents:
        it must not find the view fresh."""
        hs2 = v31_server
        hs2.create_materialized_view("mv_cat", mv_def())
        hs2.insert("sales", sports_sale(5.0))
        inside, release = threading.Event(), threading.Event()
        choose_rewrite = hs2_module.choose_rewrite

        def held_choose_rewrite(*args, **kwargs):
            if threading.current_thread() is querier:
                inside.set()
                release.wait(timeout=120)
            return choose_rewrite(*args, **kwargs)

        monkeypatch.setattr(hs2_module, "choose_rewrite", held_choose_rewrite)
        q, reports = by_cat_query(), []
        querier = threading.Thread(target=lambda: reports.append(hs2.execute(q)))
        querier.start()
        try:
            assert inside.wait(timeout=120)
            assert hs2.rebuild_materialized_view("mv_cat") == "incremental"
        finally:
            release.set()
            querier.join(timeout=120)
        assert not querier.is_alive() and len(reports) == 1
        assert reports[0].mv_used is None
        check_oracle(hs2, reports[0].result, q.plan)
        hs2.compactor.clean()
        r = hs2.execute(q)
        assert r.mv_used == "mv_cat"
        check_oracle(hs2, r.result, q.plan)


def tpcds_mv_def():
    """Monthly sales: TPC-DS-lite's q01_yearly_sales rolls up from it."""
    return Aggregate(
        Join(Scan("store_sales"), Scan("date_dim"), col("ss_sold_date_sk").eq(col("d_date_sk"))),
        ("d_year", "d_moy"),
        (AggCall("sum", col("ss_sales_price"), "sum_sales"), AggCall("count_star", None, "cnt")),
    )


def matches_a_state(spark, result, plan, states) -> bool:
    """``result`` is the DuckDB answer to ``plan`` at one of ``states``."""
    for frames in states:
        try:
            if result.empty:
                con = duckdb.connect()
                for name, t in frames.items():
                    con.register(name, t)
                assert con.execute(plan.to_sql()).fetchdf().empty
                con.close()
            else:
                assert_equivalent(spark.createDataFrame(result), plan.to_sql(), **frames)
            return True
        except AssertionError:
            continue
    return False


class TestMixedConcurrency:
    QUERIES = ("q01_yearly_sales", "q02_semijoin_sports", "q03_partition_quarter",
               "q07_q88_shape", "q14_state_revenue")

    def test_queries_inserts_and_rebuilds(self, spark, tmp_path):
        """Four clients run TPC-DS-lite queries on one server with the
        result cache on while a writer commits k store_sales inserts, each
        followed by an MV rebuild. Every answer is the oracle's at one of
        the k+1 committed states, and the MV matches it after the last
        rebuild."""
        k, n_clients = 3, 4  # with the writer, more threads than cores
        queries = [q for q in tpcds_lite.queries() if q.name in self.QUERIES]
        assert len(queries) == len(self.QUERIES)
        with HiveServer2(
            spark, str(tmp_path / "wh"), EngineConfig.v3_1(container_startup_s=0.0)
        ) as hs2:
            frames = tpcds_lite.load_into(hs2, sf=0.002)
            hs2.create_materialized_view("ss_month_mv", tpcds_mv_def())
            sales = frames["store_sales"]
            batches = [sales.sample(40, random_state=i) for i in range(k)]
            states = [
                {**frames, "store_sales": pd.concat([sales, *batches[:j]], ignore_index=True)}
                for j in range(k + 1)
            ]
            results, errors, started = [], [], threading.Barrier(n_clients + 1)

            def client(offset):
                try:
                    started.wait(timeout=120)
                    for i in range(2 * len(queries)):
                        q = queries[(offset + i) % len(queries)]
                        results.append((q, hs2.execute(q).result))
                except Exception as e:  # reported below with the others
                    errors.append(e)

            def writer():
                try:
                    started.wait(timeout=120)
                    for batch in batches:
                        hs2.insert("store_sales", batch)
                        hs2.rebuild_materialized_view("ss_month_mv")
                except Exception as e:
                    errors.append(e)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-4)
            try:
                threads = [threading.Thread(target=client, args=(c,)) for c in range(n_clients)]
                threads.append(threading.Thread(target=writer))
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=600)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert len(results) == n_clients * 2 * len(queries)
            wrong = [q.name for q, result in results
                     if not matches_a_state(spark, result, q.plan, states)]
            assert wrong == []
            mv = hs2.reader.scan("ss_month_mv").toPandas()
            assert_equivalent(spark.createDataFrame(mv), tpcds_mv_def().to_sql(), **states[-1])


class TestLifecycle:
    def test_close_stops_llap_executors(self, spark, tmp_path):
        hs2 = HiveServer2(
            spark, str(tmp_path / "wh"), EngineConfig.v3_1(container_startup_s=0.0)
        )
        hs2.daemon.shutdown()  # a caller may have stopped the daemon itself
        with hs2:
            pass
        hs2.close()
        with pytest.raises(RuntimeError):
            hs2.daemon.submit_fragment(lambda: None)

    def test_server_turns_arrow_on(self, spark, tmp_path):
        """A server works the same on a session built without Arrow."""
        key = "spark.sql.execution.arrow.pyspark.enabled"
        spark.conf.set(key, "false")
        try:
            with make_server(spark, tmp_path) as hs2:
                assert spark.conf.get(key) == "true"
                check_oracle(hs2, hs2.execute(star_query()).result, star_query().plan)
        finally:
            spark.conf.set(key, "true")

    def test_close_without_daemon(self, spark, tmp_path):
        with HiveServer2(
            spark, str(tmp_path / "wh"), EngineConfig.v3_1_container()
        ) as hs2:
            assert hs2.daemon is None


class TestBenchmarkTracing:
    def test_trace_wraps_existing_names(self, spark, tmp_path):
        """The benchmark's ``--trace 1`` wraps program functions by name;
        a rename must fail here, not only inside a benchmark run."""
        from perfbench.spans import Recorder, Tracer

        execute = HiveServer2.__dict__["execute"]
        rec = Recorder()
        with make_server(spark, tmp_path) as hs2:
            with Tracer(rec):
                hs2.execute(star_query())
                # the aggregate runs as one daemon fragment; the bare join
                # reaches the scans Spark reads
                hs2.execute(star_query().plan.child)
        assert HiveServer2.__dict__["execute"] is execute
        names = {s.name for s in rec.spans}
        assert {
            "core.hs2.execute",
            "core.hs2.resolve_scan",
            "core.semijoin.apply_reduction",
            "core.sharedwork.find_shared_subtrees",
            "core.compile.compile_plan",
            "llap.daemon.scan_table",
        } <= names

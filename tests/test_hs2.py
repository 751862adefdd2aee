"""HiveServer2 driver: the full pipeline of Figure 2, per engine config."""
import sys
import threading

import numpy as np
import pandas as pd
import pytest

from repro.core.expr import AggCall, And, Col, Func, InList, col
from repro.core.features import EngineConfig, SQLFeature, UnsupportedSQLError
from repro.core.hs2 import HiveServer2, QuerySpec, _HS2ExecutionContext
from repro.core.plan import Aggregate, Filter, Join, Scan, SetOp, Project, Union
from repro.core.reopt import ExecutionError
from repro.metastore import Column, Table
from repro.oracle import assert_equivalent


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


class TestMaterializedViews:
    def test_create_and_rewrite(self, spark, tmp_path):
        hs2 = make_server(spark, tmp_path)
        hs2.create_materialized_view("mv_cat", mv_def())
        q = QuerySpec(
            "by_cat",
            Aggregate(
                Join(Scan("sales"), Scan("item"), col("item_sk").eq(col("i_item_sk"))),
                ("i_cat",),
                (AggCall("sum", col("price"), "total"),),
            ),
        )
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
        q = QuerySpec(
            "by_cat",
            Aggregate(
                Join(Scan("sales"), Scan("item"), col("item_sk").eq(col("i_item_sk"))),
                ("i_cat",),
                (AggCall("sum", col("price"), "total"),),
            ),
        )
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
        """An incremental MV rebuild reads sales above its WriteId floor;
        a query running meanwhile must still see every row."""
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

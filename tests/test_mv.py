"""Materialized view rewriting (§4.4): regions, containment, Figure 4 cases."""
import numpy as np
import pandas as pd
import pytest

from repro.core.compile import compile_plan
from repro.core.cost import CostModel
from repro.core.expr import AggCall, And, Col, InList, col
from repro.core.mv import (
    Region,
    choose_rewrite,
    is_fresh,
    merge_aggregate_states,
    normalize_spja,
    rewrite_with_view,
)
from repro.core.optimizer import Optimizer, OptimizerContext
from repro.core.plan import Aggregate, Filter, Join, Scan, Union
from repro.druid import TIME_COL, DruidCluster
from repro.federation import DruidStorageHandler
from repro.oracle import assert_equivalent
from tests.conftest import Warehouse


# ---------------------------------------------------------------------------
# Region algebra
# ---------------------------------------------------------------------------


class TestRegion:
    def test_point_subset_of_range(self):
        q = Region.from_conjuncts([col("y").eq(2018)], "y")
        v = Region.from_conjuncts([col("y").gt(2017)], "y")
        assert q.is_subset(v)

    def test_range_not_subset(self):
        q = Region.from_conjuncts([col("y").gt(2016)], "y")
        v = Region.from_conjuncts([col("y").gt(2017)], "y")
        assert not q.is_subset(v)

    def test_in_list_subset(self):
        q = Region.from_conjuncts([InList(Col("m"), (1, 2, 3))], "m")
        v = Region.from_conjuncts([col("m").le(6)], "m")
        assert q.is_subset(v)

    def test_in_list_not_subset(self):
        q = Region.from_conjuncts([InList(Col("m"), (1, 9))], "m")
        v = Region.from_conjuncts([col("m").le(6)], "m")
        assert not q.is_subset(v)

    def test_closed_vs_open_bounds(self):
        q = Region.from_conjuncts([col("y").ge(2017)], "y")
        v = Region.from_conjuncts([col("y").gt(2017)], "y")
        assert not q.is_subset(v)
        assert Region.from_conjuncts([col("y").gt(2017)], "y").is_subset(
            Region.from_conjuncts([col("y").ge(2017)], "y")
        )

    def test_intersection_of_conjuncts(self):
        r = Region.from_conjuncts([col("y").gt(2000), col("y").le(2010)], "y")
        assert r.contains_value(2005)
        assert not r.contains_value(2011)
        assert not r.contains_value(2000)

    def test_difference_range(self):
        """The Figure 4c case: q: y > 2016 minus v: y > 2017."""
        q = Region.from_conjuncts([col("y").gt(2016)], "y")
        v = Region.from_conjuncts([col("y").gt(2017)], "y")
        (piece,) = q.difference_exprs(v, "y")
        assert piece == And(col("y").gt(2016), col("y").le(2017))

    def test_difference_in_set(self):
        q = Region.from_conjuncts([InList(Col("m"), (1, 5, 9))], "m")
        v = Region.from_conjuncts([col("m").le(6)], "m")
        (piece,) = q.difference_exprs(v, "m")
        assert piece == InList(Col("m"), (9,))

    def test_difference_empty(self):
        q = Region.from_conjuncts([col("y").eq(2018)], "y")
        v = Region.from_conjuncts([col("y").gt(2017)], "y")
        assert q.difference_exprs(v, "y") == []

    def test_unsupported_pred_returns_none(self):
        assert Region.from_conjuncts([col("y").eq(col("z"))], "y") is None


# ---------------------------------------------------------------------------
# SPJA rewriting: the store_sales ⋈ date_dim example of Figure 4
# ---------------------------------------------------------------------------


def make_star(pc):
    g = np.random.default_rng(3)
    n = 3000
    n_days = 3 * 365  # 2016, 2017, 2018 — the years Figure 4 exercises
    pc.load(
        "store_sales",
        pd.DataFrame(
            {
                "ss_sold_date_sk": g.integers(0, n_days, n),
                "ss_sales_price": g.random(n).round(2),
            }
        ),
    )
    pc.load(
        "date_dim",
        pd.DataFrame(
            {
                "d_date_sk": np.arange(n_days),
                "d_year": 2016 + np.arange(n_days) // 365,
                "d_moy": (np.arange(n_days) % 365) // 31 + 1,
            }
        ),
    )
    return pc


def view_def():
    """CREATE MATERIALIZED VIEW ... WHERE d_year > 2017 GROUP BY d_year, d_moy."""
    return Aggregate(
        Filter(
            Join(
                Scan("store_sales"),
                Scan("date_dim"),
                col("ss_sold_date_sk").eq(col("d_date_sk")),
            ),
            col("d_year").gt(2017),
        ),
        ("d_year", "d_moy"),
        (
            AggCall("sum", col("ss_sales_price"), "sum_sales"),
            AggCall("count_star", None, "cnt"),
        ),
    )


def wids_now(hms):
    """The WriteId lists of a statement starting now, one table at a time."""
    snap = hms.txns.snapshot()
    return lambda t: hms.txns.valid_write_ids(snap, t)


@pytest.fixture
def star(warehouse):
    pc = make_star(warehouse)
    view = pc.hs2.create_materialized_view("mat_view", view_def())
    ctx = OptimizerContext(pc.hms, CostModel(pc.hms))
    return pc, view, ctx


def full_query():
    """q1 of Figure 4: d_year = 2018 AND d_moy IN (1,2,3) — fully contained."""
    return Aggregate(
        Filter(
            Join(
                Scan("store_sales"),
                Scan("date_dim"),
                col("ss_sold_date_sk").eq(col("d_date_sk")),
            ),
            And(col("d_year").eq(2018), InList(Col("d_moy"), (1, 2, 3))),
        ),
        (),
        (AggCall("sum", col("ss_sales_price"), "sum_sales"),),
    )


def partial_query():
    """q2 of Figure 4: d_year > 2016 — partially contained (view has > 2017)."""
    return Aggregate(
        Filter(
            Join(
                Scan("store_sales"),
                Scan("date_dim"),
                col("ss_sold_date_sk").eq(col("d_date_sk")),
            ),
            col("d_year").gt(2016),
        ),
        ("d_year", "d_moy"),
        (AggCall("sum", col("ss_sales_price"), "sum_sales"),),
    )


def check(pc, original, rewritten, ctx):
    optimized = Optimizer(ctx).optimize(rewritten)
    df = compile_plan(optimized, pc.context())
    assert_equivalent(df, original.to_sql(), **pc.frames)


class TestNormalize:
    def test_spja_shape(self):
        n = normalize_spja(view_def())
        assert n.tables == ("date_dim", "store_sales")
        assert len(n.join_preds) == 1
        assert n.keys == ("d_year", "d_moy")

    def test_sort_not_normalizable(self):
        from repro.core.plan import Sort

        assert normalize_spja(Sort(Scan("t"), (("a", True),))) is None


class TestFullContainment:
    def test_rewrites_to_mv_scan(self, star):
        pc, view, _ = star
        out = rewrite_with_view(full_query(), view, pc.hms)
        assert out is not None
        assert out.tables() == {"mat_view"}

    def test_result_matches_oracle(self, star):
        pc, view, ctx = star
        out = rewrite_with_view(full_query(), view, pc.hms)
        check(pc, full_query(), out, ctx)

    def test_rollup_group_subset(self, star):
        """Query groups by d_year only — a rollup of the view's keys."""
        pc, view, ctx = star
        q = Aggregate(
            Filter(
                Join(
                    Scan("store_sales"),
                    Scan("date_dim"),
                    col("ss_sold_date_sk").eq(col("d_date_sk")),
                ),
                col("d_year").gt(2017),
            ),
            ("d_year",),
            (
                AggCall("sum", col("ss_sales_price"), "sum_sales"),
                AggCall("count_star", None, "cnt"),
            ),
        )
        out = rewrite_with_view(q, view, pc.hms)
        assert out is not None and out.tables() == {"mat_view"}
        check(pc, q, out, ctx)

    def test_count_star_rolls_up_as_sum(self, star):
        pc, view, _ = star
        q = Aggregate(
            Filter(
                Join(
                    Scan("store_sales"),
                    Scan("date_dim"),
                    col("ss_sold_date_sk").eq(col("d_date_sk")),
                ),
                col("d_year").eq(2018),
            ),
            ("d_moy",),
            (AggCall("count_star", None, "cnt"),),
        )
        out = rewrite_with_view(q, view, pc.hms)
        inner_aggs = [n for n in out.walk() if hasattr(n, "aggs")]
        assert any(a.func == "sum" for n in inner_aggs for a in n.aggs)

    def test_group_keys_not_subset_rejected(self, star):
        pc, view, _ = star
        q = Aggregate(
            Filter(
                Join(
                    Scan("store_sales"),
                    Scan("date_dim"),
                    col("ss_sold_date_sk").eq(col("d_date_sk")),
                ),
                col("d_year").gt(2017),
            ),
            ("d_date_sk",),  # not in the view's keys
            (AggCall("sum", col("ss_sales_price"), "sum_sales"),),
        )
        assert rewrite_with_view(q, view, pc.hms) is None

    def test_filter_on_lost_column_rejected(self, star):
        """The view aggregates ss_sales_price away; a query filtering on it
        cannot be compensated over the MV."""
        pc, view, _ = star
        q = Aggregate(
            Filter(
                Join(
                    Scan("store_sales"),
                    Scan("date_dim"),
                    col("ss_sold_date_sk").eq(col("d_date_sk")),
                ),
                And(col("d_year").gt(2017), col("ss_sales_price").gt(0.5)),
            ),
            ("d_year",),
            (AggCall("count_star", None, "cnt"),),
        )
        assert rewrite_with_view(q, view, pc.hms) is None

    def test_missing_view_filter_becomes_partial(self, star):
        """A query without the view's d_year restriction still rewrites —
        as a partial containment with a d_year <= 2017 remainder branch."""
        pc, view, ctx = star
        q = Aggregate(
            Filter(
                Join(
                    Scan("store_sales"),
                    Scan("date_dim"),
                    col("ss_sold_date_sk").eq(col("d_date_sk")),
                ),
                col("d_moy").gt(2),
            ),
            ("d_year",),
            (AggCall("sum", col("ss_sales_price"), "sum_sales"),),
        )
        out = rewrite_with_view(q, view, pc.hms)
        assert out is not None and any(isinstance(n, Union) for n in out.walk())
        check(pc, q, out, ctx)

    def test_different_tables_rejected(self, star):
        pc, view, _ = star
        q = Aggregate(
            Filter(Scan("store_sales"), col("ss_sales_price").gt(0.5)),
            (),
            (AggCall("sum", col("ss_sales_price"), "s"),),
        )
        assert rewrite_with_view(q, view, pc.hms) is None

    def test_unsupported_agg_rejected(self, star):
        pc, view, _ = star
        q = Aggregate(
            Filter(
                Join(
                    Scan("store_sales"),
                    Scan("date_dim"),
                    col("ss_sold_date_sk").eq(col("d_date_sk")),
                ),
                col("d_year").gt(2017),
            ),
            ("d_year",),
            (AggCall("avg", col("ss_sales_price"), "a"),),
        )
        assert rewrite_with_view(q, view, pc.hms) is None


class TestPartialContainment:
    def test_produces_union_shape(self, star):
        pc, view, _ = star
        out = rewrite_with_view(partial_query(), view, pc.hms)
        assert out is not None
        assert any(isinstance(n, Union) for n in out.walk())
        assert "mat_view" in out.tables() and "store_sales" in out.tables()

    def test_result_matches_oracle(self, star):
        pc, view, ctx = star
        out = rewrite_with_view(partial_query(), view, pc.hms)
        check(pc, partial_query(), out, ctx)

    def test_remainder_reads_only_missing_range(self, star):
        pc, view, _ = star
        out = rewrite_with_view(partial_query(), view, pc.hms)
        filters = [
            n.cond.to_sql()
            for n in out.walk()
            if isinstance(n, Filter) and "store_sales" in n.tables()
        ]
        assert any("2016" in f and "2017" in f for f in filters)


class TestChooseRewrite:
    def test_cost_based_choice_uses_view(self, star):
        pc, view, ctx = star
        plan, used = choose_rewrite(full_query(), pc.hms, ctx.cost, wids_now(pc.hms))
        assert used == "mat_view"

    def test_disabled_view_skipped(self, star):
        pc, view, ctx = star
        view.enabled_for_rewriting = False
        _, used = choose_rewrite(full_query(), pc.hms, ctx.cost, wids_now(pc.hms))
        assert used is None

    def test_stale_view_skipped(self, star):
        pc, view, ctx = star
        t = pc.hms.txns.open_txn()
        pc.hms.txns.allocate_write_id(t, "store_sales")
        pc.hms.txns.commit(t)
        assert not is_fresh(view, wids_now(pc.hms))
        _, used = choose_rewrite(full_query(), pc.hms, ctx.cost, wids_now(pc.hms))
        assert used is None

    def test_write_open_at_build_stales_view_on_commit(self, star):
        """A WriteId open when the view was built is below the watermark
        the view recorded; its commit must still make the view stale."""
        pc, view, ctx = star
        t = pc.hms.txns.open_txn()
        pc.hms.txns.allocate_write_id(t, "store_sales")
        view.snapshot = pc.hms.txns.write_id_lists(
            pc.hms.txns.snapshot(), view.source_tables
        )
        assert is_fresh(view, wids_now(pc.hms))
        pc.hms.txns.commit(t)
        assert not is_fresh(view, wids_now(pc.hms))

    def test_stale_within_window_used(self, star):
        pc, view, ctx = star
        t = pc.hms.txns.open_txn()
        pc.hms.txns.allocate_write_id(t, "store_sales")
        pc.hms.txns.commit(t)
        view.properties["rewriting.time.window"] = "600"
        view.properties["last.rebuild.time"] = "1000"
        _, used = choose_rewrite(full_query(), pc.hms, ctx.cost, wids_now(pc.hms), now=1300.0)
        assert used == "mat_view"
        _, used2 = choose_rewrite(full_query(), pc.hms, ctx.cost, wids_now(pc.hms), now=1700.0)
        assert used2 is None

    @pytest.mark.parametrize("store_in", ["native", "druid"])
    def test_view_reading_fewer_rows_used(self, spark, tmp_path, store_in):
        """A rollup of ``events`` by ``(__time, d1)`` saves the query only
        rows read: the aggregate above it and the result are the same size.
        Counting each scan's rows in the plan cost makes the view win."""
        g = np.random.default_rng(9)
        n = 3000
        events = pd.DataFrame(
            {
                TIME_COL: pd.to_datetime("2016-06-01")
                + pd.to_timedelta(g.integers(0, 1000, n), unit="D"),
                "d1": g.choice(["x", "y", "z"], n),
                "m1": g.random(n).round(4),
            }
        )
        with Warehouse(spark, tmp_path, events=events) as w:
            w.hs2.register_handler(DruidStorageHandler(DruidCluster()))
            w.hs2.create_materialized_view(
                "v",
                Aggregate(Scan("events"), (TIME_COL, "d1"), (AggCall("sum", col("m1"), "m1"),)),
                store_in=store_in,
            )
            query = Aggregate(Scan("events"), ("d1",), (AggCall("sum", col("m1"), "s"),))
            r = w.hs2.execute(query)
            assert r.mv_used == "v"
            assert_equivalent(spark.createDataFrame(r.result), query.to_sql(), **w.frames)


class TestIncrementalMerge:
    def test_sum_and_count_merge(self):
        old = pd.DataFrame({"k": [1, 2], "s": [10.0, 20.0], "c": [2, 3]})
        delta = pd.DataFrame({"k": [2, 3], "s": [5.0, 7.0], "c": [1, 1]})
        out = merge_aggregate_states(
            old,
            delta,
            ["k"],
            [AggCall("sum", col("x"), "s"), AggCall("count_star", None, "c")],
        ).sort_values("k")
        assert out["s"].tolist() == [10.0, 25.0, 7.0]
        assert out["c"].tolist() == [2, 4, 1]

    def test_min_max_merge(self):
        old = pd.DataFrame({"k": [1], "mn": [5], "mx": [9]})
        delta = pd.DataFrame({"k": [1], "mn": [3], "mx": [11]})
        out = merge_aggregate_states(
            old, delta, ["k"], [AggCall("min", col("x"), "mn"), AggCall("max", col("x"), "mx")]
        )
        assert out["mn"].tolist() == [3] and out["mx"].tolist() == [11]

    @pytest.mark.filterwarnings("error::FutureWarning")
    def test_null_key_and_null_sum_merge(self):
        """A NULL key is one group, and a SUM over only NULLs stays NULL."""
        old = pd.DataFrame({"k": [None, 1.0], "s": [None, 2.0], "c": [1, 1]})
        delta = pd.DataFrame({"k": [None], "s": [None], "c": [2]})
        out = merge_aggregate_states(
            old, delta, ["k"], [AggCall("sum", col("x"), "s"), AggCall("count", col("x"), "c")]
        ).sort_values("k")
        assert out["k"].tolist()[0] == 1.0 and pd.isna(out["k"].tolist()[1])
        assert out["s"].tolist()[0] == 2.0 and pd.isna(out["s"].tolist()[1])
        assert out["c"].tolist() == [1, 3]

    def test_global_aggregate_merge(self):
        old = pd.DataFrame({"s": [10.0]})
        delta = pd.DataFrame({"s": [5.0]})
        out = merge_aggregate_states(old, delta, [], [AggCall("sum", col("x"), "s")])
        assert out["s"].tolist() == [15.0]

"""Dynamic semijoin reduction (§4.6): detection, both variants, correctness."""
import numpy as np
import pandas as pd
import pytest

import repro.core.semijoin as semijoin
from repro.core.compile import compile_plan
from repro.core.cost import CostModel
from repro.core.expr import And, Func, col, lit
from repro.core.optimizer import OptimizerContext
from repro.core.plan import Filter, Join, Scan
from repro.core.semijoin import apply_reduction, find_opportunities
from repro.oracle import assert_equivalent
from repro.workloads import tpcds_lite
from tests.conftest import Warehouse, spark_jobs

_g = np.random.default_rng(11)
STORE_SALES = pd.DataFrame(
    {
        "ss_item_sk": _g.integers(0, 100, 1000),
        "ss_price": _g.random(1000).round(3),
    }
)
ITEM = pd.DataFrame(
    {
        "i_item_sk": range(100),
        "i_category": [("Sports" if i % 10 == 0 else "Other") for i in range(100)],
    }
)


def load(w, partitioned=False):
    """``store_sales`` (partitioned by its join key if ``partitioned``) and
    ``item`` in ``w``, with the optimizer context over its metastore."""
    w.load("store_sales", STORE_SALES, partitioned_by=["ss_item_sk"] if partitioned else ())
    w.load("item", ITEM)
    return w, OptimizerContext(w.hms, CostModel(w.hms))


@pytest.fixture
def env(warehouse):
    return load(warehouse)


@pytest.fixture(params=["v3_1", "v3_1_container"])
def arm(request, spark, tmp_path):
    """An empty server in either arm: LLAP evaluates the dimension side
    daemon-side (``collect_values``), containers compile it."""
    with Warehouse(spark, tmp_path, request.param) as w:
        yield w


def star_query(dim_filter=col("i_category").eq("Sports")):
    return Join(
        Scan("store_sales"),
        Filter(Scan("item"), dim_filter),
        col("ss_item_sk").eq(col("i_item_sk")),
    )


def reduce_and_check(pc, ctx, original):
    """Reduce ``original`` in one statement's context, run it there, and
    compare with DuckDB on the unreduced plan."""
    query_ctx = pc.context()
    plan, report = apply_reduction(original, ctx, query_ctx)
    assert_equivalent(compile_plan(plan, query_ctx), original.to_sql(), **pc.frames)
    return plan, report


class TestDetection:
    def test_finds_filtered_dim_opportunity(self, env):
        _, ctx = env
        opps = find_opportunities(star_query(), ctx)
        assert len(opps) == 1
        o = opps[0]
        assert o.target_table == "store_sales"
        assert o.target_column == "ss_item_sk"
        assert o.source_column == "i_item_sk"
        assert o.kind == "index_semijoin"

    def test_partition_pruning_variant_detected(self, env):
        pc, ctx = env
        pc.hms.get_table("store_sales").partitioned_by.append("ss_item_sk")
        opps = find_opportunities(star_query(), ctx)
        assert opps[0].kind == "partition_pruning"

    def test_no_opportunity_without_dim_filter(self, env):
        _, ctx = env
        plan = Join(
            Scan("store_sales"), Scan("item"), col("ss_item_sk").eq(col("i_item_sk"))
        )
        assert find_opportunities(plan, ctx) == []

    def test_large_build_side_skipped(self, env):
        _, ctx = env
        opps = find_opportunities(star_query(), ctx, max_build_rows=1)
        assert opps == []


class TestIndexSemijoin:
    def test_runtime_filter_built(self, env):
        pc, ctx = env
        plan, report = apply_reduction(star_query(), ctx, pc.context())
        assert len(report.runtime_filters) == 1
        rf = report.runtime_filters[0]
        assert rf.min_value == 0 and rf.max_value == 90
        assert rf.n_values == 10
        assert rf.bloom.might_contain(10)
        assert not rf.bloom.might_contain(11)

    def test_scan_annotated_with_range(self, env):
        pc, ctx = env
        plan, _ = apply_reduction(star_query(), ctx, pc.context())
        scans = [n for n in plan.walk() if isinstance(n, Scan) and n.table == "store_sales"]
        assert len(scans[0].pushed_filters) == 2  # >= min and <= max

    def test_result_unchanged(self, arm):
        reduce_and_check(*load(arm), star_query())

    def test_empty_dim_side_yields_empty_filter(self, arm):
        pc, ctx = load(arm)
        plan = star_query(col("i_category").eq("DoesNotExist"))
        new_plan, report = reduce_and_check(pc, ctx, plan)
        assert report.runtime_filters[0].n_values == 0


class TestDimensionSide:
    """How the LLAP arm evaluates the dimension side."""

    def test_unevaluable_filter_falls_back_to_engine(self, warehouse, monkeypatch):
        """``current_date`` has no pandas form: the daemon-side path gives
        up and the dimension side runs as an engine job."""
        pc, ctx = load(warehouse)
        jobs = []
        monkeypatch.setattr(
            semijoin, "compile_plan", lambda p, c: jobs.append(p) or compile_plan(p, c)
        )
        dim_filter = And(
            col("i_category").eq("Sports"), Func("current_date", ()).ge(lit("2001-01-01"))
        )
        _, report = reduce_and_check(pc, ctx, star_query(dim_filter))
        assert len(jobs) == 1
        assert report.runtime_filters[0].n_values == 10

    def test_daemon_side_prepare_launches_no_spark_job(self, spark, warehouse):
        """q02's Sports dimension side is evaluated in the daemon: preparing
        the query reduces ``store_sales`` without a Spark job."""
        tpcds_lite.load_into(warehouse.hs2, sf=0.002)
        (q,) = [q for q in tpcds_lite.queries() if q.name == "q02_semijoin_sports"]
        ctx = warehouse.context()
        with spark_jobs(spark) as jobs:
            ctx.prepare(q.plan, {})
        assert ctx.semijoin.runtime_filters
        assert jobs == []

    def test_daemon_error_propagates(self, warehouse, monkeypatch):
        """A failed daemon read is an error, not a reason to re-run the
        dimension side as an engine job."""
        pc, ctx = load(warehouse)
        calls = []

        def failing_scan(table, *args, **kwargs):
            calls.append(table)
            raise OSError("lost the fragment")

        monkeypatch.setattr(pc.hs2.daemon, "scan_table", failing_scan)
        with pytest.raises(OSError, match="lost the fragment"):
            apply_reduction(star_query(), ctx, pc.context())
        assert calls == ["item"]


class TestPartitionPruning:
    def test_partitions_restricted(self, arm):
        pc, ctx = load(arm, partitioned=True)
        plan, report = reduce_and_check(pc, ctx, star_query())
        scan = [n for n in plan.walk() if isinstance(n, Scan) and n.table == "store_sales"][0]
        assert scan.partitions is not None
        assert report.partitions_after < report.partitions_before
        # only Sports item_sks (multiples of 10 present in the fact data)
        assert all("ss_item_sk=" in p for p in scan.partitions)
        kept_vals = {int(p.split("=")[1]) for p in scan.partitions}
        assert kept_vals <= {0, 10, 20, 30, 40, 50, 60, 70, 80, 90}

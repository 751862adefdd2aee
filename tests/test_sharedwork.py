"""Shared work optimizer (§4.5): maximal equal-subtree detection + reuse,
and the merge of a union of global aggregates into one pass."""
import numpy as np
import pandas as pd
import pytest

from repro.core.compile import compile_plan
from repro.core.expr import AggCall, And, col
from repro.core.hs2 import _HS2ExecutionContext
from repro.core.plan import Aggregate, Filter, Join, Project, Scan, Union, Unpivot
from repro.core.sharedwork import find_shared_subtrees, merge_union_aggregates
from repro.oracle import assert_equivalent
from repro.storage import AcidReader
from repro.workloads import tpcds_lite
from tests.conftest import Warehouse


def q88_shape(n_branches=4):
    """The q88 pattern: many aggregations over the same filtered scan,
    unioned — the query where shared work gave Hive 2.7x (§7.1)."""
    base = Filter(Scan("fact"), col("v").gt(0.1))
    branches = tuple(
        Project(
            Aggregate(
                Filter(base, col("h").eq(i)),
                (),
                (AggCall("count_star", None, "c"),),
            ),
            (("branch", col("c").mul(0)), ("c", col("c"))),
        )
        for i in range(n_branches)
    )
    return Union(branches, all=True)


class TestDetection:
    def test_repeated_filtered_scan_found(self):
        base = Filter(Scan("fact"), col("v").gt(0.1))
        plan = Union((Aggregate(base, (), (AggCall("count_star", None, "c"),)),
                      Aggregate(base, ("h",), (AggCall("count_star", None, "c"),))))
        shared = find_shared_subtrees(plan)
        assert base.fingerprint() in shared

    def test_maximality(self):
        """When the whole branch repeats, only the branch is shared — not
        its inner scan too."""
        branch = Aggregate(
            Filter(Scan("fact"), col("v").gt(0.1)), (), (AggCall("count_star", None, "c"),)
        )
        plan = Union((branch, branch))
        shared = find_shared_subtrees(plan)
        assert shared == {branch.fingerprint()}

    def test_no_sharing_when_subtrees_differ(self):
        """Branches over different tables share nothing, not even a scan."""
        plan = Union(
            (
                Aggregate(Filter(Scan("fact"), col("v").gt(0.1)), (), (AggCall("count_star", None, "c"),)),
                Aggregate(Filter(Scan("other"), col("v").gt(0.1)), (), (AggCall("count_star", None, "c"),)),
            )
        )
        shared = find_shared_subtrees(plan)
        assert shared == set()

    def test_bare_scan_shared_by_default(self):
        plan = Union(
            (
                Aggregate(Filter(Scan("fact"), col("v").gt(0.1)), (), (AggCall("count_star", None, "c"),)),
                Aggregate(Filter(Scan("fact"), col("v").gt(0.2)), (), (AggCall("count_star", None, "c"),)),
            )
        )
        assert Scan("fact").fingerprint() in find_shared_subtrees(plan)

    def test_q88_counts(self):
        plan = q88_shape(4)
        shared = find_shared_subtrees(plan)
        base = Filter(Scan("fact"), col("v").gt(0.1))
        assert base.fingerprint() in shared
        assert sum(node == base for node in plan.walk()) == 4


FACT = pd.DataFrame({"v": [0.05, 0.2, 0.5, 0.9] * 25, "h": [0, 1, 2, 3] * 25})


class TestExecution:
    @pytest.fixture
    def pc(self, warehouse):
        warehouse.load("fact", FACT)
        return warehouse

    def test_shared_execution_correct(self, pc):
        plan = q88_shape(4)
        shared = find_shared_subtrees(plan)
        df = compile_plan(plan, pc.context(), shared_fingerprints=shared)
        assert_equivalent(df, plan.to_sql(), **pc.frames)

    def test_shared_compiles_subtree_once(self, spark, tmp_path):
        """On containers Spark computes the shared filtered scan once. (On
        LLAP the daemon runs each aggregate with its scan, and its cache
        serves the repeated read: no Scan is compiled.)"""
        plan = q88_shape(3)
        shared = find_shared_subtrees(plan)
        calls = []
        with Warehouse(spark, tmp_path, "v3_1_container", fact=FACT) as w:
            ctx = w.context()
            orig = ctx.resolve_scan

            def counting(scan):
                calls.append(scan.table)
                return orig(scan)

            ctx.resolve_scan = counting
            memo: dict = {}
            compile_plan(plan, ctx, shared_fingerprints=shared, _memo=memo)
        # the shared filtered scan resolves its Scan exactly once
        assert calls.count("fact") == 1
        assert len(memo) >= 1


class TestMergeEquivalentScans:
    def test_merges_differently_annotated_scans(self):
        from repro.core.sharedwork import merge_equivalent_scans

        a = Scan("fact", pushed_filters=(col("v").gt(0.1), col("h").eq(1)))
        b = Scan("fact", pushed_filters=(col("v").gt(0.1), col("h").eq(2)))
        plan = Union(
            (
                Aggregate(Filter(a, col("h").eq(1)), (), (AggCall("count_star", None, "c"),)),
                Aggregate(Filter(b, col("h").eq(2)), (), (AggCall("count_star", None, "c"),)),
            )
        )
        out = merge_equivalent_scans(plan)
        scans = [n for n in out.walk() if isinstance(n, Scan)]
        assert scans[0] == scans[1]
        # the common conjunct survives; the divergent ones are dropped
        assert scans[0].pushed_filters == (col("v").gt(0.1),)

    def test_merge_unions_partitions_and_columns(self):
        from repro.core.sharedwork import merge_equivalent_scans

        a = Scan("fact", columns=("x", "y"), partitions=("p=1",))
        b = Scan("fact", columns=("y", "z"), partitions=("p=2",))
        out = merge_equivalent_scans(Union((a, b)))
        s = next(n for n in out.walk() if isinstance(n, Scan))
        assert set(s.columns) == {"x", "y", "z"}
        assert s.partitions == ("p=1", "p=2")

    def test_identical_scans_untouched(self):
        from repro.core.sharedwork import merge_equivalent_scans

        plan = Union((Scan("fact"), Scan("fact")))
        assert merge_equivalent_scans(plan) == plan

    def test_single_scan_untouched(self):
        from repro.core.sharedwork import merge_equivalent_scans

        plan = Filter(Scan("fact"), col("v").gt(0.1))
        assert merge_equivalent_scans(plan) is plan

    def test_none_partitions_wins(self):
        from repro.core.sharedwork import merge_equivalent_scans

        a = Scan("fact", partitions=("p=1",))
        b = Scan("fact")  # unpruned
        out = merge_equivalent_scans(Union((a, b)))
        s = next(n for n in out.walk() if isinstance(n, Scan))
        assert s.partitions is None


AGGS = (
    AggCall("count_star", None, "n"),
    AggCall("sum", col("v"), "s"),
    AggCall("avg", col("v"), "a"),
    AggCall("min", col("v"), "lo"),
    AggCall("count", col("w"), "nw"),
)


def agg_union(conds, table="fact", project=True):
    """One global aggregate per condition (None: unfiltered) over
    ``table``, unioned; with ``project``, each branch is tagged."""
    branches = []
    for i, cond in enumerate(conds):
        branch = Aggregate(Scan(table) if cond is None else Filter(Scan(table), cond), (), AGGS)
        if project:
            tag = col("n").mul(0).add(i)
            branch = Project(branch, (("branch", tag),) + tuple((a.name, col(a.name)) for a in AGGS))
        branches.append(branch)
    return Union(tuple(branches), all=True)


# unions the merge does not cover: grouped aggregates, aggregates over
# different inputs, and a DISTINCT union
LEFT_ALONE = [
    Union(
        (
            Aggregate(Filter(Scan("fact"), col("h").eq(0)), ("h",), AGGS),
            Aggregate(Filter(Scan("fact"), col("h").eq(1)), ("h",), AGGS),
        )
    ),
    Union(
        (
            agg_union([col("h").eq(0)]).inputs[0],
            agg_union([col("h").eq(1)], table="other").inputs[0],
        )
    ),
    Union(agg_union([col("h").eq(0), col("h").eq(0)]).inputs, all=False),
]
LEFT_ALONE_IDS = ["grouped", "different_inputs", "union_distinct"]


class TestMergeUnionAggregates:
    def test_q88_shape_becomes_one_aggregate(self):
        plan = q88_shape(4)
        out = merge_union_aggregates(plan)
        assert isinstance(out, Unpivot)
        assert out.names == ("branch", "c")
        agg = out.child
        assert isinstance(agg, Aggregate) and agg.keys == ()
        # one filtered call per branch over the shared input
        assert agg.child == Filter(Scan("fact"), col("v").gt(0.1))
        assert [a.filter for a in agg.aggs] == [col("h").eq(i) for i in range(4)]
        assert len({a.name for a in agg.aggs}) == 4

    def test_common_conjuncts_stay_below(self):
        conds = [And(col("v").gt(0.1), col("h").eq(i)) for i in range(3)]
        out = merge_union_aggregates(agg_union(conds))
        assert out.child.child == Filter(Scan("fact"), col("v").gt(0.1))
        assert {a.filter for a in out.child.aggs} == {col("h").eq(i) for i in range(3)}

    def test_unfiltered_branch_shares_no_conjunct(self):
        out = merge_union_aggregates(agg_union([None, col("h").eq(1)]))
        assert out.child.child == Scan("fact")
        assert [a.filter for a in out.child.aggs[:len(AGGS)]] == [None] * len(AGGS)

    @pytest.mark.parametrize(
        "plan",
        LEFT_ALONE + [
            Union(
                (
                    Aggregate(Scan("fact"), (), (AggCall("count_star", None, "n"),)),
                    Aggregate(Scan("fact"), (), (AggCall("count_star", None, "m"),)),
                )
            )
        ],
        ids=LEFT_ALONE_IDS + ["different_names"],
    )
    def test_shapes_left_alone(self, plan):
        assert merge_union_aggregates(plan) == plan


@pytest.fixture(params=["v3_1", "v3_1_container"])
def server(request, spark, tmp_path):
    """A server in either arm with ``fact`` (100 rows, ``w`` partly NULL),
    ``other`` (same schema) and the empty ``empty``."""
    v = np.array([0.05, 0.2, 0.5, 0.9] * 25)
    fact = pd.DataFrame({"v": v, "w": np.where(v > 0.3, v, np.nan), "h": [0, 1, 2, 3] * 25})
    other = pd.DataFrame({"v": [1.0, 2.0], "w": [1.0, 2.0], "h": [0, 1]})
    with Warehouse(spark, tmp_path, request.param, fact=fact, other=other, empty=fact[:0]) as w:
        yield w.hs2


def check(hs2, r, plan):
    """The result equals DuckDB's answer to the query, and so does the
    plan that ran, rewrites included."""
    tables = {t: hs2.reader.scan(t).toPandas() for t in ("fact", "other", "empty")}
    for sql in (plan.to_sql(), r.final_plan.to_sql()):
        assert_equivalent(hs2.spark.createDataFrame(r.result), sql, **tables)


def merged(r) -> bool:
    return any(isinstance(n, Unpivot) for n in r.final_plan.walk())


class TestMergeExecution:
    def test_filtered_aggregates_with_project(self, server):
        plan = agg_union([col("h").eq(0), col("h").eq(2), And(col("h").eq(3), col("v").gt(0.3))])
        r = server.execute(plan)
        assert merged(r) and r.shared_subtrees == 1
        assert len(r.result) == 3
        check(server, r, plan)

    def test_aggregates_without_project(self, server):
        plan = agg_union([None, col("h").eq(1), col("w").gt(0.6)], project=False)
        r = server.execute(plan)
        assert merged(r)
        check(server, r, plan)

    def test_branches_of_different_types(self, server):
        """A bigint sum and a double average share one output column."""
        plan = Union(
            (
                Aggregate(Filter(Scan("fact"), col("h").eq(1)), (), (AggCall("sum", col("h"), "x"),)),
                Aggregate(Filter(Scan("fact"), col("h").eq(2)), (), (AggCall("avg", col("v"), "x"),)),
            )
        )
        r = server.execute(plan)
        assert merged(r)
        check(server, r, plan)

    def test_branch_matching_no_rows(self, server):
        plan = agg_union([col("h").eq(2), col("h").eq(99)])
        r = server.execute(plan)
        assert merged(r)
        none = r.result[r.result["branch"] == 1].iloc[0]
        assert none["n"] == 0 and none["nw"] == 0
        assert pd.isna(none["s"]) and pd.isna(none["lo"])
        check(server, r, plan)

    def test_empty_table(self, server):
        plan = agg_union([None, col("h").eq(1)], table="empty")
        r = server.execute(plan)
        assert merged(r)
        assert sorted(r.result["n"]) == [0, 0]
        assert r.result["s"].isna().all()
        check(server, r, plan)

    @pytest.mark.parametrize("plan", LEFT_ALONE, ids=LEFT_ALONE_IDS)
    def test_shapes_left_alone(self, server, plan):
        r = server.execute(plan)
        assert not merged(r)
        check(server, r, plan)

    def test_one_aggregate_feeds_one_generator(self, server):
        """One aggregate pass: a Spark ``Aggregate``, or in the LLAP arm the
        fragment the daemon ran, feeds one generator."""
        plan = agg_union([col("h").eq(i) for i in range(4)])
        r = server.execute(plan)
        ctx = _HS2ExecutionContext(server, server.hms.txns.snapshot())
        optimized = compile_plan(r.final_plan, ctx)._jdf.queryExecution().optimizedPlan()
        ops = [line.lstrip(" :+-") for line in optimized.toString().splitlines()]
        assert sum(op.startswith("Aggregate") for op in ops) + ctx.daemon_aggregates == 1
        assert sum(op.startswith("Generate") for op in ops) == 1
        assert not any(op.startswith(("Union", "InMemoryRelation")) for op in ops)

    def test_q07_scans_once_and_persists_nothing(self, server, spark, monkeypatch):
        tpcds_lite.load_into(server, sf=0.002)
        q07 = next(q for q in tpcds_lite.queries() if q.name == "q07_q88_shape")
        scans, persisted = [], []
        # every scan, in either arm, resolves its snapshot's files here
        visible_files = AcidReader.visible_files
        frame_class = type(spark.range(1))  # the session's DataFrame class
        persist = frame_class.persist

        def counting_scan(reader, table, *args, **kwargs):
            scans.append(table)
            return visible_files(reader, table, *args, **kwargs)

        def counting_persist(df, *args, **kwargs):
            persisted.append(df)
            return persist(df, *args, **kwargs)

        monkeypatch.setattr(AcidReader, "visible_files", counting_scan)
        monkeypatch.setattr(frame_class, "persist", counting_persist)
        rdds = spark.sparkContext._jsc.getPersistentRDDs
        before = rdds().size()
        r = server.execute(q07)
        assert scans == ["store_sales"]
        assert persisted == [] and rdds().size() == before
        assert r.shared_subtrees == 1
        frames = {t: server.reader.scan(t).toPandas() for t in ("store_sales",)}
        assert_equivalent(spark.createDataFrame(r.result), q07.plan.to_sql(), **frames)

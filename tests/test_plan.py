"""Plan algebra: structure, fingerprints, SQL generation, output columns."""
import pandas as pd
import pytest

from repro.core.compile import compile_plan
from repro.core.expr import AggCall, col, lit
from repro.core.plan import (
    Aggregate,
    Filter,
    Join,
    Limit,
    Plan,
    Project,
    Scan,
    SetOp,
    Sort,
    Union,
    output_columns,
)
from repro.oracle import assert_equivalent


@pytest.fixture
def ctx(warehouse):
    warehouse.load("r", pd.DataFrame({"a": [1, 2, 3, 4], "b": [10.0, 20.0, 30.0, 40.0]}))
    warehouse.load("s", pd.DataFrame({"a2": [2, 3, 5], "c": ["x", "y", "z"]}))
    return warehouse


class TestStructure:
    def test_children_and_with_children(self):
        f = Filter(Scan("r"), col("a").gt(1))
        assert f.children() == (Scan("r"),)
        g = f.with_children(Scan("s"))
        assert g.child == Scan("s") and g.cond == f.cond

    def test_transform_up(self):
        plan = Filter(Scan("r"), col("a").gt(1))

        def rename(node: Plan) -> Plan:
            if isinstance(node, Scan):
                return Scan("s")
            return node

        assert plan.transform_up(rename).child.table == "s"

    def test_tables(self):
        plan = Join(Scan("r"), Filter(Scan("s"), col("c").eq("x")), col("a").eq(col("a2")))
        assert plan.tables() == {"r", "s"}

    def test_fingerprint_stable_and_distinct(self):
        p1 = Filter(Scan("r"), col("a").gt(1))
        p2 = Filter(Scan("r"), col("a").gt(1))
        p3 = Filter(Scan("r"), col("a").gt(2))
        assert p1.fingerprint() == p2.fingerprint()
        assert p1.fingerprint() != p3.fingerprint()

    def test_function_names(self):
        from repro.core.expr import Func

        p = Filter(Scan("r"), Func("rand", ()).gt(0.5))
        assert p.function_names() == {"rand"}

    def test_setop_validation(self):
        with pytest.raises(ValueError):
            SetOp("union", Scan("r"), Scan("s"))


class TestOutputColumns:
    def test_scan(self, ctx):
        assert output_columns(Scan("r"), ctx.hms) == ["a", "b"]
        assert output_columns(Scan("r", columns=("b",)), ctx.hms) == ["b"]

    def test_project(self, ctx):
        p = Project(Scan("r"), (("x", col("a")),))
        assert output_columns(p, ctx.hms) == ["x"]

    def test_join_concat(self, ctx):
        j = Join(Scan("r"), Scan("s"), col("a").eq(col("a2")))
        assert output_columns(j, ctx.hms) == ["a", "b", "a2", "c"]

    def test_aggregate(self, ctx):
        a = Aggregate(Scan("r"), ("a",), (AggCall("sum", col("b"), "sb"),))
        assert output_columns(a, ctx.hms) == ["a", "sb"]


class TestSqlAndCompile:
    """Every operator type: compiled Spark result == DuckDB on to_sql()."""

    def _check(self, ctx, plan):
        df = compile_plan(plan, ctx.context())
        assert_equivalent(df, plan.to_sql(), **ctx.frames)

    def test_scan(self, ctx):
        self._check(ctx, Scan("r"))

    def test_filter(self, ctx):
        self._check(ctx, Filter(Scan("r"), col("a").ge(2)))

    def test_project(self, ctx):
        self._check(
            ctx,
            Project(Scan("r"), (("x", col("a").mul(2)), ("y", col("b")))),
        )

    def test_join(self, ctx):
        self._check(ctx, Join(Scan("r"), Scan("s"), col("a").eq(col("a2"))))

    def test_left_join(self, ctx):
        self._check(ctx, Join(Scan("r"), Scan("s"), col("a").eq(col("a2")), "left"))

    def test_semi_join(self, ctx):
        plan = Join(Scan("r"), Scan("s"), col("a").eq(col("a2")), "left_semi")
        df = compile_plan(plan, ctx.context())
        assert sorted(r["a"] for r in df.collect()) == [2, 3]

    def test_aggregate(self, ctx):
        self._check(
            ctx,
            Aggregate(Scan("r"), ("a",), (AggCall("sum", col("b"), "sb"),)),
        )

    def test_global_aggregate(self, ctx):
        self._check(
            ctx,
            Aggregate(
                Scan("r"), (), (AggCall("count_star", None, "c"), AggCall("max", col("b"), "m"))
            ),
        )

    def test_sort_limit_topn(self, ctx):
        plan = Limit(Sort(Scan("r"), (("b", False),)), 2)
        got = [r["a"] for r in compile_plan(plan, ctx.context()).collect()]
        assert got == [4, 3]

    def test_union_all(self, ctx):
        self._check(ctx, Union((Scan("r"), Scan("r")), all=True))

    def test_union_distinct(self, ctx):
        self._check(ctx, Union((Scan("r"), Scan("r")), all=False))

    def test_intersect(self, ctx):
        p = SetOp(
            "intersect",
            Project(Scan("r"), (("k", col("a")),)),
            Project(Scan("s"), (("k", col("a2")),)),
        )
        self._check(ctx, p)

    def test_except(self, ctx):
        p = SetOp(
            "except",
            Project(Scan("r"), (("k", col("a")),)),
            Project(Scan("s"), (("k", col("a2")),)),
        )
        self._check(ctx, p)

    def test_filter_project_aggregate_stack(self, ctx):
        plan = Aggregate(
            Project(
                Filter(Scan("r"), col("a").gt(1)),
                (("a", col("a")), ("doubled", col("b").mul(2))),
            ),
            (),
            (AggCall("sum", col("doubled"), "sd"),),
        )
        self._check(ctx, plan)

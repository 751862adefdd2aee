"""Rewrite rules (§4.1): each rule changes plan shape and preserves results."""
import pandas as pd
import pytest

from repro.core.compile import compile_plan
from repro.core.cost import CostModel
from repro.core.expr import FALSE, TRUE, And, col, lit
from repro.core.optimizer import Optimizer, OptimizerContext
from repro.core.plan import Aggregate, Filter, Join, Project, Scan, Union
from repro.core.rules import (
    annotate_sargable_filters,
    eliminate_trivial_ops,
    fold_constants,
    merge_filters,
    prune_columns,
    prune_partitions,
    push_filter_into_aggregate,
    push_filter_through_join,
    push_filter_through_union,
    simplify_predicates,
)
from repro.core.expr import AggCall
from repro.oracle import assert_equivalent

R = pd.DataFrame({"a": [1, 2, 3, 4, 5], "b": [1.0, 2.0, 3.0, 4.0, 5.0]})
S = pd.DataFrame({"a2": [2, 4, 6], "c": ["x", "y", "z"]})


def load(w, partitioned_by=()):
    w.load("r", R, partitioned_by)
    w.load("s", S)
    return w, OptimizerContext(w.hms, CostModel(w.hms))


@pytest.fixture
def env(warehouse):
    return load(warehouse)


@pytest.fixture
def partitioned_env(warehouse):
    """``env`` with ``r`` partitioned by ``a`` (partitions a=1..a=5)."""
    return load(warehouse, ["a"])


def check_equiv(pc, original, rewritten):
    """The rewritten plan must produce the oracle result of the original."""
    df = compile_plan(rewritten, pc.context())
    assert_equivalent(df, original.to_sql(), **pc.frames)


class TestFolding:
    def test_constant_arithmetic(self, env):
        pc, ctx = env
        p = Filter(Scan("r"), col("a").gt(lit(1).add(1)))
        out = fold_constants(p, ctx)
        assert out == Filter(Scan("r"), col("a").gt(2))
        check_equiv(pc, p, out)

    def test_null_operand_folds_to_null(self, env):
        _, ctx = env
        p = Filter(Scan("r"), col("a").gt(lit(None).add(1)))
        assert fold_constants(p, ctx).cond == col("a").gt(lit(None))

    def test_true_conjunct_removed(self, env):
        _, ctx = env
        p = Filter(Scan("r"), And(TRUE, col("a").gt(1)))
        assert fold_constants(p, ctx).cond == col("a").gt(1)

    def test_false_shortcircuits(self, env):
        _, ctx = env
        p = Filter(Scan("r"), And(col("a").gt(1), FALSE))
        assert fold_constants(p, ctx).cond == FALSE

    def test_double_negation(self, env):
        from repro.core.expr import Not

        _, ctx = env
        p = Filter(Scan("r"), Not(Not(col("a").gt(1))))
        assert fold_constants(p, ctx).cond == col("a").gt(1)


class TestSimplify:
    def test_duplicate_conjuncts_deduped(self, env):
        _, ctx = env
        p = Filter(Scan("r"), And(col("a").eq(1), col("a").eq(1)))
        assert simplify_predicates(p, ctx).cond == col("a").eq(1)

    def test_contradiction_to_false(self, env):
        pc, ctx = env
        p = Filter(Scan("r"), And(col("a").eq(1), col("a").eq(2)))
        out = simplify_predicates(p, ctx)
        assert out.cond == FALSE
        check_equiv(pc, p, out)


class TestMergeAndPush:
    def test_merge_filters(self, env):
        pc, ctx = env
        p = Filter(Filter(Scan("r"), col("a").gt(1)), col("b").lt(5.0))
        out = merge_filters(p, ctx)
        assert isinstance(out.child, Scan)
        check_equiv(pc, p, out)

    def test_push_through_join_splits_sides(self, env):
        pc, ctx = env
        p = Filter(
            Join(Scan("r"), Scan("s"), col("a").eq(col("a2"))),
            And(col("b").gt(1.0), col("c").eq("x")),
        )
        out = push_filter_through_join(p, ctx)
        assert isinstance(out, Join)
        assert isinstance(out.left, Filter) and out.left.cond == col("b").gt(1.0)
        assert isinstance(out.right, Filter) and out.right.cond == col("c").eq("x")
        check_equiv(pc, p, out)

    def test_mixed_conjunct_stays_above(self, env):
        _, ctx = env
        p = Filter(
            Join(Scan("r"), Scan("s"), col("a").eq(col("a2"))),
            And(col("b").gt(1.0), col("b").lt(col("a2"))),
        )
        out = push_filter_through_join(p, ctx)
        assert isinstance(out, Filter)  # the cross-side conjunct remains
        assert out.cond == col("b").lt(col("a2"))

    def test_no_push_through_left_join(self, env):
        _, ctx = env
        p = Filter(
            Join(Scan("r"), Scan("s"), col("a").eq(col("a2")), "left"),
            col("c").eq("x"),
        )
        assert push_filter_through_join(p, ctx) is p

    def test_push_through_union(self, env):
        pc, ctx = env
        p = Filter(Union((Scan("r"), Scan("r"))), col("a").gt(2))
        out = push_filter_through_union(p, ctx)
        assert isinstance(out, Union)
        assert all(isinstance(i, Filter) for i in out.inputs)
        check_equiv(pc, p, out)

    def test_push_into_aggregate_on_keys(self, env):
        pc, ctx = env
        p = Filter(
            Aggregate(Scan("r"), ("a",), (AggCall("sum", col("b"), "sb"),)),
            col("a").gt(2),
        )
        out = push_filter_into_aggregate(p, ctx)
        assert isinstance(out, Aggregate)
        assert isinstance(out.child, Filter)
        check_equiv(pc, p, out)

    def test_agg_filter_on_result_not_pushed(self, env):
        _, ctx = env
        p = Filter(
            Aggregate(Scan("r"), ("a",), (AggCall("sum", col("b"), "sb"),)),
            col("sb").gt(2.0),
        )
        assert push_filter_into_aggregate(p, ctx) is p


class TestEliminate:
    def test_true_filter_removed(self, env):
        _, ctx = env
        assert eliminate_trivial_ops(Filter(Scan("r"), TRUE), ctx) == Scan("r")

    def test_identity_project_removed(self, env):
        _, ctx = env
        p = Project(Scan("r"), (("a", col("a")), ("b", col("b"))))
        assert eliminate_trivial_ops(p, ctx) == Scan("r")

    def test_renaming_project_kept(self, env):
        _, ctx = env
        p = Project(Scan("r"), (("x", col("a")), ("b", col("b"))))
        assert eliminate_trivial_ops(p, ctx) is p


class TestPhysicalRules:
    def test_partition_pruning(self, partitioned_env):
        pc, ctx = partitioned_env
        p = Filter(Scan("r"), col("a").isin(2, 3))
        out = prune_partitions(p, ctx)
        assert out.child.partitions == ("a=2", "a=3")
        check_equiv(pc, p, out)

    def test_partition_pruning_range(self, partitioned_env):
        pc, ctx = partitioned_env
        p = Filter(Scan("r"), col("a").ge(4))
        out = prune_partitions(p, ctx)
        assert out.child.partitions == ("a=4", "a=5")

    def test_no_pruning_on_data_column(self, partitioned_env):
        pc, ctx = partitioned_env
        p = Filter(Scan("r"), col("b").gt(1.0))
        assert prune_partitions(p, ctx) is p

    def test_column_pruning(self, env):
        pc, ctx = env
        p = Project(Filter(Scan("r"), col("a").gt(1)), (("x", col("a")),))
        out = prune_columns(p, ctx)
        assert out.child.child.columns == ("a",)
        check_equiv(pc, p, out)

    def test_column_pruning_join(self, env):
        pc, ctx = env
        p = Project(
            Join(Scan("r"), Scan("s"), col("a").eq(col("a2"))),
            (("x", col("b")),),
        )
        out = prune_columns(p, ctx)
        assert out.child.left.columns == ("a", "b")
        assert out.child.right.columns == ("a2",)
        check_equiv(pc, p, out)

    def test_sargable_annotation(self, env):
        _, ctx = env
        p = Filter(Scan("r"), And(col("a").ge(2), col("b").lt(col("a"))))
        out = annotate_sargable_filters(p, ctx)
        assert out.child.pushed_filters == (col("a").ge(2),)
        assert isinstance(out, Filter)  # filter kept for exact semantics


class TestPipeline:
    def test_default_optimizer_end_to_end(self, env):
        pc, ctx = env
        p = Filter(
            Join(Scan("r"), Scan("s"), col("a").eq(col("a2"))),
            And(col("b").gt(lit(0).add(1)), col("c").eq("x")),
        )
        out = Optimizer(ctx).optimize(p)
        check_equiv(pc, p, out)

    def test_optimizer_idempotent(self, env):
        _, ctx = env
        p = Filter(Scan("r"), col("a").gt(1))
        o = Optimizer(ctx)
        once = o.optimize(p)
        assert o.optimize(once) == once

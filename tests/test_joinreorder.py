"""Cost-based join reordering (§4.1): graph extraction, DP/greedy search."""
import numpy as np
import pandas as pd
import pytest

from repro.core.compile import compile_plan
from repro.core.cost import CostModel
from repro.core.expr import And, col
from repro.core.joinreorder import DP_MAX_RELATIONS, flatten_join_tree, reorder_joins
from repro.core.optimizer import OptimizerContext
from repro.core.plan import Filter, Join, Plan, Scan
from repro.oracle import assert_equivalent


@pytest.fixture
def env(warehouse):
    g = np.random.default_rng(7)
    pc = warehouse
    # star schema: big fact, two dims of very different selectivity
    pc.load(
        "fact",
        pd.DataFrame(
            {
                "fk1": g.integers(0, 50, 2000),
                "fk2": g.integers(0, 20, 2000),
                "m": g.random(2000),
            }
        ),
    )
    pc.load("dim1", pd.DataFrame({"d1": range(50), "x1": [f"v{i % 4}" for i in range(50)]}))
    pc.load("dim2", pd.DataFrame({"d2": range(20), "x2": [f"w{i % 3}" for i in range(20)]}))
    ctx = OptimizerContext(pc.hms, CostModel(pc.hms))
    return pc, ctx


def star_plan():
    return Filter(
        Join(
            Join(Scan("fact"), Scan("dim1"), col("fk1").eq(col("d1"))),
            Scan("dim2"),
            col("fk2").eq(col("d2")),
        ),
        And(col("x1").eq("v0"), col("x2").eq("w0")),
    )


class TestFlatten:
    def test_extracts_relations_and_predicates(self):
        g = flatten_join_tree(star_plan())
        assert len(g.relations) == 3
        assert len(g.predicates) == 4  # 2 join conds + 2 filter conjuncts

    def test_non_join_returns_none(self):
        assert flatten_join_tree(Scan("fact")) is None
        assert flatten_join_tree(Filter(Scan("fact"), col("m").gt(0))) is None

    def test_outer_join_not_flattened(self):
        p = Join(Scan("fact"), Scan("dim1"), col("fk1").eq(col("d1")), "left")
        assert flatten_join_tree(p) is None


class TestReorder:
    def test_result_equivalence(self, env):
        pc, ctx = env
        p = star_plan()
        out = reorder_joins(p, ctx)
        df = compile_plan(out, pc.context())
        assert_equivalent(df, p.to_sql(), **pc.frames)

    def test_filters_pushed_to_relations(self, env):
        _, ctx = env
        out = reorder_joins(star_plan(), ctx)
        # dim filters should now sit directly on the dim scans
        filters_on_scans = [
            n
            for n in out.walk()
            if isinstance(n, Filter) and isinstance(n.child, Scan)
        ]
        assert len(filters_on_scans) == 2

    def test_no_cross_products_when_connected(self, env):
        _, ctx = env
        out = reorder_joins(star_plan(), ctx)
        assert all(
            j.how != "cross" for j in out.walk() if isinstance(j, Join)
        )

    def test_cheaper_than_naive_order(self, env):
        """The chosen order must not cost more than the naive left-deep one."""
        _, ctx = env
        naive = star_plan()
        out = reorder_joins(naive, ctx)
        assert ctx.cost.plan_cost(out) <= ctx.cost.plan_cost(naive)

    def test_single_join_untouched_semantics(self, env):
        pc, ctx = env
        p = Join(Scan("fact"), Scan("dim1"), col("fk1").eq(col("d1")))
        out = reorder_joins(p, ctx)
        df = compile_plan(out, pc.context())
        assert_equivalent(df, p.to_sql(), **pc.frames)

    def test_greedy_path_above_dp_limit(self, env):
        """More relations than the DP budget → greedy still correct."""
        pc, ctx = env
        n = DP_MAX_RELATIONS + 1
        for i in range(n):
            pc.load(f"c{i}", pd.DataFrame({f"k{i}": range(10), f"v{i}": range(10)}))
        plan: Plan = Scan("c0")
        for i in range(1, n):
            plan = Join(plan, Scan(f"c{i}"), col(f"k{i-1}").eq(col(f"k{i}")))
        out = reorder_joins(plan, ctx)
        df = compile_plan(out, pc.context())
        assert_equivalent(df, plan.to_sql(), **pc.frames)

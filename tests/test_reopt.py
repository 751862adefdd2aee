"""Query reoptimization (§4.2) through HiveServer2: the ``reoptimize``
strategy re-plans a failed query with the runtime statistics it captured."""
import numpy as np
import pandas as pd
import pytest

from repro.core.expr import AggCall, col
from repro.core.plan import Aggregate, Join, Plan, Scan
from repro.core.reopt import ExecutionError
from repro.oracle import assert_equivalent
from tests.conftest import Warehouse


def star_frames(n=2000, seed=4):
    """A fact table and two dimensions it joins on different keys."""
    g = np.random.default_rng(seed)
    return {
        "fact": pd.DataFrame(
            {
                "k1": g.integers(0, 50, n),
                "k2": g.integers(0, 20, n),
                "v": g.random(n).round(3),
            }
        ),
        "d1": pd.DataFrame({"d1_k": range(50), "a": [f"a{i % 7}" for i in range(50)]}),
        "d2": pd.DataFrame({"d2_k": range(20), "b": [f"b{i % 3}" for i in range(20)]}),
    }


def star_query() -> Plan:
    return Aggregate(
        Join(
            Join(Scan("fact"), Scan("d1"), col("k1").eq(col("d1_k"))),
            Scan("d2"),
            col("k2").eq(col("d2_k")),
        ),
        ("a", "b"),
        (AggCall("sum", col("v"), "total"),),
    )


def first_joined(plan: Plan) -> str:
    """The dimension the fact table is joined with first."""
    join = next(
        n
        for n in plan.walk()
        if isinstance(n, Join)
        and not any(isinstance(m, Join) for c in n.children() for m in c.walk())
    )
    (dim,) = join.tables() - {"fact"}
    return dim


@pytest.fixture
def star(spark, tmp_path):
    """A v3.1 (LLAP) warehouse holding ``star_frames()``."""
    with Warehouse(spark, tmp_path, "v3_1", **star_frames()) as w:
        yield w


class TestNoFailure:
    def test_single_attempt(self, star):
        r = star.hs2.execute(star_query())
        assert r.attempts == 1
        assert_equivalent(
            star.hs2.spark.createDataFrame(r.result), star_query().to_sql(), **star.frames
        )


class TestReoptimize:
    def test_runtime_stats_change_plan(self, star):
        """The failed attempt reports that the dimension joined first is
        huge; the second attempt plans with that count instead of the
        metastore's and joins the other dimension first."""
        plans = []

        def injector(plan, result):
            plans.append(plan)
            if len(plans) == 1:
                huge = Scan(first_joined(plan)).fingerprint()
                raise ExecutionError("simulated OOM", runtime_stats={huge: 1e9})

        star.hs2.failure_injector = injector
        r = star.hs2.execute(star_query())
        assert r.attempts == 2
        assert r.final_plan is plans[1]
        assert first_joined(plans[0]) != first_joined(plans[1])
        assert_equivalent(
            star.hs2.spark.createDataFrame(r.result), star_query().to_sql(), **star.frames
        )


class TestFailurePaths:
    def test_off_strategy_raises_immediately(self, spark, tmp_path):
        """Hive v1.2 has no reoptimization: one execution, then the error."""
        with Warehouse(spark, tmp_path, "v1_2", **star_frames()) as w:
            runs = []

            def injector(plan, result):
                runs.append(plan)
                raise ExecutionError("always fails")

            w.hs2.failure_injector = injector
            with pytest.raises(ExecutionError):
                w.hs2.execute(star_query())
            assert len(runs) == 1

    def test_exhausted_attempts_raise(self, star):
        """v3.1 executes a failing query twice, then raises."""
        runs = []

        def injector(plan, result):
            runs.append(plan)
            raise ExecutionError("always fails", runtime_stats={"op": 1.0})

        star.hs2.failure_injector = injector
        with pytest.raises(ExecutionError):
            star.hs2.execute(star_query())
        assert len(runs) == 2

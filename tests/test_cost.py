"""Cost model (§4.1): stats-driven cardinality estimates, runtime overrides."""
import pandas as pd
import pytest

from repro.core.cost import CostModel
from repro.core.expr import AggCall, And, col
from repro.core.plan import Aggregate, Filter, Join, Limit, Scan, Union


@pytest.fixture
def model(warehouse):
    """Stats come from the writer, as after INSERTs on a real server."""
    warehouse.load("fact", pd.DataFrame({"k": list(range(100)) * 10, "v": range(1000)}))
    warehouse.load(
        "dim", pd.DataFrame({"k2": range(100), "attr": [f"a{i % 5}" for i in range(100)]})
    )
    return CostModel(warehouse.hms)


class TestScans:
    def test_scan_uses_stats(self, model):
        assert model.rows(Scan("fact")) == 1000

    def test_unknown_table_default(self, model):
        assert model.rows(Scan("mystery")) == 1000.0

    def test_partition_restricted_scan_scales(self, model):
        model.hms.get_table("fact").partitioned_by.append("p")
        for i in range(10):
            model.hms.add_partition("fact", f"p={i}")
        pruned = Scan("fact", partitions=("p=1", "p=2"))
        assert model.rows(pruned) == pytest.approx(200, rel=0.01)


class TestFilters:
    def test_equality_uses_ndv(self, model):
        f = Filter(Scan("fact"), col("k").eq(5))
        assert model.rows(f) == pytest.approx(10, rel=0.2)  # 1000 / ndv(k)≈100

    def test_range_uses_min_max(self, model):
        f = Filter(Scan("fact"), col("v").lt(250))
        assert model.rows(f) == pytest.approx(250, rel=0.1)

    def test_in_list(self, model):
        f = Filter(Scan("fact"), col("k").isin(1, 2, 3))
        assert model.rows(f) == pytest.approx(30, rel=0.2)

    def test_conjunction_multiplies(self, model):
        f = Filter(Scan("fact"), And(col("k").eq(5), col("v").lt(500)))
        assert model.rows(f) == pytest.approx(5, rel=0.3)

    def test_selectivity_clamped(self, model):
        f = Filter(Scan("fact"), col("v").lt(10_000_000))
        assert model.rows(f) <= 1000


class TestJoins:
    def test_equijoin_divides_by_ndv(self, model):
        j = Join(Scan("fact"), Scan("dim"), col("k").eq(col("k2")))
        # 1000 * 100 / max(ndv k, ndv k2) ≈ 100000/100 = 1000
        assert model.rows(j) == pytest.approx(1000, rel=0.2)

    def test_cross_join_product(self, model):
        j = Join(Scan("fact"), Scan("dim"), None, "cross")
        assert model.rows(j) == 100_000

    def test_filtered_side_shrinks_join(self, model):
        small_dim = Filter(Scan("dim"), col("attr").eq("a0"))
        j = Join(Scan("fact"), small_dim, col("k").eq(col("k2")))
        assert model.rows(j) < 500


class TestOthers:
    def test_aggregate_capped_by_key_ndv(self, model):
        a = Aggregate(Scan("fact"), ("k",), (AggCall("sum", col("v"), "s"),))
        assert model.rows(a) == pytest.approx(100, rel=0.2)

    def test_global_aggregate_one_row(self, model):
        a = Aggregate(Scan("fact"), (), (AggCall("sum", col("v"), "s"),))
        assert model.rows(a) == 1.0

    def test_limit(self, model):
        assert model.rows(Limit(Scan("fact"), 10)) == 10

    def test_union_sums(self, model):
        assert model.rows(Union((Scan("fact"), Scan("dim")))) == 1100

    def test_runtime_override_wins(self, model):
        """The reoptimize strategy (§4.2) injects observed row counts."""
        f = Filter(Scan("fact"), col("k").eq(5))
        model.overrides[f.fingerprint()] = 900.0
        assert model.rows(f) == 900.0

    def test_plan_cost_monotone_in_intermediates(self, model):
        cheap = Join(Filter(Scan("dim"), col("attr").eq("a0")), Scan("fact"),
                     col("k2").eq(col("k")))
        expensive = Join(Scan("fact"), Scan("dim"), None, "cross")
        assert model.plan_cost(cheap) < model.plan_cost(expensive)

"""TPC-DS-lite workload through the full driver, oracle-checked (§7.1)."""
import duckdb
import pandas as pd
import pytest

from repro.core.features import EngineConfig, UnsupportedSQLError
from repro.core.hs2 import HiveServer2
from repro.core.plan import Scan
from repro.oracle import assert_equivalent
from repro.workloads import tpcds_lite

SF = 0.002


@pytest.fixture(scope="module")
def env(spark, tmp_path_factory):
    hs2 = HiveServer2(
        spark,
        str(tmp_path_factory.mktemp("tpcds") / "wh"),
        EngineConfig.v3_1(container_startup_s=0.0),
    )
    frames = tpcds_lite.load_into(hs2, sf=SF)
    return hs2, frames


ALL_QUERIES = tpcds_lite.queries()
V12_OK = [q for q in ALL_QUERIES if not q.features]
V12_BLOCKED = [q for q in ALL_QUERIES if q.features]


def uncached(hs2: HiveServer2, config=EngineConfig.v3_1) -> HiveServer2:
    """A server on ``hs2``'s data whose every execution plans and runs."""
    return HiveServer2(
        hs2.spark,
        hs2.warehouse,
        config(container_startup_s=0.0, result_cache=False),
        hms=hs2.hms,
    )


def check_oracle(hs2, q, frames) -> None:
    r = hs2.execute(q)
    if not len(r.result):
        # empty result: oracle must be empty too
        con = duckdb.connect()
        for name, t in frames.items():
            con.register(name, t)
        assert len(con.execute(q.plan.to_sql()).fetchdf()) == 0
        return
    assert_equivalent(hs2.spark.createDataFrame(r.result), q.plan.to_sql(), **frames)


class TestV31:
    @pytest.mark.parametrize("q", ALL_QUERIES, ids=[q.name for q in ALL_QUERIES])
    def test_query_matches_oracle(self, env, q):
        hs2, frames = env
        check_oracle(hs2, q, frames)

    @pytest.mark.parametrize("q", ALL_QUERIES, ids=[q.name for q in ALL_QUERIES])
    def test_query_matches_oracle_on_containers(self, env, q):
        cached, frames = env
        with uncached(cached, EngineConfig.v3_1_container) as hs2:
            check_oracle(hs2, q, frames)

    @pytest.mark.parametrize(
        "name", ["q02_semijoin_sports", "q12_interval_window", "q16_category_trend"]
    )
    def test_aggregate_over_star_join_runs_in_daemon(self, env, name):
        """The LLAP daemon joins the fact with its dimensions and
        aggregates (§5.1): one fragment, and Spark gets only the groups."""
        cached, frames = env
        q = next(q for q in ALL_QUERIES if q.name == name)
        with uncached(cached) as hs2:
            r = hs2.execute(q)
        assert r.daemon_aggregates == 1
        assert_equivalent(hs2.spark.createDataFrame(r.result), q.plan.to_sql(), **frames)


# the columns each scanned table's scans read, for the queries whose
# scans sit below a UNION ALL, INTERSECT or EXCEPT
SET_OP_COLUMNS = {
    "q07_q88_shape": {"store_sales": {"ss_quantity", "ss_sales_price"}},
    "q08_intersect_years": {
        "date_dim": {"d_date_sk", "d_year"},
        "store_sales": {"ss_sold_date_sk", "ss_item_sk"},
    },
    "q09_except_returns": {"store_sales": {"ss_item_sk"}, "store_returns": {"sr_item_sk"}},
    "q13_grouping_sets": {
        "date_dim": {"d_date_sk", "d_year"},
        "store_sales": {"ss_sold_date_sk", "ss_sales_price"},
    },
}


class TestColumnPruningUnderSetOps:
    @pytest.mark.parametrize("name", sorted(SET_OP_COLUMNS))
    def test_scans_read_only_referenced_columns(self, env, name):
        cached, frames = env
        hs2 = uncached(cached)
        q = next(q for q in ALL_QUERIES if q.name == name)
        with hs2:
            r = hs2.execute(q)
        read: dict[str, set] = {}
        for scan in r.final_plan.walk():
            if isinstance(scan, Scan):
                assert scan.columns is not None
                read.setdefault(scan.table, set()).update(scan.columns)
        assert read == SET_OP_COLUMNS[name]
        assert_equivalent(hs2.spark.createDataFrame(r.result), q.plan.to_sql(), **frames)


class TestV12Gate:
    def test_exactly_six_queries_blocked(self):
        assert len(V12_BLOCKED) == 6
        assert len(ALL_QUERIES) == 20

    @pytest.mark.parametrize("q", V12_BLOCKED, ids=[q.name for q in V12_BLOCKED])
    def test_blocked_queries_raise(self, spark, tmp_path, q):
        hs2 = HiveServer2(
            spark, str(tmp_path / "wh"), EngineConfig.v1_2(container_startup_s=0.0)
        )
        with pytest.raises(UnsupportedSQLError):
            hs2.execute(q)


class TestV12Runs:
    """The 14 supported queries also run (and agree) on the v1.2 config."""

    @pytest.fixture(scope="class")
    def v12(self, spark, tmp_path_factory):
        hs2 = HiveServer2(
            spark,
            str(tmp_path_factory.mktemp("tpcds12") / "wh"),
            EngineConfig.v1_2(container_startup_s=0.0),
        )
        frames = tpcds_lite.load_into(hs2, sf=SF)
        return hs2, frames

    @pytest.mark.parametrize(
        "q", V12_OK[:5], ids=[q.name for q in V12_OK[:5]]
    )
    def test_sample_queries_match_oracle(self, v12, q):
        hs2, frames = v12
        r = hs2.execute(q)
        assert_equivalent(
            hs2.spark.createDataFrame(r.result), q.plan.to_sql(), **frames
        )

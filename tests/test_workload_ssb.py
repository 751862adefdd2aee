"""SSB-lite workload (§7.3): native, MV-rewritten, and Druid-federated."""
import json

import pandas as pd
import pytest

from repro.core.features import EngineConfig
from repro.core.hs2 import HiveServer2
from repro.core.plan import ForeignQuery
from repro.druid import DruidCluster
from repro.federation import DruidStorageHandler
from repro.oracle import assert_equivalent
from repro.workloads import ssb

SF = 0.002
ALL_QUERIES = ssb.queries()
IDS = [q.name for q in ALL_QUERIES]


def _new_server(spark, path):
    hs2 = HiveServer2(spark, str(path), EngineConfig.v3_1(container_startup_s=0.0))
    hs2.register_handler(DruidStorageHandler(DruidCluster()))
    frames = ssb.load_into(hs2, sf=SF)
    return hs2, frames


@pytest.fixture(scope="module")
def native(spark, tmp_path_factory):
    return _new_server(spark, tmp_path_factory.mktemp("ssb_native") / "wh")


@pytest.fixture(scope="module")
def with_mv(spark, tmp_path_factory):
    hs2, frames = _new_server(spark, tmp_path_factory.mktemp("ssb_mv") / "wh")
    hs2.create_materialized_view("ssb_mv", ssb.mv_definition())
    return hs2, frames


@pytest.fixture(scope="module")
def with_druid_mv(spark, tmp_path_factory):
    hs2, frames = _new_server(spark, tmp_path_factory.mktemp("ssb_druid") / "wh")
    hs2.create_materialized_view("ssb_druid_mv", ssb.mv_definition(), store_in="druid")
    return hs2, frames


def check(hs2, frames, q, report=None):
    r = report or hs2.execute(q)
    got = r.result
    if got.empty:
        import duckdb

        con = duckdb.connect()
        for n, t in frames.items():
            con.register(n, t)
        assert len(con.execute(q.plan.to_sql()).fetchdf()) == 0
        return r
    assert_equivalent(hs2.spark.createDataFrame(got), q.plan.to_sql(), **frames)
    return r


class TestNative:
    @pytest.mark.parametrize("q", ALL_QUERIES, ids=IDS)
    def test_query_matches_oracle(self, native, q):
        hs2, frames = native
        check(hs2, frames, q)


class TestWithNativeMV:
    @pytest.mark.parametrize("q", ALL_QUERIES, ids=IDS)
    def test_rewritten_onto_mv_and_correct(self, with_mv, q):
        hs2, frames = with_mv
        r = check(hs2, frames, q)
        assert r.mv_used == "ssb_mv", f"{q.name} did not use the MV"

    def test_mv_registered_with_snapshot(self, with_mv):
        hs2, _ = with_mv
        v = hs2.hms.get_view("ssb_mv")
        assert set(v.source_tables) == {
            "lineorder",
            "ddate",
            "customer_s",
            "supplier",
            "part",
        }
        assert all(w.high_watermark > 0 for w in v.snapshot.values())


class TestWithDruidMV:
    @pytest.mark.parametrize("q", ALL_QUERIES, ids=IDS)
    def test_pushed_to_druid_and_correct(self, with_druid_mv, q):
        hs2, frames = with_druid_mv
        r = check(hs2, frames, q)
        assert r.mv_used == "ssb_druid_mv", f"{q.name} did not use the Druid MV"
        foreign = [n for n in r.final_plan.walk() if isinstance(n, ForeignQuery)]
        assert foreign, f"{q.name} was not pushed to Druid"
        query = json.loads(foreign[0].query_repr)
        assert query["queryType"] in ("groupBy", "timeseries")

    def test_datasource_rolled_up(self, with_druid_mv):
        hs2, frames = with_druid_mv
        handler = hs2.handlers["druid"]
        ds = handler.cluster.get("ssb_druid_mv")
        assert ds.n_rows <= len(frames["lineorder"])
        assert len(ds.segments) > 12  # monthly segments over 7 years

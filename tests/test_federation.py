"""Federation (§6): storage handlers, schema inference, Druid pushdown."""
import json

import numpy as np
import pandas as pd
import pytest

from repro.core.compile import compile_plan
from repro.core.expr import AggCall, And, Col, Func, InList, col
from repro.core.plan import Aggregate, Filter, ForeignQuery, Limit, Scan, Sort
from repro.druid import TIME_COL, DruidCluster, DruidDatasource, MetricSpec
from repro.federation import DruidStorageHandler, push_to_druid
from repro.metastore import Table
from repro.oracle import assert_equivalent
from tests.conftest import Warehouse


def raw_events(n=2000, seed=9):
    g = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            TIME_COL: pd.to_datetime("2016-06-01")
            + pd.to_timedelta(g.integers(0, 1000, n), unit="D"),
            "d1": g.choice(["x", "y", "z"], n),
            "m1": g.random(n).round(4),
        }
    )


@pytest.fixture
def fed(warehouse):
    """A warehouse whose server has a registered Druid storage handler."""
    handler = DruidStorageHandler(DruidCluster())
    warehouse.hs2.register_handler(handler)
    # a datasource already living in Druid
    handler.cluster.add(
        DruidDatasource.ingest(
            "my_druid_source",
            raw_events(),
            time_column=TIME_COL,
            dimensions=["d1"],
            metrics=[MetricSpec("doubleSum", "m1", "m1")],
        )
    )
    return warehouse, handler


def register_external(hs2):
    """CREATE EXTERNAL TABLE druid_table_1 STORED BY 'Druid...'
    TBLPROPERTIES ('druid.datasource' = 'my_druid_source')."""
    t = Table(
        name="druid_table_1",
        columns=[],  # inferred by the metastore hook
        storage_handler="druid",
        properties={"druid.datasource": "my_druid_source"},
        is_acid=False,
    )
    hs2.create_table(t)
    return t


class TestHandlers:
    def test_schema_inferred_from_druid_metadata(self, fed):
        w, _ = fed
        t = register_external(w.hs2)
        names = t.column_names()
        assert TIME_COL in names and "d1" in names and "m1" in names
        assert dict((c.name, c.dtype) for c in t.columns)["m1"] == "double"

    def test_scan_reads_through_input_format(self, fed):
        w, handler = fed
        register_external(w.hs2)
        df = w.context().resolve_scan(Scan("druid_table_1"))
        assert df.count() == handler.cluster.get("my_druid_source").n_rows

    def test_output_format_creates_datasource(self, fed):
        w, handler = fed
        t = Table(
            name="druid_table_2",
            columns=[],
            storage_handler="druid",
            properties={"druid.dimensions": "d1"},
            is_acid=False,
        )
        w.hms.create_table(t)
        handler.output_format(t, raw_events(100))
        assert "druid_table_2" in handler.cluster
        ds = handler.cluster.get("druid_table_2")
        assert ds.dimensions == ["d1"]
        assert [m.name for m in ds.metrics] == ["m1"]

    def test_ingestion_requires_time_column(self, fed):
        w, handler = fed
        t = Table("bad", [], storage_handler="druid", is_acid=False)
        w.hms.create_table(t)
        with pytest.raises(ValueError, match="__time"):
            handler.output_format(t, pd.DataFrame({"x": [1]}))

    def test_native_tables_still_delegate(self, fed):
        w, _ = fed
        w.load("native_t", pd.DataFrame({"a": [1, 2, 3]}))
        assert w.context().resolve_scan(Scan("native_t")).count() == 3


def figure6_plan():
    """SELECT d1, SUM(m1) AS s FROM druid_table_1
    WHERE EXTRACT(year FROM __time) BETWEEN 2017 AND 2018
    GROUP BY d1 ORDER BY s DESC LIMIT 10."""
    return Limit(
        Sort(
            Aggregate(
                Filter(
                    Scan("druid_table_1"),
                    And(
                        Func("year", (Col(TIME_COL),)).ge(2017),
                        Func("year", (Col(TIME_COL),)).le(2018),
                    ),
                ),
                ("d1",),
                (AggCall("sum", col("m1"), "s"),),
            ),
            (("s", False),),
        ),
        10,
    )


class TestPushdown:
    def test_figure6_json_shape(self, fed):
        w, handler = fed
        register_external(w.hs2)
        q = json.loads(push_to_druid(figure6_plan(), w.hms, handler).query_repr)
        assert q["queryType"] == "groupBy"
        assert q["dataSource"] == "my_druid_source"
        assert q["granularity"] == "all"
        assert q["dimensions"] == ["d1"]
        assert q["aggregations"] == [
            {"type": "doubleSum", "name": "s", "fieldName": "m1"}
        ]
        assert q["limitSpec"] == {
            "limit": 10,
            "columns": [{"dimension": "s", "direction": "descending"}],
        }
        assert q["intervals"] == ["2017-01-01T00:00:00.000/2019-01-01T00:00:00.000"]

    def test_whole_plan_becomes_foreign_query(self, fed):
        w, handler = fed
        register_external(w.hs2)
        out = push_to_druid(figure6_plan(), w.hms, handler)
        assert isinstance(out, ForeignQuery)
        assert out.schema == ("d1", "s")

    def test_pushdown_result_matches_oracle(self, fed):
        w, handler = fed
        register_external(w.hs2)
        plan = Aggregate(
            Filter(
                Scan("druid_table_1"),
                And(
                    Func("year", (Col(TIME_COL),)).ge(2017),
                    Func("year", (Col(TIME_COL),)).le(2018),
                    InList(Col("d1"), ("x", "y")),
                ),
            ),
            ("d1",),
            (AggCall("sum", col("m1"), "s"), AggCall("count_star", None, "c")),
        )
        out = push_to_druid(plan, w.hms, handler)
        df = compile_plan(out, w.context())
        # oracle over the raw (pre-rollup) events
        raw = raw_events()
        assert_equivalent(
            df,
            """SELECT d1, SUM(m1) AS s, COUNT(*) AS c FROM raw
               WHERE EXTRACT(year FROM __time) BETWEEN 2017 AND 2018
                 AND d1 IN ('x','y') GROUP BY d1""",
            raw=raw,
        )

    def test_selector_and_bound_filters_translate(self, fed):
        w, handler = fed
        register_external(w.hs2)
        plan = Filter(Scan("druid_table_1"), col("d1").eq("x"))
        q = json.loads(push_to_druid(plan, w.hms, handler).query_repr)
        assert q["queryType"] == "scan"
        assert q["filter"] == {"type": "selector", "dimension": "d1", "value": "x"}

    def test_metric_filter_not_pushed_below_scan(self, fed):
        """A filter on a metric cannot fold; the scan alone is pushed and
        the filter stays in the Hive plan."""
        w, handler = fed
        register_external(w.hs2)
        plan = Filter(Scan("druid_table_1"), col("m1").gt(0.5))
        out = push_to_druid(plan, w.hms, handler)
        assert isinstance(out, Filter)
        assert isinstance(out.child, ForeignQuery)
        assert json.loads(out.child.query_repr)["queryType"] == "scan"

    def test_avg_not_pushed(self, fed):
        w, handler = fed
        register_external(w.hs2)
        plan = Aggregate(
            Scan("druid_table_1"), ("d1",), (AggCall("avg", col("m1"), "a"),)
        )
        out = push_to_druid(plan, w.hms, handler)
        assert isinstance(out, Aggregate)  # agg stays; scan pushed below
        assert isinstance(out.child, ForeignQuery)

    def test_non_druid_table_untouched(self, fed):
        w, _ = fed
        w.load("plain", pd.DataFrame({"a": [1]}))
        plan = Filter(Scan("plain"), col("a").eq(1))
        out = push_to_druid(plan, w.hms, w.hs2.handlers["druid"])
        assert out == plan

    def test_empty_pushdown_result_is_typed(self, fed):
        """An empty Druid answer gets table types, and double for an
        aggregate alias that is not a table column."""
        w, handler = fed
        register_external(w.hs2)
        plan = Aggregate(
            Filter(Scan("druid_table_1"), col("d1").eq("none")),
            ("d1",),
            (AggCall("sum", col("m1"), "s"),),
        )
        out = push_to_druid(plan, w.hms, handler)
        assert isinstance(out, ForeignQuery)
        df = compile_plan(out, w.context())
        assert df.count() == 0
        assert [(f.name, f.dataType.simpleString()) for f in df.schema] == [
            ("d1", "string"),
            ("s", "double"),
        ]

    def test_count_star_counts_raw_rows_after_rollup(self, fed):
        """Roll-up collapses rows; pushed COUNT(*) must still count raw."""
        w, handler = fed
        register_external(w.hs2)
        plan = Aggregate(
            Scan("druid_table_1"), (), (AggCall("count_star", None, "c"),)
        )
        out = push_to_druid(plan, w.hms, handler)
        df = compile_plan(out, w.context())
        assert df.collect()[0]["c"] == 2000


class TestDruidBackedView:
    @pytest.mark.parametrize("arm", ["v3_1", "v3_1_container"])
    def test_rebuild_reingests_in_full(self, spark, tmp_path, arm):
        """REBUILD of a Druid-backed view re-ingests its datasource from a
        full run of the definition (Druid rolls rows up, so there is no
        incremental merge); a scan of the view, which reads the datasource,
        then sees the rows inserted since the view was built."""
        events = raw_events(300)
        with Warehouse(spark, tmp_path, arm, events=events) as w:
            w.hs2.register_handler(DruidStorageHandler(DruidCluster()))
            definition = Aggregate(
                Scan("events"),
                (TIME_COL, "d1"),
                (AggCall("sum", col("m1"), "m1"), AggCall("count_star", None, "cnt")),
            )
            w.hs2.create_materialized_view("ev_view", definition, store_in="druid")
            w.hs2.insert("events", events.head(100))
            w.frames["events"] = pd.concat([events, events.head(100)], ignore_index=True)
            mode = w.hs2.rebuild_materialized_view("ev_view")
            r = w.hs2.execute(Scan("ev_view"))
            assert_equivalent(spark.createDataFrame(r.result), definition.to_sql(), **w.frames)
            assert mode == "full"

    @pytest.mark.parametrize("arm", ["v3_1", "v3_1_container"])
    def test_empty_view_scans_empty_and_typed(self, spark, tmp_path, arm):
        """A Druid-backed view whose definition matches no rows: Druid's
        answer has no columns, and the scan still returns the view's."""
        with Warehouse(spark, tmp_path, arm, events=raw_events(100)) as w:
            w.hs2.register_handler(DruidStorageHandler(DruidCluster()))
            definition = Aggregate(
                Filter(Scan("events"), col("d1").eq("none")),
                (TIME_COL, "d1"),
                (AggCall("sum", col("m1"), "m1"),),
            )
            w.hs2.create_materialized_view("empty_view", definition, store_in="druid")
            r = w.hs2.execute(Scan("empty_view"))
            assert r.result.empty
            assert {c: str(t) for c, t in r.result.dtypes.items()} == {
                TIME_COL: "datetime64[ns]",
                "d1": "object",
                "m1": "float64",
            }

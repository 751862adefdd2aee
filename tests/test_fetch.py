"""HS2's fetch path (Hive's fetch task, §5.1 and §6.2): a result the LLAP
daemon or Druid computed whole comes back with no Spark job, typed and
shaped exactly as Spark would have returned it."""
import datetime as dt
from types import SimpleNamespace

import pandas as pd
import pytest
from pyspark.errors import AnalysisException
from pyspark.sql import SparkSession
from pyspark.sql import types as T

import repro.core.hs2 as hs2_module
import repro.federation.pushdown as pushdown
from repro.core import fetch
from repro.core.compile import compile_plan, spark_aggregate
from repro.core.expr import (
    UNEVALUABLE,
    AggCall,
    And,
    BinOp,
    Func,
    InList,
    IsNull,
    Lit,
    Not,
    Or,
    col,
)
from repro.core.features import EngineConfig
from repro.core.hs2 import HiveServer2, _HS2ExecutionContext
from repro.core.plan import (
    Aggregate,
    Filter,
    ForeignQuery,
    Join,
    Limit,
    Plan,
    Project,
    Scan,
    SetOp,
    Sort,
    Union,
    Unpivot,
    output_columns,
)
from repro.druid import DruidCluster
from repro.federation import DruidStorageHandler
from repro.metastore import Column, Table
from repro.oracle import assert_equivalent
from repro.storage.reader import spark_schema
from repro.workloads import ssb, tpcds_lite
from tests.conftest import Warehouse, spark_jobs

COLUMNS = [
    Column("g", "bigint"),
    Column("k", "int"),
    Column("i", "int"),
    Column("b", "bigint"),
    Column("d", "double"),
    Column("s", "string"),
    Column("dt", "date"),
]
INPUT = spark_schema(Table("t", COLUMNS))
TYPES = {f.name: f.dataType for f in INPUT.fields}
# NULLs in every argument column; group 3 holds only NULLs
ROWS = pd.DataFrame(
    {
        "g": [1, 1, 2, 2, 3, 3],
        "k": pd.array([7, 7, 7, 7, 8, 8], dtype="int32"),
        "i": pd.array([1, None, 3, 4, None, None], dtype="Int32"),
        "b": pd.array([10, 20, None, 40, None, None], dtype="Int64"),
        "d": [0.5, None, 2.5, 3.5, None, None],
        "s": ["a", "b", None, "d", None, None],
        "dt": [dt.date(2020, 1, 1), None, dt.date(2021, 2, 3), dt.date(2019, 5, 6), None, None],
    }
)
FUNCS = ["sum", "count", "min", "max", "avg"]
ARGS = ["i", "b", "d", "s", "dt"]
# each form an aggregate's argument or FILTER may take
EXPRS = [
    col("i"),
    Lit(7),
    Lit(2**40),
    Lit(1.5),
    Lit("x"),
    Lit(dt.date(2020, 1, 1)),
    BinOp("+", col("i"), col("i")),
    BinOp("+", col("i"), col("b")),
    BinOp("-", col("b"), Lit(1)),
    BinOp("*", col("i"), col("d")),
    BinOp("/", col("b"), col("i")),
    BinOp("/", col("d"), Lit(2)),
    Func("year", (col("dt"),)),
    Func("month", (col("dt"),)),
    Func("day", (col("dt"),)),
    Func("rand"),
    Func("current_date"),
    Func("current_timestamp"),
    col("i").gt(2),
    col("s").eq("a"),
    And(col("i").gt(1), col("d").lt(3.0)),
    Or(col("s").eq("a"), IsNull(col("d"))),
    Not(col("b").le(20)),
    InList(col("i"), (1, 3)),
    IsNull(col("s")),
]
EXPR_IDS = [e.to_sql() for e in EXPRS]
# every call both the daemon and the engine evaluate over ROWS (SUM and AVG
# of a string cast it to a number and fail on 'a'; of a date the analyzer
# rejects them)
DATA_AGGS = (
    *(AggCall(f, col(a), f"{f}_{a}") for f in FUNCS for a in ("i", "b", "d")),
    *(AggCall(f, col(a), f"{f}_{a}") for f in ("count", "min", "max") for a in ("s", "dt")),
    AggCall("count_star", None, "n"),
    AggCall("sum", BinOp("+", col("i"), col("b")), "sum_ib"),
    AggCall("avg", BinOp("/", col("b"), col("i")), "avg_b_i"),
    AggCall("min", Func("year", (col("dt"),)), "min_year"),
    AggCall("max", BinOp("*", col("d"), col("i")), "max_di"),
    AggCall("count_star", None, "n_a", col("s").eq("a")),
    AggCall("sum", col("d"), "sum_d_f", Or(col("s").eq("a"), IsNull(col("d")))),
)


def analyzed(spark, agg: Aggregate) -> T.StructType:
    """The schema Spark's analyzer gives ``agg`` over ``INPUT``."""
    return spark_aggregate(spark.createDataFrame([], INPUT), agg).schema


def not_fetched(monkeypatch) -> None:
    """Turn the fetch path off: every plan compiles."""
    monkeypatch.setattr(_HS2ExecutionContext, "fetch", lambda self, plan: None)


def same_frame(run, monkeypatch) -> pd.DataFrame:
    """``run()`` with the fetch path and without it returns the same frame
    (dtypes and row order included); returns the fetched one."""
    fetched = run()
    with monkeypatch.context() as m:
        not_fetched(m)
        compiled = run()
    assert fetched.fetched and not compiled.fetched
    pd.testing.assert_frame_equal(fetched.result, compiled.result, check_dtype=True)
    return fetched


def matches_duckdb(result: pd.DataFrame, plan: Plan, **tables) -> None:
    """``result`` holds the rows DuckDB computes for ``plan`` over
    ``tables``. DuckDB returns a DATE as a timestamp, so dates are compared
    as timestamps."""
    got = result.apply(
        lambda s: pd.to_datetime(s) if pd.api.types.infer_dtype(s) == "date" else s
    )
    assert_equivalent(SimpleNamespace(toPandas=lambda: got), plan.to_sql(), **tables)


# the nodes whose schema Spark's analyzer derives from their inputs' types
TYPED_NODES = (Project, Join, Aggregate, Union, SetOp)


def typed_as_by_spark(hs2: HiveServer2, plan: Plan) -> None:
    """``plan_schema`` names every node of ``plan`` as ``output_columns``
    does, and types the root and each of ``TYPED_NODES`` as Spark's
    analyzer types that node compiled on its own (nullability aside)."""
    ctx = _HS2ExecutionContext(hs2, hs2.hms.txns.snapshot())
    for node in plan.walk():
        schema = fetch.plan_schema(node, hs2.hms)
        assert schema.names == output_columns(node, hs2.hms)
        if node is plan or isinstance(node, TYPED_NODES):
            analyzed = compile_plan(node, ctx).schema
            assert [(f.name, f.dataType) for f in schema] == [
                (f.name, f.dataType) for f in analyzed
            ], type(node).__name__


# ---------------------------------------------------------------------------
# typing: the Python rules against Spark's analyzer
# ---------------------------------------------------------------------------


class TestTyping:
    @pytest.mark.parametrize("arg", ARGS)
    @pytest.mark.parametrize("func", FUNCS)
    def test_aggregate_function_per_input_type(self, spark, func, arg):
        agg = Aggregate(Scan("t"), ("g",), (AggCall(func, col(arg), "a"),))
        try:
            want = analyzed(spark, agg)
        except AnalysisException:  # Spark rejects it, so the daemon must not run it
            with pytest.raises(UNEVALUABLE):
                fetch.aggregate_schema(INPUT, agg.keys, agg.aggs)
            return
        assert fetch.aggregate_schema(INPUT, agg.keys, agg.aggs) == want

    def test_count_star_in_a_global_aggregate(self, spark):
        agg = Aggregate(
            Scan("t"), (), (AggCall("count_star", None, "n"), AggCall("max", col("s"), "m"))
        )
        assert fetch.aggregate_schema(INPUT, agg.keys, agg.aggs) == analyzed(spark, agg)

    @pytest.mark.parametrize("e", EXPRS, ids=EXPR_IDS)
    def test_expr_form(self, spark, e):
        want = spark.createDataFrame([], INPUT).select(e.to_spark().alias("x")).schema
        assert fetch.expr_type(e, TYPES) == want["x"].dataType

    @pytest.mark.parametrize("e", EXPRS, ids=EXPR_IDS)
    def test_expr_form_in_an_aggregate(self, spark, e):
        """Each form as the argument of every function that takes its type,
        and a predicate also as a FILTER."""
        t = fetch.expr_type(e, TYPES)
        funcs = ["count", "min", "max"] + (["sum", "avg"] if isinstance(t, T.NumericType) else [])
        aggs = [AggCall(f, e, f) for f in funcs]
        if isinstance(t, T.BooleanType):
            aggs.append(AggCall("sum", col("b"), "sum_f", e))
        agg = Aggregate(Scan("t"), ("g",), tuple(aggs))
        try:
            want = analyzed(spark, agg)
        except AnalysisException:  # rand() in an aggregate
            with pytest.raises(UNEVALUABLE):
                fetch.aggregate_schema(INPUT, agg.keys, agg.aggs)
            return
        assert fetch.aggregate_schema(INPUT, agg.keys, agg.aggs) == want


# ---------------------------------------------------------------------------
# fetched frames: the same as the engine's, with no engine job
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def arms(spark, tmp_path_factory):
    """An LLAP and a container server over ``t`` (``ROWS``) and the empty
    ``e``."""
    servers = {}
    for arm in ("v3_1", "v3_1_container"):
        w = Warehouse(spark, tmp_path_factory.mktemp(arm), arm)
        for name, pdf in (("t", ROWS), ("e", ROWS[:0])):
            w.hs2.create_table(Table(name, COLUMNS))
            w.hs2.insert(name, pdf)
        servers[arm] = w.hs2
    yield servers
    for hs2 in servers.values():
        hs2.close()


def by_keys(pdf: pd.DataFrame, keys) -> pd.DataFrame:
    return pdf.sort_values(list(keys)).reset_index(drop=True) if keys else pdf


class TestFetchedFrames:
    @pytest.mark.parametrize("keys", [("g",), ()], ids=["grouped", "global"])
    @pytest.mark.parametrize("table", ["t", "e"], ids=["rows", "empty"])
    def test_aggregate_matches_the_engine(self, arms, table, keys, monkeypatch):
        """Every function over every input type, with NULLs and over empty
        input: the fetched groups equal the compiled ones, and the groups
        Spark computes itself on containers."""
        plan = Aggregate(Scan(table), keys, DATA_AGGS)
        r = same_frame(lambda: arms["v3_1"].execute(plan), monkeypatch)
        assert r.daemon_aggregates == 1
        spark_side = arms["v3_1_container"].execute(plan)
        assert not spark_side.fetched
        pd.testing.assert_frame_equal(
            by_keys(r.result, keys), by_keys(spark_side.result, keys), check_dtype=True
        )
        if table == "t":  # DuckDB types the columns of an empty frame as strings
            matches_duckdb(r.result, plan, t=ROWS)

    @pytest.mark.parametrize("asc", [True, False], ids=["asc", "desc"])
    def test_operators_above_the_aggregate(self, arms, asc, monkeypatch):
        """Filter, Project, Sort (ASC NULLS FIRST, DESC NULLS LAST), Limit
        and Unpivot run in pandas as Spark runs them."""
        agg = Aggregate(Scan("t"), ("g",), DATA_AGGS)
        projected = Project(
            Filter(agg, Not(col("n").lt(1))),
            (
                ("g", col("g")),
                ("sum_b", col("sum_b")),
                ("half", BinOp("/", col("sum_d"), Lit(2))),
                ("big", col("sum_b").gt(25)),
                ("dates", col("count_dt")),
            ),
        )
        unpivoted = Unpivot(
            projected, ("g", "v"), ((col("g"), col("sum_b")), (col("g"), col("half")))
        )
        for plan in (
            Limit(Sort(projected, (("sum_b", asc), ("g", True))), 2),
            Sort(unpivoted, (("v", asc), ("g", True))),
        ):
            r = same_frame(lambda: arms["v3_1"].execute(plan), monkeypatch)
            spark_side = arms["v3_1_container"].execute(plan)
            pd.testing.assert_frame_equal(r.result, spark_side.result, check_dtype=True)
        nulls_at = 0 if asc else -1
        assert pd.isna(r.result["v"].iloc[nulls_at])

    def test_a_fetched_query_starts_no_spark_job(self, spark, arms, monkeypatch):
        def no_engine(*args, **kwargs):
            raise AssertionError("the engine was asked to run a fetched query")

        monkeypatch.setattr(hs2_module, "compile_plan", no_engine)
        monkeypatch.setattr(SparkSession, "createDataFrame", no_engine)
        plan = Sort(Aggregate(Scan("t"), ("g",), DATA_AGGS), (("g", False),))
        with spark_jobs(spark) as jobs:
            r = arms["v3_1"].execute(plan)
        assert r.fetched and jobs == []
        assert r.result["g"].tolist() == [3, 2, 1]

    def test_an_operator_only_the_engine_evaluates(self, arms):
        """The plan compiles over the groups the fetch attempt already
        got: the daemon runs the aggregate once."""
        agg = Aggregate(Scan("t"), ("g",), DATA_AGGS)
        r = arms["v3_1"].execute(Project(agg, (("g", col("g")), ("r", Func("rand")))))
        assert not r.fetched and r.daemon_aggregates == 1
        assert sorted(r.result["g"]) == [1, 2, 3]


class TestMaterializedViewTypes:
    # an int key; group (2, 7) spans both inserts, group (3, 8) holds only
    # NULL arguments, so its SUM of ints and its MIN of dates are NULL
    DEFINITION = Aggregate(
        Scan("t"),
        ("g", "k"),
        tuple(
            AggCall(f, col(a), f"{f}_{a}")
            for f, args in (("sum", "ibd"), ("count", "ibs"), ("min", ("i", "d", "s", "dt")))
            for a in args
        )
        + (AggCall("max", col("b"), "max_b"), AggCall("count_star", None, "n")),
    )
    # the view's columns as the plan types them
    TYPES = [
        ("g", "bigint"), ("k", "int"),
        ("sum_i", "bigint"), ("sum_b", "bigint"), ("sum_d", "double"),
        ("count_i", "bigint"), ("count_b", "bigint"), ("count_s", "bigint"),
        ("min_i", "int"), ("min_d", "double"), ("min_s", "string"), ("min_dt", "date"),
        ("max_b", "bigint"), ("n", "bigint"),
    ]

    def test_llap_view_typed_as_on_containers(self, spark, tmp_path):
        """Built and then incrementally rebuilt: the plan's column types and
        the same contents in both arms, which DuckDB computes too."""
        seen = []
        for arm in ("v3_1", "v3_1_container"):
            with Warehouse(spark, tmp_path / arm, arm) as w:
                w.hs2.create_table(Table("t", COLUMNS))
                w.hs2.insert("t", ROWS[:3])
                w.hs2.create_materialized_view("mv", self.DEFINITION)
                built = [(c.name, c.dtype) for c in w.hms.get_table("mv").columns]
                w.hs2.insert("t", ROWS[3:])
                mode = w.hs2.rebuild_materialized_view("mv")
                contents = w.hs2.execute(Scan("mv")).result
                seen.append((built, mode, by_keys(contents, ["g", "k"])))
        (llap_cols, llap_mode, llap), (cont_cols, cont_mode, cont) = seen
        assert llap_cols == cont_cols == self.TYPES
        assert llap_mode == cont_mode == "incremental"
        pd.testing.assert_frame_equal(llap, cont, check_dtype=True)
        matches_duckdb(llap, self.DEFINITION, t=ROWS)


# ---------------------------------------------------------------------------
# the workloads: every TPC-DS-lite query in both arms, SSB over a Druid MV
# ---------------------------------------------------------------------------

SF = 0.002
TPCDS = tpcds_lite.queries()
SSB = ssb.queries()


@pytest.fixture(scope="module")
def tpcds(spark, tmp_path_factory):
    """An LLAP and a container server over TPC-DS-lite."""
    servers = {}
    for arm in ("v3_1", "v3_1_container"):
        config = getattr(EngineConfig, arm)(container_startup_s=0.0, result_cache=False)
        servers[arm] = HiveServer2(spark, str(tmp_path_factory.mktemp(arm) / "wh"), config)
        tpcds_lite.load_into(servers[arm], sf=SF)
    yield servers
    for hs2 in servers.values():
        hs2.close()


@pytest.fixture(scope="module")
def ssb_druid(spark, tmp_path_factory):
    config = EngineConfig.v3_1(container_startup_s=0.0, result_cache=False)
    with HiveServer2(spark, str(tmp_path_factory.mktemp("ssb") / "wh"), config) as hs2:
        hs2.register_handler(DruidStorageHandler(DruidCluster()))
        ssb.load_into(hs2, sf=SF)
        hs2.create_materialized_view("ssb_druid_mv", ssb.mv_definition(), store_in="druid")
        yield hs2


@pytest.mark.parametrize("q", TPCDS, ids=[q.name for q in TPCDS])
def test_tpcds_query_same_frame_fetched_or_compiled(tpcds, q, monkeypatch):
    """On LLAP the same frame with and without the fetch path; in both
    arms the prepared plan typed as Spark types it."""
    llap, container = tpcds["v3_1"], tpcds["v3_1_container"]
    fetched = llap.execute(q)
    with monkeypatch.context() as m:
        not_fetched(m)
        compiled = llap.execute(q)
    assert not compiled.fetched
    assert fetched.daemon_aggregates == compiled.daemon_aggregates
    pd.testing.assert_frame_equal(fetched.result, compiled.result, check_dtype=True)
    typed_as_by_spark(llap, fetched.final_plan)
    typed_as_by_spark(container, container.execute(q).final_plan)


@pytest.mark.parametrize("q", SSB, ids=[q.name for q in SSB])
def test_ssb_query_over_druid_mv_is_fetched(ssb_druid, q, monkeypatch):
    """Fetched as compiled, and typed as Spark types the prepared plan;
    also the plan prepared without pushdown, whose Spark operators read
    the view's catalog types."""
    r = same_frame(lambda: ssb_druid.execute(q), monkeypatch)
    assert r.mv_used == "ssb_druid_mv"
    assert any(isinstance(n, ForeignQuery) for n in r.final_plan.walk())
    typed_as_by_spark(ssb_druid, r.final_plan)
    monkeypatch.setattr(pushdown, "push_to_druid", lambda plan, hms, handler: plan)
    ctx = _HS2ExecutionContext(ssb_druid, ssb_druid.hms.txns.snapshot())
    typed_as_by_spark(ssb_druid, ctx.prepare(q.plan, {}))


def test_empty_druid_answer_typed_as_on_native_tables(ssb_druid, monkeypatch):
    """A query over the Druid MV whose filter matches nothing returns the
    frame the same query returns over the native tables."""
    q = next(q for q in SSB if q.name == "ssb_q3_1")
    plan = q.plan.transform_up(
        lambda n: Filter(n.child, And(n.cond, col("d_year").eq(1800))) if isinstance(n, Filter) else n
    )
    over_druid = ssb_druid.execute(plan)
    assert over_druid.mv_used == "ssb_druid_mv" and over_druid.fetched
    view = ssb_druid.hms.get_view("ssb_druid_mv")
    monkeypatch.setattr(view, "enabled_for_rewriting", False)
    native = ssb_druid.execute(plan)
    assert native.mv_used is None
    assert len(native.result) == 0
    pd.testing.assert_frame_equal(over_druid.result, native.result, check_dtype=True)


def test_druid_answer_starts_no_spark_job(spark, ssb_druid, monkeypatch):
    def no_engine(*args, **kwargs):
        raise AssertionError("the engine was asked to run a fetched query")

    monkeypatch.setattr(hs2_module, "compile_plan", no_engine)
    monkeypatch.setattr(SparkSession, "createDataFrame", no_engine)
    with spark_jobs(spark) as jobs:
        r = ssb_druid.execute(SSB[0])
    assert r.fetched and jobs == [] and len(r.result)

"""HiveServer2: the end-to-end query driver (Figure 2).

A :class:`HiveServer2` is long-lived and serves many queries, possibly at
once. It owns what outlives a query: the metastore-backed ACID layer, the
(optional) LLAP daemon, the query result cache, storage handlers, and the
configuration. It drives every query through the paper's pipeline:

    feature gate → result-cache probe → MV rewriting → multi-stage
    optimization → handler pushdown → dynamic semijoin reduction →
    shared-work merge → physical compilation (Spark/Catalyst) →
    execution → cache fill.

:meth:`_HS2ExecutionContext.prepare` is the one home of the preparation
stages and ``HiveServer2._run`` the one loop that prepares and runs a
plan; MV builds and rebuilds (§4.4) use it too, with MV rewriting off.
Query reoptimization (§4.2) is reproduced as ``reoptimize`` only: a failed
attempt's runtime row counts feed a second planning round. Re-running
under a fixed configuration is not, because no operator here reads one
(Spark picks the join algorithms).

Each statement takes one ``Snapshot`` (§3.2), and its scans, result-cache
probe and fill and MV freshness all use the WriteId lists derived from it.
What one query sets up while it runs (that snapshot, the container
allocation, persisted shared subtrees) lives in a per-query
:class:`_HS2ExecutionContext`, never on the server, so concurrent queries
cannot see each other's state. The semijoin reducer's runtime filters
(§4.6) are plan data: they ride on the ``Scan`` they reduce. With LLAP,
an aggregate over filtered scans of native tables runs inside the daemon
as one fragment (§5.1): over one scan, or over an inner join of such
scans on column equalities with a side small enough to build (a map
join). When that aggregate, or a query a storage handler answers whole
(Druid, §6.2), is the answer up to a Project, Filter, Sort, Limit or
Unpivot, HS2 fetches the result itself (:mod:`repro.core.fetch`, Hive's
fetch task) and no Spark job runs. Otherwise Spark receives the groups,
or the handler's rows, and runs every other operator and any fragment
the daemon cannot run, shared work or not. Every column type HS2 hands
on (groups, handler answers, fetched results, MV columns) comes from the
plan (:func:`repro.core.fetch.plan_schema`), never from pandas dtypes.
The ``EngineConfig`` switches let the same driver
impersonate Hive v1.2, v3.1-on-containers, and v3.1+LLAP for the §7
experiments. Call :meth:`HiveServer2.close` (or use the server as a
context manager) to stop the LLAP daemon's executors.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import StructType

from repro.core import fetch
from repro.core.cache import QueryResultCache
from repro.core.compile import compile_plan
from repro.core.cost import CostModel
from repro.core.expr import UNEVALUABLE, Expr, aggregate, holds, is_column_equality
from repro.core.features import EngineConfig
from repro.core.mv import choose_rewrite, merge_aggregate_states, normalize_spja
from repro.core.optimizer import Optimizer, OptimizerContext, default_stages, v12_stages
from repro.core.plan import (
    Aggregate,
    Filter,
    ForeignQuery,
    Join,
    Plan,
    Scan,
    Unpivot,
    output_columns,
)
from repro.core.reopt import ExecutionError
from repro.core.rules import conjuncts, prune_partitions
from repro.core.semijoin import MAX_BUILD_ROWS, ReductionReport, apply_reduction
from repro.core.sharedwork import (
    find_shared_subtrees,
    merge_equivalent_scans,
    merge_union_aggregates,
)
from repro.druid import TIME_COL
from repro.federation.handler import StorageHandler
from repro.llap import LlapCache, LlapDaemon
from repro.metastore import (
    Column,
    HiveMetastore,
    MaterializedView,
    Snapshot,
    Table,
    ValidWriteIdList,
)
from repro.storage import AcidReader, AcidWriter, Compactor
from repro.storage.layout import base_dir

__all__ = ["QuerySpec", "ExecutionReport", "HiveServer2"]


@dataclass(frozen=True)
class QuerySpec:
    """A workload query: plan + required SQL features."""

    name: str
    plan: Plan
    features: frozenset[str] = frozenset()


@dataclass
class ExecutionReport:
    result: pd.DataFrame
    wall_time_s: float = 0.0
    cache_hit: bool = False
    mv_used: str | None = None
    shared_subtrees: int = 0
    semijoin: ReductionReport | None = None
    attempts: int = 1
    final_plan: Plan | None = None
    # Aggregate nodes the LLAP daemon ran with their scans (§5.1)
    daemon_aggregates: int = 0
    # HS2 fetched the result the daemon or a storage handler computed
    # whole; no Spark job ran
    fetched: bool = False


class _HS2ExecutionContext:
    """The execution state of one attempt of one statement.

    Built fresh for each attempt of ``HiveServer2._run`` and dropped when
    it ends. It holds the statement's ``snapshot`` (shared by its
    attempts) and the WriteId ``lists`` derived from it, each table's once,
    which every scan reads through; for an incremental MV rebuild (§4.4),
    ``since`` maps the changed table to the view's stored list, whose rows
    the scans skip. It also holds what :meth:`prepare` decided (the MV
    used, the semijoin report, the subtrees to compute once), whether the
    query has paid container allocation, and the shared subtrees it
    persisted (§4.5), which :meth:`run` releases once the result is
    collected. Scans route to a storage handler, the LLAP daemon, or the
    ACID snapshot reader (container mode). On LLAP the daemon runs whole
    fragments (§5.1): a semijoin's dimension side, and an aggregate over a
    filtered scan or over a map join of filtered scans, which hand back
    values and groups instead of rows; :attr:`daemon_aggregates` counts the
    latter, shared work or not. When such groups, or a storage handler's
    answer, both typed by :func:`~repro.core.fetch.plan_schema`, are the
    result up to the operators :mod:`repro.core.fetch` evaluates,
    :meth:`run` fetches it in pandas and sets :attr:`fetched`; otherwise
    Spark receives the groups. ``cost`` (the planner's row estimates) picks
    which joins the daemon may build.
    """

    def __init__(
        self,
        server: "HiveServer2",
        snapshot: Snapshot,
        lists: dict[str, ValidWriteIdList] | None = None,
        since: dict[str, ValidWriteIdList] | None = None,
    ):
        self.server = server
        self.snapshot = snapshot
        self.lists = dict(lists or {})
        self.since = dict(since or {})
        # row estimates; prepare() swaps in the planner's, with its overrides
        self.cost = CostModel(server.hms)
        self.mv_used: str | None = None
        self.semijoin: ReductionReport | None = None
        # fingerprints of the subtrees computed once (shared work)
        self.shared: set[str] = set()
        self._container_started = False
        # aggregates run as one daemon fragment (daemon_groups)
        self.daemon_aggregates = 0
        # whether run() fetched the result without Spark
        self.fetched = False
        # the leaf a fetch attempt ran, with its rows and their types (None
        # when neither the daemon nor a handler could): compile_plan takes
        # it rather than running that leaf again
        self._leaf: tuple[Plan, tuple[pd.DataFrame, StructType] | None] | None = None
        # persisted shared subtrees, fingerprint → DataFrame
        self._persisted: dict[str, DataFrame] = {}

    def wids(self, table: str) -> ValidWriteIdList:
        """The statement's WriteId list for ``table``."""
        if table not in self.lists:
            self.lists[table] = self.server.hms.txns.valid_write_ids(self.snapshot, table)
        return self.lists[table]

    def prepare(self, plan: Plan, overrides: dict[str, float], rewrite: bool = True) -> Plan:
        """Figure 2's preparation of ``plan``: MV rewriting (unless
        ``rewrite`` is off), multi-stage optimization with ``overrides``
        (observed row counts by fingerprint) over the estimates, handler
        pushdown (§6.2), semijoin reduction and the shared-work merge."""
        from repro.federation.handler import DruidStorageHandler
        from repro.federation.pushdown import push_to_druid

        s = self.server
        legacy = s.config.legacy
        octx = OptimizerContext.for_metastore(s.hms, overrides)
        self.cost = octx.cost
        if rewrite and not legacy:
            plan, self.mv_used = choose_rewrite(plan, s.hms, octx.cost, self.wids, now=time.time())
        plan = Optimizer(octx, v12_stages() if legacy else default_stages()).optimize(plan)
        for handler in s.handlers.values():
            if isinstance(handler, DruidStorageHandler):
                plan = push_to_druid(plan, s.hms, handler)
        if not legacy:
            plan, self.semijoin = apply_reduction(plan, octx, self)
        if s.config.shared_work:
            # shared work (§4.5): merge same-table scans to a common
            # denominator, turn unions of global aggregates over one input
            # into one pass, then compute the maximal repeated subtrees
            # left once
            plan = merge_union_aggregates(merge_equivalent_scans(plan))
            self.shared = find_shared_subtrees(plan)
        return plan

    def run(self, plan: Plan) -> pd.DataFrame:
        """Fetch ``plan``'s result when :meth:`fetch` can; otherwise compile
        and execute it, computing the subtrees in :attr:`shared` once, and
        unpersist them afterwards."""
        result = self.fetch(plan)
        if result is not None:
            return result
        try:
            return compile_plan(plan, self, self.shared, self._persisted).toPandas()
        finally:
            for df in self._persisted.values():
                df.unpersist(blocking=True)
            self._persisted.clear()

    def fetch(self, plan: Plan) -> pd.DataFrame | None:
        """``plan``'s result with no Spark job (Hive's fetch task), when its
        leaf is an aggregate the daemon runs whole (:meth:`daemon_groups`)
        or a ``ForeignQuery`` (:meth:`_foreign_answer`), under only the
        operators in :data:`~repro.core.fetch.FETCH_OPS`: they run in
        pandas over the leaf's rows, and the result is shaped by ``plan``'s
        :func:`~repro.core.fetch.plan_schema`. None otherwise, or when an
        operator takes a form only the engine evaluates; the leaf already
        run is then kept for :func:`compile_plan` (:meth:`_take_leaf`)."""
        root, ops = plan, []
        while isinstance(plan, fetch.FETCH_OPS):
            ops.append(plan)
            plan = plan.child
        if isinstance(plan, Aggregate):
            leaf = self.daemon_groups(plan)
        elif isinstance(plan, ForeignQuery):
            leaf = self._foreign_answer(plan)
        else:
            return None
        if leaf is not None:
            try:
                result = fetch.evaluate(ops[::-1], leaf[0], fetch.plan_schema(root, self.server.hms))
                self.fetched = True
                return result
            except UNEVALUABLE:
                pass
        self._leaf = (plan, leaf)
        return None

    def _take_leaf(self, node: Plan, run):
        """What :meth:`fetch` got for ``node`` if it ran that leaf, else
        ``run(node)``."""
        if self._leaf is not None and self._leaf[0] is node:
            leaf, self._leaf = self._leaf[1], None
            return leaf
        return run(node)

    def _daemon_rows(self, plan: Plan, needed: set[str]) -> pd.DataFrame | None:
        """Run a ``Filter``* chain over a ``Scan`` of a native table, or over
        an inner equi-``Join`` of two such fragments (a map join), in the
        LLAP daemon (§5.1); the result has the columns in ``needed`` (and
        the filters' and join keys'). Each scan reads through the elevator
        with its pushed filters and runtime filters; each ``Filter`` then
        keeps the rows its condition holds for. None when the arm or the
        shape does not fit, or when a condition takes a form only the
        engine evaluates: the caller then compiles the plan for Spark."""
        s = self.server
        if not (s.config.llap and s.daemon is not None):
            return None
        conds = []
        while isinstance(plan, Filter):
            conds.append(plan.cond)
            plan = plan.child
        needed = needed.union(*(cond.columns() for cond in conds))
        if isinstance(plan, Join):
            pdf = self._daemon_join(plan, needed)
        elif isinstance(plan, Scan):
            pdf = self._daemon_scan(plan, needed)
        else:
            return None
        if pdf is None:
            return None
        try:
            for cond in conds:
                pdf = pdf[holds(cond, pdf)]
        except UNEVALUABLE:
            return None
        return pdf

    def _daemon_scan(self, scan: Scan, needed: set[str]) -> pd.DataFrame | None:
        """``scan``'s columns in ``needed`` read through the elevator; None
        for a table a storage handler serves."""
        s = self.server
        table = s.hms.get_table(scan.table)
        if table.storage_handler in s.handlers:
            return None
        names = table.column_names()
        return s.daemon.scan_table(
            scan.table,
            self.wids(scan.table),
            partitions=list(scan.partitions) if scan.partitions is not None else None,
            columns=[c for c in names if c in needed] or names[:1],
            pushed_filters=list(scan.pushed_filters) or None,
            runtime_filters=scan.runtime_filters,
            since=self.since.get(scan.table),
        )

    def _daemon_join(self, join: Join, needed: set[str]) -> pd.DataFrame | None:
        """A map join: both sides run as daemon fragments and are hash-joined
        in pandas on the condition's equalities between a left and a right
        column; its other conjuncts then keep the joined rows they hold for.
        Only an inner join with at least one such equality, between sides
        whose output names differ and one of which is estimated small
        enough to build (the semijoin reducer's bound); None otherwise."""
        if join.how != "inner" or join.cond is None:
            return None
        hms = self.server.hms
        left_cols = set(output_columns(join.left, hms))
        right_cols = set(output_columns(join.right, hms))
        if left_cols & right_cols:
            return None
        left_keys, right_keys, residual = [], [], []
        for c in conjuncts(join.cond):
            if is_column_equality(c):
                a, b = c.left.name, c.right.name
                if a in right_cols and b in left_cols:
                    a, b = b, a
                if a in left_cols and b in right_cols:
                    left_keys.append(a)
                    right_keys.append(b)
                    continue
            residual.append(c)
        residual_cols = set().union(*(c.columns() for c in residual))
        if not left_keys or not residual_cols <= left_cols | right_cols:
            return None
        needed = needed | residual_cols
        if min(self.cost.rows(join.left), self.cost.rows(join.right)) > MAX_BUILD_ROWS:
            return None
        left = self._daemon_rows(join.left, (needed & left_cols) | set(left_keys))
        if left is None:
            return None
        right = self._daemon_rows(join.right, (needed & right_cols) | set(right_keys))
        if right is None:
            return None
        # a NULL key joins nothing in SQL; pandas would match NaN to NaN
        left = left.dropna(subset=left_keys)
        right = right.dropna(subset=right_keys)
        try:  # keys pandas cannot compare, or a conjunct it cannot evaluate
            joined = left.merge(right, how="inner", left_on=left_keys, right_on=right_keys)
            for c in residual:
                joined = joined[holds(c, joined)]
        except UNEVALUABLE:
            return None
        return joined

    def collect_values(self, plan: Plan, column: str) -> list | None:
        """Semijoin fast path: the distinct non-NULL values of ``column`` in
        a Scan/Filter-chain dimension subexpression, evaluated daemon-side
        instead of by an engine job. None when :meth:`_daemon_rows` cannot
        run it: the reducer then compiles the subplan."""
        pdf = self._daemon_rows(plan, {column})
        return None if pdf is None else pdf[column].dropna().unique().tolist()

    def daemon_groups(self, agg: Aggregate) -> tuple[pd.DataFrame, StructType] | None:
        """An ``Aggregate`` over a fragment :meth:`_daemon_rows` runs (a
        Filter/Scan chain or a map join of such chains), run as one LLAP
        fragment: the daemon scans, joins, filters and aggregates (map-side
        group-by, §5.1). Returns the groups with the types Spark's analyzer
        gives them (:func:`~repro.core.fetch.plan_schema`); None when the
        daemon cannot run it."""
        needed = set(agg.keys).union(*(a.columns() for a in agg.aggs))
        pdf = self._daemon_rows(agg.child, needed)
        if pdf is None:
            return None
        try:
            schema = fetch.plan_schema(agg, self.server.hms)
            out = aggregate(pdf, agg.keys, agg.aggs)
        except UNEVALUABLE:
            return None
        self.daemon_aggregates += 1
        return out, schema

    def aggregate_in_daemon(self, agg: Aggregate) -> DataFrame | None:
        """:meth:`daemon_groups` handed to Spark, for a plan that goes on
        above the aggregate; None when the daemon cannot run it."""
        groups = self._take_leaf(agg, self.daemon_groups)
        return None if groups is None else self._to_spark(*groups)

    def resolve_scan(self, scan: Scan) -> DataFrame:
        s = self.server
        table = s.hms.get_table(scan.table)
        schema = fetch.plan_schema(scan, s.hms)
        cols = schema.names
        if table.storage_handler in s.handlers:
            pdf = s.handlers[table.storage_handler].input_format(table)
            return self._to_spark(*self._handler_answer(pdf, schema))

        pdf = self._daemon_rows(scan, set(cols))
        if pdf is not None:
            return self._to_spark(pdf[cols], schema)

        # container mode: pay YARN allocation once per query, no caches
        if not self._container_started:
            self._container_started = True
            if s.config.container_startup_s > 0:
                time.sleep(s.config.container_startup_s)
        df = s.reader.scan(
            scan.table,
            self.wids(scan.table),
            partitions=list(scan.partitions) if scan.partitions is not None else None,
            columns=cols,
            since=self.since.get(scan.table),
        )
        # pushed filters are conservative — applying them is always sound
        for p in scan.pushed_filters:
            df = df.filter(p.to_spark())
        return df

    def resolve_foreign(self, fq: ForeignQuery) -> DataFrame:
        return self._to_spark(*self._take_leaf(fq, self._foreign_answer))

    def _foreign_answer(self, fq: ForeignQuery) -> tuple[pd.DataFrame, StructType]:
        """Run ``fq`` in its external system; the answer and the types of
        the subtree it replaces."""
        pdf = self.server.handlers[fq.handler].execute_query(fq.table, json.loads(fq.query_repr))
        return self._handler_answer(pdf, fq.schema)

    @staticmethod
    def _handler_answer(pdf: pd.DataFrame, schema: StructType) -> tuple[pd.DataFrame, StructType]:
        """A storage handler's answer with ``schema``'s columns in order
        (an empty one may lack them), typed by ``schema``."""
        return (pd.DataFrame(columns=schema.names) if pdf.empty else pdf[schema.names]), schema

    def _to_spark(self, pdf: pd.DataFrame, schema: StructType) -> DataFrame:
        """``pdf`` handed to Spark as ``schema`` (an empty frame's pandas
        types say nothing, so it becomes an empty relation)."""
        return self.server.spark.createDataFrame([] if pdf.empty else pdf, schema)


class HiveServer2:
    def __init__(
        self,
        spark: SparkSession,
        warehouse: str,
        config: EngineConfig | None = None,
        hms: HiveMetastore | None = None,
    ):
        self.spark = spark
        # both arms hand pandas frames to Spark and collect results as
        # pandas; without Arrow the LLAP arm runs ~3x slower. The reader
        # sets what its scans assume (no file-listing job) itself.
        spark.conf.set("spark.sql.execution.arrow.pyspark.enabled", "true")
        self.warehouse = str(warehouse)
        self.config = config or EngineConfig.v3_1()
        self.hms = hms or HiveMetastore()
        self.writer = AcidWriter(self.hms, self.warehouse)
        self.reader = AcidReader(self.hms, self.warehouse, spark)
        self.compactor = Compactor(self.hms, self.warehouse)
        self.daemon = (
            LlapDaemon(
                self.hms, self.warehouse, cache=LlapCache(self.config.llap_cache_bytes)
            )
            if self.config.llap
            else None
        )
        self.result_cache = QueryResultCache()
        self.handlers: dict[str, StorageHandler] = {}
        # test hook: callable(plan, result_pdf) that may raise ExecutionError
        self.failure_injector = None

    def close(self) -> None:
        """Shut down the LLAP daemon's executors. Idempotent."""
        if self.daemon is not None:
            self.daemon.shutdown()

    def __enter__(self) -> "HiveServer2":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- DDL ---------------------------------------------------------------

    def create_table(self, table: Table) -> Table:
        return self.hms.create_table(table)

    def register_handler(self, handler: StorageHandler) -> None:
        self.handlers[handler.name] = handler
        self.hms.register_hook(handler.name, handler)

    # -- DML (each statement is one transaction, §3.2) ---------------------

    @contextmanager
    def _transaction(self) -> Iterator[tuple[int, Snapshot]]:
        """Open a transaction, then take the statement's snapshot, so what
        it reads is covered by first-commit-wins; commit when the block
        succeeds, abort and re-raise when it fails. A commit that loses a
        write conflict has already aborted itself."""
        txn = self.hms.txns.open_txn()
        try:
            yield txn, self.hms.txns.snapshot()
        except Exception:
            self.hms.txns.abort(txn)
            raise
        self.hms.txns.commit(txn)

    def insert(self, table: str, pdf: pd.DataFrame) -> int:
        with self._transaction() as (txn, _):
            return self.writer.insert(txn, table, pdf)

    def _rows(self, table: str, snapshot: Snapshot, cond: Expr | None = None) -> pd.DataFrame:
        """The rows of ``table`` (with their identity triple) that
        ``snapshot`` sees, optionally only those matching ``cond``, read
        from the partitions ``cond`` can match (static pruning, as for a
        query)."""
        wids = self.hms.txns.valid_write_ids(snapshot, table)
        if cond is None:
            return self.reader.scan(table, wids, include_hidden=True).toPandas()
        pruned = prune_partitions(
            Filter(Scan(table), cond), OptimizerContext.for_metastore(self.hms)
        )
        df = self.reader.scan(
            table, wids, partitions=pruned.child.partitions, include_hidden=True
        )
        return df.filter(cond.to_spark()).toPandas()

    def delete_where(self, table: str, cond: Expr) -> int:
        with self._transaction() as (txn, snapshot):
            return self.writer.delete(txn, table, self._rows(table, snapshot, cond))

    def update_where(self, table: str, cond: Expr, set_exprs: dict[str, Expr]) -> int:
        cols = self.hms.get_table(table).column_names()
        with self._transaction() as (txn, snapshot):
            victims = self._rows(table, snapshot, cond)
            new_rows = victims.copy()
            for c, e in set_exprs.items():
                new_rows[c] = e.evaluate_vector(new_rows)
            return self.writer.update(txn, table, victims, new_rows[cols])

    def merge(
        self,
        table: str,
        source: pd.DataFrame,
        on: str,
        update_cols: list[str] | None = None,
        insert_unmatched: bool = True,
    ) -> int:
        """MERGE INTO table USING source ON table.on = source.on
        WHEN MATCHED THEN UPDATE SET <update_cols from source>
        WHEN NOT MATCHED THEN INSERT — one transaction, one WriteId.
        A NULL key matches nothing, so a source row with one is inserted."""
        cols = self.hms.get_table(table).column_names()
        wid = None
        with self._transaction() as (txn, snapshot):
            target = self._rows(table, snapshot)
            target = target[target[on].notna()]  # pandas would join NULL to NULL
            matched = target.merge(
                source[source[on].notna()], on=on, how="inner", suffixes=("", "__src")
            )
            if len(matched) and update_cols:
                updated = matched.copy()
                for c in update_cols:
                    src = f"{c}__src" if f"{c}__src" in updated.columns else c
                    updated[c] = updated[src]
                wid = self.writer.update(txn, table, matched, updated[cols])
            if insert_unmatched:
                unmatched = source[~source[on].isin(target[on])]
                if len(unmatched):
                    wid = self.writer.insert(txn, table, unmatched[cols])
        return wid if wid is not None else 0

    # -- materialized views (§4.4) ----------------------------------------

    def create_materialized_view(
        self,
        name: str,
        definition: Plan,
        properties: dict[str, str] | None = None,
        store_in: str = "native",
    ) -> MaterializedView:
        snapshot = self.hms.txns.snapshot()
        sources = sorted(definition.tables())
        current = self.hms.txns.write_id_lists(snapshot, sources)
        contents = self._run(definition, snapshot, current, rewrite=False).result
        schema = fetch.plan_schema(definition, self.hms)
        columns = [Column(f.name, f.dataType.simpleString()) for f in schema.fields]
        if store_in == "native":
            table = Table(name, columns, is_acid=True)
        elif store_in == "druid":
            if TIME_COL not in schema.names:
                raise ValueError("a Druid-backed MV needs a __time column")
            table = Table(
                name,
                columns,
                storage_handler="druid",
                is_acid=False,
                properties={
                    "druid.dimensions": ",".join(
                        c.name for c in columns
                        if c.name != TIME_COL and c.dtype not in ("double", "float")
                    )
                },
            )
        else:
            raise ValueError(f"unknown MV store {store_in!r}")
        self._write_view(self.create_table(table), contents)
        view = MaterializedView(
            name=name,
            definition=definition,
            source_tables=sources,
            snapshot=self._view_lists(name, current),
            properties=dict(properties or {}),
        )
        view.properties.setdefault("last.rebuild.time", str(time.time()))
        self.hms.register_view(view)
        return view

    def rebuild_materialized_view(self, name: str) -> str:
        """REBUILD: incremental when the view is SPJA, stored natively, and
        only INSERTs changed a single source table — the delta is the rows
        this statement's list sees and the view's stored list does not;
        full rebuild otherwise (a handler such as Druid rolls rows up, so
        its stored rows cannot be merged). Returns 'incremental' | 'full'
        | 'noop'."""
        view = self.hms.get_view(name)
        table = self.hms.get_table(name)
        snapshot = self.hms.txns.snapshot()
        current = self.hms.txns.write_id_lists(snapshot, view.source_tables)
        changed = [t for t in view.source_tables if current[t] != view.snapshot.get(t)]
        if not changed:
            return "noop"
        mode = "full"
        norm = normalize_spja(view.definition)
        t = changed[0]
        if (
            len(changed) == 1
            and table.storage_handler not in self.handlers
            and not self.hms.txns.updated_or_deleted(t, view.snapshot[t], current[t])
            and norm is not None
            and norm.keys is not None
        ):
            mode = "incremental"
            since = {t: view.snapshot[t]}
            delta = self._run(view.definition, snapshot, current, since, rewrite=False).result
            old = self._run(Scan(name), snapshot, rewrite=False).result
            contents = merge_aggregate_states(old, delta, list(norm.keys), list(norm.aggs))
        else:
            contents = self._run(view.definition, snapshot, current, rewrite=False).result
        self._write_view(table, contents)
        view.snapshot = self._view_lists(name, current)
        view.properties["last.rebuild.time"] = str(time.time())
        return mode

    def _view_lists(self, name: str, sources: dict) -> dict[str, ValidWriteIdList]:
        """``sources`` plus the view table's list now that its contents
        committed: a statement that would read older contents is stale."""
        now = self.hms.txns.snapshot()
        return {**sources, **self.hms.txns.write_id_lists(now, [name])}

    def _write_view(self, table: Table, contents: pd.DataFrame) -> None:
        """Replace the view's contents: ingest them through its storage
        handler, or INSERT OVERWRITE its (unpartitioned) ACID table, whose
        older snapshots read what it supersedes until the compactor
        cleans."""
        if table.storage_handler in self.handlers:
            self.handlers[table.storage_handler].output_format(table, contents)
            return
        self.hms.reset_stats(table.name)
        with self._transaction() as (txn, _):
            wid = self.writer.overwrite(txn, table.name, contents[table.column_names()])
        self.compactor.supersede(self.writer.table_path(table.name) / base_dir(wid))

    # -- query execution ---------------------------------------------------

    def _run(
        self,
        plan: Plan,
        snapshot: Snapshot,
        lists: dict[str, ValidWriteIdList] | None = None,
        since: dict[str, ValidWriteIdList] | None = None,
        rewrite: bool = True,
    ) -> ExecutionReport:
        """Prepare and run ``plan`` at ``snapshot`` (``lists``: those derived
        from it so far; a table in ``since`` yields only rows its list there
        lacks). A retryable :class:`ExecutionError` makes a second attempt
        (§4.2 reoptimize; v1.2 has none) in a fresh context whose planning
        takes the failed attempt's runtime row counts over the estimates.
        The report describes the attempt that succeeded."""
        overrides: dict[str, float] = {}
        attempts = 1 if self.config.legacy else 2
        for attempt in range(1, attempts + 1):
            ctx = _HS2ExecutionContext(self, snapshot, lists, since)
            prepared = ctx.prepare(plan, overrides, rewrite)
            try:
                result = ctx.run(prepared)
                if self.failure_injector is not None:
                    self.failure_injector(prepared, result)
                break
            except ExecutionError as err:
                if attempt == attempts:
                    raise
                overrides.update(err.runtime_stats)
        # each union of global aggregates merged into one pass counts as
        # one shared subtree
        merged = sum(isinstance(n, Unpivot) for n in prepared.walk())
        return ExecutionReport(
            result=result,
            mv_used=ctx.mv_used,
            shared_subtrees=len(ctx.shared) + merged,
            semijoin=ctx.semijoin,
            attempts=attempt,
            final_plan=prepared,
            daemon_aggregates=ctx.daemon_aggregates,
            fetched=ctx.fetched,
        )

    def execute(self, query: QuerySpec | Plan) -> ExecutionReport:
        if isinstance(query, Plan):
            query = QuerySpec(name="adhoc", plan=query)
        self.config.check_features(query.features)
        t0 = time.perf_counter()
        snapshot = self.hms.txns.snapshot()
        lists = self.hms.txns.write_id_lists(snapshot, query.plan.tables())

        computing = False
        if self.config.result_cache:
            state, payload = self.result_cache.lookup_or_begin(query.plan, lists)
            if state == "wait":
                payload.wait(timeout=60)
                state, payload = self.result_cache.lookup_or_begin(query.plan, lists)
            if state == "hit":
                return ExecutionReport(
                    result=payload, wall_time_s=time.perf_counter() - t0, cache_hit=True
                )
            computing = state == "compute" and self.result_cache.is_cacheable(query.plan)

        try:
            report = self._run(query.plan, snapshot, lists)
            if computing:
                self.result_cache.fill(query.plan, report.result, lists)
        except Exception:
            if computing:
                self.result_cache.fail(query.plan)
            raise
        report.wall_time_s = time.perf_counter() - t0
        return report

"""HiveServer2: the end-to-end query driver (Figure 2).

A :class:`HiveServer2` is long-lived and serves many queries, possibly at
once. It owns what outlives a query: the metastore-backed ACID layer, the
(optional) LLAP daemon, the query result cache, storage handlers, and the
configuration. It drives every query through the paper's preparation
pipeline:

    feature gate → result-cache probe → MV rewriting → multi-stage
    optimization → dynamic semijoin reduction → shared-work merge →
    physical compilation (Spark/Catalyst) → execution → cache fill,

with query reoptimization (§4.2) wrapped around the plan/run pair when a
retryable execution error surfaces. What one query sets up while it runs
(runtime Bloom filters, an MV rebuild's WriteId floors, the container
allocation, persisted shared subtrees) lives in a per-query
:class:`_HS2ExecutionContext`, never on the server, so concurrent queries
cannot see each other's state. The ``EngineConfig`` switches let the same
driver impersonate Hive v1.2, v3.1-on-containers, and v3.1+LLAP for the §7
experiments. Call :meth:`HiveServer2.close` (or use the server as a context
manager) to stop the LLAP daemon's executors.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.bloom import BloomFilter
from repro.core.cache import QueryResultCache
from repro.core.compile import compile_plan
from repro.core.context import infer_columns
from repro.core.expr import Expr
from repro.core.features import EngineConfig
from repro.core.mv import choose_rewrite, is_fresh, merge_aggregate_states, normalize_spja
from repro.core.optimizer import Optimizer, OptimizerContext, default_stages, v12_stages
from repro.core.plan import Filter, ForeignQuery, Plan, Scan
from repro.core.reopt import ReoptimizingExecutor
from repro.core.semijoin import ReductionReport, apply_reduction
from repro.core.sharedwork import find_shared_subtrees, merge_equivalent_scans
from repro.druid import TIME_COL
from repro.federation.handler import StorageHandler
from repro.llap import LlapCache, LlapDaemon
from repro.metastore import HiveMetastore, MaterializedView, Table
from repro.storage import AcidReader, AcidWriter, Compactor
from repro.storage.reader import spark_schema

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


class _HS2ExecutionContext:
    """The execution state of one query on a long-lived server.

    Built fresh for each ``execute()`` attempt and each internal
    ``_run_plan()`` call, and dropped when it ends. It holds the query's
    runtime Bloom filters (registered by the semijoin reducer), the
    read-only WriteId floors of an incremental MV rebuild (§4.4), whether
    the query has paid container allocation, and the shared-work subtrees
    it persisted (§4.5), which :meth:`run` releases once the result is
    collected. Scans route to a storage handler, the LLAP daemon, or the
    ACID snapshot reader (container mode).
    """

    def __init__(self, server: "HiveServer2", wid_floors: dict[str, int] | None = None):
        self.server = server
        self._wid_floors = dict(wid_floors or {})
        self._container_started = False
        # per-scan runtime-filter sets (semijoin Blooms), id → {col: bloom}
        self._bloom_registry: dict[int, dict[str, BloomFilter]] = {}
        # persisted shared subtrees, fingerprint → DataFrame
        self._shared: dict[str, DataFrame] = {}

    # called by the semijoin reducer; the returned id goes on the Scan node
    def register_runtime_blooms(self, blooms: dict[str, object]) -> int:
        rid = len(self._bloom_registry) + 1
        self._bloom_registry[rid] = dict(blooms)
        return rid

    def run(self, plan: Plan, shared: set[str] | None = None) -> pd.DataFrame:
        """Compile and execute ``plan``, computing the subtrees whose
        fingerprints are in ``shared`` once; unpersist them afterwards."""
        try:
            return compile_plan(plan, self, shared, self._shared).toPandas()
        finally:
            for df in self._shared.values():
                df.unpersist(blocking=True)
            self._shared.clear()

    def collect_values(self, plan, column: str) -> list | None:
        """Semijoin fast path: evaluate a small Scan/Filter-chain dimension
        subexpression daemon-side (vectorized pandas) instead of launching
        an engine job. Returns None when the shape or mode doesn't fit —
        the reducer then falls back to compiling the subplan."""
        s = self.server
        if not (s.config.llap and s.daemon is not None):
            return None
        conds = []
        node = plan
        while isinstance(node, Filter):
            conds.append(node.cond)
            node = node.child
        if not isinstance(node, Scan):
            return None
        table = s.hms.get_table(node.table)
        if table.storage_handler in s.handlers:
            return None
        needed = {column} | {c for cond in conds for c in cond.columns()}
        cols = [c for c in table.column_names() if c in needed]
        try:
            pdf = s.daemon.scan_table(
                node.table,
                partitions=list(node.partitions) if node.partitions is not None else None,
                columns=cols,
            )
            for cond in conds:
                if pdf.empty:
                    break
                pdf = pdf[cond.evaluate_vector(pdf).astype(bool)]
        except Exception:
            return None  # unsupported expression form → engine fallback
        return pdf[column].dropna().unique().tolist()

    def resolve_scan(self, scan: Scan) -> DataFrame:
        s = self.server
        table = s.hms.get_table(scan.table)
        if table.storage_handler in s.handlers:
            handler = s.handlers[table.storage_handler]
            pdf = handler.input_format(table)
            df = s.spark.createDataFrame(pdf)
            if scan.columns is not None:
                df = df.select(*scan.columns)
            return df

        cols = list(scan.columns) if scan.columns is not None else table.column_names()
        partitions = list(scan.partitions) if scan.partitions is not None else None
        floor = self._wid_floors.get(scan.table, 0)

        if s.config.llap and s.daemon is not None:
            pdf = s.daemon.scan_table(
                scan.table,
                partitions=partitions,
                columns=cols,
                pushed_filters=list(scan.pushed_filters) or None,
                runtime_blooms=self._bloom_registry.get(scan.runtime_filter_id),
                wid_floor=floor,
            )
            schema = spark_schema(table, cols)
            if pdf.empty:
                return s.spark.createDataFrame([], schema)
            return s.spark.createDataFrame(pdf, schema)

        # container mode: pay YARN allocation once per query, no caches
        if not self._container_started:
            self._container_started = True
            if s.config.container_startup_s > 0:
                time.sleep(s.config.container_startup_s)
        df = s.reader.scan(
            scan.table, partitions=partitions, columns=cols, wid_floor=floor
        )
        # pushed filters are conservative — applying them is always sound
        for p in scan.pushed_filters:
            df = df.filter(p.to_spark())
        return df

    def resolve_foreign(self, fq: ForeignQuery) -> DataFrame:
        s = self.server
        handler = s.handlers[fq.handler]
        pdf = handler.execute_query(fq.table, json.loads(fq.query_repr))
        pdf = pdf[list(fq.schema)]  # column order per the plan's schema
        if pdf.empty:
            # empty frames carry object dtypes — build the schema explicitly
            schema = spark_schema(s.hms.get_table(fq.table), list(fq.schema))
            return s.spark.createDataFrame([], schema)
        return s.spark.createDataFrame(pdf)


class HiveServer2:
    def __init__(
        self,
        spark: SparkSession,
        warehouse: str,
        config: EngineConfig | None = None,
        hms: HiveMetastore | None = None,
    ):
        self.spark = spark
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
        self.result_cache = QueryResultCache(self.hms)
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
    def _transaction(self) -> Iterator[int]:
        """Open a transaction; commit it when the block succeeds, abort it
        and re-raise when the block fails. A commit that loses a write
        conflict has already aborted itself."""
        txn = self.hms.txns.open_txn()
        try:
            yield txn
        except Exception:
            self.hms.txns.abort(txn)
            raise
        self.hms.txns.commit(txn)

    def insert(self, table: str, pdf: pd.DataFrame) -> int:
        with self._transaction() as txn:
            return self.writer.insert(txn, table, pdf)

    def _victims(self, table: str, cond: Expr) -> pd.DataFrame:
        df = self.reader.scan(table, include_hidden=True)
        return df.filter(cond.to_spark()).toPandas()

    def delete_where(self, table: str, cond: Expr) -> int:
        victims = self._victims(table, cond)
        with self._transaction() as txn:
            wid = self.writer.delete(txn, table, victims)
        self._mark_views_non_incremental(table)
        return wid

    def update_where(self, table: str, cond: Expr, set_exprs: dict[str, Expr]) -> int:
        victims = self._victims(table, cond)
        new_rows = victims.copy()
        for c, e in set_exprs.items():
            new_rows[c] = e.evaluate_vector(new_rows)
        cols = self.hms.get_table(table).column_names()
        with self._transaction() as txn:
            wid = self.writer.update(txn, table, victims, new_rows[cols])
        self._mark_views_non_incremental(table)
        return wid

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
        WHEN NOT MATCHED THEN INSERT — one transaction, one WriteId."""
        target = self.reader.scan(table, include_hidden=True).toPandas()
        cols = self.hms.get_table(table).column_names()
        matched = target.merge(source, on=on, how="inner", suffixes=("", "__src"))
        wid = None
        with self._transaction() as txn:
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
        if update_cols:
            self._mark_views_non_incremental(table)
        return wid if wid is not None else 0

    def _mark_views_non_incremental(self, table: str) -> None:
        for v in self.hms.views():
            if table in v.source_tables:
                v.insert_only_since_rebuild = False

    # -- materialized views (§4.4) ----------------------------------------

    def _table_snapshot(self, tables: list[str]) -> dict[str, int]:
        snap = self.hms.txns.snapshot()
        return {
            t: self.hms.txns.valid_write_ids(snap, t).high_watermark for t in tables
        }

    def create_materialized_view(
        self,
        name: str,
        definition: Plan,
        properties: dict[str, str] | None = None,
        store_in: str = "native",
    ) -> MaterializedView:
        contents = self._run_plan(definition)
        sources = sorted(definition.tables())
        if store_in == "native":
            self.create_table(Table(name, infer_columns(contents), is_acid=True))
            self.insert(name, contents)
        elif store_in == "druid":
            if TIME_COL not in contents.columns:
                raise ValueError("a Druid-backed MV needs a __time column")
            t = Table(
                name,
                infer_columns(contents),
                storage_handler="druid",
                is_acid=False,
                properties={
                    "druid.dimensions": ",".join(
                        c for c in contents.columns
                        if c != TIME_COL and not pd.api.types.is_float_dtype(contents[c])
                    )
                },
            )
            self.create_table(t)
            self.handlers["druid"].output_format(t, contents)
        else:
            raise ValueError(f"unknown MV store {store_in!r}")
        view = MaterializedView(
            name=name,
            definition=definition,
            source_tables=sources,
            snapshot=self._table_snapshot(sources),
            properties=dict(properties or {}),
        )
        view.properties.setdefault("last.rebuild.time", str(time.time()))
        self.hms.register_view(view)
        return view

    def rebuild_materialized_view(self, name: str) -> str:
        """REBUILD: incremental when only INSERTs happened on a single
        source table and the view is SPJA; full rebuild otherwise. Returns
        'incremental' | 'full' | 'noop'."""
        view = self.hms.get_view(name)
        if is_fresh(self.hms, view):
            return "noop"
        current = self._table_snapshot(view.source_tables)
        changed = [t for t in view.source_tables if current[t] != view.snapshot.get(t, 0)]
        mode = "full"
        norm = normalize_spja(view.definition)
        if (
            view.insert_only_since_rebuild
            and len(changed) == 1
            and norm is not None
            and norm.keys is not None
        ):
            mode = "incremental"
            t = changed[0]
            delta = self._run_plan(
                view.definition, wid_floors={t: view.snapshot.get(t, 0)}
            )
            old = self._run_plan(Scan(name))
            contents = merge_aggregate_states(
                old, delta, list(norm.keys), list(norm.aggs)
            )
        else:
            contents = self._run_plan(view.definition)
        self._replace_table_contents(name, contents)
        view.snapshot = current
        view.insert_only_since_rebuild = True
        view.properties["last.rebuild.time"] = str(time.time())
        return mode

    def _replace_table_contents(self, name: str, pdf: pd.DataFrame) -> None:
        import shutil
        from pathlib import Path

        table = self.hms.get_table(name)
        path = Path(self.warehouse) / name
        if path.exists():
            shutil.rmtree(path)
        self.hms.reset_stats(name)
        for p in list(self.hms.partitions(name)):
            self.hms.drop_partition(name, p)
        self.insert(name, pdf[table.column_names()])

    # -- query execution ---------------------------------------------------

    def _push_to_handlers(self, plan: Plan) -> Plan:
        """Calcite-style computation pushdown to federated systems (§6.2)."""
        from repro.federation.handler import DruidStorageHandler
        from repro.federation.pushdown import push_to_druid

        for handler in self.handlers.values():
            if isinstance(handler, DruidStorageHandler):
                plan = push_to_druid(plan, self.hms, handler)
        return plan

    def _run_plan(
        self, plan: Plan, wid_floors: dict[str, int] | None = None
    ) -> pd.DataFrame:
        """Internal execution without caching/rewriting (DDL paths).
        ``wid_floors`` keeps only rows above a table's WriteId floor."""
        ctx = OptimizerContext.for_metastore(self.hms)
        stages = v12_stages() if self.config.legacy else default_stages()
        optimized = Optimizer(ctx, stages).optimize(plan)
        optimized = self._push_to_handlers(optimized)
        return _HS2ExecutionContext(self, wid_floors).run(optimized)

    def execute(self, query: QuerySpec | Plan) -> ExecutionReport:
        if isinstance(query, Plan):
            query = QuerySpec(name="adhoc", plan=query)
        self.config.check_features(query.features)
        t0 = time.perf_counter()

        computing = False
        if self.config.result_cache:
            state, payload = self.result_cache.lookup_or_begin(query.plan)
            if state == "hit":
                return ExecutionReport(
                    result=payload, wall_time_s=time.perf_counter() - t0, cache_hit=True
                )
            if state == "wait":
                payload.wait(timeout=60)
                res = self.result_cache.lookup(query.plan)
                if res is not None:
                    return ExecutionReport(
                        result=res, wall_time_s=time.perf_counter() - t0, cache_hit=True
                    )
                state, _ = self.result_cache.lookup_or_begin(query.plan)
            computing = state == "compute" and self.result_cache.is_cacheable(query.plan)

        report = ExecutionReport(result=pd.DataFrame())
        try:
            executor = ReoptimizingExecutor(
                strategy="off" if self.config.legacy else "reoptimize"
            )
            query_ctx = None  # the current attempt's context

            def plan_fn(overrides: dict, run_config: dict) -> Plan:
                nonlocal query_ctx
                query_ctx = _HS2ExecutionContext(self)
                ctx = OptimizerContext.for_metastore(self.hms, overrides)
                plan = query.plan
                if not self.config.legacy:
                    plan, report.mv_used = choose_rewrite(
                        plan, self.hms, ctx.cost, now=time.time()
                    )
                stages = v12_stages() if self.config.legacy else default_stages()
                plan = Optimizer(ctx, stages).optimize(plan)
                plan = self._push_to_handlers(plan)
                if not self.config.legacy:
                    plan, report.semijoin = apply_reduction(plan, ctx, query_ctx)
                return plan

            def run_fn(plan: Plan, run_config: dict) -> pd.DataFrame:
                # shared work (§4.5), applied just before execution:
                # merge same-table scans to a common denominator, then
                # compute maximal repeated subtrees once (min_size=1 —
                # merging "starts from scan operations over the same tables")
                if self.config.shared_work:
                    plan = merge_equivalent_scans(plan)
                    shared = find_shared_subtrees(plan, min_size=1)
                else:
                    shared = set()
                report.shared_subtrees = len(shared)
                report.final_plan = plan
                result = query_ctx.run(plan, shared)
                if self.failure_injector is not None:
                    self.failure_injector(plan, result)
                return result

            r = executor.execute(plan_fn, run_fn)
            report.result = r.result
            report.attempts = r.attempts
            if computing:
                self.result_cache.fill(query.plan, r.result)
        except Exception:
            if computing:
                self.result_cache.fail(query.plan)
            raise
        report.wall_time_s = time.perf_counter() - t0
        return report

"""Calcite-style computation pushdown to Druid (§6.2, Figure 6).

The optimizer matches operator sequences over a Druid-backed scan —
``[Limit [Sort]] [Aggregate] [Filter] Scan`` — and folds the largest
translatable prefix into a single Druid JSON query attached to the scan
(a :class:`~repro.core.plan.ForeignQuery` node). Whatever cannot be
translated stays in the plan above the foreign node.

Translation rules (matching the real adapter's constraints on rolled-up
datasources):

* filters on dimension columns → ``selector`` / ``in`` / ``bound`` specs;
  conjuncts over ``EXTRACT(year FROM __time)`` or direct ``__time`` bounds
  become the query's ``intervals`` (Figure 6's
  ``2017-01-01/2019-01-01``);
* GROUP BY keys must be dimensions; SUM pushes onto sum-type metrics,
  MIN/MAX only onto metrics ingested with a min/max spec, and COUNT(*)
  becomes a ``count`` aggregation (internally ``longSum(__count)``) — all
  sound under roll-up;
* Sort + Limit over the aggregate fold into ``limitSpec``.
"""
from __future__ import annotations

import datetime as _dt
import json
from dataclasses import dataclass, field

from repro.core.expr import And, BinOp, Col, Expr, Func, InList, Lit, Not, Or
from repro.core.fetch import plan_schema
from repro.core.plan import (
    Aggregate,
    Filter,
    ForeignQuery,
    Limit,
    Plan,
    Scan,
    Sort,
)
from repro.core.rules import conjuncts
from repro.druid import TIME_COL, DruidDatasource
from repro.federation.handler import DruidStorageHandler

__all__ = ["push_to_druid"]


@dataclass
class _FoldState:
    table: str
    ds: DruidDatasource
    intervals: list[tuple[int, int]] = field(default_factory=list)  # year lo/hi
    time_bounds: list[tuple[str, object]] = field(default_factory=list)  # (op, value)
    filters: list[dict] = field(default_factory=list)
    keys: tuple[str, ...] | None = None
    aggregations: list[dict] | None = None
    out_schema: tuple[str, ...] | None = None
    sort: list[dict] | None = None
    limit: int | None = None


def _json_value(v):
    if isinstance(v, (_dt.date, _dt.datetime)):
        return v.isoformat()
    if hasattr(v, "item"):
        return v.item()
    return v


def _translate_filter(e: Expr, ds: DruidDatasource) -> dict | None:
    """Dimension predicate → Druid filter spec; None if untranslatable."""
    dims = set(ds.dimensions)
    if isinstance(e, BinOp) and isinstance(e.left, Col) and isinstance(e.right, Lit):
        if e.left.name not in dims:
            return None
        v = _json_value(e.right.value)
        if e.op == "=":
            return {"type": "selector", "dimension": e.left.name, "value": v}
        if e.op in ("<", "<=", ">", ">="):
            spec: dict = {"type": "bound", "dimension": e.left.name}
            if e.op in ("<", "<="):
                spec["upper"] = v
                spec["upperStrict"] = e.op == "<"
            else:
                spec["lower"] = v
                spec["lowerStrict"] = e.op == ">"
            return spec
        return None
    if isinstance(e, InList) and isinstance(e.arg, Col) and e.arg.name in dims:
        return {
            "type": "in",
            "dimension": e.arg.name,
            "values": [_json_value(v) for v in e.values],
        }
    if isinstance(e, And):
        fields = [_translate_filter(a, ds) for a in e.args]
        if any(f is None for f in fields):
            return None
        return {"type": "and", "fields": fields}
    if isinstance(e, Or):
        fields = [_translate_filter(a, ds) for a in e.args]
        if any(f is None for f in fields):
            return None
        return {"type": "or", "fields": fields}
    if isinstance(e, Not):
        inner = _translate_filter(e.arg, ds)
        return None if inner is None else {"type": "not", "field": inner}
    return None


def _year_bound(e: Expr) -> tuple[str, int] | None:
    """``EXTRACT(year FROM __time) <op> <lit>`` → (op, year)."""
    if (
        isinstance(e, BinOp)
        and isinstance(e.left, Func)
        and e.left.name == "year"
        and len(e.left.args) == 1
        and isinstance(e.left.args[0], Col)
        and e.left.args[0].name == TIME_COL
        and isinstance(e.right, Lit)
    ):
        return e.op, int(e.right.value)
    return None


def _fold_filter(state: _FoldState, cond: Expr) -> bool:
    """Absorb a Filter's condition; False if any conjunct is untranslatable."""
    new_filters: list[dict] = []
    years: list[tuple[str, int]] = []
    times: list[tuple[str, object]] = []
    for c in conjuncts(cond):
        yb = _year_bound(c)
        if yb is not None:
            years.append(yb)
            continue
        if (
            isinstance(c, BinOp)
            and isinstance(c.left, Col)
            and c.left.name == TIME_COL
            and isinstance(c.right, Lit)
            and c.op in ("<", "<=", ">", ">=")
        ):
            times.append((c.op, c.right.value))
            continue
        f = _translate_filter(c, state.ds)
        if f is None:
            return False
        new_filters.append(f)
    state.filters.extend(new_filters)
    for op, y in years:
        lo, hi = -(10**9), 10**9
        if op in (">", ">="):
            lo = y + (1 if op == ">" else 0)
        elif op in ("<", "<="):
            hi = y - (1 if op == "<" else 0)
        elif op == "=":
            lo = hi = y
        state.intervals.append((lo, hi))
    state.time_bounds.extend(times)
    return True


_SUM_TYPES = {"doubleSum", "longSum"}


def _fold_aggregate(state: _FoldState, agg: Aggregate) -> bool:
    metric_specs = {m.name: m for m in state.ds.metrics}
    dims = set(state.ds.dimensions)
    if not all(k in dims for k in agg.keys):
        return False
    aggregations = []
    for a in agg.aggs:
        if a.func == "count_star":
            aggregations.append({"type": "count", "name": a.name})
            continue
        if not isinstance(a.arg, Col):
            return False
        m = metric_specs.get(a.arg.name)
        if m is None:
            return False
        if a.func == "sum" and m.agg in _SUM_TYPES:
            aggregations.append({"type": m.agg, "name": a.name, "fieldName": m.name})
        elif a.func == "min" and m.agg == "doubleMin":
            aggregations.append({"type": "doubleMin", "name": a.name, "fieldName": m.name})
        elif a.func == "max" and m.agg == "doubleMax":
            aggregations.append({"type": "doubleMax", "name": a.name, "fieldName": m.name})
        else:
            return False
    state.keys = agg.keys
    state.aggregations = aggregations
    state.out_schema = tuple(agg.keys) + tuple(a.name for a in agg.aggs)
    return True


def _fold(node: Plan, handler: DruidStorageHandler, hms) -> _FoldState | None:
    if isinstance(node, Scan):
        try:
            table = hms.get_table(node.table)
        except KeyError:
            return None
        if table.storage_handler != handler.name:
            return None
        state = _FoldState(node.table, handler.datasource_for(node.table))
        if node.columns is not None:
            state.out_schema = tuple(node.columns)
        return state
    if isinstance(node, Filter):
        state = _fold(node.child, handler, hms)
        if state is None or state.aggregations is not None:
            return None
        return state if _fold_filter(state, node.cond) else None
    if isinstance(node, Aggregate):
        state = _fold(node.child, handler, hms)
        if state is None or state.aggregations is not None:
            return None
        return state if _fold_aggregate(state, node) else None
    if isinstance(node, Sort):
        state = _fold(node.child, handler, hms)
        if state is None or state.aggregations is None or state.sort is not None:
            return None
        if not all(c in state.out_schema for c, _ in node.keys):
            return None
        state.sort = [
            {"dimension": c, "direction": "ascending" if asc else "descending"}
            for c, asc in node.keys
        ]
        return state
    if isinstance(node, Limit):
        state = _fold(node.child, handler, hms)
        if state is None or state.aggregations is None or state.limit is not None:
            return None
        state.limit = node.n
        return state
    return None


def _state_to_query(state: _FoldState) -> dict:
    query: dict = {"dataSource": state.ds.name, "granularity": "all"}
    if state.aggregations is not None:
        query["queryType"] = "groupBy" if state.keys else "timeseries"
        if state.keys:
            query["dimensions"] = list(state.keys)
        query["aggregations"] = state.aggregations
    else:
        query["queryType"] = "scan"
        if state.out_schema:
            query["columns"] = list(state.out_schema)
    if state.filters:
        query["filter"] = (
            state.filters[0]
            if len(state.filters) == 1
            else {"type": "and", "fields": state.filters}
        )
    intervals = _build_intervals(state)
    if intervals:
        query["intervals"] = intervals
    if state.limit is not None or state.sort:
        spec: dict = {}
        if state.limit is not None:
            spec["limit"] = state.limit
        if state.sort:
            spec["columns"] = state.sort
        query["limitSpec"] = spec
    return query


def _build_intervals(state: _FoldState) -> list[str]:
    lo_y, hi_y = -(10**9), 10**9
    for lo, hi in state.intervals:
        lo_y, hi_y = max(lo_y, lo), min(hi_y, hi)
    lo_t = f"{lo_y:04d}-01-01T00:00:00.000" if lo_y > -(10**9) else None
    hi_t = f"{hi_y + 1:04d}-01-01T00:00:00.000" if hi_y < 10**9 else None
    for op, v in state.time_bounds:
        iso = _json_value(v)
        if op in (">", ">="):
            lo_t = max(lo_t or iso, iso)
        else:
            hi_t = min(hi_t or iso, iso)
    if lo_t is None and hi_t is None:
        return []
    return [f"{lo_t or '0001-01-01T00:00:00.000'}/{hi_t or '9999-01-01T00:00:00.000'}"]


def push_to_druid(plan: Plan, hms, handler: DruidStorageHandler) -> Plan:
    """The pushdown rule: replace each maximal translatable subtree with a
    :class:`ForeignQuery` carrying the generated JSON and the subtree's
    :func:`~repro.core.fetch.plan_schema`."""

    def visit(node: Plan) -> Plan:
        state = _fold(node, handler, hms)
        if state is not None:
            return ForeignQuery(
                handler=handler.name,
                table=state.table,
                query_repr=json.dumps(_state_to_query(state), sort_keys=True),
                schema=plan_schema(node, hms),
            )
        kids = node.children()
        if not kids:
            return node
        new = tuple(visit(k) for k in kids)
        return node if new == kids else node.with_children(*new)

    return visit(plan)

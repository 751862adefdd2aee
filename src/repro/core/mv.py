"""Materialized views and automatic query rewriting (§4.4).

Implements Calcite-style rewriting of Select-Project-Join-Aggregate (SPJA)
expressions onto materialized views, producing:

* **fully contained** rewritings (Figure 4b): the query's data is a subset
  of the view's — the plan becomes a (filtered, re-aggregated) scan of the
  MV;
* **partially contained** rewritings (Figure 4c): the view covers part of
  the query's range — the plan becomes ``Aggregate(UNION ALL(mv-part,
  base-tables-part))`` where the base part reads only the *remainder*
  predicate range.

Containment is decided column-wise over single-column predicate *regions*
(intervals + IN-sets); join graphs must match exactly. The cost-based
optimizer chooses among candidate rewritings (and the original plan) — the
rewriting is "encapsulated within a rule triggered by the cost-based
optimizer". Aggregation rollup supports the mergeable aggregates (sum,
count, min, max); ``avg`` must be declared in the view as sum+count.

Freshness is stated in the WriteId lists a view stores and the statement's
own (callers pass them; this module takes no snapshot), and
:func:`merge_aggregate_states` implements the MERGE step of an SPJA
incremental rebuild.

Assumption: filter columns are NULL-free (true for the synthetic star
schemas here). With NULLs, a remainder predicate like ``c <= 2017`` would
miss NULL rows that an unfiltered query includes; Hive leans on declared
NOT NULL constraints for the same soundness argument.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import pandas as pd

from repro.core.expr import (
    AggCall,
    BinOp,
    Col,
    Expr,
    InList,
    Lit,
    Or,
    aggregate,
    is_column_equality,
)
from repro.core.joinreorder import flatten_join_tree
from repro.core.plan import (
    Aggregate,
    Filter,
    Join,
    Limit,
    Plan,
    Project,
    Scan,
    Sort,
    Union,
)
from repro.core.rules import conjuncts, make_conjunction
from repro.metastore import HiveMetastore, MaterializedView, ValidWriteIdList

__all__ = [
    "Region",
    "normalize_spja",
    "rewrite_with_view",
    "choose_rewrite",
    "merge_aggregate_states",
    "is_fresh",
]

_INF = math.inf


# -- predicate regions -----------------------------------------------------


@dataclass(frozen=True)
class Region:
    """The set of values a column may take under a conjunction of
    single-column predicates: an interval and/or a finite IN-set."""

    lo: float | str = -_INF
    lo_inc: bool = True
    hi: float | str = _INF
    hi_inc: bool = True
    in_set: frozenset | None = None  # None = unconstrained by IN

    @classmethod
    def full(cls) -> "Region":
        return cls()

    @classmethod
    def from_conjuncts(cls, preds: list[Expr], column: str) -> "Region | None":
        """Region for ``column`` from its single-column conjuncts; None if a
        predicate form is unsupported (caller falls back to exact match)."""
        r = cls.full()
        for p in preds:
            r2 = _pred_region(p, column)
            if r2 is None:
                return None
            r = r.intersect(r2)
        return r

    def intersect(self, other: "Region") -> "Region":
        lo, lo_inc = _tighter(self.lo, self.lo_inc, other.lo, other.lo_inc, -_INF, operator.gt)
        hi, hi_inc = _tighter(self.hi, self.hi_inc, other.hi, other.hi_inc, _INF, operator.lt)
        if self.in_set is None:
            s = other.in_set
        elif other.in_set is None:
            s = self.in_set
        else:
            s = self.in_set & other.in_set
        return Region(lo, lo_inc, hi, hi_inc, s)

    def _values(self) -> frozenset | None:
        """Finite value set if this region is enumerable."""
        if self.in_set is not None:
            return frozenset(
                v for v in self.in_set if self._contains_interval(v)
            )
        return None

    def _contains_interval(self, v) -> bool:
        try:
            if self.lo != -_INF:
                if v < self.lo or (v == self.lo and not self.lo_inc):
                    return False
            if self.hi != _INF:
                if v > self.hi or (v == self.hi and not self.hi_inc):
                    return False
        except TypeError:
            return False
        return True

    def contains_value(self, v) -> bool:
        if self.in_set is not None and v not in self.in_set:
            return False
        return self._contains_interval(v)

    def is_subset(self, other: "Region") -> bool:
        mine = self._values()
        if mine is not None:
            return all(other.contains_value(v) for v in mine)
        if other._values() is not None:
            return False  # infinite ⊄ finite
        # interval containment
        return _within(
            self.lo, self.lo_inc, other.lo, other.lo_inc, -_INF, operator.gt
        ) and _within(self.hi, self.hi_inc, other.hi, other.hi_inc, _INF, operator.lt)

    def difference_exprs(self, other: "Region", column: str) -> list[Expr] | None:
        """``self − other`` as predicate(s) on ``column``; None if not
        expressible. Drives the remainder branch of partial containment."""
        mine = self._values()
        if mine is not None:
            rest = tuple(sorted(v for v in mine if not other.contains_value(v)))
            return [InList(Col(column), rest)] if rest else []
        if other._values() is not None:
            return None  # interval minus finite set: not expressible here
        pieces: list[Expr] = []
        c = Col(column)
        # part of self below other's lower bound
        if other.lo != -_INF:
            if self.lo == -_INF or self.lo < other.lo or (
                self.lo == other.lo and self.lo_inc and not other.lo_inc
            ):
                upper = c.lt(other.lo) if other.lo_inc else c.le(other.lo)
                lower = None
                if self.lo != -_INF:
                    lower = c.ge(self.lo) if self.lo_inc else c.gt(self.lo)
                pieces.append(
                    make_conjunction([p for p in (lower, upper) if p is not None])
                )
        # part of self above other's upper bound
        if other.hi != _INF:
            if self.hi == _INF or self.hi > other.hi or (
                self.hi == other.hi and self.hi_inc and not other.hi_inc
            ):
                lower = c.gt(other.hi) if other.hi_inc else c.ge(other.hi)
                upper = None
                if self.hi != _INF:
                    upper = c.le(self.hi) if self.hi_inc else c.lt(self.hi)
                pieces.append(
                    make_conjunction([p for p in (lower, upper) if p is not None])
                )
        return pieces


def _tighter(a, ai, b, bi, unbounded, inner):
    """The tighter of bounds ``(a, ai)`` and ``(b, bi)`` (value, inclusive)
    on one side: ``inner(x, y)`` when ``x`` lies strictly inside ``y``."""
    if a == unbounded:
        return b, bi
    if b == unbounded:
        return a, ai
    try:
        if inner(a, b):
            return a, ai
        if inner(b, a):
            return b, bi
    except TypeError:
        return a, ai
    return a, ai and bi


def _within(v, v_inc, bound, bound_inc, unbounded, inner) -> bool:
    """Whether bound ``(v, v_inc)`` lies within ``(bound, bound_inc)``."""
    if bound == unbounded:
        return True
    if v == unbounded:
        return False
    try:
        return inner(v, bound) or (v == bound and (bound_inc or not v_inc))
    except TypeError:
        return False


def _pred_region(p: Expr, column: str) -> Region | None:
    if isinstance(p, InList) and isinstance(p.arg, Col) and p.arg.name == column:
        return Region(in_set=frozenset(p.values))
    if isinstance(p, BinOp) and isinstance(p.left, Col) and p.left.name == column and isinstance(p.right, Lit):
        v = p.right.value
        return {
            "=": Region(in_set=frozenset([v])),
            "<": Region(hi=v, hi_inc=False),
            "<=": Region(hi=v, hi_inc=True),
            ">": Region(lo=v, lo_inc=False),
            ">=": Region(lo=v, lo_inc=True),
        }.get(p.op)
    return None


# -- SPJA normalization ----------------------------------------------------


@dataclass
class NormSPJA:
    tables: tuple[str, ...]
    join_preds: frozenset[Expr]  # canonicalized col=col equalities
    col_filters: dict[str, list[Expr]]  # single-column conjuncts, per column
    other_filters: tuple[Expr, ...]  # everything else (must match exactly)
    keys: tuple[str, ...] | None  # None → SPJ (no aggregation)
    aggs: tuple[AggCall, ...]


def normalize_spja(plan: Plan) -> NormSPJA | None:
    """Normalize an SPJA tree: [Aggregate] over joins/filters of Scans.
    Returns None for shapes outside the rewriting algorithm's scope."""
    keys: tuple[str, ...] | None = None
    aggs: tuple[AggCall, ...] = ()
    core = plan
    if isinstance(core, Aggregate):
        keys, aggs = core.keys, core.aggs
        core = core.child

    # collect tables and predicates
    if isinstance(core, Scan):
        tables, preds = [core.table], []
    elif isinstance(core, Filter) and isinstance(core.child, Scan):
        tables, preds = [core.child.table], conjuncts(core.cond)
    else:
        graph = flatten_join_tree(core)
        if graph is None:
            return None
        tables = []
        for r in graph.relations:
            if isinstance(r, Scan):
                tables.append(r.table)
            elif isinstance(r, Filter) and isinstance(r.child, Scan):
                tables.append(r.child.table)
                graph.predicates.extend(conjuncts(r.cond))
            else:
                return None
        preds = graph.predicates

    join_preds, col_filters, other = set(), {}, []
    for p in preds:
        if is_column_equality(p):
            # canonical side order, so a = b and b = a match
            l, r = sorted((p.left, p.right), key=lambda c: c.name)
            join_preds.add(BinOp("=", l, r))
        elif len(p.columns()) == 1:
            (c,) = p.columns()
            col_filters.setdefault(c, []).append(p)
        else:
            other.append(p)
    return NormSPJA(
        tables=tuple(sorted(tables)),
        join_preds=frozenset(join_preds),
        col_filters=col_filters,
        other_filters=tuple(other),
        keys=keys,
        aggs=aggs,
    )


# -- rewriting -------------------------------------------------------------

_REAGG = {"sum": "sum", "count": "sum", "count_star": "sum", "min": "min", "max": "max"}


def _derive_aggs(
    q_aggs: tuple[AggCall, ...], v_aggs: tuple[AggCall, ...]
) -> list[AggCall] | None:
    """Map each query aggregate onto a view aggregate column (rollup)."""
    out = []
    by_sig = {(a.func, a.arg): a.name for a in v_aggs}
    for qa in q_aggs:
        src = by_sig.get((qa.func, qa.arg))
        if src is None:
            return None
        if qa.func not in _REAGG:
            return None
        out.append(AggCall(_REAGG[qa.func], Col(src), qa.name))
    return out


def rewrite_with_view(
    query: Plan, view: MaterializedView, hms: HiveMetastore
) -> Plan | None:
    """Try to answer ``query`` from ``view``; None if not contained.

    Handles Sort/Limit wrappers around an SPJA core. Produces either a full
    rewriting (MV scan + compensation filter + rollup aggregate) or a
    partially-contained one (MV part ∪ base-tables remainder part, then
    re-aggregation), per Figure 4.
    """
    # peel Sort/Limit wrappers, rewrite the core, re-wrap
    wrappers: list[Plan] = []
    core = query
    while isinstance(core, (Sort, Limit)):
        wrappers.append(core)
        core = core.child

    rewritten = _rewrite_core(core, view, hms)
    if rewritten is None:
        return None
    for w in reversed(wrappers):
        rewritten = w.with_children(rewritten)
    return rewritten


def _lossless_extra_tables(nq: NormSPJA, nv: NormSPJA, hms: HiveMetastore) -> bool:
    """Constraint-based containment (§4.4): the view may join *extra*
    tables beyond the query's, provided each extra join is lossless —
    the extra side joins on its declared PRIMARY KEY/UNIQUE column and the
    remaining side carries a declared FOREIGN KEY to it (so every fact row
    matches exactly one extra-table row), and the view applies no filter
    on any extra-table column. This is how a fully denormalized MV answers
    queries that touch only a subset of its dimensions."""
    extra = set(nv.tables) - set(nq.tables)
    extra_cols: dict[str, str] = {}  # column -> owning extra table
    for e in extra:
        for c in hms.get_table(e).column_names():
            extra_cols[c] = e
    # the view must not restrict the extra tables
    for c, fs in nv.col_filters.items():
        if fs and c in extra_cols:
            return False
    for p in nv.other_filters:
        if p.columns() & extra_cols.keys():
            return False
    core_preds = set()
    for p in nv.join_preds:
        pc = p.columns()
        touched = pc & extra_cols.keys()
        if not touched:
            core_preds.add(p)
            continue
        sides = [p.left.name, p.right.name]
        e_sides = [s for s in sides if s in extra_cols]
        if len(e_sides) != 1:
            return False
        ecol = e_sides[0]
        (other,) = [s for s in sides if s != ecol]
        etable = hms.get_table(extra_cols[ecol])
        if not (
            etable.has_constraint("primary_key", [ecol])
            or etable.has_constraint("unique", [ecol])
        ):
            return False
        # the remaining side must be a declared FK into the extra table
        fk_ok = any(
            c.kind == "foreign_key"
            and other in c.columns
            and c.ref_table == etable.name
            for t in nq.tables
            for c in hms.get_table(t).constraints
        )
        if not fk_ok:
            return False
    return nq.join_preds == frozenset(core_preds)


def _rewrite_core(query: Plan, view: MaterializedView, hms: HiveMetastore) -> Plan | None:
    nq = normalize_spja(query)
    nv = normalize_spja(view.definition)
    if nq is None or nv is None:
        return None
    if nq.tables == nv.tables:
        if nq.join_preds != nv.join_preds:
            return None
    elif set(nq.tables) < set(nv.tables):
        if not _lossless_extra_tables(nq, nv, hms):
            return None
    else:
        return None
    if set(nq.other_filters) != set(nv.other_filters):
        return None
    if nv.keys is None or nq.keys is None:
        return None  # SPJ-only rewriting not supported; views declare keys
    if not set(nq.keys) <= set(nv.keys):
        return None

    mv_cols = set(nv.keys) | {a.name for a in nv.aggs}

    # column-wise containment
    all_cols = set(nq.col_filters) | set(nv.col_filters)
    comp: list[Expr] = []  # compensation predicates over the MV
    partial_col: str | None = None
    remainder: list[Expr] | None = None
    for c in sorted(all_cols):
        rq = Region.from_conjuncts(nq.col_filters.get(c, []), c)
        rv = Region.from_conjuncts(nv.col_filters.get(c, []), c)
        if rq is None or rv is None:
            # unsupported predicate forms: require exact textual match
            if nq.col_filters.get(c, []) != nv.col_filters.get(c, []):
                return None
            continue
        if rq.is_subset(rv):
            if nq.col_filters.get(c):
                if c not in mv_cols and nq.col_filters.get(c) != nv.col_filters.get(c):
                    return None  # cannot compensate on a column the MV lost
                if nq.col_filters.get(c) != nv.col_filters.get(c):
                    comp.extend(nq.col_filters[c])
            continue
        # not contained → candidate for partial containment
        if partial_col is not None or c not in mv_cols:
            return None
        diff = rq.difference_exprs(rv, c)
        if diff is None:
            return None
        partial_col = c
        remainder = diff
        comp.extend(nq.col_filters.get(c, []))  # applied on the MV part

    agg_calls = _derive_aggs(nq.aggs, nv.aggs)
    if agg_calls is None:
        return None

    mv_part: Plan = Scan(view.name)
    if comp:
        mv_part = Filter(mv_part, make_conjunction(comp))
    mv_part = Aggregate(mv_part, nq.keys, tuple(agg_calls))

    if partial_col is None:
        return mv_part  # fully contained (Figure 4b)

    # partially contained (Figure 4c): remainder from the base tables
    if not remainder:
        return mv_part  # degenerate: nothing outside the view
    base_filters = {c: list(f) for c, f in nq.col_filters.items()}
    base_filters[partial_col] = []
    rem_pred = remainder[0] if len(remainder) == 1 else Or(*remainder)
    base_core = _build_spja(
        nq, extra_filters=[rem_pred], override_col_filters=base_filters
    )
    reagg = [AggCall(_REAGG[a.func], Col(a.name), a.name) for a in nq.aggs]
    return Aggregate(
        Union((mv_part, base_core), all=True), nq.keys, tuple(reagg)
    )


def _build_spja(
    n: NormSPJA,
    extra_filters: list[Expr] | None = None,
    override_col_filters: dict[str, list[Expr]] | None = None,
) -> Plan:
    """Reconstruct a plan from a normalized SPJA (left-deep join order; the
    CBO reorders it later)."""
    col_filters = override_col_filters if override_col_filters is not None else n.col_filters
    # inner joins with the condition attached as a Filter above — the join
    # graph is re-derived (and ordered) by the CBO's reorder rule
    plan: Plan = Scan(n.tables[0])
    for t in n.tables[1:]:
        plan = Join(plan, Scan(t), None, "inner")
    preds: list[Expr] = list(n.join_preds) + list(n.other_filters)
    for fs in col_filters.values():
        preds.extend(fs)
    if extra_filters:
        preds.extend(extra_filters)
    if preds:
        plan = Filter(plan, make_conjunction(sorted(preds, key=repr)))
    # turn the cross joins + equi preds into inner joins via the join graph
    if n.keys is not None:
        plan = Aggregate(plan, n.keys, n.aggs)
    return plan


WriteIdLists = Callable[[str], ValidWriteIdList]  # table -> statement's list


def choose_rewrite(
    query: Plan, hms: HiveMetastore, cost, wids: WriteIdLists, now: float = 0.0
) -> tuple[Plan, str | None]:
    """Cost-based selection among the original plan and every applicable
    MV rewriting fresh under the statement's lists ``wids`` (or within its
    staleness window); returns (plan, view_name_used_or_None)."""
    best, best_view = query, None
    best_cost = cost.plan_cost(query)
    for view in hms.views():
        if not view.enabled_for_rewriting:
            continue
        if not is_fresh(view, wids) and not _within_staleness(view, now):
            continue
        candidate = rewrite_with_view(query, view, hms)
        if candidate is None:
            continue
        c = cost.plan_cost(candidate)
        if c < best_cost:
            best, best_view, best_cost = candidate, view.name, c
    return best, best_view


# -- freshness / lifecycle -------------------------------------------------


def is_fresh(view: MaterializedView, wids: WriteIdLists) -> bool:
    """Every list the view recorded is the statement's (``wids``): it reads
    in the view exactly what it would compute from the sources."""
    return all(wids(t) == lst for t, lst in view.snapshot.items())


def _within_staleness(view: MaterializedView, now: float) -> bool:
    window = view.allowed_staleness_s()
    if window <= 0:
        return False
    last = float(view.properties.get("last.rebuild.time", "0"))
    return (now - last) <= window


# -- incremental maintenance -----------------------------------------------


def merge_aggregate_states(
    old: pd.DataFrame, delta: pd.DataFrame, keys: list[str], aggs: list[AggCall]
) -> pd.DataFrame:
    """MERGE step of an SPJA incremental rebuild (§4.4): combine the
    existing MV contents with the delta computed over newly inserted rows.
    Valid for insert-only deltas: sum/count add, min/max take extrema,
    with SQL's NULLs (a NULL key is a group; a SUM of NULLs stays NULL)."""
    combined = pd.concat([old, delta], ignore_index=True)
    return aggregate(combined, keys, [AggCall(_REAGG[a.func], Col(a.name), a.name) for a in aggs])

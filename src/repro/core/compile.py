"""Physical compilation: logical plan → Spark DataFrame (Catalyst executes).

This is the HS2 "physical plan" stage (Figure 2). Scans and foreign
queries are delegated to the query's execution context
(:class:`repro.core.hs2._HS2ExecutionContext`), which reads through the ACID
snapshot reader (container mode), the LLAP elevator (cached, row-group
skipping), or a federated system (``ForeignQuery``). An ``Aggregate`` asks
the context first: on LLAP the daemon runs it with its input as one
fragment (Filter/Scan chains, possibly map-joined) and the context hands
back only the groups, typed by :func:`repro.core.fetch.plan_schema`. A
plan whose result the daemon or a storage handler produced whole never
gets here: HS2 fetches it (:mod:`repro.core.fetch`). Shared-work reuse
(§4.5) hooks in here: subtrees whose fingerprints are listed in
``shared_fingerprints`` are compiled once, persisted, and reused; a caller
that passes ``_memo`` gets the persisted frames back to unpersist them
when the query ends (a subtree under a daemon-run aggregate never is).
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

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
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.hs2 import _HS2ExecutionContext

__all__ = ["compile_plan", "spark_aggregate"]


def compile_plan(
    plan: Plan,
    ctx: _HS2ExecutionContext,
    shared_fingerprints: set[str] | None = None,
    _memo: dict[str, DataFrame] | None = None,
) -> DataFrame:
    """Compile ``plan`` to a (lazy) DataFrame.

    ``shared_fingerprints`` marks subtrees the shared-work optimizer decided
    to compute only once: their compiled DataFrame is persisted and memoized
    so every occurrence reuses the same (cached) result.
    """
    memo = _memo if _memo is not None else {}
    shared = shared_fingerprints or set()

    fp = plan.fingerprint() if shared else None
    if fp is not None and fp in memo:
        return memo[fp]

    df = _compile(plan, ctx, shared, memo)

    if fp is not None and fp in shared:
        df = df.persist()
        memo[fp] = df
    return df


def spark_aggregate(df: DataFrame, plan: Aggregate) -> DataFrame:
    """``plan``'s aggregation over ``df``; without keys, one global group."""
    return df.groupBy(*plan.keys).agg(*[a.to_spark() for a in plan.aggs])


def _compile(plan, ctx, shared, memo) -> DataFrame:
    rec = lambda p: compile_plan(p, ctx, shared, memo)  # noqa: E731

    if isinstance(plan, Scan):
        return ctx.resolve_scan(plan)
    if isinstance(plan, ForeignQuery):
        return ctx.resolve_foreign(plan)
    if isinstance(plan, Filter):
        return rec(plan.child).filter(plan.cond.to_spark())
    if isinstance(plan, Project):
        return rec(plan.child).select(
            *[e.to_spark().alias(n) for n, e in plan.exprs]
        )
    if isinstance(plan, Join):
        left, right = rec(plan.left), rec(plan.right)
        if plan.how == "cross" or plan.cond is None:
            return left.crossJoin(right)
        return left.join(right, on=plan.cond.to_spark(), how=plan.how)
    if isinstance(plan, Aggregate):
        # the LLAP daemon may run a scan → filter → [map join →] aggregate
        # fragment itself (§5.1); its cache serves a scan shared work repeats
        df = ctx.aggregate_in_daemon(plan)
        if df is not None:
            return df
        return spark_aggregate(rec(plan.child), plan)
    if isinstance(plan, Sort):
        df = rec(plan.child)
        cols = [F.col(c).asc() if asc else F.col(c).desc() for c, asc in plan.keys]
        return df.orderBy(*cols)
    if isinstance(plan, Limit):
        return rec(plan.child).limit(plan.n)
    if isinstance(plan, Union):
        out = rec(plan.inputs[0])
        for inp in plan.inputs[1:]:
            out = out.unionByName(rec(inp))
        return out if plan.all else out.distinct()
    if isinstance(plan, SetOp):
        left, right = rec(plan.left), rec(plan.right)
        # SQL INTERSECT/EXCEPT have DISTINCT semantics.
        return left.intersect(right) if plan.op == "intersect" else left.subtract(right)
    if isinstance(plan, Unpivot):
        # one generator over the input, not a union of projections over it
        rows = [
            F.struct(*[e.to_spark().alias(n) for n, e in zip(plan.names, row)])
            for row in plan.rows
        ]
        return rec(plan.child).select(F.inline(F.array(*rows)))
    raise TypeError(f"cannot compile {type(plan).__name__}")

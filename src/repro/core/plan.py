"""Logical plan algebra — the Calcite-equivalent layer of this repro (§4.1).

Immutable operator trees with:

* ``fingerprint()`` — canonical digest used by the query result cache (§4.3,
  keyed on the resolved "AST") and the shared-work optimizer (§4.5, equal
  subtree detection);
* ``to_sql()`` — an equivalent SQL string, executed on DuckDB by the oracle
  to validate every rewrite end-to-end;
* structural helpers (``children``, ``transform_up``) that the rule engine
  builds on.

``Scan`` carries three *physical* annotations the optimizer fills in —
``columns`` (projection pushdown), ``partitions`` (static/dynamic partition
pruning) and ``pushed_filters`` (sargable predicates for the LLAP I/O
elevator) — mirroring how Hive binds scan operators to pruning/semijoin
structures at compile time.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterator

from repro.core.expr import AggCall, Expr

if TYPE_CHECKING:  # pragma: no cover
    from pyspark.sql.types import StructType

    from repro.core.semijoin import RuntimeFilter

__all__ = [
    "Plan",
    "Scan",
    "Filter",
    "Project",
    "Join",
    "Aggregate",
    "Sort",
    "Limit",
    "Union",
    "SetOp",
    "Unpivot",
    "ForeignQuery",
    "output_columns",
]


class Plan:
    """Base class for logical operators (frozen dataclasses below)."""

    def children(self) -> tuple["Plan", ...]:
        return ()

    def with_children(self, *children: "Plan") -> "Plan":
        raise NotImplementedError

    def walk(self) -> Iterator["Plan"]:
        yield self
        for c in self.children():
            yield from c.walk()

    def transform_up(self, fn: Callable[["Plan"], "Plan"]) -> "Plan":
        """Bottom-up rewrite: apply ``fn`` to each node after its children."""
        new_children = tuple(c.transform_up(fn) for c in self.children())
        node = self if new_children == self.children() else self.with_children(*new_children)
        return fn(node)

    def fingerprint(self) -> str:
        return hashlib.sha256(repr(self).encode()).hexdigest()[:16]

    def tables(self) -> set[str]:
        return {n.table for n in self.walk() if isinstance(n, Scan)}

    def function_names(self) -> set[str]:
        out: set[str] = set()
        for n in self.walk():
            for e in _exprs_of(n):
                out |= e.function_names()
        return out

    def to_sql(self) -> str:
        sql, _ = _to_sql(self, 0)
        return sql


def _exprs_of(node: "Plan") -> list[Expr]:
    if isinstance(node, Filter):
        return [node.cond]
    if isinstance(node, Project):
        return [e for _, e in node.exprs]
    if isinstance(node, Join):
        return [node.cond] if node.cond is not None else []
    if isinstance(node, Aggregate):
        return [e for a in node.aggs for e in a.exprs()]
    if isinstance(node, Scan):
        return list(node.pushed_filters)
    if isinstance(node, Unpivot):
        return [e for row in node.rows for e in row]
    return []


@dataclass(frozen=True, repr=True)
class Scan(Plan):
    table: str
    # -- physical annotations, filled by the optimizer --------------------
    columns: tuple[str, ...] | None = None  # projection pushdown
    partitions: tuple[str, ...] | None = None  # partition pruning (§4.6)
    pushed_filters: tuple[Expr, ...] = ()  # sargable predicates → elevator
    # semijoin runtime filters (§4.6), at most one per column — per *scan*,
    # not per table: two scans of one table in different plan branches
    # carry different reducers
    runtime_filters: tuple[RuntimeFilter, ...] = ()

    def with_children(self):
        return self


@dataclass(frozen=True, repr=True)
class Filter(Plan):
    child: Plan
    cond: Expr

    def children(self):
        return (self.child,)

    def with_children(self, child):
        return replace(self, child=child)


@dataclass(frozen=True, repr=True)
class Project(Plan):
    child: Plan
    exprs: tuple[tuple[str, Expr], ...]  # (output name, expression)

    def children(self):
        return (self.child,)

    def with_children(self, child):
        return replace(self, child=child)

    def names(self) -> list[str]:
        return [n for n, _ in self.exprs]


@dataclass(frozen=True, repr=True)
class Join(Plan):
    left: Plan
    right: Plan
    cond: Expr | None
    how: str = "inner"  # inner | left | left_semi | left_anti | cross

    def children(self):
        return (self.left, self.right)

    def with_children(self, left, right):
        return replace(self, left=left, right=right)


@dataclass(frozen=True, repr=True)
class Aggregate(Plan):
    child: Plan
    keys: tuple[str, ...]
    aggs: tuple[AggCall, ...]

    def children(self):
        return (self.child,)

    def with_children(self, child):
        return replace(self, child=child)


@dataclass(frozen=True, repr=True)
class Sort(Plan):
    child: Plan
    keys: tuple[tuple[str, bool], ...]  # (column, ascending)

    def children(self):
        return (self.child,)

    def with_children(self, child):
        return replace(self, child=child)


@dataclass(frozen=True, repr=True)
class Limit(Plan):
    child: Plan
    n: int

    def children(self):
        return (self.child,)

    def with_children(self, child):
        return replace(self, child=child)


@dataclass(frozen=True, repr=True)
class Union(Plan):
    inputs: tuple[Plan, ...]
    all: bool = True

    def children(self):
        return self.inputs

    def with_children(self, *inputs):
        return replace(self, inputs=tuple(inputs))


@dataclass(frozen=True, repr=True)
class SetOp(Plan):
    """INTERSECT / EXCEPT — the SQL features Hive v1.2 lacked (§7.1)."""

    op: str  # 'intersect' | 'except'
    left: Plan
    right: Plan

    def __post_init__(self):
        if self.op not in ("intersect", "except"):
            raise ValueError(f"unknown set op {self.op!r}")

    def children(self):
        return (self.left, self.right)

    def with_children(self, left, right):
        return replace(self, left=left, right=right)


@dataclass(frozen=True, repr=True)
class Unpivot(Plan):
    """Each input row becomes ``len(rows)`` output rows: output row ``k``
    holds ``rows[k]``'s expressions (over the input's columns) under
    ``names``. The shared-work merge ends with one (§4.5), turning the
    merged aggregate's single row back into one row per union branch."""

    child: Plan
    names: tuple[str, ...]
    rows: tuple[tuple[Expr, ...], ...]

    def children(self):
        return (self.child,)

    def with_children(self, child):
        return replace(self, child=child)


@dataclass(frozen=True, repr=True)
class ForeignQuery(Plan):
    """A subtree pushed to an external system via a storage handler (§6.2).

    ``handler`` names the storage handler; ``query_repr`` is the generated
    query in the external system's language, serialized canonically (for
    Druid: the JSON dict with sorted keys); ``schema`` is the Spark schema
    of the subtree the query replaces, which types the external answer.
    """

    handler: str
    table: str
    query_repr: str
    schema: StructType

    def with_children(self):
        return self


# -- output column derivation ---------------------------------------------


def output_columns(plan: Plan, catalog) -> list[str]:
    """Column names produced by ``plan``. ``catalog`` resolves Scan schemas
    (an object with ``get_table(name)`` → Table)."""
    if isinstance(plan, Scan):
        if plan.columns is not None:
            return list(plan.columns)
        return catalog.get_table(plan.table).column_names()
    if isinstance(plan, Filter):
        return output_columns(plan.child, catalog)
    if isinstance(plan, Project):
        return plan.names()
    if isinstance(plan, Join):
        left = output_columns(plan.left, catalog)
        semi = plan.how in ("left_semi", "left_anti")
        return left if semi else left + output_columns(plan.right, catalog)
    if isinstance(plan, Aggregate):
        return list(plan.keys) + [a.name for a in plan.aggs]
    if isinstance(plan, (Sort, Limit)):
        return output_columns(plan.child, catalog)
    if isinstance(plan, Union):
        return output_columns(plan.inputs[0], catalog)
    if isinstance(plan, SetOp):
        return output_columns(plan.left, catalog)
    if isinstance(plan, Unpivot):
        return list(plan.names)
    if isinstance(plan, ForeignQuery):
        return list(plan.schema.names)
    raise TypeError(f"unknown plan node {type(plan).__name__}")


# -- SQL generation (for the DuckDB oracle and JDBC federation) ------------


def _to_sql(plan: Plan, depth: int) -> tuple[str, int]:
    a = f"t{depth}"
    if isinstance(plan, Scan):
        cols = "*" if plan.columns is None else ", ".join(plan.columns)
        return f"SELECT {cols} FROM {plan.table}", depth + 1
    if isinstance(plan, Filter):
        inner, d = _to_sql(plan.child, depth + 1)
        return f"SELECT * FROM ({inner}) {a} WHERE {plan.cond.to_sql()}", d
    if isinstance(plan, Project):
        inner, d = _to_sql(plan.child, depth + 1)
        sel = ", ".join(f"{e.to_sql()} AS {n}" for n, e in plan.exprs)
        return f"SELECT {sel} FROM ({inner}) {a}", d
    if isinstance(plan, Join):
        li, d1 = _to_sql(plan.left, depth + 1)
        ri, d2 = _to_sql(plan.right, d1)
        la, ra = f"t{depth}l", f"t{depth}r"
        if plan.how == "cross" or plan.cond is None:
            return f"SELECT * FROM ({li}) {la} CROSS JOIN ({ri}) {ra}", d2
        kw = {
            "inner": "JOIN",
            "left": "LEFT JOIN",
            "left_semi": "SEMI JOIN",
            "left_anti": "ANTI JOIN",
        }[plan.how]
        sel = "*"
        return (
            f"SELECT {sel} FROM ({li}) {la} {kw} ({ri}) {ra} ON {plan.cond.to_sql()}",
            d2,
        )
    if isinstance(plan, Aggregate):
        inner, d = _to_sql(plan.child, depth + 1)
        parts = list(plan.keys) + [c.to_sql() for c in plan.aggs]
        group = f" GROUP BY {', '.join(plan.keys)}" if plan.keys else ""
        return f"SELECT {', '.join(parts)} FROM ({inner}) {a}{group}", d
    if isinstance(plan, Sort):
        inner, d = _to_sql(plan.child, depth + 1)
        keys = ", ".join(f"{c} {'ASC' if asc else 'DESC'}" for c, asc in plan.keys)
        return f"SELECT * FROM ({inner}) {a} ORDER BY {keys}", d
    if isinstance(plan, Limit):
        # Fuse Limit over Sort into one query level: ORDER BY inside a
        # subquery is not semantically preserved by SQL, so top-N must emit
        # ORDER BY ... LIMIT together.
        if isinstance(plan.child, Sort):
            inner, d = _to_sql(plan.child.child, depth + 1)
            keys = ", ".join(
                f"{c} {'ASC' if asc else 'DESC'}" for c, asc in plan.child.keys
            )
            return (
                f"SELECT * FROM ({inner}) {a} ORDER BY {keys} LIMIT {plan.n}",
                d,
            )
        inner, d = _to_sql(plan.child, depth + 1)
        return f"SELECT * FROM ({inner}) {a} LIMIT {plan.n}", d
    if isinstance(plan, Union):
        parts, d = [], depth + 1
        for inp in plan.inputs:
            s, d = _to_sql(inp, d)
            parts.append(f"({s})")
        kw = " UNION ALL " if plan.all else " UNION "
        return kw.join(parts), d
    if isinstance(plan, SetOp):
        li, d1 = _to_sql(plan.left, depth + 1)
        ri, d2 = _to_sql(plan.right, d1)
        kw = "INTERSECT" if plan.op == "intersect" else "EXCEPT"
        return f"({li}) {kw} ({ri})", d2
    if isinstance(plan, Unpivot):
        # one pass over the input: cross it with the row numbers and pick
        # each output column's expression for that row
        inner, d = _to_sql(plan.child, depth + 1)
        k = f"k{depth}"
        values = ", ".join(f"({i})" for i in range(len(plan.rows)))
        sel = ", ".join(
            "CASE " + " ".join(
                f"WHEN {k} = {i} THEN {row[j].to_sql()}" for i, row in enumerate(plan.rows)
            ) + f" END AS {name}"
            for j, name in enumerate(plan.names)
        )
        return f"SELECT {sel} FROM ({inner}) {a} CROSS JOIN (VALUES {values}) v{depth}({k})", d
    if isinstance(plan, ForeignQuery):
        raise ValueError("ForeignQuery has no SQL form; oracle-check the pre-pushdown plan")
    raise TypeError(f"unknown plan node {type(plan).__name__}")

"""Scalar expression algebra for the Calcite-like plan layer (§4.1).

Immutable dataclass nodes with three backends:

* ``to_spark()`` — a PySpark ``Column`` (execution via Catalyst);
* ``to_sql()``  — ANSI-ish SQL accepted by DuckDB (the correctness oracle)
  and by "JDBC" federation targets;
* ``evaluate_vector(pdf)`` — vectorized pandas evaluation, used where a
  scan is served from pandas: the LLAP daemon's row filters and aggregates,
  the merge of an incremental MV rebuild and the SET expressions of
  UPDATE. :func:`holds` (what a WHERE clause keeps) and :func:`aggregate`
  (a GROUP BY) add SQL's NULL semantics. A form only the engine evaluates
  raises one of :data:`UNEVALUABLE`.

The optimizer's constant folding and partition pruning apply one operator
to two literals through :func:`apply_op`.

Column names are assumed globally unique across the tables of a query
(true for TPC-H/TPC-DS/SSB-style schemas); self-joins must rename first.
"""
from __future__ import annotations

import datetime as _dt
import operator as _op
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import Column
from pyspark.sql import functions as F

__all__ = [
    "Expr",
    "Col",
    "Lit",
    "BinOp",
    "And",
    "Or",
    "Not",
    "InList",
    "IsNull",
    "Func",
    "AggCall",
    "col",
    "lit",
    "between",
    "is_column_equality",
    "TRUE",
    "FALSE",
    "NON_DETERMINISTIC_FUNCS",
    "RUNTIME_CONSTANT_FUNCS",
    "apply_op",
    "holds",
    "aggregate",
    "UNEVALUABLE",
]

# the binary operators; they apply alike to scalars, pandas and Spark columns
_OPS = {
    "=": _op.eq, "!=": _op.ne, "<": _op.lt, "<=": _op.le,
    ">": _op.gt, ">=": _op.ge, "+": _op.add, "-": _op.sub,
    "*": _op.mul, "/": _op.truediv,
}

# §4.3: queries containing these cannot populate the result cache.
NON_DETERMINISTIC_FUNCS = {"rand"}
RUNTIME_CONSTANT_FUNCS = {"current_date", "current_timestamp"}


class Expr:
    """Base class; subclasses are frozen dataclasses (hashable, reprable)."""

    def children(self) -> tuple["Expr", ...]:
        return ()

    def walk(self) -> Iterator["Expr"]:
        yield self
        for c in self.children():
            yield from c.walk()

    def columns(self) -> set[str]:
        return {e.name for e in self.walk() if isinstance(e, Col)}

    def function_names(self) -> set[str]:
        return {e.name for e in self.walk() if isinstance(e, Func)}

    def substitute(self, mapping: dict[str, "Expr"]) -> "Expr":
        """Replace column references by expressions (used by MV rewriting)."""
        raise NotImplementedError

    # convenience builders --------------------------------------------------

    def __eq__(self, other):  # dataclass eq is regenerated in subclasses
        return NotImplemented

    def eq(self, other) -> "BinOp":
        return BinOp("=", self, _wrap(other))

    def ne(self, other) -> "BinOp":
        return BinOp("!=", self, _wrap(other))

    def lt(self, other) -> "BinOp":
        return BinOp("<", self, _wrap(other))

    def le(self, other) -> "BinOp":
        return BinOp("<=", self, _wrap(other))

    def gt(self, other) -> "BinOp":
        return BinOp(">", self, _wrap(other))

    def ge(self, other) -> "BinOp":
        return BinOp(">=", self, _wrap(other))

    def isin(self, *values) -> "InList":
        return InList(self, tuple(values))

    def add(self, other) -> "BinOp":
        return BinOp("+", self, _wrap(other))

    def sub(self, other) -> "BinOp":
        return BinOp("-", self, _wrap(other))

    def mul(self, other) -> "BinOp":
        return BinOp("*", self, _wrap(other))

    def div(self, other) -> "BinOp":
        return BinOp("/", self, _wrap(other))


def apply_op(op: str, l, r):
    """``l op r`` on two scalars; NULL if either side is NULL."""
    return None if l is None or r is None else _OPS[op](l, r)


def _wrap(v) -> Expr:
    return v if isinstance(v, Expr) else Lit(v)


def _sql_literal(v) -> str:
    if v is None:
        return "NULL"
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    if isinstance(v, str):
        escaped = v.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(v, _dt.datetime):
        return f"TIMESTAMP '{v.isoformat(sep=' ')}'"
    if isinstance(v, _dt.date):
        return f"DATE '{v.isoformat()}'"
    return repr(v)


def _spark_literal(v) -> Column:
    if isinstance(v, _dt.datetime):
        return F.lit(v)
    if isinstance(v, _dt.date):
        return F.lit(str(v)).cast("date")
    return F.lit(v)


@dataclass(frozen=True, eq=True, repr=True)
class Col(Expr):
    name: str

    def substitute(self, mapping):
        return mapping.get(self.name, self)

    def to_spark(self) -> Column:
        return F.col(self.name)

    def to_sql(self) -> str:
        return self.name

    def evaluate_vector(self, pdf: pd.DataFrame):
        return pdf[self.name]


@dataclass(frozen=True, eq=True, repr=True)
class Lit(Expr):
    value: object

    def substitute(self, mapping):
        return self

    def to_spark(self) -> Column:
        return _spark_literal(self.value)

    def to_sql(self) -> str:
        return _sql_literal(self.value)

    def evaluate_vector(self, pdf):
        return self.value


def _coerce_for_cmp(series, value):
    """Align a pandas series and a literal for comparison (timestamps vs
    strings). A DATE column, held as ``datetime.date`` objects, is compared
    with a string only by the engine, which casts the string."""
    if pd.api.types.is_datetime64_any_dtype(series) and isinstance(
        value, (str, _dt.date, _dt.datetime)
    ):
        return series, pd.Timestamp(value)
    if isinstance(value, str) and _holds_dates(series):
        raise NotImplementedError("a DATE compared with a string")
    return series, value


def _holds_dates(series) -> bool:
    if not isinstance(series, pd.Series) or series.dtype != object:
        return False
    first = series.first_valid_index()
    return first is not None and isinstance(series[first], _dt.date)


@dataclass(frozen=True, eq=True, repr=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError(f"unknown operator {self.op!r}")

    def children(self):
        return (self.left, self.right)

    def substitute(self, mapping):
        return BinOp(self.op, self.left.substitute(mapping), self.right.substitute(mapping))

    def to_spark(self) -> Column:
        return _OPS[self.op](self.left.to_spark(), self.right.to_spark())

    def to_sql(self) -> str:
        op = "<>" if self.op == "!=" else self.op
        return f"({self.left.to_sql()} {op} {self.right.to_sql()})"

    def evaluate_vector(self, pdf):
        l = self.left.evaluate_vector(pdf)
        r = self.right.evaluate_vector(pdf)
        if isinstance(l, pd.Series) and not isinstance(r, pd.Series):
            l, r = _coerce_for_cmp(l, r)
        elif isinstance(r, pd.Series) and not isinstance(l, pd.Series):
            r, l = _coerce_for_cmp(r, l)
        return _OPS[self.op](l, r)


@dataclass(frozen=True, eq=True, repr=True)
class And(Expr):
    args: tuple[Expr, ...]

    def __init__(self, *args: Expr):
        flat: list[Expr] = []
        for a in args:
            if isinstance(a, And):
                flat.extend(a.args)
            else:
                flat.append(a)
        object.__setattr__(self, "args", tuple(flat))

    def children(self):
        return self.args

    def substitute(self, mapping):
        return And(*[a.substitute(mapping) for a in self.args])

    def to_spark(self) -> Column:
        out = self.args[0].to_spark()
        for a in self.args[1:]:
            out = out & a.to_spark()
        return out

    def to_sql(self) -> str:
        return "(" + " AND ".join(a.to_sql() for a in self.args) + ")"

    def evaluate_vector(self, pdf):
        out = self.args[0].evaluate_vector(pdf)
        for a in self.args[1:]:
            out = out & a.evaluate_vector(pdf)
        return out


@dataclass(frozen=True, eq=True, repr=True)
class Or(Expr):
    args: tuple[Expr, ...]

    def __init__(self, *args: Expr):
        flat: list[Expr] = []
        for a in args:
            if isinstance(a, Or):
                flat.extend(a.args)
            else:
                flat.append(a)
        object.__setattr__(self, "args", tuple(flat))

    def children(self):
        return self.args

    def substitute(self, mapping):
        return Or(*[a.substitute(mapping) for a in self.args])

    def to_spark(self) -> Column:
        out = self.args[0].to_spark()
        for a in self.args[1:]:
            out = out | a.to_spark()
        return out

    def to_sql(self) -> str:
        return "(" + " OR ".join(a.to_sql() for a in self.args) + ")"

    def evaluate_vector(self, pdf):
        out = self.args[0].evaluate_vector(pdf)
        for a in self.args[1:]:
            out = out | a.evaluate_vector(pdf)
        return out


@dataclass(frozen=True, eq=True, repr=True)
class Not(Expr):
    arg: Expr

    def children(self):
        return (self.arg,)

    def substitute(self, mapping):
        return Not(self.arg.substitute(mapping))

    def to_spark(self) -> Column:
        return ~self.arg.to_spark()

    def to_sql(self) -> str:
        return f"(NOT {self.arg.to_sql()})"

    def evaluate_vector(self, pdf):
        return ~self.arg.evaluate_vector(pdf)


@dataclass(frozen=True, eq=True, repr=True)
class InList(Expr):
    arg: Expr
    values: tuple

    def children(self):
        return (self.arg,)

    def substitute(self, mapping):
        return InList(self.arg.substitute(mapping), self.values)

    def to_spark(self) -> Column:
        return self.arg.to_spark().isin(list(self.values))

    def to_sql(self) -> str:
        vals = ", ".join(_sql_literal(v) for v in self.values)
        return f"({self.arg.to_sql()} IN ({vals}))"

    def evaluate_vector(self, pdf):
        s = self.arg.evaluate_vector(pdf)
        vals = self.values
        if isinstance(s, pd.Series) and pd.api.types.is_datetime64_any_dtype(s):
            vals = tuple(pd.Timestamp(v) for v in vals)
        elif any(isinstance(v, str) for v in vals) and _holds_dates(s):
            raise NotImplementedError("a DATE compared with a string")
        return s.isin(vals)


@dataclass(frozen=True, eq=True, repr=True)
class IsNull(Expr):
    arg: Expr
    negated: bool = False

    def children(self):
        return (self.arg,)

    def substitute(self, mapping):
        return IsNull(self.arg.substitute(mapping), self.negated)

    def to_spark(self) -> Column:
        c = self.arg.to_spark()
        return c.isNotNull() if self.negated else c.isNull()

    def to_sql(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.arg.to_sql()} {suffix})"

    def evaluate_vector(self, pdf):
        s = self.arg.evaluate_vector(pdf)
        return s.notna() if self.negated else s.isna()


@dataclass(frozen=True, eq=True, repr=True)
class Func(Expr):
    """Scalar function call. Supported: year/month/day (date parts),
    rand/current_date/current_timestamp (determinism markers, §4.3)."""

    name: str
    args: tuple[Expr, ...] = ()

    def children(self):
        return self.args

    def substitute(self, mapping):
        return Func(self.name, tuple(a.substitute(mapping) for a in self.args))

    def to_spark(self) -> Column:
        n = self.name
        if n in ("year", "month", "day"):
            return getattr(F, "dayofmonth" if n == "day" else n)(self.args[0].to_spark())
        if n == "rand":
            return F.rand()
        if n == "current_date":
            return F.current_date()
        if n == "current_timestamp":
            return F.current_timestamp()
        raise ValueError(f"unsupported function {n!r}")

    def to_sql(self) -> str:
        n = self.name
        if n in ("year", "month", "day"):
            return f"EXTRACT({n} FROM {self.args[0].to_sql()})"
        if n == "rand":
            return "RANDOM()"
        if n in ("current_date", "current_timestamp"):
            return n.upper()
        raise ValueError(f"unsupported function {n!r}")

    def evaluate_vector(self, pdf):
        if self.name in ("year", "month", "day"):
            s = pd.to_datetime(self.args[0].evaluate_vector(pdf))
            return getattr(s.dt, self.name)
        raise ValueError(f"cannot evaluate {self.name!r} outside the engine")


@dataclass(frozen=True, eq=True, repr=True)
class AggCall:
    """An aggregate call: ``func`` over ``arg`` aliased as ``name``.

    ``func`` ∈ {sum, count, min, max, avg, count_star}. ``count_star`` takes
    ``arg=None``. A ``filter`` restricts the call to the rows it holds for
    (SQL's ``FILTER (WHERE …)``): the shared-work merge gives each branch
    of a union its own filtered calls over one input (§4.5).
    """

    func: str
    arg: Expr | None
    name: str
    filter: Expr | None = None

    def __post_init__(self):
        if self.func not in ("sum", "count", "min", "max", "avg", "count_star"):
            raise ValueError(f"unsupported aggregate {self.func!r}")

    def to_spark(self) -> Column:
        arg = F.lit(1) if self.func == "count_star" else self.arg.to_spark()
        if self.filter is not None:
            arg = F.when(self.filter.to_spark(), arg)
        spark_fn = {
            "sum": F.sum, "count": F.count, "count_star": F.count,
            "min": F.min, "max": F.max, "avg": F.avg,
        }
        return spark_fn[self.func](arg).alias(self.name)

    def to_sql(self) -> str:
        call = "COUNT(*)" if self.func == "count_star" else (
            f"{self.func.upper()}({self.arg.to_sql()})"
        )
        if self.filter is not None:
            call += f" FILTER (WHERE {self.filter.to_sql()})"
        return f"{call} AS {self.name}"

    def exprs(self) -> list[Expr]:
        """The argument and the filter, where present."""
        return [e for e in (self.arg, self.filter) if e is not None]

    def columns(self) -> set[str]:
        return set().union(*(e.columns() for e in self.exprs()))


# -- pandas evaluation with SQL's NULL semantics ---------------------------

# what evaluate_vector raises for a form only the engine evaluates: an
# unsupported function, incomparable values, a column the frame lacks
UNEVALUABLE = (NotImplementedError, TypeError, ValueError, KeyError)


def holds(cond: Expr, pdf: pd.DataFrame) -> np.ndarray:
    """The rows of ``pdf`` for which ``cond`` is TRUE, as a boolean array:
    what a WHERE or a FILTER clause keeps. NULL is neither true nor false,
    so ``NOT (a > 1)`` and ``a != 1`` drop a row whose ``a`` is NULL, where
    ``evaluate_vector`` alone would keep it. A NULL literal is left to the
    engine."""
    return _is(cond, pdf, True)


def _is(e: Expr, pdf: pd.DataFrame, want: bool) -> np.ndarray:
    """The rows where predicate ``e`` is ``want`` (TRUE or FALSE, not NULL)."""
    if isinstance(e, (And, Or)):
        # an AND is TRUE, and an OR FALSE, when every argument is
        every = isinstance(e, And) == want
        return _fold(_op.and_ if every else _op.or_, [_is(a, pdf, want) for a in e.args])
    if isinstance(e, Not):
        return _is(e.arg, pdf, not want)
    if isinstance(e, IsNull):
        null = _broadcast(e.evaluate_vector(pdf), pdf).to_numpy(dtype=bool)
        return null if want else ~null
    if any(isinstance(n, Lit) and n.value is None for n in e.walk()) or (
        isinstance(e, InList) and None in e.values
    ):
        raise NotImplementedError("a NULL literal")
    # a comparison, IN list or boolean column: NULL where an input is NULL
    value = _broadcast(e.evaluate_vector(pdf), pdf)
    if value.dtype != bool:
        value = value.fillna(False)
    value = value.to_numpy(dtype=bool)
    if not want:
        value = ~value
    return _fold(_op.and_, [value] + [pdf[c].notna().to_numpy() for c in sorted(e.columns())])


def _fold(op, masks: list[np.ndarray]) -> np.ndarray:
    out = masks[0]
    for m in masks[1:]:
        out = op(out, m)
    return out


def _broadcast(value, pdf: pd.DataFrame) -> pd.Series:
    """``value`` as a series over ``pdf``'s rows (a literal repeats)."""
    if isinstance(value, pd.Series):
        return value
    return pd.Series(value, index=pdf.index)


# pandas reduction per aggregate function; counts come from ``count``
_REDUCE = {"sum": "sum", "min": "min", "max": "max", "avg": "mean"}


def aggregate(pdf: pd.DataFrame, keys: Sequence[str], aggs: Sequence[AggCall]) -> pd.DataFrame:
    """SQL aggregation of ``pdf``: the key columns, then one column per
    call. Each call sees only the rows its ``FILTER`` holds for. NULL keys
    form one group; without keys there is one row even over no rows. SUM,
    MIN, MAX and AVG over no non-NULL input are NULL, COUNT is 0. Raises
    one of :data:`UNEVALUABLE` for a form only the engine evaluates."""
    masks: dict = {}  # one evaluation per distinct FILTER
    inputs = {}
    for a in aggs:
        if a.func == "count_star":
            v = pd.Series(1, index=pdf.index)
        else:
            v = _broadcast(a.arg.evaluate_vector(pdf), pdf)
            if pd.api.types.is_integer_dtype(v):
                v = v.astype("Int64")  # exact sums; a NULL keeps it integer
            elif a.func in ("min", "max") and pd.api.types.infer_dtype(v) == "string":
                v = v.astype("string")  # objects with NULLs do not compare
        if a.filter is not None:
            if a.filter not in masks:
                masks[a.filter] = holds(a.filter, pdf)
            v = v.where(masks[a.filter])
        inputs[a.name] = v
    frame = pd.DataFrame(inputs, index=pdf.index)
    if keys:
        src = frame.groupby([pdf[k] for k in keys], dropna=False, sort=False)
    else:
        src = frame
    counts = src.count()  # non-NULL inputs per call (and group)
    out = {}
    for a in aggs:
        n = counts[a.name]
        if a.func in ("count", "count_star"):
            out[a.name] = n
            continue
        value = getattr(src[a.name], _REDUCE[a.func])()
        out[a.name] = value.where(n > 0) if keys else (value if n > 0 else None)
    if keys:
        return pd.DataFrame(out, index=counts.index).reset_index()
    return pd.DataFrame({name: [v] for name, v in out.items()})


# -- convenience ----------------------------------------------------------

def col(name: str) -> Col:
    return Col(name)


def lit(v) -> Lit:
    return Lit(v)


def between(e: Expr, lo, hi) -> And:
    return And(e.ge(lo), e.le(hi))


def is_column_equality(e: Expr) -> bool:
    """``a = b`` over two columns: an equi-join predicate."""
    cols = isinstance(e, BinOp) and isinstance(e.left, Col) and isinstance(e.right, Col)
    return cols and e.op == "="


TRUE = Lit(True)
FALSE = Lit(False)

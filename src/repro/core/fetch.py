"""Fetching a finished answer: no engine stage for a result computed whole.

In Hive, a query that needs no engine stage is answered by a fetch task:
HS2 reads the rows itself. Here that is a plan whose leaf is already the
answer's input in pandas: an aggregate the LLAP daemon ran as one fragment
(§5.1), or a ``ForeignQuery`` a storage handler answered (Druid, §6.2).
Above the leaf only :data:`FETCH_OPS` may sit; HS2 evaluates them in pandas
(:func:`evaluate`) and Spark never sees the rows.

The fetched frame must be the one Spark would have returned. So column
types come from here: :func:`plan_schema` types every plan node as Spark's
analyzer types it (ANSI mode), from the catalog, :func:`expr_type` and
:func:`aggregate_schema`; HS2 types daemon groups, handler answers and MV
columns with it. A fetched frame is shaped as Spark's Arrow ``toPandas``
shapes a result of its plan's schema (:func:`to_pandas`). Nullability is
not tracked except where Spark's aggregates fix it: it never changes what
``toPandas`` returns.

Sort follows Spark's NULL order (ASC NULLS FIRST, DESC NULLS LAST) and keeps
the input order of ties; Filter keeps the rows :func:`~repro.core.expr.holds`
for. A form this module does not evaluate exactly as Spark does raises one of
:data:`~repro.core.expr.UNEVALUABLE`, and the caller compiles the plan.
"""
from __future__ import annotations

import datetime as _dt
from functools import reduce
from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import types as T

from repro.core.expr import (
    NON_DETERMINISTIC_FUNCS,
    AggCall,
    And,
    BinOp,
    Col,
    Expr,
    Func,
    InList,
    IsNull,
    Lit,
    Not,
    Or,
    holds,
)
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
from repro.storage.reader import spark_schema

__all__ = [
    "FETCH_OPS",
    "expr_type",
    "aggregate_schema",
    "plan_schema",
    "evaluate",
    "to_pandas",
]

# the operators a fetched plan may have above its leaf
FETCH_OPS = (Project, Filter, Sort, Limit, Unpivot)

# Spark's numeric precedence: an operation over two numbers is typed by the
# later of the two
_NUMERIC = (T.ByteType, T.ShortType, T.IntegerType, T.LongType, T.FloatType, T.DoubleType)
_COMPARISONS = {"=", "!=", "<", "<=", ">", ">="}
_PREDICATES = (And, Or, Not, InList, IsNull)

# Arrow type per Spark type of a result column; a timestamp is wall-clock
# time in the session zone both ways, so it carries no zone here
_ARROW = {
    T.ByteType: pa.int8(),
    T.ShortType: pa.int16(),
    T.IntegerType: pa.int32(),
    T.LongType: pa.int64(),
    T.FloatType: pa.float32(),
    T.DoubleType: pa.float64(),
    T.StringType: pa.string(),
    T.BooleanType: pa.bool_(),
    T.DateType: pa.date32(),
    T.TimestampType: pa.timestamp("us"),
}
# the pandas type toPandas corrects a column of each Spark type to
_PANDAS = {
    T.ByteType: np.int8,
    T.ShortType: np.int16,
    T.IntegerType: np.int32,
    T.LongType: np.int64,
    T.FloatType: np.float32,
    T.DoubleType: np.float64,
    T.BooleanType: np.bool_,
    T.TimestampType: np.dtype("datetime64[ns]"),
}


# -- typing ------------------------------------------------------------------


def _rank(t: T.DataType) -> int:
    for i, cls in enumerate(_NUMERIC):
        if type(t) is cls:
            return i
    raise TypeError(f"{t.simpleString()} is not a number")


def _wider(a: T.DataType, b: T.DataType) -> T.DataType:
    """The type two values of types ``a`` and ``b`` share, as Spark's
    coercion finds it for an array of them: equal types, or numbers."""
    if a == b:
        return a
    return _NUMERIC[max(_rank(a), _rank(b))]()


def _literal_type(v) -> T.DataType:
    if v is None:
        raise NotImplementedError("a NULL literal")
    if isinstance(v, (bool, np.bool_)):
        return T.BooleanType()
    if isinstance(v, np.integer):
        return {1: T.ByteType, 2: T.ShortType, 4: T.IntegerType, 8: T.LongType}[v.itemsize]()
    if isinstance(v, int):
        return T.IntegerType() if -(2**31) <= v < 2**31 else T.LongType()
    if isinstance(v, np.float32):
        return T.FloatType()
    if isinstance(v, float):
        return T.DoubleType()
    if isinstance(v, str):
        return T.StringType()
    if isinstance(v, _dt.datetime):
        return T.TimestampType()
    if isinstance(v, _dt.date):
        return T.DateType()
    raise TypeError(f"a literal of type {type(v).__name__}")


# each function's type; the date parts take a date or a timestamp
_FUNC_TYPES = {
    **dict.fromkeys(("year", "month", "day"), T.IntegerType()),
    "rand": T.DoubleType(), "current_date": T.DateType(), "current_timestamp": T.TimestampType(),
}


def expr_type(e: Expr, types: dict[str, T.DataType]) -> T.DataType:
    """The Spark type of ``e`` over columns typed by ``types``. Raises one
    of :data:`~repro.core.expr.UNEVALUABLE` for a form Spark rejects or
    this module does not type."""
    if isinstance(e, Col):
        return types[e.name]
    if isinstance(e, Lit):
        return _literal_type(e.value)
    if isinstance(e, _PREDICATES):
        for c in e.children():
            expr_type(c, types)
        return T.BooleanType()
    if isinstance(e, BinOp):
        left, right = expr_type(e.left, types), expr_type(e.right, types)
        if e.op in _COMPARISONS:
            return T.BooleanType()
        wider = _wider(left, right)  # arithmetic is over numbers only here
        return T.DoubleType() if e.op == "/" else wider
    if isinstance(e, Func) and e.name in _FUNC_TYPES:
        if e.args and not isinstance(expr_type(e.args[0], types), (T.DateType, T.TimestampType)):
            raise TypeError(f"{e.name}() of a non-date")
        return _FUNC_TYPES[e.name]
    raise NotImplementedError(f"{e!r} is not typed here")


def _agg_type(a: AggCall, types: dict[str, T.DataType]) -> T.DataType:
    if a.func == "count_star":
        return T.LongType()
    if a.arg.function_names() & NON_DETERMINISTIC_FUNCS:
        raise NotImplementedError("a non-deterministic aggregate argument")
    t = expr_type(a.arg, types)
    if a.func == "count":
        return T.LongType()
    if a.func in ("min", "max"):
        return t
    if isinstance(t, T.StringType):  # cast to double, as ANSI mode casts it
        return T.DoubleType()
    rank = _rank(t)
    if a.func == "sum" and rank <= _rank(T.LongType()):
        return T.LongType()
    return T.DoubleType()


def aggregate_schema(
    input: T.StructType, keys: Sequence[str], aggs: Sequence[AggCall]
) -> T.StructType:
    """The schema Spark's analyzer gives ``GROUP BY keys`` with ``aggs``
    over ``input``: each key as typed there, COUNT a non-NULL BIGINT, SUM a
    BIGINT over integers and a DOUBLE otherwise, AVG a DOUBLE, MIN and MAX
    their argument's type."""
    fields = {f.name: f for f in input.fields}
    types = {f.name: f.dataType for f in input.fields}
    out = [fields[k] for k in keys]
    for a in aggs:
        out.append(T.StructField(a.name, _agg_type(a, types), a.func not in ("count", "count_star")))
    return T.StructType(out)


def plan_schema(plan: Plan, catalog) -> T.StructType:
    """The schema Spark's analyzer gives ``plan``'s output, named as by
    :func:`~repro.core.plan.output_columns` (``catalog`` resolves tables).
    Raises one of :data:`~repro.core.expr.UNEVALUABLE` for an expression
    this module does not type."""
    if isinstance(plan, Scan):
        return spark_schema(catalog.get_table(plan.table), output_columns(plan, catalog))
    if isinstance(plan, (Filter, Sort, Limit)):
        return plan_schema(plan.child, catalog)
    if isinstance(plan, ForeignQuery):
        return plan.schema
    if isinstance(plan, Aggregate):
        return aggregate_schema(plan_schema(plan.child, catalog), plan.keys, plan.aggs)
    if isinstance(plan, Join):
        left = plan_schema(plan.left, catalog)
        if plan.how in ("left_semi", "left_anti"):
            return left
        return T.StructType(left.fields + plan_schema(plan.right, catalog).fields)
    child = [plan_schema(c, catalog) for c in plan.children()]
    types = {f.name: f.dataType for f in child[0].fields}
    if isinstance(plan, Project):
        return T.StructType([T.StructField(n, expr_type(e, types)) for n, e in plan.exprs])
    # the other nodes type each column by the types it takes, widened
    names = plan.names if isinstance(plan, Unpivot) else child[0].names
    if isinstance(plan, Unpivot):
        columns = zip(*[[expr_type(e, types) for e in row] for row in plan.rows])
    elif isinstance(plan, Union):  # inputs matched by name, as unionByName matches them
        columns = [[s[n].dataType for s in child] for n in names]
    elif isinstance(plan, SetOp):  # by position
        columns = zip(*[[f.dataType for f in s.fields] for s in child])
    else:
        raise TypeError(f"unknown plan node {type(plan).__name__}")
    return T.StructType([T.StructField(n, reduce(_wider, ts)) for n, ts in zip(names, columns)])


# -- evaluation ----------------------------------------------------------------


def _value(e: Expr, pdf: pd.DataFrame) -> pd.Series:
    """``e`` over ``pdf``'s rows with SQL's semantics: a predicate is TRUE,
    FALSE or NULL; a division by zero is left to the engine."""
    if isinstance(e, _PREDICATES) or (isinstance(e, BinOp) and e.op in _COMPARISONS):
        true, false = holds(e, pdf), holds(Not(e), pdf)
        out = np.where(true, True, np.where(false, False, None))
        return pd.Series(out, index=pdf.index, dtype=object)
    for d in e.walk():
        if isinstance(d, BinOp) and d.op == "/" and (_series(d.right, pdf) == 0).any():
            raise NotImplementedError("a division by zero")
    return _series(e, pdf)


def _series(e: Expr, pdf: pd.DataFrame) -> pd.Series:
    value = e.evaluate_vector(pdf)
    if isinstance(value, pd.Series):
        return value
    return pd.Series([value] * len(pdf), index=pdf.index, dtype=object)


def _apply(op: Plan, pdf: pd.DataFrame) -> pd.DataFrame:
    if isinstance(op, Filter):
        return pdf[holds(op.cond, pdf)]
    if isinstance(op, Limit):
        return pdf.head(op.n)
    if isinstance(op, Sort):
        # a stable sort per key, the last key first, is one sort by all keys
        for c, asc in reversed(op.keys):
            pdf = pdf.sort_values(c, ascending=asc, na_position="first" if asc else "last", kind="stable")
        return pdf
    if isinstance(op, Project):
        return pd.DataFrame({n: _value(e, pdf) for n, e in op.exprs}, index=pdf.index)
    if isinstance(op, Unpivot):
        pdf = pdf.reset_index(drop=True)
        # each input row's output rows together, in the order of ``rows``
        columns = {
            n: pd.concat([_value(row[j], pdf) for row in op.rows])
            .sort_index(kind="stable")
            .reset_index(drop=True)
            .infer_objects()
            for j, n in enumerate(op.names)
        }
        return pd.DataFrame(columns)
    raise TypeError(f"cannot fetch through {type(op).__name__}")


def evaluate(ops: Sequence[Plan], pdf: pd.DataFrame, schema: T.StructType) -> pd.DataFrame:
    """Apply ``ops`` (innermost first) to the leaf's rows ``pdf``; the
    result as Spark's ``toPandas`` would return it for the outermost op's
    :func:`plan_schema` ``schema``."""
    for op in ops:
        pdf = _apply(op, pdf)
    return to_pandas(pdf, schema)


def to_pandas(pdf: pd.DataFrame, schema: T.StructType) -> pd.DataFrame:
    """``pdf`` as Spark's Arrow ``toPandas`` returns a result of ``schema``:
    values cast to each column's type, an integer column with NULLs as
    float64 and a boolean one as objects, DATE as ``datetime.date``, and an
    empty result from untyped columns, as Spark builds it."""
    names = schema.names
    if len(pdf):
        arrow = pa.schema([pa.field(f.name, _ARROW[type(f.dataType)]) for f in schema.fields])
        pdf = pa.Table.from_pandas(pdf[names], schema=arrow, preserve_index=False).to_pandas(
            date_as_object=True, coerce_temporal_nanoseconds=True, ignore_metadata=True
        )
    else:
        pdf = pd.DataFrame(columns=names)
    return pd.concat(
        [_corrected(s, f.dataType) for (_, s), f in zip(pdf.items(), schema.fields)], axis="columns"
    )


def _corrected(s: pd.Series, t: T.DataType) -> pd.Series:
    target = _PANDAS.get(type(t))
    if target is None:
        return s
    if isinstance(t, (T.IntegralType, T.BooleanType)) and s.isnull().any():
        return s.astype(np.float64 if isinstance(t, T.IntegralType) else object)
    return s.astype(target)

"""Cardinality/selectivity estimation over HMS statistics (§4.1).

The estimates feed join reordering and the cost-based choice between MV
rewritings. Runtime statistics captured during execution can *override* the
HMS-derived numbers — that is exactly what the ``reoptimize`` strategy
(§4.2) does, so the model accepts an ``overrides`` map from plan
fingerprints to observed row counts.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.expr import (
    And, BinOp, Col, InList, IsNull, Lit, Not, Or, is_column_equality
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
)
from repro.core.rules import conjuncts
from repro.metastore import ColumnStats, HiveMetastore

__all__ = ["CostModel"]

_DEFAULT_ROWS = 1000.0
_DEFAULT_SELECTIVITY = 0.25


def _as_number(v):
    try:
        return float(v)
    except (TypeError, ValueError):
        return None


@dataclass
class CostModel:
    hms: HiveMetastore
    # runtime-observed row counts by plan fingerprint (query reoptimization)
    overrides: dict[str, float] = field(default_factory=dict)

    # -- column stat resolution -------------------------------------------

    def _column_stats(self, plan: Plan, name: str) -> ColumnStats | None:
        for t in sorted(plan.tables()):
            s = self.hms.stats(t)
            if s is not None and s.column(name) is not None:
                return s.column(name)
        return None

    def _ndv(self, plan: Plan, name: str) -> float | None:
        cs = self._column_stats(plan, name)
        return float(max(1, cs.ndv)) if cs is not None else None

    # -- selectivity -------------------------------------------------------

    def selectivity(self, plan: Plan, cond) -> float:
        """Fraction of rows of ``plan`` satisfying ``cond``."""
        if isinstance(cond, Lit):
            return 1.0 if cond.value else 0.0
        if isinstance(cond, And):
            out = 1.0
            for a in cond.args:
                out *= self.selectivity(plan, a)
            return out
        if isinstance(cond, Or):
            out = 1.0
            for a in cond.args:
                out *= 1.0 - self.selectivity(plan, a)
            return 1.0 - out
        if isinstance(cond, Not):
            return max(0.0, 1.0 - self.selectivity(plan, cond.arg))
        if isinstance(cond, IsNull):
            cs = None
            if isinstance(cond.arg, Col):
                cs = self._column_stats(plan, cond.arg.name)
            frac = 0.05 if cs is None or cs.null_count == 0 else 0.3
            return (1 - frac) if cond.negated else frac
        if isinstance(cond, InList) and isinstance(cond.arg, Col):
            ndv = self._ndv(plan, cond.arg.name)
            if ndv:
                return min(1.0, len(cond.values) / ndv)
            return _DEFAULT_SELECTIVITY
        if isinstance(cond, BinOp):
            return self._binop_selectivity(plan, cond)
        return _DEFAULT_SELECTIVITY

    def _binop_selectivity(self, plan: Plan, cond: BinOp) -> float:
        col_side, lit_side = None, None
        if isinstance(cond.left, Col) and isinstance(cond.right, Lit):
            col_side, lit_side = cond.left, cond.right
            op = cond.op
        elif isinstance(cond.right, Col) and isinstance(cond.left, Lit):
            col_side, lit_side = cond.right, cond.left
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(cond.op, cond.op)
        else:
            return _DEFAULT_SELECTIVITY if cond.op != "=" else 0.1

        if op == "=":
            ndv = self._ndv(plan, col_side.name)
            return 1.0 / ndv if ndv else 0.1
        if op == "!=":
            ndv = self._ndv(plan, col_side.name)
            return 1.0 - (1.0 / ndv) if ndv else 0.9
        cs = self._column_stats(plan, col_side.name)
        v = _as_number(lit_side.value)
        if cs is None or v is None:
            return 1 / 3
        lo, hi = _as_number(cs.min_value), _as_number(cs.max_value)
        if lo is None or hi is None or hi <= lo:
            return 1 / 3
        frac = (v - lo) / (hi - lo)
        frac = min(1.0, max(0.0, frac))
        return frac if op in ("<", "<=") else 1.0 - frac

    # -- cardinality -------------------------------------------------------

    def rows(self, plan: Plan) -> float:
        fp = plan.fingerprint()
        if fp in self.overrides:
            return self.overrides[fp]

        if isinstance(plan, Scan):
            stats = self.hms.stats(plan.table)
            if stats is None:
                return _DEFAULT_ROWS
            total = float(max(1, stats.row_count))
            if plan.partitions is not None:
                per_part = [
                    self.hms.partition_stats(plan.table, p) for p in plan.partitions
                ]
                known = [s.row_count for s in per_part if s is not None]
                if known and len(known) == len(plan.partitions):
                    return float(max(1, sum(known)))
                n_parts = max(1, len(self.hms.partitions(plan.table)))
                return total * len(plan.partitions) / n_parts
            return total
        if isinstance(plan, Filter):
            return max(1.0, self.rows(plan.child) * self.selectivity(plan.child, plan.cond))
        if isinstance(plan, Project):
            return self.rows(plan.child)
        if isinstance(plan, Join):
            return self._join_rows(plan)
        if isinstance(plan, Aggregate):
            child = self.rows(plan.child)
            if not plan.keys:
                return 1.0
            ndv_prod = 1.0
            for k in plan.keys:
                ndv = self._ndv(plan.child, k)
                ndv_prod *= ndv if ndv else 10.0
            return max(1.0, min(child, ndv_prod))
        if isinstance(plan, Sort):
            return self.rows(plan.child)
        if isinstance(plan, Limit):
            return min(float(plan.n), self.rows(plan.child))
        if isinstance(plan, Union):
            return sum(self.rows(i) for i in plan.inputs)
        if isinstance(plan, SetOp):
            return self.rows(plan.left)
        if isinstance(plan, ForeignQuery):
            return _DEFAULT_ROWS
        return _DEFAULT_ROWS

    def _join_rows(self, plan: Join) -> float:
        lr, rr = self.rows(plan.left), self.rows(plan.right)
        if plan.how == "cross" or plan.cond is None:
            return lr * rr
        if plan.how == "left_semi":
            return lr * 0.5
        if plan.how == "left_anti":
            return lr * 0.5
        denom = 1.0
        found_equi = False
        for c in conjuncts(plan.cond):
            if is_column_equality(c):
                found_equi = True
                ndv_l = self._ndv(plan.left, c.left.name) or self._ndv(
                    plan.right, c.left.name
                )
                ndv_r = self._ndv(plan.right, c.right.name) or self._ndv(
                    plan.left, c.right.name
                )
                candidates = [n for n in (ndv_l, ndv_r) if n]
                denom *= max(candidates) if candidates else 10.0
        if not found_equi:
            return lr * rr * _DEFAULT_SELECTIVITY
        out = lr * rr / denom
        if plan.how == "left":
            out = max(out, lr)
        return max(1.0, out)

    # -- plan cost (rows read plus intermediate result sizes) -------------

    def plan_cost(self, plan: Plan) -> float:
        total = 0.0
        for node in plan.walk():
            if isinstance(node, (Scan, Join, Aggregate, Filter)):
                total += self.rows(node)
        return total + self.rows(plan)

"""Rewrite rules for the multi-stage optimizer (§4.1).

Each rule is a pure function ``rule(plan, ctx) -> Plan`` returning the input
unchanged when it does not apply. ``ctx`` is the optimizer context exposing
the metastore (``ctx.hms``) and cost model (``ctx.cost``). The set mirrors
the Calcite rules Hive enables: constant folding and propagation, predicate
simplification, filter pushdown/merging, operator elimination, partition
pruning, and projection (column) pruning.
"""
from __future__ import annotations

from dataclasses import replace

from repro.core.expr import (
    And,
    BinOp,
    Col,
    Expr,
    FALSE,
    Func,
    InList,
    IsNull,
    Lit,
    Not,
    Or,
    TRUE,
    apply_op,
)
from repro.core.plan import (
    Aggregate,
    Filter,
    Join,
    Limit,
    Plan,
    Project,
    Scan,
    SetOp,
    Sort,
    Union,
    output_columns,
)
from repro.storage.layout import partition_values_from_key

__all__ = [
    "conjuncts",
    "make_conjunction",
    "fold_constants",
    "simplify_predicates",
    "merge_filters",
    "push_filter_through_join",
    "push_filter_through_union",
    "push_filter_into_aggregate",
    "eliminate_trivial_ops",
    "prune_partitions",
    "prune_columns",
    "annotate_sargable_filters",
]


# -- expression helpers ----------------------------------------------------


def conjuncts(e: Expr) -> list[Expr]:
    return list(e.args) if isinstance(e, And) else [e]


def make_conjunction(parts: list[Expr]) -> Expr:
    if not parts:
        return TRUE
    if len(parts) == 1:
        return parts[0]
    return And(*parts)


def _fold_expr(e: Expr) -> Expr:
    """Bottom-up constant folding on one expression."""
    if isinstance(e, BinOp):
        l, r = _fold_expr(e.left), _fold_expr(e.right)
        if isinstance(l, Lit) and isinstance(r, Lit):
            try:
                return Lit(apply_op(e.op, l.value, r.value))
            except Exception:
                return BinOp(e.op, l, r)
        return BinOp(e.op, l, r)
    if isinstance(e, And):
        args = [_fold_expr(a) for a in e.args]
        if any(a == FALSE for a in args):
            return FALSE
        args = [a for a in args if a != TRUE]
        return make_conjunction(args)
    if isinstance(e, Or):
        args = [_fold_expr(a) for a in e.args]
        if any(a == TRUE for a in args):
            return TRUE
        args = [a for a in args if a != FALSE]
        if not args:
            return FALSE
        return args[0] if len(args) == 1 else Or(*args)
    if isinstance(e, Not):
        a = _fold_expr(e.arg)
        if isinstance(a, Lit) and isinstance(a.value, bool):
            return Lit(not a.value)
        if isinstance(a, Not):
            return a.arg
        return Not(a)
    if isinstance(e, InList):
        return InList(_fold_expr(e.arg), e.values)
    if isinstance(e, IsNull):
        return IsNull(_fold_expr(e.arg), e.negated)
    if isinstance(e, Func):
        return Func(e.name, tuple(_fold_expr(a) for a in e.args))
    return e


def _simplify_conjunction(parts: list[Expr]) -> list[Expr]:
    """Deduplicate conjuncts and detect equality contradictions
    (``x = 1 AND x = 2`` → FALSE), i.e. predicate simplification."""
    seen: list[Expr] = []
    eq_bindings: dict[str, object] = {}
    for p in parts:
        if p in seen:
            continue
        if (
            isinstance(p, BinOp)
            and p.op == "="
            and isinstance(p.left, Col)
            and isinstance(p.right, Lit)
        ):
            prev = eq_bindings.get(p.left.name, _MISSING)
            if prev is not _MISSING and prev != p.right.value:
                return [FALSE]
            eq_bindings[p.left.name] = p.right.value
        seen.append(p)
    return seen


_MISSING = object()


# -- rules -----------------------------------------------------------------


def fold_constants(plan: Plan, ctx) -> Plan:
    def fix(node: Plan) -> Plan:
        if isinstance(node, Filter):
            return replace(node, cond=_fold_expr(node.cond))
        if isinstance(node, Project):
            return replace(
                node, exprs=tuple((n, _fold_expr(e)) for n, e in node.exprs)
            )
        if isinstance(node, Join) and node.cond is not None:
            return replace(node, cond=_fold_expr(node.cond))
        return node

    return plan.transform_up(fix)


def simplify_predicates(plan: Plan, ctx) -> Plan:
    def fix(node: Plan) -> Plan:
        if isinstance(node, Filter):
            parts = _simplify_conjunction(conjuncts(_fold_expr(node.cond)))
            return replace(node, cond=make_conjunction(parts))
        return node

    return plan.transform_up(fix)


def merge_filters(plan: Plan, ctx) -> Plan:
    def fix(node: Plan) -> Plan:
        if isinstance(node, Filter) and isinstance(node.child, Filter):
            merged = make_conjunction(
                conjuncts(node.child.cond) + conjuncts(node.cond)
            )
            return Filter(node.child.child, merged)
        return node

    return plan.transform_up(fix)


def push_filter_through_join(plan: Plan, ctx) -> Plan:
    """Filter over an inner join → route conjuncts to the side(s) whose
    columns they reference; the rest stays above the join."""

    def fix(node: Plan) -> Plan:
        if not (isinstance(node, Filter) and isinstance(node.child, Join)):
            return node
        join = node.child
        if join.how not in ("inner", "cross"):
            return node
        lcols = set(output_columns(join.left, ctx.hms))
        rcols = set(output_columns(join.right, ctx.hms))
        left_parts, right_parts, keep = [], [], []
        for c in conjuncts(node.cond):
            cols = c.columns()
            if cols and cols <= lcols:
                left_parts.append(c)
            elif cols and cols <= rcols:
                right_parts.append(c)
            else:
                keep.append(c)
        if not left_parts and not right_parts:
            return node
        new_left = Filter(join.left, make_conjunction(left_parts)) if left_parts else join.left
        new_right = (
            Filter(join.right, make_conjunction(right_parts)) if right_parts else join.right
        )
        out: Plan = replace(join, left=new_left, right=new_right)
        if keep:
            out = Filter(out, make_conjunction(keep))
        return out

    return plan.transform_up(fix)


def push_filter_through_union(plan: Plan, ctx) -> Plan:
    def fix(node: Plan) -> Plan:
        if isinstance(node, Filter) and isinstance(node.child, Union):
            u = node.child
            return replace(
                u, inputs=tuple(Filter(i, node.cond) for i in u.inputs)
            )
        return node

    return plan.transform_up(fix)


def push_filter_into_aggregate(plan: Plan, ctx) -> Plan:
    """Conjuncts over group-by keys commute with the aggregation."""

    def fix(node: Plan) -> Plan:
        if not (isinstance(node, Filter) and isinstance(node.child, Aggregate)):
            return node
        agg = node.child
        keys = set(agg.keys)
        push, keep = [], []
        for c in conjuncts(node.cond):
            (push if c.columns() and c.columns() <= keys else keep).append(c)
        if not push:
            return node
        new_agg = replace(agg, child=Filter(agg.child, make_conjunction(push)))
        return Filter(new_agg, make_conjunction(keep)) if keep else new_agg

    return plan.transform_up(fix)


def eliminate_trivial_ops(plan: Plan, ctx) -> Plan:
    """Operator elimination: TRUE filters, identity projections, single-input
    unions, Limit(Limit)."""

    def fix(node: Plan) -> Plan:
        if isinstance(node, Filter) and node.cond == TRUE:
            return node.child
        if isinstance(node, Project):
            child_cols = output_columns(node.child, ctx.hms)
            if [n for n, _ in node.exprs] == child_cols and all(
                isinstance(e, Col) and e.name == n for n, e in node.exprs
            ):
                return node.child
        if isinstance(node, Union) and len(node.inputs) == 1:
            return node.inputs[0]
        if isinstance(node, Limit) and isinstance(node.child, Limit):
            return Limit(node.child.child, min(node.n, node.child.n))
        return node

    return plan.transform_up(fix)


# -- physical-stage rules --------------------------------------------------


def _partition_matches(value_str: str, pred: Expr, pcol: str) -> bool:
    """Evaluate a single-column predicate against a partition value string."""

    def coerce(lit_val):
        try:
            return type(lit_val)(value_str)
        except (TypeError, ValueError):
            return value_str

    if isinstance(pred, BinOp) and isinstance(pred.left, Col) and pred.left.name == pcol:
        if not isinstance(pred.right, Lit):
            return True
        v = coerce(pred.right.value)
        try:
            return bool(apply_op(pred.op, v, pred.right.value))
        except TypeError:
            return True
    if isinstance(pred, InList) and isinstance(pred.arg, Col) and pred.arg.name == pcol:
        return any(value_str == str(x) for x in pred.values)
    return True


def prune_partitions(plan: Plan, ctx) -> Plan:
    """Static partition pruning: a Filter over a Scan restricts the Scan's
    partition list using predicates on partition columns. The Filter remains
    in the plan (pruning is an I/O optimization, not a semantic rewrite)."""

    def fix(node: Plan) -> Plan:
        if not (isinstance(node, Filter) and isinstance(node.child, Scan)):
            return node
        scan = node.child
        table = ctx.hms.get_table(scan.table)
        if not table.partitioned_by:
            return node
        all_parts = ctx.hms.partitions(scan.table)
        keys = all_parts if scan.partitions is None else list(scan.partitions)
        preds = [
            c
            for c in conjuncts(node.cond)
            if c.columns() and c.columns() <= set(table.partitioned_by)
        ]
        if not preds:
            return node
        kept = []
        for key in keys:
            vals = partition_values_from_key(key)
            ok = True
            for p in preds:
                (pcol,) = p.columns()
                if not _partition_matches(vals.get(pcol, ""), p, pcol):
                    ok = False
                    break
            if ok:
                kept.append(key)
        return replace(node, child=replace(scan, partitions=tuple(kept)))

    return plan.transform_up(fix)


def prune_columns(plan: Plan, ctx) -> Plan:
    """Projection pushdown: annotate every Scan with only the columns the
    plan above it actually references."""

    def required(node: Plan, needed: set[str] | None) -> Plan:
        if isinstance(node, Scan):
            table_cols = ctx.hms.get_table(node.table).column_names()
            if needed is None:
                return node
            cols = tuple(c for c in table_cols if c in needed)
            return replace(node, columns=cols or tuple(table_cols[:1]))
        if isinstance(node, Filter):
            need = None if needed is None else needed | node.cond.columns()
            return replace(node, child=required(node.child, need))
        if isinstance(node, Project):
            need = set()
            for _, e in node.exprs:
                need |= e.columns()
            return replace(node, child=required(node.child, need))
        if isinstance(node, Join):
            need = None
            if needed is not None:
                need = set(needed)
                if node.cond is not None:
                    need |= node.cond.columns()
            return replace(
                node,
                left=required(node.left, need),
                right=required(node.right, need),
            )
        if isinstance(node, Aggregate):
            need = set(node.keys)
            for a in node.aggs:
                need |= a.columns()
            return replace(node, child=required(node.child, need))
        if isinstance(node, Sort):
            need = None if needed is None else needed | {c for c, _ in node.keys}
            return replace(node, child=required(node.child, need))
        if isinstance(node, Limit):
            return replace(node, child=required(node.child, needed))
        if isinstance(node, (Union, SetOp)):
            # branches keep their schemas (and DISTINCT its meaning): each
            # is pruned below its own top operator only
            return node.with_children(*[required(c, None) for c in node.children()])
        return node

    return required(plan, None)


_SARGABLE = ("=", "<", "<=", ">", ">=")


def annotate_sargable_filters(plan: Plan, ctx) -> Plan:
    """Copy sargable single-column conjuncts from a Filter directly above a
    Scan into ``Scan.pushed_filters`` — the LLAP I/O elevator evaluates them
    against row-group metadata (§5.1); the Filter itself remains for exact
    row-level semantics."""

    def sargable(c: Expr) -> bool:
        if isinstance(c, BinOp) and c.op in _SARGABLE:
            return isinstance(c.left, Col) and isinstance(c.right, Lit)
        if isinstance(c, InList):
            return isinstance(c.arg, Col)
        return False

    def fix(node: Plan) -> Plan:
        if not (isinstance(node, Filter) and isinstance(node.child, Scan)):
            return node
        preds = tuple(c for c in conjuncts(node.cond) if sargable(c))
        if not preds:
            return node
        return replace(node, child=replace(node.child, pushed_filters=preds))

    return plan.transform_up(fix)

"""Cost-based join reordering (§4.1) — the flagship CBO rule.

Flattens a tree of inner equi-joins (with interleaved filters) into a set of
relations + join/filter predicates, then searches for the cheapest left-deep
join order: exhaustive dynamic programming over connected subsets for up to
``DP_MAX_RELATIONS`` relations, greedy (smallest-intermediate-first) above.
Cross products are avoided unless no connected pair exists.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.core.expr import Expr
from repro.core.plan import Filter, Join, Plan, output_columns
from repro.core.rules import conjuncts, make_conjunction

__all__ = ["reorder_joins", "flatten_join_tree", "DP_MAX_RELATIONS"]

DP_MAX_RELATIONS = 8


@dataclass
class _JoinGraph:
    relations: list[Plan]
    predicates: list[Expr]


def flatten_join_tree(plan: Plan) -> _JoinGraph | None:
    """Flatten nested inner joins (and filters over them) into a join graph.
    Returns None if ``plan`` is not an inner-join tree root."""
    if not (
        isinstance(plan, Join)
        and plan.how == "inner"
        or (isinstance(plan, Filter) and isinstance(plan.child, Join))
    ):
        return None

    relations: list[Plan] = []
    predicates: list[Expr] = []

    def walk(node: Plan) -> None:
        if isinstance(node, Join) and node.how == "inner":
            walk(node.left)
            walk(node.right)
            if node.cond is not None:
                predicates.extend(conjuncts(node.cond))
        elif isinstance(node, Filter) and isinstance(node.child, Join) and node.child.how == "inner":
            walk(node.child)
            predicates.extend(conjuncts(node.cond))
        else:
            relations.append(node)

    walk(plan)
    if len(relations) < 2:
        return None
    return _JoinGraph(relations, predicates)


def _rel_columns(rel: Plan, catalog) -> set[str]:
    return set(output_columns(rel, catalog))


def reorder_joins(plan: Plan, ctx) -> Plan:
    """Entry point rule: recursively reorder every maximal join tree."""

    def visit(node: Plan) -> Plan:
        graph = flatten_join_tree(node)
        if graph is not None:
            # reorder nested join trees inside each relation first
            rels = [visit_children(r) for r in graph.relations]
            return _search(rels, graph.predicates, ctx)
        return visit_children(node)

    def visit_children(node: Plan) -> Plan:
        kids = node.children()
        if not kids:
            return node
        new = tuple(visit(k) for k in kids)
        return node if new == kids else node.with_children(*new)

    return visit(plan)


def _search(relations: list[Plan], predicates: list[Expr], ctx) -> Plan:
    catalog = ctx.hms
    cost = ctx.cost
    cols = [_rel_columns(r, catalog) for r in relations]

    # single-relation predicates apply immediately (predicate pushdown)
    local: list[list[Expr]] = [[] for _ in relations]
    join_preds: list[Expr] = []
    rest: list[Expr] = []
    all_cols = set().union(*cols) if cols else set()
    for p in predicates:
        owners = [i for i, cs in enumerate(cols) if p.columns() and p.columns() <= cs]
        if owners:
            local[owners[0]].append(p)
        elif p.columns() and p.columns() <= all_cols:
            join_preds.append(p)
        else:
            rest.append(p)

    base: list[Plan] = []
    for r, lp in zip(relations, local):
        base.append(Filter(r, make_conjunction(lp)) if lp else r)

    n = len(base)
    if n <= DP_MAX_RELATIONS:
        result = _dp(base, cols, join_preds, cost)
    else:
        result = _greedy(base, cols, join_preds, cost)
    if rest:
        result = Filter(result, make_conjunction(rest))
    return result


def _join_of(left: Plan, right: Plan, lcols: set[str], rcols: set[str], preds) -> tuple[Plan, list[Expr]]:
    both = lcols | rcols
    applicable = [
        p
        for p in preds
        if p.columns() <= both
        and not p.columns() <= lcols
        and not p.columns() <= rcols
    ]
    cond = make_conjunction(applicable) if applicable else None
    how = "inner" if applicable else "cross"
    return Join(left, right, cond, how), applicable


def _dp(base, cols, preds, cost) -> Plan:
    """Dynamic programming over subsets; left-deep and bushy plans allowed.

    Plans with fewer cross products always win over cheaper plans with more
    (the classic avoid-cartesian heuristic); cost breaks ties.
    """
    n = len(base)
    # mask -> (cross_count, cost, plan, columns)
    best: dict[int, tuple[int, float, Plan, set[str]]] = {}
    for i in range(n):
        best[1 << i] = (0, cost.rows(base[i]), base[i], cols[i])

    for size in range(2, n + 1):
        for mask in range(1, 1 << n):
            if bin(mask).count("1") != size:
                continue
            entries = []
            sub = (mask - 1) & mask
            while sub:
                other = mask ^ sub
                if sub < other:  # avoid symmetric duplicates
                    sub = (sub - 1) & mask
                    continue
                if sub in best and other in best:
                    lx, lcost, lp, lc = best[sub]
                    rx, rcost, rp, rc = best[other]
                    joined, applicable = _join_of(lp, rp, lc, rc, preds)
                    crosses = lx + rx + (0 if applicable else 1)
                    c = lcost + rcost + cost.rows(joined)
                    entries.append((crosses, c, joined, lc | rc))
                sub = (sub - 1) & mask
            if entries:
                entries.sort(key=lambda e: (e[0], e[1]))
                best[mask] = entries[0]

    full = (1 << n) - 1
    _, _, plan, used_cols = best[full]
    # attach any join predicates not consumed (e.g. 3-relation predicates)
    consumed = _collect_join_conds(plan)
    leftover = [p for p in preds if p not in consumed]
    return Filter(plan, make_conjunction(leftover)) if leftover else plan


def _greedy(base, cols, preds, cost) -> Plan:
    items = list(zip(base, cols))
    items.sort(key=lambda it: cost.rows(it[0]))
    plan, pcols = items[0]
    remaining = items[1:]
    while remaining:
        scored = []
        for idx, (r, rc) in enumerate(remaining):
            joined, applicable = _join_of(plan, r, pcols, rc, preds)
            scored.append((not applicable, cost.rows(joined), idx, joined, rc))
        scored.sort(key=lambda s: (s[0], s[1]))
        _, _, idx, joined, rc = scored[0]
        plan, pcols = joined, pcols | rc
        remaining.pop(idx)
    consumed = _collect_join_conds(plan)
    leftover = [p for p in preds if p not in consumed]
    return Filter(plan, make_conjunction(leftover)) if leftover else plan


def _collect_join_conds(plan: Plan) -> list[Expr]:
    out: list[Expr] = []
    for node in plan.walk():
        if isinstance(node, Join) and node.cond is not None:
            out.extend(conjuncts(node.cond))
    return out

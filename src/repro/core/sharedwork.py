"""Shared work optimization (§4.5).

Hive's shared-work optimizer does *not* search for semantically equivalent
subexpressions — it merges parts of the plan that are literally equal,
"starting from scan operations over the same tables and continuing until a
difference is found", just before execution. Tez then feeds the one merged
scan to every consumer. Spark cannot: a DataFrame consumed twice is
computed twice unless it is cached. So the merge takes two forms here:

* :func:`merge_union_aggregates` — a ``UNION ALL`` of global aggregates
  over one input (the q88 shape, where the paper measures 2.7×) becomes a
  single aggregate with one filtered call per branch, unpivoted back to
  one row per branch: one pass over the input and nothing cached.
* :func:`find_shared_subtrees` — for any other repeated subtree (equality
  is subtree fingerprint equality, which subsumes the scan-upwards merge),
  the subtree is compiled a single time, ``persist()``-ed, and every
  occurrence reuses the same cached DataFrame (see
  :func:`repro.core.compile.compile_plan`).

:func:`merge_equivalent_scans` runs first, so that scans differing only in
their physical annotations become equal.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import replace

from repro.core.expr import Col, Expr
from repro.core.plan import Aggregate, Filter, Plan, Project, Scan, Union, Unpivot
from repro.core.rules import conjuncts, make_conjunction

__all__ = ["merge_equivalent_scans", "merge_union_aggregates", "find_shared_subtrees"]


def merge_equivalent_scans(plan: Plan) -> Plan:
    """Merge scans over the same table that differ only in their physical
    annotations — the first step of Hive's shared-work merge ("it starts
    merging scan operations over the same tables").

    The merged scan is the *weakest* of the group: pushed filters become
    the intersection, pruned partition lists the union, projected columns
    the union, and per-scan runtime filters are dropped unless identical.
    This is always sound because those annotations are copies — the exact
    Filter/Project operators still sit above each occurrence — and it
    makes the scans fingerprint-equal so they compile (and persist) once.
    """
    groups: dict[str, list[Scan]] = defaultdict(list)
    for node in plan.walk():
        if isinstance(node, Scan):
            groups[node.table].append(node)

    merged: dict[str, Scan] = {}
    for table, scans in groups.items():
        if len(scans) < 2 or len({s.fingerprint() for s in scans}) == 1:
            continue
        if any(s.columns is None for s in scans):
            columns = None
        else:
            seen: list[str] = []
            for s in scans:
                seen += [c for c in s.columns if c not in seen]
            columns = tuple(seen)
        if any(s.partitions is None for s in scans):
            partitions = None
        else:
            parts: list[str] = []
            for s in scans:
                parts += [p for p in s.partitions if p not in parts]
            partitions = tuple(sorted(parts))
        common = [
            f for f in scans[0].pushed_filters
            if all(f in s.pushed_filters for s in scans[1:])
        ]
        filters = {s.runtime_filters for s in scans}
        merged[table] = Scan(
            table,
            columns=columns,
            partitions=partitions,
            pushed_filters=tuple(common),
            runtime_filters=filters.pop() if len(filters) == 1 else (),
        )

    if not merged:
        return plan
    return plan.transform_up(
        lambda n: merged.get(n.table, n) if isinstance(n, Scan) else n
    )


def _global_aggregate(branch: Plan) -> tuple[tuple | None, Aggregate] | None:
    """``(Project exprs or None, Aggregate)`` when ``branch`` is an
    unfiltered global aggregate, under at most one Project."""
    exprs = None
    if isinstance(branch, Project):
        exprs, branch = branch.exprs, branch.child
    if (
        isinstance(branch, Aggregate)
        and not branch.keys
        and branch.aggs
        and all(a.filter is None for a in branch.aggs)
    ):
        return exprs, branch
    return None


def _split_filter(plan: Plan) -> tuple[Plan, list[Expr]]:
    if isinstance(plan, Filter):
        return plan.child, conjuncts(plan.cond)
    return plan, []


def merge_union_aggregates(plan: Plan) -> Plan:
    """Merge each ``Union(all)`` whose branches are global aggregates over
    one input into one pass over that input.

    Branch ``i`` is ``[Project](Aggregate((), aggs_i, [Filter](X, c_i)))``
    with X fingerprint-equal across branches and the same output names.
    It becomes ``Aggregate((), [agg FILTER (WHERE c_i')])`` over
    ``Filter(X, common)``, where ``common`` are the conjuncts every c_i
    shares and c_i' the rest of c_i, then an :class:`Unpivot` with one
    row per branch: its Project expressions over its renamed calls.
    Like a global aggregate, a filtered call yields a value when no row
    passes its filter (count 0, sum NULL), so every branch keeps its row.
    Other unions are left as they are.
    """

    def fix(node: Plan) -> Plan:
        if not (isinstance(node, Union) and node.all and len(node.inputs) > 1):
            return node
        shapes = [_global_aggregate(b) for b in node.inputs]
        if None in shapes:
            return node
        splits = [_split_filter(agg.child) for _, agg in shapes]
        if len({x.fingerprint() for x, _ in splits}) > 1:
            return node
        names = [
            [n for n, _ in exprs] if exprs is not None else [a.name for a in agg.aggs]
            for exprs, agg in shapes
        ]
        if any(n != names[0] for n in names):
            return node

        common = [c for c in splits[0][1] if all(c in conds for _, conds in splits)]
        aggs, rows = [], []
        for i, ((exprs, agg), (_, conds)) in enumerate(zip(shapes, splits)):
            own = [c for c in conds if c not in common]
            renamed = {a.name: Col(f"_sw{i}_{a.name}") for a in agg.aggs}
            aggs += [
                replace(a, name=renamed[a.name].name, filter=make_conjunction(own) if own else None)
                for a in agg.aggs
            ]
            exprs = exprs or tuple((a.name, Col(a.name)) for a in agg.aggs)
            rows.append(tuple(e.substitute(renamed) for _, e in exprs))
        x = splits[0][0]
        merged = Aggregate(Filter(x, make_conjunction(common)) if common else x, (), tuple(aggs))
        return Unpivot(merged, tuple(names[0]), tuple(rows))

    return plan.transform_up(fix)


def find_shared_subtrees(plan: Plan) -> set[str]:
    """Fingerprints of the *maximal* subtrees occurring 2+ times, bare
    scans included (merging "starts from scan operations").

    Maximality: when a repeated subtree is contained in a larger repeated
    subtree, only the larger one is shared (merging continues upward "until
    a difference is found").
    """
    counts: Counter[str] = Counter()
    for node in plan.walk():
        counts[node.fingerprint()] += 1

    shared: set[str] = set()

    def visit(node: Plan) -> None:
        fp = node.fingerprint()
        if counts[fp] >= 2:
            shared.add(fp)
            return  # maximal: do not descend into an already-shared subtree
        for c in node.children():
            visit(c)

    visit(plan)
    return shared

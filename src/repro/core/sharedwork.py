"""Shared work optimization (§4.5).

Hive's shared-work optimizer does *not* search for semantically equivalent
subexpressions — it merges parts of the plan that are literally equal,
"starting from scan operations over the same tables and continuing until a
difference is found", just before execution. Here equality is subtree
fingerprint equality (which subsumes the scan-upwards merge: two equal
subtrees necessarily share equal scans), and "computing once" maps to Spark:
the shared subtree is compiled a single time, ``persist()``-ed, and every
occurrence reuses the same cached DataFrame (see
:func:`repro.core.compile.compile_plan`).
"""
from __future__ import annotations

from collections import Counter, defaultdict

from repro.core.plan import Plan, Scan

__all__ = ["merge_equivalent_scans", "find_shared_subtrees", "count_shared_occurrences"]


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
        rf_ids = {s.runtime_filter_id for s in scans}
        merged[table] = Scan(
            table,
            columns=columns,
            partitions=partitions,
            pushed_filters=tuple(common),
            runtime_filter_id=rf_ids.pop() if len(rf_ids) == 1 else None,
        )

    if not merged:
        return plan
    return plan.transform_up(
        lambda n: merged.get(n.table, n) if isinstance(n, Scan) else n
    )


def _subtree_size(plan: Plan) -> int:
    return sum(1 for _ in plan.walk())


def find_shared_subtrees(plan: Plan, min_size: int = 1) -> set[str]:
    """Fingerprints of the *maximal* subtrees occurring 2+ times.

    Maximality: when a repeated subtree is contained in a larger repeated
    subtree, only the larger one is shared (merging continues upward "until
    a difference is found"). ``min_size`` can exclude bare scans
    (``min_size=2`` starts at Filter-over-Scan).
    """
    counts: Counter[str] = Counter()
    for node in plan.walk():
        counts[node.fingerprint()] += 1

    shared: set[str] = set()

    def visit(node: Plan) -> None:
        fp = node.fingerprint()
        if counts[fp] >= 2 and _subtree_size(node) >= min_size:
            shared.add(fp)
            return  # maximal: do not descend into an already-shared subtree
        for c in node.children():
            visit(c)

    visit(plan)
    return shared


def count_shared_occurrences(plan: Plan, shared: set[str]) -> dict[str, int]:
    """How many plan occurrences each shared fingerprint covers (for the
    optimizer report / tests)."""
    out: dict[str, int] = {fp: 0 for fp in shared}

    def visit(node: Plan) -> None:
        fp = node.fingerprint()
        if fp in out:
            out[fp] += 1
            return
        for c in node.children():
            visit(c)

    visit(plan)
    return out

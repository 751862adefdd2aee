"""Dynamic semijoin reduction (§4.6).

Star-schema queries filter dimension tables on non-join columns, so no
static filter exists for the fact table. Hive evaluates the filtered
dimension subexpression first and uses its join-key values to skip fact
data, in two variants:

* **dynamic partition pruning** — the fact table is partitioned by the join
  column: the produced values select partitions (directories) directly;
* **index semijoin** — otherwise: a min/max range condition plus a
  runtime filter over the produced values are pushed into the fact scan.
  The I/O elevator uses the range to skip row groups and the filter to
  drop rows (and the range condition also runs as a regular filter).
  Hive's filter is a Bloom filter over the values; a dimension side here
  has at most ``MAX_BUILD_ROWS`` rows, and a set that small is an exact
  Bloom, so the filter is the value set itself.

The planner half (:func:`find_opportunities`) detects reducible joins; the
runtime half (:func:`apply_reduction`) executes the dimension side, then
rewrites the fact ``Scan`` node with the pruned partition list / range
conjuncts and runtime filters before final compilation — matching Hive, where
the reducers are "introduced by the optimizer and pushed into the scan
operators" but *evaluated* while the query runs.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.compile import compile_plan
from repro.core.expr import And, Col, InList, is_column_equality, lit
from repro.core.plan import Filter, Join, Plan, Scan, output_columns
from repro.core.rules import conjuncts
from repro.storage.layout import partition_values_from_key

__all__ = [
    "MAX_BUILD_ROWS",
    "SemijoinOpportunity",
    "RuntimeFilter",
    "find_opportunities",
    "apply_reduction",
]

# the most rows (estimated) a side evaluated eagerly may have: a reducer's
# dimension side here, the build side of a map join in the LLAP daemon
MAX_BUILD_ROWS = 50_000


@dataclass(frozen=True)
class SemijoinOpportunity:
    """One reducible (fact-scan, dimension-subplan) pair.

    ``join``/``fact_side`` pin the opportunity to one specific Join node:
    the reducer must rewrite only *that* join's fact scan — two scans of
    the same table in different plan branches (e.g. the two arms of an
    INTERSECT) carry different reducers.
    """

    target_table: str  # fact table being reduced
    target_column: str  # fact join key
    source_plan: Plan  # filtered dimension subexpression
    source_column: str  # dimension join key
    kind: str  # 'partition_pruning' | 'index_semijoin'
    join: Join  # the Join node this reducer belongs to
    fact_side: str  # 'left' | 'right'


@dataclass(frozen=True)
class RuntimeFilter:
    """The non-NULL join-key values a dimension side produced, for the fact
    scan's ``column``: the exact-Bloom form of Hive's runtime filter. Kept
    sorted, so a plan carrying it has one fingerprint."""

    column: str
    values: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "values", tuple(sorted(v for v in self.values if v is not None))
        )

    @property
    def min_value(self):
        return self.values[0] if self.values else None

    @property
    def max_value(self):
        return self.values[-1] if self.values else None


@dataclass
class ReductionReport:
    """What the reducer did — inspected by tests and EXPERIMENTS harnesses."""

    opportunities: list[SemijoinOpportunity] = field(default_factory=list)
    partitions_before: int = 0
    partitions_after: int = 0
    runtime_filters: list[RuntimeFilter] = field(default_factory=list)


def _scan_of(plan: Plan) -> Scan | None:
    """The Scan at the root of a (possibly filtered) table access."""
    if isinstance(plan, Scan):
        return plan
    if isinstance(plan, Filter):
        return _scan_of(plan.child)
    return None


def _has_filter(plan: Plan) -> bool:
    return any(isinstance(n, Filter) for n in plan.walk())


def find_opportunities(plan: Plan, ctx) -> list[SemijoinOpportunity]:
    """Detect equijoins where one side is a filtered subexpression small
    enough to evaluate eagerly (at most ``MAX_BUILD_ROWS`` estimated rows)
    and the other side is a direct table scan."""
    out: list[SemijoinOpportunity] = []
    for node in plan.walk():
        if not (isinstance(node, Join) and node.how == "inner" and node.cond is not None):
            continue
        for c in conjuncts(node.cond):
            if not is_column_equality(c):
                continue
            for fact_side, dim_side in ((node.left, node.right), (node.right, node.left)):
                fact_scan = _scan_of(fact_side)
                if fact_scan is None or not _has_filter(dim_side):
                    continue
                # classic reducer shape only: the build side is a *filtered
                # table access* (not an arbitrary join subtree — evaluating
                # one eagerly costs more than it saves), and the reduced
                # side is materially larger than the build side.
                if _scan_of(dim_side) is None:
                    continue
                if ctx.cost.rows(fact_side) < 4 * ctx.cost.rows(dim_side):
                    continue
                dim_cols = set(output_columns(dim_side, ctx.hms))
                fact_cols = set(output_columns(fact_side, ctx.hms))
                # orient the equality's columns to the two sides
                if c.left.name in fact_cols and c.right.name in dim_cols:
                    fact_col, dim_col = c.left.name, c.right.name
                elif c.right.name in fact_cols and c.left.name in dim_cols:
                    fact_col, dim_col = c.right.name, c.left.name
                else:
                    continue
                if ctx.cost.rows(dim_side) > MAX_BUILD_ROWS:
                    continue
                table = ctx.hms.get_table(fact_scan.table)
                kind = (
                    "partition_pruning"
                    if fact_col in table.partitioned_by
                    else "index_semijoin"
                )
                out.append(
                    SemijoinOpportunity(
                        fact_scan.table,
                        fact_col,
                        dim_side,
                        dim_col,
                        kind,
                        node,
                        "left" if fact_side is node.left else "right",
                    )
                )
    return out


def apply_reduction(
    plan: Plan, ctx, query_ctx, opportunities: list[SemijoinOpportunity] | None = None
) -> tuple[Plan, ReductionReport]:
    """Evaluate each opportunity's dimension side and rewrite the fact scans.

    ``query_ctx`` is the query's execution context: it runs the dimension
    subplans (they are compiled and collected — dimension sides are small by
    construction). Each rewritten scan carries its runtime filters, one per
    column. Returns the rewritten plan plus a report.
    """
    report = ReductionReport()
    if opportunities is None:
        opportunities = find_opportunities(plan, ctx)
    report.opportunities = opportunities
    if not opportunities:
        return plan, report

    # evaluate dimension sides once each (dedup by fingerprint); in LLAP
    # mode the context evaluates small dimension subexpressions daemon-side
    # instead of launching an engine job
    values_by_opp: dict[int, list] = {}
    seen: dict[tuple[str, str], list] = {}
    for i, opp in enumerate(opportunities):
        key = (opp.source_plan.fingerprint(), opp.source_column)
        if key not in seen:
            vals = query_ctx.collect_values(opp.source_plan, opp.source_column)
            if vals is None:
                df = compile_plan(opp.source_plan, query_ctx)
                column = df.select(opp.source_column).distinct().dropna()
                vals = [r[0] for r in column.collect()]
            seen[key] = vals
        values_by_opp[i] = seen[key]

    def _reduce_scan(node: Scan, opps: list[tuple[int, SemijoinOpportunity]]) -> Scan:
        """Apply the given opportunities to one specific Scan node."""
        new = node
        filters: dict[str, RuntimeFilter] = {}
        for i, opp in opps:
            vals = values_by_opp[i]
            if opp.kind == "partition_pruning":
                table = ctx.hms.get_table(node.table)
                current = (
                    list(new.partitions)
                    if new.partitions is not None
                    else ctx.hms.partitions(node.table)
                )
                report.partitions_before = max(
                    report.partitions_before, len(current)
                )
                want = {str(v) for v in vals}
                kept = tuple(
                    k
                    for k in current
                    if partition_values_from_key(k).get(opp.target_column) in want
                )
                new = replace(new, partitions=kept)
                report.partitions_after = len(kept)
            else:
                rf = RuntimeFilter(opp.target_column, tuple(vals))
                report.runtime_filters.append(rf)
                # range condition becomes a pushed (and regular) filter;
                # the value set rides on the scan, for the elevator
                if rf.values:
                    cond = And(
                        Col(opp.target_column).ge(lit(rf.min_value)),
                        Col(opp.target_column).le(lit(rf.max_value)),
                    )
                    filters[opp.target_column] = rf
                else:  # dimension side empty → fact side contributes nothing
                    cond = InList(Col(opp.target_column), ())
                new = replace(
                    new, pushed_filters=tuple(new.pushed_filters) + tuple(conjuncts(cond))
                )
        if filters:
            new = replace(new, runtime_filters=tuple(filters.values()))
        return new

    def _rewrite_fact_side(subtree: Plan, opps) -> Plan:
        """The fact side is a Scan or Filter-over-Scan chain (guaranteed by
        detection); rewrite its single Scan."""
        if isinstance(subtree, Scan):
            return _reduce_scan(subtree, opps)
        if isinstance(subtree, Filter):
            return subtree.with_children(_rewrite_fact_side(subtree.child, opps))
        return subtree

    # rewrite each opportunity's join in place — matching by structural
    # equality of the Join subtree, so reducers never leak across branches
    def visit(node: Plan) -> Plan:
        matching = [
            (i, opp) for i, opp in enumerate(opportunities) if opp.join == node
        ]
        kids = tuple(visit(k) for k in node.children())
        node2 = node if kids == node.children() else node.with_children(*kids)
        if matching:
            assert isinstance(node2, Join)
            left_opps = [(i, o) for i, o in matching if o.fact_side == "left"]
            right_opps = [(i, o) for i, o in matching if o.fact_side == "right"]
            new_left = _rewrite_fact_side(node2.left, left_opps) if left_opps else node2.left
            new_right = (
                _rewrite_fact_side(node2.right, right_opps) if right_opps else node2.right
            )
            node2 = node2.with_children(new_left, new_right)
        return node2

    # Note: pushed_filters are conservative (they can only drop rows the
    # join would drop anyway), so execution contexts are free to apply them
    # as real filters (the ACID/LLAP contexts do) or only as I/O skip hints.
    return visit(plan), report

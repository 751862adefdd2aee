"""LLAP I/O elevator (§5.1): off-loaded reads with pushdown + chunk cache.

The elevator accepts projections, sargable predicates, and runtime filters
from the scan operator, consults the (cached) row-group metadata to decide
which row groups must be read, then assembles the selected chunks — from
cache when possible, reading only the selected row groups of the file on a
miss — into a pandas batch ready for vectorized processing. Metadata is
evaluated *before* data loads, so chunks that a predicate excludes are
never pulled in.

Pushdown semantics:

* min/max range checks skip whole row groups (ORC-index equivalent);
* per-row-group Bloom filters (for configured columns) skip groups for
  equality/IN predicates;
* runtime semijoin filters (§4.6), each a dimension side's value set,
  filter *rows* after load — they cannot be compared to a row group
  without reading it;
* then the pushed predicates filter rows too, so what leaves the elevator
  is only what the scan's conjuncts keep. A predicate pandas cannot
  evaluate, or on a column not read, is left to the plan's ``Filter``.
  The runtime filters run first: a semijoin's range conjunct is implied
  by its filter's value set, so the rows both remove count as the
  filter's. A conjunct that every kept row satisfies is not evaluated, as
  it would remove nothing: one the value set of a runtime filter on its
  column implies (the semijoin's range), or the min/max of every selected
  row group (on a column without NULLs there).

A read checks its file's version once, in the metadata lookup.
"""
from __future__ import annotations

import datetime as _dt
import threading
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

from repro.core.expr import UNEVALUABLE, BinOp, Col, Expr, InList, Lit, holds
from repro.llap.cache import ChunkKey, LlapCache
from repro.storage.layout import RowGroupMeta

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.semijoin import RuntimeFilter

__all__ = ["IOElevator", "ElevatorStats"]


@dataclass
class ElevatorStats:
    row_groups_total: int = 0
    row_groups_read: int = 0
    row_groups_skipped_minmax: int = 0
    row_groups_skipped_bloom: int = 0
    rows_filtered_by_runtime_bloom: int = 0
    rows_filtered_pushed: int = 0

    def add(self, other: "ElevatorStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


def _overlaps(mm: tuple, op: str, v) -> bool:
    """Can a row group whose footer holds ``(min, max)`` satisfy ``col op v``?"""
    lo, hi = mm
    if isinstance(lo, _dt.datetime) and isinstance(v, (str, _dt.date)):
        v = pd.Timestamp(v)  # footer timestamps vs date / ISO-string literals
    try:
        if op == "=":
            return lo <= v <= hi
        if op == "<":
            return lo < v
        if op == "<=":
            return lo <= v
        if op == ">":
            return hi > v
        if op == ">=":
            return hi >= v
    except TypeError:
        return True
    return True


def _implied(
    p: Expr, groups: list[RowGroupMeta], filters: dict[str, RuntimeFilter]
) -> bool:
    """Does every row the runtime filters keep of ``groups`` satisfy the
    pushed ``col op lit`` or ``col IN (...)`` conjunct ``p``? It does when
    the column's values lie in a range that implies ``p``: the value set of
    a runtime filter on it (which runs first), or else each group's
    footer min/max, where the group has no NULL in the column."""
    if isinstance(p, BinOp) and isinstance(p.left, Col) and isinstance(p.right, Lit):
        name, values = p.left.name, (p.right.value,)
    elif isinstance(p, InList) and isinstance(p.arg, Col):
        name, values = p.arg.name, p.values
    else:
        return False
    flt = filters.get(name)
    if flt is not None and flt.values:
        return _range_implies(flt.min_value, flt.max_value, p, values)
    return all(
        name in g.min_max
        and g.null_count.get(name) == 0
        and _range_implies(*g.min_max[name], p, values)
        for g in groups
    )


def _range_implies(lo, hi, p: Expr, values: tuple) -> bool:
    """Does every value in ``[lo, hi]`` satisfy ``p`` (over ``values``)?
    Only for integers, strings and same-typed dates: a float column may
    hold NaN, which its footer's min/max leave out."""
    kind = type(lo)
    if kind is float or not all(type(v) is kind for v in (hi, *values)):
        return False
    if isinstance(p, InList):
        # a range of integers that the list covers, or a single value in it
        if kind is int and hi - lo < len(values):
            return set(range(lo, hi + 1)) <= set(values)
        return lo == hi and lo in values
    v = values[0]
    return {
        "=": lo == hi == v, "!=": v < lo or v > hi,
        "<": hi < v, "<=": hi <= v, ">": lo > v, ">=": lo >= v,
    }.get(p.op, False)


def _group_survives(
    g: RowGroupMeta, preds: list[Expr], stats: ElevatorStats
) -> bool:
    for p in preds:
        if isinstance(p, BinOp) and isinstance(p.left, Col) and isinstance(p.right, Lit):
            mm = g.min_max.get(p.left.name)
            if mm is not None and not _overlaps(mm, p.op, p.right.value):
                stats.row_groups_skipped_minmax += 1
                return False
            if p.op == "=" and p.left.name in g.blooms:
                if not g.blooms[p.left.name].might_contain(p.right.value):
                    stats.row_groups_skipped_bloom += 1
                    return False
        elif isinstance(p, InList) and isinstance(p.arg, Col):
            mm = g.min_max.get(p.arg.name)
            if mm is not None and not any(_overlaps(mm, "=", v) for v in p.values):
                stats.row_groups_skipped_minmax += 1
                return False
            if p.arg.name in g.blooms and not any(
                g.blooms[p.arg.name].might_contain(v) for v in p.values
            ):
                stats.row_groups_skipped_bloom += 1
                return False
            if not p.values:  # empty IN-list: nothing can match
                stats.row_groups_skipped_minmax += 1
                return False
    return True


@dataclass
class IOElevator:
    """Reads files for the daemon's executor threads. Each read counts into
    its own :class:`ElevatorStats` and adds it to :attr:`stats` once, under
    a lock, so concurrent reads lose no counts."""

    cache: LlapCache
    stats: ElevatorStats = field(default_factory=ElevatorStats)
    _stats_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def read_file(
        self,
        file: str | Path,
        columns: list[str],
        pushed_filters: list[Expr] | None = None,
        runtime_filters: tuple[RuntimeFilter, ...] = (),
    ) -> pd.DataFrame | None:
        """Read one data file through metadata pushdown + the chunk cache.

        Returns the rows of the surviving row groups (projected) that the
        runtime filters and then the pushed filters keep, or None when every
        row group was skipped.
        """
        f = str(file)
        preds = list(pushed_filters or [])
        stats = ElevatorStats()  # this read's counts, added to self.stats once
        try:
            meta = self.cache.get_meta(f)
            stats.row_groups_total += len(meta.row_groups)
            selected = [
                (i, g) for i, g in enumerate(meta.row_groups)
                if _group_survives(g, preds, stats)
            ]
            if not selected:
                return None
            stats.row_groups_read += len(selected)

            # find the missing chunks, then read only the row groups and
            # columns that hold them
            have: dict[tuple[int, str], pd.Series] = {}
            missing_groups: dict[int, RowGroupMeta] = {}
            missing_cols: dict[str, None] = {}
            for i, g in selected:
                for c in columns:
                    s = self.cache.get_chunk(ChunkKey(f, g.start, c))
                    if s is None:
                        missing_groups[i] = g
                        missing_cols[c] = None
                    else:
                        have[(g.start, c)] = s
            if missing_groups:
                part = pq.ParquetFile(f).read_row_groups(
                    list(missing_groups), columns=list(missing_cols)
                ).to_pandas()
                offset = 0
                for g in missing_groups.values():
                    for c in missing_cols:
                        if (g.start, c) not in have:
                            s = part[c].iloc[offset : offset + g.n_rows].reset_index(drop=True)
                            self.cache.put_chunk(ChunkKey(f, g.start, c), s)
                            have[(g.start, c)] = s
                    offset += g.n_rows

            pdf = pd.concat(
                [pd.DataFrame({c: have[(g.start, c)] for c in columns}) for _, g in selected],
                ignore_index=True,
            )
            filters = {rf.column: rf for rf in runtime_filters}
            groups = [g for _, g in selected]
            # a conjunct every kept row satisfies would remove none
            preds = [p for p in preds if not _implied(p, groups, filters)]
            return _filter_rows(pdf, filters, preds, stats)
        finally:
            with self._stats_lock:
                self.stats.add(stats)


def _filter_rows(
    pdf: pd.DataFrame, filters: dict[str, RuntimeFilter], preds: list[Expr], stats: ElevatorStats
) -> pd.DataFrame:
    """Row filters, in order: the runtime semijoin filters (each tests
    membership in its value set), then the pushed predicates. Each counts
    the rows it removes of those the filters before it kept. A filter on a
    column not read, or a predicate pandas cannot evaluate, keeps every
    row."""
    keep = None

    def add(mask: np.ndarray) -> int:
        nonlocal keep
        removed = ~mask if keep is None else keep & ~mask
        keep = mask if keep is None else keep & mask
        return int(np.count_nonzero(removed))

    for colname, flt in filters.items():
        if colname in pdf.columns:
            mask = pdf[colname].isin(flt.values).to_numpy(dtype=bool)
            stats.rows_filtered_by_runtime_bloom += add(mask)
    for p in preds:
        if not p.columns() <= set(pdf.columns):
            continue
        try:
            mask = holds(p, pdf)
        except UNEVALUABLE:
            continue
        stats.rows_filtered_pushed += add(mask)
    return pdf if keep is None else pdf[keep].reset_index(drop=True)

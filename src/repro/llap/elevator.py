"""LLAP I/O elevator (§5.1): off-loaded reads with pushdown + chunk cache.

The elevator accepts projections, sargable predicates, and Bloom filters
from the scan operator, consults the (cached) row-group metadata to decide
which row groups must be read, then assembles the selected chunks — from
cache when possible, repopulating on miss — into a pandas batch ready for
vectorized processing. Metadata is evaluated *before* data loads, so chunks
that a predicate excludes are never pulled in.

Pushdown semantics:

* min/max range checks skip whole row groups (ORC-index equivalent);
* per-row-group Bloom filters (for configured columns) skip groups for
  equality/IN predicates;
* runtime semijoin Blooms (§4.6) additionally filter *rows* after load —
  they come from the dimension side, so their values cannot be compared to
  a row group without reading it.
"""
from __future__ import annotations

import datetime as _dt
import threading
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING

import pandas as pd

from repro.core.expr import BinOp, Col, Expr, InList, Lit
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
        runtime_blooms: dict[str, RuntimeFilter] | None = None,
    ) -> pd.DataFrame | None:
        """Read one data file through metadata pushdown + the chunk cache.

        Returns the concatenated surviving row groups (projected), or None
        when every row group was skipped.
        """
        f = str(file)
        preds = list(pushed_filters or [])
        stats = ElevatorStats()  # this read's counts, added to self.stats once
        try:
            meta = self.cache.get_meta(f)
            stats.row_groups_total += len(meta.row_groups)
            selected = [g for g in meta.row_groups if _group_survives(g, preds, stats)]
            if not selected:
                return None
            stats.row_groups_read += len(selected)

            # figure out which chunks are missing, load the file once if any
            missing: list[tuple[RowGroupMeta, str]] = []
            have: dict[tuple[int, str], pd.Series] = {}
            for g in selected:
                for c in columns:
                    key = ChunkKey(f, g.start, c)
                    s = self.cache.get_chunk(key)
                    if s is None:
                        missing.append((g, c))
                    else:
                        have[(g.start, c)] = s
            if missing:
                full = pd.read_parquet(f, columns=columns)
                for g, c in missing:
                    s = full[c].iloc[g.start : g.start + g.n_rows].reset_index(drop=True)
                    self.cache.put_chunk(ChunkKey(f, g.start, c), s)
                    have[(g.start, c)] = s

            frames = []
            for g in selected:
                frames.append(
                    pd.DataFrame({c: have[(g.start, c)] for c in columns})
                )
            pdf = pd.concat(frames, ignore_index=True)
            return self._apply_runtime_blooms(pdf, runtime_blooms, stats)
        finally:
            with self._stats_lock:
                self.stats.add(stats)

    def _apply_runtime_blooms(
        self, pdf: pd.DataFrame, blooms: dict[str, RuntimeFilter] | None, stats: ElevatorStats
    ) -> pd.DataFrame:
        """Row-level semijoin filters: each tests exact membership, or
        probes its Bloom filter row by row when it carries no value set."""
        if not blooms or pdf is None or pdf.empty:
            return pdf
        for colname, flt in blooms.items():
            if colname not in pdf.columns:
                continue
            mask = flt.apply(pdf[colname])
            stats.rows_filtered_by_runtime_bloom += int((~mask).sum())
            pdf = pdf[mask]
        return pdf.reset_index(drop=True)

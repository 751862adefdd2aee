"""Additive table/column statistics, as stored in the Hive Metastore (§4.1).

The paper stresses that statistics are stored "such that they can be combined
in an additive fashion": future inserts and per-partition stats merge onto
existing ones. Row counts add, min/max take extrema, and NDV merges via the
HyperLogLog sketch (see :mod:`repro.metastore.hll`), all without rescanning.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from .hll import HyperLogLog

__all__ = ["ColumnStats", "TableStats", "collect_stats"]


@dataclass
class ColumnStats:
    """min / max / NDV-sketch / null count for one column."""

    min_value: object = None
    max_value: object = None
    ndv_sketch: HyperLogLog = field(default_factory=HyperLogLog)
    null_count: int = 0

    @property
    def ndv(self) -> int:
        return self.ndv_sketch.cardinality()

    def merge(self, other: "ColumnStats") -> "ColumnStats":
        def _extreme(a, b, fn):
            if a is None:
                return b
            if b is None:
                return a
            return fn(a, b)

        return ColumnStats(
            min_value=_extreme(self.min_value, other.min_value, min),
            max_value=_extreme(self.max_value, other.max_value, max),
            ndv_sketch=self.ndv_sketch.merge(other.ndv_sketch),
            null_count=self.null_count + other.null_count,
        )


@dataclass
class TableStats:
    """Row count + per-column stats; merges additively."""

    row_count: int = 0
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def merge(self, other: "TableStats") -> "TableStats":
        cols: dict[str, ColumnStats] = {}
        for name in set(self.columns) | set(other.columns):
            a, b = self.columns.get(name), other.columns.get(name)
            cols[name] = a.merge(b) if a and b else (a or b)
        return TableStats(self.row_count + other.row_count, cols)

    def column(self, name: str) -> ColumnStats | None:
        return self.columns.get(name)


def _scalar(v):
    """Convert NumPy/pandas scalars to plain Python for JSON-safe storage."""
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, pd.Timestamp):
        return v.to_pydatetime()
    return v


def collect_stats(pdf: pd.DataFrame) -> TableStats:
    """Build :class:`TableStats` from a pandas frame (one file / partition)."""
    out = TableStats(row_count=len(pdf))
    for name in pdf.columns:
        s = pdf[name]
        non_null = s.dropna()
        cs = ColumnStats(null_count=int(s.isna().sum()))
        if len(non_null):
            cs.min_value = _scalar(non_null.min())
            cs.max_value = _scalar(non_null.max())
            cs.ndv_sketch = HyperLogLog.of(non_null.tolist())
        out.columns[name] = cs
    return out

"""Mini-Druid segments (§6, substrate).

Druid stores event data in *segments* partitioned by time interval. At
ingestion, rows are *rolled up*: grouped by (query-granularity-truncated
time, dimensions) with metrics pre-aggregated — that roll-up plus inverted
per-dimension value indexes is where Druid's interactive-OLAP speed comes
from, and is exactly what §7.3's federation experiment leans on.

A segment here is a pandas frame of rolled-up rows plus:

* the segment's half-open time interval (for interval pruning);
* inverted indexes: dimension value → row positions;
* an implicit ``__count`` metric counting ingested raw rows, so COUNT(*)
  over the raw data remains answerable after roll-up (standard Druid
  practice).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

__all__ = ["TIME_COL", "COUNT_METRIC", "MetricSpec", "Segment", "rollup"]

TIME_COL = "__time"
COUNT_METRIC = "__count"
# Druid aggregator type -> the pandas function that merges it
AGG_FUNCS = {"doubleSum": "sum", "longSum": "sum", "doubleMin": "min", "doubleMax": "max"}


@dataclass(frozen=True)
class MetricSpec:
    """Druid ingestion metric: ``{"type": "doubleSum", "name": "m1",
    "fieldName": "m1"}`` equivalent."""

    agg: str  # 'doubleSum' | 'longSum' | 'doubleMin' | 'doubleMax'
    name: str
    field: str

    def pandas_agg(self) -> str:
        return AGG_FUNCS[self.agg]


@dataclass
class Segment:
    start: pd.Timestamp
    end: pd.Timestamp  # half-open [start, end)
    data: pd.DataFrame  # rolled-up rows: __time, dims..., metrics..., __count
    dimensions: list[str]
    indexes: dict[str, dict[object, np.ndarray]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.indexes:
            for d in self.dimensions:
                self.indexes[d] = {
                    v: g.to_numpy() for v, g in self.data.groupby(d).groups.items()
                }

    def overlaps(self, start: pd.Timestamp | None, end: pd.Timestamp | None) -> bool:
        if start is not None and self.end <= start:
            return False
        if end is not None and self.start >= end:
            return False
        return True

    @property
    def n_rows(self) -> int:
        return len(self.data)


def truncate_time(ts: pd.Series, granularity: str) -> pd.Series:
    """Floor timestamps to ``granularity`` ('all': one granule)."""
    if granularity == "none":
        return ts
    if granularity == "all":
        return pd.Series(pd.Timestamp(0), index=ts.index)
    if granularity == "day":
        return ts.dt.floor("D")
    return ts.dt.to_period({"month": "M", "year": "Y"}[granularity]).dt.to_timestamp()


def rollup(
    pdf: pd.DataFrame,
    time_column: str,
    dimensions: list[str],
    metrics: list[MetricSpec],
    query_granularity: str = "day",
) -> pd.DataFrame:
    """Ingestion-time roll-up: one row per (time granule, dimension combo)."""
    out = pdf.copy()
    out[TIME_COL] = truncate_time(pd.to_datetime(out[time_column]), query_granularity)
    agg_spec: dict[str, tuple[str, str]] = {
        m.name: (m.field, m.pandas_agg()) for m in metrics
    }
    agg_spec[COUNT_METRIC] = (TIME_COL, "size")
    grouped = out.groupby([TIME_COL] + list(dimensions), as_index=False, sort=True).agg(
        **{name: spec for name, spec in agg_spec.items()}
    )
    return grouped

"""Mini-Druid query engine: JSON queries over segments (§6.2, Figure 6).

Supported query types (the subset Hive's Calcite adapter generates for
SPJA pushdown):

* ``groupBy`` — dimensions + aggregations (+ ``limitSpec``);
* ``timeseries`` — aggregations without dimensions;
* ``scan`` — raw rolled-up rows.

Query execution mirrors a real Druid broker/historical split: ``intervals``
prune whole segments; per segment, ``filter`` specs evaluate through the
inverted dimension indexes (selector/in) or vectorized masks (bound), and
partial aggregates are merged across segments.

Aggregation types: ``doubleSum``/``longSum``/``doubleMin``/``doubleMax``
over pre-aggregated metric columns, and ``count`` which — as in real
rolled-up Druid — must be expressed as a ``longSum`` over the ingestion
count metric to count *raw* rows.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.druid.datasource import DruidDatasource
from repro.druid.segment import AGG_FUNCS, COUNT_METRIC, TIME_COL, truncate_time

__all__ = ["execute_query", "DruidQueryError"]


class DruidQueryError(ValueError):
    pass


# -- filters ---------------------------------------------------------------


def _filter_mask(seg, spec) -> np.ndarray:
    n = seg.n_rows
    if spec is None:
        return np.ones(n, dtype=bool)
    t = spec["type"]
    if t == "selector":
        dim = spec["dimension"]
        if dim in seg.indexes:
            mask = np.zeros(n, dtype=bool)
            rows = seg.indexes[dim].get(spec["value"])
            if rows is not None:
                mask[rows] = True
            return mask
        return (seg.data[dim] == spec["value"]).to_numpy()
    if t == "in":
        dim = spec["dimension"]
        if dim in seg.indexes:
            mask = np.zeros(n, dtype=bool)
            for v in spec["values"]:
                rows = seg.indexes[dim].get(v)
                if rows is not None:
                    mask[rows] = True
            return mask
        return seg.data[dim].isin(spec["values"]).to_numpy()
    if t == "bound":
        col = seg.data[spec["dimension"]]
        mask = np.ones(n, dtype=bool)
        if (lo := spec.get("lower")) is not None:
            mask &= (col > lo).to_numpy() if spec.get("lowerStrict") else (col >= lo).to_numpy()
        if (hi := spec.get("upper")) is not None:
            mask &= (col < hi).to_numpy() if spec.get("upperStrict") else (col <= hi).to_numpy()
        return mask
    if t == "and":
        out = np.ones(n, dtype=bool)
        for f in spec["fields"]:
            out &= _filter_mask(seg, f)
        return out
    if t == "or":
        out = np.zeros(n, dtype=bool)
        for f in spec["fields"]:
            out |= _filter_mask(seg, f)
        return out
    if t == "not":
        return ~_filter_mask(seg, spec["field"])
    raise DruidQueryError(f"unknown filter type {t!r}")


# -- aggregations ----------------------------------------------------------

def _agg_spec(aggregations) -> dict[str, tuple[str, str]]:
    out = {}
    for a in aggregations:
        t = a["type"]
        if t == "count":
            # over rolled-up rows, counting raw rows = summing __count
            out[a["name"]] = (COUNT_METRIC, "sum")
        elif t in AGG_FUNCS:
            out[a["name"]] = (a["fieldName"], AGG_FUNCS[t])
        else:
            raise DruidQueryError(f"unknown aggregation type {t!r}")
    return out


def _parse_intervals(intervals):
    out = []
    for iv in intervals or []:
        s, e = iv.split("/")
        out.append((pd.Timestamp(s), pd.Timestamp(e)))
    return out


# -- execution -------------------------------------------------------------


def execute_query(ds: DruidDatasource, query: dict) -> pd.DataFrame:
    """Run a JSON query against a datasource; returns a pandas frame."""
    qtype = query.get("queryType")
    if qtype not in ("groupBy", "timeseries", "scan"):
        raise DruidQueryError(f"unsupported queryType {qtype!r}")

    intervals = _parse_intervals(query.get("intervals"))
    segments = ds.segments
    if intervals:
        segments = [
            s for s in segments if any(s.overlaps(a, b) for a, b in intervals)
        ]

    parts = []
    for seg in segments:
        mask = _filter_mask(seg, query.get("filter"))
        if intervals:
            tmask = np.zeros(seg.n_rows, dtype=bool)
            tcol = seg.data[TIME_COL]
            for a, b in intervals:
                tmask |= ((tcol >= a) & (tcol < b)).to_numpy()
            mask &= tmask
        if mask.any():
            parts.append(seg.data[mask])
    if qtype == "scan":
        cols = query.get("columns")
        if not parts:
            base = ds.segments[0].data if ds.segments else pd.DataFrame()
            empty = base.iloc[0:0]
            return empty[cols] if cols else empty
        out = pd.concat(parts, ignore_index=True)
        return out[cols] if cols else out

    # groupBy / timeseries: merge partial aggregates across segments
    dims: list[str] = list(query.get("dimensions", [])) if qtype == "groupBy" else []
    if qtype == "groupBy" and "dimension" in query:  # Figure 6 uses singular
        dims = [query["dimension"]]
    granularity = query.get("granularity", "all")
    spec = _agg_spec(query.get("aggregations", []))

    if not parts:
        cols = ([TIME_COL] if granularity != "all" else []) + dims + list(spec)
        return pd.DataFrame(columns=cols)

    data = pd.concat(parts, ignore_index=True)
    keys = list(dims)
    if granularity != "all":
        data = data.assign(**{TIME_COL: truncate_time(data[TIME_COL], granularity)})
        keys = [TIME_COL] + keys

    named = {name: pd.NamedAgg(column=c, aggfunc=f) for name, (c, f) in spec.items()}
    if keys:
        out = data.groupby(keys, as_index=False, sort=True).agg(**named)
    else:
        row = {name: getattr(data[c], f)() for name, (c, f) in spec.items()}
        out = pd.DataFrame([row])

    limit_spec = query.get("limitSpec")
    if limit_spec:
        cols = limit_spec.get("columns", [])
        if cols:
            out = out.sort_values(
                [c["dimension"] for c in cols],
                ascending=[c.get("direction", "ascending") == "ascending" for c in cols],
            )
        if (n := limit_spec.get("limit")) is not None:
            out = out.head(n)
    return out.reset_index(drop=True)

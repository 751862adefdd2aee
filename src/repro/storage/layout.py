"""Physical layout of ACID tables on the (local) file system (§3.1–3.2).

Mirrors Hive's directory scheme::

    warehouse/<table>/[<col>=<val>/...]/base_<w>/bucket_<fileid>.parquet
                                        delta_<wmin>_<wmax>/bucket_<fileid>.parquet
                                        delete_delta_<wmin>_<wmax>/bucket_<fileid>.parquet

Data files are written with physical row groups of ``row_group_rows`` rows,
and their Parquet footers are the one source of row-group metadata (row
counts and min/max per column) — the Parquet-world equivalent of ORC's
row-group indexes, which the LLAP I/O elevator pushes predicates into.
pyarrow cannot write Parquet Bloom filters, so tables with
``bloom.filter.columns`` also get a ``bucket_<fileid>.meta.json`` sidecar
holding only the per-row-group Bloom filters. This module is the only one
that knows the file format: writer and compactor go through
:func:`write_data_file`, the LLAP metadata cache through
:func:`read_file_meta`.

It is also the one home of snapshot selection. :func:`select_dirs` decides
which directories a :class:`~repro.metastore.txn.ValidWriteIdList` reads —
the snapshot reader, the LLAP daemon and the compactor all call it — and
:func:`visible_rows` is the one pandas merge-on-read (the Spark reader's
lazy filter and anti-join are its engine-side twin).

Hidden columns stored in every ACID data file: ``__writeid``, ``__fileid``,
``__rowid`` — their combination uniquely identifies a record (§3.2). Delete
deltas store tombstones referencing that triple. Partition column values are
additionally materialized *inside* the files (Hive keeps them only in the
directory name; storing them inline lets one ``spark.read.parquet`` over a
mixed file list retain them without relying on Spark partition discovery over
Hive's non-``k=v`` base/delta directory levels).
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from repro.bloom import BloomFilter
from repro.metastore import Table, ValidWriteIdList

__all__ = [
    "WRITEID_COL",
    "FILEID_COL",
    "ROWID_COL",
    "HIDDEN_COLS",
    "DELETE_COLS",
    "DirKind",
    "AcidDir",
    "partition_key",
    "partition_values_from_key",
    "base_dir",
    "delta_dir",
    "delete_delta_dir",
    "bucket_file",
    "parse_acid_dir",
    "list_acid_dirs",
    "select_dirs",
    "RowGroupMeta",
    "FileMeta",
    "bloom_columns",
    "write_data_file",
    "read_file_meta",
    "visible_rows",
]

WRITEID_COL = "__writeid"
FILEID_COL = "__fileid"
ROWID_COL = "__rowid"
HIDDEN_COLS = (WRITEID_COL, FILEID_COL, ROWID_COL)
# tombstone columns in delete_delta files: the target triple
DELETE_COLS = ("__orig_writeid", "__orig_fileid", "__orig_rowid")

_DIR_RE = re.compile(r"^(base)_(\d+)$|^(delta|delete_delta)_(\d+)_(\d+)$")


class DirKind:
    BASE = "base"
    DELTA = "delta"
    DELETE_DELTA = "delete_delta"


@dataclass(frozen=True)
class AcidDir:
    """A parsed base/delta directory with its WriteId range."""

    path: Path
    kind: str
    wmin: int
    wmax: int  # == wmin for single-write deltas; base covers (0, wmax]


def partition_key(part_cols: list[str], values: tuple) -> str:
    """``['p','q'], (1,'x')`` → ``'p=1/q=x'`` (empty string if unpartitioned)."""
    return "/".join(f"{c}={v}" for c, v in zip(part_cols, values))


def partition_values_from_key(key: str) -> dict[str, str]:
    if not key:
        return {}
    return dict(seg.split("=", 1) for seg in key.split("/"))


def base_dir(w: int) -> str:
    return f"base_{w:07d}"


def delta_dir(wmin: int, wmax: int) -> str:
    return f"delta_{wmin:07d}_{wmax:07d}"


def delete_delta_dir(wmin: int, wmax: int) -> str:
    return f"delete_delta_{wmin:07d}_{wmax:07d}"


def bucket_file(fileid: int) -> str:
    return f"bucket_{fileid:05d}.parquet"


def parse_acid_dir(name: str) -> tuple[str, int, int] | None:
    """``'delta_0000002_0000004'`` → ``('delta', 2, 4)``; None if not ACID."""
    m = _DIR_RE.match(name)
    if not m:
        return None
    if m.group(1):  # base_N
        return (DirKind.BASE, 0, int(m.group(2)))
    return (m.group(3), int(m.group(4)), int(m.group(5)))


def list_acid_dirs(partition_path: Path) -> list[AcidDir]:
    """All base/delta dirs directly under a partition (or table) directory."""
    out = []
    if not partition_path.exists():
        return out
    for child in sorted(partition_path.iterdir()):
        if not child.is_dir():
            continue
        parsed = parse_acid_dir(child.name)
        if parsed:
            kind, wmin, wmax = parsed
            out.append(AcidDir(child, kind, wmin, wmax))
    return out


def select_dirs(
    dirs: list[AcidDir], wids: ValidWriteIdList
) -> tuple[list[AcidDir], list[AcidDir]]:
    """The (data_dirs, delete_dirs) a snapshot reads out of one partition.

    The newest valid base at or below the high watermark (an INSERT
    OVERWRITE's base is invalid while its writer is open or aborted), then
    per kind the deltas in ``(wmin, -wmax)`` order, skipping — as Hive's
    ``AcidUtils.getAcidState`` does — every delta whose ``wmax`` the base or
    a wider delta already kept covers. Compaction leaves its inputs beside
    its output until cleaning, so this is what makes every row read once
    in between. Deltas wholly in the future, and single-write directories
    whose WriteId is open or aborted, are skipped too (the directory-level
    skip); multi-write directories are filtered per row by the caller.
    """
    hwm = wids.high_watermark
    bases = [d for d in dirs if d.kind == DirKind.BASE and wids.is_valid(d.wmax)]
    base = max(bases, key=lambda d: d.wmax, default=None)
    data, deletes = ([base] if base else []), []
    for kind, out in ((DirKind.DELTA, data), (DirKind.DELETE_DELTA, deletes)):
        covered = base.wmax if base else 0
        for d in sorted(
            (d for d in dirs if d.kind == kind), key=lambda d: (d.wmin, -d.wmax)
        ):
            if d.wmax <= covered or d.wmin > hwm:
                continue
            if d.wmin == d.wmax and not wids.is_valid(d.wmin):
                continue
            out.append(d)
            covered = d.wmax
    return data, deletes


# -- row-group metadata: Parquet footer + Bloom sidecar (ORC-index equivalent)


@dataclass
class RowGroupMeta:
    start: int
    n_rows: int
    min_max: dict[str, tuple]  # col -> (min, max) from the Parquet footer
    blooms: dict[str, BloomFilter]
    null_count: dict[str, int]  # col -> NULLs in the group, from the footer


@dataclass
class FileMeta:
    n_rows: int
    row_groups: list[RowGroupMeta]


def bloom_columns(table) -> tuple[str, ...]:
    """Columns named in the table's ``bloom.filter.columns`` property."""
    raw = table.properties.get("bloom.filter.columns", "")
    return tuple(c.strip() for c in raw.split(",") if c.strip())


def _sidecar(data_file: Path) -> Path:
    return data_file.with_suffix(".meta.json")


# the Arrow type each catalog type is stored as (what the reader's Spark
# schema names)
_ARROW_TYPES = {
    "int": pa.int32(),
    "bigint": pa.int64(),
    "float": pa.float32(),
    "double": pa.float64(),
    "string": pa.string(),
    "date": pa.date32(),
    "timestamp": pa.timestamp("ns"),
    "boolean": pa.bool_(),
}


def write_data_file(
    data_file: Path,
    pdf: pd.DataFrame,
    row_group_rows: int = 10_000,
    bloom_cols: tuple[str, ...] = (),
    table: Table | None = None,
) -> None:
    """Write one ACID data file with physical row groups of ``row_group_rows``.

    The Parquet footer carries each row group's row count and min/max for
    every column. pyarrow cannot write Parquet Bloom filters, so those
    configured in ``bloom_cols`` (``orc.bloom.filter.columns``-style) go to
    a sidecar, one entry per row group; without them no sidecar is written.
    Columns of ``table`` are written with their declared types, whatever
    pandas holds them in (an ``int32`` frame of a ``bigint`` column, counts
    merged in a float frame, a string column of nulls only): Spark refuses
    a file whose type differs from the one its schema names.
    """
    data_file.parent.mkdir(parents=True, exist_ok=True)
    declared = {c.name: _ARROW_TYPES.get(c.dtype) for c in table.columns} if table else {}
    schema = pa.Schema.from_pandas(pdf, preserve_index=False)
    # microsecond timestamps: Spark's Parquet reader rejects NANOS
    pdf.to_parquet(
        data_file,
        index=False,
        schema=pa.schema([f.with_type(declared.get(f.name) or f.type) for f in schema]),
        row_group_size=row_group_rows,
        coerce_timestamps="us",
        allow_truncated_timestamps=True,
    )
    cols = [c for c in bloom_cols if c in pdf.columns]
    if not cols:
        return
    groups = [
        {
            c: BloomFilter.of(
                pdf[c].iloc[start : start + row_group_rows].dropna().unique().tolist()
            ).to_b64()
            for c in cols
        }
        # an empty frame is still written as one (empty) row group
        for start in range(0, max(1, len(pdf)), row_group_rows)
    ]
    _sidecar(data_file).write_text(json.dumps(groups))


def read_file_meta(data_file: Path) -> FileMeta:
    """Row groups of ``data_file``: offsets, row counts, min/max and NULL
    counts from its Parquet footer, plus the sidecar's Bloom filters where
    there is one."""
    footer = pq.read_metadata(data_file)
    side = _sidecar(data_file)
    n_groups = footer.num_row_groups
    blooms = json.loads(side.read_text()) if side.exists() else [{}] * n_groups
    groups, start = [], 0
    for i in range(n_groups):
        rg = footer.row_group(i)
        min_max, null_count = {}, {}
        for j in range(rg.num_columns):
            column = rg.column(j)
            st = column.statistics
            if st is not None and st.has_min_max:
                min_max[column.path_in_schema] = (st.min, st.max)
            if st is not None and st.has_null_count:
                null_count[column.path_in_schema] = st.null_count
        groups.append(
            RowGroupMeta(
                start,
                rg.num_rows,
                min_max,
                {c: BloomFilter.from_b64(b) for c, b in blooms[i].items()},
                null_count,
            )
        )
        start += rg.num_rows
    return FileMeta(footer.num_rows, groups)


def visible_rows(
    rows: pd.DataFrame,
    tombs: pd.DataFrame | None,
    wids: ValidWriteIdList,
    since: ValidWriteIdList | None = None,
) -> pd.DataFrame:
    """Merge-on-read in pandas: keep the rows whose WriteId ``wids`` sees
    (and, for an incremental MV rebuild, that the view's stored list
    ``since`` does not), then anti-join them against the tombstones of
    valid deleters on the identity triple."""
    keep = wids.valid_mask(rows[WRITEID_COL])
    if since is not None:
        keep &= ~since.valid_mask(rows[WRITEID_COL])
    rows = rows[keep]
    if tombs is None or tombs.empty:
        return rows
    t = tombs[wids.valid_mask(tombs[WRITEID_COL])][list(DELETE_COLS)]
    t = t.rename(columns=dict(zip(DELETE_COLS, HIDDEN_COLS))).drop_duplicates()
    rows = rows.merge(t, on=list(HIDDEN_COLS), how="left", indicator=True)
    return rows[rows["_merge"] == "left_only"].drop(columns="_merge")

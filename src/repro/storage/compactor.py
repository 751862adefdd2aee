"""Compaction: merging delta files to keep read amplification bounded (§3.2).

*Minor* compaction merges delta directories with other delta directories
(insert deltas together, delete deltas together); *major* compaction merges
everything into a new ``base`` directory, applying tombstones and dropping
aborted rows — "deleting history". Compaction never blocks queries: the
merge phase writes new directories beside the old ones, and the *cleaning*
phase (a separate call) removes the superseded directories afterwards, so
in-flight scans pinned to the old file lists finish untouched. Between the
two phases, readers — and any further compaction — see only the current
directories: :func:`~repro.storage.layout.select_dirs` skips every
directory that a base or a wider delta covers.

The compactor reads exactly what a snapshot of the table sees when it is
capped one below the table's oldest open WriteId, so an uncommitted write
can never be baked into a base or a merged delta.
"""
from __future__ import annotations

import shutil
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path

import pandas as pd
import pyarrow.parquet as pq

from repro.metastore import HiveMetastore, ValidWriteIdList
from repro.storage.layout import (
    AcidDir,
    DirKind,
    base_dir,
    bloom_columns,
    bucket_file,
    delete_delta_dir,
    delta_dir,
    list_acid_dirs,
    parse_acid_dir,
    select_dirs,
    visible_rows,
    write_data_file,
)

__all__ = ["Compactor", "CompactionDecision"]


@dataclass
class CompactionDecision:
    table: str
    partition: str
    kind: str  # 'minor' | 'major' | None
    reason: str = ""


_ALL_KINDS = (DirKind.BASE, DirKind.DELTA, DirKind.DELETE_DELTA)


def _files(dirs: list[AcidDir]) -> list[Path]:
    return [f for d in dirs for f in sorted(d.path.glob("*.parquet"))]


def _read(dirs: list[AcidDir]) -> pd.DataFrame | None:
    frames = [pd.read_parquet(f) for f in _files(dirs)]
    return pd.concat(frames, ignore_index=True) if frames else None


def _num_rows(dirs: list[AcidDir]) -> int:
    """Row count from the Parquet footers, without reading the data."""
    return sum(pq.read_metadata(f).num_rows for f in _files(dirs))


@dataclass
class Compactor:
    hms: HiveMetastore
    warehouse: Path
    row_group_rows: int = 10_000
    # auto-trigger thresholds (HS2 triggers compaction when surpassed)
    minor_delta_threshold: int = 10
    major_delta_ratio: float = 0.1
    _obsolete: list[Path] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)  # MV rebuilds supersede too

    def __post_init__(self) -> None:
        self.warehouse = Path(self.warehouse)

    # -- helpers ----------------------------------------------------------

    def _select(
        self, table: str, partition: str
    ) -> tuple[Path, ValidWriteIdList, list[AcidDir], list[AcidDir]]:
        """The partition's path, the compaction snapshot (capped below the
        oldest open writer) and the (data_dirs, delete_dirs) it reads."""
        txns = self.hms.txns
        wids = txns.valid_write_ids(txns.snapshot(), table)
        open_wids = txns.open_write_ids(table)
        if open_wids:
            wids = replace(wids, high_watermark=min(open_wids) - 1)
        path = self.warehouse / table / partition if partition else self.warehouse / table
        return (path, wids, *select_dirs(list_acid_dirs(path), wids))

    def _merge(
        self,
        out: Path,
        rows: pd.DataFrame | None,
        tombs: pd.DataFrame | None,
        wids: ValidWriteIdList,
        table: str,
        kinds: tuple[str, ...],
    ) -> None:
        """Write the rows ``wids`` sees, minus ``tombs``, to ``out``; mark
        obsolete every other directory of ``kinds`` that ``out``'s WriteId
        range covers."""
        if rows is not None:
            t = self.hms.get_table(table)
            write_data_file(
                out / bucket_file(0),
                visible_rows(rows, tombs, wids),
                self.row_group_rows,
                bloom_columns(t),
                t,
            )
        self.supersede(out, kinds)

    def supersede(self, out: Path, kinds: tuple[str, ...] = _ALL_KINDS) -> None:
        """Leave for :meth:`clean` every other directory of ``kinds`` beside
        ``out`` whose WriteId range ``out``'s covers."""
        _, wmin, wmax = parse_acid_dir(out.name)
        covered = [
            d.path
            for d in list_acid_dirs(out.parent)
            if d.kind in kinds and wmin <= d.wmin and d.wmax <= wmax and d.path != out
        ]
        with self._lock:
            self._obsolete += covered

    # -- compaction --------------------------------------------------------

    def minor_compact(self, table: str, partition: str = "") -> bool:
        """Merge the snapshot's insert deltas into one delta (and its delete
        deltas into one delete delta), preserving every row's identity
        triple so existing tombstones keep matching. Returns True if
        anything merged."""
        path, wids, data, deletes = self._select(table, partition)
        merged_any = False
        for kind, dirs, make_dir in (
            (DirKind.DELTA, [d for d in data if d.kind == DirKind.DELTA], delta_dir),
            (DirKind.DELETE_DELTA, deletes, delete_delta_dir),
        ):
            if len(dirs) < 2:
                continue
            # select_dirs orders them by wmin and keeps wmax increasing
            out = path / make_dir(dirs[0].wmin, dirs[-1].wmax)
            self._merge(out, _read(dirs), None, wids, table, (kind,))
            merged_any = True
        return merged_any

    def major_compact(self, table: str, partition: str = "") -> bool:
        """Merge base + deltas − delete-deltas into ``base_<wmax>``.

        Aborted and deleted history disappears, shrinking every future
        snapshot's invalid-WriteId set — the paper's reason (iii)."""
        path, wids, data, deletes = self._select(table, partition)
        if all(d.kind == DirKind.BASE for d in data + deletes):
            return False  # nothing beyond the current base
        out = path / base_dir(max(d.wmax for d in data + deletes))
        self._merge(out, _read(data), _read(deletes), wids, table, _ALL_KINDS)
        return True

    # -- cleaning (separate phase so in-flight queries finish, §3.2) ------

    def clean(self) -> int:
        """Remove superseded directories; returns how many were removed.
        Directories superseded meanwhile are left for the next call."""
        with self._lock:
            obsolete, self._obsolete = self._obsolete, []
        n = 0
        for p in obsolete:
            if p.exists():
                shutil.rmtree(p)
                n += 1
        return n

    # -- automatic triggering ---------------------------------------------

    def maybe_compact(self, table: str) -> list[CompactionDecision]:
        """HS2-style threshold check per partition over the directories the
        compaction snapshot reads: many deltas → minor; large delta:base row
        ratio → major. Executes what it decides."""
        t = self.hms.get_table(table)
        partitions = self.hms.partitions(table) if t.partitioned_by else [""]
        out = []
        for part in partitions:
            _, _, data, _ = self._select(table, part)
            deltas = [d for d in data if d.kind == DirKind.DELTA]
            base_rows = _num_rows([d for d in data if d.kind == DirKind.BASE])
            if base_rows and _num_rows(deltas) / base_rows > self.major_delta_ratio:
                self.major_compact(table, part)
                out.append(CompactionDecision(table, part, "major", "delta/base ratio"))
            elif len(deltas) >= self.minor_delta_threshold:
                self.minor_compact(table, part)
                out.append(CompactionDecision(table, part, "minor", "delta count"))
            else:
                out.append(CompactionDecision(table, part, None, "below thresholds"))
        return out

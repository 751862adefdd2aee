"""Compaction: merging delta files to keep read amplification bounded (§3.2).

*Minor* compaction merges delta directories with other delta directories
(insert deltas together, delete deltas together); *major* compaction merges
everything into a new ``base`` directory, applying tombstones and dropping
aborted rows — "deleting history". Compaction never blocks queries: the
merge phase writes new directories beside the old ones, and the *cleaning*
phase (a separate call) removes the superseded directories afterwards, so
in-flight scans pinned to the old file lists finish untouched.

Only WriteIds below the smallest still-open WriteId for the table are
compacted, so an uncommitted write can never be baked into a base.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import pandas as pd

from repro.metastore import HiveMetastore
from repro.storage.layout import (
    DirKind,
    WRITEID_COL,
    base_dir,
    bloom_columns,
    bucket_file,
    delete_delta_dir,
    delta_dir,
    drop_deleted,
    list_acid_dirs,
    write_data_file,
)

__all__ = ["Compactor", "CompactionDecision"]


@dataclass
class CompactionDecision:
    table: str
    partition: str
    kind: str  # 'minor' | 'major' | None
    reason: str = ""


@dataclass
class Compactor:
    hms: HiveMetastore
    warehouse: Path
    row_group_rows: int = 10_000
    # auto-trigger thresholds (HS2 triggers compaction when surpassed)
    minor_delta_threshold: int = 10
    major_delta_ratio: float = 0.1
    _obsolete: list[Path] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.warehouse = Path(self.warehouse)

    # -- helpers ----------------------------------------------------------

    def _part_path(self, table: str, partition: str) -> Path:
        return self.warehouse / table / partition if partition else self.warehouse / table

    def _compaction_ceiling(self, table: str) -> int:
        """Highest WriteId safe to compact: below any open writer."""
        open_wids = self.hms.txns.open_write_ids(table)
        hwm = self.hms.txns.valid_write_ids(
            self.hms.txns.snapshot(), table
        ).high_watermark
        return min(open_wids) - 1 if open_wids else hwm

    def _valid_rows(self, dirs, table: str, ceiling: int) -> pd.DataFrame | None:
        """Concatenate committed rows (drop aborted) from eligible dirs."""
        wids = self.hms.txns.valid_write_ids(self.hms.txns.snapshot(), table)
        frames = []
        for d in dirs:
            for f in sorted(d.path.glob("*.parquet")):
                pdf = pd.read_parquet(f)
                w = pdf[WRITEID_COL]
                pdf = pdf[wids.valid_mask(w) & (w <= ceiling)]
                if len(pdf):
                    frames.append(pdf)
        if not frames:
            return None
        return pd.concat(frames, ignore_index=True)

    def _write_dir(self, dir_path: Path, pdf: pd.DataFrame, table: str) -> None:
        write_data_file(
            dir_path / bucket_file(0),
            pdf,
            self.row_group_rows,
            bloom_columns(self.hms.get_table(table)),
        )

    # -- compaction --------------------------------------------------------

    def minor_compact(self, table: str, partition: str = "") -> bool:
        """Merge eligible insert deltas into one delta (and delete deltas
        into one delete delta), preserving every row's identity triple so
        existing tombstones keep matching. Returns True if anything merged."""
        path = self._part_path(table, partition)
        ceiling = self._compaction_ceiling(table)
        dirs = list_acid_dirs(path)
        merged_any = False
        for kind, make_dir in (
            (DirKind.DELTA, delta_dir),
            (DirKind.DELETE_DELTA, delete_delta_dir),
        ):
            eligible = [d for d in dirs if d.kind == kind and d.wmax <= ceiling]
            if len(eligible) < 2:
                continue
            rows = self._valid_rows(eligible, table, ceiling)
            wmin = min(d.wmin for d in eligible)
            wmax = max(d.wmax for d in eligible)
            if rows is not None:
                self._write_dir(path / make_dir(wmin, wmax), rows, table)
            self._obsolete += [d.path for d in eligible]
            merged_any = True
        return merged_any

    def major_compact(self, table: str, partition: str = "") -> bool:
        """Merge base + deltas − delete-deltas into ``base_<wmax>``.

        Aborted and deleted history disappears, shrinking every future
        snapshot's invalid-WriteId set — the paper's reason (iii)."""
        path = self._part_path(table, partition)
        ceiling = self._compaction_ceiling(table)
        dirs = list_acid_dirs(path)
        data_dirs = [
            d
            for d in dirs
            if d.kind in (DirKind.BASE, DirKind.DELTA) and d.wmax <= ceiling
        ]
        delete_dirs = [
            d for d in dirs if d.kind == DirKind.DELETE_DELTA and d.wmax <= ceiling
        ]
        if not data_dirs:
            return False
        rows = self._valid_rows(data_dirs, table, ceiling)
        wmax = max(d.wmax for d in data_dirs + delete_dirs)
        if rows is not None:
            tombs = self._valid_rows(delete_dirs, table, ceiling)
            if tombs is not None:
                rows = drop_deleted(rows, tombs)
            self._write_dir(path / base_dir(wmax), rows, table)
        self._obsolete += [d.path for d in data_dirs + delete_dirs]
        return True

    # -- cleaning (separate phase so in-flight queries finish, §3.2) ------

    def clean(self) -> int:
        """Remove superseded directories; returns how many were removed."""
        import shutil

        n = 0
        for p in self._obsolete:
            if p.exists():
                shutil.rmtree(p)
                n += 1
        self._obsolete.clear()
        return n

    # -- automatic triggering ---------------------------------------------

    def maybe_compact(self, table: str) -> list[CompactionDecision]:
        """HS2-style threshold check per partition: many deltas → minor;
        large delta:base row ratio → major. Executes what it decides."""
        t = self.hms.get_table(table)
        partitions = self.hms.partitions(table) if t.partitioned_by else [""]
        out = []
        for part in partitions:
            path = self._part_path(table, part)
            dirs = list_acid_dirs(path)
            deltas = [d for d in dirs if d.kind == DirKind.DELTA]
            bases = [d for d in dirs if d.kind == DirKind.BASE]
            delta_rows = sum(
                sum(pd.read_parquet(f).shape[0] for f in d.path.glob("*.parquet"))
                for d in deltas
            )
            base_rows = sum(
                sum(pd.read_parquet(f).shape[0] for f in d.path.glob("*.parquet"))
                for d in bases
            )
            if bases and base_rows and delta_rows / base_rows > self.major_delta_ratio:
                self.major_compact(table, part)
                out.append(CompactionDecision(table, part, "major", "delta/base ratio"))
            elif len(deltas) >= self.minor_delta_threshold:
                self.minor_compact(table, part)
                out.append(CompactionDecision(table, part, "minor", "delta count"))
            else:
                out.append(CompactionDecision(table, part, None, "below thresholds"))
        return out

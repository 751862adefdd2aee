"""LLAP daemon (§5.1): persistent executors + cache-backed table scans.

A daemon bundles the I/O elevator, the chunk/metadata cache, and a bounded
pool of ``N_EXECUTORS`` *executors* that run query fragments in parallel.
Daemons are stateless with respect to data: everything they hold is a
cache over the ACID files, so any daemon could serve any fragment after a
failure.

``scan_table`` is the LLAP scan used by the HS2 execution context: it
resolves the snapshot's visible files exactly like the container-mode
reader, but reads them through the elevator (row-group skipping, the
pushed and runtime row filters, cache) and merges them in pandas
(:func:`~repro.storage.layout.visible_rows`) — small delete deltas are
merged in memory, the paper's observation about the anti-join side staying
tiny. When a query's aggregate sits on a filtered scan, or on an inner
equi-join of filtered scans one of which is small (a map join), the
execution context runs the whole fragment here — scans, filters, the
pandas hash join and the map-side group-by
(:func:`~repro.core.expr.aggregate`) — and hands Spark only the groups.

Container-vs-LLAP modelling: a daemon is always warm. Container mode pays
``container_startup_s`` per query for YARN container allocation (slept in
``core.hs2``) and reads files cold (no caches). The startup constant is a
documented calibration knob (EXPERIMENTS.md), not a measurement of this
machine.
"""
from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import pandas as pd

from repro.core.expr import Expr
from repro.llap.cache import LlapCache
from repro.llap.elevator import IOElevator
from repro.metastore import HiveMetastore, ValidWriteIdList
from repro.storage import AcidReader
from repro.storage.layout import HIDDEN_COLS, visible_rows

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.semijoin import RuntimeFilter

__all__ = ["LlapDaemon"]

N_EXECUTORS = 4


@dataclass
class LlapDaemon:
    hms: HiveMetastore
    warehouse: str
    cache: LlapCache = field(default_factory=LlapCache)

    def __post_init__(self) -> None:
        self.elevator = IOElevator(self.cache)
        self._pool = ThreadPoolExecutor(
            max_workers=N_EXECUTORS, thread_name_prefix="llap-exec"
        )
        # AcidReader is reused only for visible-file resolution (no Spark)
        self._reader = AcidReader(self.hms, self.warehouse, spark=None)

    # -- query fragment execution -----------------------------------------

    def submit_fragment(self, fn, *args, **kwargs) -> Future:
        """Run a query fragment on one of the daemon's executors."""
        return self._pool.submit(fn, *args, **kwargs)

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)

    # -- the LLAP scan path -------------------------------------------------

    def scan_table(
        self,
        table: str,
        wids: ValidWriteIdList | None = None,
        partitions: list[str] | None = None,
        columns: list[str] | None = None,
        pushed_filters: list[Expr] | None = None,
        runtime_filters: tuple[RuntimeFilter, ...] = (),
        since: ValidWriteIdList | None = None,
    ) -> pd.DataFrame:
        """Snapshot-consistent scan through cache + elevator → pandas batch.

        ``wids=None`` takes a fresh snapshot (standalone callers). ``since``
        keeps only rows that list does not see — the new data of an
        incremental MV rebuild (§4.4)."""
        if wids is None:
            wids = self.hms.txns.valid_write_ids(self.hms.txns.snapshot(), table)
        data_files, delete_files = self._reader.visible_files(table, wids, partitions)

        t = self.hms.get_table(table)
        out_cols = columns or t.column_names()
        read_cols = list(dict.fromkeys(list(out_cols) + list(HIDDEN_COLS)))

        frames = []
        futures = [
            self.submit_fragment(
                self.elevator.read_file,
                f,
                read_cols,
                pushed_filters,
                runtime_filters,
            )
            for f in data_files
        ]
        for fut in futures:
            pdf = fut.result()
            if pdf is not None and len(pdf):
                frames.append(pdf)
        if not frames:
            return pd.DataFrame(columns=out_cols)
        data = pd.concat(frames, ignore_index=True)
        # delete deltas are small: apply them in memory
        tombs = (
            pd.concat([pd.read_parquet(f) for f in delete_files], ignore_index=True)
            if delete_files
            else None
        )
        data = visible_rows(data, tombs, wids, since)
        return data[list(out_cols)].reset_index(drop=True)

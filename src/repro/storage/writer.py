"""ACID writer: INSERT / DELETE / UPDATE producing base-delta layout (§3.2).

Every write allocates one ``WriteId`` per (transaction, table) and lands in
``delta_<w>_<w>`` (inserts), ``delete_delta_<w>_<w>`` (tombstones pointing
at ``(writeid, fileid, rowid)`` triples) or, for INSERT OVERWRITE,
``base_<w>``. UPDATE is split into DELETE +
INSERT under the same transaction — hence the same WriteId — exactly as the
paper describes. Writes also feed the additive statistics in HMS so the
cost-based optimizer never needs a rescan.

Writes materialize through pandas/pyarrow rather than Spark's writer because
ACID file naming (``bucket_<fileid>``, WriteId-ranged directories) and the
physical row-group size must be exact; every file goes through
:func:`repro.storage.layout.write_data_file`, the same helper the compactor
uses. Reads — the hot path — go through Spark (:mod:`repro.storage.reader`)
or the LLAP elevator.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pandas as pd

from repro.metastore import HiveMetastore, Table, collect_stats
from repro.storage.layout import (
    DELETE_COLS,
    FILEID_COL,
    HIDDEN_COLS,
    ROWID_COL,
    WRITEID_COL,
    base_dir,
    bloom_columns,
    bucket_file,
    delete_delta_dir,
    delta_dir,
    partition_key,
    write_data_file,
)

__all__ = ["AcidWriter"]

# the pandas dtype each numeric catalog type is held in before writing, so
# statistics and LLAP reads see the declared type
_WRITE_DTYPES = {"int": "int32", "bigint": "int64", "float": "float32", "double": "float64"}


def _as_declared(pdf: pd.DataFrame, table: Table) -> pd.DataFrame:
    """``pdf`` with each numeric column of another dtype than its declared
    type's cast to it (say, an ``int32`` column declared ``bigint``, or a
    count merged into a float frame). An integer column with nulls gets
    the nullable dtype."""
    casts = {}
    for c in table.columns:
        want = _WRITE_DTYPES.get(c.dtype)
        if want is not None and pdf[c.name].dtype != want:
            nulls = want.startswith("int") and pdf[c.name].isna().any()
            casts[c.name] = want.capitalize() if nulls else want
    return pdf.astype(casts) if casts else pdf


class AcidWriter:
    def __init__(
        self,
        hms: HiveMetastore,
        warehouse: Path | str,
        row_group_rows: int = 10_000,
    ):
        self.hms = hms
        self.warehouse = Path(warehouse)
        self.row_group_rows = row_group_rows
        # FileIds must be unique within (table, WriteId): a transaction may
        # write a table several times (e.g. UPDATE = delete+insert, MERGE
        # branches) and every file of that WriteId needs a distinct id.
        self._next_fileid: dict[tuple[str, int], int] = {}

    def _alloc_fileid(self, table: str, wid: int) -> int:
        key = (table, wid)
        fid = self._next_fileid.get(key, 0)
        self._next_fileid[key] = fid + 1
        return fid

    # -- helpers ----------------------------------------------------------

    def table_path(self, table: str) -> Path:
        return self.warehouse / table

    def _partition_groups(self, table, pdf: pd.DataFrame):
        """Yield ``(partition_key, group_frame)``; one ('', pdf) if unpartitioned."""
        if not table.partitioned_by:
            yield "", pdf
            return
        for values, group in pdf.groupby(table.partitioned_by, sort=True):
            if not isinstance(values, tuple):
                values = (values,)
            yield partition_key(table.partitioned_by, values), group

    # -- DML --------------------------------------------------------------

    def insert(self, txn_id: int, table_name: str, pdf: pd.DataFrame) -> int:
        """INSERT rows; returns the WriteId. Also registers partitions and
        merges fresh statistics into HMS."""
        return self._write(txn_id, table_name, pdf, lambda wid: delta_dir(wid, wid))

    def overwrite(self, txn_id: int, table_name: str, pdf: pd.DataFrame) -> int:
        """INSERT OVERWRITE as ``base_<w>`` per partition written; returns
        ``w``. Older snapshots keep reading what it covers until cleaning."""
        return self._write(txn_id, table_name, pdf, base_dir)

    def _write(self, txn_id: int, table_name: str, pdf: pd.DataFrame, make_dir) -> int:
        table = self.hms.get_table(table_name)
        missing = set(table.column_names()) - set(pdf.columns)
        if missing:
            raise ValueError(f"insert into {table_name} missing columns {sorted(missing)}")
        wid = self.hms.txns.allocate_write_id(txn_id, table_name)
        pdf = _as_declared(pdf[table.column_names()].reset_index(drop=True), table)
        bloom_cols = bloom_columns(table)

        rows_before = 0
        for key, group in self._partition_groups(table, pdf):
            fileid = self._alloc_fileid(table_name, wid)
            group = group.reset_index(drop=True).copy()
            group[WRITEID_COL] = np.int64(wid)
            group[FILEID_COL] = np.int64(fileid)
            group[ROWID_COL] = np.arange(len(group), dtype=np.int64)
            dir_path = self.table_path(table_name) / key / make_dir(wid)
            write_data_file(
                dir_path / bucket_file(fileid), group, self.row_group_rows, bloom_cols, table
            )
            if key:
                self.hms.add_partition(table_name, key)
                self.hms.txns.acquire_lock(txn_id, table_name, key)
            stats = collect_stats(group[table.column_names()])
            self.hms.update_stats(table_name, stats, key or None)
            rows_before += len(group)
        if rows_before == 0:
            # register the (empty) directory so the write is still observable
            dir_path = self.table_path(table_name) / make_dir(wid)
            dir_path.mkdir(parents=True, exist_ok=True)
        return wid

    def delete(self, txn_id: int, table_name: str, victims: pd.DataFrame) -> int:
        """DELETE: write tombstones for the given victims.

        ``victims`` must carry the hidden identity triple (from a snapshot
        scan with ``include_hidden=True``) plus the table's partition columns
        so tombstones land in the right partition directory. Records the
        write set for first-commit-wins conflict resolution.
        """
        table = self.hms.get_table(table_name)
        for c in HIDDEN_COLS:
            if c not in victims.columns:
                raise ValueError(f"delete victims missing hidden column {c}")
        wid = self.hms.txns.allocate_write_id(txn_id, table_name)

        for key, group in self._partition_groups(table, victims):
            fileid = self._alloc_fileid(table_name, wid)
            tomb = pd.DataFrame(
                {
                    DELETE_COLS[0]: group[WRITEID_COL].astype("int64").values,
                    DELETE_COLS[1]: group[FILEID_COL].astype("int64").values,
                    DELETE_COLS[2]: group[ROWID_COL].astype("int64").values,
                }
            )
            tomb[WRITEID_COL] = np.int64(wid)
            # keep partition values inline for partition-scoped delete reads
            for c in table.partitioned_by:
                tomb[c] = group[c].values
            dir_path = self.table_path(table_name) / key / delete_delta_dir(wid, wid)
            write_data_file(dir_path / bucket_file(fileid), tomb, self.row_group_rows)
            self.hms.txns.record_write(txn_id, table_name, key or None)
        return wid

    def update(
        self, txn_id: int, table_name: str, victims: pd.DataFrame, new_rows: pd.DataFrame
    ) -> int:
        """UPDATE = DELETE(victims) + INSERT(new rows), one transaction —
        both halves share the WriteId (allocation is idempotent per txn)."""
        wid_d = self.delete(txn_id, table_name, victims)
        wid_i = self.insert(txn_id, table_name, new_rows)
        assert wid_d == wid_i, "update halves must share one WriteId"
        return wid_i

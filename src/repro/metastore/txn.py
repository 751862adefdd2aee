"""Transaction and lock management, built "on top of the Metastore" (§3.2).

Reproduces the paper's ACID machinery:

* a global, monotonically increasing ``TxnId`` per transaction;
* per-table, monotonically increasing ``WriteId``s, one per (txn, table) —
  all records a transaction writes to one table share its ``WriteId``;
* Snapshot Isolation: a statement obtains one *transaction list* (high
  watermark + open/aborted set below it) and derives from it, per table, a
  compact *WriteId list* (:meth:`TxnManager.write_id_lists`). Its scans
  skip the rows those lists do not see, and the result cache and
  materialized views record and compare the same lists;
* shared/exclusive locks at partition granularity (table granularity for
  unpartitioned tables); only disruptive DDL takes exclusive locks;
* optimistic conflict resolution for UPDATE/DELETE: write sets are tracked
  and resolved at commit time, first commit wins.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum

import pandas as pd

__all__ = [
    "TxnState",
    "LockMode",
    "LockConflict",
    "WriteConflict",
    "TxnAborted",
    "Snapshot",
    "ValidWriteIdList",
    "TxnManager",
]


class TxnState(Enum):
    OPEN = "open"
    COMMITTED = "committed"
    ABORTED = "aborted"


class LockMode(Enum):
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


class LockConflict(RuntimeError):
    """Raised when a lock request conflicts with a held lock."""


class WriteConflict(RuntimeError):
    """Raised at commit when first-commit-wins resolution loses."""


class TxnAborted(RuntimeError):
    """Raised when operating on a transaction that is no longer open."""


@dataclass(frozen=True)
class Snapshot:
    """Logical snapshot: high watermark + exceptions below it (§3.2).

    A transaction is *visible* iff it committed with
    ``txn_id <= high_watermark`` and is not in the open/aborted exception set.
    """

    high_watermark: int
    open_txns: frozenset[int]
    aborted_txns: frozenset[int]

    def is_visible_txn(self, txn_id: int) -> bool:
        return (
            txn_id <= self.high_watermark
            and txn_id not in self.open_txns
            and txn_id not in self.aborted_txns
        )


@dataclass(frozen=True)
class ValidWriteIdList:
    """Per-table projection of a snapshot onto WriteIds.

    Keeping per-table lists means readers carry state proportional to the
    writes *of that table*, not of the whole system — the paper's stated
    reason for the two-level TxnId/WriteId scheme.
    """

    table: str
    high_watermark: int  # highest WriteId allocated for this table at snapshot
    invalid: frozenset[int]  # WriteIds from open/aborted txns below the HWM

    def is_valid(self, write_id: int) -> bool:
        return 0 < write_id <= self.high_watermark and write_id not in self.invalid

    def valid_mask(self, write_ids: pd.Series) -> pd.Series:
        """:meth:`is_valid` over a column of WriteIds, vectorized: the
        invalid set is small, the comparison is columnar."""
        mask = (write_ids > 0) & (write_ids <= self.high_watermark)
        if self.invalid:
            mask &= ~write_ids.isin(list(self.invalid))
        return mask

    def sees_all_of(self, other: "ValidWriteIdList") -> bool:
        """Whether every WriteId ``other`` sees is valid here too."""
        return other.high_watermark <= self.high_watermark and not any(
            w <= other.high_watermark and w not in other.invalid for w in self.invalid
        )


@dataclass
class _Txn:
    txn_id: int
    start_seq: int  # commit-sequence watermark at open time
    state: TxnState = TxnState.OPEN
    write_ids: dict[str, int] = field(default_factory=dict)
    # write set for optimistic conflict detection: {(table, partition_key)};
    # recorded only for UPDATE/DELETE (inserts never conflict)
    write_set: set[tuple[str, str | None]] = field(default_factory=set)
    locks: set[tuple[str, str | None, LockMode]] = field(default_factory=set)
    commit_seq: int | None = None


class TxnManager:
    """In-process stand-in for the HMS-backed transaction manager."""

    def __init__(self) -> None:
        self._mutex = threading.RLock()
        self._txns: dict[int, _Txn] = {}
        self._next_txn_id = 1
        self._next_write_id: dict[str, int] = {}
        # table -> {write_id: txn_id}, so snapshots can map WriteIds to states
        self._table_write_txn: dict[str, dict[int, int]] = {}
        self._commit_seq = 0
        # committed UPDATE/DELETE write sets for first-commit-wins:
        # (commit_seq, txn_id, frozenset[(table, partition)])
        self._committed_write_sets: list[tuple[int, int, frozenset]] = []

    # -- transaction lifecycle -------------------------------------------

    def open_txn(self) -> int:
        with self._mutex:
            txn_id = self._next_txn_id
            self._next_txn_id += 1
            self._txns[txn_id] = _Txn(txn_id, start_seq=self._commit_seq)
            return txn_id

    def _require_open(self, txn_id: int) -> _Txn:
        txn = self._txns.get(txn_id)
        if txn is None or txn.state is not TxnState.OPEN:
            raise TxnAborted(f"txn {txn_id} is not open")
        return txn

    def allocate_write_id(self, txn_id: int, table: str) -> int:
        """One WriteId per (txn, table); repeated calls are idempotent."""
        with self._mutex:
            txn = self._require_open(txn_id)
            if table in txn.write_ids:
                return txn.write_ids[table]
            wid = self._next_write_id.get(table, 0) + 1
            self._next_write_id[table] = wid
            txn.write_ids[table] = wid
            self._table_write_txn.setdefault(table, {})[wid] = txn_id
            return wid

    def record_write(self, txn_id: int, table: str, partition: str | None) -> None:
        """Track an UPDATE/DELETE target for optimistic conflict resolution."""
        with self._mutex:
            self._require_open(txn_id).write_set.add((table, partition))

    def commit(self, txn_id: int) -> None:
        """Commit; loses first-commit-wins if a concurrent transaction has
        already committed an overlapping UPDATE/DELETE write set."""
        with self._mutex:
            txn = self._require_open(txn_id)
            if txn.write_set:
                for seq, other_id, ws in self._committed_write_sets:
                    if seq > txn.start_seq and ws & txn.write_set:
                        txn.state = TxnState.ABORTED
                        self._release_locks(txn)
                        raise WriteConflict(
                            f"txn {txn_id} conflicts with txn {other_id} on "
                            f"{sorted(ws & txn.write_set)}; first commit wins"
                        )
            self._commit_seq += 1
            txn.commit_seq = self._commit_seq
            txn.state = TxnState.COMMITTED
            if txn.write_set:
                self._committed_write_sets.append(
                    (txn.commit_seq, txn_id, frozenset(txn.write_set))
                )
            self._release_locks(txn)

    def abort(self, txn_id: int) -> None:
        with self._mutex:
            txn = self._require_open(txn_id)
            txn.state = TxnState.ABORTED
            self._release_locks(txn)

    def state(self, txn_id: int) -> TxnState:
        return self._txns[txn_id].state

    # -- snapshots --------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """Transaction list: HWM + open/aborted exceptions below it."""
        with self._mutex:
            hwm = self._next_txn_id - 1
            open_ = frozenset(
                t.txn_id for t in self._txns.values() if t.state is TxnState.OPEN
            )
            aborted = frozenset(
                t.txn_id for t in self._txns.values() if t.state is TxnState.ABORTED
            )
            return Snapshot(hwm, open_, aborted)

    def write_id_lists(self, snapshot: Snapshot, tables) -> dict[str, ValidWriteIdList]:
        """The WriteId list of each of ``tables`` under ``snapshot``."""
        with self._mutex:
            return {t: self.valid_write_ids(snapshot, t) for t in tables}

    def valid_write_ids(self, snapshot: Snapshot, table: str) -> ValidWriteIdList:
        """Derive the per-table WriteId list from a transaction list (§3.2).
        WriteIds of writers begun after the snapshot are invalid too, so a
        list derived at any later time sees the same rows."""
        with self._mutex:
            wid_txn = self._table_write_txn.get(table, {})
            hwm_wid = max(
                (w for w, o in wid_txn.items() if o <= snapshot.high_watermark), default=0
            )
            invalid = frozenset(
                w for w, o in wid_txn.items()
                if w <= hwm_wid and not snapshot.is_visible_txn(o)
            )
            return ValidWriteIdList(table, hwm_wid, invalid)

    def updated_or_deleted(
        self, table: str, old: ValidWriteIdList, new: ValidWriteIdList
    ) -> bool:
        """Whether a write ``new`` sees and ``old`` does not updated or
        deleted rows of ``table`` (MVs merge only INSERTs incrementally)."""
        with self._mutex:
            owners = [o for w, o in self._table_write_txn.get(table, {}).items()
                      if new.is_valid(w) and not old.is_valid(w)]
            return any(t == table for o in owners for t, _ in self._txns[o].write_set)

    def open_write_ids(self, table: str) -> set[int]:
        """WriteIds on ``table`` held by still-open transactions.

        Compaction must not merge past the smallest of these — doing so
        could bake an uncommitted write into a base/merged delta.
        """
        with self._mutex:
            return {
                wid
                for wid, owner in self._table_write_txn.get(table, {}).items()
                if self._txns[owner].state is TxnState.OPEN
            }

    # -- locks ------------------------------------------------------------

    def acquire_lock(
        self,
        txn_id: int,
        table: str,
        partition: str | None = None,
        mode: LockMode = LockMode.SHARED,
    ) -> None:
        """Non-blocking acquire; raises :class:`LockConflict` on conflict.

        Granularity is the partition for partitioned tables and the whole
        table otherwise (``partition=None`` covers the whole table and thus
        conflicts with every partition-level lock on it). Shared locks
        coexist; exclusive conflicts with everything on the same target.
        """
        with self._mutex:
            txn = self._require_open(txn_id)
            for other in self._txns.values():
                if other.txn_id == txn_id or other.state is not TxnState.OPEN:
                    continue
                for t, p, m in other.locks:
                    if t != table:
                        continue
                    same_target = p == partition or p is None or partition is None
                    if same_target and (
                        mode is LockMode.EXCLUSIVE or m is LockMode.EXCLUSIVE
                    ):
                        raise LockConflict(
                            f"txn {txn_id} {mode.value} lock on {table}/{partition}"
                            f" conflicts with txn {other.txn_id} {m.value} lock"
                            f" on {t}/{p}"
                        )
            txn.locks.add((table, partition, mode))

    def _release_locks(self, txn: _Txn) -> None:
        txn.locks.clear()

"""Hive Metastore (HMS) substrate: catalog, statistics, transactions."""
from .catalog import Column, Constraint, HiveMetastore, MaterializedView, Table
from .hll import HyperLogLog
from .stats import ColumnStats, TableStats, collect_stats
from .txn import (
    LockConflict,
    LockMode,
    Snapshot,
    TxnAborted,
    TxnManager,
    TxnState,
    ValidWriteIdList,
    WriteConflict,
)

__all__ = [
    "Column",
    "Constraint",
    "HiveMetastore",
    "MaterializedView",
    "Table",
    "HyperLogLog",
    "ColumnStats",
    "TableStats",
    "collect_stats",
    "LockConflict",
    "LockMode",
    "Snapshot",
    "TxnAborted",
    "TxnManager",
    "TxnState",
    "ValidWriteIdList",
    "WriteConflict",
]

"""Hive Metastore (HMS) stand-in: the catalog for all data queryable by Hive.

Stores table schemas (including ``PARTITIONED BY`` layout, §3.1), integrity
constraints (used by the MV rewriting algorithm, §4.4), additive statistics
(§4.1), materialized-view metadata and storage-handler bindings (§6.1).
The real HMS persists via an RDBMS + DataNucleus behind a Thrift API; the
paper's behaviours depend only on the catalog semantics, so this is an
in-process object model with JSON-free, test-friendly accessors. A
:class:`TxnManager` is embedded, mirroring the paper's "transaction manager
built on top of the HMS".
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import pandas as pd

from .stats import TableStats
from .txn import TxnManager, ValidWriteIdList

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.plan import Plan

__all__ = [
    "Column",
    "Constraint",
    "Table",
    "MaterializedView",
    "HiveMetastore",
    "infer_columns",
]


@dataclass(frozen=True)
class Column:
    name: str
    dtype: str  # 'int' | 'bigint' | 'double' | 'string' | 'date' | 'timestamp' | 'decimal(p,s)'


def infer_columns(pdf: pd.DataFrame) -> list[Column]:
    """Catalog column list from pandas dtypes."""
    out = []
    for name, dtype in pdf.dtypes.items():
        if pd.api.types.is_integer_dtype(dtype):
            t = "bigint"
        elif pd.api.types.is_float_dtype(dtype):
            t = "double"
        elif pd.api.types.is_datetime64_any_dtype(dtype):
            t = "timestamp"
        elif pd.api.types.is_bool_dtype(dtype):
            t = "boolean"
        else:
            t = "string"
        out.append(Column(str(name), t))
    return out


@dataclass(frozen=True)
class Constraint:
    """Declared (non-enforced) integrity constraint, as in Hive.

    ``kind`` is one of ``primary_key``, ``foreign_key``, ``unique``,
    ``not_null``. For foreign keys, ``ref_table``/``ref_columns`` name the
    parent side.
    """

    kind: str
    columns: tuple[str, ...]
    ref_table: str | None = None
    ref_columns: tuple[str, ...] | None = None


@dataclass
class Table:
    """A catalog entry: schema, physical layout, handler, properties."""

    name: str
    columns: list[Column]
    partitioned_by: list[str] = field(default_factory=list)
    storage_handler: str = "native"  # see repro.federation.handler
    properties: dict[str, str] = field(default_factory=dict)
    constraints: list[Constraint] = field(default_factory=list)
    is_acid: bool = True

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def has_constraint(self, kind: str, columns: Iterable[str]) -> bool:
        cols = tuple(columns)
        return any(c.kind == kind and c.columns == cols for c in self.constraints)


@dataclass
class MaterializedView:
    """A materialized view: "just a semantically enriched table" (§4.4).

    ``definition`` is the logical plan of the defining query; ``snapshot``
    maps each source table to the WriteId list of the statement that last
    built the contents, and the view's own table to its list once those
    contents committed. A statement with the same lists finds the view
    fresh, and an incremental rebuild reads as "the new data" the rows its
    own lists see and the stored ones do not.
    """

    name: str
    definition: "Plan"
    source_tables: list[str]
    snapshot: dict[str, ValidWriteIdList] = field(default_factory=dict)
    properties: dict[str, str] = field(default_factory=dict)
    enabled_for_rewriting: bool = True

    def allowed_staleness_s(self) -> float:
        """Rewriting-on-stale-data window from table properties (0 = none)."""
        return float(self.properties.get("rewriting.time.window", "0"))


class HiveMetastore:
    """The catalog + embedded transaction manager."""

    def __init__(self) -> None:
        self.txns = TxnManager()
        self._tables: dict[str, Table] = {}
        self._stats: dict[str, TableStats] = {}
        self._partition_stats: dict[str, dict[str, TableStats]] = {}
        self._partitions: dict[str, set[str]] = {}
        self._views: dict[str, MaterializedView] = {}
        # Metastore hooks (§6.1): handler name -> hook object with
        # on_create_table / on_insert callbacks
        self._hooks: dict[str, object] = {}

    # -- tables -----------------------------------------------------------

    def create_table(self, table: Table) -> Table:
        if table.name in self._tables:
            raise ValueError(f"table {table.name!r} already exists")
        self._tables[table.name] = table
        self._partitions[table.name] = set()
        hook = self._hooks.get(table.storage_handler)
        if hook is not None and hasattr(hook, "on_create_table"):
            hook.on_create_table(table)
        return table

    def get_table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"table {name!r} not found in metastore") from None

    # -- partitions -------------------------------------------------------

    def add_partition(self, table: str, partition_key: str) -> None:
        self.get_table(table)
        self._partitions[table].add(partition_key)

    def partitions(self, table: str) -> list[str]:
        return sorted(self._partitions.get(table, ()))

    # -- statistics (additive, §4.1) --------------------------------------

    def update_stats(
        self, table: str, new: TableStats, partition_key: str | None = None
    ) -> None:
        """Merge ``new`` onto existing stats — never a rescan."""
        cur = self._stats.get(table)
        self._stats[table] = cur.merge(new) if cur else new
        if partition_key is not None:
            per_part = self._partition_stats.setdefault(table, {})
            prev = per_part.get(partition_key)
            per_part[partition_key] = prev.merge(new) if prev else new

    def reset_stats(self, table: str) -> None:
        self._stats.pop(table, None)
        self._partition_stats.pop(table, None)

    def stats(self, table: str) -> TableStats | None:
        return self._stats.get(table)

    def partition_stats(self, table: str, partition_key: str) -> TableStats | None:
        return self._partition_stats.get(table, {}).get(partition_key)

    # -- materialized views ------------------------------------------------

    def register_view(self, view: MaterializedView) -> None:
        self._views[view.name] = view

    def views(self) -> list[MaterializedView]:
        return list(self._views.values())

    def get_view(self, name: str) -> MaterializedView:
        return self._views[name]

    # -- storage handler hooks (§6.1) -------------------------------------

    def register_hook(self, handler_name: str, hook: object) -> None:
        self._hooks[handler_name] = hook

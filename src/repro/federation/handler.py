"""Storage handlers (§6.1): the interface Hive federates through.

A storage handler bundles (i) an *input format* (how to read, including
work splitting), (ii) an *output format* (how to write), (iii) a *SerDe*
(representation conversion both ways) and (iv) a *Metastore hook* notified
on catalog transactions. The minimum usable handler is input format +
deserializer — reflected here by ``output_format`` being optional.

:class:`DruidStorageHandler` implements the paper's flagship example: a
table created with ``druid.datasource = <name>`` maps onto an existing
datasource — column names and types are inferred automatically from Druid
metadata, as in the paper's first DDL example — while a table created with
explicit columns defines a new datasource whose ingestion spec is derived
from the schema (``__time`` timestamp, string columns → dimensions, numeric
columns → sum metrics).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import pandas as pd

from repro.druid import (
    TIME_COL,
    DruidCluster,
    DruidDatasource,
    MetricSpec,
    execute_query,
)
from repro.metastore import Column, Table

__all__ = ["StorageHandler", "DruidStorageHandler"]


class StorageHandler:
    """Base interface; subclasses override what they support."""

    name: str = "abstract"

    # (i) input format — read the full external table
    def input_format(self, table: Table) -> pd.DataFrame:
        raise NotImplementedError

    # (ii) output format — write rows to the external system
    def output_format(self, table: Table, pdf: pd.DataFrame) -> None:
        raise NotImplementedError(f"{self.name} handler is read-only")

    # (iii) SerDe — external representation ↔ Hive rows
    def serialize(self, pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf

    def deserialize(self, pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf

    # (iv) Metastore hook
    def on_create_table(self, table: Table) -> None:
        pass

    # pushdown entry point (Calcite-generated queries, §6.2)
    def execute_query(self, table: str, query: dict) -> pd.DataFrame:
        raise NotImplementedError


@dataclass
class DruidStorageHandler(StorageHandler):
    cluster: DruidCluster = field(default_factory=DruidCluster)
    # table name -> datasource name
    bindings: dict[str, str] = field(default_factory=dict)

    name = "druid"

    # -- metastore hook ----------------------------------------------------

    def on_create_table(self, table: Table) -> None:
        source = table.properties.get("druid.datasource")
        if source is not None:
            ds = self.cluster.get(source)
            self.bindings[table.name] = source
            if not table.columns:
                # schema inference from Druid metadata (§6.1)
                table.columns = [Column(n, t) for n, t in ds.schema().items()]
        else:
            # table defines a future datasource; created on first insert
            self.bindings[table.name] = table.name

    # -- SerDe -------------------------------------------------------------

    def deserialize(self, pdf: pd.DataFrame) -> pd.DataFrame:
        if TIME_COL in pdf.columns:
            pdf = pdf.assign(**{TIME_COL: pd.to_datetime(pdf[TIME_COL])})
        return pdf

    # -- input format ------------------------------------------------------

    def datasource_for(self, table_name: str) -> DruidDatasource:
        return self.cluster.get(self.bindings[table_name])

    def input_format(self, table: Table) -> pd.DataFrame:
        ds = self.datasource_for(table.name)
        out = execute_query(ds, {"queryType": "scan"})
        return self.deserialize(out)

    # -- output format (ingestion) -----------------------------------------

    def output_format(self, table: Table, pdf: pd.DataFrame) -> None:
        """CREATE + INSERT path: derive an ingestion spec from the Hive
        schema and (re-)ingest. ``__time`` must be present; numeric columns
        become sum metrics, everything else dimensions."""
        if TIME_COL not in pdf.columns:
            raise ValueError(f"druid ingestion requires a {TIME_COL} column")
        dims, metrics = [], []
        explicit_dims = {
            d.strip()
            for d in table.properties.get("druid.dimensions", "").split(",")
            if d.strip()
        }
        for c in pdf.columns:
            if c == TIME_COL:
                continue
            if c in explicit_dims or not pd.api.types.is_numeric_dtype(pdf[c]):
                dims.append(c)
            elif pd.api.types.is_float_dtype(pdf[c]):
                metrics.append(MetricSpec("doubleSum", c, c))
            else:
                metrics.append(MetricSpec("longSum", c, c))
        ds = DruidDatasource.ingest(
            self.bindings.get(table.name, table.name),
            self.serialize(pdf),
            time_column=TIME_COL,
            dimensions=dims,
            metrics=metrics,
            query_granularity=table.properties.get("druid.query.granularity", "day"),
            segment_granularity=table.properties.get("druid.segment.granularity", "month"),
        )
        self.cluster.add(ds)

    # -- pushdown ----------------------------------------------------------

    def execute_query(self, table: str, query: dict) -> pd.DataFrame:
        ds = self.datasource_for(table)
        return self.deserialize(execute_query(ds, query))

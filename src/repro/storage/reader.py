"""Snapshot reader: merge-on-read over the ACID base/delta layout (§3.2).

A scan is bound to a :class:`~repro.metastore.txn.ValidWriteIdList` at
compile time. The reader:

1. picks, per partition, the directories the snapshot reads
   (:func:`~repro.storage.layout.select_dirs`): the newest visible ``base``
   and the deltas above it that no wider kept directory covers,
   *discarding whole directories* whose single WriteId is invisible
   (open/aborted/future) — the directory-level skip the paper describes;
2. applies the row-level WriteId filter for multi-write (compacted) deltas;
3. anti-joins the surviving rows against the visible delete-delta tombstones
   on the ``(writeid, fileid, rowid)`` identity triple.

All of this happens lazily as Spark DataFrame operations, so Catalyst fuses
the visibility filter into the Parquet scan and the anti-join runs wherever
the plan needs it — the "merge happens at read time" behaviour of Hive's
second-generation ACID design.

The reader resolves a snapshot's exact file list itself (step 1), so Spark
only needs a stat per known file. Given more paths than
``spark.sql.sources.parallelPartitionDiscovery.threshold`` (32 by default),
Spark would list them again with a distributed job, one task per path, on
every scan it builds; :class:`AcidReader` raises that threshold on its
session once, so the stat runs on the driver.
"""
from __future__ import annotations

from pathlib import Path

from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.metastore import HiveMetastore, Table, ValidWriteIdList
from repro.storage.layout import (
    DELETE_COLS,
    HIDDEN_COLS,
    WRITEID_COL,
    list_acid_dirs,
    select_dirs,
)

__all__ = ["AcidReader", "spark_schema", "spark_type"]

# what the reader uses of a delete_delta file: the target triple, the deleter
_TOMBSTONE_SCHEMA = T.StructType(
    [T.StructField(c, T.LongType()) for c in (*DELETE_COLS, WRITEID_COL)]
)


def spark_type(dtype: str) -> T.DataType:
    """Map a catalog type string onto a Spark SQL type.

    ``decimal(p,s)`` maps to double: the workloads only aggregate these and
    the DuckDB oracle compares at 1e-6, so exact decimal arithmetic is not
    load-bearing here (documented substitution).
    """
    d = dtype.lower()
    if d.startswith("decimal"):
        return T.DoubleType()
    return {
        "int": T.IntegerType(),
        "bigint": T.LongType(),
        "float": T.FloatType(),
        "double": T.DoubleType(),
        "string": T.StringType(),
        "date": T.DateType(),
        "timestamp": T.TimestampType(),
        "boolean": T.BooleanType(),
    }[d]


def spark_schema(
    table: Table, columns: list[str] | None = None, include_hidden: bool = False
) -> T.StructType:
    """Spark schema of ``columns`` (default: all) of ``table``, in order.

    A column the table does not have is typed double: the output aliases
    of an aggregate pushed down to a storage handler are not table columns.
    """
    dtypes = {c.name: c.dtype for c in table.columns}
    names = table.column_names() if columns is None else columns
    fields = [T.StructField(c, spark_type(dtypes.get(c, "double"))) for c in names]
    if include_hidden:
        fields += [T.StructField(h, T.LongType()) for h in HIDDEN_COLS]
    return T.StructType(fields)


class AcidReader:
    def __init__(
        self, hms: HiveMetastore, warehouse: Path | str, spark: SparkSession | None
    ):
        self.hms = hms
        self.warehouse = Path(warehouse)
        self.spark = spark
        if spark is not None:
            # the file list is already resolved (select_dirs): stat each
            # file on the driver instead of a listing job per scan build
            # (module docstring). Set once here, not per scan: a scan would
            # pay a Py4J round trip, and concurrent statements share the conf.
            spark.conf.set(
                "spark.sql.sources.parallelPartitionDiscovery.threshold", str(2**31 - 1)
            )

    def visible_files(
        self,
        table_name: str,
        wids: ValidWriteIdList,
        partitions: list[str] | None = None,
    ) -> tuple[list[str], list[str]]:
        """Parquet file paths for (data, delete) sides of a snapshot scan.

        ``partitions`` restricts to the given partition keys — the hook used
        by static and dynamic partition pruning (§4.6).
        """
        table = self.hms.get_table(table_name)
        root = self.warehouse / table_name
        if table.partitioned_by:
            keys = self.hms.partitions(table_name)
            if partitions is not None:
                wanted = set(partitions)
                keys = [k for k in keys if k in wanted]
            part_paths = [root / k for k in keys]
        else:
            part_paths = [root]

        data_files: list[str] = []
        delete_files: list[str] = []
        for p in part_paths:
            data_dirs, delete_dirs = select_dirs(list_acid_dirs(p), wids)
            for d in data_dirs:
                data_files += [str(f) for f in sorted(d.path.glob("*.parquet"))]
            for d in delete_dirs:
                delete_files += [str(f) for f in sorted(d.path.glob("*.parquet"))]
        return data_files, delete_files

    # -- scanning ----------------------------------------------------------

    @staticmethod
    def _visible(wids: ValidWriteIdList) -> Column:
        """Row-level WriteId visibility (for compacted multi-write deltas)."""
        cond = F.col(WRITEID_COL) <= F.lit(wids.high_watermark)
        if wids.invalid:
            cond = cond & ~F.col(WRITEID_COL).isin(list(wids.invalid))
        return cond

    def scan(
        self,
        table_name: str,
        wids: ValidWriteIdList | None = None,
        partitions: list[str] | None = None,
        columns: list[str] | None = None,
        include_hidden: bool = False,
        since: ValidWriteIdList | None = None,
    ) -> DataFrame:
        """Snapshot-consistent scan returning a Spark DataFrame.

        HiveServer2 passes the statement's ``wids``; with ``wids=None`` a
        fresh snapshot is taken (standalone callers). ``since`` keeps only
        rows that list does not see — the "new data since the last MV
        rebuild" filter of incremental maintenance (§4.4).
        """
        table = self.hms.get_table(table_name)
        if wids is None:
            wids = self.hms.txns.valid_write_ids(
                self.hms.txns.snapshot(), table_name
            )
        data_files, delete_files = self.visible_files(table_name, wids, partitions)

        out_cols = columns or table.column_names()
        proj = list(out_cols) + ([] if not include_hidden else list(HIDDEN_COLS))

        # named schemas: Spark runs no inference job, and no files read as
        # an empty frame of the table's schema
        schema = spark_schema(table, include_hidden=True)
        df = self.spark.read.schema(schema).parquet(*data_files)
        df = df.filter(self._visible(wids))
        if since is not None:
            df = df.filter(~self._visible(since))

        if delete_files:
            tomb = self.spark.read.schema(_TOMBSTONE_SCHEMA).parquet(*delete_files)
            tomb = tomb.filter(self._visible(wids))  # skip aborted deleters
            tomb = tomb.select(
                *[F.col(o).alias(h) for o, h in zip(DELETE_COLS, HIDDEN_COLS)]
            ).dropDuplicates()
            df = df.join(tomb, on=list(HIDDEN_COLS), how="left_anti")

        return df.select(*proj)

"""Shared fixtures for unit/integration tests.

``acid`` builds a fresh metastore + warehouse in ``tmp_path`` with a small
partitioned test table, wired to the session SparkSession. ``Warehouse``
(and the ``warehouse`` fixture) is a ``HiveServer2`` with pandas frames
loaded as ACID tables, for tests that compile and run plans.
``spark_jobs`` collects the Spark jobs a block launches.
"""
import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import pandas as pd
import pytest

from repro.core.features import EngineConfig
from repro.core.hs2 import HiveServer2, _HS2ExecutionContext
from repro.metastore import Column, HiveMetastore, Table, infer_columns
from repro.storage import AcidReader, AcidWriter, Compactor


_job_groups = itertools.count()


@contextmanager
def spark_jobs(spark) -> Iterator[list[int]]:
    """Yield a list that holds, once the block exits, the ids of the Spark
    jobs launched inside it on this thread. The block runs under a job
    group of its own, cleared afterwards: the test session is shared."""
    sc = spark.sparkContext
    group = f"spark_jobs-{next(_job_groups)}"
    jobs: list[int] = []
    sc.setJobGroup(group, "jobs launched inside a test block")
    try:
        yield jobs
    finally:
        for key in ("spark.jobGroup.id", "spark.job.description", "spark.job.interruptOnCancel"):
            sc.setLocalProperty(key, None)
        jobs.extend(sc.statusTracker().getJobIdsForGroup(group))


@dataclass
class AcidEnv:
    hms: HiveMetastore
    warehouse: Path
    writer: AcidWriter
    reader: AcidReader
    compactor: Compactor

    def begin(self) -> int:
        return self.hms.txns.open_txn()

    def run_insert(self, table: str, pdf: pd.DataFrame) -> int:
        """Single-statement INSERT txn (the normal HS2 path)."""
        t = self.begin()
        wid = self.writer.insert(t, table, pdf)
        self.hms.txns.commit(t)
        return wid


def make_acid_env(spark, root: Path, row_group_rows: int = 10_000) -> AcidEnv:
    hms = HiveMetastore()
    warehouse = root / "warehouse"
    warehouse.mkdir(parents=True, exist_ok=True)
    return AcidEnv(
        hms=hms,
        warehouse=warehouse,
        writer=AcidWriter(hms, warehouse, row_group_rows=row_group_rows),
        reader=AcidReader(hms, warehouse, spark),
        compactor=Compactor(hms, warehouse, row_group_rows=row_group_rows),
    )


@pytest.fixture
def acid(spark, tmp_path) -> AcidEnv:
    env = make_acid_env(spark, tmp_path)
    env.hms.create_table(
        Table(
            name="t",
            columns=[Column("k", "bigint"), Column("v", "double"), Column("p", "bigint")],
            partitioned_by=["p"],
            properties={"bloom.filter.columns": "k"},
        )
    )
    env.hms.create_table(
        Table(
            name="u",
            columns=[Column("k", "bigint"), Column("v", "double")],
        )
    )
    return env


def rows(k, v, p=None) -> pd.DataFrame:
    d = {"k": k, "v": v}
    if p is not None:
        d["p"] = p
    return pd.DataFrame(d)


class Warehouse:
    """A ``HiveServer2`` in one arm, with pandas frames loaded as ACID tables.

    ``arm`` names an ``EngineConfig`` constructor: ``"v3_1"`` (LLAP) or
    ``"v3_1_container"``. Container start-up is 0 and the result cache is
    off. ``frames`` keeps every loaded frame for the DuckDB oracle.
    """

    def __init__(self, spark, root: Path, arm: str = "v3_1", **frames: pd.DataFrame):
        config = getattr(EngineConfig, arm)(container_startup_s=0.0, result_cache=False)
        self.hs2 = HiveServer2(spark, str(root / "wh"), config)
        self.frames: dict[str, pd.DataFrame] = {}
        for name, pdf in frames.items():
            self.load(name, pdf)

    @property
    def hms(self) -> HiveMetastore:
        return self.hs2.hms

    def load(self, name: str, pdf: pd.DataFrame, partitioned_by=()) -> None:
        """CREATE TABLE with the frame's columns, then INSERT its rows."""
        self.hs2.create_table(Table(name, infer_columns(pdf), list(partitioned_by)))
        self.hs2.insert(name, pdf)
        self.frames[name] = pdf

    def context(self) -> _HS2ExecutionContext:
        """The execution context of a statement starting now."""
        return _HS2ExecutionContext(self.hs2, self.hs2.hms.txns.snapshot())

    def __enter__(self) -> "Warehouse":
        return self

    def __exit__(self, *exc) -> None:
        self.hs2.close()


@pytest.fixture
def warehouse(spark, tmp_path):
    """An empty LLAP-arm ``Warehouse``, closed after the test."""
    with Warehouse(spark, tmp_path) as w:
        yield w

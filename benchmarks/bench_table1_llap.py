"""Benchmark for **Table 1** (§7.2): LLAP vs container total response time.

Paper: container 41 576 s, LLAP 15 540 s → 2.68x. Shape claim checked
here: LLAP strictly faster, by a material factor, with cache hits doing
the work. Absolute times differ (local Spark vs 10-node cluster; see
EXPERIMENTS.md).
"""
import pytest

from repro.experiments import table1_llap

SF = 0.05
RUNS = 2


@pytest.fixture(scope="module")
def result(spark, tmp_path_factory, save_result):
    r = table1_llap(spark, tmp_path_factory.mktemp("t1"), sf=SF, runs=RUNS)
    save_result(r)
    return r


class TestShape:
    def test_llap_faster_than_container(self, result):
        assert result["total_llap_s"] < result["total_container_s"]

    def test_speedup_material(self, result):
        """Paper: 2.68x. Require at least 1.2x on the simulator."""
        assert result["speedup"] >= 1.2

    def test_cache_actually_hit(self, result):
        assert result["cache_stats"]["data_hits"] > 0


def test_acid_read_parity(spark, tmp_path):
    """§8: the second-generation ACID design reads at par with non-ACID
    tables. Compare a snapshot scan of a compacted ACID table against a
    plain Parquet read of the same data."""
    import time

    import pandas as pd

    from repro.metastore import Column, Table
    from tests.conftest import make_acid_env

    env = make_acid_env(spark, tmp_path)
    env.hms.create_table(
        Table("big", [Column("k", "bigint"), Column("v", "double")])
    )
    pdf = pd.DataFrame({"k": range(200_000), "v": [float(i) for i in range(200_000)]})
    env.run_insert("big", pdf)
    env.compactor.major_compact("big", "")
    env.compactor.clean()
    plain = tmp_path / "plain.parquet"
    pdf.to_parquet(plain)

    def timed(fn, reps=3):
        fn()  # warm
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        return (time.perf_counter() - t0) / reps

    t_acid = timed(lambda: env.reader.scan("big").agg({"v": "sum"}).collect())
    t_plain = timed(
        lambda: spark.read.parquet(str(plain)).agg({"v": "sum"}).collect()
    )
    # "performance is at par with non-ACID tables": within 2x here (the
    # snapshot filter + anti-join plumbing is the only delta)
    assert t_acid <= 2.0 * t_plain, (t_acid, t_plain)

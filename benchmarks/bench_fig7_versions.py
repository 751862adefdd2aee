"""Benchmark for Figure 7 (§7.1): Hive v1.2 vs v3.1 on TPC-DS-lite.

Paper claims reproduced as shape: v1.2 runs only a subset of the queries
(50/99 there, 14/20 here), v3.1 is faster on the mutually-supported set
(4.6x avg there), and the aggregate time for *all* v3.1 queries stays in
the neighbourhood of v1.2's supported-only total (paper: 15% lower).
"""
import pytest

from repro.experiments import fig7_versions

SF = 0.05
RUNS = 2


@pytest.fixture(scope="module")
def result(spark, tmp_path_factory, save_result):
    r = fig7_versions(spark, tmp_path_factory.mktemp("f7"), sf=SF, runs=RUNS)
    save_result(r)
    return r


class TestShape:
    def test_v12_runs_only_subset(self, result):
        """Paper: 50 of 99. Here: 14 of 20 (6 feature-gated)."""
        assert result["n_queries"] == 20
        assert result["n_supported_v12"] == 14

    def test_v31_faster_on_average(self, result):
        """Paper: 4.6x average. Require a clear win on the simulator."""
        assert result["avg_speedup"] > 1.2

    def test_some_queries_improve_a_lot(self, result):
        assert result["max_speedup"] > 2.0

    def test_all_queries_total_in_reach_of_v12_subset(self, result):
        """Paper: v3.1 runs all 99 in 15% less time than v1.2's 50.
        Accept the same order of magnitude here (<= 1.4x)."""
        assert result["all99_vs_50_ratio"] <= 1.4

    def test_shared_work_helps_q88_shape(self, result):
        """Paper: 2.7x on q88. Require it not to hurt, and record the
        measured factor in results/ for EXPERIMENTS.md."""
        assert result["shared_work_speedup"] >= 0.9

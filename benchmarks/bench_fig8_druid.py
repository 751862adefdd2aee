"""Benchmark for Figure 8 (§7.3): SSB over the denormalizing MV — stored
natively in Hive vs federated to (mini-)Druid with Calcite pushdown.

Paper: Hive/Druid is 1.6x faster overall than the MV stored natively.
"""
import pytest

from repro.experiments import fig8_druid

SF = 0.05
RUNS = 2


@pytest.fixture(scope="module")
def result(spark, tmp_path_factory, save_result):
    r = fig8_druid(spark, tmp_path_factory.mktemp("f8"), sf=SF, runs=RUNS)
    save_result(r)
    return r


class TestShape:
    def test_druid_federation_faster(self, result):
        assert result["total_druid_s"] < result["total_native_s"]

    def test_speedup_comparable_to_paper(self, result):
        """Paper: 1.6x. Accept anything clearly above 1.1x."""
        assert result["speedup"] > 1.1

    def test_all_queries_measured(self, result):
        assert len(result["rows"]) == 13

"""Experiment harnesses (§7): smoke execution, report formatting, and
the ``benchmarks/`` gates that assert the paper's shape claims."""
import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.features import CONTAINER_STARTUP_S
from repro.experiments import _tuned, format_rows, table1_llap


class TestTable1Smoke:
    @pytest.fixture(scope="class")
    def result(self, spark, tmp_path_factory):
        return table1_llap(spark, tmp_path_factory.mktemp("t1s"), sf=0.002, runs=1)

    def test_both_arms_measured(self, result):
        assert result["total_container_s"] > 0
        assert result["total_llap_s"] > 0
        assert len(result["per_query"]) == 20

    def test_llap_not_slower(self, result):
        """Even at smoke scale the container arm pays startup per query."""
        assert result["total_llap_s"] < result["total_container_s"]

    def test_measured_only_drops_the_startup_sleep(self, result):
        """The measured-only container total is the total minus one
        container start-up per query; its speedup divides that by LLAP's."""
        sleeps = CONTAINER_STARTUP_S * len(result["per_query"])
        measured = result["total_container_measured_s"]
        assert measured == pytest.approx(result["total_container_s"] - sleeps)
        assert result["speedup_measured"] == pytest.approx(measured / result["total_llap_s"])

    def test_paper_reference_embedded(self, result):
        assert result["paper"]["container_s"] == 41576

    def test_format(self, result):
        text = format_rows(result)
        assert "Container (without LLAP)" in text
        assert "LLAP" in text
        assert f"measured-only {result['speedup_measured']:.2f}x" in text


class TestFormatting:
    def test_fig7_format(self):
        text = format_rows(
            {
                "experiment": "fig7_versions",
                "sf": 0.01,
                "runs": 1,
                "rows": [
                    {"query": "q01", "v12_s": 1.0, "v31_s": 0.5, "speedup": 2.0},
                    {"query": "q08", "v12_s": None, "v31_s": 0.4, "speedup": None},
                ],
                "n_queries": 2,
                "n_supported_v12": 1,
                "avg_speedup": 2.0,
                "max_speedup": 2.0,
                "all99_vs_50_ratio": 0.9,
                "shared_work_speedup": 1.5,
            }
        )
        assert "n/a" in text and "2.00x" in text and "50/99" in text

    def test_fig8_format(self):
        text = format_rows(
            {
                "experiment": "fig8_druid",
                "sf": 0.01,
                "runs": 1,
                "rows": [{"query": "ssb_q1_1", "hive_mv_s": 0.2, "hive_druid_s": 0.1}],
                "total_native_s": 0.2,
                "total_druid_s": 0.1,
                "speedup": 2.0,
            }
        )
        assert "Hive/Druid" in text and "1.6x" in text


class TestSessionRestored:
    KEY = "spark.sql.shuffle.partitions"

    def test_harness_restores_shuffle_partitions(self, spark):
        before = spark.conf.get(self.KEY)
        assert _tuned(lambda s: s.conf.get(self.KEY))(spark) == "16"
        assert spark.conf.get(self.KEY) == before

    def test_restored_when_harness_raises(self, spark):
        before = spark.conf.get(self.KEY)

        def failing(s):
            raise RuntimeError("harness failed")

        with pytest.raises(RuntimeError):
            _tuned(failing)(spark)
        assert spark.conf.get(self.KEY) == before


class TestBenchmarkGates:
    """``pytest benchmarks/ -q`` is the one §7 entry point. Its gates are
    checked here by collection only, so a broken gate file fails tier-1
    and no Spark session starts."""

    ROOT = Path(__file__).resolve().parents[1]

    def shape_gates(self) -> set[str]:
        out = {"benchmarks/bench_table1_llap.py::test_acid_read_parity"}
        for path in sorted((self.ROOT / "benchmarks").glob("bench_*.py")):
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, ast.ClassDef) and node.name == "TestShape":
                    out |= {
                        f"benchmarks/{path.name}::TestShape::{f.name}"
                        for f in node.body
                        if isinstance(f, ast.FunctionDef) and f.name.startswith("test_")
                    }
        return out

    def test_every_gate_collected_and_none_timed(self):
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "--collect-only", "-q",
             "--fixtures-per-test", "-p", "no:cacheprovider", "benchmarks/"],
            cwd=self.ROOT, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        collected = set(re.findall(r"^benchmarks/\S+", done.stdout, re.M))
        gates = self.shape_gates()
        assert len(gates) >= 12 and gates <= collected
        fixtures = set(re.findall(r"^(\w+) -- ", done.stdout, re.M))
        assert "save_result" in fixtures and "benchmark" not in fixtures

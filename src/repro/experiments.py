"""Harnesses reproducing the paper's evaluation section (§7).

Three experiments, each returning a plain-dict result that the
``jobs/`` entrypoints print as the paper's rows and the ``benchmarks/``
suite asserts shape claims on (paper numbers vs ours: EXPERIMENTS.md).

* :func:`table1_llap` — §7.2 / **Table 1**: total workload response time
  with LLAP enabled vs plain containers, same configuration otherwise.
* :func:`fig7_versions` — §7.1 / Figure 7 (as a table): Hive v1.2 vs
  v3.1 per query — how many queries each version can run, per-query
  speedups, and the paper's aggregate claims. Includes the shared-work
  ablation on the q88-shaped query.
* :func:`fig8_druid` — §7.3 / Figure 8 (as a table): the 13 SSB queries
  answered from the denormalizing MV stored natively vs in (mini-)Druid.

Timing methodology follows the paper: warm runs (one unmeasured warm-up,
then the average of ``runs`` measured executions). The query result cache
is disabled in all arms — repeats must measure execution, not caching.
The container-mode arms pay ``features.CONTAINER_STARTUP_S`` per query for
YARN container allocation; that constant is a documented calibration knob,
not a measurement of this machine (EXPERIMENTS.md).
"""
from __future__ import annotations

import functools
import time
from pathlib import Path

from pyspark.sql import SparkSession

from repro.core.features import EngineConfig, UnsupportedSQLError
from repro.core.hs2 import HiveServer2, QuerySpec
from repro.druid import DruidCluster
from repro.federation import DruidStorageHandler
from repro.metastore import HiveMetastore
from repro.workloads import ssb, tpcds_lite

__all__ = ["table1_llap", "fig7_versions", "fig8_druid", "format_rows"]


_SHUFFLE_PARTITIONS = "spark.sql.shuffle.partitions"


def _tuned(harness):
    """Right-size the session for SF<=0.1 inputs while ``harness`` runs:
    more shuffle partitions (the test session's 64, Spark's default 200)
    add pure task-scheduling latency to *both* arms of every comparison,
    diluting the contrasts the experiments measure. The session's own
    value is restored when the harness returns."""

    @functools.wraps(harness)
    def run(spark: SparkSession, *args, **kwargs):
        previous = spark.conf.get(_SHUFFLE_PARTITIONS)
        spark.conf.set(_SHUFFLE_PARTITIONS, "16")
        try:
            return harness(spark, *args, **kwargs)
        finally:
            spark.conf.set(_SHUFFLE_PARTITIONS, previous)

    return run


def _timed(hs2: HiveServer2, q: QuerySpec, runs: int) -> float:
    """Average warm response time (one warm-up + ``runs`` measured)."""
    hs2.execute(q)
    total = 0.0
    for _ in range(runs):
        t0 = time.perf_counter()
        hs2.execute(q)
        total += time.perf_counter() - t0
    return total / runs


# ---------------------------------------------------------------------------
# Table 1 (§7.2): LLAP vs containers
# ---------------------------------------------------------------------------


@_tuned
def table1_llap(
    spark: SparkSession, workdir: str | Path, sf: float = 0.05, runs: int = 2
) -> dict:
    """All TPC-DS-lite queries, same configuration, LLAP enabled/disabled."""
    workdir = Path(workdir)
    hms = HiveMetastore()
    container = HiveServer2(
        spark,
        str(workdir / "wh"),
        EngineConfig.v3_1_container(result_cache=False),
        hms=hms,
    )
    llap = HiveServer2(
        spark,
        str(workdir / "wh"),
        EngineConfig.v3_1(result_cache=False),
        hms=hms,
    )

    per_query = []
    totals = {"container": 0.0, "llap": 0.0}
    with container, llap:
        tpcds_lite.load_into(container, sf=sf)
        for q in tpcds_lite.queries():
            tc = _timed(container, q, runs)
            tl = _timed(llap, q, runs)
            totals["container"] += tc
            totals["llap"] += tl
            per_query.append({"query": q.name, "container_s": tc, "llap_s": tl})
    # each container execution sleeps container_startup_s once, so each
    # query's averaged time holds exactly one sleep
    measured = totals["container"] - container.config.container_startup_s * len(per_query)
    return {
        "experiment": "table1_llap",
        "sf": sf,
        "runs": runs,
        "per_query": per_query,
        "total_container_s": totals["container"],
        "total_container_measured_s": measured,
        "total_llap_s": totals["llap"],
        "speedup": totals["container"] / max(totals["llap"], 1e-9),
        "speedup_measured": measured / max(totals["llap"], 1e-9),
        "cache_stats": {
            "data_hits": llap.daemon.cache.stats.data_hits,
            "data_misses": llap.daemon.cache.stats.data_misses,
        },
        "paper": {"container_s": 41576, "llap_s": 15540, "speedup": 41576 / 15540},
    }


# ---------------------------------------------------------------------------
# Figure 7 (§7.1) as a table: Hive v1.2 vs v3.1
# ---------------------------------------------------------------------------


@_tuned
def fig7_versions(
    spark: SparkSession, workdir: str | Path, sf: float = 0.05, runs: int = 2
) -> dict:
    workdir = Path(workdir)
    hms = HiveMetastore()
    v12 = HiveServer2(
        spark,
        str(workdir / "wh"),
        EngineConfig.v1_2(),
        hms=hms,
    )
    v31 = HiveServer2(
        spark,
        str(workdir / "wh"),
        EngineConfig.v3_1(result_cache=False),
        hms=hms,
    )
    # the shared-work ablation: the q88-shaped query with the optimizer
    # on vs off over the same data
    no_shared = HiveServer2(
        spark,
        str(workdir / "wh"),
        EngineConfig.v3_1(result_cache=False, shared_work=False),
        hms=hms,
    )

    rows = []
    total_v12_supported = 0.0
    total_v31_supported = 0.0
    total_v31_all = 0.0
    speedups = []
    with v12, v31, no_shared:
        tpcds_lite.load_into(v12, sf=sf)
        for q in tpcds_lite.queries():
            t31 = _timed(v31, q, runs)
            total_v31_all += t31
            try:
                t12 = _timed(v12, q, runs)
            except UnsupportedSQLError:
                rows.append({"query": q.name, "v12_s": None, "v31_s": t31, "speedup": None})
                continue
            total_v12_supported += t12
            total_v31_supported += t31
            speedups.append(t12 / max(t31, 1e-9))
            rows.append(
                {"query": q.name, "v12_s": t12, "v31_s": t31, "speedup": t12 / max(t31, 1e-9)}
            )

        q88 = next(q for q in tpcds_lite.queries() if q.name == "q07_q88_shape")
        t_shared = _timed(v31, q88, runs)
        t_unshared = _timed(no_shared, q88, runs)

    n_supported = sum(1 for r in rows if r["v12_s"] is not None)
    return {
        "experiment": "fig7_versions",
        "sf": sf,
        "runs": runs,
        "rows": rows,
        "n_queries": len(rows),
        "n_supported_v12": n_supported,
        "avg_speedup": sum(speedups) / len(speedups),
        "max_speedup": max(speedups),
        "total_v12_supported_s": total_v12_supported,
        "total_v31_supported_s": total_v31_supported,
        "total_v31_all_s": total_v31_all,
        "all99_vs_50_ratio": total_v31_all / max(total_v12_supported, 1e-9),
        "shared_work_speedup": t_unshared / max(t_shared, 1e-9),
        "paper": {
            "n_queries": 99,
            "n_supported_v12": 50,
            "avg_speedup": 4.6,
            "max_speedup": 45.5,
            "all99_vs_50_ratio": 0.85,  # "aggregated time 15% lower"
            "shared_work_speedup_q88": 2.7,
        },
    }


# ---------------------------------------------------------------------------
# Figure 8 (§7.3) as a table: SSB over MV, native vs Druid
# ---------------------------------------------------------------------------


@_tuned
def fig8_druid(
    spark: SparkSession, workdir: str | Path, sf: float = 0.05, runs: int = 2
) -> dict:
    workdir = Path(workdir)

    def build(tag: str, store_in: str) -> HiveServer2:
        hs2 = HiveServer2(
            spark,
            str(workdir / f"wh_{tag}"),
            EngineConfig.v3_1(result_cache=False),
        )
        hs2.register_handler(DruidStorageHandler(DruidCluster()))
        ssb.load_into(hs2, sf=sf)
        hs2.create_materialized_view(f"ssb_mv_{tag}", ssb.mv_definition(), store_in=store_in)
        return hs2

    rows = []
    totals = {"native": 0.0, "druid": 0.0}
    with build("native", "native") as native, build("druid", "druid") as druid:
        for q in ssb.queries():
            tn = _timed(native, q, runs)
            td = _timed(druid, q, runs)
            # both arms must actually answer from their MV
            assert native.execute(q).mv_used == "ssb_mv_native"
            assert druid.execute(q).mv_used == "ssb_mv_druid"
            totals["native"] += tn
            totals["druid"] += td
            rows.append({"query": q.name, "hive_mv_s": tn, "hive_druid_s": td})
    return {
        "experiment": "fig8_druid",
        "sf": sf,
        "runs": runs,
        "rows": rows,
        "total_native_s": totals["native"],
        "total_druid_s": totals["druid"],
        "speedup": totals["native"] / max(totals["druid"], 1e-9),
        "paper": {"speedup": 1.6},
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def format_rows(result: dict) -> str:
    """Render an experiment result as the paper-style text table."""
    out = [f"== {result['experiment']} (SF={result['sf']}, {result['runs']} warm runs) =="]
    if result["experiment"] == "table1_llap":
        out.append(
            f"{'Execution mode':<28}{'Total response time (s)':>25}{'measured-only (s)':>19}"
        )
        out.append(
            f"{'Container (without LLAP)':<28}{result['total_container_s']:>25.2f}"
            f"{result['total_container_measured_s']:>19.2f}"
        )
        out.append(f"{'LLAP':<28}{result['total_llap_s']:>25.2f}{result['total_llap_s']:>19.2f}")
        out.append(
            f"speedup {result['speedup']:.2f}x, measured-only {result['speedup_measured']:.2f}x"
            f"   (paper: 41576s vs 15540s = 2.68x)"
        )
    elif result["experiment"] == "fig7_versions":
        out.append(f"{'query':<26}{'v1.2 (s)':>10}{'v3.1 (s)':>10}{'speedup':>9}")
        for r in result["rows"]:
            v12 = f"{r['v12_s']:.3f}" if r["v12_s"] is not None else "n/a"
            sp = f"{r['speedup']:.2f}x" if r["speedup"] is not None else "-"
            out.append(f"{r['query']:<26}{v12:>10}{r['v31_s']:>10.3f}{sp:>9}")
        out.append(
            f"v1.2 runs {result['n_supported_v12']}/{result['n_queries']} queries"
            f" (paper: 50/99)"
        )
        out.append(
            f"avg speedup {result['avg_speedup']:.2f}x, max {result['max_speedup']:.2f}x"
            f" (paper: 4.6x avg, 45.5x max)"
        )
        out.append(
            f"v3.1 all-queries total / v1.2 supported total ="
            f" {result['all99_vs_50_ratio']:.2f} (paper: 0.85)"
        )
        out.append(
            f"shared-work speedup on q88-shape: {result['shared_work_speedup']:.2f}x"
            f" (paper: 2.7x on q88)"
        )
    elif result["experiment"] == "fig8_druid":
        out.append(f"{'query':<12}{'Hive MV (s)':>13}{'Hive/Druid (s)':>16}")
        for r in result["rows"]:
            out.append(f"{r['query']:<12}{r['hive_mv_s']:>13.3f}{r['hive_druid_s']:>16.3f}")
        out.append(
            f"total {result['total_native_s']:.2f}s vs {result['total_druid_s']:.2f}s"
            f" → Hive/Druid {result['speedup']:.2f}x faster (paper: 1.6x)"
        )
    return "\n".join(out)

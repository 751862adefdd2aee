"""The repository's benchmark: one workload, one closed-loop client.

    python3 perfbench/run.py --workload bi_llap --seed 1 --seconds 15 --trace 0

Builds the server from ``src/`` of the checkout it sits in, generates the
workload's inputs from ``--seed``, loads them and warms up. Then it runs
the workload's unit of statements (a pass over its queries, or a cycle of
its ETL stream) again and again: at least ``MIN_UNITS`` times, and while
one more unit is expected to end within ``--seconds`` of statement time.
Statement ``i`` of every unit does the same work, so each one's time is
the median over the units, and ``queries_per_s`` is the reads of one
unit over the sum of those medians: a unit's rate, with the units slowed
by the shared host left out. Every read's answer is compared with
DuckDB's outside the timed interval.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same
statements with span wrappers installed around every layer and prints the
per-layer metrics per unit, the share of statement wall time the layers
account for, and the time spent inside the wrappers (the tracing
overhead). The traced run's statement time minus an untraced run's on the
same seed is the end-to-end view of that overhead. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Scratch files, the spans and a record of the
inputs go under ``.bench_build/perfbench/`` of the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench"
# Two Spark task threads on a 4-vCPU host leave room for the driver's own
# threads (Python, LLAP executors, JIT and GC): with local[4] the run time
# follows the scheduler and the host's other tenants. etl_container on a
# 4-vCPU VM, five seeds each, runs interleaved: throughput quartiles spread
# 0.089 of the median with local[2], 0.135 with local[4].
SPARK_CORES = 2
SPARK_DRIVER_MEMORY = "2g"
SHUFFLE_PARTITIONS = 16  # as the §7 harnesses set it for SF <= 0.1
MIN_UNITS = 3  # the fewest samples a median needs to leave one slow unit out

ELEVATOR_COUNTERS = (
    "row_groups_total", "row_groups_read", "row_groups_skipped_minmax",
    "row_groups_skipped_bloom", "rows_filtered_by_runtime_bloom",
)
CACHE_COUNTERS = (
    "data_hits", "data_misses", "meta_hits", "meta_misses", "evictions", "invalidations",
)
# span name → per-layer metric (self time, seconds)
LAYER_SPANS = (
    "spark.create_dataframe", "spark.to_pandas", "llap.daemon.scan_table",
    "llap.daemon.fragment_wait", "storage.reader.scan", "storage.reader.visible_files",
    "core.semijoin.apply_reduction", "core.compile.compile_plan", "core.hs2.resolve_scan",
    "core.hs2.resolve_foreign", "core.hs2.execute", "core.cache.lookup",
    "core.mv.choose_rewrite", "core.optimizer.optimize",
    "federation.pushdown.push_to_druid", "druid.query.execute_query",
    "core.sharedwork.find_shared_subtrees", "storage.writer.insert",
    "storage.writer.delete", "storage.writer.update", "metastore.txn.commit",
    "storage.compactor.compact", "storage.compactor.clean",
)


def _bootstrap() -> None:
    """Make ``repro`` and ``perfbench`` importable from this checkout."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {ROOT / 'src'}; nothing to measure")
    for p in (ROOT / "src", ROOT):
        if str(p) not in sys.path:
            sys.path.insert(0, str(p))


def _start_spark(scratch: Path):
    (scratch / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch / "tmp")
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{SPARK_CORES}] --driver-memory {SPARK_DRIVER_MEMORY} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.local.dir={scratch / 'spark'} "
        # no hsperfdata files under /tmp: the run writes only in its checkout
        f"--driver-java-options '-Djava.io.tmpdir={scratch / 'tmp'} -XX:-UsePerfData' "
        "pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _stop_spark(spark) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    gateway = spark.sparkContext._gateway
    spark.stop()
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


@dataclass
class Phase:
    """What one measured run of statements produced."""

    latencies: dict[str, list[float]] = field(default_factory=lambda: {"read": [], "write": []})
    by_statement: list[tuple[str, float]] = field(default_factory=list)  # (name, seconds)
    # slot (position in the unit) → (kind, seconds of each success)
    slots: dict[int, tuple[str, list[float]]] = field(default_factory=dict)
    units: int = 0
    busy_s: float = 0.0
    attempted: int = 0
    errors: Counter = field(default_factory=Counter)  # failure kind → count
    wrong: int = 0
    reads_checked: int = 0
    cache_hits: int = 0
    retries: int = 0
    counters: Counter = field(default_factory=Counter)

    @property
    def failed(self) -> int:
        return sum(self.errors.values())

    def unit_rate(self) -> float | None:
        """Reads per second of a unit whose every statement takes its
        median time; None when no statement succeeded."""
        from perfbench.stats import median

        slots = [(kind, median(ts)) for kind, ts in self.slots.values() if ts]
        total = sum(t for _, t in slots)
        return sum(kind == "read" for kind, _ in slots) / total if total else None


def _counters(hs2) -> dict[str, int]:
    if hs2.daemon is None:
        return {}
    out = {f"elevator.{k}": getattr(hs2.daemon.elevator.stats, k) for k in ELEVATOR_COUNTERS}
    out.update({f"cache.{k}": getattr(hs2.daemon.cache.stats, k) for k in CACHE_COUNTERS})
    return out


def measure(workload, hs2, seconds: float, recorder=None, warehouse: Path | None = None,
            min_units: int = MIN_UNITS) -> Phase:
    """Run whole units: ``min_units`` of them, then more while the next is
    expected to end within ``seconds`` of statement time. Oracle checks and
    counter reads happen between statements, outside the timed interval."""
    from perfbench import oracle
    from perfbench.workloads import warehouse_bytes

    ph = Phase()
    expected: dict[tuple[str, int], object] = {}
    version = 0  # bumped by every successful write: the oracle's state
    while ph.units < min_units or ph.busy_s * (ph.units + 1) / ph.units <= seconds:
        workload.start_unit(hs2)
        for slot, st in enumerate(workload.unit()):
            traced_write = recorder is not None and st.kind == "write"
            before = _counters(hs2) if recorder is not None else {}
            size_before = warehouse_bytes(warehouse) if traced_write else 0
            if recorder is not None:
                recorder.begin_statement(ph.attempted)
            ph.attempted += 1
            t0 = time.perf_counter()
            try:
                out, error = st.run(hs2), None
            except Exception as e:  # a failed statement is counted, the loop goes on
                out, error = None, e
            dt = time.perf_counter() - t0
            ph.busy_s += dt
            # read whether or not the statement raised: one that failed
            # midway has still moved the counters
            if recorder is not None:
                after = _counters(hs2)
                ph.counters.update({k: after[k] - before[k] for k in after})
            if traced_write:
                grown = warehouse_bytes(warehouse) - size_before
                key = "compactor.bytes_rewritten" if st.name == "compact" else "writer.bytes_written"
                ph.counters[key] += max(grown, 0)
            times = ph.slots.setdefault(slot, (st.kind, []))[1]
            if error is not None:
                ph.errors[f"{type(error).__name__}: {str(error)[:80]}"] += 1
                continue
            ph.latencies[st.kind].append(dt)
            ph.by_statement.append((st.name, dt))
            if st.kind == "write":
                times.append(dt)
                if st.mirror is not None:
                    st.mirror(workload.live_tables())
                version += 1
                continue
            ph.cache_hits += out.cache_hit
            ph.retries += out.attempts - 1
            key = (st.name, version)
            if key not in expected:
                expected[key] = oracle.expected(st.sql, workload.live_tables())
            try:
                oracle.check(out.result, expected[key])
                ph.reads_checked += 1
                times.append(dt)
            except oracle.WrongAnswer as e:
                ph.wrong += 1
                ph.errors[f"WrongAnswer[{st.name}]: {str(e)[:80]}"] += 1
        ph.units += 1
    return ph


def _setup(workload, spark, scratch: Path):
    """Generate, load and warm up. Returns (server, warehouse, load time,
    warm-up time, warm-up statements that raised)."""
    wh = scratch / "warehouse"
    t0 = time.perf_counter()
    hs2 = workload.build(spark, wh)
    load_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm_errors = workload.warm_up(hs2)
    return hs2, wh, load_s, time.perf_counter() - t0, warm_errors


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _inputs(workload, hs2, seed: int) -> dict:
    import pandas as pd
    import pyarrow
    import pyspark

    from perfbench.workloads import SF

    working_set = int(sum(
        f.memory_usage(deep=True).sum() for f in workload.live_tables().values()
    ))
    return {
        "workload": workload.name,
        "seed": seed,
        "sf": SF,
        "nproc": os.cpu_count(),
        "spark_master": f"local[{SPARK_CORES}]",
        "spark": pyspark.__version__,
        "pyarrow": pyarrow.__version__,
        "pandas": pd.__version__,
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "engine": hs2.config.name,
        "container_startup_s": hs2.config.container_startup_s,
        "result_cache": hs2.config.result_cache,
        "llap": hs2.config.llap,
        "llap_cache_bytes": hs2.config.llap_cache_bytes if hs2.config.llap else None,
        "working_set_bytes": working_set,
    }


def _metric(metrics: dict | None, name: str, value, unit: str, note: str = "") -> None:
    """Print one metric; it goes into the result only when ``metrics`` is
    given (the metrics BENCHMARK.json declares), else it is an info line."""
    kind = "metric" if metrics is not None else "info"
    if value is None:
        print(f"{kind} {name} = n/a {unit} {note}".rstrip())
        return
    if metrics is not None:
        metrics[name] = {"value": value, "unit": unit}
    print(f"{kind} {name} = {value:.6g} {unit} {note}".rstrip())


def _tail(name: str, values: list[float]) -> None:
    from perfbench.stats import tail

    t = tail(values)
    _metric(None, name, t and t[0], "s",
            f"(p{t[1]:.1f} of {t[2]} samples)" if t else f"({len(values)} samples: too few)")


def end_to_end(ph: Phase, setup_s: float, space_amp: float) -> dict:
    from perfbench.stats import median

    m: dict = {}
    reads, writes = ph.latencies["read"], ph.latencies["write"]
    _metric(m, "queries_per_s", ph.unit_rate(), "1/s",
            f"(median unit of {ph.units}; all {len(reads)} reads in {ph.busy_s:.2f} s of "
            f"statements: {len(reads) / ph.busy_s if ph.busy_s else 0:.4f} /s)")
    # the median and the tail are order statistics of a few different
    # statements and swing with any one of them; queries_per_s carries the
    # latency claim
    _metric(None, "query_p50_s", median(reads), "s", f"({len(reads)} samples)")
    _tail("query_tail_s", reads)
    if writes:
        _metric(None, "write_p50_s", median(writes), "s", f"({len(writes)} writes)")
        _tail("write_tail_s", writes)
    _metric(None, "failed_frac", ph.failed / max(ph.attempted, 1), "ratio",
            f"({ph.failed} of {ph.attempted} statements)")
    _metric(m, "setup_s", setup_s, "s")
    _metric(m, "peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    _metric(m, "space_amp", space_amp, "ratio")
    return m


def per_layer(ph: Phase, rec, hs2) -> dict:
    from perfbench.spans import blocking_path, layer_self_times

    """Times and counts are per unit (pass or cycle), ratios and the cache's
    size as measured."""
    m: dict = {}
    per = max(ph.units, 1)
    self_s = layer_self_times(rec.spans)
    for name in LAYER_SPANS:
        _metric(m, f"{name}_s", self_s.get(name, 0.0) / per, "s")
    read_file = [s for s in rec.spans if s.name == "llap.elevator.read_file"]
    _metric(m, "llap.elevator.read_file_busy_s",
            sum(s.end - s.start for s in read_file) / per, "s")

    c = ph.counters
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    _metric(m, "llap.elevator.row_groups_read", c["elevator.row_groups_read"] / per, "count")
    _metric(m, "llap.elevator.row_groups_skipped_frac",
            ratio(c["elevator.row_groups_skipped_minmax"] + c["elevator.row_groups_skipped_bloom"],
                  c["elevator.row_groups_total"]), "ratio")
    _metric(m, "llap.elevator.rows_filtered_runtime_bloom",
            c["elevator.rows_filtered_by_runtime_bloom"] / per, "count")
    _metric(m, "llap.cache.data_hit_ratio",
            ratio(c["cache.data_hits"], c["cache.data_hits"] + c["cache.data_misses"]), "ratio")
    _metric(m, "llap.cache.meta_hit_ratio",
            ratio(c["cache.meta_hits"], c["cache.meta_hits"] + c["cache.meta_misses"]), "ratio")
    # 0 on the listed workloads (bi_llap's working set fits the cache and it
    # does not write; etl_container has no LLAP), and no retry happens on
    # either: printed, not declared; etl_acid moves the first two
    _metric(None, "llap.cache.evictions", c["cache.evictions"], "count")
    _metric(None, "llap.cache.invalidations", c["cache.invalidations"], "count")
    _metric(None, "core.reopt.retries", ph.retries, "count")
    _metric(m, "llap.cache.used_bytes",
            hs2.daemon.cache.used_bytes if hs2.daemon is not None else 0, "bytes")
    _metric(m, "storage.reader.files_listed", rec.counts["storage.reader.files_listed"] / per,
            "count")
    _metric(m, "core.semijoin.engine_jobs", rec.counts["core.semijoin.engine_jobs"] / per,
            "count")
    _metric(m, "core.cache.hit_ratio", ratio(ph.cache_hits, len(ph.latencies["read"])), "ratio")
    rewrites = sum(1 for s in rec.spans if s.name == "core.mv.choose_rewrite")
    _metric(m, "core.mv.rewrite_ratio", ratio(rec.counts["core.mv.rewrites"], rewrites), "ratio")
    _metric(m, "druid.query.rows_out", rec.counts["druid.query.rows_out"] / per, "count")
    _metric(m, "core.sharedwork.shared_subtrees",
            rec.counts["core.sharedwork.shared_subtrees"] / per, "count")
    _metric(m, "storage.writer.bytes_written", c["writer.bytes_written"] / per, "bytes")
    _metric(m, "storage.compactor.bytes_rewritten", c["compactor.bytes_rewritten"] / per, "bytes")

    bp = blocking_path(rec.spans)
    _metric(m, "trace.coverage", ratio(bp["attributed_s"], bp["wall_s"]), "ratio",
            "(statement wall time inside named layers below the entry point)")
    _metric(m, "trace.overhead_frac", ratio(rec.overhead_s, ph.busy_s), "ratio",
            f"({rec.overhead_s:.3f} s inside the span wrappers; traced statements took "
            f"{ph.busy_s:.2f} s)")
    print(f"info blocking path: self times sum to {ratio(bp['blocking_s'], bp['wall_s']):.4f} "
          f"of statement wall time ({bp['wall_s']:.2f} s, {len(rec.spans)} spans)")
    return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _bootstrap()

    from perfbench.spans import Recorder, Tracer
    from perfbench.workloads import WORKLOADS, plain_parquet_bytes, warehouse_bytes

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    scratch = OUT / f"{tag}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)

    t0 = time.perf_counter()
    spark = _start_spark(scratch)
    spark_start_s = time.perf_counter() - t0
    hs2 = None
    try:
        hs2, wh, load_s, warm_s, warm_errors = _setup(workload, spark, scratch)
        print(f"info spark_start_s = {spark_start_s:.3f}; load_s = {load_s:.3f}; "
              f"warm_up_s = {warm_s:.3f} ({warm_errors} warm-up statements raised)")
        inputs = _inputs(workload, hs2, args.seed)
        print("inputs " + json.dumps(inputs))

        if args.trace:
            rec = Recorder()
            with Tracer(rec):
                ph = measure(workload, hs2, args.seconds, recorder=rec, warehouse=wh)
            metrics = per_layer(ph, rec, hs2)
            rec.write_jsonl(OUT / f"{tag}-spans.jsonl")
        else:
            ph = measure(workload, hs2, args.seconds)
            space_amp = warehouse_bytes(wh) / plain_parquet_bytes(
                workload.live_tables(), scratch / "plain"
            )
            metrics = end_to_end(ph, load_s + warm_s, space_amp)

        print("info statements: " + " ".join(f"{n}={dt:.3f}" for n, dt in ph.by_statement))
        for kind, n in ph.errors.most_common():
            print(f"failure {n} x {kind}")
        print(f"info oracle: {ph.reads_checked} reads matched DuckDB, {ph.wrong} wrong answers")
        (OUT / f"{tag}-inputs.json").write_text(json.dumps(inputs, indent=1) + "\n")
        result = {
            "correct": ph.wrong == 0 and ph.reads_checked > 0,
            "attempted": ph.attempted,
            "failed": ph.failed,
            "metrics": metrics,
        }
    finally:
        if hs2 is not None and hs2.daemon is not None:
            hs2.daemon.shutdown()
        _stop_spark(spark)
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

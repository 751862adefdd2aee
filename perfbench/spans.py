"""Span recorder and the per-layer wrappers the benchmark installs.

The recorder keeps every span in memory: name, start, end, parent span,
statement id and thread. Wrappers are installed from outside around the
public functions of each layer (the program itself is not edited) and
removed again after the traced phase. A span opened on an LLAP executor
thread gets its parent from the span that was open when the fragment was
submitted, so a scan's ``read_file`` calls are children of ``scan_table``
even though they run on other threads.

Self time of a span is its duration minus the part of its interval that
its children cover (the union of the children's intervals, clipped to the
parent), so parallel children on executor threads are not subtracted
twice.
"""
from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    stmt: int | None
    thread: int


class Recorder:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.overhead_s = 0.0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # the innermost open span and the statement it belongs to, per thread
    def context(self) -> tuple[int | None, int | None]:
        stack = getattr(self._local, "stack", None)
        return (stack[-1], self._local.stmt) if stack else (None, None)

    def begin_statement(self, stmt: int | None) -> None:
        self._local.stack = []
        self._local.stmt = stmt

    def adopt(self, ctx: tuple[int | None, int | None]) -> None:
        """Make ``ctx`` (from :meth:`context` on another thread) the parent
        of the spans this thread opens next."""
        parent, stmt = ctx
        self._local.stack = [parent] if parent is not None else []
        self._local.stmt = stmt

    def record(self, name: str, start: float, end: float, parent=None, stmt=None,
               overhead_since: float | None = None) -> None:
        """Store a span timed by the caller; ``overhead_since`` marks when
        the caller's own bookkeeping for it began."""
        with self._lock:
            sid = next(self._ids)
            self.spans.append(
                Span(sid, parent, name, start, end, stmt, threading.get_ident())
            )
            if overhead_since is not None:
                self.overhead_s += time.perf_counter() - overhead_since

    def call(self, name: str, fn, *args, **kwargs):
        entered = time.perf_counter()
        if not hasattr(self._local, "stack"):
            self.begin_statement(None)
        stack = self._local.stack
        parent = stack[-1] if stack else None
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    Span(sid, parent, name, t0, t1, self._local.stmt, threading.get_ident())
                )
                # the recorder's own time around the call: the tracing overhead
                self.overhead_s += (t0 - entered) + (time.perf_counter() - t1)

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s.__dict__) + "\n")


# -- self-time arithmetic ----------------------------------------------------


def union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _children(spans: list[Span]) -> dict[int | None, list[Span]]:
    kids: dict[int | None, list[Span]] = defaultdict(list)
    for s in spans:
        kids[s.parent].append(s)
    return kids


def self_times(spans: list[Span]) -> dict[int, float]:
    """sid → span duration minus the union of its children's intervals."""
    kids = _children(spans)
    out = {}
    for s in spans:
        covered = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in kids.get(s.sid, ())
            if c.end > s.start and c.start < s.end
        ]
        out[s.sid] = (s.end - s.start) - union_length(covered)
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Summed self time per span name (over all threads)."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += own[s.sid]
    return dict(out)


def blocking_path(spans: list[Span]) -> dict[str, float]:
    """Split the statements' wall time along the blocking path.

    A root span (no parent) is one statement. Spans on the root's thread
    block it for their self time; while one of them waits on children that
    run on other threads, the union of those children's intervals blocks
    it too. Returns the statements' summed wall time, the summed blocking
    self time (equal to the wall time when spans nest properly) and the
    part of the wall time that named layers below the statement's entry
    point account for."""
    own = self_times(spans)
    kids = _children(spans)
    wall = blocking = attributed = 0.0
    for root in kids.get(None, ()):
        dur = root.end - root.start
        wall += dur
        attributed += dur - own[root.sid]
        todo = [root]
        while todo:
            s = todo.pop()
            blocking += own[s.sid]
            off_thread = []
            for c in kids.get(s.sid, ()):
                if c.thread == root.thread:
                    todo.append(c)
                else:
                    off_thread.append((max(c.start, s.start), min(c.end, s.end)))
            blocking += union_length(off_thread)
    return {"wall_s": wall, "blocking_s": blocking, "attributed_s": attributed}


# -- wrappers ----------------------------------------------------------------


class Tracer:
    """Installs span wrappers around the layers' public functions.

    Use as a context manager: the wrappers exist only inside the ``with``
    block, so untraced runs execute the unmodified program."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self._undo: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def _span(self, owner, attr: str, name: str, on_result=None) -> None:
        rec = self.rec

        def make(fn):
            def wrapped(*args, **kwargs):
                out = rec.call(name, fn, *args, **kwargs)
                if on_result is not None:
                    on_result(out)
                return out

            return wrapped

        self._patch(owner, attr, make)

    def __enter__(self) -> "Tracer":
        import pyspark.sql.classic.dataframe as spark_df
        import pyspark.sql.session as spark_session

        import repro.core.cache as core_cache
        import repro.core.hs2 as hs2
        import repro.core.optimizer as optimizer
        import repro.core.semijoin as semijoin
        import repro.federation.handler as fed_handler
        import repro.federation.pushdown as pushdown
        import repro.llap.daemon as llap_daemon
        import repro.llap.elevator as elevator
        import repro.metastore.txn as txn
        import repro.storage.compactor as compactor
        import repro.storage.reader as reader
        import repro.storage.writer as writer

        rec = self.rec
        span = self._span
        HS2 = hs2.HiveServer2

        # statement entry points: a span with no parent is one statement
        for attr in ("execute", "insert", "delete_where", "update_where",
                     "merge", "rebuild_materialized_view"):
            span(HS2, attr, f"core.hs2.{attr}")
        span(hs2._HS2ExecutionContext, "resolve_scan", "core.hs2.resolve_scan")
        span(hs2._HS2ExecutionContext, "resolve_foreign", "core.hs2.resolve_foreign")
        span(core_cache.QueryResultCache, "lookup_or_begin", "core.cache.lookup")
        span(hs2, "choose_rewrite", "core.mv.choose_rewrite",
             lambda out: rec.count("core.mv.rewrites", out[1] is not None))
        span(optimizer.Optimizer, "optimize", "core.optimizer.optimize")
        span(pushdown, "push_to_druid", "federation.pushdown.push_to_druid")
        span(fed_handler, "execute_query", "druid.query.execute_query",
             lambda out: rec.count("druid.query.rows_out", len(out)))
        span(hs2, "apply_reduction", "core.semijoin.apply_reduction")
        # dimension sides the reducer compiles instead of collecting daemon-side
        span(semijoin, "compile_plan", "core.compile.compile_plan",
             lambda out: rec.count("core.semijoin.engine_jobs"))
        span(hs2, "find_shared_subtrees", "core.sharedwork.find_shared_subtrees",
             lambda out: rec.count("core.sharedwork.shared_subtrees", len(out)))
        span(hs2, "compile_plan", "core.compile.compile_plan")
        span(spark_session.SparkSession, "createDataFrame", "spark.create_dataframe")
        span(spark_df.DataFrame, "toPandas", "spark.to_pandas")
        span(llap_daemon.LlapDaemon, "scan_table", "llap.daemon.scan_table")
        span(elevator.IOElevator, "read_file", "llap.elevator.read_file")
        span(reader.AcidReader, "scan", "storage.reader.scan")
        span(reader.AcidReader, "visible_files", "storage.reader.visible_files",
             lambda out: rec.count("storage.reader.files_listed", len(out[0]) + len(out[1])))
        for attr in ("insert", "delete", "update"):
            span(writer.AcidWriter, attr, f"storage.writer.{attr}")
        span(txn.TxnManager, "commit", "metastore.txn.commit")
        for attr in ("maybe_compact", "major_compact", "minor_compact"):
            span(compactor.Compactor, attr, "storage.compactor.compact")
        span(compactor.Compactor, "clean", "storage.compactor.clean")

        def submit(fn):
            # the fragment runs on an executor thread: carry the submitting
            # span over, and record the wait from submission to start
            def wrapped(daemon, task, *args, **kwargs):
                submitted = time.perf_counter()
                ctx = rec.context()

                def run(*a, **k):
                    started = time.perf_counter()
                    rec.adopt(ctx)
                    rec.record("llap.daemon.fragment_wait", submitted, started, *ctx,
                               overhead_since=started)
                    return task(*a, **k)

                return fn(daemon, run, *args, **kwargs)

            return wrapped

        self._patch(llap_daemon.LlapDaemon, "submit_fragment", submit)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

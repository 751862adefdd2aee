"""Query reoptimization (§4.2): the retryable execution error.

Hive re-plans a failed query with the runtime statistics its execution
captured. This repository reproduces that ``reoptimize`` strategy in
``HiveServer2._run``: when an attempt raises :class:`ExecutionError`, the
error's observed row counts override the HMS-based estimates (via
:attr:`repro.core.cost.CostModel.overrides`) when the query is prepared
again, so the second round corrects join-order mistakes caused by bad
estimates. Hive's other strategy, re-running under a fixed configuration
(say, every join a shuffle join), is not reproduced: no operator here
reads such a configuration, because Spark picks the join algorithms.
"""
from __future__ import annotations

__all__ = ["ExecutionError"]


class ExecutionError(RuntimeError):
    """A retryable runtime failure (simulated OOM, bad join choice, ...).

    ``runtime_stats`` maps plan-node fingerprints to observed row counts —
    Hive persists these per-operator counters for reoptimization.
    """

    def __init__(self, message: str, runtime_stats: dict[str, float] | None = None):
        super().__init__(message)
        self.runtime_stats = runtime_stats or {}

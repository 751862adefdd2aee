"""SQL feature gating and engine-version presets (§7.1).

Figure 7's baseline is Hive v1.2, which could run only 50 of the 99 TPC-DS
queries because it lacked: set operations (EXCEPT/INTERSECT), correlated
scalar subqueries with non-equi join conditions, interval notation, and
ORDER BY unselected columns — and it predates the CBO-era optimizations,
ACID v2, LLAP, result caching and materialized views.

Queries in the workloads are tagged with the SQL features they require.
An :class:`EngineConfig` makes one version decision — ``legacy`` selects
v1.2's gated SQL, rule-based optimizer and no MV rewriting, semijoin
reduction or reoptimization, all together, as the Figure 7 baseline had
them — plus the runtime choices the experiments vary independently:
LLAP vs containers, the result cache and shared work. "Hive v1.2" and
"Hive v3.1" are thus two configurations of the same codebase.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = [
    "CONTAINER_STARTUP_S",
    "SQLFeature",
    "UnsupportedSQLError",
    "EngineConfig",
]

# Simulated YARN container allocation paid once per container-mode query: a
# calibration constant (EXPERIMENTS.md). Real allocations on a busy cluster
# take 0.5–5 s; LLAP daemons are persistent and pay nothing (§5.1).
CONTAINER_STARTUP_S = 0.5


class SQLFeature:
    """Feature tags used by workload queries (a subset of §7.1's list)."""

    INTERSECT = "intersect"
    EXCEPT = "except"
    CORRELATED_SCALAR_SUBQUERY = "correlated_scalar_subquery_non_equi"
    INTERVAL_NOTATION = "interval_notation"
    ORDER_BY_UNSELECTED = "order_by_unselected"
    GROUPING_SETS = "grouping_sets"

    V12_MISSING = frozenset(
        {
            INTERSECT,
            EXCEPT,
            CORRELATED_SCALAR_SUBQUERY,
            INTERVAL_NOTATION,
            ORDER_BY_UNSELECTED,
            GROUPING_SETS,
        }
    )


class UnsupportedSQLError(RuntimeError):
    """Raised when a query needs SQL features the engine version lacks."""


@dataclass(frozen=True)
class EngineConfig:
    name: str
    legacy: bool = False  # Hive v1.2: see the module docstring
    result_cache: bool = True
    shared_work: bool = True
    # runtime
    llap: bool = True
    container_startup_s: float = CONTAINER_STARTUP_S  # paid per container-mode query
    llap_cache_bytes: int = 512 * 1024 * 1024

    @classmethod
    def v3_1(cls, **overrides) -> "EngineConfig":
        """Hive v3.1 with LLAP: everything in the paper enabled."""
        return replace(cls(name="v3.1"), **overrides)

    @classmethod
    def v3_1_container(cls, **overrides) -> "EngineConfig":
        """Hive v3.1 on plain containers — the Table 1 comparison arm."""
        return replace(cls(name="v3.1-container", llap=False), **overrides)

    @classmethod
    def v1_2(cls, **overrides) -> "EngineConfig":
        """Hive v1.2 on Tez 0.5: gated SQL, rule-based optimizer only, no
        LLAP/caches/MV/semijoin/shared-work, and the first-generation
        reader overhead (modelled by the per-query container start-up)."""
        base = cls(
            name="v1.2",
            legacy=True,
            result_cache=False,
            shared_work=False,
            llap=False,
        )
        return replace(base, **overrides)

    def check_features(self, required: frozenset[str]) -> None:
        missing = (required & SQLFeature.V12_MISSING) if self.legacy else frozenset()
        if missing:
            raise UnsupportedSQLError(
                f"engine {self.name!r} does not support: {sorted(missing)}"
            )

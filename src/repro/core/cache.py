"""Query result cache (§4.3).

Each HS2 instance keeps a map from the resolved query representation (here:
the plan fingerprint — names are already resolved in the plan, covering the
paper's point about unqualified table references) to the cached result plus
the WriteId lists of the statement that computed it. A hit is only served
to a statement with the same lists for the participating tables (passed
in by HiveServer2; the cache takes no snapshot) — it would read exactly
the rows the result reflects, the check transactional consistency allows.
A miss leaves the entry for later statements, and a fill from an older
snapshot does not replace an entry that sees more.

Also implemented:

* cacheability: plans containing non-deterministic (``rand``) or
  runtime-constant (``current_date``/``current_timestamp``) functions are
  never cached;
* the *pending entry* mode: when several identical queries miss at once
  (thundering herd after a data update), only the first computes; the
  others block on the pending entry and are served from the refilled cache;
* LRU capacity eviction.
"""
from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import pandas as pd

from repro.core.expr import NON_DETERMINISTIC_FUNCS, RUNTIME_CONSTANT_FUNCS
from repro.core.plan import Plan
from repro.metastore import ValidWriteIdList

__all__ = ["CacheEntry", "QueryResultCache"]


@dataclass
class CacheEntry:
    result: pd.DataFrame
    lists: dict[str, ValidWriteIdList]  # the computing statement's lists


class QueryResultCache:
    def __init__(self, capacity: int = 64):
        self.capacity = capacity
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        self._pending: dict[str, threading.Event] = {}
        self._mutex = threading.Lock()

    @staticmethod
    def is_cacheable(plan: Plan) -> bool:
        banned = NON_DETERMINISTIC_FUNCS | RUNTIME_CONSTANT_FUNCS
        return not (plan.function_names() & banned)

    # -- main API ----------------------------------------------------------

    def lookup(self, plan: Plan, lists: dict[str, ValidWriteIdList]) -> pd.DataFrame | None:
        """A hit requires an entry computed under the probing statement's
        WriteId ``lists`` for ``plan``'s tables."""
        fp = plan.fingerprint()
        with self._mutex:
            entry = self._entries.get(fp)
            # a mismatched entry is kept: it may be fresh for later statements
            if entry is None or entry.lists != lists:
                return None
            self._entries.move_to_end(fp)
            return entry.result

    def lookup_or_begin(
        self, plan: Plan, lists: dict[str, ValidWriteIdList]
    ) -> tuple[str, object]:
        """Thundering-herd entry point.

        Returns ``("hit", result)``, ``("compute", None)`` — the caller must
        run the query and call :meth:`fill` (or :meth:`fail`) — or
        ``("wait", event)`` — another identical query is already computing;
        wait on the event then call :meth:`lookup` again.
        """
        result = self.lookup(plan, lists)
        if result is not None:
            return "hit", result
        if not self.is_cacheable(plan):
            return "compute", None
        fp = plan.fingerprint()
        with self._mutex:
            ev = self._pending.get(fp)
            if ev is not None:
                return "wait", ev
            self._pending[fp] = threading.Event()
            return "compute", None

    def fill(
        self, plan: Plan, result: pd.DataFrame, lists: dict[str, ValidWriteIdList]
    ) -> None:
        """Store a result computed under ``lists`` (if cacheable) unless the
        entry there already sees all they see; wakes waiters."""
        fp = plan.fingerprint()
        if self.is_cacheable(plan):
            with self._mutex:
                old = self._entries.get(fp)
                if old is None or not all(old.lists[t].sees_all_of(l) for t, l in lists.items()):
                    self._entries[fp] = CacheEntry(result=result, lists=dict(lists))
                self._entries.move_to_end(fp)
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)  # LRU eviction
        self._release_pending(fp)

    def fail(self, plan: Plan) -> None:
        """The computing query errored; release waiters so one can retry."""
        self._release_pending(plan.fingerprint())

    def _release_pending(self, fp: str) -> None:
        with self._mutex:
            ev = self._pending.pop(fp, None)
        if ev is not None:
            ev.set()

    # -- maintenance -------------------------------------------------------

    def clear(self) -> None:
        with self._mutex:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

"""LLAP data and metadata caches (§5.1).

The data cache is addressed along two dimensions — row groups and columns —
so the unit of caching/eviction is a row-column *chunk* (Figure 5). Chunks
are pandas column slices of one file row group. Eviction uses the LRFU
policy. For validity in the presence of file updates the cache records an
ETag-style file version (size + mtime); ACID tables never rewrite files in
place (new deltas are new files), so adding data to a table does not
invalidate existing chunks — the cache behaves as an MVCC view whose
visibility is controlled by the query's WriteId snapshot, exactly the
paper's point about transactional file-level visibility.

The metadata cache holds each file's own row-group metadata — row counts
and min/max from the Parquet footer, plus the Bloom filters of the sidecar
where the table configures them — populated in bulk on first access so
predicate evaluation can decide which chunks to load *before* any data miss
("avoids trashing the cache" with unneeded chunks), like LLAP caching ORC
footers and indexes.

The daemon's executor threads share one cache, so one lock guards the
chunk map, the metadata map and the LRFU policy.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

import pandas as pd

from repro.llap.lrfu import LRFUPolicy
from repro.storage.layout import FileMeta, read_file_meta

__all__ = ["ChunkKey", "FileVersion", "LlapCache"]


@dataclass(frozen=True)
class ChunkKey:
    file: str
    row_group: int
    column: str


@dataclass(frozen=True)
class FileVersion:
    """ETag equivalent: unique id for a file's contents (§5.1)."""

    size: int
    mtime_ns: int

    @classmethod
    def of(cls, path: str | Path) -> "FileVersion":
        st = os.stat(path)
        return cls(st.st_size, st.st_mtime_ns)


@dataclass
class _Chunk:
    data: pd.Series
    nbytes: int
    version: FileVersion


@dataclass
class CacheStats:
    data_hits: int = 0
    data_misses: int = 0
    meta_hits: int = 0
    meta_misses: int = 0
    evictions: int = 0
    invalidations: int = 0


@dataclass
class LlapCache:
    capacity_bytes: int = 256 * 1024 * 1024
    lam: float = 0.2
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self._chunks: dict[ChunkKey, _Chunk] = {}
        self._policy = LRFUPolicy(self.lam)
        self._bytes = 0
        self._meta: dict[str, tuple[FileMeta, FileVersion]] = {}
        self._lock = threading.Lock()

    # -- data chunks -------------------------------------------------------

    def get_chunk(self, key: ChunkKey) -> pd.Series | None:
        with self._lock:
            chunk = self._chunks.get(key)
            if chunk is None:
                self.stats.data_misses += 1
                return None
            current = FileVersion.of(key.file) if os.path.exists(key.file) else None
            if current != chunk.version:
                self._drop(key)
                self.stats.invalidations += 1
                self.stats.data_misses += 1
                return None
            self.stats.data_hits += 1
            self._policy.record_access(key)
            return chunk.data

    def put_chunk(self, key: ChunkKey, data: pd.Series) -> None:
        nbytes = int(data.memory_usage(deep=True))
        if nbytes > self.capacity_bytes:
            return  # never cache a chunk larger than the whole budget
        version = FileVersion.of(key.file)
        with self._lock:
            if key in self._chunks:
                self._drop(key)
            while self._bytes + nbytes > self.capacity_bytes:
                victim = self._policy.evict_candidate()
                if victim is None:
                    break
                self._drop(victim)
                self.stats.evictions += 1
            self._chunks[key] = _Chunk(data, nbytes, version)
            self._bytes += nbytes
            self._policy.record_access(key)

    def _drop(self, key: ChunkKey) -> None:
        chunk = self._chunks.pop(key, None)
        if chunk is not None:
            self._bytes -= chunk.nbytes
        self._policy.remove(key)

    # -- metadata ----------------------------------------------------------

    def get_meta(self, file: str | Path) -> FileMeta:
        f = str(file)
        with self._lock:
            entry = self._meta.get(f)
            if entry is not None:
                meta, version = entry
                if FileVersion.of(f) == version:
                    self.stats.meta_hits += 1
                    return meta
                del self._meta[f]
                self.stats.invalidations += 1
            self.stats.meta_misses += 1
            meta = read_file_meta(Path(f))
            self._meta[f] = (meta, FileVersion.of(f))
            return meta

    # -- introspection -----------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._chunks)

    def clear(self) -> None:
        with self._lock:
            self._chunks.clear()
            self._meta.clear()
            self._policy = LRFUPolicy(self.lam)
            self._bytes = 0

"""LLAP substrate: LRFU cache, I/O elevator, persistent-executor daemon."""
from .cache import ChunkKey, FileVersion, LlapCache
from .daemon import LlapDaemon
from .elevator import ElevatorStats, IOElevator
from .lrfu import LRFUPolicy

__all__ = [
    "ChunkKey",
    "FileVersion",
    "LlapCache",
    "LlapDaemon",
    "ElevatorStats",
    "IOElevator",
    "LRFUPolicy",
]

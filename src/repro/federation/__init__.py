"""Federation layer: storage handlers and Calcite-style pushdown (§6)."""
from .handler import DruidStorageHandler, StorageHandler
from .pushdown import push_to_druid

__all__ = ["DruidStorageHandler", "StorageHandler", "push_to_druid"]

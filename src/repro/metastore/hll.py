"""HyperLogLog sketch for mergeable NDV statistics.

The paper (§4.1) stores the number-of-distinct-values statistic in HMS as a
HyperLogLog++-style bit array "which can be combined without loss of
approximation accuracy". This module implements a dense HyperLogLog with the
HLL++ small-range bias correction replaced by linear counting (the classic
Flajolet correction), which is what matters at the cardinalities exercised
here. Registers merge by element-wise max, so sketches built per partition or
per insert batch combine additively — exactly the property HMS relies on.
"""
from __future__ import annotations

import hashlib
import math
from typing import Iterable

import numpy as np

__all__ = ["HyperLogLog"]


def _alpha(m: int) -> float:
    """Bias-correction constant for ``m`` registers (Flajolet et al.)."""
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1 + 1.079 / m)


class HyperLogLog:
    """Dense HyperLogLog with ``2**p`` one-byte registers.

    ``p`` = 12 (4096 registers) gives ~1.6 % standard error, comfortably
    within what a cost model needs. Values are hashed with SHA1 so arbitrary
    Python/NumPy scalars are accepted; NaN/None are ignored (SQL NDV ignores
    NULLs).
    """

    __slots__ = ("p", "m", "registers")

    def __init__(self, p: int = 12, registers: np.ndarray | None = None):
        if not 4 <= p <= 18:
            raise ValueError(f"p must be in [4, 18], got {p}")
        self.p = p
        self.m = 1 << p
        if registers is None:
            self.registers = np.zeros(self.m, dtype=np.uint8)
        else:
            if registers.shape != (self.m,):
                raise ValueError("registers shape mismatch")
            self.registers = registers.astype(np.uint8, copy=True)

    # -- construction -----------------------------------------------------

    @classmethod
    def of(cls, values: Iterable, p: int = 12) -> "HyperLogLog":
        h = cls(p)
        h.add_all(values)
        return h

    def _hash(self, value) -> int:
        if isinstance(value, float) and math.isnan(value):
            return -1
        b = repr(value).encode()
        return int.from_bytes(hashlib.sha1(b).digest()[:8], "big")

    def add(self, value) -> None:
        """Insert one value; ``None``/NaN are skipped (NULL semantics)."""
        if value is None:
            return
        hv = self._hash(value)
        if hv < 0:
            return
        idx = hv >> (64 - self.p)
        rest = hv & ((1 << (64 - self.p)) - 1)
        # rank = position of leftmost 1-bit in the remaining 64-p bits.
        rank = (64 - self.p) - rest.bit_length() + 1
        if rank > self.registers[idx]:
            self.registers[idx] = rank

    def add_all(self, values: Iterable) -> None:
        for v in values:
            self.add(v)

    # -- estimation -------------------------------------------------------

    def cardinality(self) -> int:
        regs = self.registers.astype(np.float64)
        est = _alpha(self.m) * self.m * self.m / np.sum(np.power(2.0, -regs))
        if est <= 2.5 * self.m:
            zeros = int(np.count_nonzero(self.registers == 0))
            if zeros:
                est = self.m * math.log(self.m / zeros)
        return int(round(est))

    # -- merge ------------------------------------------------------------

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        """Lossless combine: element-wise max of registers (same ``p`` only)."""
        if self.p != other.p:
            raise ValueError("cannot merge sketches with different precision")
        return HyperLogLog(self.p, np.maximum(self.registers, other.registers))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HyperLogLog)
            and self.p == other.p
            and bool(np.array_equal(self.registers, other.registers))
        )

    def __repr__(self) -> str:
        return f"HyperLogLog(p={self.p}, ndv~{self.cardinality()})"

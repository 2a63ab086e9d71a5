"""Fixed-capacity FIFO store of unit-norm embedding rows (MoCo negatives)."""

from __future__ import annotations

import numpy as np

from .errors import DimMismatch, NormViolation
from .numerics import row_norms

DEFAULT_CAPACITY = 1024
NORM_TOL = 1e-9


class EmbeddingQueue:
    """Ring buffer of row vectors. Enqueueing past capacity evicts exactly
    the oldest rows; snapshots are oldest-first immutable copies."""

    def __init__(self, capacity: int, dim: int):
        if capacity < 1 or dim < 1:
            raise ValueError("capacity and dim must be positive")
        self.capacity = int(capacity)
        self.dim = int(dim)
        self._buf = np.zeros((self.capacity, self.dim))
        self._start = 0
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def enqueue(self, batch: np.ndarray) -> "EmbeddingQueue":
        if batch.ndim != 2 or batch.shape[1] != self.dim:
            raise DimMismatch(f"batch {batch.shape} vs queue dim {self.dim}")
        n = batch.shape[0]
        if n == 0:
            return self
        dev = float(np.max(np.abs(row_norms(batch) - 1.0)))
        if dev > NORM_TOL:
            raise NormViolation(f"enqueued row off unit norm by {dev:.3e}")
        if n >= self.capacity:
            self._buf[...] = batch[n - self.capacity:]
            self._start = 0
            self._len = self.capacity
            return self
        pos = (self._start + self._len + np.arange(n)) % self.capacity
        self._buf[pos] = batch
        overflow = self._len + n - self.capacity
        if overflow > 0:
            self._start = (self._start + overflow) % self.capacity
            self._len = self.capacity
        else:
            self._len += n
        return self

    def snapshot(self) -> np.ndarray:
        """len x dim copy, oldest first; empty (0, dim) matrix when empty."""
        idx = (self._start + np.arange(self._len)) % self.capacity
        return self._buf[idx].copy()

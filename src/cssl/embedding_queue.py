"""Fixed-capacity FIFO store of unit-norm embedding rows (MoCo negatives)."""

from __future__ import annotations

import numpy as np

from .errors import CsslError
from .numerics import check_unit_rows


class EmbeddingQueue:
    """Row vectors in one oldest-first array. Enqueueing past capacity
    evicts exactly the oldest rows. Each enqueue stores a new read-only
    array, so a snapshot is the stored array itself and never changes."""

    def __init__(self, capacity: int, dim: int):
        if capacity < 1 or dim < 1:
            raise CsslError("capacity and dim must be positive")
        self.capacity = int(capacity)
        self.dim = int(dim)
        self._rows = np.zeros((0, self.dim))

    def __len__(self) -> int:
        return self._rows.shape[0]

    def enqueue(self, batch: np.ndarray) -> "EmbeddingQueue":
        if batch.ndim != 2 or batch.shape[1] != self.dim:
            raise CsslError(f"batch {batch.shape} vs queue dim {self.dim}")
        if batch.shape[0] == 0:
            return self
        check_unit_rows(batch, "enqueued batch")
        rows = np.concatenate([self._rows, batch])[-self.capacity:]
        rows.flags.writeable = False
        self._rows = rows
        return self

    def snapshot(self) -> np.ndarray:
        """len x dim rows, oldest first, read-only; (0, dim) when empty."""
        return self._rows

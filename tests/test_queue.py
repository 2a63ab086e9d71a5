"""Embedding queue (one oldest-first array) against a naive list reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cssl.embedding_queue import EmbeddingQueue
from cssl.errors import CsslError
from cssl.numerics import Rng, row_l2_normalize

from reference import naive_fifo


def unit_batch(rng, n, d=4):
    return row_l2_normalize(rng.gaussian_matrix(n, d))


class TestBasics:
    def test_fifo_eviction(self):
        q = EmbeddingQueue(4, 3)
        rng = Rng(1)
        first = unit_batch(rng, 3, 3)
        second = unit_batch(rng, 3, 3)
        q.enqueue(first)
        q.enqueue(second)
        snap = q.snapshot()
        want = np.vstack([first, second])[-4:]
        np.testing.assert_array_equal(snap, want)

    def test_empty_enqueue_noop(self):
        q = EmbeddingQueue(4, 3)
        q.enqueue(unit_batch(Rng(2), 2, 3))
        before = q.snapshot()
        q.enqueue(np.zeros((0, 3)))
        np.testing.assert_array_equal(q.snapshot(), before)
        assert len(q) == 2

    def test_paper_scale_capacity_counting(self):
        q = EmbeddingQueue(65536, 4)
        rng = Rng(3)
        batch = unit_batch(rng, 128, 4)
        for _ in range(100):
            q.enqueue(batch)
        assert len(q) == 12800

    def test_empty_snapshot_shape(self):
        q = EmbeddingQueue(8, 5)
        assert q.snapshot().shape == (0, 5)

    def test_snapshot_isolation(self):
        q = EmbeddingQueue(4, 3)
        rng = Rng(4)
        q.enqueue(unit_batch(rng, 2, 3))
        snap = q.snapshot()
        digest = snap.tobytes()
        q.enqueue(unit_batch(rng, 4, 3))
        assert snap.tobytes() == digest
        with pytest.raises(ValueError):
            snap[0, 0] = 0.0  # read-only

    def test_dim_mismatch(self):
        q = EmbeddingQueue(4, 3)
        with pytest.raises(CsslError, match=r"\(2, 5\) vs queue dim 3"):
            q.enqueue(np.ones((2, 5)))

    def test_norm_violation(self):
        q = EmbeddingQueue(4, 3)
        with pytest.raises(CsslError, match="enqueued batch: row norm off unit by"):
            q.enqueue(np.ones((2, 3)))

    def test_nan_row_rejected(self):
        q = EmbeddingQueue(4, 3)
        batch = unit_batch(Rng(6), 2, 3)
        batch[1, 0] = np.nan
        with pytest.raises(CsslError, match=(
                "^enqueued batch: row norm off unit by nan$")):
            q.enqueue(batch)
        assert len(q) == 0

    def test_oversized_batch_keeps_tail(self):
        q = EmbeddingQueue(3, 2)
        batch = row_l2_normalize(Rng(5).gaussian_matrix(7, 2))
        q.enqueue(batch)
        np.testing.assert_array_equal(q.snapshot(), batch[-3:])


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12),
           st.lists(st.integers(0, 9), min_size=1, max_size=20),
           st.integers(0, 10_000))
    def test_random_sequences(self, capacity, batch_sizes, seed):
        q = EmbeddingQueue(capacity, 3)
        enq, snap = naive_fifo(capacity)
        rng = Rng(seed)
        for n in batch_sizes:
            batch = unit_batch(rng, n, 3) if n else np.zeros((0, 3))
            q.enqueue(batch)
            enq(batch)
            assert len(q) <= capacity
            ours = q.snapshot()
            theirs = snap()
            assert ours.shape[0] == theirs.shape[0]
            if ours.shape[0]:
                np.testing.assert_array_equal(ours, theirs)

    def test_monotone_length_until_pinned(self):
        q = EmbeddingQueue(10, 2)
        rng = Rng(7)
        lengths = []
        for _ in range(12):
            q.enqueue(unit_batch(rng, 2, 2))
            lengths.append(len(q))
        grown = lengths[:5]
        assert grown == sorted(grown)
        assert all(l == 10 for l in lengths[5:])

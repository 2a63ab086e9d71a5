"""Numerics module: normalization, logsumexp, FD oracle, RNG; heap reuse."""

import platform
import resource
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cssl.errors import CsslError, DivergenceDetected
from cssl.numerics import (
    _FNV_CHUNK,
    _TAG_HASHES,
    Rng,
    as_matrix,
    finite_difference_gradient,
    fnv1a64,
    logsumexp_rows,
    row_l2_normalize,
    row_l2_normalize_backward,
    row_norms,
)
from reference import fisher_yates, fnv1a64_loop


class TestRowNormalize:
    def test_three_four_five(self):
        out = row_l2_normalize(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[0.6, 0.8]], rtol=0, atol=1e-15)

    def test_axis_vectors(self):
        out = row_l2_normalize(np.array([[1.0, 0.0], [0.0, 2.0]]))
        np.testing.assert_array_equal(out, [[1.0, 0.0], [0.0, 1.0]])

    def test_random_rows_unit_norm(self):
        m = Rng(3).gaussian_matrix(4, 8)
        out = row_l2_normalize(m)
        # independent summation order for the norm check
        for i in range(4):
            acc = 0.0
            for k in range(8):
                acc += out[i, k] * out[i, k]
            assert abs(np.sqrt(acc) - 1.0) < 1e-12

    def test_direction_preserved(self):
        m = Rng(5).gaussian_matrix(6, 3)
        out = row_l2_normalize(m)
        cos = np.sum(out * m, axis=1) / row_norms(m)
        np.testing.assert_allclose(cos, 1.0, atol=1e-12)

    def test_zero_row_raises(self):
        with pytest.raises(DivergenceDetected, match="row 0 has norm 0.000e"):
            row_l2_normalize(np.array([[0.0, 0.0], [1.0, 0.0]]))

    def test_idempotent_bitwise(self):
        m = Rng(11).gaussian_matrix(5, 7)
        once = row_l2_normalize(m)
        twice = row_l2_normalize(once)
        assert np.max(np.abs(twice - once)) < 1e-15

    def test_backward_matches_fd(self):
        rng = Rng(17)
        raw = rng.gaussian_matrix(4, 5)
        w = rng.gaussian_matrix(4, 5)

        def f(x):
            return float(np.sum(row_l2_normalize(x) * w))

        fd = finite_difference_gradient(f, raw)
        analytic = row_l2_normalize_backward(raw, w)
        assert np.max(np.abs(analytic - fd)) < 1e-8


class TestLogsumexp:
    """The row-wise logsumexp on single rows, read as mx + log(row sum)."""

    @staticmethod
    def lse(values) -> float:
        m = np.array([values], dtype=np.float64)
        mx = logsumexp_rows(m, True)
        return float(mx[0] + np.log(m.sum()))

    def test_two_zeros(self):
        assert self.lse([0.0, 0.0]) == pytest.approx(np.log(2), abs=1e-15)

    def test_single_element_exact(self):
        for x in (-3.5, 0.0, 1234.5678):
            assert self.lse([x]) == x

    def test_no_overflow(self):
        assert self.lse([1000.0, 1000.0]) == pytest.approx(
            1000.0 + np.log(2), abs=1e-12)

    def test_empty_raises(self):
        for shift in (True, False):
            with pytest.raises(CsslError, match="logsumexp over zero columns"):
                logsumexp_rows(np.zeros((1, 0)), shift)

    def test_leaves_shifted_exp_in_place(self):
        m = Rng(3).gaussian_matrix(4, 7)
        m[1, 2] = -np.inf
        mx = np.max(m, axis=1, keepdims=True)
        want = mx + np.log(np.sum(np.exp(m - mx), axis=1, keepdims=True))
        shifted, unshifted = np.exp(m - mx), np.exp(m)
        m0 = m.copy()
        got_mx = logsumexp_rows(m, True)
        total = m.sum(axis=1)
        assert np.max(np.abs(got_mx + np.log(total) - want[:, 0])) <= 1e-15
        assert np.max(np.abs(m - shifted)) <= 1e-15
        assert m[1, 2] == 0.0
        assert np.all(np.max(m, axis=1) == 1.0)
        probs = m / total[:, None]
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-15
        single = np.array([[-3.5], [1234.5678]])
        logsumexp_rows(single, True)
        assert np.all(single == 1.0)
        # Unshifted, the entries are plain exp and the shift reads 0.
        np.testing.assert_array_equal(logsumexp_rows(m0, False), 0.0)
        np.testing.assert_array_equal(m0, unshifted)
        assert m0[1, 2] == 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=30))
    def test_bounds(self, vals):
        out = self.lse(vals)
        assert out >= max(vals) - 1e-12
        assert out <= max(vals) + np.log(len(vals)) + 1e-12


class TestFiniteDifference:
    def test_quadratic(self):
        grad = finite_difference_gradient(
            lambda m: float(np.sum(m * m)), np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(grad, [[2.0, 4.0]], atol=1e-8)

    def test_constant(self):
        grad = finite_difference_gradient(lambda m: 7.5, np.ones((2, 3)))
        np.testing.assert_array_equal(grad, np.zeros((2, 3)))

    def test_non_finite_raises(self):
        with pytest.raises(CsslError, match="non-finite at entry 0"):
            finite_difference_gradient(
                lambda m: float("nan"), np.ones((1, 1)))


class TestMatrixValidation:
    def test_non_finite_rejected(self):
        with pytest.raises(CsslError, match="contains NaN or Inf"):
            as_matrix([[1.0, np.inf]])

    def test_wrong_ndim_rejected(self):
        with pytest.raises(CsslError, match="expected 2-D array, got ndim=1"):
            as_matrix([1.0, 2.0])


class TestRng:
    def test_gaussian_deterministic(self):
        a = Rng(42).gaussian(3)
        b = Rng(42).gaussian(3)
        np.testing.assert_array_equal(a, b)

    def test_gaussian_moments(self):
        x = Rng(7).gaussian(10000)
        assert abs(x.mean()) < 0.05
        assert abs(x.std() - 1.0) < 0.05

    def test_uniform_range_and_determinism(self):
        u = Rng(9).uniform(1000)
        assert u.min() >= 0.0 and u.max() < 1.0
        np.testing.assert_array_equal(u, Rng(9).uniform(1000))

    def test_derive_independent_of_position(self):
        root = Rng(5)
        before = root.derive("child").gaussian(4)
        root.gaussian(100)  # advance the parent
        after = root.derive("child").gaussian(4)
        np.testing.assert_array_equal(before, after)

    def test_derive_pinned(self):
        assert Rng(1).derive("init").seed == 0xEFA899DF6E17081B
        assert Rng(42).derive("synthetic-data").seed == 0xF23F0D421BD3F7CE
        assert Rng(2**64 - 1).derive("task-3").seed == 0x6369535BF56C1850

    def test_derive_pinned_through_the_tag_cache(self):
        # Rng.derive memoizes its tag hashes in a bounded cache: a tag
        # read from it, one it evicted and one it never held all derive
        # the pinned seeds.
        self.test_derive_pinned()
        self.test_derive_pinned()
        for i in range(_TAG_HASHES + 1):
            Rng(0).derive(f"filler-{i}")
        self.test_derive_pinned()

    def test_derive_distinct_tags(self):
        root = Rng(5)
        a = root.derive("a").gaussian(4)
        b = root.derive("b").gaussian(4)
        assert np.max(np.abs(a - b)) > 1e-6

    def test_permutation_is_permutation(self):
        for n in (0, 1, 2, 17):
            p = Rng(3).permutation(n)
            assert sorted(p.tolist()) == list(range(n))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 400, 4000])
    def test_permutation_matches_element_swaps(self, n):
        for seed in (0, 1, 8, 2**64 - 1):
            rng, oracle = Rng(seed), Rng(seed)
            got, want = rng.permutation(n), fisher_yates(oracle, n)
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)
            assert rng._state == oracle._state

    def test_permutation_deterministic(self):
        np.testing.assert_array_equal(Rng(8).permutation(50),
                                      Rng(8).permutation(50))

    def test_known_splitmix_reference(self):
        # SplitMix64 reference outputs for seed 0 (Steele et al. constants).
        got = [int(x) for x in Rng(0)._next_block(3)]
        assert got == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                       0x06C45D188009454F]


class TestFnv:
    def test_known_vectors(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"hello") == 0xA430D84680AABD0B

    @pytest.mark.parametrize("n", [0, 1, 2, 255, _FNV_CHUNK - 1, _FNV_CHUNK,
                                   _FNV_CHUNK + 1, 3 * _FNV_CHUNK + 17])
    def test_matches_byte_loop(self, n):
        noise = Rng(n)._next_block(n // 8 + 1).astype("<u8").tobytes()[:n]
        for data in (noise, b"\x00" * n, b"\xff" * n):
            assert fnv1a64(data) == fnv1a64_loop(data)

    def test_one_megabyte_pinned(self):
        data = Rng(18)._next_block(1 << 17).astype("<u8").tobytes()
        assert fnv1a64(data) == 0x50EAE7B414299068

    def test_no_warnings(self):
        # numpy warns when a product of uint64 scalars wraps.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fnv1a64(b"\xff" * (_FNV_CHUNK + 3))
            Rng(2**64 - 1).derive("task-3")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc only")
class TestHeap:
    def test_freed_blocks_stay_in_the_heap(self):
        # Importing cssl fixes glibc's thresholds. Under the dynamic ones,
        # three 8 MB blocks freed together trim the heap top, and the next
        # allocation faults every page back in.
        def cycle():
            blocks = [np.ones(1 << 20) for _ in range(3)]
            del blocks

        cycle()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(10):
            cycle()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 1000, f"{faults} page faults over 10 cycles"

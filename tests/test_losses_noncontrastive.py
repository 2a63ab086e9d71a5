"""BYOL / VICReg / Barlow objectives and their pseudo-negative regularizer."""

from dataclasses import replace

import numpy as np
import pytest

from cssl.errors import CsslError
from cssl.gradcheck import check_param_gradients, random_views
from cssl.losses import (
    ContrastiveViews,
    Method,
    PnrConfig,
    Regime,
    barlow_loss,
    byol_loss,
    noncontrastive_pnr_total,
    pnr_regularizer,
    vicreg_loss,
)
from cssl.numerics import Rng, finite_difference_gradient, row_l2_normalize


def unit(rng, n, d):
    return row_l2_normalize(rng.gaussian_matrix(n, d))


def regularizer(method, g, z_prev, **cfg):
    """pnr_regularizer in regime pnr on a two-view batch; g doubles as z,
    which the regularizer never reads."""
    v = ContrastiveViews(g, z_prev, g=g)
    return pnr_regularizer(v, PnrConfig(method=method, regime=Regime.PNR,
                                        **cfg))


def hadamard_views(scale=1.0):
    """4x2 design with exactly orthogonal, zero-mean, +-scale columns."""
    z = scale * np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    return z


class TestByol:
    def test_identical_inputs_zero(self):
        p = unit(Rng(1), 4, 6)
        assert byol_loss(p, p.copy()).value == 0.0

    def test_orthonormal_rows_distance_two(self):
        e1 = np.array([[1.0, 0.0]])
        e2 = np.array([[0.0, 1.0]])
        assert byol_loss(e1, e2).value == pytest.approx(2.0, abs=1e-15)

    def test_fd(self):
        rng = Rng(2)
        p, t = unit(rng, 5, 4), unit(rng, 5, 4)
        fd = finite_difference_gradient(lambda x: byol_loss(x, t).value, p)
        got = byol_loss(p, t).grad_g
        assert np.max(np.abs(got - fd)) / max(np.max(np.abs(fd)), 1e-10) < 1e-6

    def test_pnr_lambda_zero_is_distillation(self):
        rng = Rng(3)
        g, zp = unit(rng, 8, 5), unit(rng, 8, 5)
        with_term = regularizer(Method.BYOL, g, zp, lambda_pnr=0.0)
        assert with_term.grad_z is None
        assert with_term.value == byol_loss(g, zp).value
        np.testing.assert_array_equal(with_term.grad_g,
                                      byol_loss(g, zp).grad_g)

    def test_pnr_all_equal_zero_for_any_lambda(self):
        p = unit(Rng(4), 3, 5)
        pp = np.vstack([p, p])
        for lam in (0.0, 0.5, 2.0):
            assert regularizer(Method.BYOL, pp, pp.copy(),
                               lambda_pnr=lam).value == 0.0

    def test_pnr_scalar_oracle_at_paper_lambda(self):
        rng = Rng(5)
        g, zp = unit(rng, 8, 5), unit(rng, 8, 5)
        lam = 0.5
        got = regularizer(Method.BYOL, g, zp, lambda_pnr=lam).value
        want = 0.0
        for i in range(8):
            j = (i + 4) % 8  # the other view of sample i
            want += sum((g[i, k] - zp[i, k]) ** 2 for k in range(5))
            want -= lam * sum((g[i, k] - zp[j, k]) ** 2 for k in range(5))
        assert got == pytest.approx(want / 8, abs=1e-12)


class TestVicreg:
    def test_zero_at_aligned_spread_decorrelated(self):
        z = hadamard_views(scale=2.0)  # stds well above gamma, zero covariance
        assert vicreg_loss(z, z.copy(), 25.0, 25.0, 1.0).value == 0.0

    def test_constant_batch_hits_hinge_fully(self):
        z = np.ones((4, 3))
        res = vicreg_loss(z, z.copy(), lam=25.0, mu=25.0, nu=1.0)
        # s = 0, c = 0, v = gamma - sqrt(eps) = 0.99 per dim for both views
        assert res.value == pytest.approx(25.0 * 2.0 * 0.99, abs=1e-12)

    def test_batch_too_small(self):
        with pytest.raises(CsslError, match="vicreg_loss needs at least 2"):
            vicreg_loss(np.ones((1, 3)), np.ones((1, 3)), 25.0, 25.0, 1.0)

    def test_fd_away_from_hinge(self):
        rng = Rng(6)
        za = rng.gaussian_matrix(6, 4, 0.4)
        zb = rng.gaussian_matrix(6, 4, 0.4)
        za[:, ::2] *= 5.0
        zb[:, ::2] *= 5.0
        res = vicreg_loss(za, zb, 25.0, 25.0, 1.0)
        for arg, grad in ((0, res.grad_z[:6]), (1, res.grad_z[6:])):
            def f(x, a=arg):
                args = [za, zb]
                args[a] = x
                return vicreg_loss(*args, 25.0, 25.0, 1.0).value
            fd = finite_difference_gradient(f, (za, zb)[arg])
            assert (np.max(np.abs(grad - fd))
                    / max(np.max(np.abs(fd)), 1e-10)) < 1e-6

    def test_pnr_cancellation(self):
        # Both views' previous outputs equal: distill and repel cancel.
        rng = Rng(7)
        g = rng.gaussian_matrix(8, 5)
        zp = rng.gaussian_matrix(4, 5)
        res = regularizer(Method.VICREG, g, np.vstack([zp, zp]),
                          lambda_cassle=23.0, lambda_pnr=23.0)
        assert res.value == 0.0

    def test_pnr_pure_distillation(self):
        rng = Rng(8)
        g = rng.gaussian_matrix(8, 5)
        res = regularizer(Method.VICREG, g, g.copy(), lambda_cassle=1.0,
                          lambda_pnr=0.0)
        assert res.value == 0.0
        res2 = regularizer(Method.VICREG, g, g + 1.0, lambda_cassle=1.0,
                           lambda_pnr=0.0)
        assert res2.value > 0.0

    def test_pnr_scalar_oracle_at_paper_lambda(self):
        rng = Rng(9)
        g, zp = rng.gaussian_matrix(6, 4), rng.gaussian_matrix(6, 4)
        lam_c, lam_p = 25.0, 23.0
        got = regularizer(Method.VICREG, g, zp, lambda_cassle=lam_c,
                          lambda_pnr=lam_p).value
        s1 = sum((g[i, k] - zp[i, k]) ** 2 for i in range(6) for k in range(4)) / 6
        s2 = sum((g[i, k] - zp[(i + 3) % 6, k]) ** 2
                 for i in range(6) for k in range(4)) / 6
        assert got == pytest.approx(0.5 * lam_c * s1 - 0.5 * lam_p * s2,
                                    abs=1e-12)


class TestBarlow:
    def test_zero_at_identity_correlation(self):
        z = hadamard_views()
        assert barlow_loss(z, z.copy(), 5e-3).value == 0.0

    def test_decorrelated_views_give_dim(self):
        # C == 0: flip one view's columns so cross-correlation cancels
        za = hadamard_views()
        zb = np.stack([za[:, 0] * np.array([1.0, -1.0, 1.0, -1.0]),
                       za[:, 1] * np.array([1.0, 1.0, -1.0, -1.0])], axis=1)
        corr = (za - za.mean(0)).T @ (zb - zb.mean(0)) / 4.0
        assert np.max(np.abs(corr)) < 1e-15
        assert barlow_loss(za, zb, 5e-3).value == pytest.approx(2.0, abs=1e-12)

    def test_zero_variance_column_raises(self):
        z = np.ones((4, 3))
        z[:, 0] = [1.0, 2.0, 3.0, 4.0]
        with pytest.raises(CsslError, match="column 1 has"):
            barlow_loss(z, z.copy(), 5e-3)

    def test_fd(self):
        rng = Rng(10)
        za, zb = rng.gaussian_matrix(7, 4), rng.gaussian_matrix(7, 4)
        res = barlow_loss(za, zb, 5e-3)
        fd_a = finite_difference_gradient(
            lambda x: barlow_loss(x, zb, 5e-3).value, za)
        fd_b = finite_difference_gradient(
            lambda x: barlow_loss(za, x, 5e-3).value, zb)
        for got, fd in ((res.grad_z[:7], fd_a), (res.grad_z[7:], fd_b)):
            assert (np.max(np.abs(got - fd))
                    / max(np.max(np.abs(fd)), 1e-10)) < 1e-6

    def test_pnr_reduces_to_distillation(self):
        # Distillation standardizes over one view's batch: one Barlow
        # objective per view, averaged.
        rng = Rng(11)
        g, zp = rng.gaussian_matrix(10, 4), rng.gaussian_matrix(10, 4)
        a = regularizer(Method.BARLOW, g, zp, lambda_pnr=0.0)
        ba = barlow_loss(g[:5], zp[:5], 5e-3)
        bb = barlow_loss(g[5:], zp[5:], 5e-3)
        assert a.value == 0.5 * (ba.value + bb.value)
        np.testing.assert_array_equal(
            a.grad_g, 0.5 * np.concatenate([ba.grad_z[:5], bb.grad_z[:5]]))


class TestTotals:
    def _views(self, rng, method):
        return random_views(rng, 6, 5, with_target=True,
                            normalized=method == Method.BYOL)

    @pytest.mark.parametrize("method",
                             [Method.BYOL, Method.VICREG, Method.BARLOW])
    def test_lambda_zero_equals_cassle_bitwise(self, method):
        v = self._views(Rng(12), method)
        pnr = PnrConfig(method=method, regime=Regime.PNR, lambda_pnr=0.0)
        cassle = PnrConfig(method=method, regime=Regime.CASSLE)
        a = noncontrastive_pnr_total(v, pnr)
        b = noncontrastive_pnr_total(v, cassle)
        assert a.value == b.value
        for ga, gb in ((a.grad_z, b.grad_z), (a.grad_g, b.grad_g)):
            if ga is None:
                assert gb is None
            else:
                np.testing.assert_array_equal(ga, gb)

    def test_ft_barlow_identity_correlation_zero(self):
        z = hadamard_views()
        v = ContrastiveViews(np.vstack([z, z]), np.vstack([z, z]))
        cfg = PnrConfig(method=Method.BARLOW, regime=Regime.FT)
        assert noncontrastive_pnr_total(v, cfg).value == 0.0

    def test_byol_composition_oracle(self):
        rng = Rng(13)
        v = random_views(rng, 4, 5, with_target=True)
        lam = 0.5
        cfg = PnrConfig(method=Method.BYOL, regime=Regime.PNR, lambda_pnr=lam)
        got = noncontrastive_pnr_total(v, cfg).value
        gA, gB = v.g[:4], v.g[4:]
        zpA, zpB = v.z_prev[:4], v.z_prev[4:]
        want = 0.5 * (
            byol_loss(gA, v.z_target[4:]).value
            + byol_loss(gA, zpA).value - lam * byol_loss(gA, zpB).value
            + byol_loss(gB, v.z_target[:4]).value
            + byol_loss(gB, zpB).value - lam * byol_loss(gB, zpA).value)
        assert got == pytest.approx(want, abs=1e-12)

    def test_default_lambdas_follow_method(self):
        assert PnrConfig(method=Method.BYOL).lambda_pnr == 0.5
        assert PnrConfig(method=Method.VICREG).lambda_pnr == 23.0
        assert PnrConfig(method=Method.BARLOW).lambda_pnr == 1.0

    def test_contrastive_method_rejected(self):
        v = self._views(Rng(14), Method.BYOL)
        cfg = PnrConfig(method=Method.SIMCLR)
        with pytest.raises(ValueError):
            noncontrastive_pnr_total(v, cfg)

    @pytest.mark.parametrize("method",
                             [Method.BYOL, Method.VICREG, Method.BARLOW])
    def test_missing_previous_model_raises(self, method):
        # Only regime ft may go without z_prev, and it reads none.
        v = self._views(Rng(16), method)
        without = replace(v, z_prev=None)
        for regime in (Regime.CASSLE, Regime.PNR):
            cfg = PnrConfig(method=method, regime=regime)
            for loss in (pnr_regularizer, noncontrastive_pnr_total):
                with pytest.raises(CsslError, match=(
                        f"^{method.value} distillation needs z_prev$")):
                    loss(without, cfg)
        cfg = PnrConfig(method=method, regime=Regime.FT)
        assert (noncontrastive_pnr_total(without, cfg).value
                == noncontrastive_pnr_total(v, cfg).value)

    @pytest.mark.parametrize("method",
                             [Method.BYOL, Method.VICREG, Method.BARLOW])
    def test_total_fd(self, method):
        v = self._views(Rng(15), method)
        cfg = PnrConfig(method=method, regime=Regime.PNR)
        res = noncontrastive_pnr_total(v, cfg)
        fields = {"g": res.grad_g}
        if method != Method.BYOL:
            fields["z"] = res.grad_z
        for name, grad in fields.items():
            fd = finite_difference_gradient(
                lambda x, f=name: noncontrastive_pnr_total(
                    replace(v, **{f: x}), cfg).value,
                getattr(v, name))
            assert (np.max(np.abs(grad - fd))
                    / max(np.max(np.abs(fd)), 1e-10)) < 1e-6


class TestParamGradcheck:
    def test_redraw_screens_byol_target(self):
        # Seed 7's first draw has an EMA target whose output row is zero;
        # the check must redraw instead of failing to normalize it.
        reports = check_param_gradients(trials=1, seed=7)
        assert all(r.passed for r in reports), reports

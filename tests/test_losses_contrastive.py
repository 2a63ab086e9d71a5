"""Contrastive losses: hand values, set counting, reductions, gradients,
closed-form decomposition against an independent scalar autodiff.

``cssl_total`` computes both InfoNCE terms in one pass; the tests of one
term read it off regime differences (see :func:`plasticity_term` and
:func:`distillation_term`)."""

from dataclasses import replace

import numpy as np
import pytest

from cssl import losses
from cssl.errors import CsslError
from cssl.gradcheck import random_views
from cssl.losses import (
    ContrastiveViews,
    LossResult,
    Method,
    PnrConfig,
    Regime,
    closed_form_grad,
    closed_form_parts,
    cssl_total,
    partner,
)
from cssl.numerics import Rng, finite_difference_gradient, row_l2_normalize

from reference import (
    per_anchor_cssl_grad,
    reference_cassle_distill,
    reference_pnr_l1,
    reference_pnr_l2,
    reference_simclr,
)

E1 = np.array([[1.0, 0.0]])
E2 = np.array([[0.0, 1.0]])


def uniform_views(n=1, d=2):
    row = np.zeros((2 * n, d))
    row[:, 0] = 1.0
    return ContrastiveViews(row.copy(), row.copy(), g=row.copy())


def swap_views(v):
    """Relabel the two augmentations (A <-> B); queues are shared."""
    return replace(v, z=partner(v.z), z_prev=partner(v.z_prev),
                   g=partner(v.g))


def halves(m):
    n = m.shape[0] // 2
    return m[:n], m[n:]


def total(v, regime, tau=0.2):
    return cssl_total(v, PnrConfig(method=Method.MOCO, regime=regime,
                                   tau=tau), check_norms=False)


def plasticity_term(v, tau, pseudo_negatives=True):
    """The plasticity InfoNCE alone. FT scores z against [z; queue_cur], so
    handing it the frozen blocks as that queue gives the pool [z;
    queue_cur; z_prev; queue_prev] that the z anchors see in PNR."""
    if pseudo_negatives:
        blocks = (v.queue_cur, v.z_prev, v.queue_prev)
        v = replace(v, queue_cur=np.concatenate(
            [b for b in blocks if b is not None]), queue_prev=None)
    return total(v, Regime.FT, tau)


def distillation_term(v, tau, pseudo_negatives=True):
    """The distillation InfoNCE alone: PNR's total (CaSSLe's without
    pseudo-negatives) minus the plasticity term."""
    both = total(v, Regime.PNR if pseudo_negatives else Regime.CASSLE, tau)
    l1 = plasticity_term(v, tau, pseudo_negatives)
    return LossResult(both.value - l1.value, grad_z=both.grad_z - l1.grad_z,
                      grad_g=both.grad_g)


def reference_total(v, regime, tau):
    """cssl_total's value composed from the scalar-loop references: each
    term averages the (A, B) and (B, A) orderings."""
    (zA, zB), (zpA, zpB) = halves(v.z), halves(v.z_prev)
    qc, qp = v.queue_cur, v.queue_prev
    if regime == Regime.FT:
        return 0.5 * (reference_simclr(zA, zB, tau, qc)
                      + reference_simclr(zB, zA, tau, qc))
    gA, gB = halves(v.g)
    if regime == Regime.CASSLE:
        return 0.5 * (reference_simclr(zA, zB, tau, qc)
                      + reference_cassle_distill(gA, zpA, zpB, tau, qp)
                      + reference_simclr(zB, zA, tau, qc)
                      + reference_cassle_distill(gB, zpB, zpA, tau, qp))
    return 0.5 * (reference_pnr_l1(zA, zB, zpA, zpB, tau, qc, qp)
                  + reference_pnr_l2(gA, zA, zB, zpA, zpB, tau, qc, qp)
                  + reference_pnr_l1(zB, zA, zpB, zpA, tau, qc, qp)
                  + reference_pnr_l2(gB, zB, zA, zpB, zpA, tau, qc, qp))


class TestHandValues:
    def test_l1_uniform_n1_ln3(self):
        assert plasticity_term(uniform_views(), 0.2).value == np.log(3.0)

    def test_l2_uniform_n1_ln3(self):
        assert distillation_term(uniform_views(), 0.2).value == np.log(3.0)

    def test_l1_orthogonal_pseudo_negatives(self):
        # positive dot 1, both previous-model dots 0, tau 1
        v = ContrastiveViews(np.vstack([E1, E1]), np.vstack([E2, E2]))
        assert plasticity_term(v, 1.0).value == pytest.approx(
            np.log(np.e + 2) - 1, abs=1e-12)

    def test_l2_orthogonal_pseudo_negatives(self):
        # distill dot 1, pseudo-negative dots 0, tau 1 (for both anchors)
        v = ContrastiveViews(z=np.vstack([E1, E2]), z_prev=np.vstack([E1, E2]),
                             g=np.vstack([E1, E2]))
        assert distillation_term(v, 1.0).value == pytest.approx(
            np.log(np.e + 2) - 1, abs=1e-12)

    def test_ft_n2_uniform_ln3(self):
        v = uniform_views(n=2)
        cfg = PnrConfig(method=Method.SIMCLR, regime=Regime.FT)
        assert cssl_total(v, cfg).value == np.log(3.0)

    def test_uniform_counting_with_queues(self):
        # denominator cardinality: (2N-1 + Kc) + (2N + Kp)
        n, kc, kp = 2, 3, 4
        row = np.zeros((2 * n, 2))
        row[:, 0] = 1.0
        qc = np.zeros((kc, 2))
        qc[:, 0] = 1.0
        qp = np.zeros((kp, 2))
        qp[:, 0] = 1.0
        v = ContrastiveViews(row.copy(), row.copy(), g=row.copy(),
                             queue_cur=qc, queue_prev=qp)
        want = np.log((2 * n - 1 + kc) + (2 * n + kp))
        assert plasticity_term(v, 0.2).value == want
        assert distillation_term(v, 0.2).value == want
        assert total(v, Regime.PNR).value == 2 * want


class TestSetSemantics:
    def test_l1_matches_naive_reference(self):
        v = random_views(Rng(100), 4, 6)
        got = plasticity_term(v, 0.2).value
        (zA, zB), (zpA, zpB) = halves(v.z), halves(v.z_prev)
        want = 0.5 * (reference_pnr_l1(zA, zB, zpA, zpB, 0.2)
                      + reference_pnr_l1(zB, zA, zpB, zpA, 0.2))
        assert got == pytest.approx(want, abs=1e-12)

    def test_pnr_matches_naive_reference(self):
        v = random_views(Rng(100), 4, 6)
        got = total(v, Regime.PNR).value
        (zA, zB), (zpA, zpB), (gA, gB) = (halves(v.z), halves(v.z_prev),
                                          halves(v.g))
        want = 0.5 * (reference_pnr_l1(zA, zB, zpA, zpB, 0.2)
                      + reference_pnr_l2(gA, zA, zB, zpA, zpB, 0.2)
                      + reference_pnr_l1(zB, zA, zpB, zpA, 0.2)
                      + reference_pnr_l2(gB, zB, zA, zpB, zpA, 0.2))
        assert got == pytest.approx(want, abs=1e-12)

    def test_l1_without_pn_is_simclr(self):
        v = random_views(Rng(101), 5, 6)
        got = plasticity_term(v, 0.2, pseudo_negatives=False).value
        zA, zB = halves(v.z)
        want = 0.5 * (reference_simclr(zA, zB, 0.2)
                      + reference_simclr(zB, zA, 0.2))
        assert got == pytest.approx(want, abs=1e-12)

    def test_l2_without_pn_is_cassle_distill(self):
        v = random_views(Rng(102), 5, 6)
        got = distillation_term(v, 0.2, pseudo_negatives=False).value
        (gA, gB), (zpA, zpB) = halves(v.g), halves(v.z_prev)
        want = 0.5 * (reference_cassle_distill(gA, zpA, zpB, 0.2)
                      + reference_cassle_distill(gB, zpB, zpA, 0.2))
        assert got == pytest.approx(want, abs=1e-12)

    def test_denominators_identical_under_identity_predictor(self):
        # with g = id the two terms differ only in which column is the
        # positive; uniform inputs make them exactly equal
        v = uniform_views(n=3, d=4)
        assert (plasticity_term(v, 0.2).value
                == distillation_term(v, 0.2).value)

    def test_no_gradient_slots_for_previous_model(self):
        v = random_views(Rng(103), 4, 6)
        res = total(v, Regime.PNR)
        assert not hasattr(res, "grad_z_prev")
        assert not hasattr(res, "grad_z_target")
        for g in (res.grad_z, res.grad_g):
            assert g is not None and np.all(np.isfinite(g))

    def test_missing_predictor_raises(self):
        v = random_views(Rng(104), 3, 5, with_pred=False)
        for regime in (Regime.CASSLE, Regime.PNR):
            with pytest.raises(CsslError, match="needs predictor outputs g"):
                total(v, regime)

    def test_missing_previous_model_raises(self):
        # Only regime ft may go without z_prev, and it reads none.
        v = random_views(Rng(104), 3, 5)
        without = replace(v, z_prev=None)
        for regime in (Regime.CASSLE, Regime.PNR):
            with pytest.raises(CsslError, match="^distillation needs z_prev$"):
                total(without, regime)
        got, want = total(without, Regime.FT), total(v, Regime.FT)
        assert got.value == want.value
        np.testing.assert_array_equal(got.grad_z, want.grad_z)

    def test_empty_batch_raises(self):
        z = np.zeros((0, 4))
        v = ContrastiveViews(z, z.copy(), g=z.copy())
        with pytest.raises(CsslError, match="loss on empty batch"):
            total(v, Regime.FT)

    def test_norm_violation_raises(self):
        v = random_views(Rng(105), 3, 5)
        bad = replace(v, z=v.z * 1.5)
        with pytest.raises(CsslError, match="z: row norm off unit"):
            cssl_total(bad, PnrConfig(method=Method.SIMCLR, regime=Regime.PNR))

    def test_nan_row_raises(self):
        v = random_views(Rng(105), 3, 5)
        for name in ("z", "z_prev", "g"):
            m = getattr(v, name).copy()
            m[2, 1] = np.nan
            with pytest.raises(CsslError, match=(
                    f"^{name}: row norm off unit by nan$")):
                replace(v, **{name: m}).validate_norms()

    @pytest.mark.parametrize("regime", list(Regime))
    def test_one_softmax_per_call(self, regime, monkeypatch):
        calls = []
        lse = losses.logsumexp_rows

        def counted(m):
            calls.append(m.shape)
            return lse(m)

        monkeypatch.setattr(losses, "logsumexp_rows", counted)
        v = random_views(Rng(106), 3, 5, queue_rows=2)
        total(v, regime)
        m = v.z.shape[0]
        pool = m + 2 if regime == Regime.FT else 2 * (m + 2)
        anchors = m if regime == Regime.FT else 2 * m
        assert calls == [(anchors, pool)]


class TestReductions:
    def test_pn_empty_equals_cassle_bitwise(self, monkeypatch):
        # CaSSLe's logits are PNR's with the pseudo-negative blocks (z rows
        # x frozen block, g rows x current block) at -inf, bit for bit
        seen = []
        lse = losses.logsumexp_rows

        def capture(m):
            seen.append(m.copy())
            return lse(m)

        monkeypatch.setattr(losses, "logsumexp_rows", capture)
        v = random_views(Rng(106), 6, 8, queue_rows=5)
        for regime in (Regime.PNR, Regime.CASSLE):
            cssl_total(v, PnrConfig(method=Method.MOCO, regime=regime))
        pnr, cassle = seen
        m, c = 12, 17
        assert pnr.shape == cassle.shape == (2 * m, 2 * c)
        want = pnr.copy()
        want[:m, c:] = want[m:, :c] = -np.inf
        np.testing.assert_array_equal(cassle, want)
        assert np.isfinite(pnr[:m, c:]).all()
        assert np.isfinite(pnr[m:, :c]).sum() == m * c - m

    def test_cassle_equals_reference_composition(self):
        v = random_views(Rng(107), 4, 6)
        cfg = PnrConfig(method=Method.SIMCLR, regime=Regime.CASSLE, tau=0.2)
        got = cssl_total(v, cfg).value
        want = reference_total(v, Regime.CASSLE, 0.2)
        assert got == pytest.approx(want, abs=1e-12)

    def test_ft_has_no_previous_model_terms(self):
        v = random_views(Rng(108), 4, 6)
        cfg = PnrConfig(method=Method.SIMCLR, regime=Regime.FT)
        res = cssl_total(v, cfg)
        # changing the frozen embeddings must not move the FT loss
        v2 = replace(v, z_prev=row_l2_normalize(Rng(1).gaussian_matrix(8, 6)))
        assert cssl_total(v2, cfg).value == res.value
        assert res.grad_g is None


class TestSymmetry:
    def test_swap_is_exact(self):
        v = random_views(Rng(109), 5, 7, queue_rows=3)
        cfg = PnrConfig(method=Method.MOCO, regime=Regime.PNR)
        total = cssl_total(v, cfg)
        swapped = cssl_total(swap_views(v), cfg)
        assert abs(total.value - swapped.value) < 1e-12
        np.testing.assert_allclose(total.grad_z, partner(swapped.grad_z),
                                   atol=1e-15)

    def test_symmetric_views_orderings_equal(self):
        rng = Rng(110)
        z = row_l2_normalize(rng.gaussian_matrix(4, 6))
        zp = row_l2_normalize(rng.gaussian_matrix(4, 6))
        g = row_l2_normalize(rng.gaussian_matrix(4, 6))
        v = ContrastiveViews(np.vstack([z, z]), np.vstack([zp, zp]),
                             g=np.vstack([g, g]))
        cfg = PnrConfig(method=Method.SIMCLR, regime=Regime.PNR)
        one = cssl_total(v, cfg)
        parts_ab = (reference_pnr_l1(z, z, zp, zp, cfg.tau)
                    + distillation_term(v, cfg.tau).value)
        assert one.value == pytest.approx(parts_ab, abs=1e-12)


def _assert_fd(loss_fn, v, res):
    for field, grad in (("z", res.grad_z), ("g", res.grad_g)):
        fd = finite_difference_gradient(
            lambda x, f=field: loss_fn(replace(v, **{f: x})).value,
            getattr(v, field))
        if grad is None:
            grad = np.zeros_like(fd)
        scale = max(float(np.max(np.abs(fd))), 1e-10)
        assert float(np.max(np.abs(grad - fd))) / scale < 1e-6


class TestGradients:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_l1_fd(self, seed):
        v = random_views(Rng(200 + seed), 4, 6, queue_rows=2)
        res = plasticity_term(v, 0.2)
        assert res.grad_g is None
        _assert_fd(lambda vv: plasticity_term(vv, 0.2), v, res)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_l2_fd_and_frozen_structure(self, seed):
        v = random_views(Rng(300 + seed), 4, 6, queue_rows=2)
        res = distillation_term(v, 0.2)
        _assert_fd(lambda vv: distillation_term(vv, 0.2), v, res)
        assert not hasattr(res, "grad_z_prev")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("regime", list(Regime))
    def test_total_fd(self, regime, seed):
        v = random_views(Rng(350 + seed), 4, 6, queue_rows=2)
        _assert_fd(lambda vv: total(vv, regime), v, total(v, regime))


class TestSmallTau:
    """At small temperatures the logits span hundreds of units (±1/tau), so
    every exp must run on the row-max-shifted logits."""

    @pytest.mark.parametrize("regime", list(Regime))
    def test_tau_0_01_matches_references(self, regime):
        for seed in range(3):
            v = random_views(Rng(900 + seed), 3, 5, queue_rows=4)
            res = total(v, regime, tau=0.01)
            assert res.value == pytest.approx(
                reference_total(v, regime, 0.01), rel=1e-12)
            _assert_fd(lambda vv: LossResult(reference_total(vv, regime,
                                                             0.01)), v, res)

    @pytest.mark.parametrize("regime", list(Regime))
    def test_tau_1e_3_stays_finite(self, regime):
        v = random_views(Rng(903), 3, 5, queue_rows=4)
        res = total(v, regime, tau=1e-3)
        assert np.isfinite(res.value)
        assert np.isfinite(res.grad_z).all()
        assert regime == Regime.FT or np.isfinite(res.grad_g).all()


class TestClosedForm:
    def test_masses_sum_to_one(self):
        for k in range(10):
            v = random_views(Rng(400 + k), 4, 6, queue_rows=k % 3)
            _, _, mass = closed_form_parts(v, 0.2)
            assert np.max(np.abs(mass - 1.0)) < 1e-12

    def test_attract_part_at_coincident_positives(self):
        rng = Rng(401)
        p = row_l2_normalize(rng.gaussian_matrix(3, 6))
        v = random_views(rng, 3, 6)
        v = replace(v, z=np.vstack([v.z[:3], p]),
                    z_prev=np.vstack([p, v.z_prev[3:]]))
        attract, _, _ = closed_form_parts(v, 0.2)
        np.testing.assert_array_equal(attract, p)

    def test_matches_independent_autodiff_per_anchor(self):
        for k in range(12):
            rng = Rng(500 + k)
            n = 1 + k % 4
            v = random_views(rng, n, 5, queue_rows=k % 3)
            v = replace(v, g=v.z.copy())
            got = closed_form_grad(v, 0.2)
            (zA, zB), (zpA, zpB) = halves(v.z), halves(v.z_prev)
            for i in range(n):
                want = per_anchor_cssl_grad(zA, zB, zpA, zpB, i, 0.2,
                                            v.queue_cur, v.queue_prev)
                assert np.max(np.abs(got[i] - want)) < 1e-10

    def test_matches_production_losses_at_batch_one(self):
        for k in range(10):
            v = random_views(Rng(600 + k), 1, 6)
            v = replace(v, g=v.z.copy())
            cf = closed_form_grad(v, 0.2)
            # g is a pure distillation query; with the plasticity positive
            # z[1] at the lead of the frozen block it gives that term's half.
            plastic = replace(v, z=np.stack([v.z[0], v.z_prev[0]]),
                              z_prev=np.stack([v.z[1], v.z_prev[1]]))
            full = (total(plastic, Regime.PNR).grad_g[:1]
                    + total(v, Regime.PNR).grad_g[:1])
            assert np.max(np.abs(cf - full)) < 1e-10

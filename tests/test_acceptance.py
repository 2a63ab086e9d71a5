"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines as they complete). Tolerances are pinned here and never
loosened at runtime.
"""

import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from cssl.cli import cli_main
from cssl.config import DEFAULT_CONFIG_YAML
from cssl.continual import TrainConfig, build_class_il, run_sequence
from cssl.datastore import gen_synthetic
from cssl.embedding_queue import EmbeddingQueue
from cssl.evaluate import (
    AccuracyMatrix,
    ProbeConfig,
    avg_accuracy,
    fill_accuracy_matrix,
    plasticity,
    stability,
)
from cssl.gradcheck import (
    check_closed_form,
    check_embedding_gradients,
    check_param_gradients,
    random_views,
)
from cssl.losses import (
    ContrastiveViews,
    Method,
    PnrConfig,
    Regime,
    barlow_loss,
    closed_form_grad,
    closed_form_parts,
    cssl_total,
    noncontrastive_pnr_total,
    partner,
    pnr_regularizer,
    vicreg_loss,
)
from cssl.numerics import Rng, row_l2_normalize

from reference import (
    brute_force_plasticity,
    brute_force_stability,
    naive_fifo,
    per_anchor_cssl_grad,
)


def _report(num: int, text: str) -> None:
    print(f"[ACCEPTANCE {num}] PASS: {text}")


def test_criterion_1_gradient_suite():
    """Analytic vs central finite differences, rel err < 1e-6, 20+ points."""
    t0 = time.perf_counter()
    reports = check_embedding_gradients(trials=20, seed=2024)
    reports += check_param_gradients(trials=4, seed=2025)
    elapsed = time.perf_counter() - t0
    for r in reports:
        assert r.passed, f"{r.name}: max err {r.max_err:.3e} >= {r.tol}"
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s (limit 120s)"
    worst = max(r.max_err for r in reports)
    _report(1, f"{len(reports)} gradient checks, worst rel err "
               f"{worst:.2e} < 1e-6, {elapsed:.1f}s")


def test_criterion_2_closed_form_gradient_equivalence():
    """Closed form == autodiff of the halved per-anchor objective (identity
    predictor), abs err < 1e-10 over 50 instances; masses sum to 1 +- 1e-12."""
    worst_grad = 0.0
    worst_mass = 0.0
    for k in range(50):
        rng = Rng(7000 + k)
        n = 1 + k % 5
        v = random_views(rng, n, 6, queue_rows=k % 4)
        v = replace(v, g=v.z.copy())
        _, _, mass = closed_form_parts(v, 0.2)
        worst_mass = max(worst_mass, float(np.max(np.abs(mass - 1.0))))
        got = closed_form_grad(v, 0.2)
        for i in range(n):
            want = per_anchor_cssl_grad(
                v.z[:n], v.z[n:], v.z_prev[:n], v.z_prev[n:], i, 0.2,
                v.queue_cur, v.queue_prev)
            worst_grad = max(worst_grad, float(np.max(np.abs(got[i] - want))))
    assert worst_grad < 1e-10, f"closed form off autodiff by {worst_grad:.2e}"
    assert worst_mass < 1e-12, f"softmax masses off 1 by {worst_mass:.2e}"
    # and against the production losses where the full batch loss reduces
    # to the per-anchor form (batch size 1)
    prod = check_closed_form(instances=50, seed=7100)
    for r in prod:
        assert r.passed, f"{r.name}: {r.max_err:.2e}"
    _report(2, f"50 instances, grad err {worst_grad:.2e} < 1e-10, "
               f"mass dev {worst_mass:.2e} < 1e-12")


def test_criterion_3_reduction_identities():
    """PN sets empty => PNR == CaSSLe for every method; lambda 0 =>
    non-contrastive PNR == CaSSLe; FT carries no previous-model terms. All
    bitwise."""
    v = random_views(Rng(7200), 6, 8, queue_rows=5)
    pnr_empty = cssl_total(v, PnrConfig(method=Method.MOCO, regime=Regime.PNR,
                                        include_pseudo_negatives=False))
    cassle = cssl_total(v, PnrConfig(method=Method.MOCO, regime=Regime.CASSLE))
    assert pnr_empty.value == cassle.value
    np.testing.assert_array_equal(pnr_empty.grad_z, cassle.grad_z)
    np.testing.assert_array_equal(pnr_empty.grad_g, cassle.grad_g)

    for method in (Method.BYOL, Method.VICREG, Method.BARLOW):
        vm = random_views(Rng(7300), 6, 5, with_target=True,
                          normalized=method == Method.BYOL)
        b = noncontrastive_pnr_total(vm, PnrConfig(
            method=method, regime=Regime.CASSLE))
        for off in (dict(lambda_pnr=0.0),
                    dict(include_pseudo_negatives=False)):
            a = noncontrastive_pnr_total(vm, PnrConfig(
                method=method, regime=Regime.PNR, **off))
            assert a.value == b.value
            np.testing.assert_array_equal(
                np.asarray(a.grad_g), np.asarray(b.grad_g))

    ft = cssl_total(v, PnrConfig(method=Method.SIMCLR, regime=Regime.FT))
    v_shuffled_prev = replace(v, z_prev=np.concatenate([
        row_l2_normalize(Rng(1).gaussian_matrix(6, 8)),
        row_l2_normalize(Rng(2).gaussian_matrix(6, 8))]))
    ft2 = cssl_total(v_shuffled_prev,
                     PnrConfig(method=Method.SIMCLR, regime=Regime.FT))
    assert ft.value == ft2.value
    assert ft.grad_g is None
    _report(3, "PNR->CaSSLe reductions bitwise for contrastive and "
               "non-contrastive; FT free of previous-model terms")


def test_criterion_4_counting_and_symmetry():
    """Uniform similarity => each InfoNCE term is exactly ln(pool size), so
    PNR's total is 2 ln(4N-1) and FT's ln(2N-1); A<->B swap moves the
    symmetrized total by < 1e-12."""
    pnr = PnrConfig(method=Method.SIMCLR, regime=Regime.PNR)
    ft = PnrConfig(method=Method.SIMCLR, regime=Regime.FT)
    for n in (1, 2, 4):
        row = np.zeros((2 * n, 3))
        row[:, 0] = 1.0
        v = ContrastiveViews(row.copy(), row.copy(), g=row.copy())
        assert cssl_total(v, pnr).value == 2 * np.log((2 * n - 1) + 2 * n)
        assert cssl_total(v, ft).value == np.log(2 * n - 1)
    n1 = ContrastiveViews(*[np.array([[1.0, 0.0], [1.0, 0.0]])
                            for _ in range(3)])
    assert cssl_total(n1, pnr).value == 2 * np.log(3.0)

    v = random_views(Rng(7400), 5, 7, queue_rows=3)
    cfg = PnrConfig(method=Method.MOCO, regime=Regime.PNR)
    swapped = replace(v, z=partner(v.z), z_prev=partner(v.z_prev),
                      g=partner(v.g))
    delta = abs(cssl_total(v, cfg).value - cssl_total(swapped, cfg).value)
    assert delta < 1e-12
    _report(4, f"uniform batches hit 2 ln(4N-1) exactly (N=1: 2 ln 3); "
               f"swap delta {delta:.1e} < 1e-12")


def test_criterion_5_metric_oracles():
    """Stability/plasticity equal a literal brute-force loop on 1000 random
    grids (T in 2..10), exactly; hand cases S=0.2 and P=0.1 reproduce."""
    rng = Rng(7500)
    for _ in range(1000):
        T = 2 + int(rng.uniform(1)[0] * 9)
        a = rng.uniform(T * T).reshape(T, T)
        ft = rng.uniform(T)
        am = AccuracyMatrix(a, ft=ft)
        assert stability(am) == brute_force_stability(a)
        assert plasticity(am) == brute_force_plasticity(a, ft)
    s_hand = stability(AccuracyMatrix(np.array([[0.7, 0.5], [0.0, 0.8]])))
    assert s_hand == pytest.approx(0.2, abs=1e-15)
    p_hand = plasticity(AccuracyMatrix(np.array([[0.7, 0.5], [0.6, 0.8]]),
                                       ft=np.array([0.7, 0.5])))
    assert p_hand == pytest.approx(0.1, abs=1e-15)
    _report(5, "1000 random grids match brute force exactly; hand cases "
               "S=0.2, P=0.1 reproduce")


def test_criterion_6_queue_semantics():
    """The array queue equals the naive list reference over 1000 random
    sequences; length never exceeds capacity."""
    rng = Rng(7600)
    for trial in range(1000):
        capacity = 1 + int(rng.uniform(1)[0] * 15)
        q = EmbeddingQueue(capacity, 3)
        enq, snap = naive_fifo(capacity)
        for _ in range(int(rng.uniform(1)[0] * 8) + 1):
            n = int(rng.uniform(1)[0] * 10)
            batch = (row_l2_normalize(rng.gaussian_matrix(n, 3))
                     if n else np.zeros((0, 3)))
            q.enqueue(batch)
            enq(batch)
            assert len(q) <= capacity
            ours, theirs = q.snapshot(), snap()
            assert ours.shape[0] == theirs.shape[0]
            if ours.shape[0]:
                np.testing.assert_array_equal(ours, theirs)
    _report(6, "1000 random enqueue sequences equal the list reference; "
               "capacity never exceeded")


def _default_config_one_seed() -> str:
    raw = yaml.safe_load(DEFAULT_CONFIG_YAML)
    raw["seeds"] = [1]
    return yaml.safe_dump(raw)


def _run_pipeline(tmp_path, tag: str) -> dict[str, bytes]:
    base = tmp_path / tag
    base.mkdir()
    cfg_path = base / "config.yaml"
    cfg_path.write_text(_default_config_one_seed())
    data = str(base / "data.bin")
    out_dir = str(base / "run")
    prefix = str(base / "metrics")
    assert cli_main(["gen-data", "--config", str(cfg_path), "--out", data]) == 0
    assert cli_main(["train", "--config", str(cfg_path), "--data", data,
                     "--out-dir", out_dir]) == 0
    assert cli_main(["probe", "--config", str(cfg_path), "--data", data,
                     "--checkpoints", out_dir, "--out", prefix]) == 0
    artifacts = {}
    for name in sorted(os.listdir(out_dir)):
        artifacts[f"run/{name}"] = Path(out_dir, name).read_bytes()
    for suffix in ("_seed1.csv", "_seed1.json", "_summary.csv"):
        artifacts[f"metrics{suffix}"] = Path(prefix + suffix).read_bytes()
    artifacts["data.bin"] = Path(data).read_bytes()
    return artifacts


@pytest.mark.slow
def test_criterion_7_pipeline_determinism(tmp_path):
    """Two executions of the default 5T pipeline produce byte-identical
    datasets, checkpoints, CSVs and JSON."""
    first = _run_pipeline(tmp_path, "one")
    second = _run_pipeline(tmp_path, "two")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    n_ckpt = sum(1 for k in first if k.endswith(".ckpt"))
    _report(7, f"{n_ckpt} checkpoints + CSV/JSON byte-identical across runs")


@pytest.mark.slow
def test_criterion_8_directional_trend():
    """Class-IL 5T on the default synthetic benchmark: mean A_5 over three
    seeds orders PNR above FT and within 0.01 of CaSSLe or better."""
    t0 = time.perf_counter()
    ds = gen_synthetic(10, 32, 200, 1.0, 2.0, seed=42)
    stream = build_class_il(ds, 5)
    means = {}
    for regime in (Regime.FT, Regime.CASSLE, Regime.PNR):
        vals = []
        for seed in (1, 2, 3):
            cfg = TrainConfig(seed=seed,
                              loss=PnrConfig(method=Method.SIMCLR,
                                             regime=regime))
            res = run_sequence(stream, cfg, with_ft_refs=False)
            am = fill_accuracy_matrix(res.checkpoints, None, stream,
                                      ProbeConfig(), seed=seed)
            vals.append(avg_accuracy(am, 5))
        means[regime] = float(np.mean(vals))
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"trend run took {elapsed:.0f}s (limit 600s)"
    assert means[Regime.PNR] > means[Regime.FT], (
        f"A_5(PNR)={means[Regime.PNR]:.4f} !> A_5(FT)={means[Regime.FT]:.4f}")
    assert means[Regime.PNR] >= means[Regime.CASSLE] - 0.01, (
        f"A_5(PNR)={means[Regime.PNR]:.4f} < "
        f"A_5(CaSSLe)-0.01={means[Regime.CASSLE] - 0.01:.4f}")
    _report(8, f"A_5 means FT={means[Regime.FT]:.3f} "
               f"CaSSLe={means[Regime.CASSLE]:.3f} "
               f"PNR={means[Regime.PNR]:.3f} in {elapsed:.0f}s")


def test_criterion_9_analytic_zeros():
    """Barlow zero at C == I; VICReg variance term zero above the hinge;
    VICReg regularizer identically zero under cancellation. All exact."""
    z = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    assert barlow_loss(z, z.copy(), 5e-3).value == 0.0

    spread = z * 2.0  # per-dim unbiased std sqrt(16/3) > gamma = 1
    res = vicreg_loss(spread, spread.copy(), 25.0, 25.0, 1.0)
    assert res.value == 0.0  # s = 0, v hinge inactive, off-diag cov = 0

    rng = Rng(7700)
    g = rng.gaussian_matrix(10, 4)
    zp = rng.gaussian_matrix(5, 4)
    # Both views' previous outputs equal: distill and repel cancel.
    v = ContrastiveViews(g, np.vstack([zp, zp]), g=g)
    for lam in (0.5, 23.0):
        cfg = PnrConfig(method=Method.VICREG, regime=Regime.PNR,
                        lambda_cassle=lam, lambda_pnr=lam)
        assert pnr_regularizer(v, cfg).value == 0.0
    _report(9, "Barlow C=I zero, VICReg hinge zero, VICReg cancellation "
               "zero, all exact")


@pytest.mark.slow
def test_criterion_10_gradcheck_cli_gate(capsys):
    """`cssl gradcheck --trials 20` exits 0 on a correct build."""
    code = cli_main(["gradcheck", "--trials", "20"])
    out = capsys.readouterr().out
    assert code == 0, f"gradcheck exited {code}:\n{out}"
    assert "all gradient checks passed" in out
    _report(10, "gradcheck CLI exit code 0")

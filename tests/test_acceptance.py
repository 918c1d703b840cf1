"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Criteria 1-9 and 11 run on the desk-scale default scenario
shared through the session fixture; criterion 10 executes the full pipeline
end to end on the default configuration.
"""

import functools
import time

import numpy as np
import pytest
import scipy.linalg

from conftest import make_toy_system
from mqsmor.analysis import (
    frequency_response,
    passivity_scan,
    transfer_full,
    transfer_reduced,
)
from mqsmor.config import default_config
from mqsmor.mor import ShiftSet, balanced_truncate, lr_adi
from mqsmor.ops import OperatorContext
from mqsmor.oracle import build_dense_oracle, dense_gramians
from mqsmor.pipeline import run_pipeline
from mqsmor.regularize import build_regularized, theorem1_check


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_theorem1_common_kernel(desk):
    rep = theorem1_check(desk.system, desk.bases, dense_intersection=True)
    exact = (rep["C2Y_exact_zero"] and rep["E_kernel_residual"] == 0.0
             and rep["K_kernel_residual"] == 0.0)
    within_tol = rep["E_rel_residual"] <= 1e-12 and rep["K_rel_residual"] <= 1e-12
    ok = (exact or within_tol) and rep["kernel_intersection_dim"] == desk.bases.k2
    _report(1, ok, (f"E[0;Y]=0, K[0;Y]=0 {'exact' if exact else '<=1e-12'}; "
                    f"dim(ker E & ker K) = k2 = {rep['k2']}"))


def test_criterion_02_theorem2_spectrum_and_counts(desk):
    oracle, rsys = desk.oracle, desk.rsys
    # every finite eigenvalue lies within skew of one of lam (Bauer-Fike)
    lam, skew = oracle.finite_eigenvalues()
    scale = np.abs(lam).max()
    real_ok = skew <= 1e-8 * scale
    nonpos_ok = lam.max() + skew <= 1e-8 * scale
    n_inf_ok = oracle.n_inf == rsys.n2 - rsys.k2 - rsys.m
    sum_ok = oracle.n_s + oracle.n_0 + oracle.n_inf == rsys.n_r
    # index one: no defective infinite structure, dim ker(E_r) = n_inf
    w = np.linalg.eigvalsh(oracle.E_dense)
    wmax = w[-1]
    nz = int(np.sum(w <= 1e-10 * wmax))
    gap_ok = w[nz] >= 1e-7 * wmax
    index_ok = nz == oracle.n_inf and gap_ok
    try:
        np.linalg.cholesky(oracle.E11)
        np.linalg.cholesky(-oracle.A11)
        blocks_ok = True
    except np.linalg.LinAlgError:
        blocks_ok = False
    ok = real_ok and nonpos_ok and n_inf_ok and sum_ok and index_ok and blocks_ok
    _report(2, ok, (f"eigs real<=0 (|Im| <= {skew:.1e}); "
                    f"n_s={oracle.n_s} n0={oracle.n_0} n_inf={oracle.n_inf} "
                    f"sum={oracle.n_s + oracle.n_0 + oracle.n_inf} = n_r={rsys.n_r}; "
                    f"dim ker E_r = {nz} = n_inf"))


def test_criterion_03_reflexive_inverse_identities(desk):
    ctx, oracle, rsys = desk.ctx, desk.oracle, desk.rsys
    gram = ctx.B_r.T @ ctx.apply_EinvB()
    rel_b = np.linalg.norm(gram - rsys.Rinv) / np.linalg.norm(rsys.Rinv)
    e, u = oracle.E_dense, oracle.einv_factor
    eu = e @ u
    einv = u @ u.T
    r1 = np.linalg.norm(eu @ (u.T @ e) - e) / np.linalg.norm(e)
    r2 = np.linalg.norm(u @ ((u.T @ eu) @ u.T) - einv) / np.linalg.norm(einv)
    r3 = np.linalg.norm(einv - einv.T) / np.linalg.norm(einv)
    ok = rel_b <= 1e-10 and r1 <= 1e-9 and r2 <= 1e-9 and r3 <= 1e-9
    _report(3, ok, (f"Bt Einv B = Rinv rel {rel_b:.1e}; reflexivity triple "
                    f"{r1:.1e} / {r2:.1e} / {r3:.1e}"))


def test_criterion_04_structured_ops_match_oracle(desk):
    ctx, oracle = desk.ctx, desk.oracle
    rng = np.random.default_rng(11)
    worst_a = 0.0
    for _ in range(10):
        v = oracle.pi_apply(rng.standard_normal(ctx.rsys.n_r))
        z = ctx.apply_EinvA(v)
        zo = oracle.einv_apply(oracle.A_dense @ v)
        worst_a = max(worst_a, np.linalg.norm(z - zo) / np.linalg.norm(zo))
    worst_s = 0.0
    sb = desk.bounds
    for tau in -np.geomspace(sb.a, sb.b, 10):
        w = rng.standard_normal(ctx.rsys.n_r)
        z = ctx.shifted_solve(float(tau), w)
        zd = np.linalg.solve(tau * oracle.E_dense + oracle.A_dense, w)
        worst_s = max(worst_s, np.linalg.norm(z - zd) / np.linalg.norm(zd))
    ok = worst_a <= 1e-9 and worst_s <= 1e-9
    _report(4, ok, f"EinvA rel {worst_a:.1e}, shifted solve rel {worst_s:.1e} (10 each)")


def test_criterion_05_lr_adi_convergence_and_residual_identity(desk):
    ctx, zc = desk.ctx, desk.zc
    conv_ok = zc.n_c <= 60 and zc.history.min() <= 1e-10
    b = ctx.B_r
    m = b.shape[1]
    worst = 0.0
    # history[k-1] ||B_r^T B_r||_F is ||R_k^T R_k||_F
    checkpoints = [k for k in (5, 10, 15) if k <= zc.iterations]
    for k in checkpoints:
        z = zc.Z[:, : k * m]
        ez, az = ctx.apply_Er(z), ctx.apply_Ar(z)
        resid = ez @ az.T
        resid += resid.T.copy()
        resid += b @ b.T
        lhs = np.linalg.norm(resid)
        rhs = zc.history[k - 1] * np.linalg.norm(b.T @ b)
        worst = max(worst, abs(lhs - rhs) / rhs)
    ok = conv_ok and worst <= 1e-8 and len(checkpoints) == 3
    _report(5, ok, (f"residual {zc.history.min():.1e} in n_c={zc.n_c} cols; "
                    f"identity mismatch {worst:.1e} at 3 checkpoints"))


def test_criterion_06_theorem4_gramian_identity(desk):
    oracle = desk.oracle
    gc, go = dense_gramians(oracle)
    ew = oracle.E_dense @ oracle.W1
    aw = oracle.A_dense @ oracle.W1
    lhs = (ew @ go) @ ew.T
    rhs = (aw @ gc) @ aw.T
    rel = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
    ok = rel <= 1e-8
    _report(6, ok, f"|| E Go E - A Gc A || rel {rel:.1e}")


def test_criterion_07_balanced_truncation_structure(desk):
    model = desk.model
    exact_ct = np.array_equal(model.C, model.B.T)
    try:
        np.linalg.cholesky(-model.A)
        spd_ok = True
    except np.linalg.LinAlgError:
        spd_ok = False
    lam1 = np.diag(model.hankel[: model.ell])
    gc = scipy.linalg.solve_continuous_lyapunov(model.A, -model.B @ model.B.T)
    go = scipy.linalg.solve_continuous_lyapunov(model.A.T, -model.C.T @ model.C)
    bal = max(np.linalg.norm(gc - lam1), np.linalg.norm(go - lam1)) / np.linalg.norm(lam1)
    scan = passivity_scan(functools.partial(transfer_reduced, model), n_samples=50, seed=13)
    ok = exact_ct and spd_ok and bal <= 1e-6 and scan["min_margin_rel"] >= -1e-10
    _report(7, ok, (f"C=B^T exact; -A SPD; reduced Gramians = Lambda1 rel {bal:.1e}; "
                    f"passivity margin {scan['min_margin_rel']:.1e} (50 samples)"))


def test_criterion_08_error_bound_vs_hinf(desk):
    model = desk.model
    dominates = model.hinf_error <= model.error_bound
    omegas = np.geomspace(1e-4, 1e6, 33)
    fr = frequency_response(desk.ctx, model, omegas)
    within = np.all(fr.abs_error <= model.error_bound * (1 + 1e-9))
    attained_low = abs(fr.abs_error[0] - model.hinf_error) <= 0.01 * model.hinf_error
    peak_is_low_end = fr.abs_error.argmax() == 0 or fr.abs_error.max() <= fr.abs_error[0] * 1.01
    ok = dominates and within and attained_low and peak_is_low_end
    _report(8, ok, (f"hinf {model.hinf_error:.4e} <= bound {model.error_bound:.4e}; "
                    f"max sampled err {fr.abs_error.max():.4e} within bound, "
                    f"attained at low end"))


def test_criterion_09_full_model_passivity(desk):
    scan = passivity_scan(functools.partial(transfer_full, desk.ctx), n_samples=50, seed=17)
    ok = scan["min_margin_rel"] >= -1e-10
    _report(9, ok, f"min eig margin {scan['min_margin_rel']:.3e} over 50 samples")


def test_criterion_10_default_scenario_pipeline(tmp_path):
    cfg = default_config()
    t0 = time.perf_counter()
    state = run_pipeline(cfg, "all", out_dir=str(tmp_path / "run"))
    elapsed = time.perf_counter() - t0
    model = state.model()
    rinv_norm = np.linalg.norm(np.linalg.inv(cfg.material.R), 2)
    bound_ok = model.error_bound <= 1e-8 * rinv_norm
    sim = np.loadtxt(tmp_path / "run" / "simulate" / "simulation.csv",
                     delimiter=",", skiprows=1)
    max_rel = sim[:, 4].max()
    verify_text = (tmp_path / "run" / "verify" / "verify.txt").read_text()
    ok = bound_ok and max_rel <= 1e-6 and elapsed <= 600.0 and "FAIL" not in verify_text
    _report(10, ok, (f"bound {model.error_bound:.2e} <= 1e-8*||Rinv||; "
                     f"max_t |y-y~|/max|y| = {max_rel:.2e} <= 1e-6; "
                     f"pipeline {elapsed:.0f}s <= 600s; verify all PASS"))


def test_criterion_11_toy_regression():
    sysm, bases = make_toy_system()
    rsys = build_regularized(sysm, bases)
    ctx = OperatorContext(rsys)
    eye = np.eye(2)
    er = np.column_stack([rsys.apply_Er(eye[:, i]) for i in range(2)])
    ar = np.column_stack([rsys.apply_Ar(eye[:, i]) for i in range(2)])
    ok = (np.abs(er - [[4.0, 1.0], [1.0, 1.0]]).max() <= 1e-12
          and np.abs(ar - [[-2.0, -2.0], [-2.0, -2.0]]).max() <= 1e-12)
    lam = np.sort(scipy.linalg.eig(ar, er, right=False).real)
    ok &= abs(lam[0] + 2.0) <= 1e-12 and abs(lam[1]) <= 1e-12
    cr = np.array([ctx.apply_Cr(eye[:, i])[0] for i in range(2)])
    ok &= np.abs(cr - [2.0, 2.0]).max() <= 1e-12
    zc = lr_adi(ctx, ShiftSet(np.array([-2.0]), 0.0, (2.0, 2.0)),
                tol=1e-14, maxit=4)
    model = balanced_truncate(ctx, zc, ell=1)
    ok &= model.hinf_error <= 1e-12
    ok &= abs(model.A[0, 0] + 2.0) <= 1e-12
    _report(11, bool(ok), ("toy E_r, A_r, eigenvalues {0,-2}, C_r=(2,2), "
                           f"exact order-1 reduction, hinf={model.hinf_error:.1e}"))

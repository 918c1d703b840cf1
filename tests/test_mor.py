from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import minimize
from scipy.special import ellipk, ellipkm1

from mqsmor.assembly import build_system
from mqsmor.config import RunConfig
from mqsmor.mesh import build_incidence, eliminate_boundary, generate_mesh
from mqsmor.mor import (
    ShiftSet,
    TargetNotMet,
    _hankel,
    adi_rational_max,
    balanced_truncate,
    error_bound,
    hinf_error,
    lr_adi,
    reduced_order,
    rounding_allowance,
    wachspress_shifts,
)
from mqsmor.lacore import dense_sym_eig
from mqsmor.ops import OperatorContext
from mqsmor.oracle import build_dense_oracle, dense_gramians
from mqsmor.regularize import build_regularized, kernel_bases


def test_wachspress_point_spectrum():
    ss = wachspress_shifts(2.0, 2.0, 1e-8)
    assert np.array_equal(ss.shifts, [-2.0]) and ss.rho == 0.0


def test_wachspress_validation():
    with pytest.raises(ValueError):
        wachspress_shifts(0.0, 1.0, 1e-8)
    with pytest.raises(ValueError):
        wachspress_shifts(1.0, 2.0, 2.0)


def test_wachspress_shift_interval_invariant():
    ss = wachspress_shifts(1.0, 1e4, 1e-10)
    assert np.all(ss.shifts <= -1.0 * (1 - 1e-12))
    assert np.all(ss.shifts >= -1e4 * (1 + 1e-12))
    assert ss.rho < 1


def test_wachspress_j4_vs_minimax_oracle():
    # dense grid + Nelder-Mead alternation oracle for the same J = 4
    a, b = 1.0, 100.0
    from scipy.special import ellipj, ellipkm1
    mc = (a / b) ** 2
    big_k = ellipkm1(mc)
    u = (2 * np.arange(1, 5) - 1) * big_k / 8.0
    dn = ellipj(u, 1 - mc)[2]
    shifts = np.clip(-a / dn, -b, -a)
    rho = adi_rational_max(shifts, a, b)

    def objective(logp):
        return adi_rational_max(-np.exp(logp), a, b, n_grid=2001)

    best = np.inf
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x0 = np.log(np.sort(rng.uniform(a, b, 4)))
        res = minimize(objective, x0, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 6000})
        best = min(best, res.fun)
    assert rho <= 1.05 * best


def test_lr_adi_toy_one_step_exact(toy):
    _, _, rsys, ctx = toy
    shifts = ShiftSet(np.array([-2.0]), 0.0, (2.0, 2.0))
    zc = lr_adi(ctx, shifts, tol=1e-14, maxit=5)
    assert zc.status == "converged"
    assert zc.n_c == 1
    assert zc.history[-1] <= 1e-14
    # exact rank-1 controllability Gramian [[0,0],[0,1/4]]
    g = zc.Z @ zc.Z.T
    assert np.allclose(g, [[0.0, 0.0], [0.0, 0.25]], atol=1e-13)


def test_lr_adi_zero_input(toy):
    _, _, rsys, ctx = toy
    ctx.B_r = np.zeros_like(ctx.B_r)
    zc = lr_adi(ctx, ShiftSet(np.array([-1.0]), 0.0, (1.0, 1.0)),
                tol=1e-12, maxit=3)
    assert zc.n_c == 0 and zc.history[-1] == 0.0


@pytest.mark.parametrize("maxit", [0, -1])
def test_lr_adi_refuses_maxit_below_one(toy, monkeypatch, maxit):
    """``maxit`` < 1 is refused by name before any LU is built."""
    ctx = toy[3]
    built = []
    monkeypatch.setattr(ctx, "shifted_lu", lambda shift: built.append(shift))
    with pytest.raises(ValueError, match=f"maxit >= 1, got maxit = {maxit}"):
        lr_adi(ctx, ShiftSet(np.array([-2.0]), 0.0, (2.0, 2.0)), maxit=maxit)
    assert built == []


def test_lr_adi_desk_converges_within_60_columns(desk):
    zc = desk.zc
    assert zc.status == "converged"
    assert zc.n_c <= 60
    assert zc.history.min() <= 1e-10


def test_lr_adi_residual_identity_checkpoints(desk):
    """Dense check || E Z Z^T A + A Z Z^T E + B B^T ||_F = || R_k^T R_k ||_F
    for the first k*m columns of Z."""
    ctx, zc = desk.ctx, desk.zc
    b = ctx.B_r
    m = b.shape[1]
    assert zc.iterations >= 15
    for k in (5, 10, 15):
        z = zc.Z[:, : k * m]
        ez = ctx.apply_Er(z)
        az = ctx.apply_Ar(z)
        resid = ez @ az.T
        resid += resid.T.copy()
        resid += b @ b.T
        lhs = np.linalg.norm(resid)
        # history[k-1] ||B_r^T B_r||_F is ||R_k^T R_k||_F
        rhs = zc.history[k - 1] * np.linalg.norm(b.T @ b)
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_balanced_truncate_toy_exact(toy):
    _, _, rsys, ctx = toy
    shifts = ShiftSet(np.array([-2.0]), 0.0, (2.0, 2.0))
    zc = lr_adi(ctx, shifts, tol=1e-14, maxit=5)
    model = balanced_truncate(ctx, zc, ell=1)
    assert model.A[0, 0] == pytest.approx(-2.0, abs=1e-12)
    assert model.hankel[0] == pytest.approx(0.5, abs=1e-13)
    assert model.hinf_error <= 1e-12
    assert np.array_equal(model.C, model.B.T)
    # tr(R^{-1}) = 1 = 2 sigma_1: the exact order-1 reduction has a bound of
    # rounding size, where the paper's formula reads 2 (n_s - 1 + 1) sigma_1
    assert model.error_bound == error_bound(model.hankel, 1.0, 1)
    assert model.hinf_error <= model.error_bound <= 1e-14
    assert model.paper_bound == pytest.approx(1.0, rel=1e-12)
    assert abs(model.delta) <= rounding_allowance(1, 1.0)


def test_balanced_truncate_errors(toy):
    _, _, _, ctx = toy
    shifts = ShiftSet(np.array([-2.0]), 0.0, (2.0, 2.0))
    zc = lr_adi(ctx, shifts, tol=1e-14, maxit=5)
    with pytest.raises(ValueError, match="order"):
        balanced_truncate(ctx, zc, ell=5)
    with pytest.raises(ValueError, match="target"):
        balanced_truncate(ctx, zc)
    zc.Z = zc.Z[:, :0]
    with pytest.raises(ValueError, match="empty"):
        balanced_truncate(ctx, zc, ell=1)


def test_balanced_truncate_refuses_target_no_order_meets(toy):
    """One LR-ADI step with the shift -5, against the toy's pole at -2, meets
    a loose tolerance of 0.5 and leaves a Hankel value of 0.408 where the
    Gramian's is 0.5.  The best bound, 1 - 2 * 0.408 = 0.18, lies far above
    a 1e-3 target, so no model is made (the order used to fall back to n_c
    and be projected regardless)."""
    _, _, _, ctx = toy
    zc = lr_adi(ctx, ShiftSet(np.array([-5.0]), 0.9, (2.0, 20.0)), tol=0.5, maxit=5)
    assert zc.status == "converged" and zc.n_c == 1
    best = error_bound(_hankel(ctx, zc.Z)[0], 1.0, 1)
    assert best > 0.1
    with pytest.raises(TargetNotMet, match=rf"target 1\.000e-03.*bound over the "
                                           rf"n_c = 1 orders is {best:.3e}"):
        balanced_truncate(ctx, zc, target=1e-3)
    assert balanced_truncate(ctx, zc, target=best).ell == 1
    assert balanced_truncate(ctx, zc, ell=1).error_bound == best


@pytest.mark.parametrize("status", ["maxit", "stagnated"])
def test_balanced_truncate_refuses_unconverged_status(toy, status):
    _, _, _, ctx = toy
    zc = lr_adi(ctx, ShiftSet(np.array([-2.0]), 0.0, (2.0, 2.0)), tol=1e-14, maxit=5)
    zc.status = status
    with pytest.raises(RuntimeError, match=f"'{status}'"):
        balanced_truncate(ctx, zc, ell=1)


def test_balanced_truncate_refuses_unconverged_desk_factor(desk):
    """Four LR-ADI steps, one cycle of the desk's four shifts, leave the
    residual at 0.083, far above the tolerance; the Hankel values of such a
    factor miss part of the Gramian, so no model is made from them."""
    zc = lr_adi(desk.ctx, desk.shifts, tol=desk.config["mor.tol_adi"], maxit=4)
    assert len(desk.shifts) == 4
    assert zc.status == "maxit" and zc.history[-1] == pytest.approx(0.083, rel=0.05)
    with pytest.raises(RuntimeError, match="'maxit'.*last residual"):
        balanced_truncate(desk.ctx, zc, ell=4)
    with pytest.raises(RuntimeError, match="'maxit'"):
        balanced_truncate(desk.ctx, zc, target=desk.config.tol_hsv)


def test_balanced_truncate_desk_structure(desk):
    model = balanced_truncate(desk.ctx, desk.zc, ell=5)
    assert np.array_equal(model.C, model.B.T)
    np.linalg.cholesky(-model.A)           # -A SPD
    assert np.allclose(model.A, model.A.T)
    assert model.hinf_error <= model.error_bound


def _first_order_meeting_bound(hankel, trace_rinv, target):
    """Brute force: scan ``error_bound`` over every order."""
    for ell in range(1, len(hankel) + 1):
        if error_bound(hankel, trace_rinv, ell) <= target:
            return ell
    return len(hankel)


@pytest.mark.parametrize("hankel, trace_rinv", [
    ([3.0, 1.0, 0.5, 0.25], 10),
    ([2.0, 0.5, 0.25, 0.0, 0.0, 0.0], 6),
    ([1.0, 1e-3, 1e-9, 0.0], 4),
    ([1.0, 0.0], 2),
    ([1.5], 3),
])
def test_reduced_order_matches_bound_scan_with_zero_tail(hankel, trace_rinv):
    hankel = np.array(hankel)
    for target in (0.0, 1e-12, 1e-3, 0.3, 0.5, 1.0, 2.0, 10.0, 100.0):
        assert reduced_order(hankel, trace_rinv, target) == \
            _first_order_meeting_bound(hankel, trace_rinv, target)


def test_reduced_order_matches_bound_scan_on_desk(desk):
    model = desk.model
    hankel = model.hankel
    assert len(hankel) == desk.zc.n_c
    target = desk.config.tol_hsv
    assert target == pytest.approx(1e-10, rel=1e-12)
    trace_rinv = 1 / 100.0
    assert model.ell == reduced_order(hankel, trace_rinv, target) == 10
    assert model.error_bound == pytest.approx(4.7005991e-11, rel=1e-7)
    assert model.error_bound == error_bound(hankel, trace_rinv, model.ell)
    bounds = [error_bound(hankel, trace_rinv, ell) for ell in range(1, len(hankel) + 1)]
    for target in [desk.config.tol_hsv] + bounds + [0.5 * b for b in bounds]:
        assert reduced_order(hankel, trace_rinv, target) == \
            _first_order_meeting_bound(hankel, trace_rinv, target)


def test_error_bound_is_rounded_exact_sum():
    """tr(R^{-1}) - 2 (s_1 + ... + s_ell) is summed without cancellation
    error, and the allowance n_c^2 eps tr(R^{-1}) is added on top."""
    hankel = np.array([0.5 - 2.0 ** -60, 2.0 ** -58, 2.0 ** -70])
    exact = Fraction(1) - 2 * sum(Fraction(h) for h in hankel[:2])
    assert error_bound(hankel, 1.0, 2) == float(exact) + 9 * np.finfo(float).eps
    assert rounding_allowance(3, 1.0) == 9 * np.finfo(float).eps


def test_hinf_error_requires_negative_definite():
    with pytest.raises(ValueError):
        hinf_error(np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))


def test_hinf_error_is_exact_for_the_float64_model():
    """R^{-1} + B^T A^{-1} B in rational arithmetic, rounded once: here the
    float64 evaluation loses every digit to cancellation."""
    a, b, r = np.array([[-1.0]]), np.array([[0.1]]), np.array([[100.0]])
    exact = Fraction(1, 100) - Fraction(0.1) ** 2
    assert hinf_error(a, b, r) == abs(float(exact)) != 0.0
    assert abs(0.01 + (b.T @ np.linalg.solve(a, b))[0, 0]) != abs(float(exact))
    # m = 2: the exact matrix, rounded once, then its 2-norm
    a2 = np.array([[-3.0, 1.0], [1.0, -2.0]])
    b2 = np.array([[1.0, 0.5], [0.25, 1.0]])
    r2 = np.array([[2.0, 0.0], [0.0, 4.0]])
    inv_a = [[Fraction(-2, 5), Fraction(-1, 5)], [Fraction(-1, 5), Fraction(-3, 5)]]
    mat = [[Fraction(int(i == j), int(r2[i, i])) + sum(
        Fraction(b2[k, i]) * inv_a[k][l] * Fraction(b2[l, j])
        for k in range(2) for l in range(2)) for j in range(2)] for i in range(2)]
    assert hinf_error(a2, b2, r2) == np.linalg.norm(np.array(mat, dtype=float), 2)


def test_reduced_gramians_balanced(desk):
    """Reduced controllability and observability Gramians both equal Lambda_1."""
    model = desk.model
    lam1 = np.diag(model.hankel[: model.ell])
    gc = scipy.linalg.solve_continuous_lyapunov(model.A, -model.B @ model.B.T)
    go = scipy.linalg.solve_continuous_lyapunov(model.A.T, -model.C.T @ model.C)
    assert np.linalg.norm(gc - lam1) <= 1e-6 * np.linalg.norm(lam1)
    assert np.linalg.norm(go - lam1) <= 1e-6 * np.linalg.norm(lam1)


def test_gramian_factor_consistency_with_oracle(desk):
    """G_o = (E^- A Z_c)(E^- A Z_c)^T against the dense oracle Gramian."""
    from mqsmor.oracle import build_dense_oracle, dense_gramians
    ctx, oracle = desk.ctx, desk.oracle
    zo = ctx.apply_EinvA(desk.zc.Z)
    _, go = dense_gramians(oracle)
    go_dense = go.toarray()
    diff = zo @ zo.T - go_dense
    assert np.linalg.norm(diff) <= 1e-6 * np.linalg.norm(go_dense)


def _oracle_cases(toy, synthetic, desk):
    yield toy[3], build_dense_oracle(toy[3], cap=100)
    yield synthetic[3], synthetic[4]
    yield desk.ctx, desk.oracle


def _hankel_from_oracle(ctx, oracle):
    """Hankel values of the system from the oracle's dense Gramian, the
    eigenvalues (descending) of L^T G_c L with L L^T = -W1^T A_r W1, and
    tr(R^{-1})."""
    g_c = dense_gramians(oracle)[0].core
    s = -oracle.W1.T @ oracle.AW1
    low = np.linalg.cholesky(0.5 * (s + s.T))
    sigma = np.linalg.eigvalsh(low.T @ (0.5 * (g_c + g_c.T)) @ low)[::-1]
    return sigma, float(np.trace(ctx.rsys.Rinv))


def test_hankel_values_sum_to_half_trace_of_rinv(toy, synthetic, desk):
    """sum_i sigma_i = tr(R^{-1})/2 on the toy, synthetic and desk systems."""
    for ctx, oracle in _oracle_cases(toy, synthetic, desk):
        sigma, trace_rinv = _hankel_from_oracle(ctx, oracle)
        assert sigma.sum() == pytest.approx(trace_rinv / 2, rel=1e-12)


def test_factor_hankel_values_lie_below_the_systems(desk):
    """s_i <= sigma_i for the desk's LR-ADI factor, within the rounding
    allowance and the dense Gramian's own noise (its most negative
    eigenvalue, 7.9e-18 on the desk); Delta >= 0 within the allowance."""
    sigma, trace_rinv = _hankel_from_oracle(desk.ctx, desk.oracle)
    model = desk.model
    allowance = rounding_allowance(len(model.hankel), trace_rinv)
    noise = max(-sigma.min(), 0.0)
    assert noise <= 1e-16
    assert len(sigma) >= len(model.hankel)
    assert np.all(model.hankel <= sigma[:len(model.hankel)] + allowance + noise)
    assert model.delta >= -allowance
    assert model.delta == pytest.approx(trace_rinv / 2 - model.hankel.sum(), abs=1e-17)


def _shifts_of_count(a, b, count):
    """Wachspress shifts on [a, b] with exactly ``count`` shifts: the
    ``eps`` at the middle of the range that gives that count."""
    mc = (a / b) ** 2
    c = ellipkm1(mc) / (2.0 * ellipk(mc) * np.pi)
    shifts = wachspress_shifts(a, b, 4.0 * np.exp(-(count - 0.5) / c))
    assert len(shifts) == count
    return shifts


@pytest.mark.parametrize("count", range(3, 11))
def test_bound_dominates_exact_dc_error_on_desk(desk, count):
    cfg = desk.config
    shifts = _shifts_of_count(desk.bounds.a, desk.bounds.b, count)
    zc = lr_adi(desk.ctx, shifts, tol=cfg["mor.tol_adi"], maxit=cfg["mor.maxit_adi"])
    model = balanced_truncate(desk.ctx, zc, target=cfg.tol_hsv)
    assert model.hinf_error <= model.error_bound <= cfg.tol_hsv
    assert model.delta >= -rounding_allowance(zc.n_c, 0.01)


def test_bound_dominates_exact_dc_error_on_box10():
    """The resolution-10 box of the benchmark's box10-reduce workload."""
    cfg = RunConfig({
        "geometry.resolution": 10,
        "geometry.r1": 0.0126, "geometry.r2": 0.0252,
        "geometry.r3": 0.0378, "geometry.r4": 0.0504,
        "geometry.z1": -0.0504, "geometry.z2": 0.0504,
        "geometry.z3": -0.0252, "geometry.z4": 0.0252,
    })
    mesh = generate_mesh(cfg.geometry)
    inc = eliminate_boundary(build_incidence(mesh), mesh)
    system = build_system(mesh, inc, cfg.material, cfg.winding)
    ctx = OperatorContext(build_regularized(system, kernel_bases(inc)))
    bounds = ctx.spectral_bounds(maxit=cfg["mor.lanczos_maxit"], tol=cfg["mor.lanczos_tol"])
    shifts = wachspress_shifts(bounds.a, bounds.b, cfg["mor.eps_shift"])
    zc = lr_adi(ctx, shifts, tol=cfg["mor.tol_adi"], maxit=cfg["mor.maxit_adi"])
    model = balanced_truncate(ctx, zc, target=cfg.tol_hsv)
    assert model.hinf_error <= model.error_bound <= cfg.tol_hsv

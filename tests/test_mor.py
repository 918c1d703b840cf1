import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import minimize

from mqsmor.mor import (
    ShiftSet,
    adi_rational_max,
    balanced_truncate,
    error_bound,
    hinf_error,
    lr_adi,
    reduced_order,
    wachspress_shifts,
)
from mqsmor.lacore import dense_sym_eig


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
    # degenerate-tail bound formula with ell = n_c
    assert model.error_bound == pytest.approx(
        2.0 * (model.n_s - 1 + 1) * model.hankel[-1], rel=1e-12)
    assert model.error_bound >= 0.0


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


@pytest.mark.parametrize("status", ["maxit", "stagnated"])
def test_balanced_truncate_refuses_unconverged_status(toy, status):
    _, _, _, ctx = toy
    zc = lr_adi(ctx, ShiftSet(np.array([-2.0]), 0.0, (2.0, 2.0)), tol=1e-14, maxit=5)
    zc.status = status
    with pytest.raises(RuntimeError, match=f"'{status}'"):
        balanced_truncate(ctx, zc, ell=1)


def test_balanced_truncate_refuses_unconverged_desk_factor(desk):
    """Four LR-ADI steps leave the residual near 1; the Hankel values of such
    a factor would give an error bound far below the true H-infinity error."""
    zc = lr_adi(desk.ctx, desk.shifts, tol=desk.config["mor.tol_adi"], maxit=4)
    assert zc.status == "maxit" and zc.history[-1] > 0.5
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


def _first_order_meeting_bound(hankel, n_s, target):
    """Brute force: scan ``error_bound`` over every order."""
    for ell in range(1, len(hankel) + 1):
        if error_bound(hankel, n_s, ell) <= target:
            return ell
    return len(hankel)


@pytest.mark.parametrize("hankel, n_s", [
    ([3.0, 1.0, 0.0, 0.0], 10),
    ([2.0, 0.5, 0.25, 0.0, 0.0, 0.0], 6),
    ([1.0, 1e-3, 1e-9, 0.0], 4),
    ([5.0, 0.0], 2),
    ([5.0], 3),
])
def test_reduced_order_matches_bound_scan_with_zero_tail(hankel, n_s):
    hankel = np.array(hankel)
    for target in (0.0, 1e-12, 1e-3, 0.3, 0.5, 1.0, 2.0, 10.0, 100.0):
        assert reduced_order(hankel, n_s, target) == \
            _first_order_meeting_bound(hankel, n_s, target)


def test_reduced_order_matches_bound_scan_on_desk(desk):
    model = desk.model
    hankel = model.hankel
    assert len(hankel) == desk.zc.n_c
    target = desk.config.tol_hsv
    assert target == pytest.approx(1e-10, rel=1e-12)
    assert model.ell == reduced_order(hankel, model.n_s, target) == 10
    assert model.error_bound == pytest.approx(4.6999577e-11, rel=1e-7)
    assert model.error_bound == error_bound(hankel, model.n_s, model.ell)
    bounds = [error_bound(hankel, model.n_s, ell) for ell in range(1, len(hankel) + 1)]
    for target in [desk.config.tol_hsv] + bounds + [0.5 * b for b in bounds]:
        assert reduced_order(hankel, model.n_s, target) == \
            _first_order_meeting_bound(hankel, model.n_s, target)


def test_hinf_error_requires_negative_definite():
    with pytest.raises(ValueError):
        hinf_error(np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))


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
    from mqsmor.oracle import dense_gramians
    ctx, oracle = desk.ctx, desk.oracle
    zo = ctx.apply_EinvA(desk.zc.Z)
    _, go = dense_gramians(oracle)
    go_dense = go.toarray()
    diff = zo @ zo.T - go_dense
    assert np.linalg.norm(diff) <= 1e-6 * np.linalg.norm(go_dense)

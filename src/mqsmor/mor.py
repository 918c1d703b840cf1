"""Low-rank ADI solution of the projected Lyapunov equation and balanced truncation.

The LR-ADI recurrence (real negative shifts tau_k, E_r symmetric):

    F_k = (tau_k E_r + A_r)^{-1} R_{k-1}
    R_k = R_{k-1} - 2 tau_k E_r F_k
    Z_k = [Z_{k-1}, sqrt(-2 tau_k) F_k]

The normalized residual ||R_k^T R_k||_F / ||B_r^T B_r||_F equals the true
Lyapunov residual norm of Z_k Z_k^T, which the test suite verifies densely.
Optimal shifts come from the classical elliptic-integral minimax solution on
the spectral interval [a, b].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ellipj, ellipk, ellipkm1

from .lacore import dense_sym_eig
from .ops import OperatorContext


@dataclass
class ShiftSet:
    """Negative real ADI shifts with the achieved minimax value on [a, b]."""

    shifts: np.ndarray
    rho: float
    interval: tuple

    def __post_init__(self):
        a, b = self.interval
        if np.any(self.shifts > -a * (1 - 1e-12)) or np.any(self.shifts < -b * (1 + 1e-12)):
            raise ValueError("shifts must lie in [-b, -a]")
        if not self.rho < 1:
            raise ValueError("achieved minimax value must be < 1")

    def __len__(self):
        return len(self.shifts)


def adi_rational_max(shifts, a, b, n_grid=4001):
    """max over [a, b] of prod_j |(x - p_j)/(x + p_j)| with p_j = -tau_j."""
    p = -np.asarray(shifts, dtype=float)
    x = np.geomspace(a, b, n_grid)
    vals = np.ones_like(x)
    for pj in p:
        vals *= np.abs((x - pj) / (x + pj))
    return float(vals.max())


def wachspress_shifts(a, b, eps):
    """Optimal ADI shift parameters for a real spectrum in [-b, -a].

    Uses the elliptic-integral solution of the rational minimax problem;
    the shift count J is the smallest one whose predicted reduction reaches
    ``eps``.
    """
    if a <= 0:
        raise ValueError("spectral bound a must be positive")
    if not a <= b:
        raise ValueError("need a <= b")
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    if b / a - 1 < 1e-12:
        return ShiftSet(np.array([-a]), 0.0, (a, b))

    kprime = a / b
    mc = kprime ** 2           # complementary parameter; k^2 = 1 - mc
    big_k = ellipkm1(mc)       # K(k) with k^2 = 1 - mc
    v = ellipk(mc)             # K(k')
    j_count = int(np.ceil(big_k / (2.0 * v * np.pi) * np.log(4.0 / eps)))
    j_count = max(j_count, 1)

    u = (2.0 * np.arange(1, j_count + 1) - 1.0) * big_k / (2.0 * j_count)
    _, _, dn, _ = ellipj(u, 1.0 - mc)
    shifts = np.clip(-a / dn, -b, -a)
    rho = adi_rational_max(shifts, a, b)
    return ShiftSet(np.sort(shifts), rho, (a, b))


@dataclass
class LowRankFactor:
    """Tall factor Z with G_c approx Z Z^T, plus the residual history.

    ``history[k-1]`` is the normalized residual ||R_k^T R_k||_F /
    ||B_r^T B_r||_F after k steps, which is also the normalized Lyapunov
    residual of the partial factor made of the first k*m columns of Z.
    """

    Z: np.ndarray
    history: np.ndarray
    iterations: int
    status: str     # converged | maxit | stagnated

    @property
    def n_c(self):
        return self.Z.shape[1]


def lr_adi(ctx: OperatorContext, shifts: ShiftSet, tol=1e-12, maxit=80):
    """LR-ADI iteration for the controllability Gramian factor.

    Shifts are cycled when exhausted.  Stops at the normalized residual
    tolerance, at ``maxit`` steps, or when a full shift cycle brought no
    residual decrease (warning, partial factor returned).  Each shift cycle
    runs through its own ``ctx.shifted_solves`` sequence, which factors the
    next shifts of the cycle ahead on worker threads.  The shift count is
    chosen so that one cycle reaches the tolerance, so no LU is built past
    the end of the cycle; up to ``ops.LU_LANES`` look-ahead LUs go unused
    when the iteration stops inside a cycle, and a run that needs another
    cycle waits, unoverlapped, for that cycle's first LU.
    """
    b = ctx.B_r
    n_r, m = b.shape
    bnorm = np.linalg.norm(b.T @ b)
    if bnorm == 0:
        return LowRankFactor(np.zeros((n_r, 0)), np.array([0.0]), 0, "converged")
    res_mat = b.copy()
    cols = []
    hist = []
    j_count = len(shifts)
    status = "maxit"
    k = 0       # steps done
    while status == "maxit" and k < maxit:
        cycle = [float(tau) for tau in shifts.shifts[: maxit - k]]
        solves = ctx.shifted_solves(cycle)
        next(solves)
        try:
            for tau in cycle:
                f = solves.send(res_mat)
                res_mat = res_mat - 2.0 * tau * ctx.apply_Er(f)
                cols.append(np.sqrt(-2.0 * tau) * f)
                hist.append(float(np.linalg.norm(res_mat.T @ res_mat) / bnorm))
                k += 1
                if hist[-1] <= tol:
                    status = "converged"
                    break
                if k >= 2 * j_count and hist[-1] >= hist[-1 - j_count]:
                    status = "stagnated"
                    warnings.warn("LR-ADI stagnated over a full shift cycle; "
                                  "returning partial factor")
                    break
        finally:
            solves.close()
    z = np.hstack(cols)
    return LowRankFactor(z, np.array(hist), k, status)


@dataclass
class ReducedModel:
    """Balanced-truncated model (E = I implicit, C = B^T exactly)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    hankel: np.ndarray     # all n_c Hankel values, descending
    ell: int
    n_s: int
    m: int
    error_bound: float
    hinf_error: float


def _hankel(ctx: OperatorContext, z):
    """Eigenvalues (descending) and eigenvectors of -Z^T A_r Z."""
    h = -(z.T @ ctx.apply_Ar(z))
    return dense_sym_eig(0.5 * (h + h.T))


def error_bound(hankel, n_s, ell) -> float:
    """Truncated-tail balanced-truncation bound of an order-``ell`` model,
    2 (lam_{l+1} + ... + lam_{nc-1} + (n_s - l + 1) lam_{nc}), from the
    Hankel values ``hankel`` (descending) of a converged factor."""
    lam = np.clip(hankel, 0.0, None)
    n_c = lam.shape[0]
    tail = lam[ell: n_c - 1].sum() if ell < n_c - 1 else 0.0
    return float(2.0 * (tail + (n_s - ell + 1) * lam[n_c - 1]))


def reduced_order(hankel, n_s, target) -> int:
    """Smallest order whose truncated-tail error bound meets ``target``, or
    n_c when none does.  The bound never grows with the order."""
    n_c = len(hankel)
    return next((ell for ell in range(1, n_c + 1)
                 if error_bound(hankel, n_s, ell) <= target), n_c)


def balanced_truncate(ctx: OperatorContext, zc: LowRankFactor, ell=None,
                      target=None) -> ReducedModel:
    """Balanced truncation from a converged low-rank Gramian factor.

    Raises RuntimeError unless ``zc.status`` is "converged": the error bound
    holds only for the Hankel values of a converged factor, so none is ever
    reported from an unconverged one.  The Hankel values are the eigenvalues
    of -Z^T A_r Z; without ``ell`` the order is the smallest whose error
    bound meets ``target`` (``reduced_order``).  The projection matrix is
    V = Z U_1 Lambda_1^{-1/2}; the reduced matrices are evaluated columnwise
    through the structured E_r^- A_r products.  The identity reduced-E is
    asserted via the Lambda normalization.  The model carries its error
    bound and its closed-form H-infinity error.
    """
    if zc.status != "converged":
        raise RuntimeError(
            f"LR-ADI ended with status {zc.status!r} after {zc.iterations} "
            f"steps, last residual {zc.history[-1]:.3e}; no certified model")
    z = zc.Z
    if z.shape[1] == 0:
        raise ValueError("empty low-rank factor")
    if ell is None and target is None:
        raise ValueError("give the reduced order or an error-bound target")
    lam, u = _hankel(ctx, z)
    n_c = lam.shape[0]
    n_s = ctx.dimension_counts()["n_s"]
    if ell is None:
        ell = reduced_order(lam, n_s, target)
    if not 1 <= ell <= n_c:
        raise ValueError(f"reduced order {ell} out of range 1..{n_c}")
    if lam[ell - 1] <= 0:
        raise ValueError(
            f"requested order {ell} exceeds the numerical rank of the Gramian factor"
        )
    lam1 = lam[:ell]
    v = z @ (u[:, :ell] / np.sqrt(lam1))
    av = ctx.apply_Ar(v)
    einv_av = ctx.apply_EinvA(v)
    a_red = -av.T @ einv_av
    e_red = -av.T @ v
    if np.linalg.norm(e_red - np.eye(ell)) > 1e-8 * max(1.0, np.linalg.norm(e_red)):
        raise RuntimeError("reduced E deviates from identity; factor is inconsistent")
    a_red = 0.5 * (a_red + a_red.T)
    try:
        np.linalg.cholesky(-a_red)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("reduced A is not negative definite") from exc
    b_red = -av.T @ ctx.apply_EinvB()
    return ReducedModel(
        A=a_red, B=b_red, C=b_red.T.copy(), hankel=lam, ell=ell, n_s=n_s, m=ctx.rsys.m,
        error_bound=error_bound(lam, n_s, ell),
        hinf_error=hinf_error(a_red, b_red, ctx.rsys.R),
    )


def hinf_error(A, B, R) -> float:
    """Closed-form H-infinity error || R^{-1} + B^T A^{-1} B ||_2 of the
    reduced model (A, B, C = B^T)."""
    R = np.atleast_2d(np.asarray(R, dtype=float))
    try:
        np.linalg.cholesky(-A)
    except np.linalg.LinAlgError as exc:
        raise ValueError("reduced A must be negative definite") from exc
    mat = np.linalg.inv(R) + B.T @ np.linalg.solve(A, B)
    return float(np.linalg.norm(mat, 2))

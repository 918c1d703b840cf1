"""Low-rank ADI solution of the projected Lyapunov equation and balanced truncation.

The LR-ADI recurrence (real negative shifts tau_k, E_r symmetric):

    F_k = (tau_k E_r + A_r)^{-1} R_{k-1}
    R_k = R_{k-1} - 2 tau_k E_r F_k
    Z_k = [Z_{k-1}, sqrt(-2 tau_k) F_k]

The normalized residual ||R_k^T R_k||_F / ||B_r^T B_r||_F equals the true
Lyapunov residual norm of Z_k Z_k^T, which the test suite verifies densely.
Optimal shifts come from the classical elliptic-integral minimax solution on
the spectral interval [a, b]; a few shifts, cycled, each with its LU kept,
do the work of many distinct ones.

The error bound is certified by the exact Hankel sum: the Hankel values of
the state-space-symmetric system sum to tr(R^{-1})/2, and those of an
LR-ADI factor with real shifts lie below them (``error_bound``).  The
reported H-infinity error is the written model's DC error, computed in
exact rational arithmetic (``hinf_error``).
"""

from __future__ import annotations

import math
import traceback
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import ellipj, ellipk, ellipkm1

from .config import default_value
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
    the shift count J is the smallest one whose predicted reduction per
    cycle of the J shifts reaches ``eps`` (``lr_adi`` cycles them).
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


def lr_adi(ctx: OperatorContext, shifts: ShiftSet, tol=default_value("mor.tol_adi"),
           maxit=default_value("mor.maxit_adi")):
    """LR-ADI iteration for the controllability Gramian factor.

    Shifts are cycled when exhausted.  Stops at the normalized residual
    tolerance, at ``maxit`` steps, or when a full shift cycle brought no
    residual decrease (warning, partial factor returned).  Runs serially on
    the calling thread.  The LU of each shift is built at its first step
    and kept for the later cycles: J shifts cycled c times damp about as
    much as J c distinct shifts (Wachspress, The ADI Model Problem, 1995;
    Li & White, SIAM J. Matrix Anal. Appl. 24, 2002), so J LUs serve the
    whole run.  When one cycle is predicted to reach ``tol``
    (``shifts.rho <= tol``), or ``maxit`` ends the run inside the first
    cycle, no shift repeats and each LU is dropped after its step.  At most
    J LUs are alive at once, and none outlives the call, also when a step
    raises (the frames of its traceback, and of the errors chained to it,
    are cleared).  ``maxit`` below 1 raises ValueError before any LU is
    built.
    """
    if maxit < 1:
        raise ValueError(f"LR-ADI needs maxit >= 1, got maxit = {maxit}")
    b = ctx.B_r
    n_r, m = b.shape
    bnorm = np.linalg.norm(b.T @ b)
    if bnorm == 0:
        return LowRankFactor(np.zeros((n_r, 0)), np.array([0.0]), 0, "converged")
    taus = [float(tau) for tau in shifts.shifts]
    j_count = len(taus)
    keep = shifts.rho > tol and maxit > j_count
    lus = [None] * j_count
    res_mat = b.copy()
    cols = []
    hist = []
    status = "maxit"
    k = 0       # steps done
    try:
        while k < maxit:
            j = k % j_count
            if lus[j] is None:
                lus[j] = ctx.shifted_lu(taus[j])
            f = ctx.shifted_solve(taus[j], res_mat, lus[j])
            if not keep:
                lus[j] = None
            res_mat = res_mat - 2.0 * taus[j] * ctx.apply_Er(f)
            cols.append(np.sqrt(-2.0 * taus[j]) * f)
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
    except BaseException as exc:
        # neither this frame nor a solve's, kept by the traceback of the
        # error or of one chained to it, may keep an LU alive
        lus.clear()
        seen = set()
        while exc is not None and id(exc) not in seen:
            seen.add(id(exc))
            traceback.clear_frames(exc.__traceback__)
            exc = exc.__cause__ or exc.__context__
        raise
    z = np.hstack(cols)
    return LowRankFactor(z, np.array(hist), k, status)


class TargetNotMet(RuntimeError):
    """No reduced order's certified error bound meets the target."""


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
    error_bound: float     # certified: ``error_bound``
    hinf_error: float      # exact DC error of (A, B, C): ``hinf_error``
    paper_bound: float     # the paper's truncated-tail value: ``tail_bound``
    delta: float           # tr(R^{-1})/2 - sum of the Hankel values


def _hankel(ctx: OperatorContext, z):
    """Eigenvalues (descending) and eigenvectors of -Z^T A_r Z."""
    h = -(z.T @ ctx.apply_Ar(z))
    return dense_sym_eig(0.5 * (h + h.T))


def rounding_allowance(n_c, trace_rinv) -> float:
    """n_c^2 eps tr(R^{-1}), the rounding that ``error_bound`` adds: each
    computed Hankel value is an exact eigenvalue of a matrix within about
    n_c eps ||H||_2 of the computed H = -Z^T A_r Z (a backward-stable
    eigensolver), ||H||_2 <= tr(H) ~ tr(R^{-1})/2, and at most n_c of them
    are summed and doubled.  The error of Z itself is not covered."""
    return float(n_c ** 2 * np.finfo(float).eps * trace_rinv)


def error_bound(hankel, trace_rinv, ell) -> float:
    """Certified H-infinity error bound of the order-``ell`` truncation,
    tr(R^{-1}) - 2 (s_1 + ... + s_ell) + ``rounding_allowance``, from the
    Hankel values s_i (descending) of a converged factor.

    The regularized system is state-space symmetric (C_r = B_r^T, E_r and
    A_r symmetric) with m inputs.  Multiply the projected Lyapunov equation
    A_r P E_r + E_r P A_r = -Pi B_r B_r^T Pi^T by the reflexive inverse
    E_r^- from the left and take the trace.  As P = Pi P and E_r^- E_r and
    E_r E_r^- act as the spectral projectors, both terms on the left have
    the trace tr(A_r P), and the right-hand side has -tr(B_r^T E_r^- B_r) =
    -tr(R^{-1}).  So the n_s Hankel values sigma_i, the nonzero eigenvalues
    of -A_r P, sum to tr(R^{-1})/2.  LR-ADI with real shifts gives
    Z Z^T <= P, so the eigenvalues s_i of -Z^T A_r Z satisfy s_i <= sigma_i,
    and the balanced-truncation bound 2 sum_{i > ell} sigma_i is at most
    tr(R^{-1}) - 2 sum_{i <= ell} s_i, however early Z stopped seeing the
    tail.  That bound is proved for exact balanced truncation; for the
    model made from Z, ``verify`` checks it against the exact DC error.
    The sum is rounded once (``math.fsum``): its terms are of the size of
    tr(R^{-1}), about 1e8 times the bound on the desk."""
    lam = np.asarray(hankel, dtype=float)
    head = math.fsum([trace_rinv, *(-2.0 * lam[:ell])])
    return float(head + rounding_allowance(lam.shape[0], trace_rinv))


def tail_bound(hankel, n_s, ell) -> float:
    """The paper's truncated-tail value of an order-``ell`` model,
    2 (s_{l+1} + ... + s_{nc-1} + (n_s - l + 1) s_{nc}), with negative
    Hankel values clipped to zero.  Reported beside ``error_bound``; it
    bounds nothing once the factor's last Hankel values are rounding."""
    lam = np.clip(hankel, 0.0, None)
    n_c = lam.shape[0]
    tail = lam[ell: n_c - 1].sum() if ell < n_c - 1 else 0.0
    return float(2.0 * (tail + (n_s - ell + 1) * lam[n_c - 1]))


def reduced_order(hankel, trace_rinv, target) -> int:
    """Smallest order whose certified error bound meets ``target``, or n_c
    when none does."""
    n_c = len(hankel)
    return next((ell for ell in range(1, n_c + 1)
                 if error_bound(hankel, trace_rinv, ell) <= target), n_c)


def balanced_truncate(ctx: OperatorContext, zc: LowRankFactor, ell=None,
                      target=None) -> ReducedModel:
    """Balanced truncation from a converged low-rank Gramian factor.

    Raises RuntimeError unless ``zc.status`` is "converged": the error bound
    holds only for the Hankel values of a converged factor, so none is ever
    reported from an unconverged one.  The Hankel values are the eigenvalues
    of -Z^T A_r Z; without ``ell`` the order is the smallest whose error
    bound meets ``target`` (``reduced_order``), and TargetNotMet is raised
    when no order's bound does.  The projection matrix is
    V = Z U_1 Lambda_1^{-1/2}; the reduced matrices are evaluated columnwise
    through the structured E_r^- A_r products.  The identity reduced-E is
    asserted via the Lambda normalization.  The model carries its certified
    error bound, its exact DC error, the paper's truncated-tail value and
    the Hankel-sum deficit Delta = tr(R^{-1})/2 - sum_i s_i.
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
    rinv = _exact_solve(ctx.rsys.R, np.eye(ctx.rsys.m))
    trace_rinv = float(sum(rinv[i][i] for i in range(len(rinv))))
    if ell is None:
        ell = reduced_order(lam, trace_rinv, target)
        if error_bound(lam, trace_rinv, ell) > target:
            best = min(error_bound(lam, trace_rinv, k) for k in range(1, n_c + 1))
            raise TargetNotMet(
                f"no reduced order meets the error-bound target {target:.3e}: the "
                f"best certified bound over the n_c = {n_c} orders is {best:.3e}")
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
        error_bound=error_bound(lam, trace_rinv, ell),
        hinf_error=hinf_error(a_red, b_red, ctx.rsys.R),
        paper_bound=tail_bound(lam, n_s, ell),
        delta=math.fsum([trace_rinv / 2, *(-lam)]),
    )


def _exact_solve(a, b):
    """a^{-1} b in exact rational arithmetic from the float64 entries of the
    nonsingular matrix ``a`` and the matrix ``b``, as a list of rows."""
    n = a.shape[0]
    rows = [[Fraction(x) for x in ra] + [Fraction(x) for x in rb]
            for ra, rb in zip(np.asarray(a, dtype=float).tolist(),
                              np.asarray(b, dtype=float).tolist())]
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k] != 0), None)
        if p is None:
            raise ValueError("singular matrix in exact solve")
        rows[k], rows[p] = rows[p], rows[k]
        for row in rows[k + 1:]:
            f = row[k] / rows[k][k]
            if f:
                row[k + 1:] = [x - f * y for x, y in zip(row[k + 1:], rows[k][k + 1:])]
    x = [None] * n
    for i in reversed(range(n)):
        x[i] = [(rows[i][n + c] - sum((rows[i][j] * x[j][c] for j in range(i + 1, n)),
                                      Fraction(0))) / rows[i][i]
                for c in range(len(rows[i]) - n)]
    return x


def hinf_error(A, B, R) -> float:
    """H-infinity error of the reduced model (A, B, C = B^T) at s = 0,
    || R^{-1} + B^T A^{-1} B ||_2, exact for the float64 model.

    The m x m matrix is formed in exact rational arithmetic from the
    float64 entries of A, B and R (``fractions.Fraction``; about 0.2 s at
    order 30) and rounded once: for m = 1 its magnitude is the correctly
    rounded error, for m >= 2 its 2-norm is taken in float64.  So rounding
    does not decide how the error compares with the bound."""
    try:
        np.linalg.cholesky(-A)
    except np.linalg.LinAlgError as exc:
        raise ValueError("reduced A must be negative definite") from exc
    R, B = np.atleast_2d(R), np.asarray(B, dtype=float)
    x = _exact_solve(A, B)
    rinv = _exact_solve(R, np.eye(R.shape[0]))
    cols = B.T.tolist()
    mat = [[rinv[i][j] + sum((Fraction(bk) * xk[j] for bk, xk in zip(cols[i], x)),
                             Fraction(0))
            for j in range(len(rinv))] for i in range(len(rinv))]
    if len(mat) == 1:
        return float(abs(mat[0][0]))
    return float(np.linalg.norm(np.array(mat, dtype=float), 2))

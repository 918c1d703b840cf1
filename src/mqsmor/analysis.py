"""Frequency- and time-domain analysis of the full and reduced models.

The full transfer function is H(s) = -s B_r^T (s E_r - A_r)^{-1} B_r + R^{-1}.
``transfer_full`` evaluates it at one point through a complex shifted
solve, which builds and frees one complex bordered LU.  A frequency sweep
(``frequency_response``) instead projects onto one rational Krylov space
with a real pole tau0 (Ruhe, LAA 197, 1994; Pade-type Galerkin projection
as in Feldmann & Freund, IEEE TCAD 14, 1995), built from one real LU, and
certifies every point by a bound on ||H - H_k||_2 that takes one more solve
with that LU; a point the space cannot certify within KRYLOV_BASIS_CAP
vectors falls back to ``transfer_full``.  On the desk the 200-point default
sweep needs 49 vectors and no fallback.

Time integration is implicit Euler with the output reconstructed from the
backward difference, y_k = -B_r^T (x_k - x_{k-1}) / h + R^{-1} u_k.

Every full-model step solves with one matrix M = -E_r / h + A_r, and the
states stay in a subspace of low dimension (an order-10 reduced model
reproduces the desk's output to better than 1e-8).  So each step starts its
``shifted_solve`` from the least-squares fit of its right-hand side by the
images of earlier states (Fischer's projection onto previous solutions,
CMAME 163, 1998): a start that meets the solve's residual target costs no
LU solve, and one that misses it is refined as a plain solve is, under
the same certificate.  On 200 desk steps the bordered LU solves 101 times
instead of 400.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .config import default_value
from .mor import ReducedModel
from .ops import OperatorContext

STATE_BASIS_CAP = 64   # earlier states a full-model simulation keeps
KRYLOV_BASIS_CAP = 120   # vectors a frequency sweep's Krylov space may hold
KRYLOV_STEP = 8          # vectors added between two looks at the sweep
CERTIFY_RATIO = 1e-3     # largest h_bound / abs_error a Krylov value may have


def transfer_full(ctx: OperatorContext, s):
    """H(s) of the regularized system at complex s; H(0) = R^{-1}."""
    rinv = ctx.rsys.Rinv
    s = complex(s)
    if s == 0:
        return rinv.astype(complex)
    zb = ctx.shifted_solve(-s, ctx.B_r)       # solves (-s E + A) z = B
    return s * (ctx.B_r.T @ zb) + rinv


def transfer_reduced(model: ReducedModel, s):
    """H~(s) = C (s I - A)^{-1} B of the reduced model at complex s."""
    ell = model.A.shape[0]
    x = np.linalg.solve(complex(s) * np.eye(ell) - model.A, model.B.astype(complex))
    return model.C @ x


@dataclass
class FrequencyResponse:
    omegas: np.ndarray
    H_full: np.ndarray      # (n_omega, m, m) complex
    H_reduced: np.ndarray
    abs_error: np.ndarray   # spectral norm of the difference per omega
    h_bound: np.ndarray     # certified ||H - H_k||_2 per omega; NaN where an LU ran
    shift: float            # the real pole tau0 of the Krylov space
    basis_size: int         # Krylov vectors the sweep used

    @property
    def lu_points(self):
        """Points evaluated by ``transfer_full`` instead of the Krylov space."""
        return int(np.isnan(self.h_bound).sum())

    def magnitude_full(self):
        return np.array([np.linalg.norm(h, 2) for h in self.H_full])

    def magnitude_reduced(self):
        return np.array([np.linalg.norm(h, 2) for h in self.H_reduced])


def krylov_shift(model: ReducedModel):
    """tau0 = -sqrt(mu_min mu_max) from the eigenvalues -mu_i of the reduced
    model's A: the geometric middle of the poles that matter."""
    mu = -np.linalg.eigvals(model.A).real
    if not mu.min() > 0:
        raise ValueError("the reduced model has a pole off the open left half-line")
    return -float(np.sqrt(mu.min() * mu.max()))


class _KrylovSpace:
    """Orthonormal basis V (rows) of the rational Krylov space
    K_k((tau0 E_r + A_r)^{-1} E_r, (tau0 E_r + A_r)^{-1} B_r) from one real
    LU, with the projections V^T E_r V, V^T A_r V and V^T B_r.  Vector j's
    image under (tau0 E_r + A_r)^{-1} E_r is the candidate for a later
    vector (block Arnoldi, one column at a time); a candidate whose part
    new to V, after two passes of Gram-Schmidt, is not above 1e-12 of its
    norm is dropped, and the space is exhausted when no vector is left to
    map."""

    def __init__(self, ctx, shift):
        self.ctx, self.shift = ctx, shift
        self.lu = ctx.shifted_lu(shift)
        n, m = ctx.rsys.n_r, ctx.rsys.m
        cap = KRYLOV_BASIS_CAP
        self.V = np.empty((cap, n))
        self.VEV = np.empty((cap, cap))
        self.VAV = np.empty((cap, cap))
        self.VB = np.empty((cap, m))
        self.size = 0
        self.mapped = 0        # vectors whose image has been a candidate
        for col in ctx._shifted_solve_raw(ctx.B_r, self.lu).T:
            self._add(col)

    @property
    def exhausted(self):
        return self.mapped == self.size

    @property
    def full(self):
        return self.size == KRYLOV_BASIS_CAP

    def _add(self, v):
        if self.full:
            return
        k, q = self.size, self.V[:self.size]
        norm = np.linalg.norm(v)
        for _ in range(2):
            v = v - (q @ v) @ q
        new = np.linalg.norm(v)
        if not new > 1e-12 * norm:
            return
        v /= new
        self.V[k] = v
        r = self.ctx.rsys
        for proj, image in ((self.VEV, r.apply_Er(v)), (self.VAV, r.apply_Ar(v))):
            col = self.V[:k + 1] @ image          # matrix-vector products only
            proj[:k + 1, k] = col
            proj[k, :k] = col[:k]
        self.VB[k] = self.ctx.B_r.T @ v
        self.size = k + 1

    def grow(self, count):
        """Add up to ``count`` vectors; stops when full or exhausted."""
        target = min(self.size + count, KRYLOV_BASIS_CAP)
        while self.size < target and not self.exhausted:
            image = self.ctx.rsys.apply_Er(self.V[self.mapped])
            self.mapped += 1
            self._add(self.ctx._shifted_solve_raw(image, self.lu))

    def galerkin(self, omega):
        """(H_k(i omega), y) with y = (V^T (A_r - i omega E_r) V)^{-1} V^T B_r
        and H_k = i omega B_r^T V y + R^{-1}."""
        k = self.size
        vb = self.VB[:k]
        y = np.linalg.solve(self.VAV[:k, :k] - 1j * omega * self.VEV[:k, :k], vb)
        return 1j * omega * (vb.T @ y) + self.ctx.rsys.Rinv, y

    def bounds(self, omegas, ys):
        """Certified ||H(i omega) - H_k(i omega)||_2 for each (omega, y).

        With M = A_r - i omega E_r (complex symmetric) and the residual block
        R = B_r - M V y, V^T R = 0 gives H - H_k = i omega R^T M^{-1} R.  The
        scaled -M has its numerical range at least 1/sqrt(2) from 0, and
        |omega| E_r - A_r >= min(1, |omega|/|tau0|) (|tau0| E_r - A_r), so
        ||H - H_k||_2 <= sqrt(2) max(|omega|, |tau0|)
        lambda_max(R^* (|tau0| E_r - A_r)^{-1} R).  That inverse is
        -(tau0 E_r + A_r)^{-1}: one certified ``shifted_solve`` with the
        space's LU serves the real and imaginary parts of every R, each R
        scaled to unit norm so that the solve's residual is relative to it."""
        r = self.ctx.rsys
        m = r.m
        v = self.V[:self.size]
        cols = [slice(2 * m * j, 2 * m * (j + 1)) for j in range(len(ys))]
        # X = V y as real columns [Re X_j, Im X_j] per point
        x = np.empty((r.n_r, 2 * m * len(ys)))
        for c, y in zip(cols, ys):
            x[:, c] = np.vstack([y.real.T @ v, y.imag.T @ v]).T
        ex, ax = r.apply_Er(x), r.apply_Ar(x)
        resid = np.empty_like(x)
        scale = np.empty(len(ys))
        for j, (c, omega) in enumerate(zip(cols, omegas)):
            (exr, exi), (axr, axi) = np.split(ex[:, c], 2, axis=1), np.split(ax[:, c], 2, axis=1)
            rj = np.hstack([self.ctx.B_r - axr - omega * exi, omega * exr - axi])
            scale[j] = max(np.linalg.norm(rj), 1e-300)
            resid[:, c] = rj / scale[j]
        del x, ex, ax
        z = self.ctx.shifted_solve(self.shift, resid, self.lu)   # = -K0^{-1} R
        out = np.empty(len(ys))
        for j, (c, omega) in enumerate(zip(cols, omegas)):
            rr, ri = np.split(resid[:, c], 2, axis=1)
            zr, zi = np.split(z[:, c], 2, axis=1)
            g = -(rr.T @ zr + ri.T @ zi + 1j * (rr.T @ zi - ri.T @ zr))
            lam = max(float(np.linalg.eigvalsh(0.5 * (g + g.conj().T)).max()), 0.0)
            out[j] = np.sqrt(2.0) * max(abs(omega), -self.shift) * lam * scale[j] ** 2
        return out


def frequency_response(ctx, model, omegas) -> FrequencyResponse:
    """H(i omega) of the full and the reduced model at each omega.

    The full model is evaluated by Galerkin projection onto one rational
    Krylov space with the real pole tau0 = ``krylov_shift(model)``
    (``_KrylovSpace``, one real LU for the whole sweep).  The space grows
    KRYLOV_STEP vectors at a time.  After each growth, a point whose H_k
    moved by at most CERTIFY_RATIO of its error |H_k - H_reduced| since
    the previous look (every point, once the space is full or exhausted)
    gets its certified bound (``_KrylovSpace.bounds``); it is accepted when
    that bound is at most CERTIFY_RATIO of its error.  The space stops at
    KRYLOV_BASIS_CAP vectors, and a point still uncertified there is
    evaluated by ``transfer_full``, with a NaN bound.  s = 0 gives R^{-1}
    exactly, with bound 0.
    """
    omegas = np.asarray(omegas, dtype=float)
    m = ctx.rsys.m
    hf = np.empty((len(omegas), m, m), dtype=complex)
    hr = np.array([transfer_reduced(model, 1j * w) for w in omegas])
    bound = np.full(len(omegas), np.nan)
    shift = krylov_shift(model)
    zero = omegas == 0
    hf[zero], bound[zero] = ctx.rsys.Rinv, 0.0
    pending = list(np.flatnonzero(~zero))
    basis_size = 0
    if pending:
        space = _KrylovSpace(ctx, shift)
        last = {}
        while True:
            final = space.full or space.exhausted
            vals = {i: space.galerkin(omegas[i]) for i in pending}
            gap = {i: np.linalg.norm(vals[i][0] - hr[i], 2) for i in pending}
            ready = [i for i in pending if final or (
                i in last and np.linalg.norm(vals[i][0] - last[i], 2)
                <= CERTIFY_RATIO * gap[i])]
            if ready:
                b = space.bounds(omegas[ready], [vals[i][1] for i in ready])
                for i, bi in zip(ready, b):
                    if bi <= CERTIFY_RATIO * gap[i]:
                        hf[i], bound[i] = vals[i][0], bi
                pending = [i for i in pending if np.isnan(bound[i])]
            if final or not pending:
                break
            last = {i: vals[i][0] for i in pending}
            space.grow(KRYLOV_STEP)
        basis_size = space.size
        del space                 # its LU goes before the LU path builds its own
    for i in pending:
        hf[i] = transfer_full(ctx, 1j * omegas[i])
    err = np.array([np.linalg.norm(a - b, 2) for a, b in zip(hf, hr)])
    return FrequencyResponse(omegas, hf, hr, err, bound, shift, basis_size)


def _sample_input(u, t, m):
    uk = np.atleast_1d(np.asarray(u(float(t)), dtype=float))
    if uk.shape != (m,):
        raise ValueError(f"input must return {m} components")
    return uk


def simulate(system, u, t_final, steps):
    """Implicit Euler on [0, t_final] from x = 0; returns (t, y), y a row per time point.

    ``system`` is either an OperatorContext (full model, output from the
    backward difference of the state) or a ReducedModel (y = C x).  The
    full model factors one LU and starts each step from earlier states
    (``_StateBasis``, at most STATE_BASIS_CAP of them, which take
    2 STATE_BASIS_CAP n_r float64 values); every state meets the residual
    certificate of ``OperatorContext.shifted_solve``.  Both report
    y_0 = 0: the state starts at 0 and H(inf) = 0 (B_r^T E_r^- B_r = R^{-1},
    Section 3.2), so the output has no feedthrough and cannot jump at t = 0.
    """
    if steps < 1 or t_final <= 0:
        raise ValueError("need steps >= 1 and t_final > 0")
    h = t_final / steps
    t = np.linspace(0.0, t_final, steps + 1)
    if isinstance(system, OperatorContext):
        return t, _simulate_full(system, u, t, h)
    return t, _simulate_reduced(system, u, t, h)


class _StateBasis:
    """Earlier states z_i of the implicit-Euler steps and their images
    M z_i under the step matrix M = tau E_r + A_r, kept as rows: the images
    are orthonormal, and each state row is combined as its image row is, so
    that M maps the one onto the other.  A start for the right-hand side w
    is then the state whose image is w's orthogonal projection onto the
    images, the least-squares fit to w in the span of the states
    (Fischer, CMAME 163, 1998).  At most STATE_BASIS_CAP rows."""

    def __init__(self, n):
        self.images = np.empty((STATE_BASIS_CAP, n))
        self.states = np.empty((STATE_BASIS_CAP, n))
        self.size = 0

    def start(self, w):
        """The start for ``w``, or None while the basis is empty."""
        k = self.size
        if k == 0:
            return None
        return (self.images[:k] @ w) @ self.states[:k]

    def add(self, z, image):
        """Keep the state ``z`` with ``image`` = M z, after two-pass
        Gram-Schmidt against the kept images; a direction whose new part is
        not above 1e-13 of ``image`` is dropped, and so is every direction
        once the basis is full."""
        k = self.size
        if k == self.images.shape[0]:
            return
        norm = np.linalg.norm(image)
        q, v = self.images[:k], self.states[:k]
        for _ in range(2):
            c = q @ image
            image = image - c @ q
            z = z - c @ v
        new = np.linalg.norm(image)
        if new > 1e-13 * norm:
            self.images[k] = image / new
            self.states[k] = z / new
            self.size = k + 1


def _simulate_full(ctx, u, t, h):
    r = ctx.rsys
    m = r.m
    x = np.zeros(r.n_r)
    rinv = r.Rinv
    y = np.empty((t.shape[0], m))
    y[0] = 0.0                          # see ``simulate``
    # (E - h A) x_new = rhs  <=>  ((-1/h) E + A) x_new = -rhs / h: one LU
    # serves every step, and each step starts from the earlier states
    lu = ctx.shifted_lu(-1.0 / h)
    basis = _StateBasis(r.n_r)
    resid = np.empty(r.n_r)
    for k in range(1, t.shape[0]):
        uk = _sample_input(u, t[k], m)
        rhs = r.apply_Er(x) + h * (ctx.B_r @ uk)
        w = -rhs / h
        start = basis.start(w)
        x_new = ctx.shifted_solve(-1.0 / h, w, lu, start, resid_out=resid)
        if x_new is not start:          # the step needed an LU solve
            basis.add(x_new, w - resid)
        y[k] = -ctx.B_r.T @ (x_new - x) / h + rinv @ uk
        x = x_new
    return y


def _simulate_reduced(model, u, t, h):
    ell, m = model.A.shape[0], model.m
    x = np.zeros(ell)
    lu = scipy.linalg.lu_factor(np.eye(ell) - h * model.A)
    y = np.empty((t.shape[0], m))
    y[0] = model.C @ x
    for k in range(1, t.shape[0]):
        uk = _sample_input(u, t[k], m)
        x = scipy.linalg.lu_solve(lu, x + h * (model.B @ uk))
        y[k] = model.C @ x
    return y


@dataclass
class SimulationResult:
    t: np.ndarray
    u: np.ndarray
    y_full: np.ndarray
    y_reduced: np.ndarray
    rel_error: np.ndarray   # |y - y~| / max_t |y|


def simulate_compare(ctx, model, u, t_final, steps) -> SimulationResult:
    t, y = simulate(ctx, u, t_final, steps)
    _, yr = simulate(model, u, t_final, steps)
    m = ctx.rsys.m
    us = np.array([_sample_input(u, tk, m) for tk in t])
    scale = np.linalg.norm(y, axis=1).max()
    rel = np.linalg.norm(y - yr, axis=1) / max(scale, 1e-300)
    return SimulationResult(t, us, y, yr, rel)


def passivity_scan(h_eval, n_samples=default_value("analysis.passivity_samples"), seed=7):
    """Sample H(s) + H(s)^* over the box 1e-3 <= Re s <= 1e4, |Im s| <= 1e6.

    Half the samples (at least one) lie on a log grid in Re s with the
    imaginary parts 0, 1e2, -1e4, 1e6 in turn; the rest are drawn from
    ``seed``, log-uniform in Re s and uniform in Im s.  Reports the sample
    count, the worst eigenvalue of H + H^* relative to ||H(s)||_2, and
    whether that margin is >= -1e-10.
    """
    rng = np.random.default_rng(seed)
    res = np.geomspace(1e-3, 1e4, max(n_samples // 2, 1))
    ims = np.array([0.0, 1e2, -1e4, 1e6])
    pts = [complex(r, ims[i % ims.size]) for i, r in enumerate(res)]
    while len(pts) < n_samples:
        pts.append(complex(10 ** rng.uniform(-3.0, 4.0), rng.uniform(-1e6, 1e6)))
    margins = []
    for s in pts:
        h = np.atleast_2d(h_eval(s))
        herm = h + h.conj().T
        lam_min = float(np.linalg.eigvalsh(herm).min())
        margins.append(lam_min / max(np.linalg.norm(h, 2), 1e-300))
    margins = np.array(margins)
    return {
        "samples": len(pts),
        "min_margin_rel": float(margins.min()),
        "pass": bool(margins.min() >= -1e-10),
    }


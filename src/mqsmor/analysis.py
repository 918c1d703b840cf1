"""Frequency- and time-domain analysis of the full and reduced models.

The full transfer function is evaluated as H(s) = -s B_r^T (s E_r - A_r)^{-1}
B_r + R^{-1} through complex shifted solves; time integration is implicit
Euler with the output reconstructed from the backward difference,
y_k = -B_r^T (x_k - x_{k-1}) / h + R^{-1} u_k.

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

from .mor import ReducedModel
from .ops import OperatorContext

STATE_BASIS_CAP = 64   # earlier states a full-model simulation keeps


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

    def magnitude_full(self):
        return np.array([np.linalg.norm(h, 2) for h in self.H_full])

    def magnitude_reduced(self):
        return np.array([np.linalg.norm(h, 2) for h in self.H_reduced])


def frequency_response(ctx, model, omegas) -> FrequencyResponse:
    omegas = np.asarray(omegas, dtype=float)
    hf = np.array([transfer_full(ctx, 1j * w) for w in omegas])
    hr = np.array([transfer_reduced(model, 1j * w) for w in omegas])
    err = np.array([np.linalg.norm(a - b, 2) for a, b in zip(hf, hr)])
    return FrequencyResponse(omegas, hf, hr, err)


def _sample_input(u, t, m):
    uk = np.atleast_1d(np.asarray(u(float(t)), dtype=float))
    if uk.shape != (m,):
        raise ValueError(f"input must return {m} components")
    return uk


def simulate(system, u, t_final, steps, x0=None):
    """Implicit Euler on [0, t_final]; returns (t, y) with y row per time point.

    ``system`` is either an OperatorContext (full model, output from the
    backward difference of the state) or a ReducedModel (y = C x).  The
    full model factors one LU and starts each step from earlier states
    (``_StateBasis``, at most STATE_BASIS_CAP of them, which take
    2 STATE_BASIS_CAP n_r float64 values); every state meets the residual
    certificate of ``OperatorContext.shifted_solve``.
    """
    if steps < 1 or t_final <= 0:
        raise ValueError("need steps >= 1 and t_final > 0")
    h = t_final / steps
    t = np.linspace(0.0, t_final, steps + 1)
    if isinstance(system, OperatorContext):
        return t, _simulate_full(system, u, t, h, x0)
    return t, _simulate_reduced(system, u, t, h, x0)


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


def _simulate_full(ctx, u, t, h, x0):
    r = ctx.rsys
    m = r.m
    x = np.zeros(r.n_r) if x0 is None else np.asarray(x0, dtype=float)
    rinv = r.Rinv
    y = np.empty((t.shape[0], m))
    y[0] = rinv @ _sample_input(u, t[0], m)
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


def _simulate_reduced(model, u, t, h, x0):
    ell, m = model.A.shape[0], model.m
    x = np.zeros(ell) if x0 is None else np.asarray(x0, dtype=float)
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

    @property
    def max_rel_error(self):
        return float(self.rel_error.max())


def simulate_compare(ctx, model, u, t_final, steps, x0=None) -> SimulationResult:
    t, y = simulate(ctx, u, t_final, steps, x0=x0)
    _, yr = simulate(model, u, t_final, steps)
    m = ctx.rsys.m
    us = np.array([_sample_input(u, tk, m) for tk in t])
    scale = np.linalg.norm(y, axis=1).max()
    rel = np.linalg.norm(y - yr, axis=1) / max(scale, 1e-300)
    return SimulationResult(t, us, y, yr, rel)


def passivity_scan(h_eval, n_samples=50, seed=7, re_range=(1e-3, 1e4), im_max=1e6):
    """Sample H(s) + H(s)^* over the open right half-plane.

    Half the samples come from a deterministic log grid in Re(s) with a few
    imaginary offsets, half are random.  Reports the worst eigenvalue margin
    relative to ||H(s)||.
    """
    rng = np.random.default_rng(seed)
    n_grid = n_samples // 2
    res = np.geomspace(re_range[0], re_range[1], max(n_grid, 1))
    ims = np.array([0.0, 1e2, -1e4, 1e6])
    pts = [complex(r, ims[i % ims.size]) for i, r in enumerate(res)]
    while len(pts) < n_samples:
        r = 10 ** rng.uniform(np.log10(re_range[0]), np.log10(re_range[1]))
        pts.append(complex(r, rng.uniform(-im_max, im_max)))
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


"""Structure-exploiting operator algebra for the regularized MQS pencil.

The regularized state is (x1, z2), where z2 = x2[cotree] holds the cotree
values of an edge vector x2 in im(Yhat) = ker(Y_C2^T).  As Yhat[cotree] = I,
every solve runs in edge coordinates: a right-hand side w2 becomes the edge
vector with w2 on the cotree rows and zeros elsewhere (Yhat^T maps it back
to w2), and a solution x2 maps to z2 = x2[cotree].

Shifted systems (tau E_r + A_r) z = w, real or complex, are solved through
the Lemma-3 bordered matrix tau Mb + Kb + Rb / tau of dimension
n1 + n2 + m + k2, whose winding rows are divided by tau so that it is
symmetric (``shifted_lu``).  The context assembles Kb, Mb and Rb once; the
Lemma-2 saddle matrix [[-K22, X2, Y_C2], [X2^T, 0, 0], [Y_C2^T, 0, 0]] is
Kb's trailing block after x1.  It and M11, which give Pi_inf and E_r^- A_r,
are factored on first use, once per context and on the calling thread; a
context that only serves shifted solves (sweeps, simulation) factors neither.

All shifted bordered matrices share one sparsity pattern, so one
nested-dissection ordering, computed per context from the edge midpoints
(gauge multipliers at the centroid of their Y_C2 support, winding currents
last), serves every shift; its restriction to the unknowns after x1 orders
the Lemma-2 matrix.  Systems without mesh coordinates use SuperLU's COLAMD.

A shifted LU belongs to its caller and lives no longer than the caller
holds it: ``shifted_lu`` returns one, and ``shifted_solve`` solves with the
LU it is given or builds its own and drops it on return.  ``simulate``
reuses one LU over its time steps, and starts each step's solve from the
span of earlier states, so that most steps need one LU solve or none;
LR-ADI reuses one LU per shift over its shift cycles; a frequency sweep
builds one real LU for its Krylov space and frees it before any point
falls back to its own complex LU; a passivity sample builds and frees one,
so no older LU is alive when the next is built.  Every LU is built and
used on the calling thread.

Every solve is certified by its own residual, not by the LU's pivots:
``shifted_solve`` (also one that returns its given start unrefined) and
the M11 and Lemma-2 solves raise RuntimeError when the iterate they
return has a relative residual above SOLVE_RESIDUAL_FLOOR, as a solve at
a shift on the spectrum does.  No pivot is read, so an LU costs only
SuperLU's own storage (``lacore.factorize``).

The quasi-Weierstrass counts n_s, n_0, n_inf come from the incidence
complex (n_0 = N - k2 with N interior nodes) and cost nothing; the
verification oracle checks them against a dense kernel count.
"""

from __future__ import annotations

import ctypes
import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .config import default_value
from .lacore import (
    SingularMatrixError,
    factorize,
    lanczos_extremal,
    nested_dissection,
)
from .regularize import RegularizedSystem

LU_REFINE_STEPS = 1       # iterative refinement after each M11 / Lemma-2 solve
SHIFT_REFINE_STEPS = 2    # refinement on the true shifted residual
SHIFT_RESIDUAL_TARGET = 1e-13   # relative residual that ends the refinement
SOLVE_RESIDUAL_FLOOR = 1e-8   # largest relative residual a solve may return


def _libc_malloc_trim():
    """glibc's ``malloc_trim`` from the C library the process runs on, or
    None where that library has no such function."""
    try:
        fn = getattr(ctypes.CDLL(None), "malloc_trim", None)
    except (OSError, TypeError):
        return None
    if fn is not None:
        fn.argtypes, fn.restype = [ctypes.c_size_t], ctypes.c_int
    return fn


_MALLOC_TRIM = _libc_malloc_trim()


def trim_heap():
    """Give freed heap memory back to the OS (glibc ``malloc_trim``: the top
    of the main arena and the free pages inside every arena); a no-op where
    libc has no such function."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def _certify_solve(what, resid_norm, rhs_norm):
    """Raise RuntimeError unless the residual of a solve is at most
    SOLVE_RESIDUAL_FLOOR relative to its right-hand side (a NaN fails)."""
    if not resid_norm <= SOLVE_RESIDUAL_FLOOR * rhs_norm:
        rel = resid_norm / rhs_norm if rhs_norm > 0 else np.inf
        raise RuntimeError(f"{what}: relative residual {rel:.3e} above the "
                           f"floor {SOLVE_RESIDUAL_FLOOR:.0e}")


@dataclass
class SpectralBounds:
    """Magnitudes of the extremal nonzero finite eigenvalues of (E_r, A_r)."""

    a: float   # = -lambda_max(E_r, A_r)
    b: float   # = -lambda_min(E_r, A_r)
    iterations: int = 0

    def __post_init__(self):
        if not (0 < self.a <= self.b):
            raise ValueError("spectral bounds must satisfy 0 < a <= b")


class OperatorContext:
    """Factorization cache and matrix-free products for one regularized system."""

    def __init__(self, rsys: RegularizedSystem):
        self.rsys = rsys
        n1, n2, k2, m = rsys.n1, rsys.n2, rsys.k2, rsys.m
        mnu_c1 = rsys.Mnu @ rsys.C1
        mnu_c2 = rsys.Mnu @ rsys.C2
        k11 = (rsys.C1.T @ mnu_c1).tocsr()
        k12 = (rsys.C1.T @ mnu_c2).tocsr()
        k22 = (rsys.C2.T @ mnu_c2).tocsr()
        # shift-independent split of the Lemma-3 bordered matrix with its
        # winding rows divided by tau: mat(tau) = tau * Mb + Kb + Rb / tau
        x1 = sp.csr_matrix(rsys.X1)
        self._lemma3_K = sp.bmat([
            [-k11, -k12, x1, None],
            [-k12.T, -k22, rsys.X2, rsys.Y],
            [x1.T, rsys.X2.T, None, None],
            [None, rsys.Y.T, None, None],
        ], format="csc")
        self._lemma3_M = sp.block_diag([rsys.M11, sp.csr_matrix((n2 + m + k2,) * 2)],
                                       format="csc")
        self._lemma3_R = sp.block_diag([sp.csc_matrix((n1 + n2,) * 2), -sp.csc_matrix(rsys.R),
                                        sp.csc_matrix((k2, k2))], format="csc")
        self._order = None
        if rsys.edge_xyz is not None:
            self._order = nested_dissection(
                self._lemma3_K + self._lemma3_M, self._bordered_points(),
                last=np.arange(n1 + n2, n1 + n2 + m))
        self._lemma2_mat = self._lemma3_K[n1:, n1:]
        self._lus = None
        self._lus_lock = threading.Lock()
        self.B_r = rsys.B_r()

    def _bordered_points(self):
        """One point per unknown of the bordered matrix: edge midpoints,
        NaN for the winding currents, and the centroid of the Y_C2 column
        support for each gauge multiplier."""
        r = self.rsys
        support = (abs(r.Y) > 0).astype(np.float64).tocsc()
        counts = np.asarray(support.sum(axis=0)).ravel()
        centroids = (support.T @ r.edge_xyz[r.n1:]) / np.maximum(counts, 1)[:, None]
        return np.vstack([r.edge_xyz, np.full((r.m, 3), np.nan), centroids])

    def _context_lus(self):
        """(M11 LU, Lemma-2 LU), factored by the first caller on its own
        thread; the Lemma-2 matrix takes the bordered order restricted to the
        unknowns after x1."""
        with self._lus_lock:
            if self._lus is None:
                n1 = self.rsys.n1
                order = self._order
                if order is not None:
                    order = order[order >= n1] - n1
                self._lus = (factorize(self.rsys.M11) if n1 else None,
                             factorize(self._lemma2_mat, perm=order))
            return self._lus

    # -- basic applies ----------------------------------------------------

    def apply_Er(self, v):
        return self.rsys.apply_Er(v)

    def apply_Ar(self, v):
        return self.rsys.apply_Ar(v)

    def _solve_refined(self, what, mat, fact, rhs):
        """``mat``^{-1} ``rhs`` from the LU ``fact`` and LU_REFINE_STEPS of
        iterative refinement, certified by its residual (``_certify_solve``)."""
        sol = fact.solve(rhs)
        for _ in range(LU_REFINE_STEPS):
            sol = sol + fact.solve(rhs - mat @ sol)
        _certify_solve(what, np.linalg.norm(rhs - mat @ sol), np.linalg.norm(rhs))
        return sol

    def _m11_solve(self, b):
        return self._solve_refined("M11 solve", self.rsys.M11,
                                   self._context_lus()[0], b)

    def _to_edges(self, w2):
        """Edge vector q2 with Yhat^T q2 = w2: w2 on the cotree rows."""
        r = self.rsys
        q2 = np.zeros((r.n2,) + w2.shape[1:], dtype=w2.dtype)
        q2[r.cotree] = w2
        return q2

    def _lemma2_solve(self, w2):
        """z2 of the Lemma-2 saddle system with right-hand side (w2, 0, 0)."""
        r = self.rsys
        tail = (r.m + r.k2,) + w2.shape[1:]
        rhs = np.concatenate([self._to_edges(w2), np.zeros(tail, dtype=w2.dtype)])
        return self._solve_refined("Lemma-2 solve", self._lemma2_mat,
                                   self._context_lus()[1], rhs)[r.cotree]

    # -- projector and reflexive-inverse products --------------------------

    def apply_Pi_inf(self, v):
        """Pi_inf v: spectral projector onto the infinite-eigenvalue subspace.

        z = Y_s (Y_s^T A_r Y_s)^{-1} Y_s^T (A_r v) has the form (0, z2) with
        z2 from the shift-independent Lemma-2 system.
        """
        w = self.rsys.apply_Ar(np.asarray(v))
        n1 = self.rsys.n1
        z2 = self._lemma2_solve(w[n1:])
        return np.concatenate([np.zeros((n1,) + w.shape[1:], dtype=z2.dtype), z2])

    def apply_EinvA(self, v):
        """E_r^- A_r v for v in the Pi-invariant subspace: one M11 solve and
        the explicit block inverse of Yhat_sigma^T E_r Yhat_sigma give w, and
        the result is (I - Pi_inf) w."""
        r = self.rsys
        vhat1, vhat2 = r.split(r.apply_Ar(np.asarray(v)))
        what2 = r.Z.T @ vhat2
        w1 = self._m11_solve(vhat1 - r.X1 @ what2)
        w2 = -r.Z @ (r.X1.T @ w1 - r.R @ what2)
        w = np.concatenate([w1, w2])
        return w - self.apply_Pi_inf(w)

    def apply_EinvB(self):
        """E_r^- B_r = (I - Pi_inf) [0; Z], an n_r x m matrix."""
        r = self.rsys
        v0 = np.vstack([np.zeros((r.n1, r.m)), r.Z])
        return v0 - self.apply_Pi_inf(v0)

    def apply_Cr(self, v):
        """C_r v = -B_r^T E_r^- A_r v."""
        return -self.B_r.T @ self.apply_EinvA(v)

    # -- shifted solves ----------------------------------------------------

    def _bordered(self, tau):
        """The bordered matrix tau Mb + Kb + Rb / tau at a nonzero shift."""
        return (tau * self._lemma3_M + self._lemma3_K + self._lemma3_R / tau).tocsc()

    def shifted_lu(self, shift):
        """LU of the bordered matrix at ``shift``, in the context's order; the
        caller owns it and frees it by dropping it.

        The winding rows, tau (X1^T x1 + X2^T x2) - R i = 0, are divided by
        tau, which leaves the solution unchanged (their right-hand side is
        zero) and makes the matrix symmetric (complex symmetric for complex
        shifts).  Partial pivoting then keeps more diagonal pivots: on the
        desk the fill at |tau| >= 1e5 falls from 1.9-2.2 M to 1.18 M, that
        of every other shift tried is unchanged.  Shift 0 lies on the
        spectrum (n_0 > 0 on a box) and raises RuntimeError."""
        is_complex = np.iscomplexobj(shift) and np.imag(shift) != 0
        tau = complex(shift) if is_complex else float(np.real(shift))
        if tau == 0:
            raise RuntimeError("shift 0 lies on the spectrum of the pencil")
        try:
            return factorize(self._bordered(tau), perm=self._order)
        except SingularMatrixError as exc:
            raise RuntimeError(f"singular bordered matrix at shift {shift}") from exc

    def _shifted_solve_raw(self, w, fact):
        r = self.rsys
        w1, w2 = r.split(w)
        tail = (r.m + r.k2,) + w.shape[1:]
        rhs = np.concatenate([w1, self._to_edges(w2), np.zeros(tail, dtype=w.dtype)])
        sol = fact.solve(rhs)
        return np.concatenate([sol[: r.n1], sol[r.n1 + r.cotree]])

    def _shifted_residual(self, shift, w, z):
        """w - (tau E_r + A_r) z and its Frobenius norm."""
        r = self.rsys
        resid = w - (shift * r.apply_Er(z) + r.apply_Ar(z))
        return resid, np.linalg.norm(resid)

    def shifted_solve(self, shift, w, lu=None, start=None, *, resid_out=None):
        """(tau E_r + A_r)^{-1} w via the bordered system in edge coordinates.

        Valid for real tau < 0 and complex shifts off the nonpositive real
        spectrum of the pencil; supports one rhs or a matrix of rhs columns.
        ``lu`` is ``shifted_lu(shift)``, for a caller that solves at one shift
        many times; without it the solve builds an LU when it first needs
        one and drops it on return.  The raw bordered solve is polished by
        iterative refinement on the true shifted residual in the reduced
        coordinates, until that residual is at most SHIFT_RESIDUAL_TARGET
        relative or after SHIFT_REFINE_STEPS steps.

        ``start`` is an optional first iterate.  Its residual is computed
        afresh: a start that meets SHIFT_RESIDUAL_TARGET is returned itself,
        with no LU solve; a start no better than zero (residual not below
        ||w||, or NaN) is discarded and the solve runs as without one; any
        other start is refined by the same steps in place of the raw solve.

        The iterate returned has a relative residual
        ||w - (tau E_r + A_r) z|| / ||w|| (Frobenius norms) of at most
        SOLVE_RESIDUAL_FLOOR; otherwise RuntimeError names the shift and the
        residual, as at a shift on or next to the spectrum.  ``resid_out``,
        an array of w's shape, receives that residual.
        """
        w = np.asarray(w)
        wn = np.linalg.norm(w)
        z = None
        if start is not None:
            z = np.asarray(start)
            resid, rn = self._shifted_residual(shift, w, z)
            if not (rn < wn or rn <= SHIFT_RESIDUAL_TARGET * wn):
                z = None
        if z is None:
            if lu is None:
                lu = self.shifted_lu(shift)
            z = self._shifted_solve_raw(w, lu)
            resid, rn = self._shifted_residual(shift, w, z)
        for _ in range(SHIFT_REFINE_STEPS):
            if rn <= SHIFT_RESIDUAL_TARGET * wn:
                break
            if lu is None:
                lu = self.shifted_lu(shift)
            z = z + self._shifted_solve_raw(resid, lu)
            resid, rn = self._shifted_residual(shift, w, z)
        _certify_solve(f"shifted solve at shift {shift}", rn, wn)
        if resid_out is not None:
            resid_out[...] = resid
        return z

    # -- spectral bounds ---------------------------------------------------

    def spectral_bounds(self, maxit=default_value("mor.lanczos_maxit"),
                        tol=default_value("mor.lanczos_tol")):
        """Extremal nonzero eigenvalue magnitudes of (E_r, A_r) via Lanczos.

        Lanczos runs on v -> E_r^- A_r v in the E_r inner product, started at
        the first column of E_r^- B_r (which lies in the Pi subspace); near-
        zero Ritz values coming from numerical drift into the n_0 directions
        are excluded by a relative threshold.  Raises ValueError when Lanczos
        returns no Ritz value (``maxit`` < 1), and RuntimeError when it does
        not converge within ``maxit`` steps: shifts from unconverged bounds
        would not support a certified model.
        """
        start = self.apply_EinvB()[:, 0]
        if not np.linalg.norm(start) > 0:
            raise ValueError("E_r^- B_r vanishes; no start vector for Lanczos")
        res = lanczos_extremal(
            self.apply_EinvA, start, maxit=maxit, tol=tol, metric=self.rsys.apply_Er
        )
        ritz = res.ritz
        if ritz is None:
            raise ValueError(f"Lanczos returned no Ritz values (maxit = {maxit})")
        scale = np.abs(ritz).max()
        neg = ritz[ritz < -1e-8 * scale]
        if neg.size == 0:
            raise RuntimeError("no negative Ritz value found")
        bounds = SpectralBounds(a=float(-neg.max()), b=float(-neg.min()),
                                iterations=res.iterations)
        if not res.converged:
            raise RuntimeError(
                f"Lanczos spectral bounds did not converge in {bounds.iterations} "
                f"iterations (a={bounds.a:.6e}, b={bounds.b:.6e}); "
                "no certified model")
        return bounds

    # -- dimension bookkeeping ----------------------------------------------

    def dimension_counts(self):
        """Counts (n_s, n_0, n_inf) of the quasi-Weierstrass splitting.

        n_inf = n2 - k2 - m is structural.  The rest follows from the
        topology of the boundary-eliminated box complex, where ker C = im G0:
        with N interior nodes, n_0 = N - k2 and n_s = n1 - N + k2 + m.  A
        system without a node count N raises ValueError.
        """
        r = self.rsys
        if r.n_nodes is None:
            raise ValueError("dimension counts need the number N of interior "
                             "nodes (RegularizedSystem.n_nodes is None)")
        n_r = r.n_r
        n_inf = r.n2r - r.m
        n0 = r.n_nodes - r.k2
        n_s = n_r - n0 - n_inf
        if min(n0, n_s) < 0:
            raise ValueError(f"negative dimension count: n0 = {n0}, n_s = {n_s}")
        return {
            "n_r": n_r, "n1": r.n1, "n2": r.n2, "k2": r.k2, "m": r.m,
            "n_inf": n_inf, "n0": n0, "n_s": n_s,
        }

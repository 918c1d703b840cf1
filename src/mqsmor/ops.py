"""Structure-exploiting operator algebra for the regularized MQS pencil.

Everything here works matrix-free on the factored forms: products with the
reflexive-inverse combination E_r^- A_r are evaluated by the 7-step scheme
(one M11 solve, the explicit block inverse of Yhat_sigma^T E_r Yhat_sigma,
and one solve with the shift-independent bordered matrix

    [ -Yhat^T K22 Yhat   Yhat^T X2 ]
    [   X2^T Yhat            0     ],

which is factored once), and shifted systems (tau E_r + A_r) z = w are
solved through the bordered saddle-point system of dimension n + m + k2 in
the original edge coordinates, so the Yhat fill never enters a factorization.
Complex shifts reuse the same structure over complex scalars.

Every shifted bordered matrix tau Mb + Kb shares one sparsity pattern, so a
single nested-dissection ordering, computed once per context from the edge
midpoints (gauge multipliers sit at the centroid of their Y_C2 support, the
winding currents are ordered last), serves every real and complex shift.
Systems without mesh coordinates fall back to SuperLU's COLAMD per shift.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .lacore import factorize, lanczos_extremal, nested_dissection
from .regularize import RegularizedSystem


@dataclass
class SpectralBounds:
    """Magnitudes of the extremal nonzero finite eigenvalues of (E_r, A_r)."""

    a: float   # = -lambda_max(E_r, A_r)
    b: float   # = -lambda_min(E_r, A_r)
    iterations: int = 0
    converged: bool = True

    def __post_init__(self):
        if not (0 < self.a <= self.b):
            raise ValueError("spectral bounds must satisfy 0 < a <= b")


class OperatorContext:
    """Factorization cache and matrix-free products for one regularized system."""

    def __init__(self, rsys: RegularizedSystem, refine=1, shift_cache_size=3):
        self.rsys = rsys
        self.refine = refine
        n1, n2r, m = rsys.n1, rsys.n2r, rsys.m
        self.m11_fact = factorize(rsys.M11) if n1 else None
        x2hat_sp = sp.csr_matrix(rsys.X2hat)
        self._lemma2_mat = sp.bmat(
            [[-rsys.K22hat, x2hat_sp], [x2hat_sp.T, None]], format="csc"
        )
        self._lemma2_fact = factorize(self._lemma2_mat)
        yty = (rsys.Yhat.T @ rsys.Yhat).tocsc()
        self._yty_mat = yty
        self._yty_fact = factorize(yty)
        mnu_c2 = rsys.Mnu @ rsys.C2
        self._K12 = (rsys.C1.T @ mnu_c2).tocsr()
        self._K22 = (rsys.C2.T @ mnu_c2).tocsr()
        # shift-independent split of the Lemma-3 bordered matrix:
        # mat(tau) = tau * Mb + Kb
        x1 = sp.csr_matrix(rsys.X1)
        rmat = sp.csr_matrix(rsys.R)
        n1, n2, k2 = rsys.n1, rsys.n2, rsys.k2
        y_blk = rsys.Y if k2 else None
        kb = [
            [-rsys.K11, -self._K12, x1, None],
            [-self._K12.T, -self._K22, rsys.X2, y_blk],
            [None, None, -rmat, None],
            [None, rsys.Y.T if k2 else None, None, None],
        ]
        mb = [
            [rsys.M11, None, None, None],
            [None, sp.csr_matrix((n2, n2)), None, None],
            [x1.T, rsys.X2.T, sp.csr_matrix((m, m)), None],
            [None, None, None, sp.csr_matrix((k2, k2))],
        ]
        if k2 == 0:
            kb = [row[:3] for row in kb[:3]]
            mb = [row[:3] for row in mb[:3]]
        self._lemma3_K = sp.bmat(kb, format="csc")
        self._lemma3_M = sp.bmat(mb, format="csc")
        self._order = None
        if rsys.edge_xyz is not None:
            self._order = nested_dissection(
                self._lemma3_K + self._lemma3_M, self._bordered_points(),
                last=np.arange(n1 + n2, n1 + n2 + m))
        self._shift_cache = OrderedDict()
        self._shift_cache_size = shift_cache_size
        self.B_r = rsys.B_r()
        self._counts = None

    def _bordered_points(self):
        """One point per unknown of the bordered matrix: edge midpoints,
        NaN for the winding currents, and the centroid of the Y_C2 column
        support for each gauge multiplier."""
        r = self.rsys
        support = (abs(r.Y) > 0).astype(np.float64).tocsc()
        counts = np.asarray(support.sum(axis=0)).ravel()
        centroids = (support.T @ r.edge_xyz[r.n1:]) / np.maximum(counts, 1)[:, None]
        return np.vstack([r.edge_xyz, np.full((r.m, 3), np.nan), centroids])

    # -- basic applies ----------------------------------------------------

    def apply_Er(self, v):
        return self.rsys.apply_Er(v)

    def apply_Ar(self, v):
        return self.rsys.apply_Ar(v)

    def _solve_refined(self, mat, fact, rhs):
        sol = fact.solve(rhs)
        for _ in range(self.refine):
            sol = sol + fact.solve(rhs - mat @ sol)
        return sol

    def _m11_solve(self, b):
        return self._solve_refined(self.rsys.M11, self.m11_fact, b)

    def _lemma2_solve(self, rhs):
        return self._solve_refined(self._lemma2_mat, self._lemma2_fact, rhs)

    def _yty_solve(self, b):
        return self._solve_refined(self._yty_mat, self._yty_fact, b)

    # -- projector and reflexive-inverse products --------------------------

    def apply_Pi_inf(self, v):
        """Pi_inf v: spectral projector onto the infinite-eigenvalue subspace.

        z = Y_s (Y_s^T A_r Y_s)^{-1} Y_s^T (A_r v) has the form (0, z2) with
        z2 from the shift-independent bordered system.
        """
        v = np.asarray(v)
        w = self.rsys.apply_Ar(v)
        n1, n2r, m = self.rsys.n1, self.rsys.n2r, self.rsys.m
        tail_shape = (m,) + w.shape[1:]
        rhs = np.concatenate([w[n1:], np.zeros(tail_shape, dtype=w.dtype)])
        z2 = self._lemma2_solve(rhs)[:n2r]
        return np.concatenate([np.zeros((n1,) + w.shape[1:], dtype=z2.dtype), z2])

    def apply_EinvA(self, v):
        """E_r^- A_r v for v in the Pi-invariant subspace (7-step scheme)."""
        r = self.rsys
        v = np.asarray(v)
        v1, v2 = r.split(v)
        vhat1 = -(r.K11 @ v1) - (r.K21hat.T @ v2)
        vhat2 = -(r.K21hat @ v1) - (r.K22hat @ v2)
        what2 = r.Z.T @ vhat2
        w1 = self._m11_solve(vhat1 - r.X1 @ what2)
        w2 = -r.Z @ (r.X1.T @ w1 - r.R @ what2)
        rhs_top = -(r.K21hat @ w1) - (r.K22hat @ w2)
        tail_shape = (r.m,) + rhs_top.shape[1:]
        z2 = self._lemma2_solve(
            np.concatenate([rhs_top, np.zeros(tail_shape, dtype=rhs_top.dtype)])
        )
        z2 = z2[: r.n2r]
        return np.concatenate([w1, w2 - z2])

    def apply_EinvB(self):
        """E_r^- B_r = (I - Pi_inf) [0; Z], an n_r x m matrix."""
        r = self.rsys
        v0 = np.vstack([np.zeros((r.n1, r.m)), r.Z])
        return v0 - self.apply_Pi_inf(v0)

    def apply_Cr(self, v):
        """C_r v = -B_r^T E_r^- A_r v."""
        return -self.B_r.T @ self.apply_EinvA(v)

    # -- shifted solves ----------------------------------------------------

    def _shift_factorization(self, shift):
        if shift in self._shift_cache:
            self._shift_cache.move_to_end(shift)
            return self._shift_cache[shift]
        is_complex = np.iscomplexobj(shift) and np.imag(shift) != 0
        tau = complex(shift) if is_complex else float(np.real(shift))
        mat = (self._lemma3_K + tau * self._lemma3_M).tocsc()
        try:
            fact = factorize(mat, perm=self._order)
        except Exception as exc:
            raise RuntimeError(f"singular bordered matrix at shift {shift}") from exc
        entry = (mat, fact)
        self._shift_cache[shift] = entry
        if len(self._shift_cache) > self._shift_cache_size:
            self._shift_cache.popitem(last=False)
        return entry

    def _shifted_solve_raw(self, w, mat, fact):
        r = self.rsys
        w1, w2 = r.split(w)
        q2 = r.Yhat @ self._yty_solve(w2)
        tail = (r.m + r.k2,) + w.shape[1:]
        rhs = np.concatenate([w1, q2, np.zeros(tail)])
        if np.iscomplexobj(mat) and not np.iscomplexobj(rhs):
            rhs = rhs.astype(np.complex128)
        sol = fact.solve(rhs)
        z1 = sol[: r.n1]
        z2 = self._yty_solve(r.Yhat.T @ sol[r.n1: r.n1 + r.n2])
        return np.concatenate([z1, z2])

    def shifted_solve(self, shift, w):
        """(tau E_r + A_r)^{-1} w via the bordered system in edge coordinates.

        Valid for real tau < 0 and complex shifts off the nonpositive real
        spectrum of the pencil; supports one rhs or a matrix of rhs columns.
        The raw bordered solve is polished by iterative refinement on the
        true shifted residual in the reduced coordinates.
        """
        r = self.rsys
        mat, fact = self._shift_factorization(shift)
        w = np.asarray(w)
        z = self._shifted_solve_raw(w, mat, fact)
        wn = np.linalg.norm(w)
        for _ in range(max(self.refine, 1) + 1):
            resid = w - (shift * r.apply_Er(z) + r.apply_Ar(z))
            if np.linalg.norm(resid) <= 1e-13 * wn:
                break
            z = z + self._shifted_solve_raw(resid, mat, fact)
        return z

    # -- spectral bounds ---------------------------------------------------

    def spectral_bounds(self, maxit=150, tol=1e-9):
        """Extremal nonzero eigenvalue magnitudes of (E_r, A_r) via Lanczos.

        Lanczos runs on v -> E_r^- A_r v in the E_r inner product, started at
        the first column of E_r^- B_r (which lies in the Pi subspace); near-
        zero Ritz values coming from numerical drift into the n_0 directions
        are excluded by a relative threshold.
        """
        start = self.apply_EinvB()[:, 0]
        if not np.linalg.norm(start) > 0:
            raise ValueError("E_r^- B_r vanishes; no start vector for Lanczos")
        res = lanczos_extremal(
            self.apply_EinvA, start, maxit=maxit, tol=tol, metric=self.rsys.apply_Er
        )
        ritz = res.ritz
        scale = np.abs(ritz).max()
        neg = ritz[ritz < -1e-8 * scale]
        if neg.size == 0:
            raise RuntimeError("no negative Ritz value found")
        return SpectralBounds(
            a=float(-neg.max()), b=float(-neg.min()),
            iterations=res.iterations, converged=res.converged,
        )

    # -- dimension bookkeeping ----------------------------------------------

    def dimension_counts(self, dense_cap=8000):
        """Counts (n_s, n_0, n_inf) of the quasi-Weierstrass splitting.

        n_inf = n2 - k2 - m is structural; n_0 = n_r - rank(F_nu) is found by
        a dense eigendecomposition of F_nu F_nu^T at desk scale, with a gap
        check guarding the rank threshold.
        """
        if self._counts is not None:
            return self._counts
        r = self.rsys
        n_r = r.n_r
        if n_r > dense_cap:
            raise ValueError(f"n_r = {n_r} exceeds the dense cap {dense_cap}")
        n_inf = r.n2r - r.m
        gram = sp.bmat(
            [
                [r.C1.T @ r.C1, r.C1.T @ r.P2],
                [r.P2.T @ r.C1, r.P2.T @ r.P2],
            ]
        ).toarray()
        w = np.linalg.eigvalsh(gram)
        wmax = w[-1]
        nz = int(np.sum(w <= 1e-8 * wmax))
        if nz and not (w[nz - 1] <= 1e-10 * wmax and w[nz] >= 1e-6 * wmax):
            raise RuntimeError("rank threshold for F_nu is ambiguous")
        n0 = nz
        n_s = n_r - n0 - n_inf
        self._counts = {
            "n_r": n_r, "n1": r.n1, "n2": r.n2, "k2": r.k2, "m": r.m,
            "n_inf": n_inf, "n0": n0, "n_s": n_s,
        }
        return self._counts

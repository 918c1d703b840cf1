"""Independent dense verification oracle.

Builds the quasi-Weierstrass transformation data (W1, E11, A11, kernels
Y_sigma, Y_nu, spectral projector Pi, reflexive inverses) by dense nullspace
and factorization routines, without reusing the structured solver path.
Small systems (brute tier) materialize everything, including W itself, from
raw SVD nullspaces.  Desk-scale systems use factored representations: the
kernel Y_nu comes from a pivoted Cholesky factorization of F_nu F_nu^T, its
rank threshold certified by a residual bound and a second, lifted Cholesky
factorization (no dense eigendecomposition of size n_r); Y_sigma enters only
through a dense LU of the saddle matrix of its Gram system, and W1 is an
orthonormal basis of the range of the spectral projector.  The products
E_r W1 and A_r W1 are kept for the Gramian identity of Theorem 4.

Sign convention: A_r is negative semidefinite, so the real transformation
uses (-Y_sigma^T A_r Y_sigma)^{-1/2} and the infinite block of W^T A_r W is
-I instead of the +I of the complex canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .lacore import gram_kernel
from .ops import OperatorContext


def _inv_sqrt_spd(mat):
    w, u = np.linalg.eigh(0.5 * (mat + mat.T))
    if np.any(w <= 0):
        raise ValueError("matrix is not positive definite")
    return u @ ((1.0 / np.sqrt(w))[:, None] * u.T)


@dataclass
class DenseOracle:
    """Dense verification data for one regularized system."""

    tier: str                      # "brute" | "desk"
    n_s: int
    n_0: int
    n_inf: int
    E_dense: np.ndarray
    A_dense: np.ndarray
    W1: np.ndarray                 # n_r x n_s
    What1: np.ndarray              # n_r x n_s, Pi = W1 @ What1.T
    E11: np.ndarray
    A11: np.ndarray
    EW1: np.ndarray                # E_dense @ W1
    AW1: np.ndarray                # A_dense @ W1
    B1: np.ndarray
    Y_nu: np.ndarray               # n_r x n_0, orthonormal
    einv_factor: np.ndarray        # U with E_r^- = U U^T
    Y_sigma: np.ndarray | None = None       # brute tier only
    W: np.ndarray | None = None             # brute tier only
    _ysig_lu: tuple = field(default=None, repr=False)
    _n1: int = 0
    _m: int = 0

    @property
    def n_r(self):
        return self.E_dense.shape[0]

    # -- operator applications -------------------------------------------

    def einv_apply(self, v):
        return self.einv_factor @ (self.einv_factor.T @ v)

    def pi_apply(self, v):
        return self.W1 @ (self.What1.T @ v)

    def _ysigma_gram_solve(self, v):
        """Y_sigma (Y_sigma^T A_r Y_sigma)^{-1} Y_sigma^T v."""
        if self.tier == "brute":
            g = self.Y_sigma.T @ (self.A_dense @ self.Y_sigma)
            return self.Y_sigma @ np.linalg.solve(g, self.Y_sigma.T @ v)
        n1, m = self._n1, self._m
        v = np.asarray(v)
        tail = (m,) + v.shape[1:]
        rhs = np.concatenate([v[n1:], np.zeros(tail)])
        sol = scipy.linalg.lu_solve(self._ysig_lu, rhs)
        z2 = sol[: self.n_r - n1]
        return np.concatenate([np.zeros((n1,) + v.shape[1:]), z2])

    def pi_inf_apply(self, v):
        return self._ysigma_gram_solve(self.A_dense @ v)

    def ainv_apply(self, v):
        """A_r^- v = W1 A11^{-1} W1^T v + Y_s (Y_s^T A_r Y_s)^{-1} Y_s^T v."""
        head = self.W1 @ np.linalg.solve(self.A11, self.W1.T @ v)
        return head + self._ysigma_gram_solve(v)

    def einv_dense(self):
        return self.einv_factor @ self.einv_factor.T

    def pi_dense(self):
        return self.W1 @ self.What1.T

    def finite_eigenvalues(self):
        """Generalized eigenvalues of (E11, A11) by unsymmetric QZ (complex)."""
        return scipy.linalg.eig(self.A11, self.E11, right=False)


def _dense_er(rsys):
    n1, n2r = rsys.n1, rsys.n2r
    rinv = rsys.Rinv
    x1, x2h = rsys.X1, rsys.X2hat
    e = np.zeros((n1 + n2r, n1 + n2r))
    e[:n1, :n1] = rsys.M11.toarray() + x1 @ rinv @ x1.T
    e[:n1, n1:] = x1 @ rinv @ x2h.T
    e[n1:, :n1] = e[:n1, n1:].T
    e[n1:, n1:] = x2h @ rinv @ x2h.T
    return e


def _dense_ar(rsys):
    """A_r = -F_nu M_nu F_nu^T with F_nu = [C1^T; Yhat^T C2^T]."""
    f_nu = sp.vstack([rsys.C1.T, rsys.P2.T]).tocsr()
    return -(f_nu @ rsys.Mnu @ f_nu.T).toarray()


def build_dense_oracle(ctx: OperatorContext, cap=3000, brute_cap=800,
                       seed=20260809) -> DenseOracle:
    """Construct the oracle; fails when n_r exceeds the configurable cap."""
    rsys = ctx.rsys
    n_r = rsys.n_r
    if n_r > cap:
        raise ValueError(f"dense oracle cap exceeded: n_r = {n_r} > {cap}")
    e = _dense_er(rsys)
    a = _dense_ar(rsys)
    if n_r <= brute_cap:
        return _build_brute(rsys, e, a, ctx.B_r)
    return _build_desk(rsys, e, a, ctx.B_r, seed)


def _build_brute(rsys, e, a, b_r):
    n1, n2r, m = rsys.n1, rsys.n2r, rsys.m
    f_sigma = np.zeros((n1 + n2r, n1 + m))
    f_sigma[:n1, :n1] = np.eye(n1)
    f_sigma[:n1, n1:] = rsys.X1
    f_sigma[n1:, n1:] = rsys.X2hat
    f_nu = np.vstack([rsys.C1.T.toarray(), rsys.P2.T.toarray()])
    y_sigma = scipy.linalg.null_space(f_sigma.T)
    y_nu = scipy.linalg.null_space(f_nu.T)
    n_inf, n_0 = y_sigma.shape[1], y_nu.shape[1]
    n_s = (n1 + n2r) - n_inf - n_0
    stack = []
    if n_0:
        stack.append((e @ y_nu).T)
    if n_inf:
        stack.append((a @ y_sigma).T)
    if stack:
        w1 = scipy.linalg.null_space(np.vstack(stack))
    else:
        w1 = np.eye(n1 + n2r)
    if w1.shape[1] != n_s:
        raise RuntimeError("brute oracle: W1 dimension mismatch")
    ew1, aw1 = e @ w1, a @ w1
    e11 = w1.T @ ew1
    a11 = w1.T @ aw1
    blocks = [w1]
    if n_0:
        blocks.append(y_nu @ _inv_sqrt_spd(y_nu.T @ e @ y_nu))
    if n_inf:
        blocks.append(y_sigma @ _inv_sqrt_spd(-(y_sigma.T @ a @ y_sigma)))
    w = np.hstack(blocks)
    winv = np.linalg.inv(w)
    what1 = winv[:n_s, :].T
    u_blocks = [w1 @ _inv_sqrt_spd(e11)]
    if n_0:
        u_blocks.append(blocks[1])
    einv_factor = np.hstack(u_blocks)
    return DenseOracle(
        tier="brute", n_s=n_s, n_0=n_0, n_inf=n_inf, E_dense=e, A_dense=a,
        W1=w1, What1=what1, E11=e11, A11=a11, EW1=ew1, AW1=aw1, B1=w1.T @ b_r,
        Y_nu=y_nu, einv_factor=einv_factor, Y_sigma=y_sigma, W=w, _n1=n1, _m=m,
    )


def _build_desk(rsys, e, a, b_r, seed):
    n1, n2r, m = rsys.n1, rsys.n2r, rsys.m
    n_r = n1 + n2r
    n_inf = n2r - m

    y_nu = gram_kernel(sp.vstack([rsys.C1.T, rsys.P2.T]).tocsr())
    n_0 = y_nu.shape[1]
    n_s = n_r - n_0 - n_inf
    if n_s <= 0:
        raise RuntimeError("desk oracle: no finite-eigenvalue block")

    # dense LU of the Y_sigma Gram saddle system (independent factorization)
    saddle = np.zeros((n2r + m, n2r + m))
    saddle[:n2r, :n2r] = a[n1:, n1:]
    saddle[:n2r, n2r:] = rsys.X2hat
    saddle[n2r:, :n2r] = rsys.X2hat.T
    # symmetric (to rounding): its transpose is the Fortran-ordered matrix,
    # factored in place
    ysig_lu = scipy.linalg.lu_factor(saddle.T, overwrite_a=True, check_finite=False)
    del saddle

    # spectral projector Pi = I - Pi_0 - Pi_inf applied to a random probe block
    eynu = e @ y_nu
    g0 = y_nu.T @ eynu
    g0_lu = scipy.linalg.lu_factor(g0)

    def pi_apply(v):
        pi0 = y_nu @ scipy.linalg.lu_solve(g0_lu, eynu.T @ v)
        av = a @ v
        tail = (m,) + v.shape[1:]
        rhs = np.concatenate([av[n1:], np.zeros(tail)])
        z2 = scipy.linalg.lu_solve(ysig_lu, rhs)[:n2r]
        piinf = np.concatenate([np.zeros((n1,) + v.shape[1:]), z2])
        return v - pi0 - piinf

    rng = np.random.default_rng(seed)
    probes = rng.standard_normal((n_r, min(n_s + 8, n_r)))
    ps = pi_apply(probes)
    u, s, _ = np.linalg.svd(ps, full_matrices=False)
    rank = int(np.sum(s > 1e-10 * s[0]))
    if rank != n_s:
        raise RuntimeError(
            f"desk oracle: projector range has rank {rank}, expected n_s = {n_s}"
        )
    w1 = u[:, :n_s]

    ew1, aw1 = e @ w1, a @ w1
    e11 = w1.T @ ew1
    a11 = w1.T @ aw1

    # What1 = H Theta with columns of H spanning im(Y_sigma)^perp
    h = np.zeros((n_r, n1 + m))
    h[:n1, :n1] = np.eye(n1)
    h[n1:, n1:] = rsys.X2hat
    t = np.vstack([y_nu.T @ h, w1.T @ h])
    rhs = np.vstack([np.zeros((n_0, n_s)), np.eye(n_s)])
    what1 = h @ np.linalg.solve(t, rhs)

    w2 = y_nu @ _inv_sqrt_spd(g0)
    einv_factor = np.hstack([w1 @ _inv_sqrt_spd(e11), w2])
    return DenseOracle(
        tier="desk", n_s=n_s, n_0=n_0, n_inf=n_inf, E_dense=e, A_dense=a,
        W1=w1, What1=what1, E11=e11, A11=a11, EW1=ew1, AW1=aw1, B1=w1.T @ b_r,
        Y_nu=y_nu, einv_factor=einv_factor, Y_sigma=None, W=None, _ysig_lu=ysig_lu,
        _n1=n1, _m=m,
    )


@dataclass
class FactoredGramian:
    """Gramian G = W1 core W1^T restricted to the Pi subspace."""

    W1: np.ndarray
    core: np.ndarray

    def toarray(self):
        return self.W1 @ self.core @ self.W1.T


def dense_gramians(oracle: DenseOracle):
    """Solve the projected Lyapunov equations in W1 coordinates.

    Both equations reduce to E11 G A11 + A11 G E11 = -Q on the n_s block;
    with H = E11 G E11 and F = E11^{-1} A11 this is the standard Lyapunov
    equation F^T H + H F = -Q.
    """
    e11, a11, b1 = oracle.E11, oracle.A11, oracle.B1
    f = np.linalg.solve(e11, a11)
    c1 = -(b1.T @ np.linalg.solve(e11, a11))      # C_r W1 = -B1^T E11^{-1} A11
    h_c = scipy.linalg.solve_continuous_lyapunov(f.T, -(b1 @ b1.T))
    h_o = scipy.linalg.solve_continuous_lyapunov(f.T, -(c1.T @ c1))
    e_inv = np.linalg.inv(e11)
    g_c = e_inv @ h_c @ e_inv
    g_o = e_inv @ h_o @ e_inv
    g_c = 0.5 * (g_c + g_c.T)
    g_o = 0.5 * (g_o + g_o.T)
    return FactoredGramian(oracle.W1, g_c), FactoredGramian(oracle.W1, g_o)

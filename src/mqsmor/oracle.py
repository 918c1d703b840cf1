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
orthonormal basis of the range of the spectral projector.  The build holds
one n^2-sized block at a time: the Gram matrix of the Y_nu kernel, then the
saddle LU, which serves one solve of the random probe block and is freed
before the SVD that gives W1 (``DenseOracle`` refactors it on first use of
``pi_inf_apply`` or ``ainv_apply``).  The products E_r W1 and A_r W1 are
kept for the Gramian identity of Theorem 4.

E_r = blockdiag(M11, 0) + Xhat R^{-1} Xhat^T (Xhat = [X1; X2hat]) and
A_r = -F_nu M_nu F_nu^T (F_nu = [C1^T; P2^T]) are applied as sparse products
by ``SparsePencil``, written here rather than taken from
``RegularizedSystem.apply_Er/apply_Ar``, which the Lemma-1 check compares
against.  No n_r x n_r copy of E_r or A_r is held; the dense forms are built
on first access (brute tier and tests).

Sign convention: A_r is negative semidefinite, so the real transformation
uses (-Y_sigma^T A_r Y_sigma)^{-1/2} and the infinite block of W^T A_r W is
-I instead of the +I of the complex canonical form.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .config import default_value
from .lacore import gram_kernel
from .ops import OperatorContext

PROBE_BLOCK = 64      # probe columns projected at a time by the desk build


def _inv_sqrt_spd(mat):
    w, u = np.linalg.eigh(0.5 * (mat + mat.T))
    if np.any(w <= 0):
        raise ValueError("matrix is not positive definite")
    return u @ ((1.0 / np.sqrt(w))[:, None] * u.T)


@dataclass
class SparsePencil:
    """E_r = blockdiag(M11, 0) + Xhat R^{-1} Xhat^T and
    A_r = -F_nu M_nu F_nu^T, kept as their sparse and n_r x m factors."""

    M11: object            # sparse n1 x n1
    Xhat: np.ndarray       # n_r x m dense, [X1; X2hat]
    Rinv: np.ndarray       # m x m
    F_nu: object           # csr n_r x n_f, [C1^T; P2^T]
    Mnu: object            # sparse n_f x n_f

    @classmethod
    def of(cls, rsys):
        return cls(M11=rsys.M11, Xhat=np.vstack([rsys.X1, rsys.X2hat]),
                   Rinv=rsys.Rinv, F_nu=sp.vstack([rsys.C1.T, rsys.P2.T]).tocsr(),
                   Mnu=rsys.Mnu)

    def apply_E(self, v):
        v = np.asarray(v)
        n1 = self.M11.shape[0]
        out = self.Xhat @ (self.Rinv @ (self.Xhat.T @ v))
        out[:n1] += self.M11 @ v[:n1]
        return out

    def apply_A(self, v):
        return -(self.F_nu @ (self.Mnu @ (self.F_nu.T @ v)))

    def dense_E(self):
        n1 = self.M11.shape[0]
        e = self.Xhat @ self.Rinv @ self.Xhat.T
        e[:n1, :n1] += self.M11.toarray()
        e[n1:, :n1] = e[:n1, n1:].T          # exactly symmetric
        return e

    def dense_A(self):
        return -(self.F_nu @ self.Mnu @ self.F_nu.T).toarray()


@dataclass
class DenseOracle:
    """Dense verification data for one regularized system."""

    tier: str                      # "brute" | "desk"
    n_s: int
    n_0: int
    n_inf: int
    pencil: SparsePencil           # E_r and A_r as sparse products
    W1: np.ndarray                 # n_r x n_s
    What1: np.ndarray              # n_r x n_s, Pi = W1 @ What1.T
    E11: np.ndarray
    A11: np.ndarray
    EW1: np.ndarray                # E_r W1
    AW1: np.ndarray                # A_r W1
    B1: np.ndarray
    Y_nu: np.ndarray               # n_r x n_0, orthonormal
    einv_factor: np.ndarray        # U with E_r^- = U U^T
    Y_sigma: np.ndarray | None = None       # brute tier only
    W: np.ndarray | None = None             # brute tier only
    _n1: int = 0                   # n1 and m locate the desk tier's saddle
    _m: int = 0                    # matrix; its LU is not kept (_ysig_lu)

    @property
    def n_r(self):
        return self.W1.shape[0]

    @functools.cached_property
    def E_dense(self):
        """E_r as an n_r x n_r array, built on first access."""
        return self.pencil.dense_E()

    @functools.cached_property
    def A_dense(self):
        """A_r as an n_r x n_r array, built on first access."""
        return self.pencil.dense_A()

    @functools.cached_property
    def _ysig_lu(self):
        """Desk tier: LU of the Y_sigma Gram saddle matrix, factored on first
        use (``pi_inf_apply``, ``ainv_apply``); the build does not keep its own."""
        return _ysigma_saddle_lu(self.pencil, self._n1)

    # -- operator applications -------------------------------------------

    def einv_apply(self, v):
        return self.einv_factor @ (self.einv_factor.T @ v)

    def pi_apply(self, v):
        return self.W1 @ (self.What1.T @ v)

    def _ysigma_gram_solve(self, v):
        """Y_sigma (Y_sigma^T A_r Y_sigma)^{-1} Y_sigma^T v."""
        if self.tier == "brute":
            g = self.Y_sigma.T @ self.pencil.apply_A(self.Y_sigma)
            return self.Y_sigma @ np.linalg.solve(g, self.Y_sigma.T @ v)
        n1, m = self._n1, self._m
        v = np.asarray(v)
        tail = (m,) + v.shape[1:]
        rhs = np.concatenate([v[n1:], np.zeros(tail)])
        sol = scipy.linalg.lu_solve(self._ysig_lu, rhs)
        z2 = sol[: self.n_r - n1]
        return np.concatenate([np.zeros((n1,) + v.shape[1:]), z2])

    def pi_inf_apply(self, v):
        return self._ysigma_gram_solve(self.pencil.apply_A(v))

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


def build_dense_oracle(ctx: OperatorContext, cap=default_value("oracle.dense_cap"),
                       brute_cap=800, seed=20260809) -> DenseOracle:
    """Construct the oracle; fails when n_r exceeds ``cap`` (config key
    ``oracle.dense_cap``, whose default it shares)."""
    rsys = ctx.rsys
    n_r = rsys.n_r
    if n_r > cap:
        raise ValueError(f"dense oracle cap exceeded: n_r = {n_r} > {cap}")
    pencil = SparsePencil.of(rsys)
    if n_r <= brute_cap:
        return _build_brute(rsys, pencil, ctx.B_r)
    return _build_desk(rsys, pencil, ctx.B_r, seed)


def _build_brute(rsys, pencil, b_r):
    n1, n2r, m = rsys.n1, rsys.n2r, rsys.m
    e, a = pencil.dense_E(), pencil.dense_A()
    f_sigma = np.zeros((n1 + n2r, n1 + m))
    f_sigma[:n1, :n1] = np.eye(n1)
    f_sigma[:n1, n1:] = rsys.X1
    f_sigma[n1:, n1:] = rsys.X2hat
    f_nu = pencil.F_nu.toarray()
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
        tier="brute", n_s=n_s, n_0=n_0, n_inf=n_inf, pencil=pencil,
        W1=w1, What1=what1, E11=e11, A11=a11, EW1=ew1, AW1=aw1, B1=w1.T @ b_r,
        Y_nu=y_nu, einv_factor=einv_factor, Y_sigma=y_sigma, W=w, _n1=n1, _m=m,
    )


def _ysigma_saddle_lu(pencil, n1):
    """Dense LU of the Y_sigma Gram saddle matrix [[-P2^T M_nu P2, X2hat],
    [X2hat^T, 0]], whose leading block is the trailing block of A_r; an
    independent factorization, assembled sparse and made dense once."""
    f2 = pencil.F_nu[n1:]
    n2r = f2.shape[0]
    x2h = sp.csr_matrix(pencil.Xhat[n1:])
    saddle = sp.bmat([[f2 @ pencil.Mnu @ f2.T, x2h], [x2h.T, None]]).toarray()
    # negated as a dense block: its empty entries are -0.0
    np.negative(saddle[:n2r, :n2r], out=saddle[:n2r, :n2r])
    # symmetric (to rounding): its transpose is the Fortran-ordered matrix,
    # factored in place
    return scipy.linalg.lu_factor(saddle.T, overwrite_a=True, check_finite=False)


def _build_desk(rsys, pencil, b_r, seed):
    n1, n2r, m = rsys.n1, rsys.n2r, rsys.m
    n_r = n1 + n2r
    n_inf = n2r - m

    y_nu = gram_kernel(pencil.F_nu)
    n_0 = y_nu.shape[1]
    n_s = n_r - n_0 - n_inf
    if n_s <= 0:
        raise RuntimeError("desk oracle: no finite-eigenvalue block")

    # spectral projector Pi = I - Pi_0 - Pi_inf applied in place to a random
    # probe block; A_r goes PROBE_BLOCK columns at a time, so that its
    # temporaries of n_f rows stay small, and the saddle LU lives only for
    # its one solve
    eynu = pencil.apply_E(y_nu)
    g0 = y_nu.T @ eynu
    g0_lu = scipy.linalg.lu_factor(g0)
    rng = np.random.default_rng(seed)
    ps = rng.standard_normal((n_r, min(n_s + 8, n_r)))
    rhs = np.zeros((n2r + m, ps.shape[1]), order="F")
    for j in range(0, ps.shape[1], PROBE_BLOCK):
        rhs[:n2r, j:j + PROBE_BLOCK] = pencil.apply_A(ps[:, j:j + PROBE_BLOCK])[n1:]
    z2 = scipy.linalg.lu_solve(_ysigma_saddle_lu(pencil, n1), rhs, overwrite_b=True)
    ps -= y_nu @ scipy.linalg.lu_solve(g0_lu, eynu.T @ ps)
    ps[n1:] -= z2[:n2r]
    del rhs, z2
    u, s, _ = np.linalg.svd(ps, full_matrices=False)
    del ps
    rank = int(np.sum(s > 1e-10 * s[0]))
    if rank != n_s:
        raise RuntimeError(
            f"desk oracle: projector range has rank {rank}, expected n_s = {n_s}"
        )
    w1 = u[:, :n_s]

    ew1, aw1 = pencil.apply_E(w1), pencil.apply_A(w1)
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
        tier="desk", n_s=n_s, n_0=n_0, n_inf=n_inf, pencil=pencil,
        W1=w1, What1=what1, E11=e11, A11=a11, EW1=ew1, AW1=aw1, B1=w1.T @ b_r,
        Y_nu=y_nu, einv_factor=einv_factor, Y_sigma=None, W=None, _n1=n1, _m=m,
    )


@dataclass
class FactoredGramian:
    """Gramian G = W1 core W1^T restricted to the Pi subspace."""

    W1: np.ndarray
    core: np.ndarray

    def toarray(self):
        return self.W1 @ self.core @ self.W1.T


def dense_gramians(oracle: DenseOracle):
    """Solve the projected Lyapunov equations in W1 coordinates, in closed form.

    Both equations reduce to E11 G A11 + A11 G E11 = -Q on the n_s block.
    The symmetric-definite eigendecomposition of (A11, E11) gives V with
    V^T E11 V = I and V^T A11 V = Lambda (all lambda_i < 0), so G = V X V^T
    with X_ij = -q~_ij / (lambda_i + lambda_j), q~ = V^T Q V.  For G_c,
    q~ = b~ b~^T with b~ = V^T B1; for G_o, C_r W1 = -B1^T E11^{-1} A11 and
    E11^{-1} = V V^T give q~ = (Lambda b~)(Lambda b~)^T.
    """
    lam, v = scipy.linalg.eigh(0.5 * (oracle.A11 + oracle.A11.T),
                               0.5 * (oracle.E11 + oracle.E11.T))
    denom = lam[:, None] + lam[None, :]
    bt = v.T @ oracle.B1
    out = []
    for b in (bt, lam[:, None] * bt):
        g = v @ (-(b @ b.T) / denom) @ v.T
        out.append(FactoredGramian(oracle.W1, 0.5 * (g + g.T)))
    return tuple(out)

"""Independent dense verification oracle.

Builds the quasi-Weierstrass transformation data (W1, E11, A11, kernels
Y_sigma, Y_nu, spectral projector Pi, reflexive inverses) by dense nullspace
and factorization routines, without reusing the structured solver path.
Small systems (brute tier) materialize everything, including W itself, from
raw SVD nullspaces.  Desk-scale systems work in the range of I - Pi_inf,
which has dimension n1 + m (the rank of E_r) and holds the whole finite
spectrum, the zero eigenvalues included.  Y_sigma = [0; Y2], Y2 a basis of
ker X2hat^T, enters only through the SPD trailing block G = P2^T M_nu P2 of
-A_r: range(I - Pi_inf) = ker(Y_sigma^T A_r) is the set of x with
(A_r x)[n1:] in span X2hat, which has the basis
V0 = [[I, 0], [G^{-1} A21, -G^{-1} X2hat]] (A21 = -P2^T M_nu C1).  One
Cholesky factorization of G, factored in place, and one solve with n1 + m
right-hand sides give V0; its rank n1 + m follows from the identity block
and from S = X2hat^T G^{-1} X2hat > 0 (a Cholesky factor of S), and one
Cholesky QR, V = V0 L^{-T} with L L^T = V0^T V0, makes it orthonormal.  The
margins are G's pivot ratio and ||V^T V - I||_F.  With E_f = V^T E_r V and
A_f = -V^T A_r V, both of order n1 + m, the kernel Y_nu = V K comes from the
eigenvectors K of A_f below 1e-10 lambda_max (``psd_kernel``, which refuses
an ambiguous threshold), certified against the sparse F_nu by
||F_nu F_nu^T Y_nu|| <= 1e-10 lambda_max(F_nu F_nu^T); W1 = V C, C an
orthonormal basis of the E_f-orthogonal complement of K, is an orthonormal
basis of the range of the spectral projector.  No Gram matrix of size n_r
is formed.  The build holds one n^2-sized block, G's factor (n2 - k2
square), which serves the one solve and is freed before the tall blocks are
formed; ``DenseOracle`` refactors it on first use of ``pi_inf_apply`` or
``ainv_apply``, and solves the Y_sigma Gram saddle system by the null-space
method with the factors of G and S.  The products E_r W1 = (E_r V) C and
A_r W1 = (A_r V) C are kept for the Gramian identity of Theorem 4.

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
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .config import default_value
from .ops import OperatorContext

A_COLUMN_BLOCK = 64   # columns of V that the desk build applies A_r to at a time


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
    _n1: int = 0                   # locates the desk tier's G block, whose
                                   # factor is not kept (_saddle_factors)
    # desk tier's certificate margins: g_pivot_ratio = min / max of the
    # squared pivots of G's Cholesky factor, v_orthogonality =
    # ||V^T V - I||_F, kernel_gap = lambda_{n_0+1} / lambda_max of A_f,
    # ynu_residual = ||F_nu F_nu^T Y_nu||_F / lambda_max(F_nu F_nu^T)
    margins: dict = field(default_factory=dict)

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
    def _saddle_factors(self):
        """Desk tier: the factors of the Y_sigma Gram saddle system, made on
        first use (``pi_inf_apply``, ``ainv_apply``); the build does not keep
        its own."""
        return _saddle_factors(self.pencil, self._n1)

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
        # the saddle system [[-G, X2hat], [X2hat^T, 0]] [z2; l] = [v2; 0]:
        # z2 = G^{-1} X2hat S^{-1} X2hat^T G^{-1} v2 - G^{-1} v2
        n1 = self._n1
        v = np.asarray(v)
        g_fac, s_fac, gx = self._saddle_factors
        z2 = gx @ scipy.linalg.cho_solve(s_fac, gx.T @ v[n1:])
        z2 -= scipy.linalg.cho_solve(g_fac, v[n1:], check_finite=False)
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
        """Generalized eigenvalues of (A11, E11) (complex in general): with
        E11 = L L^T, the eigenvalues of L^{-1} A11 L^{-T} by the unsymmetric
        eigensolver.  The Cholesky factor certifies E11 > 0; raises
        np.linalg.LinAlgError when E11 has none."""
        low = np.linalg.cholesky(self.E11)
        half = scipy.linalg.solve_triangular(low, self.A11, lower=True)
        return np.linalg.eigvals(scipy.linalg.solve_triangular(low, half.T, lower=True).T)


def build_dense_oracle(ctx: OperatorContext, cap=default_value("oracle.dense_cap"),
                       brute_cap=800) -> DenseOracle:
    """Construct the oracle; fails when n_r exceeds ``cap`` (config key
    ``oracle.dense_cap``, whose default it shares)."""
    rsys = ctx.rsys
    n_r = rsys.n_r
    if n_r > cap:
        raise ValueError(f"dense oracle cap exceeded: n_r = {n_r} > {cap}")
    pencil = SparsePencil.of(rsys)
    if n_r <= brute_cap:
        return _build_brute(rsys, pencil, ctx.B_r)
    return _build_desk(rsys, pencil, ctx.B_r)


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
        Y_nu=y_nu, einv_factor=einv_factor, Y_sigma=y_sigma, W=w, _n1=n1,
    )


def _g_cholesky(pencil, n1):
    """Cholesky factor (c, lower) of G = P2^T M_nu P2, the trailing block of
    -A_r, and its pivot ratio min / max of diag(L)^2: assembled sparse, made
    dense once and factored in place.  RuntimeError when G is not positive
    definite."""
    f2 = pencil.F_nu[n1:]
    g = (f2 @ pencil.Mnu @ f2.T).toarray()
    # symmetric (to rounding): its transpose is the Fortran-ordered matrix,
    # whose lower triangle is factored in place
    c, info = lapack.dpotrf(g.T, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise RuntimeError(f"desk oracle: G = P2^T M_nu P2 is not positive "
                           f"definite (dpotrf info {info})")
    pivots = np.diagonal(c)
    return (c, True), float((pivots.min() / pivots.max()) ** 2)


def _saddle_factors(pencil, n1):
    """Cholesky factors of G and of S = X2hat^T G^{-1} X2hat, and
    G^{-1} X2hat: the null-space method for the Y_sigma Gram saddle system."""
    g_fac, _ = _g_cholesky(pencil, n1)
    x2h = pencil.Xhat[n1:]
    gx = scipy.linalg.cho_solve(g_fac, x2h, check_finite=False)
    return g_fac, scipy.linalg.cho_factor(x2h.T @ gx), gx


def psd_kernel(mat):
    """Eigendecomposition (lam ascending, vecs) of a small symmetric PSD
    matrix and its kernel dimension n_0: the number of eigenvalues
    <= 1e-10 lambda_max.  Every eigenvalue <= 1e-8 lambda_max must also be
    <= 1e-10 lambda_max, or the rank threshold is ambiguous and
    RuntimeError is raised (the two thresholds of ``lacore.gram_kernel``)."""
    lam, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    lam_max = lam[-1]
    n_0 = int(np.sum(lam <= 1e-10 * lam_max))
    if not lam_max > 0 or int(np.sum(lam <= 1e-8 * lam_max)) != n_0:
        raise RuntimeError(f"rank threshold is ambiguous for the kernel of "
                           f"a {lam.size} x {lam.size} PSD matrix")
    return n_0, lam, vecs


def _build_desk(rsys, pencil, b_r):
    n1, n2r, m = rsys.n1, rsys.n2r, rsys.m
    n_r = n1 + n2r
    n_inf = n2r - m
    n_fin = n1 + m                 # rank E_r: the range of I - Pi_inf
    x2h = rsys.X2hat

    # V0's lower block -G^{-1} [P2^T M_nu C1, X2hat] = [G^{-1} A21, -G^{-1} X2hat]
    # from one solve; G's factor lives only for it
    g_fac, pivot_ratio = _g_cholesky(pencil, n1)
    f = pencil.F_nu
    low = np.empty((n2r, n_fin), order="F")
    (f[n1:] @ (pencil.Mnu @ f[:n1].T)).toarray(out=low[:, :n1])
    low[:, n1:] = x2h
    low = scipy.linalg.cho_solve(g_fac, low, overwrite_b=True, check_finite=False)
    del g_fac
    np.negative(low, out=low)
    try:
        np.linalg.cholesky(-(x2h.T @ low[:, n1:]))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("desk oracle: X2hat^T G^{-1} X2hat is not positive "
                           "definite; range of I - Pi_inf is not of rank n1 + m") from exc

    # V = V0 L^{-T}, L L^T = V0^T V0 = blockdiag(I, 0) + low^T low
    gram = low.T @ low
    gram[np.diag_indices(n1)] += 1.0
    lt_inv = scipy.linalg.solve_triangular(np.linalg.cholesky(gram), np.eye(n_fin),
                                           lower=True).T
    v = np.empty((n_r, n_fin))
    v[:n1] = lt_inv[:n1]
    v[n1:] = low @ lt_inv
    del low, gram, lt_inv
    vtv = v.T @ v
    vtv[np.diag_indices(n_fin)] -= 1.0
    orthogonality = float(np.linalg.norm(vtv))
    # A_r goes A_COLUMN_BLOCK columns at a time, so that its temporaries of
    # n_f rows stay small
    ev, av = pencil.apply_E(v), np.empty_like(v)
    for j in range(0, n_fin, A_COLUMN_BLOCK):
        av[:, j:j + A_COLUMN_BLOCK] = pencil.apply_A(v[:, j:j + A_COLUMN_BLOCK])

    # ker A_r lies in range(I - Pi_inf) and A_r is NSD, so the kernel of
    # A_f = -V^T A_r V is ker A_r in V's coordinates
    vav = v.T @ av
    n_0, lam, vecs = psd_kernel(-vav)
    n_s = n_fin - n_0
    if n_s <= 0:
        raise RuntimeError("desk oracle: no finite-eigenvalue block")
    k = vecs[:, :n_0]
    y_nu = v @ k
    f = pencil.F_nu
    lam_f = float(spla.eigsh((f @ f.T).tocsr(), k=1, which="LA",
                             return_eigenvectors=False)[0])
    residual = np.linalg.norm(f @ (f.T @ y_nu)) / lam_f      # bounds the 2-norm
    if not residual <= 1e-10:
        raise RuntimeError(f"desk oracle: ||F_nu F_nu^T Y_nu|| = {residual:.2e} "
                           f"lambda_max, above 1e-10")

    # W1 = V C, C an orthonormal basis of the E_f-orthogonal complement of K:
    # range(Pi) is the part of range(I - Pi_inf) that Y_nu^T E_r annihilates
    e_f = v.T @ ev
    e_fk = e_f @ k
    g0 = k.T @ e_fk
    c = scipy.linalg.qr(e_fk)[0][:, n_0:]
    w1 = v @ c
    del v
    ew1 = ev @ c
    del ev
    aw1 = av @ c
    del av
    e11 = c.T @ e_f @ c
    a11 = c.T @ vav @ c

    # What1 = H Theta with the columns of H = blockdiag(I, X2hat) spanning
    # im(Y_sigma)^perp, H applied by its blocks
    t = np.vstack([np.hstack([y[:n1].T, y[n1:].T @ x2h]) for y in (y_nu, w1)])
    rhs = np.vstack([np.zeros((n_0, n_s)), np.eye(n_s)])
    theta = np.linalg.solve(t, rhs)
    what1 = np.vstack([theta[:n1], x2h @ theta[n1:]])

    einv_factor = np.empty((n_r, n_s + n_0))
    einv_factor[:, :n_s] = w1 @ _inv_sqrt_spd(e11)
    einv_factor[:, n_s:] = y_nu @ _inv_sqrt_spd(g0)
    margins = {
        "g_pivot_ratio": pivot_ratio,
        "v_orthogonality": orthogonality,
        "kernel_gap": float(lam[n_0] / lam[-1]),
        "ynu_residual": residual,
    }
    return DenseOracle(
        tier="desk", n_s=n_s, n_0=n_0, n_inf=n_inf, pencil=pencil,
        W1=w1, What1=what1, E11=e11, A11=a11, EW1=ew1, AW1=aw1, B1=w1.T @ b_r,
        Y_nu=y_nu, einv_factor=einv_factor, Y_sigma=None, W=None, _n1=n1,
        margins=margins,
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

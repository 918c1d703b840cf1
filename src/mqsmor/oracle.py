"""Independent dense verification oracle.

Builds the quasi-Weierstrass transformation data (W1, E11, A11, kernels
Y_sigma, Y_nu, spectral projector Pi, reflexive inverses) by dense nullspace
and factorization routines, without reusing the structured solver path.
Small systems (brute tier) find W1, Y_nu, Y_sigma and W itself from raw SVD
nullspaces.  Desk-scale systems work in the range of I - Pi_inf,
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
orthonormal basis of the E_f-orthogonal complement of K (from Householder
reflectors, without forming the square Q), is an orthonormal basis of the
range of the spectral projector.  No Gram matrix of size n_r is formed.  The
build holds one n^2-sized block, G's factor (n2 - k2 square), which serves
the one solve and is freed before the tall blocks are formed;
``DenseOracle`` refactors it on first use of ``pi_inf_apply`` or
``ainv_apply``, and solves the Y_sigma Gram saddle system by the null-space
method with the factors of G and S.

The oracle of either tier keeps V and small coefficient matrices only:
W1 = V C, Y_nu = V K, What1 = H Theta (H = blockdiag(I, X2hat)) and
E_r^- = V Phi Phi^T V^T, so ``pi_apply``, ``einv_apply`` and ``ainv_apply``
work through V's (n1 + m)-dimensional coordinates.  For the Gramian identity
of Theorem 4 it keeps the coordinates of E_r V and A_r V in
range(blockdiag(I, Q_x)), Q_x an orthonormal basis of X2hat, and the Gram
matrix of their remainder outside it (``pipeline.theorem4_residual``).  The
n_r-row blocks W1, Y_nu, What1, A_r W1 and the E_r^- factor are formed
only when accessed (tests).  The brute tier's V is [W1, Y_nu].
Theorem 2 and the Gramians share one symmetric-definite eigendecomposition
of (A11, E11).

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
    """Dense verification data for one regularized system, kept in the
    coordinates of a basis V of range(I - Pi_inf) (n_r x (n1 + m)): the
    n_r-row blocks W1, Y_nu, What1, A_r W1 and the E_r^- factor are formed
    only when accessed."""

    tier: str                      # "brute" | "desk"
    n_s: int
    n_0: int
    n_inf: int
    pencil: SparsePencil           # E_r and A_r as sparse products
    V: np.ndarray                  # n_r x (n1 + m), range(I - Pi_inf)
    C: np.ndarray                  # W1 = V C
    K: np.ndarray                  # Y_nu = V K
    Theta: np.ndarray              # What1 = H Theta, H = blockdiag(I, X2hat)
    Phi: np.ndarray                # E_r^- = V Phi Phi^T V^T
    E11: np.ndarray
    A11: np.ndarray
    B1: np.ndarray
    # Theorem 4: with Q_H = blockdiag(I, Q_x), Q_x an orthonormal basis of
    # X2hat, the coordinates Q_H^T E_r V and Q_H^T A_r V, and the Gram matrix
    # r^T r of the remainder r = (I - Q_H Q_H^T) [E_r V, A_r V]
    EV_coord: np.ndarray
    AV_coord: np.ndarray
    rem_gram: np.ndarray
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
        return self.V.shape[0]

    @functools.cached_property
    def E_dense(self):
        """E_r as an n_r x n_r array, built on first access."""
        return self.pencil.dense_E()

    @functools.cached_property
    def A_dense(self):
        """A_r as an n_r x n_r array, built on first access."""
        return self.pencil.dense_A()

    @functools.cached_property
    def W1(self):
        """Orthonormal basis of range(Pi), n_r x n_s."""
        return self.V @ self.C

    @functools.cached_property
    def Y_nu(self):
        """Orthonormal basis of ker A_r, n_r x n_0."""
        return self.V @ self.K

    @functools.cached_property
    def What1(self):
        """n_r x n_s with Pi = W1 What1^T: H Theta, H = blockdiag(I, X2hat)."""
        n1 = self._n1
        return np.concatenate([self.Theta[:n1], self.pencil.Xhat[n1:] @ self.Theta[n1:]])

    @functools.cached_property
    def AW1(self):
        return self.pencil.apply_A(self.W1)

    @functools.cached_property
    def einv_factor(self):
        """U with E_r^- = U U^T."""
        return self.V @ self.Phi

    @functools.cached_property
    def _saddle_factors(self):
        """Desk tier: the factors of the Y_sigma Gram saddle system, made on
        first use (``pi_inf_apply``, ``ainv_apply``); the build does not keep
        its own."""
        return _saddle_factors(self.pencil, self._n1)

    @functools.cached_property
    def _pencil_eigh(self):
        """(lam, Z) of the symmetric-definite pencil (sym A11, sym E11):
        Z^T E11 Z = I and Z^T sym(A11) Z = diag(lam), lam ascending.  Shared
        by ``finite_eigenvalues`` and ``dense_gramians``; raises
        np.linalg.LinAlgError when E11 is not positive definite."""
        return scipy.linalg.eigh(0.5 * (self.A11 + self.A11.T),
                                 0.5 * (self.E11 + self.E11.T))

    # -- operator applications -------------------------------------------

    def einv_apply(self, v):
        return self.V @ (self.Phi @ (self.Phi.T @ (self.V.T @ v)))

    def pi_apply(self, v):
        """Pi v = W1 What1^T v = V C Theta^T H^T v."""
        n1, v = self._n1, np.asarray(v)
        h_t_v = np.concatenate([v[:n1], self.pencil.Xhat[n1:].T @ v[n1:]])
        return self.V @ (self.C @ (self.Theta.T @ h_t_v))

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
        head = self.V @ (self.C @ np.linalg.solve(self.A11, self.C.T @ (self.V.T @ v)))
        return head + self._ysigma_gram_solve(v)

    def einv_dense(self):
        return self.einv_factor @ self.einv_factor.T

    def pi_dense(self):
        return self.W1 @ self.What1.T

    def finite_eigenvalues(self):
        """(lam, skew) for the generalized eigenvalues of (A11, E11).  With
        E11 = L L^T they are the eigenvalues of T = L^{-1} A11 L^{-T}; lam
        (real, ascending) are those of its symmetric part and skew = ||N||_F
        of its skew part N.  The symmetric part is normal, so by Bauer-Fike
        every eigenvalue of T lies within ||N||_2 <= skew of some lam_i.
        From the pencil eigendecomposition (Z^T E11 Z = I makes Z = L^{-T} Q,
        Q orthogonal, and ||Z^T skew(A11) Z||_F = ||N||_F).  Raises
        np.linalg.LinAlgError when E11 is not positive definite."""
        lam, z = self._pencil_eigh
        skew = z.T @ (0.5 * (self.A11 - self.A11.T)) @ z
        return lam, float(np.linalg.norm(skew))


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
    blocks = [w1]
    if n_0:
        blocks.append(y_nu @ _inv_sqrt_spd(y_nu.T @ e @ y_nu))
    if n_inf:
        blocks.append(y_sigma @ _inv_sqrt_spd(-(y_sigma.T @ a @ y_sigma)))
    # V = [W1, Y_nu] spans range(I - Pi_inf)
    v = np.hstack([w1, y_nu])
    ev, av = e @ v, a @ v
    eye = np.eye(n_s + n_0)
    return _factored_oracle("brute", rsys, pencil, b_r, v, ev, av, v.T @ ev, v.T @ av,
                            eye[:, :n_s], eye[:, n_s:], Y_sigma=y_sigma,
                            W=np.hstack(blocks))


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
    RuntimeError is raised."""
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
    # lambda_max(F_nu F_nu^T) without forming the product
    f_ft = spla.LinearOperator((n_r, n_r), matvec=lambda x: f @ (f.T @ x),
                               dtype=np.float64)
    lam_f = float(spla.eigsh(f_ft, k=1, which="LA", return_eigenvectors=False)[0])
    residual = np.linalg.norm(f @ (f.T @ y_nu)) / lam_f      # bounds the 2-norm
    if not residual <= 1e-10:
        raise RuntimeError(f"desk oracle: ||F_nu F_nu^T Y_nu|| = {residual:.2e} "
                           f"lambda_max, above 1e-10")

    # W1 = V C, C an orthonormal basis of the E_f-orthogonal complement of K:
    # range(Pi) is the part of range(I - Pi_inf) that Y_nu^T E_r annihilates
    e_f = v.T @ ev
    c = _complement(e_f @ k)
    margins = {
        "g_pivot_ratio": pivot_ratio,
        "v_orthogonality": orthogonality,
        "kernel_gap": float(lam[n_0] / lam[-1]),
        "ynu_residual": residual,
    }
    return _factored_oracle("desk", rsys, pencil, b_r, v, ev, av, e_f, vav, c, k,
                            margins=margins)


def _complement(u):
    """Orthonormal basis of the orthogonal complement of range(u), for a
    tall u of full column rank: the trailing columns of Q in u = Q R, got by
    applying Q's Householder reflectors to [0; I] (``dormqr``) without
    forming Q."""
    n, k = u.shape
    if k == 0:
        return np.eye(n)
    qr, tau, _, info = lapack.dgeqrf(u)
    if info != 0:
        raise ValueError(f"dgeqrf: illegal argument {-info}")
    rhs = np.zeros((n, n - k), order="F")
    rhs[k:] = np.eye(n - k)
    lwork = int(lapack.dormqr("L", "N", qr, tau, rhs, lwork=-1)[1][0])
    c, _, info = lapack.dormqr("L", "N", qr, tau, rhs, lwork=lwork, overwrite_c=1)
    if info != 0:
        raise ValueError(f"dormqr: illegal argument {-info}")
    return c


def _times_inv_chol_t(x, mat):
    """x L^{-T} for the SPD mat = L L^T, so that the result times its
    transpose is x mat^{-1} x^T; np.linalg.LinAlgError when mat is not
    positive definite."""
    low = np.linalg.cholesky(mat)
    return scipy.linalg.solve_triangular(low, x.T, lower=True).T


def _factored_oracle(tier, rsys, pencil, b_r, v, ev, av, e_f, a_f, c, k, **kw):
    """The DenseOracle on a basis V of range(I - Pi_inf) with W1 = V C and
    Y_nu = V K, from E_r V and A_r V (``ev``, ``av``, overwritten) and their
    coordinates E_f = V^T E_r V and A_f = V^T A_r V."""
    n1, x2h = rsys.n1, rsys.X2hat
    n_s, n_0 = c.shape[1], k.shape[1]
    e11 = c.T @ e_f @ c
    a11 = c.T @ a_f @ c

    # What1 = H Theta with the columns of H = blockdiag(I, X2hat) spanning
    # im(Y_sigma)^perp: Y_nu^T H Theta = 0 and W1^T H Theta = I
    vh = np.hstack([v[:n1].T, v[n1:].T @ x2h])
    rhs = np.vstack([np.zeros((n_0, n_s)), np.eye(n_s)])
    theta = np.linalg.solve(np.hstack([k, c]).T @ vh, rhs)

    # E_r^- = W1 E11^{-1} W1^T + Y_nu g0^{-1} Y_nu^T, g0 = Y_nu^T E_r Y_nu
    phi = np.hstack([_times_inv_chol_t(c, e11), _times_inv_chol_t(k, k.T @ e_f @ k)])

    # Theorem 4's coordinates and remainders of E_r V and A_r V
    q_x = np.linalg.qr(x2h)[0]
    coords, rems = [], []
    for block in (ev, av):
        coords.append(np.vstack([block[:n1], q_x.T @ block[n1:]]))
        rem = block[n1:]
        rem -= q_x @ coords[-1][n1:]
        rems.append(rem)
    n_fin = v.shape[1]
    gram = np.empty((2 * n_fin, 2 * n_fin))
    for i, j in ((0, 0), (0, 1), (1, 1)):
        gram[i * n_fin:(i + 1) * n_fin, j * n_fin:(j + 1) * n_fin] = rems[i].T @ rems[j]
    gram[n_fin:, :n_fin] = gram[:n_fin, n_fin:].T
    return DenseOracle(
        tier=tier, n_s=n_s, n_0=n_0, n_inf=rsys.n_r - n_s - n_0, pencil=pencil,
        V=v, C=c, K=k, Theta=theta, Phi=phi, E11=e11, A11=a11, B1=c.T @ (v.T @ b_r),
        EV_coord=coords[0], AV_coord=coords[1], rem_gram=gram, _n1=n1, **kw,
    )


@dataclass
class FactoredGramian:
    """Gramian G = W1 core W1^T restricted to the Pi subspace; W1 is the
    oracle's, formed by ``toarray`` only."""

    oracle: DenseOracle
    core: np.ndarray

    def toarray(self):
        w1 = self.oracle.W1
        return w1 @ self.core @ w1.T


def dense_gramians(oracle: DenseOracle):
    """Solve the projected Lyapunov equations in W1 coordinates, in closed form.

    Both equations reduce to E11 G A11 + A11 G E11 = -Q on the n_s block.
    The symmetric-definite eigendecomposition of (A11, E11), shared with
    ``DenseOracle.finite_eigenvalues``, gives Z with Z^T E11 Z = I and
    Z^T A11 Z = Lambda (all lambda_i < 0), so G = Z X Z^T with
    X_ij = -q~_ij / (lambda_i + lambda_j), q~ = Z^T Q Z.  For G_c,
    q~ = b~ b~^T with b~ = Z^T B1; for G_o, C_r W1 = -B1^T E11^{-1} A11 and
    E11^{-1} = Z Z^T give q~ = (Lambda b~)(Lambda b~)^T.
    """
    lam, z = oracle._pencil_eigh
    denom = lam[:, None] + lam[None, :]
    bt = z.T @ oracle.B1
    out = []
    for b in (bt, lam[:, None] * bt):
        g = z @ (-(b @ b.T) / denom) @ z.T
        out.append(FactoredGramian(oracle, 0.5 * (g + g.T)))
    return tuple(out)

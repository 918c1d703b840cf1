"""Sparse and small-dense linear algebra shared by the whole toolkit.

Sparse matrices are scipy CSR in canonical form (duplicates summed, indices
sorted); coordinate triplets appear only at construction and IO boundaries.
Factorization is unsymmetric-capable sparse LU with partial pivoting and a
fill-reducing ordering: COLAMD per matrix, or a caller-supplied symmetric
ordering such as ``nested_dissection`` shared by matrices of one pattern
(the bordered saddle-point systems downstream are symmetric indefinite, so
Cholesky is not an option).  Positive definiteness of a sparse symmetric
matrix is certified by a symmetric-mode LU with diagonal pivots
(``is_positive_definite``); where that certificate fails, the eigenvalues
below a threshold are counted exactly from a dense inertia
(``eigenvalues_at_most``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack


class SingularMatrixError(RuntimeError):
    """Raised when SuperLU finds a matrix exactly singular (a zero pivot)."""


def csr_from_coo(rows, cols, vals, shape, dtype=None):
    """Build a canonical CSR matrix from coordinate triplets (duplicates summed)."""
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    if rows.size and (rows.min() < 0 or rows.max() >= shape[0]):
        raise ValueError("row index out of bounds")
    if cols.size and (cols.min() < 0 or cols.max() >= shape[1]):
        raise ValueError("column index out of bounds")
    a = sp.coo_matrix((vals, (rows, cols)), shape=shape, dtype=dtype).tocsr()
    a.sum_duplicates()
    a.sort_indices()
    return a


class Factorization:
    """Sparse LU of a square matrix: SuperLU's own factor and nothing else.

    No copy of L or U is made, so the object costs what SuperLU's L and U
    cost.  A factorization is not checked beyond SuperLU's exact-singularity
    test: a solve is certified by its residual, which its caller computes
    (``ops``).  When built with a symmetric permutation ``perm`` the LU is of
    ``S[perm][:, perm]``; ``solve`` permutes the right-hand side and
    un-permutes the solution, so callers always see ``S x = b``.

    Free a factorization on the thread that built it: SuperLU releases only
    the allocations registered on the calling thread, so an LU built on one
    thread and dropped on another leaks its memory (about 20 MB per desk
    shifted LU).
    """

    def __init__(self, lu, shape, dtype, perm=None):
        self._lu = lu
        self.shape = shape
        self.dtype = dtype
        self.perm = perm
        self._iperm = None if perm is None else np.argsort(perm)

    def _lu_solve(self, b):
        if self.perm is None:
            return self._lu.solve(b)
        return self._lu.solve(np.ascontiguousarray(b[self.perm]))[self._iperm]

    def solve(self, b):
        b = np.asarray(b)
        if b.shape[0] != self.shape[0]:
            raise ValueError(f"dimension mismatch: matrix is {self.shape}, rhs has {b.shape[0]}")
        if np.iscomplexobj(b) and self.dtype == np.float64:
            return (self._lu_solve(np.ascontiguousarray(b.real))
                    + 1j * self._lu_solve(np.ascontiguousarray(b.imag)))
        return self._lu_solve(np.asarray(b, dtype=self.dtype))


def factorize(s, perm=None):
    """LU-factorize a square sparse matrix (real or complex).

    Partial pivoting throughout.  Without ``perm`` SuperLU picks a COLAMD
    column ordering for this matrix; with ``perm`` (a permutation of
    ``range(n)``, e.g. from ``nested_dissection``) the symmetric permutation
    ``S[perm][:, perm]`` is factored in that natural order instead, so one
    ordering can serve every matrix of a shared sparsity pattern.  SuperLU's
    "exactly singular" error becomes SingularMatrixError; a nearly singular
    matrix factors, and its solves show it in their residuals.

    The pivots are not read: reading ``lu.U`` (or ``lu.L``) makes scipy's
    SuperLU object build CSC copies of L and U and keep them for its
    lifetime, about as large as the LU itself (on the desk's bordered
    matrix, 12 MB and 10 ms per real LU, 38 MB and 30 ms per complex LU).
    """
    if s.shape[0] != s.shape[1]:
        raise ValueError(f"matrix must be square, got {s.shape}")
    dtype = np.complex128 if np.iscomplexobj(s) else np.float64
    a = sp.csc_matrix(s, dtype=dtype)
    options = {}
    if perm is not None:
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (s.shape[0],) or not np.array_equal(np.sort(perm),
                                                             np.arange(s.shape[0])):
            raise ValueError("perm must be a permutation of range(n)")
        a = a[perm][:, perm].tocsc()
        options["permc_spec"] = "NATURAL"
    try:
        lu = spla.splu(a, **options)
    except RuntimeError as exc:
        if "singular" in str(exc).lower():
            raise SingularMatrixError(f"singular matrix: {exc}") from exc
        raise
    return Factorization(lu, s.shape, dtype, perm)


def is_positive_definite(s):
    """True when the sparse symmetric matrix ``s`` is positive definite.

    SuperLU factors ``s`` in symmetric mode with diagonal pivots preferred
    (minimum degree on A^T + A, pivot threshold 0).  For symmetric ``s`` an
    LU with only diagonal pivots is an LDL^T, so ``s`` is positive definite
    exactly when no off-diagonal pivot was taken (perm_r == perm_c) and every
    diagonal entry of U is positive.  A singular ``s`` gives False.
    """
    try:
        lu = spla.splu(sp.csc_matrix(s, dtype=np.float64),
                       permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        if "singular" in str(exc).lower():
            return False
        raise
    return bool(np.array_equal(lu.perm_r, lu.perm_c)
                and np.all(lu.U.diagonal() > 0))


# leaf size of the nested-dissection recursion
_ND_LEAF = 32


def nested_dissection(pattern, xyz, last=()):
    """Fill-reducing symmetric ordering by recursive coordinate bisection.

    ``pattern`` is a square sparse matrix whose (symmetrized) nonzero
    structure is the graph of the unknowns; ``xyz`` holds one point per
    unknown (rows listed in ``last`` are ignored).  Each part is split at the
    median of its widest coordinate axis; the smaller of the two boundary
    sets (vertices with a neighbour across the cut) becomes the separator.
    The order is: left part, right part, separator, recursively, with parts
    of at most 32 unknowns kept whole in ascending index order.  The
    ``last`` indices, unknowns coupled to too much of the graph to be
    separated (such as winding currents), go at the very end in the given
    order.  Deterministic: the split is by value at the median, and every
    part keeps ascending index order.  The graph is carried down the
    recursion as an edge list, each part keeping the edges inside it.
    """
    n = pattern.shape[0]
    if pattern.shape[1] != n:
        raise ValueError(f"pattern must be square, got {pattern.shape}")
    xyz = np.asarray(xyz, dtype=float)
    if xyz.shape[0] != n:
        raise ValueError(f"need one point per unknown: {xyz.shape[0]} != {n}")
    last = np.asarray(last, dtype=np.int64).ravel()
    if last.size and (last.min() < 0 or last.max() >= n
                      or np.unique(last).size != last.size):
        raise ValueError("last indices must be distinct and in range(n)")
    inner = np.ones(n, dtype=bool)
    inner[last] = False
    a = sp.csr_matrix(pattern)
    graph = (abs(a) + abs(a.T)).tocoo()
    # each undirected edge once, between two inner unknowns, renumbered
    keep = (graph.row < graph.col) & inner[graph.row] & inner[graph.col]
    local = np.cumsum(inner) - 1
    idx = np.flatnonzero(inner)
    out = []
    _dissect(idx, local[graph.row[keep]], local[graph.col[keep]], xyz[idx], out)
    out.append(last)
    return np.concatenate(out)


def _dissect(idx, head, tail, pts, out):
    """Append the nested-dissection order of the unknowns ``idx`` to ``out``.

    ``head``/``tail`` list the edges between unknowns of ``idx`` and ``pts``
    their points, both in local numbering (positions in ``idx``).
    """
    span = np.ptp(pts, axis=0) if idx.size > _ND_LEAF else np.zeros(1)
    if not span.max() > 0:
        # small part, or coincident points that no plane can split
        out.append(idx)
        return
    key = pts[:, int(np.argmax(span))]
    med = np.median(key)
    left = key < med
    if not left.any():
        left = key <= med
    # boundary vertices: endpoints of the edges that cross the cut
    cross = left[head] != left[tail]
    ends = np.concatenate([head[cross], tail[cross]])
    boundary = np.zeros(idx.size, dtype=bool)
    boundary[ends] = True
    b_lo, b_hi = boundary & left, boundary & ~left
    # part of each unknown: 0 left, 1 right, 2 separator
    part = np.where(left, 0, 1)
    part[b_lo if b_lo.sum() <= b_hi.sum() else b_hi] = 2
    inside = part[head] == part[tail]
    head, tail = head[inside], tail[inside]
    for p in (0, 1):
        members = part == p
        rank = np.cumsum(members) - 1
        own = part[head] == p
        _dissect(idx[members], rank[head[own]], rank[tail[own]], pts[members], out)
    out.append(idx[part == 2])


def dense_sym_eig(a):
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Returns (w, u) with a = u @ diag(w) @ u.T and u orthogonal.  Input more
    asymmetric than 1e-12 in relative Frobenius norm is rejected.
    """
    a = np.asarray(a, dtype=float)
    nrm = np.linalg.norm(a)
    if nrm > 0 and np.linalg.norm(a - a.T) > 1e-12 * nrm:
        raise ValueError("matrix is not symmetric within tolerance")
    w, u = np.linalg.eigh(a)
    return w[::-1].copy(), u[:, ::-1].copy()


def eigenvalues_at_most(a, tau):
    """Number of eigenvalues <= ``tau`` of the symmetric matrix ``a``,
    exactly: the nonpositive eigenvalues of a - tau I, read off the
    block-diagonal factor of a Bunch-Kaufman LDL^T (one ``dsytrf`` on the
    lower triangle) by Sylvester's law of inertia.  ``a`` (square, float64,
    contiguous) is overwritten, in place in its storage: a symmetric
    C-ordered matrix is its own Fortran-ordered transpose."""
    a = np.asarray(a)
    n = a.shape[0]
    if a.shape != (n, n) or a.dtype != np.float64:
        raise ValueError("a must be a square float64 matrix")
    f = a.T if a.flags.c_contiguous else a
    if not f.flags.f_contiguous:
        raise ValueError("a must be contiguous")
    if n == 0:
        return 0
    f[np.diag_indices(n)] -= tau
    lwork = int(lapack.dsytrf_lwork(n, lower=1)[0])
    ldu, ipiv, info = lapack.dsytrf(f, lower=1, lwork=max(lwork, 1), overwrite_a=1)
    if info < 0:
        raise ValueError(f"dsytrf: illegal argument {-info}")
    return _nonpositive_inertia(ldu, ipiv)


def _nonpositive_inertia(ldu, ipiv):
    """Nonpositive eigenvalues of D in a lower Bunch-Kaufman LDL^T (dsytrf):
    a positive ``ipiv`` entry marks a 1x1 pivot, a negative pair a 2x2 one."""
    count, j, n = 0, 0, ipiv.shape[0]
    while j < n:
        if ipiv[j] > 0:
            count += int(ldu[j, j] <= 0.0)
            j += 1
        else:
            # eigvalsh reads the lower triangle, where dsytrf left D
            count += int(np.sum(np.linalg.eigvalsh(ldu[j:j + 2, j:j + 2]) <= 0.0))
            j += 2
    return count


@dataclass
class LanczosResult:
    lambda_min: float
    lambda_max: float
    iterations: int
    converged: bool
    ritz: np.ndarray | None = None


def lanczos_extremal(op, start, maxit=100, tol=1e-10, metric=None):
    """Extremal Ritz values of a self-adjoint operator by Lanczos iteration.

    ``op`` maps a vector to L @ v; ``metric`` (optional) maps v to M @ v and
    defines the working inner product <x, y> = x^T M y in which L must be
    self-adjoint (Euclidean when omitted).  Full reorthogonalization is used;
    convergence is declared when both Ritz extremes change by less than
    ``tol`` relatively between iterations, or when the Krylov-reachable
    subspace is exhausted (the Ritz values are then exact on it).  A
    breakdown before any Ritz value exists returns converged=False.
    """
    if metric is None:
        metric = lambda x: x
    v = np.asarray(start, dtype=float)
    mv = metric(v)
    nrm2 = float(v @ mv)
    if not nrm2 > 0:
        raise ValueError("start vector must be nonzero in the working inner product")
    v = v / np.sqrt(nrm2)
    basis = [v]
    alphas, betas = [], []
    prev = None
    lo = hi = np.nan
    ritz = None
    for k in range(maxit):
        w = op(basis[-1])
        alphas.append(float(basis[-1] @ metric(w)))
        # full reorthogonalization (two passes) against all Lanczos vectors
        b = np.asarray(basis)
        for _ in range(2):
            w = w - b.T @ (b @ metric(w))
        mw = metric(w)
        t = sp.diags(
            [betas, alphas, betas], offsets=[-1, 0, 1], shape=(k + 1, k + 1)
        ).toarray()
        ritz = np.linalg.eigvalsh(t)
        lo, hi = float(ritz[0]), float(ritz[-1])
        if prev is not None:
            scale = max(abs(lo), abs(hi), 1e-300)
            if abs(lo - prev[0]) < tol * scale and abs(hi - prev[1]) < tol * scale:
                return LanczosResult(lo, hi, k + 1, True, ritz)
        prev = (lo, hi)
        beta2 = float(w @ mw)
        if not beta2 > 0 or np.sqrt(beta2) < 1e-14 * max(abs(a) for a in alphas):
            # invariant subspace exhausted: Ritz values exact on it
            return LanczosResult(lo, hi, k + 1, True, ritz)
        beta = np.sqrt(beta2)
        betas.append(beta)
        basis.append(w / beta)
    return LanczosResult(lo, hi, maxit, False, ritz)


def write_matrix_market(path, a, symmetric=False):
    """Write a sparse (coordinate) or dense (array) matrix in Matrix Market
    form to exactly ``path``.

    1-based indices, full-precision scientific values; the symmetric flag
    stores the lower triangle only.
    """
    symmetry = "symmetric" if symmetric else "general"
    a = a.tocoo() if sp.issparse(a) else np.asarray(a)
    # through a file object: given a name, mmwrite appends ".mtx" to any
    # other suffix
    with open(path, "wb") as f:
        scipy.io.mmwrite(f, a, precision=17, symmetry=symmetry)


def read_matrix_market(path):
    """Read a Matrix Market file; sparse files come back as canonical CSR.

    A file whose last byte is not a newline has been cut short and raises
    ValueError before scipy reads it: scipy's reader can crash the process
    on a file cut inside a number.
    """
    with open(path, "rb") as f:
        size = f.seek(0, os.SEEK_END)
        f.seek(max(size - 1, 0))
        last = f.read(1)
    if last != b"\n":
        raise ValueError(f"{path}: Matrix Market file does not end in a newline "
                         "(truncated)")
    a = scipy.io.mmread(str(path))
    if sp.issparse(a):
        a = a.tocsr()
        a.sum_duplicates()
        a.sort_indices()
    return a

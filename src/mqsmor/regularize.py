"""Graph-theoretic regularization of the singular MQS pencil.

The common kernel of E and K is spanned by [0; Y_C2] with Y_C2 a basis of
ker(C2).  Both Y_C2 and the range basis Yhat_C2 of im(C2^T) are computed
exactly from the incidence complex with ``scipy.sparse.csgraph``:

  * ker(G1) (node potentials constant on ungrounded conducting components)
    from ``connected_components``, with a virtual ground node for the
    single-entry rows,
  * ker(C2) = im(G2 Z1) with an independent column subset: every quotient
    node except the last of each ungrounded quotient component,
  * Yhat_C2 = ker(Z1^T G2^T) (circulations of the quotient graph) as the
    fundamental cycles of the Kruskal spanning forest in column order
    (``minimum_spanning_tree`` with weight j + 1 for column j).

All products C2 @ Y_C2 and (G2 Z1)^T @ Yhat_C2 vanish exactly in integer
arithmetic.  Input without incidence structure is rejected.

The regularized state is (x1, z2) with x2 = Yhat z2.  Each fundamental
cycle has a +1 on its own cotree edge and no other cotree entry, so
Yhat[S, :] = I for the cotree rows S (the tree-cotree gauge) and the
coordinates of an edge vector x2 in im(Yhat) = ker(Y_C2^T) are x2[S].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import (
    breadth_first_order,
    connected_components,
    minimum_spanning_tree,
)

from .lacore import csr_from_coo, eigenvalues_at_most, is_positive_definite
from .mesh import IncidenceSet


def reduced_gradient(inc: IncidenceSet):
    """Reduced discrete gradient on the eliminated complex, partition-ordered.

    With full Dirichlet elimination on the contractible box, restricting G0
    to interior nodes already removes the constant; no extra column drop is
    needed.  Returns G with conducting rows first (G1 on top of G2).
    """
    if not inc.eliminated:
        raise ValueError("reduced gradient is defined on the eliminated complex")
    if inc.edge_order.shape[0] == 0 or inc.node_order.shape[0] == 0:
        raise ValueError("empty interior complex")
    return inc.G0


def _column_structure(a):
    """True when every column of a has <= 2 entries, all in {-1, +1}, and
    the entries of a two-entry column have opposite signs."""
    a = sp.csc_matrix(a)
    counts = np.diff(a.indptr)
    if np.any(counts > 2) or not np.all(np.isin(a.data, (-1, 1))):
        return False
    two = a.indptr[:-1][counts == 2]
    return bool(np.all(a.data[two] == -a.data[two + 1]))


def _row_edges(a):
    """Edges (u, v, i) of the graph on the columns of a plus a virtual ground
    node n = a.shape[1]: one per row i with one or two entries, joining its
    two columns, or its single column to ground."""
    ar = sp.csr_matrix(a)
    counts = np.diff(ar.indptr)
    i = np.flatnonzero((counts == 1) | (counts == 2))
    first = ar.indptr[i]
    u = ar.indices[first]
    v = np.full(i.size, ar.shape[1], dtype=u.dtype)
    two = counts[i] == 2
    v[two] = ar.indices[first[two] + 1]
    return u, v, i


def _components(a):
    """Connected-component labels of the columns of a and, last, of the
    virtual ground, with the rows of one or two entries as edges."""
    n = a.shape[1]
    u, v, _ = _row_edges(a)
    graph = sp.csr_matrix((np.ones(u.size), (u, v)), shape=(n + 1, n + 1))
    return connected_components(graph, directed=False)[1]


def _exact(a, basis, what):
    check = a @ basis
    check.eliminate_zeros()
    if check.nnz:
        raise RuntimeError(f"{what} failed its exactness check: input is not incidence")
    return basis


def _cycle_kernel(a):
    """Sparse kernel of a column-incidence matrix via fundamental cycles.

    Columns are edges over rows-as-nodes (single-entry columns lead to a
    virtual ground node, empty columns are free loops).  The spanning forest
    is Kruskal's with weight j + 1 for column j, i.e. the forest a greedy
    scan in column order grows.  Every non-forest column yields one kernel
    vector supported on its fundamental cycle, with entries in {-1, 0, +1}:
    both endpoints are walked to the root of their tree, and the part of the
    two walks above their common ancestor cancels.
    """
    ac = sp.csc_matrix(a)
    p, q = ac.shape
    u, v, j = _row_edges(ac.T)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    # one graph entry per node pair, from its smallest column: a sparse
    # matrix would sum the weights of parallel columns
    _, first = np.unique(lo.astype(np.int64) * (p + 1) + hi, return_index=True)
    # a super-root p + 1 joined to every node by weights above all columns:
    # Kruskal grows the column-order forest first, then hangs each tree from
    # its largest node, so ground (node p) roots its own tree
    top, nodes = p + 1, np.arange(p + 1)
    graph = sp.csr_matrix(
        (np.concatenate([j[first] + 1.0, q + 1.0 + p - nodes]),
         (np.concatenate([lo[first], nodes]), np.concatenate([hi[first], np.full(p + 1, top)]))),
        shape=(p + 2, p + 2))
    tree = minimum_spanning_tree(graph).tocoo()
    _, parent = breadth_first_order(tree, top, directed=False, return_predecessors=True)
    # column of each node's parent edge and that column's entry at the node
    edge = tree.data <= q
    row, col = tree.row[edge], tree.col[edge]
    child = np.where(parent[row] == col, row, col)
    pcol = np.zeros(p + 1, dtype=np.int64)
    pcol[child] = tree.data[edge].astype(np.int64) - 1
    pent = np.zeros(p + 1, dtype=np.int64)
    pent[child] = np.asarray(ac[child, pcol[child]]).ravel()
    cotree = np.setdiff1d(np.arange(q), pcol[child])
    # walking up from an entry r at node x puts -r * pent[x] on x's parent
    # edge and carries r to the parent; ground's own walk is empty
    ends = ac[:, cotree].tocoo()
    x, c, r = ends.row, ends.col, ends.data.astype(np.int64)
    rows, cols, vals = [cotree], [np.arange(cotree.size)], [np.ones(cotree.size, np.int64)]
    while x.size:
        up = parent[x] != top
        x, c, r = x[up], c[up], r[up]
        rows.append(pcol[x])
        cols.append(c)
        vals.append(-r * pent[x])
        x = parent[x]
    basis = csr_from_coo(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
                         (q, cotree.size), dtype=np.int64)
    basis.eliminate_zeros()
    return _exact(a, basis, "cycle kernel")


def _potential_kernel(a):
    """Sparse kernel of a row-incidence matrix: the indicators of the
    ungrounded components of the column graph, ordered by first column.

    Rows are +-1 difference (or grounding) constraints on the columns, so
    every kernel vector is constant on a component.
    """
    labels = _components(a)
    n = a.shape[1]
    live = np.flatnonzero(labels[:n] != labels[n])
    _, first, comp = np.unique(labels[live], return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    basis = csr_from_coo(live, rank[comp], np.ones(live.size, dtype=np.int64),
                         (n, first.size), dtype=np.int64)
    return _exact(a, basis, "potential kernel")


def kernel_incidence(a):
    """Exact sparse kernel basis of an incidence-structured matrix.

    Dispatches on structure: column incidence (<= 2 opposite-signed entries
    per column) -> circulation space; row incidence -> component potentials;
    anything else raises ValueError.
    """
    a = a.tocsr() if sp.issparse(a) else sp.csr_matrix(a)
    a.eliminate_zeros()
    if _column_structure(a):
        return _cycle_kernel(a)
    if _column_structure(a.T):
        return _potential_kernel(a)
    raise ValueError("matrix has neither column- nor row-incidence structure")


@dataclass
class KernelBases:
    """Bases of ker(C2) and im(C2^T); ``kernel_bases`` makes exact integer ones.

    ``n_nodes`` is the number N of interior nodes (columns of G0) of the
    boundary-eliminated box complex, where ker C = im G0, so that
    N = dim ker [C1 C2]; the dimension counts (``OperatorContext``) need
    it.  Hand-built bases state it; those that never reach the counts, such
    as Theorem-1 checks alone, may leave it None.
    """

    Y_C2: object
    Yhat_C2: object
    k2: int
    n_nodes: int | None = None


def kernel_bases(inc: IncidenceSet) -> KernelBases:
    """Kernel bases from the incidence complex via Z1 = ker(G1).

    Y_C2 is a maximal independent column subset of G2 @ Z1 (one column per
    ungrounded quotient component is dropped, deterministically the last);
    Yhat_C2 is the circulation kernel of (G2 Z1)^T.
    """
    g = reduced_gradient(inc)
    g1, g2 = g[:inc.n1], g[inc.n1:]
    n2 = g2.shape[0]
    z1 = kernel_incidence(g1)
    quotient = (g2 @ z1).tocsc()
    keep = _independent_columns(quotient)
    y = quotient[:, keep].tocsr()
    yhat = kernel_incidence(sp.csc_matrix(quotient.T))
    k2 = y.shape[1]
    if k2 + yhat.shape[1] != n2:
        raise RuntimeError(
            f"kernel dimensions inconsistent: k2={k2} plus {yhat.shape[1]} != n2={n2}"
        )
    return KernelBases(Y_C2=y, Yhat_C2=yhat, k2=k2, n_nodes=g.shape[1])


def _independent_columns(m):
    """Indices of a maximal independent column subset of an incidence-like
    matrix (columns = quotient nodes): drop the last column of every
    ungrounded connected component."""
    labels = _components(m)
    q = m.shape[1]
    last = np.zeros(labels.max() + 1, dtype=np.int64)
    np.maximum.at(last, labels[:q], np.arange(q))
    return np.flatnonzero((labels[:q] == labels[q]) | (np.arange(q) != last[labels[:q]]))


@dataclass
class RegularizedSystem:
    """Operator bundle for E_r = F_s M_s F_s^T, A_r = -F_n M_n F_n^T, B_r.

    The state is (x1, z2) with the conducting edge values x1 and the
    cotree values z2 = x2[cotree] of an edge vector x2 = Yhat z2.  E_r and
    A_r are applied factor by factor (through Yhat^T X2 and C2 Yhat) and
    never formed as matrices.
    """

    M11: object            # csr n1 x n1 SPD
    Mnu: object            # csr n_f x n_f SPD
    C1: object             # csr n_f x n1
    C2: object             # csr n_f x n2
    R: np.ndarray          # m x m SPD
    Yhat: object           # csr n2 x (n2 - k2), Yhat[cotree] = I
    Y: object              # csr n2 x k2
    cotree: np.ndarray     # (n2 - k2,) row of Yhat holding column j's only +1
    X1: np.ndarray         # n1 x m dense
    X2: object             # csr n2 x m
    X2hat: np.ndarray      # (n2 - k2) x m dense, Yhat^T X2
    Z: np.ndarray          # (n2 - k2) x m dense
    P2: object = field(repr=False, default=None)      # csr n_f x (n2-k2), C2 Yhat
    edge_xyz: np.ndarray = field(repr=False, default=None)  # (n1+n2) x 3 midpoints
    n_nodes: int | None = None   # interior nodes N of the box complex, if known
    n1: int = 0
    n2: int = 0
    k2: int = 0
    m: int = 0

    @property
    def n_r(self):
        return self.n1 + self.n2 - self.k2

    @property
    def n2r(self):
        return self.n2 - self.k2

    @property
    def Rinv(self):
        return np.linalg.inv(self.R)

    def split(self, v):
        return v[: self.n1], v[self.n1:]

    def apply_Er(self, v):
        """E_r v = F_s M_s F_s^T v, evaluated factor by factor."""
        v1, v2 = self.split(np.asarray(v))
        w2 = self.X1.T @ v1 + self.X2hat.T @ v2
        u1 = self.M11 @ v1
        u2 = np.linalg.solve(self.R, w2)
        return np.concatenate([u1 + self.X1 @ u2, self.X2hat @ u2])

    def apply_Ar(self, v):
        """A_r v = -F_n M_nu F_n^T v."""
        v1, v2 = self.split(np.asarray(v))
        w = self.Mnu @ (self.C1 @ v1 + self.P2 @ v2)
        return -np.concatenate([self.C1.T @ w, self.P2.T @ w])

    def B_r(self):
        rinv = self.Rinv
        return np.vstack([self.X1 @ rinv, self.X2hat @ rinv])


def _cotree_rows(yhat):
    """Rows S with yhat[S, :] = I: for each column, the first row whose only
    nonzero is a +1 in that column.  Raises ValueError when a column has
    none."""
    yc = sp.csr_matrix(yhat)
    yc.eliminate_zeros()
    single = np.flatnonzero(np.diff(yc.indptr) == 1)
    unit = single[yc.data[yc.indptr[single]] == 1]
    cols, first = np.unique(yc.indices[yc.indptr[unit]], return_index=True)
    rows = np.full(yc.shape[1], -1, dtype=np.int64)
    rows[cols] = unit[first]
    if np.any(rows < 0):
        raise ValueError(
            f"Yhat has no identity row for {int(np.sum(rows < 0))} of its "
            f"{yc.shape[1]} columns; cotree coordinates need Yhat[S, :] = I"
        )
    return rows


def build_regularized(system, bases: KernelBases) -> RegularizedSystem:
    """Assemble the regularized operator bundle from system + kernel bases.

    Raises when Yhat^T X2 is column-rank deficient, which signals a broken
    winding/mesh configuration (the input matrix would not have full rank),
    and when Yhat has no cotree row subset with Yhat[S, :] = I.
    """
    yhat = bases.Yhat_C2.astype(np.float64).tocsr()
    cotree = _cotree_rows(yhat)
    y = bases.Y_C2.astype(np.float64).tocsr()
    p2 = (system.C2 @ yhat).tocsr()
    x2hat = np.asarray((yhat.T @ system.X2).todense())
    gram = x2hat.T @ x2hat
    cond_ok = np.linalg.matrix_rank(gram, tol=1e-12 * max(np.abs(gram).max(), 1e-300)) == gram.shape[0]
    if not cond_ok:
        raise ValueError(
            "Yhat^T X2 is rank deficient: winding/mesh configuration is broken"
        )
    z = x2hat @ np.linalg.inv(gram)
    return RegularizedSystem(
        M11=system.M11,
        Mnu=system.Mnu,
        C1=system.C1,
        C2=system.C2,
        R=system.R,
        Yhat=yhat,
        Y=y,
        cotree=cotree,
        X1=np.asarray(system.X1.todense()),
        X2=system.X2,
        X2hat=x2hat,
        Z=z,
        P2=p2,
        edge_xyz=system.edge_xyz,
        n_nodes=bases.n_nodes,
        n1=system.n1,
        n2=system.n2,
        k2=bases.k2,
        m=system.m,
    )


def theorem1_check(system, bases: KernelBases, dense_intersection=True):
    """Verify that [0; Y_C2] spans the common kernel of E and K.

    Products are evaluated in factored form so integer bases give exact
    zeros.  The kernel-intersection dimension uses the PSD identity
    ker(E) & ker(K) = ker(E + K): it is the number of eigenvalues of E + K
    at most tau = 1e-10 lambda_max, with lambda_max from a sparse Lanczos
    run on E + K.  Once [0; Y_C2] is shown to lie in the kernel
    (``kernel_pass``) and Y_C2 to have full column rank (a Cholesky factor
    of Y_C2^T Y_C2), E + K has at least k2 such eigenvalues.  For at most
    k2, drop the k2 tree rows of the n2 block, the rows outside the cotree
    rows S of Yhat, and take the principal submatrix (E + K)_JJ of order
    n1 + n2 - k2 = n_r.  By Cauchy interlacing
    lambda_{k2+1}(E + K) >= lambda_1((E + K)_JJ).  Split
    E + K = S + X R^{-1} X^T with the sparse S = blockdiag(M11, 0) + K: a
    Cholesky factor of R makes the winding term PSD, so by Weyl's
    monotonicity lambda_1((E + K)_JJ) >= lambda_1(S_JJ), and a sparse
    LDL^T of S_JJ - tau I with positive pivots
    (``lacore.is_positive_definite``) proves lambda_{k2+1}(E + K) > tau:
    the count is exactly k2 (report ``dimension_certificate`` =
    "interlacing").  The argument holds for any J of n - k2 indices; the
    cotree rows are the choice for which S_JJ is nonsingular, since a
    gradient of the quotient graph that vanishes on a spanning tree
    vanishes.  When ``kernel_pass`` fails, or a factorization does, the
    count is made exactly from the inertia of a dense LDL^T of
    E + K - tau I ("inertia"), so a FAIL still reports the true dimension;
    only this fallback forms E + K.
    """
    y = bases.Y_C2.astype(np.float64)
    c2y = (system.C2 @ y).tocsr()
    c2y.eliminate_zeros()
    # factored evaluation order: X2^T Y = Upsilon^T (C2 Y), exactly zero for
    # integer bases
    x2ty = np.asarray((system.Upsilon.T @ c2y).todense())
    rinv = np.linalg.inv(system.R)
    x = np.asarray(system.X.todense())
    # ||E [0; Y]||_F = ||X W||_F with the m x k2 W = R^{-1} X2^T Y, from the
    # Gram matrix X^T X instead of the dense n x k2 product
    w = rinv @ x2ty
    res_e = float(np.sqrt(max(np.sum(w * ((x.T @ x) @ w)), 0.0)))
    mnu_c2y = system.Mnu @ c2y
    k_y = sp.vstack([system.C1.T @ mnu_c2y, system.C2.T @ mnu_c2y])
    y_norm = max(np.sqrt(bases.Y_C2.power(2).sum()), 1e-300)
    res_k = np.sqrt(k_y.power(2).sum()) if y.shape[1] else 0.0
    scale_e = max(
        np.linalg.norm(x) ** 2 * np.linalg.norm(rinv, 2) * y_norm, 1e-300
    )
    scale_k = max(
        np.linalg.norm(system.Mnu.data) * np.sqrt(system.C2.power(2).sum()) * y_norm,
        1e-300,
    )
    report = {
        "k2": bases.k2,
        "C2Y_exact_zero": c2y.nnz == 0,
        "E_kernel_residual": float(res_e),
        "K_kernel_residual": float(res_k),
        "E_rel_residual": float(res_e / scale_e),
        "K_rel_residual": float(res_k / scale_k),
    }
    tol = 1e-12
    report["kernel_pass"] = (
        (report["C2Y_exact_zero"] and res_e == 0.0 and res_k == 0.0)
        or (report["E_rel_residual"] <= tol and report["K_rel_residual"] <= tol)
    )
    if dense_intersection:
        n1, n = system.n1, system.n1 + system.n2
        base = (sp.block_diag([system.M11, sp.csr_matrix((system.n2, system.n2))])
                + system.K()).tocsr()
        op = spla.LinearOperator((n, n), dtype=np.float64,
                                 matvec=lambda v: base @ v + x @ (rinv @ (x.T @ v)))
        lam_max = float(spla.eigsh(op, k=1, which="LA", return_eigenvectors=False)[0])
        tau = 1e-10 * max(lam_max, 1e-300)
        if report["kernel_pass"] and _interlacing_certificate(base, system.R, n1, bases,
                                                              tau):
            dim, how = bases.k2, "interlacing"
        else:
            ek = base + system.X @ sp.csr_matrix(rinv) @ system.X.T
            dim, how = eigenvalues_at_most(ek.toarray(), tau), "inertia"
        report["kernel_intersection_dim"] = dim
        report["dimension_certificate"] = how
        report["dimension_pass"] = dim == bases.k2
    report["pass"] = report["kernel_pass"] and report.get("dimension_pass", True)
    return report


def _interlacing_certificate(s, r, n1, bases, tau):
    """True when R is symmetric with a Cholesky factor, Y_C2 has full column
    rank, and the principal submatrix of the sparse S = blockdiag(M11, 0) + K
    on J = (the n1 conducting rows, then the cotree rows of Yhat), of order
    n - k2, has all its eigenvalues above ``tau`` (``theorem1_check``).
    False when a factorization fails or Yhat gives no such J."""
    if not np.array_equal(r, r.T):
        return False
    y = bases.Y_C2.astype(np.float64)
    try:
        np.linalg.cholesky(r)
        np.linalg.cholesky((y.T @ y).toarray())
        rows = _cotree_rows(bases.Yhat_C2)
    except (np.linalg.LinAlgError, ValueError):
        return False
    j = np.concatenate([np.arange(n1), n1 + rows])
    if j.size != s.shape[0] - bases.k2 or np.unique(j).size != j.size:
        return False
    return is_positive_definite(s[j][:, j] - tau * sp.identity(j.size, format="csr"))

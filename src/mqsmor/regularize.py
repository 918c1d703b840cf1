"""Graph-theoretic regularization of the singular MQS pencil.

The common kernel of E and K is spanned by [0; Y_C2] with Y_C2 a basis of
ker(C2).  Both Y_C2 and the range basis Yhat_C2 of im(C2^T) are computed
exactly by graph algorithms on the incidence complex:

  * ker(G1) (node potentials constant on ungrounded conducting components)
    by a signed union-find,
  * ker(C2) = im(G2 Z1) with an independent column subset picked per
    quotient-graph component,
  * Yhat_C2 = ker(Z1^T G2^T) (circulations of the quotient graph) by
    spanning-forest fundamental cycles.

All products C2 @ Y_C2 and (G2 Z1)^T @ Yhat_C2 vanish exactly in integer
arithmetic.  A rank-revealing dense fallback exists for inputs without
incidence structure; its provenance is recorded.

The regularized state is (x1, z2) with x2 = Yhat z2.  Each fundamental
cycle has a +1 on its own cotree edge and no other cotree entry, so
Yhat[S, :] = I for the cotree rows S (the tree-cotree gauge) and the
coordinates of an edge vector x2 in im(Yhat) = ker(Y_C2^T) are x2[S].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .lacore import csr_from_coo, psd_kernel_dim
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
    """(ok, rows, signs) when every column has <= 2 entries in {-1,+1},
    opposite signs when there are two."""
    a = a.tocsc()
    if a.nnz and not np.all(np.isin(a.data, (-1, 1))):
        return False, None, None
    counts = np.diff(a.indptr)
    if np.any(counts > 2):
        return False, None, None
    two = np.flatnonzero(counts == 2)
    for j in two:
        s = a.data[a.indptr[j]:a.indptr[j + 1]]
        if s[0] == s[1]:
            return False, None, None
    return True, a, counts


def _cycle_kernel(a):
    """Sparse kernel of a column-incidence matrix via fundamental cycles.

    Columns are directed edges over rows-as-nodes (single-entry columns lead
    to a virtual ground node, empty columns are free loops).  A spanning
    forest is grown greedily, keeping ground the root of its tree; every
    non-forest column yields one kernel vector supported on its fundamental
    cycle, with entries in {-1, 0, +1}.
    """
    ok, ac, _ = _column_structure(a)
    assert ok
    p, q = ac.shape
    ground = p
    uf = np.arange(p + 1, dtype=np.int64)
    pnode = np.full(p + 1, -1, dtype=np.int64)    # rooted-forest parent node
    pcol = np.full(p + 1, -1, dtype=np.int64)     # column of the parent edge
    pself = np.zeros(p + 1, dtype=np.int64)       # entry of that column here
    pother = np.zeros(p + 1, dtype=np.int64)      # entry at the parent node

    def find(x):
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    def reroot(u):
        chain = []
        x = u
        while pcol[x] >= 0:
            chain.append((x, pnode[x], pcol[x], pself[x], pother[x]))
            x = pnode[x]
        for child, par, j, s_child, s_par in chain:
            pnode[par], pcol[par] = child, j
            pself[par], pother[par] = s_par, s_child
        pnode[u], pcol[u] = -1, -1
        pself[u] = pother[u] = 0

    cols_entries = []
    tree = np.zeros(q, dtype=bool)
    for j in range(q):
        lo, hi = ac.indptr[j], ac.indptr[j + 1]
        rows, vals = ac.indices[lo:hi], ac.data[lo:hi]
        cols_entries.append((rows, vals))
        if rows.size == 0:
            continue
        if rows.size == 1:
            u, su, v, sv = int(rows[0]), int(vals[0]), ground, 0
        else:
            u, v = int(rows[0]), int(rows[1])
            su, sv = int(vals[0]), int(vals[1])
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        tree[j] = True
        # keep ground the root of its tree so grounded walks terminate there
        if ru == find(ground):
            u, v, su, sv = v, u, sv, su
            ru, rv = rv, ru
        reroot(u)
        pnode[u], pcol[u], pself[u], pother[u] = v, j, su, sv
        uf[ru] = rv

    def cancel_up(u, residual, coeff):
        while residual != 0 and u != ground:
            j = pcol[u]
            if j < 0:
                return residual       # leftover at an ungrounded root
            y = -residual // pself[u]
            coeff[j] = coeff.get(j, 0) + y
            residual = y * pother[u]
            u = pnode[u]
        return 0

    rows_out, cols_out, vals_out = [], [], []
    out_col = 0
    for j in range(q):
        if tree[j]:
            continue
        rows, vals = cols_entries[j]
        coeff = {j: 1}
        leftover = 0
        for u, a_u in zip(rows, vals):
            leftover += cancel_up(int(u), int(a_u), coeff)
        if leftover != 0:
            raise AssertionError("cycle walk left a residual: input is not incidence")
        for cj, cv in coeff.items():
            if cv != 0:
                rows_out.append(cj)
                cols_out.append(out_col)
                vals_out.append(cv)
        out_col += 1
    basis = csr_from_coo(rows_out, cols_out, vals_out, (q, out_col), dtype=np.int64)
    check = a @ basis
    check.eliminate_zeros()
    assert check.nnz == 0, "cycle kernel failed exactness check"
    return basis


def _potential_kernel(a):
    """Sparse kernel of a row-incidence matrix via a signed union-find.

    Rows are +-1 difference (or grounding) constraints on the columns;
    kernel vectors are signed indicators of ungrounded components.
    """
    ar = a.tocsr()
    n = ar.shape[1]
    parent = np.arange(n, dtype=np.int64)
    sign = np.ones(n, dtype=np.int64)
    grounded = np.zeros(n, dtype=bool)

    def find(x):
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        s = 1
        for node in reversed(path):
            s *= sign[node]
            sign[node] = s
            parent[node] = x
        return x

    for i in range(ar.shape[0]):
        lo, hi = ar.indptr[i], ar.indptr[i + 1]
        cols = ar.indices[lo:hi]
        vals = ar.data[lo:hi]
        if cols.size == 1:
            grounded[find(cols[0])] = True
        elif cols.size == 2:
            c1, c2 = cols
            rel = -int(vals[0]) * int(vals[1])   # p_c1 = rel * p_c2
            r1, r2 = find(c1), find(c2)
            if r1 == r2:
                if sign[c1] != rel * sign[c2]:
                    grounded[r1] = True
            else:
                # attach r1 under r2 keeping p_c1 = rel * p_c2 consistent
                parent[r1] = r2
                sign[r1] = rel * sign[c1] * sign[c2]
                grounded[r2] = grounded[r2] or grounded[r1]
    roots = np.array([find(c) for c in range(n)], dtype=np.int64)
    live = np.flatnonzero(~grounded[roots])
    order = {}
    cols_out = np.empty(live.size, dtype=np.int64)
    for idx, c in enumerate(live):
        r = roots[c]
        if r not in order:
            order[r] = len(order)
        cols_out[idx] = order[r]
    basis = csr_from_coo(live, cols_out, sign[live], (n, len(order)), dtype=np.int64)
    assert (a @ basis).nnz == 0, "potential kernel failed exactness check"
    return basis


def kernel_incidence(a):
    """Exact sparse kernel basis of an incidence-structured matrix.

    Dispatches on structure: column incidence (<= 2 opposite-signed entries
    per column) -> circulation space; row incidence -> component potentials;
    anything else -> dense SVD null space.  Returns (basis, provenance).
    """
    a = a.tocsr() if sp.issparse(a) else sp.csr_matrix(a)
    a.eliminate_zeros()
    if _column_structure(a)[0]:
        return _cycle_kernel(a), "graph"
    if _column_structure(sp.csc_matrix(a.T))[0]:
        return _potential_kernel(a), "graph"
    ns = scipy.linalg.null_space(a.toarray())
    return sp.csr_matrix(ns), "dense-svd"


@dataclass
class KernelBases:
    """Exact bases of ker(C2) and im(C2^T) with recorded provenance.

    ``n_nodes`` is the number N of interior nodes (columns of G0) when the
    bases come from a boundary-eliminated box complex, where ker C = im G0;
    it is None for hand-built inputs without incidence data.
    """

    Y_C2: object
    Yhat_C2: object
    k2: int
    provenance: str
    n_nodes: int | None = None


def kernel_bases(inc: IncidenceSet, n1: int | None = None) -> KernelBases:
    """Kernel bases from the incidence complex via Z1 = ker(G1).

    Y_C2 is a maximal independent column subset of G2 @ Z1 (one column per
    ungrounded quotient component is dropped, deterministically the last);
    Yhat_C2 is the circulation kernel of (G2 Z1)^T.
    """
    g = reduced_gradient(inc)
    n1 = inc.n1 if n1 is None else n1
    g1, g2 = g[:n1], g[n1:]
    n2 = g2.shape[0]
    z1, prov1 = kernel_incidence(g1)
    quotient = (g2 @ z1).tocsc()
    keep = _independent_columns(quotient)
    y = quotient[:, keep].tocsr()
    yhat, prov2 = kernel_incidence(sp.csc_matrix(quotient.T))
    k2 = y.shape[1]
    if k2 + yhat.shape[1] != n2:
        raise RuntimeError(
            f"kernel dimensions inconsistent: k2={k2} plus {yhat.shape[1]} != n2={n2}"
        )
    prov = "graph" if prov1 == prov2 == "graph" else "dense-svd"
    return KernelBases(Y_C2=y, Yhat_C2=yhat, k2=k2, provenance=prov,
                       n_nodes=g.shape[1])


def _independent_columns(m):
    """Indices of a maximal independent column subset of an incidence-like
    matrix (columns = quotient nodes): drop one column per ungrounded
    connected component."""
    mc = m.tocsr()
    q = m.shape[1]
    parent = np.arange(q, dtype=np.int64)
    grounded = np.zeros(q, dtype=bool)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(mc.shape[0]):
        cols = mc.indices[mc.indptr[i]:mc.indptr[i + 1]]
        if cols.size == 1:
            grounded[find(cols[0])] = True
        elif cols.size == 2:
            r1, r2 = find(cols[0]), find(cols[1])
            if r1 != r2:
                parent[r1] = r2
                grounded[r2] = grounded[r2] or grounded[r1]
    drop = set()
    last_of = {}
    for c in range(q):
        last_of[find(c)] = c
    for r, c in last_of.items():
        if not grounded[r]:
            drop.add(c)
    return np.array([c for c in range(q) if c not in drop], dtype=np.int64)


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
    Upsilon: object        # csr n_f x m
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
        Upsilon=system.Upsilon,
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

    Products are evaluated in factored form so graph-provenance bases give
    exact zeros.  The kernel-intersection dimension uses the PSD identity
    ker(E) & ker(K) = ker(E + K): it is the number of eigenvalues of E + K
    at most 1e-10 lambda_max, with lambda_max from a sparse Lanczos run on
    E + K.  Once [0; Y_C2] is shown to lie in the kernel, one dense Cholesky
    factorization of E + K lifted along [0; Y_C2] certifies that there are
    exactly k2 such eigenvalues (``lacore.psd_kernel_dim``); otherwise, or
    when the Cholesky fails, the count comes from the inertia of a dense
    LDL^T of E + K - 1e-10 lambda_max I.
    """
    y = bases.Y_C2.astype(np.float64)
    c2y = (system.C2 @ y).tocsr()
    c2y.eliminate_zeros()
    # factored evaluation order: X2^T Y = Upsilon^T (C2 Y), exactly zero for
    # integer-provenance bases
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
        "provenance": bases.provenance,
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
        # [0; Y_C2] lies in the kernel only when kernel_pass; else count exactly
        q = (sp.vstack([sp.csr_matrix((n1, y.shape[1])), y]) if report["kernel_pass"]
             else np.zeros((n, 0)))
        ek = (base + system.X @ sp.csr_matrix(rinv) @ system.X.T).toarray()
        dim = psd_kernel_dim(ek, q, 1e-10 * max(lam_max, 1e-300))
        report["kernel_intersection_dim"] = dim
        report["dimension_pass"] = dim == bases.k2
    report["pass"] = report["kernel_pass"] and report.get("dimension_pass", True)
    return report

"""The csgraph kernel bases against the loop implementations they replaced.

The functions below are the earlier union-find and forest-walk versions of
``regularize._column_structure``, ``_cycle_kernel``, ``_potential_kernel``
and ``_independent_columns``, kept as the reference.  Both compute in
integer arithmetic, so ``kernel_incidence`` and ``kernel_bases`` must match
them entry for entry: same shape, same int64 entries, same column order.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from mqsmor.config import RunConfig
from mqsmor.lacore import csr_from_coo
from mqsmor.mesh import (
    AIR,
    IRON,
    GeometrySpec,
    Mesh,
    build_incidence,
    eliminate_boundary,
    generate_mesh,
)
from mqsmor.regularize import kernel_bases, kernel_incidence, reduced_gradient


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



def reference_kernel_incidence(a):
    a = a.tocsr() if sp.issparse(a) else sp.csr_matrix(a)
    a.eliminate_zeros()
    if _column_structure(a)[0]:
        return _cycle_kernel(a)
    if _column_structure(sp.csc_matrix(a.T))[0]:
        return _potential_kernel(a)
    raise ValueError("no incidence structure")


def reference_kernel_bases(inc):
    g = reduced_gradient(inc)
    g1, g2 = g[:inc.n1], g[inc.n1:]
    quotient = (g2 @ reference_kernel_incidence(g1)).tocsc()
    y = quotient[:, _independent_columns(quotient)].tocsr()
    return y, reference_kernel_incidence(sp.csc_matrix(quotient.T))


def _assert_same(new, ref):
    new, ref = sp.csr_matrix(new), sp.csr_matrix(ref)
    assert new.shape == ref.shape
    assert new.dtype == ref.dtype == np.int64
    assert np.array_equal(new.indptr, ref.indptr)
    assert np.array_equal(new.indices, ref.indices)
    assert np.array_equal(new.data, ref.data)


def _assert_matches_reference(inc):
    bases = kernel_bases(inc)
    y, yhat = reference_kernel_bases(inc)
    assert bases.provenance == "graph"
    _assert_same(bases.Y_C2, y)
    _assert_same(bases.Yhat_C2, yhat)
    g = reduced_gradient(inc)
    for a in (g[:inc.n1], sp.csc_matrix(g[:inc.n1].T), sp.csc_matrix(g.T)):
        basis, prov = kernel_incidence(a)
        assert prov == "graph"
        _assert_same(basis, reference_kernel_incidence(a))


def _box(mesh):
    return eliminate_boundary(build_incidence(mesh), mesh)


def test_desk_matches_reference(desk):
    _assert_matches_reference(desk.inc)


def test_box10_matches_reference():
    # the geometry of the box10-reduce workload in perfbench/run.py
    cfg = RunConfig({
        "geometry.resolution": 10,
        "geometry.r1": 0.0126, "geometry.r2": 0.0252,
        "geometry.r3": 0.0378, "geometry.r4": 0.0504,
        "geometry.z1": -0.0504, "geometry.z2": 0.0504,
        "geometry.z3": -0.0252, "geometry.z4": 0.0252,
    })
    _assert_matches_reference(_box(generate_mesh(cfg.geometry)))


@pytest.mark.parametrize("iron", [0.1, 0.25, 0.6])
@pytest.mark.parametrize("resolution", [3, 4, 5, 6, 7, 8])
def test_random_iron_boxes_match_reference(resolution, iron):
    """Grounded and floating conducting components, untouched nodes and,
    at low iron fractions, empty quotient columns."""
    base = generate_mesh(GeometrySpec(c1=0.5, c2=0.5, c3=0.5, resolution=resolution))
    for seed in range(3):
        rng = np.random.default_rng([resolution, int(100 * iron), seed])
        regions = np.where(rng.random(base.tets.shape[0]) < iron, IRON, AIR).astype(np.int8)
        _assert_matches_reference(_box(Mesh(nodes=base.nodes, tets=base.tets, regions=regions)))


def test_all_air_box_matches_reference():
    _assert_matches_reference(_box(generate_mesh(GeometrySpec(c1=0.5, c2=0.5, c3=0.5,
                                                             resolution=3))))


def _csr(a):
    return sp.csr_matrix(np.atleast_2d(np.asarray(a, dtype=float)))


@pytest.mark.parametrize("a", [
    [[1, -1, 0], [0, 1, -1], [1, 0, 0]],          # grounded path, trivial kernel
    [[1, -1, 0], [0, 1, -1]],                     # path, node side
    [[1, 0, -1], [-1, 1, 0], [0, -1, 1]],         # 3-cycle, edge side
    [[1], [-1]],                                  # one edge, transposed
    [[1, -1, 1, 0, 0, 1], [-1, 1, 0, 0, 1, 0], [0, 0, 0, 0, -1, 0]],
    # ^ parallel edges of both orientations, a grounded edge, an empty column
    [[0, 0], [0, 0]],                             # free loops only
    np.zeros((0, 3)),                             # no rows
], ids=["grounded", "path", "cycle", "edge", "mixed", "loops", "norows"])
def test_hand_made_cases_match_reference(a):
    a = _csr(a)
    basis, prov = kernel_incidence(a)
    assert prov == "graph"
    _assert_same(basis, reference_kernel_incidence(a))

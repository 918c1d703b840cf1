import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from mqsmor import regularize

from conftest import make_synthetic_system, make_toy_system
from mqsmor.assembly import AssembledSystem
from mqsmor.lacore import SingularMatrixError, factorize
from mqsmor.mesh import GeometrySpec, build_incidence, eliminate_boundary, generate_mesh, gradient_incidence
from mqsmor.regularize import (
    KernelBases,
    build_regularized,
    kernel_bases,
    kernel_incidence,
    reduced_gradient,
    theorem1_check,
)


def _csr(a):
    return sp.csr_matrix(np.atleast_2d(np.asarray(a, dtype=float)))


def test_full_complex_g0_column_drop_rank():
    mesh = generate_mesh(GeometrySpec(c1=0.5, c2=0.5, c3=0.5, resolution=1))
    inc = build_incidence(mesh)
    g = inc.G0.toarray()[:, 1:]     # drop one column of G0
    assert np.linalg.matrix_rank(g) == mesh.n_nodes - 1


def test_reduced_gradient_requires_eliminated():
    mesh = generate_mesh(GeometrySpec(c1=0.5, c2=0.5, c3=0.5, resolution=2))
    inc = build_incidence(mesh)
    with pytest.raises(ValueError):
        reduced_gradient(inc)
    inc1 = eliminate_boundary(build_incidence(
        generate_mesh(GeometrySpec(c1=0.5, c2=0.5, c3=0.5, resolution=1))),
        generate_mesh(GeometrySpec(c1=0.5, c2=0.5, c3=0.5, resolution=1)))
    with pytest.raises(ValueError, match="empty"):
        reduced_gradient(inc1)


def test_reduced_gradient_desk(desk):
    inc = desk.inc
    g = reduced_gradient(inc)
    cg = desk.inc.C @ g
    cg.eliminate_zeros()
    assert cg.nnz == 0
    assert np.linalg.matrix_rank(g.toarray()) == inc.node_order.shape[0]


def test_kernel_incidence_grounded_potentials():
    # conducting component touching eliminated nodes: trivial kernel
    g1 = _csr([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [1.0, 0.0, 0.0]])  # last row grounds
    z = kernel_incidence(g1)
    assert z.shape == (3, 0)


def test_kernel_incidence_path_node_side():
    g = _csr([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
    z = kernel_incidence(g)
    assert z.shape == (3, 1)
    v = z.toarray().ravel()
    assert np.array_equal(v, [1, 1, 1]) or np.array_equal(v, [-1, -1, -1])


def test_kernel_incidence_cycle_edge_side():
    # 3-node cycle, node-edge incidence (3 x 3), kernel = the loop
    b = _csr([[1.0, 0.0, -1.0], [-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])
    y = kernel_incidence(b)
    assert y.shape == (3, 1)
    chk = b @ y
    chk.eliminate_zeros()
    assert chk.nnz == 0


def test_kernel_incidence_rejects_non_incidence():
    for a in (np.random.default_rng(0).standard_normal((3, 5)),   # no structure
              [[1.0, -1.0, 1.0], [0.0, 1.0, -1.0], [1.0, 0.0, 1.0]],  # 3 per row
              [[2.0, -2.0], [0.0, 1.0]]):             # entries outside {-1, +1}
        with pytest.raises(ValueError, match="incidence structure"):
            kernel_incidence(sp.csr_matrix(np.asarray(a)))


def test_kernel_bases_toy_c2():
    # toy C2 = [1, 1]: Y spans (1,-1), Yhat spans (1,1)
    mesh = None
    c2 = _csr([[1.0, 1.0]])
    # via a hand-built incidence complex: nodes {0,1,2}, edges (0,1),(0,2),(1,2)
    # simpler: direct span checks on a 2-edge kernel problem
    g2z1 = _csr(np.array([[1.0], [-1.0]]))      # ker(C2) = im of this
    yhat = kernel_incidence(sp.csc_matrix(g2z1.T))
    v = yhat.toarray().ravel()
    assert v[0] == v[1] != 0                     # spans (1, 1)
    chk = c2 @ g2z1
    chk.eliminate_zeros()
    assert chk.nnz == 0                          # (1,-1) in ker C2


def test_kernel_bases_desk(desk):
    bases, sysm = desk.bases, desk.system
    c2y = sysm.C2 @ bases.Y_C2.astype(float)
    c2y.eliminate_zeros()
    assert c2y.nnz == 0
    stacked = sp.hstack([bases.Yhat_C2, bases.Y_C2]).astype(float).tocsc()
    assert stacked.shape[0] == stacked.shape[1]
    # SuperLU finds no zero pivot, and a known solution comes back
    x = np.random.default_rng(0).standard_normal(stacked.shape[0])
    err = factorize(stacked).solve(stacked @ x) - x
    assert np.linalg.norm(err) <= 1e-10 * np.linalg.norm(x)
    # exactness of the defining products in integer arithmetic
    g = reduced_gradient(desk.inc)
    z1 = kernel_incidence(g[: desk.inc.n1])
    quotient = g[desk.inc.n1:] @ z1
    chk = quotient.T @ bases.Yhat_C2
    chk.eliminate_zeros()
    assert chk.nnz == 0


def test_kernel_bases_trivial_kernel():
    # C2 with trivial kernel on a grounded graph: k2 = 0, Yhat square
    mesh = generate_mesh(GeometrySpec(c1=0.5, c2=0.5, c3=0.5, resolution=2))
    inc = eliminate_boundary(build_incidence(mesh), mesh)
    bases = kernel_bases(inc)   # no conducting edges: n1 = 0
    # all-air mesh: G1 empty, Z1 = identity-like, quotient = G itself
    assert bases.k2 + bases.Yhat_C2.shape[1] == inc.n2


def test_build_regularized_toy_matrices(toy):
    _, _, rsys, _ = toy
    eye = np.eye(2)
    er = np.column_stack([rsys.apply_Er(eye[:, i]) for i in range(2)])
    ar = np.column_stack([rsys.apply_Ar(eye[:, i]) for i in range(2)])
    assert np.allclose(er, [[4.0, 1.0], [1.0, 1.0]], atol=1e-12)
    assert np.allclose(ar, [[-2.0, -2.0], [-2.0, -2.0]], atol=1e-12)
    assert np.allclose(rsys.B_r().ravel(), [1.0, 1.0], atol=1e-12)


def test_build_regularized_rank_deficiency_error():
    sysm, bases = make_toy_system()
    broken = AssembledSystem(
        M11=sysm.M11, Mnu=sysm.Mnu, Upsilon=_csr([[0.0]]),
        X=_csr([[0.0], [0.0]]), C1=sysm.C1, C2=sysm.C2, R=sysm.R,
        n1=1, n2=1, m=1,
    )
    with pytest.raises(ValueError, match="rank deficient"):
        build_regularized(broken, bases)


def toy_with_kernel():
    """n1 = 1, n2 = 2, C2 = [1, 1]: k2 = 1, common kernel (0, 1, -1)."""
    c1 = _csr([[1.0]])
    c2 = _csr([[1.0, 1.0]])
    ups = _csr([[1.0]])
    x = (sp.hstack([c1, c2]).T @ ups).tocsr()
    sysm = AssembledSystem(M11=_csr([[3.0]]), Mnu=_csr([[2.0]]), Upsilon=ups,
                           X=x, C1=c1, C2=c2, R=np.array([[1.0]]), n1=1, n2=2, m=1)
    y = _csr(np.array([[1.0], [-1.0]]))
    yh = _csr(np.array([[1.0], [1.0]]))
    return sysm, KernelBases(Y_C2=y, Yhat_C2=yh, k2=1)


@pytest.mark.parametrize("case", ["toy", "synthetic", "toy_with_kernel", "desk"])
def test_cotree_rows_are_identity(case, request):
    if case == "desk":
        desk = request.getfixturevalue("desk")
        rsys = desk.rsys
    else:
        make = {"toy": make_toy_system, "synthetic": make_synthetic_system,
                "toy_with_kernel": toy_with_kernel}[case]
        rsys = build_regularized(*make())
    assert rsys.cotree.shape == (rsys.n2r,)
    sub = rsys.Yhat[rsys.cotree].toarray()
    assert np.array_equal(sub, np.eye(rsys.n2r))


def test_build_regularized_needs_identity_rows():
    sysm, bases = toy_with_kernel()
    yh = _csr(np.array([[1.0], [1.0]]) / np.sqrt(2.0))
    bad = KernelBases(Y_C2=bases.Y_C2, Yhat_C2=yh, k2=1)
    with pytest.raises(ValueError, match="identity row"):
        build_regularized(sysm, bad)


def test_theorem1_toy_with_kernel():
    sysm, bases = toy_with_kernel()
    rep = theorem1_check(sysm, bases)
    assert rep["C2Y_exact_zero"]
    assert rep["E_kernel_residual"] == 0.0
    assert rep["K_kernel_residual"] == 0.0
    assert rep["kernel_intersection_dim"] == 1
    assert rep["dimension_certificate"] == "interlacing"
    assert rep["pass"]
    # hand check: w = (0, 1, -1) annihilates both E and K
    e = np.zeros((3, 3))
    e[0, 0] = 3.0
    xd = np.asarray(sysm.X.todense())
    e += xd @ xd.T
    k = sysm.K().toarray()
    w = np.array([0.0, 1.0, -1.0])
    assert np.allclose(e @ w, 0.0) and np.allclose(k @ w, 0.0)


def test_theorem1_trivial_kernel(toy):
    sysm, bases, _, _ = toy
    rep = theorem1_check(sysm, bases)
    assert rep["k2"] == 0
    assert rep["kernel_intersection_dim"] == 0
    assert rep["pass"]


def test_theorem1_reports_kernel_outside_basis():
    """C2 = [1, 1, 1] leaves a two-dimensional common kernel [0; ker C2];
    a basis Y_C2 with only one of its vectors passes the kernel products
    but fails the dimension count, which reports the true dimension."""
    c1, c2, ups = _csr([[1.0]]), _csr([[1.0, 1.0, 1.0]]), _csr([[1.0]])
    x = (sp.hstack([c1, c2]).T @ ups).tocsr()
    sysm = AssembledSystem(M11=_csr([[3.0]]), Mnu=_csr([[2.0]]), Upsilon=ups,
                           X=x, C1=c1, C2=c2, R=np.array([[1.0]]), n1=1, n2=3, m=1)
    y = _csr(np.array([[1.0], [-1.0], [0.0]]))
    yh = _csr(np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    rep = theorem1_check(sysm, KernelBases(Y_C2=y, Yhat_C2=yh, k2=1))
    assert rep["kernel_pass"]
    assert rep["kernel_intersection_dim"] == 2
    assert rep["dimension_certificate"] == "inertia"
    assert not rep["dimension_pass"] and not rep["pass"]
    ek = sysm.K().toarray() + np.asarray(x.todense()) @ np.asarray(x.todense()).T
    ek[0, 0] += 3.0
    assert int(np.sum(np.linalg.eigvalsh(ek) <= 1e-10 * np.abs(ek).max())) == 2


def _dense_e_plus_k(sysm):
    x = np.asarray(sysm.X.todense())
    ek = sysm.K().toarray() + x @ np.linalg.inv(sysm.R) @ x.T
    ek[:sysm.n1, :sysm.n1] += sysm.M11.toarray()
    return ek


def test_theorem1_near_kernel_vector_falls_back_to_inertia():
    """A second face with M_nu = 1e-12 leaves E + K one eigenvalue of about
    1e-12 beyond the exact kernel (-2, 1, 1) of C2: far below
    1e-10 lambda_max.  The principal submatrix on the cotree rows then has
    no Cholesky factor, and the exact count reads k2 + 1."""
    c1 = _csr([[1.0], [0.0]])
    c2 = _csr([[1.0, 1.0, 1.0], [0.0, 1.0, -1.0]])
    ups = _csr([[1.0], [0.0]])
    x = (sp.hstack([c1, c2]).T @ ups).tocsr()
    sysm = AssembledSystem(M11=_csr([[3.0]]), Mnu=_csr(np.diag([2.0, 1e-12])),
                           Upsilon=ups, X=x, C1=c1, C2=c2, R=np.array([[1.0]]),
                           n1=1, n2=3, m=1)
    y = _csr(np.array([[-2.0], [1.0], [1.0]]))
    yh = _csr(np.array([[1.0, 0.0], [0.0, 1.0], [2.0, -1.0]]))
    rep = theorem1_check(sysm, KernelBases(Y_C2=y, Yhat_C2=yh, k2=1))
    assert rep["kernel_pass"] and rep["C2Y_exact_zero"]
    assert rep["dimension_certificate"] == "inertia"
    assert rep["kernel_intersection_dim"] == 2
    assert not rep["pass"]
    w = np.linalg.eigvalsh(_dense_e_plus_k(sysm))
    assert 0 < w[1] <= 1e-11 * w[-1] and w[2] > 1e-3 * w[-1]


@pytest.mark.parametrize("rows", list(itertools.combinations(range(4), 2)) + [(0, 0)])
def test_theorem1_any_index_set_gives_the_true_count(monkeypatch, rows):
    """Interlacing holds for every principal submatrix of order n - k2, so an
    index set other than the cotree rows either still certifies k2 or fails
    its Cholesky factorization (or its size check) and falls back to the
    inertia count: the count is never wrong."""
    sysm, bases = make_synthetic_system()
    monkeypatch.setattr(regularize, "_cotree_rows", lambda yhat: np.array(rows))
    rep = theorem1_check(sysm, bases)
    assert rep["kernel_intersection_dim"] == 2 and rep["pass"]
    ek = _dense_e_plus_k(sysm)
    assert int(np.sum(np.linalg.eigvalsh(ek) <= 1e-10 * np.abs(ek).max())) == 2
    # rows 0 and 1 (or 2 and 3) hold the kernel vector (1, -1, 0, 0) (or
    # (0, 0, 1, -1)); the repeated row fails the size check
    fallback = rows in ((0, 1), (2, 3), (0, 0))
    assert rep["dimension_certificate"] == ("inertia" if fallback else "interlacing")


def test_theorem1_e_residual_matches_dense_product():
    """A basis outside ker(X2^T), with m = 2 and a non-diagonal R: the
    reported ||E [0; Y]||_F equals the norm of the dense n x k2 product
    X R^{-1} X2^T Y."""
    c1 = _csr([[1.0], [0.0]])
    c2 = _csr([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    ups = _csr([[1.0, 0.5], [2.0, -1.0]])
    x = (sp.hstack([c1, c2]).T @ ups).tocsr()
    r = np.array([[2.0, 0.3], [0.3, 1.0]])
    sysm = AssembledSystem(M11=_csr([[3.0]]), Mnu=_csr(np.diag([2.0, 5.0])),
                           Upsilon=ups, X=x, C1=c1, C2=c2, R=r, n1=1, n2=3, m=2)
    y = _csr(np.random.default_rng(4).standard_normal((3, 2)))
    bases = KernelBases(Y_C2=y, Yhat_C2=_csr(np.eye(3)[:, :1]), k2=2)
    rep = theorem1_check(sysm, bases, dense_intersection=False)
    xd = x.toarray()
    dense = xd @ np.linalg.inv(r) @ (xd[1:].T @ y.toarray())
    assert np.linalg.norm(dense) > 1.0
    assert rep["E_kernel_residual"] == pytest.approx(np.linalg.norm(dense), rel=1e-12)
    assert not rep["kernel_pass"] and not rep["pass"]


def test_regularized_definiteness_and_regularity(synthetic):
    _, _, rsys, ctx, _ = synthetic
    rng = np.random.default_rng(5)
    n = rsys.n_r
    for _ in range(100):
        x = rng.standard_normal(n)
        e_quad = x @ rsys.apply_Er(x)
        a_quad = x @ rsys.apply_Ar(x)
        scale = x @ x
        assert e_quad >= -1e-12 * scale * 10
        assert a_quad <= 1e-12 * scale * 10
    for lam in rng.uniform(0.1, 100.0, 5):
        z = ctx.shifted_solve(-float(lam), rng.standard_normal(n))
        assert np.all(np.isfinite(z))


def test_kernel_intersection_trivial_after_regularization(synthetic):
    _, _, rsys, _, oracle = synthetic
    stacked = np.vstack([oracle.E_dense, oracle.A_dense])
    ns = np.linalg.matrix_rank(stacked)
    assert ns == rsys.n_r     # ker(E_r) & ker(A_r) = {0}


def test_scaling_r_by_alpha_scales_br(synthetic):
    sysm, bases, rsys, _, _ = synthetic
    alpha = 4.0
    scaled = AssembledSystem(
        M11=sysm.M11, Mnu=sysm.Mnu, Upsilon=sysm.Upsilon, X=sysm.X,
        C1=sysm.C1, C2=sysm.C2, R=alpha * sysm.R, n1=sysm.n1, n2=sysm.n2, m=sysm.m)
    rsys2 = build_regularized(scaled, bases)
    assert np.allclose(rsys2.B_r(), rsys.B_r() / alpha, rtol=1e-13)

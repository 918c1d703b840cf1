import numpy as np
import pytest
import scipy.sparse as sp

from mqsmor.assembly import MaterialSpec, WindingSpec, build_system
from mqsmor.lacore import SingularMatrixError, factorize, lanczos_extremal
from mqsmor.mesh import AIR, IRON, GeometrySpec, Mesh, build_incidence, eliminate_boundary, generate_mesh
from mqsmor.ops import OperatorContext, SpectralBounds
from mqsmor.oracle import SparsePencil, build_dense_oracle
from mqsmor.regularize import build_regularized, kernel_bases


def dense_operator(rsys):
    n = rsys.n_r
    eye = np.eye(n)
    e = np.column_stack([rsys.apply_Er(eye[:, i]) for i in range(n)])
    a = np.column_stack([rsys.apply_Ar(eye[:, i]) for i in range(n)])
    return e, a


def test_toy_einv_a_matrix(toy):
    _, _, _, ctx = toy
    eye = np.eye(2)
    m = np.column_stack([ctx.apply_EinvA(eye[:, i]) for i in range(2)])
    assert np.allclose(m, [[0.0, 0.0], [-2.0, -2.0]], atol=1e-12)
    assert np.allclose(ctx.apply_EinvA(np.array([0.0, 1.0])), [0.0, -2.0], atol=1e-13)


def test_toy_kernel_of_a_maps_to_zero(toy):
    _, _, rsys, ctx = toy
    v = np.array([1.0, -1.0])           # A_r v = 0
    assert np.allclose(rsys.apply_Ar(v), 0.0)
    assert np.allclose(ctx.apply_EinvA(v), 0.0, atol=1e-13)
    assert np.allclose(ctx.apply_Cr(v), 0.0, atol=1e-12)


def test_toy_einv_b(toy):
    _, _, rsys, ctx = toy
    eb = ctx.apply_EinvB()
    assert np.allclose(eb.ravel(), [0.0, 1.0], atol=1e-13)
    assert np.allclose(rsys.apply_Er(eb.ravel()), rsys.B_r().ravel(), atol=1e-12)
    gram = ctx.B_r.T @ eb
    assert np.allclose(gram, rsys.Rinv, rtol=1e-10)


def test_toy_pi_inf_zero(toy):
    _, _, _, ctx = toy
    v = np.array([1.3, -0.7])
    assert np.allclose(ctx.apply_Pi_inf(v), 0.0, atol=1e-14)


def test_toy_shifted_solve(toy):
    _, _, _, ctx = toy
    z = ctx.shifted_solve(-1.0, np.array([1.0, 1.0]))
    assert np.allclose(z, [0.0, -1.0 / 3.0], atol=1e-13)


@pytest.mark.parametrize("error,expected", [
    (SingularMatrixError("singular matrix at pivot index 0"), RuntimeError),
    (MemoryError("Unable to allocate"), MemoryError),
])
def test_shifted_lu_reports_only_singularity(toy, monkeypatch, error, expected):
    import mqsmor.ops as ops

    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(ops, "factorize", failing)
    with pytest.raises(expected) as info:
        toy[3].shifted_lu(-1.0)
    assert ("singular bordered matrix" in str(info.value)) == (expected is RuntimeError)


def test_toy_cr(toy):
    _, _, _, ctx = toy
    assert np.allclose(ctx.apply_Cr(np.array([0.0, 1.0])), [2.0], atol=1e-12)
    eye = np.eye(2)
    cr = np.array([ctx.apply_Cr(eye[:, i])[0] for i in range(2)])
    assert np.allclose(cr, [2.0, 2.0], atol=1e-12)


def test_toy_spectral_bounds(toy):
    _, _, _, ctx = toy
    sb = ctx.spectral_bounds()
    assert sb.a == pytest.approx(2.0, rel=1e-9)
    assert sb.b == pytest.approx(2.0, rel=1e-9)


def test_toy_lanczos_single_ritz(toy):
    _, _, rsys, ctx = toy
    start = ctx.apply_EinvB()[:, 0]
    res = lanczos_extremal(ctx.apply_EinvA, start, metric=rsys.apply_Er)
    assert res.ritz.shape[0] == 1
    assert res.ritz[0] == pytest.approx(-2.0, rel=1e-12)


def test_spectral_bounds_validation():
    with pytest.raises(ValueError):
        SpectralBounds(a=-1.0, b=2.0)
    with pytest.raises(ValueError):
        SpectralBounds(a=3.0, b=2.0)


def test_spectral_bounds_without_ritz_values(synthetic):
    with pytest.raises(ValueError, match="no Ritz values"):
        synthetic[3].spectral_bounds(maxit=0)


def test_k2_zero_bordered_equals_direct(toy):
    _, _, rsys, ctx = toy
    e, a = dense_operator(rsys)
    rng = np.random.default_rng(0)
    for tau in (-0.5, -2.5, -30.0):
        for _ in range(3):
            w = rng.standard_normal(2)
            z = ctx.shifted_solve(tau, w)
            zd = np.linalg.solve(tau * e + a, w)
            assert np.linalg.norm(z - zd) <= 1e-12 * np.linalg.norm(zd)


def test_synthetic_pi_inf_projector(synthetic):
    _, _, rsys, ctx, oracle = synthetic
    rng = np.random.default_rng(1)
    # fixes its range im(Y_sigma)
    ys = oracle.Y_sigma @ rng.standard_normal(oracle.n_inf)
    assert np.linalg.norm(ctx.apply_Pi_inf(ys) - ys) <= 1e-10 * np.linalg.norm(ys)
    # idempotent
    v = rng.standard_normal(rsys.n_r)
    p1 = ctx.apply_Pi_inf(v)
    p2 = ctx.apply_Pi_inf(p1)
    assert np.linalg.norm(p2 - p1) <= 1e-10 * max(np.linalg.norm(p1), 1e-300)
    # matches the oracle's dense form
    po = oracle.pi_inf_apply(v)
    assert np.linalg.norm(p1 - po) <= 1e-10 * max(np.linalg.norm(po), 1e-300)


def test_synthetic_einva_vs_brute_oracle(synthetic):
    _, _, rsys, ctx, oracle = synthetic
    rng = np.random.default_rng(2)
    for _ in range(10):
        v = oracle.pi_apply(rng.standard_normal(rsys.n_r))
        z = ctx.apply_EinvA(v)
        zo = oracle.einv_apply(oracle.A_dense @ v)
        assert np.linalg.norm(z - zo) <= 1e-9 * max(np.linalg.norm(zo), 1e-300)
        # Pi-subspace closure
        drift = z - oracle.pi_apply(z)
        assert np.linalg.norm(drift) <= 1e-9 * max(np.linalg.norm(z), 1e-300)


def test_synthetic_shifted_vs_dense(synthetic):
    _, _, rsys, ctx, oracle = synthetic
    rng = np.random.default_rng(3)
    for tau in (-0.3, -1.0, -3.0, -10.0, -100.0):
        for _ in range(5):
            w = rng.standard_normal(rsys.n_r)
            z = ctx.shifted_solve(tau, w)
            zd = np.linalg.solve(tau * oracle.E_dense + oracle.A_dense, w)
            assert np.linalg.norm(z - zd) <= 1e-9 * np.linalg.norm(zd)


def test_synthetic_einvb_identity(synthetic):
    _, _, rsys, ctx, _ = synthetic
    gram = ctx.B_r.T @ ctx.apply_EinvB()
    assert np.linalg.norm(gram - rsys.Rinv) <= 1e-10 * np.linalg.norm(rsys.Rinv)


def test_desk_einva_vs_oracle(desk):
    ctx, oracle = desk.ctx, desk.oracle
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(10):
        v = oracle.pi_apply(rng.standard_normal(ctx.rsys.n_r))
        z = ctx.apply_EinvA(v)
        zo = oracle.einv_apply(oracle.A_dense @ v)
        worst = max(worst, np.linalg.norm(z - zo) / np.linalg.norm(zo))
    assert worst <= 1e-9


# a refined solve reaches the rounding floor eps ||(|tau| |E_r| + |A_r|) |z|||
# of its own residual, up to this factor; the worst ratio measured over 60
# draws at these five shifts was 1.4 (0.83 for the draws below)
FLOOR_FACTOR = 10.0


def test_desk_shifted_residual(desk):
    ctx = desk.ctx
    sb = desk.bounds
    pencil = SparsePencil.of(ctx.rsys)
    n, n1 = ctx.rsys.n_r, ctx.rsys.n1
    xhat = sp.csr_matrix(pencil.Xhat)
    abs_e = abs(sp.block_diag([pencil.M11, sp.csr_matrix((n - n1, n - n1))])
                + xhat @ sp.csr_matrix(pencil.Rinv) @ xhat.T).tocsr()
    abs_a = abs(pencil.F_nu @ pencil.Mnu @ pencil.F_nu.T).tocsr()
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(5)
    for tau in -np.geomspace(sb.a, sb.b, 5):
        w = rng.standard_normal(n)
        z = ctx.shifted_solve(float(tau), w)
        r = tau * ctx.apply_Er(z) + ctx.apply_Ar(z) - w
        floor = eps * np.linalg.norm(abs(tau) * (abs_e @ abs(z)) + abs_a @ abs(z))
        assert np.linalg.norm(r) <= FLOOR_FACTOR * floor


def test_desk_spectral_bounds_bracket(desk):
    lam = desk.oracle.finite_eigenvalues().real
    sb = desk.bounds
    assert sb.a <= -lam.max() * 1.01
    assert sb.b >= -lam.min() * 0.99


def test_desk_spectral_bounds_refuse_unconverged_lanczos(desk):
    # the desk's Lanczos needs 44 steps to converge
    with pytest.raises(RuntimeError, match="did not converge in 20 iterations"):
        desk.ctx.spectral_bounds(maxit=20, tol=desk.config["mor.lanczos_tol"])


def test_desk_reflexive_inverse_triple(desk):
    oracle = desk.oracle
    e = oracle.E_dense
    u = oracle.einv_factor
    eu = e @ u
    lhs = eu @ (u.T @ e)
    assert np.linalg.norm(lhs - e) <= 1e-9 * np.linalg.norm(e)
    einv = u @ u.T
    mid = u @ ((u.T @ eu) @ u.T)
    assert np.linalg.norm(mid - einv) <= 1e-9 * np.linalg.norm(einv)
    assert np.array_equal(einv, einv.T) or np.linalg.norm(einv - einv.T) <= 1e-12 * np.linalg.norm(einv)


def test_desk_quasi_weierstrass_counts(desk):
    counts = desk.ctx.dimension_counts()
    oracle = desk.oracle
    r = desk.rsys
    assert counts["n_inf"] == r.n2 - r.k2 - r.m
    assert counts["n_s"] + counts["n0"] + counts["n_inf"] == r.n_r
    assert (oracle.n_s, oracle.n_0, oracle.n_inf) == (
        counts["n_s"], counts["n0"], counts["n_inf"])


def _dense_kernel_dim(rsys):
    """n_r - rank(F_nu) from eigvalsh of F_nu F_nu^T, with a clear gap."""
    f = sp.hstack([rsys.C1, rsys.P2]).toarray()
    w = np.linalg.eigvalsh(f.T @ f)
    n0 = int(np.sum(w <= 1e-8 * w[-1]))
    assert n0 == 0 or w[n0 - 1] <= 1e-10 * w[-1]
    assert n0 == w.size or w[n0] >= 1e-6 * w[-1]
    return n0


def _random_iron_box(resolution, seed):
    """A unit box whose tets are iron with probability 1/4, so the conducting
    edges form grounded and floating components around untouched nodes."""
    base = generate_mesh(GeometrySpec(c1=0.5, c2=0.5, c3=0.5, resolution=resolution))
    rng = np.random.default_rng(seed)
    regions = np.where(rng.random(base.tets.shape[0]) < 0.25, IRON, AIR).astype(np.int8)
    mesh = Mesh(nodes=base.nodes, tets=base.tets, regions=regions)
    inc = eliminate_boundary(build_incidence(mesh), mesh)
    material = MaterialSpec(sigma1=1.0, nu_iron=1.0, nu_air=2.0, R=[[1.0]])
    winding = WindingSpec(turns=10.0, cross_section=1.0, r3=0.25, r4=0.5,
                          z3=-0.25, z4=0.25)
    system = build_system(mesh, inc, material, winding)
    return build_regularized(system, kernel_bases(inc))


@pytest.mark.parametrize("resolution", [4, 5, 6, 7])
def test_topological_counts_match_dense_rank(resolution):
    rsys = _random_iron_box(resolution, seed=resolution)
    assert rsys.n1 > 0 and rsys.n_nodes == (resolution - 1) ** 3
    counts = OperatorContext(rsys).dimension_counts()
    n0 = _dense_kernel_dim(rsys)
    assert counts["source"] == "topology"
    assert n0 > 0
    assert (counts["n0"], counts["n_s"], counts["n_inf"]) == (
        n0, rsys.n_r - n0 - (rsys.n2r - rsys.m), rsys.n2r - rsys.m)


def test_desk_topological_counts_match_dense_rank(desk):
    counts = desk.ctx.dimension_counts()
    assert counts["source"] == "topology"
    assert counts["n0"] == _dense_kernel_dim(desk.rsys)
    assert (counts["n_s"], counts["n0"], counts["n_inf"]) == (466, 127, 3359)


def test_counts_without_node_count_take_dense_path(toy, synthetic):
    for ctx in (toy[3], synthetic[3]):
        assert ctx.rsys.n_nodes is None
        counts = ctx.dimension_counts()
        oracle = build_dense_oracle(ctx, cap=100)
        assert counts["source"] == "dense"
        assert (counts["n_s"], counts["n0"], counts["n_inf"]) == (
            oracle.n_s, oracle.n_0, oracle.n_inf)


def test_toy_and_synthetic_keep_colamd(toy, synthetic):
    # no mesh coordinates, so no nested-dissection order
    assert toy[3]._order is None and synthetic[3]._order is None


def test_desk_nested_dissection_order_beats_colamd(desk):
    """At the extreme Wachspress shifts and at s = i 1e6 the context's
    order gives less LU fill than COLAMD, and the LR-ADI right-hand side
    B_r is solved to a residual of 1e-13 relative."""
    ctx = desk.ctx
    n_edges, m = ctx.rsys.n1 + ctx.rsys.n2, ctx.rsys.m
    # the winding currents couple to every coil edge and are ordered last
    assert np.array_equal(ctx._order[-m:], np.arange(n_edges, n_edges + m))
    shifts = desk.shifts.shifts
    for shift in (float(shifts.max()), float(shifts.min()), 1e6j):
        fact = ctx.shifted_lu(shift)
        assert np.array_equal(fact.perm, ctx._order)
        mat = (ctx._lemma3_K + shift * ctx._lemma3_M).tocsc()
        assert fact._lu.nnz < factorize(mat)._lu.nnz
        w = ctx.B_r[:, 0]
        z = ctx.shifted_solve(shift, w)
        r = w - (shift * ctx.apply_Er(z) + ctx.apply_Ar(z))
        assert np.linalg.norm(r) <= 1e-13 * np.linalg.norm(w)

import numpy as np
import pytest
import scipy.sparse as sp

from mqsmor.assembly import (
    C_LOCAL,
    MaterialSpec,
    WindingSpec,
    _geometry_from_coords,
    assemble_edge_mass,
    assemble_face_mass,
    assemble_upsilon,
    build_system,
    element_curl_curl,
    element_edge_mass,
    element_face_mass,
)
from mqsmor.lacore import is_positive_definite
from mqsmor.mesh import (
    AIR,
    COIL,
    IRON,
    TET_EDGE_PAIRS,
    TET_FACE_TRIPLES,
    GeometrySpec,
    build_incidence,
    eliminate_boundary,
    generate_mesh,
)


def random_tet(rng):
    p = rng.standard_normal((4, 3))
    if np.linalg.det(p[1:] - p[0]) < 0:
        p[[2, 3]] = p[[3, 2]]
    return p


def lam_integrals(vol):
    """Exact integrals of lam_a lam_b over a tet: V (1 + delta_ab) / 20."""
    return (np.ones((4, 4)) + np.eye(4)) * vol / 20.0


def symbolic_edge_mass(p):
    vol, g = _geometry_from_coords(p[None])
    vol, g = vol[0], g[0]
    li = lam_integrals(vol)
    m = np.zeros((6, 6))
    for i, (a, b) in enumerate(TET_EDGE_PAIRS):
        for j, (c, d) in enumerate(TET_EDGE_PAIRS):
            m[i, j] = ((g[b] @ g[d]) * li[a, c] - (g[b] @ g[c]) * li[a, d]
                       - (g[a] @ g[d]) * li[b, c] + (g[a] @ g[c]) * li[b, d])
    return m


def symbolic_face_mass(p):
    vol, g = _geometry_from_coords(p[None])
    vol, g = vol[0], g[0]
    li = lam_integrals(vol)
    cr = {(a, b): np.cross(g[a], g[b]) for a in range(4) for b in range(4)}
    m = np.zeros((4, 4))
    for i, fa in enumerate(TET_FACE_TRIPLES):
        for j, fb in enumerate(TET_FACE_TRIPLES):
            s = 0.0
            for (a, b, c) in [(fa[0], fa[1], fa[2]), (fa[1], fa[2], fa[0]),
                              (fa[2], fa[0], fa[1])]:
                for (d, e, f) in [(fb[0], fb[1], fb[2]), (fb[1], fb[2], fb[0]),
                                  (fb[2], fb[0], fb[1])]:
                    s += (cr[b, c] @ cr[e, f]) * li[a, d]
            m[i, j] = 4.0 * s
    return m


def symbolic_face_moment(p):
    """Exact integral of each Whitney 2-form over a tet (uses int lam = V/4)."""
    vol, g = _geometry_from_coords(p[None])
    vol, g = vol[0], g[0]
    out = np.zeros((4, 3))
    for i, (a, b, c) in enumerate(TET_FACE_TRIPLES):
        out[i] = 2.0 * (np.cross(g[b], g[c]) + np.cross(g[c], g[a])
                        + np.cross(g[a], g[b])) * vol / 4.0
    return out


def test_element_edge_mass_symbolic():
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = random_tet(rng)
        me = element_edge_mass(p[None])[0]
        assert np.allclose(me, symbolic_edge_mass(p), rtol=1e-12,
                           atol=1e-14 * np.abs(me).max())


def test_element_face_mass_symbolic():
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = random_tet(rng)
        mf = element_face_mass(p[None])[0]
        assert np.allclose(mf, symbolic_face_mass(p), rtol=1e-12,
                           atol=1e-14 * np.abs(mf).max())


def test_discrete_curl_compatibility_20_random_tets():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = random_tet(rng)
        kc = element_curl_curl(p[None])[0]
        via_c = C_LOCAL.T @ element_face_mass(p[None])[0] @ C_LOCAL
        assert np.allclose(kc, via_c, rtol=1e-12, atol=1e-12 * np.abs(kc).max())


def small_complex():
    mesh = generate_mesh(GeometrySpec(c1=0.5, c2=0.5, c3=0.5, resolution=3))
    inc = eliminate_boundary(build_incidence(mesh), mesh)
    return mesh, inc


def test_zero_conductivity_gives_zero_mass():
    mesh, inc = small_complex()
    m = assemble_edge_mass(mesh, inc, [0.0, 0.0, 0.0])
    assert m.nnz == 0


def test_face_mass_linearity_in_nu():
    mesh, inc = small_complex()
    m1 = assemble_face_mass(mesh, inc, [1.0, 1.0, 1.0])
    m2 = assemble_face_mass(mesh, inc, [2.0, 2.0, 2.0])
    assert np.allclose((2 * m1 - m2).toarray(), 0.0)


class _StubWinding:
    def __init__(self, value):
        self.value = value

    def psi(self, pts):
        return np.full(np.atleast_2d(pts).shape[0], self.value)


def test_upsilon_zero_stream_function():
    mesh, inc = small_complex()
    ups = assemble_upsilon(mesh, inc, [_StubWinding(0.0)])
    assert ups.nnz == 0


def test_upsilon_constant_field_matches_symbolic_moment():
    mesh, inc = small_complex()
    c = 2.5
    ups = assemble_upsilon(mesh, inc, [_StubWinding(c)]).toarray().ravel()
    expected = np.zeros(mesh.n_faces)
    for t in range(mesh.tets.shape[0]):
        p = mesh.nodes[mesh.tets_sorted[t]]
        mom = symbolic_face_moment(p)
        for lf, f in enumerate(mesh.tet_face_ids[t]):
            expected[f] += c * mom[lf, 2]
    assert np.allclose(ups, expected, rtol=1e-12, atol=1e-13 * np.abs(expected).max())


def test_material_spec_validation():
    with pytest.raises(ValueError):
        MaterialSpec(sigma1=-1.0, nu_iron=1.0, nu_air=1.0, R=np.eye(1))
    with pytest.raises(ValueError):
        MaterialSpec(sigma1=1.0, nu_iron=1.0, nu_air=1.0, R=np.array([[-1.0]]))


def test_winding_chi_support_and_magnitude(desk):
    wind = desk.config.winding
    rng = np.random.default_rng(3)
    # inside the coil shell: |chi| = turns / cross_section
    r_mid = 0.5 * (wind.r3 + wind.r4)
    pts_in = np.stack([np.full(20, r_mid), rng.uniform(-0.002, 0.002, 20),
                       rng.uniform(wind.z3 + 1e-4, wind.z4 - 1e-4, 20)], axis=1)
    chi = wind.chi(pts_in)
    assert np.allclose(np.linalg.norm(chi, axis=1), wind.slope)
    # outside: exactly zero
    pts_out = np.stack([rng.uniform(-wind.r3 / 2, wind.r3 / 2, 30),
                        rng.uniform(-wind.r3 / 2, wind.r3 / 2, 30),
                        rng.uniform(-0.05, 0.05, 30)], axis=1)
    assert np.all(wind.chi(pts_out) == 0.0)


def test_build_system_desk_invariants(desk):
    sysm = desk.system
    # M11 SPD is asserted in build_system; K symmetric PSD by construction
    k = sysm.K()
    sym = (k - k.T)
    sym.eliminate_zeros()
    asym = np.abs(sym.toarray()).max() if sym.nnz else 0.0
    assert asym <= 1e-12 * np.abs(k.toarray()).max()
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = rng.standard_normal(k.shape[0])
        assert x @ (k @ x) >= -1e-10 * np.abs(k).max() * (x @ x)
    # X = C^T Upsilon exactly by construction
    x2 = (sysm.C.T @ sysm.Upsilon) - sysm.X
    x2.eliminate_zeros()
    assert x2.nnz == 0
    # Mnu SPD at desk scale: smallest eigenvalue > 0 (shift-invert Lanczos)
    lam_min = sp.linalg.eigsh(sysm.Mnu, k=1, sigma=0.0, which="LM",
                              return_eigenvectors=False)[0]
    assert lam_min > 0
    # Upsilon full column rank
    assert np.linalg.matrix_rank(sysm.Upsilon.toarray()) == sysm.m


def test_face_mass_dense_eig_small_complex():
    mesh, inc = small_complex()
    mnu = assemble_face_mass(mesh, inc, [1.0, 3.0, 2.0])
    w = np.linalg.eigvalsh(mnu.toarray())
    assert w.min() > 0


def test_x1_block_vanishes_on_separated_geometry(desk):
    sysm = desk.system
    x1 = np.abs(sysm.X1.toarray()).max() if sysm.X1.nnz else 0.0
    x2 = np.abs(sysm.X2.toarray()).max()
    assert x1 <= 1e-12 * x2


def test_toy_products():
    c = sp.csr_matrix(np.array([[1.0, 1.0]]))
    mnu = sp.csr_matrix(np.array([[2.0]]))
    k = (c.T @ (mnu @ c)).toarray()
    assert np.array_equal(k, [[2.0, 2.0], [2.0, 2.0]])
    ups = sp.csr_matrix(np.array([[1.0]]))
    x = (c.T @ ups).toarray()
    assert np.array_equal(x, [[1.0], [1.0]])


def test_edge_mass_conducting_block_spd(desk):
    m11 = desk.system.M11.toarray()
    np.linalg.cholesky(m11)   # raises if not SPD
    assert is_positive_definite(desk.system.M11)


def _doctored_edge_mass(doctor):
    """assemble_edge_mass with ``doctor`` applied to the matrix it returns."""
    def assemble(mesh, inc, sigma_by_region):
        m = assemble_edge_mass(mesh, inc, sigma_by_region).tolil()
        doctor(m)
        return m.tocsr()
    return assemble


def _couple_to_nonconducting_edge(m):
    # edge 5 conducts; the last edge, in the n2 block, does not
    m[5, -1] = m[-1, 5] = 1.0


def test_build_system_rejects_mass_outside_conducting_block(desk, monkeypatch):
    import mqsmor.assembly as assembly
    monkeypatch.setattr(assembly, "assemble_edge_mass",
                        _doctored_edge_mass(_couple_to_nonconducting_edge))
    with pytest.raises(ValueError, match="outside the conducting block"):
        build_system(desk.mesh, desk.inc, desk.config.material, desk.config.winding)


def _negate_diagonal(m):
    m[5, 5] = -m[5, 5]


def _zero_row_and_column(m):
    m[5, :] = 0.0
    m[:, 5] = 0.0


@pytest.mark.parametrize("doctor", [_negate_diagonal, _zero_row_and_column],
                         ids=["indefinite", "singular"])
def test_build_system_rejects_m11_not_positive_definite(desk, monkeypatch, doctor):
    import mqsmor.assembly as assembly
    monkeypatch.setattr(assembly, "assemble_edge_mass", _doctored_edge_mass(doctor))
    with pytest.raises(ValueError, match="M11 is not positive definite"):
        build_system(desk.mesh, desk.inc, desk.config.material, desk.config.winding)

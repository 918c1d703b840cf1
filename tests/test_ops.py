import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import mqsmor.ops as ops
from mqsmor.assembly import MaterialSpec, WindingSpec, build_system
from mqsmor.lacore import Factorization, SingularMatrixError, factorize, lanczos_extremal
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
    (SingularMatrixError("singular matrix: Factor is exactly singular"), RuntimeError),
    (MemoryError("Unable to allocate"), MemoryError),
])
def test_shifted_lu_reports_only_singularity(toy, monkeypatch, error, expected):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(ops, "factorize", failing)
    with pytest.raises(expected) as info:
        toy[3].shifted_lu(-1.0)
    assert ("singular bordered matrix" in str(info.value)) == (expected is RuntimeError)


def test_bordered_matrix_is_symmetric(toy, synthetic, desk):
    """With its winding rows divided by the shift, the bordered matrix is
    symmetric, real or complex: its winding rows equal its winding columns
    exactly, and the rest up to the rounding of the sparse products
    C^T M_nu C.  Shift 0 lies on the spectrum."""
    for ctx in (toy[3], synthetic[3], desk.ctx):
        r = ctx.rsys
        winding = np.arange(r.n1 + r.n2, r.n1 + r.n2 + r.m)
        for shift in (-1.0, -3.7e5, 2.5j, -1e-3 + 1e6j):
            mat = ctx._bordered(shift)
            assert (mat[winding] != mat[:, winding].T).nnz == 0
            assert abs(mat - mat.T).max() <= 2 * np.finfo(float).eps * abs(mat).max()
        with pytest.raises(RuntimeError, match="shift 0"):
            ctx.shifted_lu(0.0)


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


# The worst relative residuals over a default `mqsmor all` run are 3.4e-13
# for shifted solves and 2.3e-16 for M11 / Lemma-2 solves; random right-hand
# sides at the smallest Wachspress shift reach 2e-10 (the rounding floor in
# the test above).  SOLVE_RESIDUAL_FLOOR = 1e-8 sits 50x above the worst of
# these and below the 7.5e-7 that a solve at the shift +b reaches.


def test_desk_shifted_solve_refuses_shift_on_spectrum(desk):
    """+b, the Lanczos bound, is a shift on the spectrum of the pencil: its
    LU factors, but the refined solve stops at a relative residual of
    7.5e-7 and is refused.  +a, the other bound, still solves to 1.5e-10."""
    ctx, sb = desk.ctx, desk.bounds
    w = ctx.B_r
    with pytest.raises(RuntimeError, match=re.escape(
            f"shifted solve at shift {sb.b}: relative residual ")):
        ctx.shifted_solve(sb.b, w)
    z = ctx.shifted_solve(sb.a, w)
    r = w - (sb.a * ctx.apply_Er(z) + ctx.apply_Ar(z))
    assert np.linalg.norm(r) <= 1e-9 * np.linalg.norm(w)


def test_synthetic_shifted_solve_refuses_shift_on_spectrum(synthetic):
    """At tau = -lambda for the synthetic system's one finite eigenvalue
    lambda, and 1e-12 or 1e-9 relative away from it, the bordered matrix
    factors but no solve reaches the floor; at twice that shift it does."""
    _, _, rsys, ctx, oracle = synthetic
    lam = float(oracle.finite_eigenvalues()[0][0])
    w = ctx.B_r
    for tau in (-lam, -lam * (1 + 1e-12), -lam * (1 + 1e-9)):
        with pytest.raises(RuntimeError, match=re.escape(
                f"shifted solve at shift {tau}: relative residual ")):
            ctx.shifted_solve(tau, w)
    z = ctx.shifted_solve(-2 * lam, w)
    r = w - (-2 * lam * rsys.apply_Er(z) + rsys.apply_Ar(z))
    assert np.linalg.norm(r) <= 1e-13 * np.linalg.norm(w)


@pytest.mark.parametrize("other", [-1.5, -100.0])
def test_shifted_solve_refuses_lu_of_another_shift(toy, synthetic, other):
    """Refinement with the LU of another shift leaves a residual far above
    the floor after SHIFT_REFINE_STEPS steps, and the solve is refused."""
    for ctx in (toy[3], synthetic[3]):
        w = np.ones(ctx.rsys.n_r)
        with pytest.raises(RuntimeError, match=r"shifted solve at shift -1\.0: "
                           r"relative residual \S+ above the floor 1e-08"):
            ctx.shifted_solve(-1.0, w, ctx.shifted_lu(other))


def count_lu_solves(monkeypatch):
    """Patch ``Factorization.solve`` to count its calls; returns the count."""
    calls = [0]
    solve = Factorization.solve

    def counting(self, b):
        calls[0] += 1
        return solve(self, b)

    monkeypatch.setattr(Factorization, "solve", counting)
    return calls


def test_shifted_solve_returns_a_start_that_meets_the_target(toy, synthetic, monkeypatch):
    """A start whose residual meets SHIFT_RESIDUAL_TARGET comes back as it
    is: no LU is built and the LU passed in solves nothing.  ``resid_out``
    receives its residual."""
    for ctx in (toy[3], synthetic[3]):
        w = np.linspace(1.0, 2.0, ctx.rsys.n_r)
        z = ctx.shifted_solve(-1.5, w)
        r = w - (-1.5 * ctx.apply_Er(z) + ctx.apply_Ar(z))
        assert np.linalg.norm(r) <= ops.SHIFT_RESIDUAL_TARGET * np.linalg.norm(w)
        lu = ctx.shifted_lu(-1.5)
        calls = count_lu_solves(monkeypatch)
        monkeypatch.setattr(ops, "factorize", None)     # building an LU fails
        resid = np.full_like(w, np.nan)
        for given in (None, lu):
            assert ctx.shifted_solve(-1.5, w, given, z, resid_out=resid) is z
            assert np.array_equal(resid, r)
        assert calls[0] == 0
        monkeypatch.undo()


@pytest.mark.parametrize("scale", [-10.0, 3.0, np.nan])
def test_shifted_solve_discards_a_start_worse_than_zero(toy, synthetic, desk, scale):
    """A start whose residual is not below ||w|| (the solution times -10 or
    3, or NaN) is discarded: the result equals that of a solve without a
    start bit for bit."""
    cases = [(toy[3], -1.5), (synthetic[3], -1.5), (desk.ctx, -3750.0)]
    for ctx, shift in cases:
        w = np.linspace(1.0, 2.0, ctx.rsys.n_r)
        lu = ctx.shifted_lu(shift)
        plain = ctx.shifted_solve(shift, w, lu)
        start = scale * plain
        resid = np.empty_like(w)
        z = ctx.shifted_solve(shift, w, lu, start, resid_out=resid)
        assert np.array_equal(z, plain)
        assert np.array_equal(resid, w - (shift * ctx.apply_Er(z) + ctx.apply_Ar(z)))


def test_shifted_solve_from_a_start_refines_with_one_lu_solve(desk, monkeypatch):
    """A start with a residual between the target and ||w|| is refined.  At
    the default time step's shift, B_r solved plainly takes two LU solves;
    that solution perturbed by 1e-8 (residual 1.4e-8) takes one and meets
    the target."""
    ctx, shift, w = desk.ctx, -3750.0, desk.ctx.B_r[:, 0]
    lu = ctx.shifted_lu(shift)
    calls = count_lu_solves(monkeypatch)
    z = ctx.shifted_solve(shift, w, lu)
    assert calls[0] == 2
    start = z * (1.0 + 1e-8 * np.cos(np.arange(z.size)))
    zs = ctx.shifted_solve(shift, w, lu, start)
    assert calls[0] == 3
    r = w - (shift * ctx.apply_Er(zs) + ctx.apply_Ar(zs))
    assert np.linalg.norm(r) <= ops.SHIFT_RESIDUAL_TARGET * np.linalg.norm(w)
    assert np.linalg.norm(zs - z) <= 1e-10 * np.linalg.norm(z)


def test_shifted_solve_from_a_start_refuses_shift_next_to_spectrum(synthetic):
    """A start with half of w's residual, at a shift 1e-9 relative from the
    synthetic system's finite eigenvalue, is refined but not to the floor:
    the solve is refused as one without a start is."""
    _, _, rsys, ctx, oracle = synthetic
    lam = float(oracle.finite_eigenvalues()[0][0])
    tau = -lam * (1 + 1e-9)
    w = ctx.B_r[:, 0]
    start = 0.5 * np.linalg.solve(tau * oracle.E_dense + oracle.A_dense, w)
    r0 = w - (tau * rsys.apply_Er(start) + rsys.apply_Ar(start))
    assert 0.1 < np.linalg.norm(r0) / np.linalg.norm(w) < 0.9
    with pytest.raises(RuntimeError, match=re.escape(
            f"shifted solve at shift {tau}: relative residual ")):
        ctx.shifted_solve(tau, w, start=start)


@pytest.mark.parametrize("which", [0, 1])
def test_context_solve_refuses_wrong_lu(synthetic, which):
    """An M11 or Lemma-2 solve whose LU is of twice the matrix ends one
    refinement step at a relative residual of 1/4 and is refused."""
    ctx = synthetic[3]
    v = np.ones(ctx.rsys.n_r)
    ctx.apply_EinvA(v)
    lus = list(ctx._context_lus())
    mat = ctx.rsys.M11 if which == 0 else ctx._lemma2_mat
    lus[which] = factorize(2.0 * mat, perm=lus[which].perm)
    ctx._lus = tuple(lus)
    name = ("M11", "Lemma-2")[which]
    with pytest.raises(RuntimeError, match=f"{name} solve: relative residual 2.500e-01"):
        ctx.apply_EinvA(v)


@pytest.mark.parametrize("shift", ["-b", "-1e6j"])
def test_desk_shifted_lu_keeps_no_csc_copies(desk, shift):
    """A shifted LU holds SuperLU's factor only.  Reading its pivots would
    make SciPy keep CSC copies of L and U: NumPy arrays of nnz(L+U) values
    and row indices, which tracemalloc sees (24 MiB at -b, 41 MiB at -1e6 i
    on the desk), while SuperLU's own storage is not traced.  Building the
    LU traces under 5 MiB of temporaries (the bordered matrix and its
    permuted copy); the bound is a quarter of the copies."""
    tau = -desk.bounds.b if shift == "-b" else -1e6j
    tracemalloc.start()
    try:
        lu = desk.ctx.shifted_lu(tau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    copies = lu._lu.nnz * (np.dtype(lu.dtype).itemsize + 4)
    assert peak <= copies / 4


_LIBC_PROBE = """
import ctypes, json, sys
import numpy, scipy.io, scipy.linalg, scipy.sparse.linalg
calls = []

class Libc:
    def __init__(self, name, *args, **kwargs):
        if sys.argv[1] == "glibc":
            self.malloc_trim = lambda pad: calls.append(["malloc_trim", pad])
            self.mallopt = lambda param, value: calls.append(["mallopt", param, value])

ctypes.CDLL = Libc
import mqsmor
from mqsmor import ops
ops.trim_heap()
print(json.dumps(calls))
"""


@pytest.mark.parametrize("libc", ["glibc", "bare"])
def test_heap_calls_follow_the_c_library(libc):
    """One lookup in the C library finds ``malloc_trim``: with it,
    ``trim_heap`` trims, and importing the package changes no heap setting;
    without it (a monkeypatched ``ctypes.CDLL``), the package imports and
    ``trim_heap`` does nothing."""
    src = os.path.dirname(os.path.dirname(ops.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _LIBC_PROBE, libc], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    calls = json.loads(out.stdout.strip().splitlines()[-1])
    assert calls == ([["malloc_trim", 0]] if libc == "glibc" else [])


def test_desk_spectral_bounds_bracket(desk):
    lam = desk.oracle.finite_eigenvalues()[0]
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
        mat = ctx._bordered(shift)
        assert fact._lu.nnz < factorize(mat)._lu.nnz
        w = ctx.B_r[:, 0]
        z = ctx.shifted_solve(shift, w)
        r = w - (shift * ctx.apply_Er(z) + ctx.apply_Ar(z))
        assert np.linalg.norm(r) <= 1e-13 * np.linalg.norm(w)

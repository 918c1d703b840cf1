import functools

import numpy as np
import pytest

import mqsmor.analysis as analysis
import mqsmor.ops as ops
from mqsmor.analysis import (
    frequency_response,
    passivity_scan,
    simulate,
    simulate_compare,
    transfer_full,
    transfer_reduced,
)
from mqsmor.assembly import MaterialSpec, WindingSpec, build_system
from mqsmor.lacore import Factorization
from mqsmor.mesh import AIR, IRON, GeometrySpec, Mesh, build_incidence, eliminate_boundary, generate_mesh
from mqsmor.mor import ShiftSet, balanced_truncate, lr_adi
from mqsmor.ops import OperatorContext
from mqsmor.oracle import SparsePencil
from mqsmor.regularize import build_regularized, kernel_bases


def toy_model(ctx):
    shifts = ShiftSet(np.array([-2.0]), 0.0, (2.0, 2.0))
    zc = lr_adi(ctx, shifts, tol=1e-14, maxit=5)
    return balanced_truncate(ctx, zc, ell=1)


def test_transfer_at_zero_is_rinv(toy):
    _, _, rsys, ctx = toy
    h = transfer_full(ctx, 0j)
    assert np.allclose(h, rsys.Rinv)


def test_transfer_high_frequency_limit(toy):
    _, _, rsys, ctx = toy
    # E_r nonsingular on the toy: H(i w) -> R^{-1} - B^T E^{-1} B as w -> inf
    e = np.column_stack([rsys.apply_Er(np.eye(2)[:, i]) for i in range(2)])
    b = rsys.B_r()
    limit = rsys.Rinv - b.T @ np.linalg.solve(e, b)
    for w, tol in ((1e4, 1e-3), (1e6, 1e-5), (1e8, 1e-7)):
        assert abs(transfer_full(ctx, 1j * w)[0, 0] - limit[0, 0]) <= tol


def test_transfer_output_form_equivalence(synthetic):
    """H(s) from -s B^T (sE-A)^{-1} B + R^{-1} equals C_r (sE-A)^{-1} B."""
    _, _, rsys, ctx, _ = synthetic
    rng = np.random.default_rng(0)
    for _ in range(10):
        s = complex(rng.uniform(0.1, 1e3), rng.uniform(-1e4, 1e4))
        zb = ctx.shifted_solve(-s, ctx.B_r.astype(complex))
        h1 = s * (ctx.B_r.T @ zb) + rsys.Rinv
        h2 = ctx.apply_Cr(-zb)            # C_r (sE - A)^{-1} B
        assert np.abs(h1 - h2).max() <= 1e-9 * max(np.abs(h1).max(), 1e-300)


def test_transfer_reduced_toy_exact(toy):
    _, _, _, ctx = toy
    model = toy_model(ctx)
    for w in (0.0, 1.0, 300.0):
        hf = transfer_full(ctx, 1j * w)
        hr = transfer_reduced(model, 1j * w)
        assert np.abs(hf - hr).max() <= 1e-10
    assert transfer_reduced(model, 0j).real[0, 0] >= 0.0
    assert np.allclose(transfer_reduced(model, -5j),
                       np.conj(transfer_reduced(model, 5j)))


def test_conjugate_symmetry_full(toy):
    _, _, _, ctx = toy
    assert np.allclose(transfer_full(ctx, -7j), np.conj(transfer_full(ctx, 7j)))


def test_simulate_zero_input(toy):
    _, _, _, ctx = toy
    t, y = simulate(ctx, lambda t: np.zeros(1), 1.0, 20)
    assert np.all(y == 0.0)


def test_simulate_constant_input_steady_state(toy):
    _, _, rsys, ctx = toy
    u0 = 3.0
    t, y = simulate(ctx, lambda t: np.array([u0]), 50.0, 400)
    assert y[-1, 0] == pytest.approx((rsys.Rinv @ [u0])[0], rel=1e-6)


def test_simulate_reduced_matches_full_toy(toy):
    _, _, _, ctx = toy
    model = toy_model(ctx)
    u = lambda t: np.array([np.sin(3.0 * t)])
    sim = simulate_compare(ctx, model, u, 2.0, 100)
    assert sim.rel_error.max() <= 1e-9


def test_simulate_output_starts_at_zero_under_a_jump(toy):
    """A drive with u(0) = 2: both models report y_0 = 0 (x(0) = 0 and
    H(inf) = 0), and no later output depends on u(0): a drive that agrees
    for t > 0 but starts at 0 gives the same bits."""
    _, _, _, ctx = toy
    model = toy_model(ctx)
    jump = lambda t: np.array([2.0 + np.sin(3.0 * t)])
    smooth = lambda t: jump(t) if t > 0 else np.zeros(1)
    for system in (ctx, model):
        _, y = simulate(system, jump, 2.0, 50)
        _, y_smooth = simulate(system, smooth, 2.0, 50)
        assert np.all(y[0] == 0.0)
        assert np.array_equal(y, y_smooth)
    sim = simulate_compare(ctx, model, jump, 2.0, 50)
    assert sim.u[0, 0] == 2.0 and sim.rel_error[0] == 0.0


def test_simulate_validation(toy):
    _, _, _, ctx = toy
    with pytest.raises(ValueError):
        simulate(ctx, lambda t: np.zeros(1), -1.0, 10)
    with pytest.raises(ValueError):
        simulate(ctx, lambda t: np.zeros(2), 1.0, 10)


def test_implicit_euler_first_order(toy):
    _, _, _, ctx = toy
    u = lambda t: np.array([np.sin(5.0 * t)])
    t1, y1 = simulate(ctx, u, 1.0, 50)
    t2, y2 = simulate(ctx, u, 1.0, 100)
    t3, y3 = simulate(ctx, u, 1.0, 200)
    e1 = np.abs(y1[-1, 0] - y2[-1, 0])
    e2 = np.abs(y2[-1, 0] - y3[-1, 0])
    order = np.log2(e1 / e2)
    assert order >= 0.9


def test_output_form_equivalence_along_trajectory(synthetic):
    """y from the backward difference equals C_r x_k up to round-off."""
    _, _, rsys, ctx, _ = synthetic
    u = lambda t: np.array([np.cos(2.0 * t)])
    steps, t_final = 40, 2.0
    h = t_final / steps
    x = np.zeros(rsys.n_r)
    rinv = rsys.Rinv
    lu = ctx.shifted_lu(-1.0 / h)
    for k in range(1, steps + 1):
        uk = u(k * h)
        rhs = rsys.apply_Er(x) + h * (ctx.B_r @ uk)
        x_new = ctx.shifted_solve(-1.0 / h, -rhs / h, lu)
        y_bd = -ctx.B_r.T @ (x_new - x) / h + rinv @ uk
        y_cr = ctx.apply_Cr(x_new)
        assert np.abs(y_bd - y_cr).max() <= 1e-10 * max(np.abs(y_bd).max(), 1e-10)
        x = x_new


def plain_simulate(ctx, u, t_final, steps):
    """Outputs of the full-model implicit Euler with one plain
    ``shifted_solve`` per step, no start, on one LU; y_0 = 0."""
    rsys = ctx.rsys
    h = t_final / steps
    x = np.zeros(rsys.n_r)
    lu = ctx.shifted_lu(-1.0 / h)
    y = [np.zeros(rsys.m)]
    for k in range(1, steps + 1):
        uk = u(k * h)
        rhs = rsys.apply_Er(x) + h * (ctx.B_r @ uk)
        x_new = ctx.shifted_solve(-1.0 / h, -rhs / h, lu)
        y.append(-ctx.B_r.T @ (x_new - x) / h + rsys.Rinv @ uk)
        x = x_new
    return np.array(y)


def record_simulation(monkeypatch, ctx):
    """Record every ``shifted_solve`` of a simulation as (shift, w, z), the
    basis size after every ``_StateBasis.add`` and the number of LU
    solves."""
    solves, sizes, lu_calls = [], [], [0]
    solve, add, lu_solve = ctx.shifted_solve, analysis._StateBasis.add, Factorization.solve

    def recording_solve(shift, w, *args, **kwargs):
        z = solve(shift, w, *args, **kwargs)
        solves.append((shift, w.copy(), z.copy()))
        return z

    def recording_add(self, z, image):
        add(self, z, image)
        sizes.append(self.size)

    def counting(self, b):
        lu_calls[0] += 1
        return lu_solve(self, b)

    monkeypatch.setattr(ctx, "shifted_solve", recording_solve)
    monkeypatch.setattr(analysis._StateBasis, "add", recording_add)
    monkeypatch.setattr(Factorization, "solve", counting)
    return solves, sizes, lu_calls


def assert_certified(ctx, solves):
    for shift, w, z in solves:
        r = w - (shift * ctx.apply_Er(z) + ctx.apply_Ar(z))
        assert np.linalg.norm(r) <= ops.SHIFT_RESIDUAL_TARGET * np.linalg.norm(w)


def test_desk_simulate_from_earlier_states_matches_plain_solves(desk, monkeypatch):
    """200 desk steps started from the span of earlier states give the
    outputs of plain per-step solves to 1e-12 relative (2e-13 measured),
    every state meets the residual target, and the bordered LU solves 101
    times, where the plain loop solves 400 times; the basis stays within
    STATE_BASIS_CAP."""
    ctx, cfg = desk.ctx, desk.config
    u = lambda t: np.atleast_1d(cfg.drive(t))
    t_final = cfg["analysis.t_final"]
    y_plain = plain_simulate(ctx, u, t_final, 200)
    solves, sizes, lu_calls = record_simulation(monkeypatch, ctx)
    _, y = simulate(ctx, u, t_final, 200)
    monkeypatch.undo()
    assert np.abs(y - y_plain).max() <= 1e-12 * np.abs(y_plain).max()
    assert len(solves) == 200
    assert_certified(ctx, solves)
    assert lu_calls[0] <= 150
    assert 0 < max(sizes) <= analysis.STATE_BASIS_CAP


def test_simulate_basis_stops_at_the_cap(desk, monkeypatch):
    """With the cap lowered to 3, the desk basis fills to 3 and grows no
    further; the outputs still match plain solves and every state meets the
    residual target."""
    ctx = desk.ctx
    u = lambda t: np.array([np.cos(300.0 * t) + 0.3 * np.sin(2000.0 * t)])
    y_plain = plain_simulate(ctx, u, 0.02, 40)
    monkeypatch.setattr(analysis, "STATE_BASIS_CAP", 3)
    solves, sizes, _ = record_simulation(monkeypatch, ctx)
    _, y = simulate(ctx, u, 0.02, 40)
    monkeypatch.undo()
    assert np.abs(y - y_plain).max() <= 1e-12 * np.abs(y_plain).max()
    assert_certified(ctx, solves)
    assert sizes[:3] == [1, 2, 3] and max(sizes) == 3 and len(sizes) > 3


def test_simulate_within_a_small_state_space(synthetic, monkeypatch):
    """The synthetic system has one finite eigenvalue, so one kept state
    spans its trajectory: after the first step every start meets the
    target and no LU solves again."""
    ctx = synthetic[3]
    u = lambda t: np.array([np.cos(2.0 * t)])
    y_plain = plain_simulate(ctx, u, 2.0, 40)
    solves, sizes, lu_calls = record_simulation(monkeypatch, ctx)
    _, y = simulate(ctx, u, 2.0, 40)
    monkeypatch.undo()
    assert np.abs(y - y_plain).max() <= 1e-12 * np.abs(y_plain).max()
    assert_certified(ctx, solves)
    assert sizes == [1]
    assert lu_calls[0] <= ops.SHIFT_REFINE_STEPS + 1


def test_passivity_toy_real_axis(toy):
    _, _, rsys, ctx = toy
    h = functools.partial(transfer_full, ctx)
    for s in (1e-6, 1.0, 100.0):
        val = h(complex(s, 0.0))
        assert (val + np.conj(val).T).real.min() >= 0.0
    near_zero = h(complex(1e-9, 0.0))
    assert np.allclose(near_zero + np.conj(near_zero).T, 2 * rsys.Rinv, rtol=1e-6)


def test_passivity_scan_toy(toy):
    _, _, _, ctx = toy
    scan = passivity_scan(functools.partial(transfer_full, ctx), n_samples=20, seed=3)
    assert scan["pass"]
    model = toy_model(ctx)
    scan_r = passivity_scan(functools.partial(transfer_reduced, model), n_samples=20,
                            seed=3)
    assert scan_r["pass"]


def test_frequency_response_within_bound_desk(desk):
    model = desk.model
    omegas = np.geomspace(1e-4, 1e6, 25)
    fr = frequency_response(desk.ctx, model, omegas)
    assert np.all(fr.abs_error <= model.error_bound * (1 + 1e-9))
    # conjugate symmetry spot check
    hm = transfer_full(desk.ctx, -1j * omegas[5])
    assert np.allclose(hm, np.conj(fr.H_full[5]), rtol=1e-9)


# -- the sweep's certified Krylov space ---------------------------------------

def _rounding(ctx):
    """The rounding an independently computed H carries: a few eps of
    ||R^{-1}||, which the cancellation in R^{-1} + s B^T z exposes."""
    return 32 * np.finfo(float).eps * np.linalg.norm(ctx.rsys.Rinv, 2)


def _small_box(windings, r):
    """A resolution-4 unit box (n_r = 292) whose tets are iron with
    probability 1/4, driven by ``windings``."""
    base = generate_mesh(GeometrySpec(c1=0.5, c2=0.5, c3=0.5, resolution=4))
    rng = np.random.default_rng(4)
    regions = np.where(rng.random(base.tets.shape[0]) < 0.25, IRON, AIR).astype(np.int8)
    mesh = Mesh(nodes=base.nodes, tets=base.tets, regions=regions)
    inc = eliminate_boundary(build_incidence(mesh), mesh)
    material = MaterialSpec(sigma1=1.0, nu_iron=1.0, nu_air=2.0, R=r)
    system = build_system(mesh, inc, material, windings)
    return OperatorContext(build_regularized(system, kernel_bases(inc)))


def _coil(z3, z4):
    return WindingSpec(turns=10.0, cross_section=1.0, r3=0.25, r4=0.5, z3=z3, z4=z4)


def test_desk_sweep_is_certified_on_one_real_lu(desk, monkeypatch):
    """25 points from one real LU, each within its certificate of the LU
    value (up to that value's own rounding) and certified to 1e-3 of its
    error; no complex LU is built."""
    ctx, model = desk.ctx, desk.model
    omegas = np.geomspace(1e-4, 1e6, 25)
    dtypes = []
    factorize = ops.factorize

    def recorded(mat, *args, **kw):
        dtypes.append(mat.dtype)
        return factorize(mat, *args, **kw)

    monkeypatch.setattr(ops, "factorize", recorded)
    fr = frequency_response(ctx, model, omegas)
    assert dtypes == [np.float64]
    assert fr.lu_points == 0 and fr.basis_size <= analysis.KRYLOV_BASIS_CAP
    assert fr.shift == analysis.krylov_shift(model) < 0
    assert np.all(fr.h_bound <= analysis.CERTIFY_RATIO * fr.abs_error)
    monkeypatch.undo()
    for w, hk, bound in zip(omegas, fr.H_full, fr.h_bound):
        true = np.linalg.norm(hk - transfer_full(ctx, 1j * w), 2)
        assert true <= bound + _rounding(ctx)


def test_points_past_the_cap_take_the_lu_path(desk, monkeypatch):
    """With a 20-vector cap some points stay uncertified: their values are
    ``transfer_full``'s, bit for bit, with a NaN bound."""
    monkeypatch.setattr(analysis, "KRYLOV_BASIS_CAP", 20)
    omegas = np.array([1e-4, 1e2, 1e4, 1e6])
    fr = frequency_response(desk.ctx, desk.model, omegas)
    lu = np.isnan(fr.h_bound)
    assert fr.basis_size == 20 and 0 < fr.lu_points < len(omegas)
    for w, hk, on_lu in zip(omegas, fr.H_full, lu):
        if on_lu:
            assert np.array_equal(hk, transfer_full(desk.ctx, 1j * w))


@pytest.mark.parametrize("windings,r", [
    ([_coil(-0.25, 0.25)], [[1.0]]),
    ([_coil(-0.25, 0.0), _coil(0.0, 0.25)], [[1.0, 0.0], [0.0, 1.5]]),
], ids=["m1", "m2"])
def test_krylov_bound_holds_at_small_k(windings, r):
    """At k = m ... m + 6 vectors the bound covers the true error, which is
    far above rounding, below, at and above the shift."""
    ctx = _small_box(windings, r)
    space = analysis._KrylovSpace(ctx, -300.0)
    omegas = np.array([1.0, 300.0, 1e5])
    for _ in range(7):
        vals = [space.galerkin(w) for w in omegas]
        bounds = space.bounds(omegas, [y for _, y in vals])
        for w, (hk, _), bound in zip(omegas, vals, bounds):
            true = np.linalg.norm(hk - transfer_full(ctx, 1j * w), 2)
            assert true <= bound + _rounding(ctx)
        space.grow(1)
    assert space.size == ctx.rsys.m + 7


def test_krylov_bound_is_the_hermitian_lambda_max():
    """m = 2: the bound is sqrt(2) max(|w|, |tau|) lambda_max(R^* K0^{-1} R)
    with K0 = |tau| E_r - A_r, the residual R = B_r - (A_r - i w E_r) V y and
    K0 applied densely."""
    ctx = _small_box([_coil(-0.25, 0.0), _coil(0.0, 0.25)], [[1.0, 0.0], [0.0, 1.5]])
    tau = -300.0
    space = analysis._KrylovSpace(ctx, tau)
    space.grow(4)
    pencil = SparsePencil.of(ctx.rsys)
    e, a = pencil.dense_E(), pencil.dense_A()
    v = space.V[:space.size].T
    for w in (1.0, 300.0, 1e5):
        _, y = space.galerkin(w)
        resid = ctx.B_r - (a - 1j * w * e) @ (v @ y)
        g = resid.conj().T @ np.linalg.solve(-tau * e - a, resid)
        lam = np.linalg.eigvalsh(0.5 * (g + g.conj().T)).max()
        assert abs(g[0, 1]) > 1e-3 * lam            # the off-diagonal counts
        expect = np.sqrt(2) * max(w, -tau) * lam
        assert space.bounds(np.array([w]), [y])[0] == pytest.approx(expect, rel=1e-8)


def test_synthetic_space_exhausts_and_is_exact(synthetic):
    """The synthetic system's Krylov space is invariant after one vector;
    H_k then equals the dense H(i w), and the bound is at rounding level."""
    _, _, rsys, ctx, oracle = synthetic
    space = analysis._KrylovSpace(ctx, -1.0)
    space.grow(10)
    assert space.exhausted and space.size == 1
    e, a, b = oracle.E_dense, oracle.A_dense, ctx.B_r
    omegas = np.array([1e-3, 1.0, 1e3])
    vals = [space.galerkin(w) for w in omegas]
    for w, (hk, _) in zip(omegas, vals):
        exact = 1j * w * (b.T @ np.linalg.solve(a - 1j * w * e, b)) + rsys.Rinv
        assert np.abs(hk - exact).max() <= _rounding(ctx)
    assert np.all(space.bounds(omegas, [y for _, y in vals]) <= 1e-25)

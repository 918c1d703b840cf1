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
from mqsmor.lacore import Factorization
from mqsmor.mor import ShiftSet, balanced_truncate, lr_adi


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
    assert sim.max_rel_error <= 1e-9


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
    ``shifted_solve`` per step, no start, on one LU."""
    rsys = ctx.rsys
    h = t_final / steps
    x = np.zeros(rsys.n_r)
    lu = ctx.shifted_lu(-1.0 / h)
    y = [rsys.Rinv @ u(0.0)]
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

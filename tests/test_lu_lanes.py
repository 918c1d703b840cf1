"""Shifted-LU lifetimes: every LU is built and freed on the calling thread
and lives no longer than its caller holds it.  LR-ADI keeps one LU per
shift over its shift cycles and drops them all when it returns or raises;
its result equals that of a fresh LU at every step bit for bit.  Each stage
builds only the LUs it solves with, and the context's M11 and Lemma-2 LUs
are built on first use.  (The file and several of its tests keep the names
they had when LR-ADI's look-ahead LUs ran on worker threads, its "lanes",
so that the ids of the tests stay; they now check that LR-ADI starts no
such thread and leaves no LU behind.)"""

import os
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest

import mqsmor.ops as ops
from mqsmor.analysis import simulate
from mqsmor.config import RunConfig
from mqsmor.lacore import SingularMatrixError, factorize
from mqsmor.mor import ShiftSet, lr_adi
from mqsmor.ops import OperatorContext
from mqsmor.pipeline import run_pipeline


# the synthetic system has one finite eigenvalue, near -1.1; these shifts
# are far from it, so LR-ADI needs many steps
SLOW = ShiftSet(np.array([-5.0, -9.0]), 0.5, (5.0, 9.0))


def track_factorize(monkeypatch, fail_on=None, error=None):
    """Patch ``ops.factorize`` to record, per LU, the thread that built it,
    the thread that freed it (None while it is alive), how many LUs were
    alive with it when it was built and whether it is complex.  A call on
    the matrix ``fail_on`` builds its LU, keeps it in a local and raises
    ``error`` while that LU is alive."""
    records = []

    def tracking(mat, *args, **kwargs):
        alive = sum(rec["freed"] is None for rec in records)
        fact = factorize(mat, *args, **kwargs)
        rec = {"built": threading.get_ident(), "freed": None, "alive": alive + 1,
               "complex": np.iscomplexobj(mat)}

        def freed():
            rec["freed"] = threading.get_ident()

        weakref.finalize(fact, freed)
        records.append(rec)
        if fail_on is not None and np.array_equal(mat.toarray(), fail_on):
            raise error
        return fact

    monkeypatch.setattr(ops, "factorize", tracking)
    return records


def assert_freed_on_calling_thread(records):
    main = threading.get_ident()
    assert records
    assert all(rec["built"] == rec["freed"] == main for rec in records)


def serial_lr_adi(ctx, shifts, **kwargs):
    """``lr_adi`` with every step's ``shifted_solve(tau, w)`` building its
    own LU; the LUs ``lr_adi`` keeps go unused."""
    solve = ctx.shifted_solve
    ctx.shifted_solve = lambda tau, w, lu: solve(tau, w)
    try:
        return lr_adi(ctx, shifts, **kwargs)
    finally:
        del ctx.shifted_solve


def test_shifted_lus_live_only_while_their_caller_holds_them(toy, monkeypatch):
    """A solve without an LU builds one and frees it on return, and
    ``simulate`` builds one LU for all its steps: no two LUs are ever alive
    together, and each is freed on the thread that built it."""
    records = track_factorize(monkeypatch)
    ctx, w = toy[3], np.array([1.0, 1.0])
    for shift in (-1.0, -1.0, -2.0, 3j):
        ctx.shifted_solve(shift, w)
    simulate(ctx, lambda t: [1.0], 0.7, 7)
    assert len(records) == 5
    assert max(rec["alive"] for rec in records) == 1
    assert all(rec["freed"] == rec["built"] for rec in records)


def test_context_lus_built_on_first_use(desk, monkeypatch):
    """A new context factors nothing; its first ``apply_EinvA`` builds the
    M11 and Lemma-2 LUs once each, on the calling thread, and later products
    reuse them.  The products equal those of a context built earlier."""
    v = np.random.default_rng(5).standard_normal(desk.rsys.n_r)
    einv_a, pi_inf = desk.ctx.apply_EinvA(v), desk.ctx.apply_Pi_inf(v)
    records = track_factorize(monkeypatch)
    ctx = OperatorContext(desk.rsys)
    assert records == []
    first = ctx.apply_EinvA(v)
    assert len(records) == 2
    assert all(rec["built"] == threading.get_ident() for rec in records)
    assert np.array_equal(first, einv_a)
    assert np.array_equal(ctx.apply_Pi_inf(v), pi_inf)
    assert np.array_equal(ctx.apply_EinvA(v), first)
    assert len(records) == 2


@pytest.fixture(scope="module")
def desk_reduced(tmp_path_factory):
    """A run directory holding the desk's ``reduce`` artifacts, and a config
    with a 3-point sweep and 4 time steps."""
    cfg = RunConfig({"analysis.freq_points": 3, "analysis.steps": 4})
    out = tmp_path_factory.mktemp("lanes") / "run"
    run_pipeline(cfg, "reduce", out_dir=str(out))
    return cfg, out


@pytest.mark.parametrize("stage,complex_lus,real_lus", [
    ("freqresp", 0, 1),
    ("simulate", 0, 1),
])
def test_desk_stage_builds_only_its_shifted_lus(desk_reduced, monkeypatch, stage,
                                                complex_lus, real_lus):
    """``freqresp`` (its Krylov space) and ``simulate`` build one real LU
    each; neither factors the context's M11 or Lemma-2 matrix."""
    cfg, out = desk_reduced
    records = track_factorize(monkeypatch)
    run_pipeline(cfg, stage, out_dir=str(out))
    assert sum(rec["complex"] for rec in records) == complex_lus
    assert sum(not rec["complex"] for rec in records) == real_lus
    assert max(rec["alive"] for rec in records) == 1


def _desk_lr_adi(desk):
    cfg = desk.config
    return lr_adi(desk.ctx, desk.shifts, tol=cfg["mor.tol_adi"], maxit=cfg["mor.maxit_adi"])


def test_desk_lr_adi_keeps_one_lu_per_shift(desk, monkeypatch):
    """The desk's four shifts, cycled to the tolerance, are factored once
    each on the calling thread; all four are dropped when ``lr_adi``
    returns."""
    records = track_factorize(monkeypatch)
    zc = _desk_lr_adi(desk)
    assert zc.status == "converged" and zc.iterations > 2 * len(desk.shifts)
    assert len(records) == len(desk.shifts) == 4
    assert max(rec["alive"] for rec in records) <= len(desk.shifts)
    assert not any(rec["complex"] for rec in records)
    assert_freed_on_calling_thread(records)


def test_desk_lr_adi_drops_its_lus_when_a_solve_raises(desk, monkeypatch):
    """A solve that fails in the second shift cycle, inside
    ``shifted_solve``, whose frame holds a kept LU: the error reaches the
    caller, and every LU is freed."""
    records = track_factorize(monkeypatch)
    raw = desk.ctx._shifted_solve_raw
    calls = []

    def failing(w, fact):
        calls.append(1)
        if len(calls) == 2 * len(desk.shifts) + 3:
            raise ArithmeticError("solve failed")
        return raw(w, fact)

    monkeypatch.setattr(desk.ctx, "_shifted_solve_raw", failing)
    with pytest.raises(ArithmeticError, match="solve failed"):
        _desk_lr_adi(desk)
    assert len(records) == len(desk.shifts)
    assert_freed_on_calling_thread(records)


def test_lanes_equal_serial_loop_on_desk(desk, monkeypatch):
    """Reusing a shift's LU gives the bits of a solve that builds its own."""
    fresh = serial_lr_adi(desk.ctx, desk.shifts, tol=desk.config["mor.tol_adi"],
                          maxit=desk.config["mor.maxit_adi"])
    records = track_factorize(monkeypatch)
    kept = _desk_lr_adi(desk)
    assert len(records) == len(desk.shifts)
    assert fresh.status == kept.status == "converged"
    assert np.array_equal(fresh.Z, kept.Z)
    assert np.array_equal(fresh.history, kept.history)


def test_one_cycle_shifts_keep_no_lu(synthetic, monkeypatch):
    """With ``rho <= tol`` one cycle is predicted to converge, so no shift
    is kept for another cycle: at most one LU is alive, also past the cycle."""
    ctx = synthetic[3]
    records = track_factorize(monkeypatch)
    shifts = ShiftSet(np.array([-5.0, -9.0]), 1e-31, (5.0, 9.0))
    zc = lr_adi(ctx, shifts, tol=1e-30, maxit=7)
    assert zc.status == "maxit" and zc.iterations == 7
    assert len(records) == 7
    assert max(rec["alive"] for rec in records) == 1
    assert_freed_on_calling_thread(records)


def test_converged_early_frees_unused_lookahead_on_lanes(synthetic, monkeypatch):
    """A run that converges at its first step builds the LU of that step
    only, none ahead for the other shifts, and frees it."""
    ctx = synthetic[3]
    records = track_factorize(monkeypatch)
    shifts = ShiftSet(np.array([-1.1005291005291007, -2.0, -3.0]), 0.5, (1.1, 3.0))
    zc = lr_adi(ctx, shifts, tol=1e-12, maxit=80)
    assert zc.status == "converged" and zc.iterations == 1
    assert len(records) == zc.iterations
    assert_freed_on_calling_thread(records)


def test_maxit_frees_every_lu_on_its_lane(synthetic, monkeypatch):
    """Stopped by ``maxit`` in its second cycle, LR-ADI has built one LU per
    shift, kept both, and frees both."""
    ctx = synthetic[3]
    records = track_factorize(monkeypatch)
    zc = lr_adi(ctx, SLOW, tol=1e-30, maxit=4)
    assert zc.status == "maxit" and zc.iterations == 4
    assert len(records) == len(SLOW.shifts) == 2
    assert max(rec["alive"] for rec in records) == 2
    assert_freed_on_calling_thread(records)


@pytest.mark.parametrize("error,expected", [
    (SingularMatrixError("singular matrix: Factor is exactly singular"), RuntimeError),
    (MemoryError("Unable to allocate"), MemoryError),
])
def test_error_at_third_shift_frees_lus_and_lanes(synthetic, monkeypatch, error, expected):
    """An LU that fails at the third shift, while it and the two kept LUs
    are alive: the error reaches the caller and all three are freed.  The
    context stays usable: a second run on it completes."""
    ctx = synthetic[3]
    shifts = ShiftSet(np.array([-5.0, -7.0, -9.0]), 0.5, (5.0, 9.0))
    third = ctx._bordered(-9.0).toarray()
    records = track_factorize(monkeypatch, fail_on=third, error=error)
    with pytest.raises(expected) as info:
        lr_adi(ctx, shifts, tol=1e-30, maxit=10)
    if expected is RuntimeError:
        assert str(info.value) == "singular bordered matrix at shift -9.0"
    else:
        assert info.value is error
    assert len(records) == 3
    assert_freed_on_calling_thread(records)
    records = track_factorize(monkeypatch)
    zc = lr_adi(ctx, SLOW, tol=1e-30, maxit=6)
    assert zc.status == "maxit" and zc.iterations == 6
    assert len(records) == 2
    assert_freed_on_calling_thread(records)


def test_error_in_lane_solve_frees_lu_on_its_lane(synthetic, monkeypatch):
    """A solve that fails after its LU was built: the error reaches the
    caller without the LU, which is freed on the calling thread."""
    ctx = synthetic[3]
    records = track_factorize(monkeypatch)

    def failing(w, fact):
        raise ArithmeticError("solve failed")

    monkeypatch.setattr(ctx, "_shifted_solve_raw", failing)
    with pytest.raises(ArithmeticError, match="solve failed"):
        lr_adi(ctx, SLOW, tol=1e-30, maxit=4)
    assert len(records) == 1
    assert_freed_on_calling_thread(records)


def test_lanes_equal_serial_loop_on_synthetic(synthetic, monkeypatch):
    """SLOW runs over several two-shift cycles, one stopped by ``maxit`` and
    one converged inside a cycle, equal a fresh LU at every step bit for
    bit, and build only the LUs of the two shifts."""
    ctx = synthetic[3]
    for kwargs in ({"tol": 1e-30, "maxit": 7}, {"tol": 1e-6, "maxit": 80}):
        serial = serial_lr_adi(ctx, SLOW, **kwargs)
        records = track_factorize(monkeypatch)
        kept = lr_adi(ctx, SLOW, **kwargs)
        assert np.array_equal(kept.Z, serial.Z)
        assert np.array_equal(kept.history, serial.history)
        assert kept.status == serial.status
        assert kept.iterations > 2 * len(SLOW.shifts)
        assert len(records) == len(SLOW.shifts)
        assert_freed_on_calling_thread(records)


def test_consumer_error_leaves_no_lane_blocked():
    """An exception raised in LR-ADI's own loop, uncaught, ends the
    interpreter: LR-ADI leaves no thread behind that could keep it alive."""
    code = ("from conftest import make_synthetic_system\n"
            "from mqsmor.mor import ShiftSet, lr_adi\n"
            "from mqsmor.ops import OperatorContext\n"
            "from mqsmor.regularize import build_regularized\n"
            "import numpy as np\n"
            "ctx = OperatorContext(build_regularized(*make_synthetic_system()))\n"
            "def fail(v):\n"
            "    raise ArithmeticError('consumer failed')\n"
            "ctx.apply_Er = fail\n"
            "lr_adi(ctx, ShiftSet(np.array([-5.0, -9.0]), 0.5, (5.0, 9.0)),\n"
            "       tol=1e-30, maxit=10)\n")
    src = os.path.dirname(os.path.dirname(ops.__file__))
    tests = os.path.dirname(__file__)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, tests, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, timeout=60)
    assert run.returncode == 1
    assert b"ArithmeticError: consumer failed" in run.stderr


def test_concurrent_runs_share_the_lanes(synthetic):
    """LR-ADI runs on one context from more threads than cores, under a
    short switch interval, each equal a fresh LU at every step."""
    ctx = synthetic[3]
    expected = serial_lr_adi(ctx, SLOW, tol=1e-30, maxit=12)
    results = [None] * 4

    def run(i):
        results[i] = lr_adi(ctx, SLOW, tol=1e-30, maxit=12)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for zc in results:
        assert np.array_equal(zc.Z, expected.Z)
        assert np.array_equal(zc.history, expected.history)

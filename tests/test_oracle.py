import dataclasses
import inspect
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from mqsmor import oracle as oracle_mod
from mqsmor import pipeline
from mqsmor.config import default_config
from mqsmor.lacore import gram_kernel as _gram_kernel
from mqsmor.oracle import SparsePencil, build_dense_oracle, dense_gramians
from mqsmor.pipeline import theorem4_residual


def _dense_er(rsys):
    """E_r = F_s M_s F_s^T as a dense array, block by block."""
    n1, n2r = rsys.n1, rsys.n2r
    rinv = rsys.Rinv
    x1, x2h = rsys.X1, rsys.X2hat
    e = np.zeros((n1 + n2r, n1 + n2r))
    e[:n1, :n1] = rsys.M11.toarray() + x1 @ rinv @ x1.T
    e[:n1, n1:] = x1 @ rinv @ x2h.T
    e[n1:, :n1] = e[:n1, n1:].T
    e[n1:, n1:] = x2h @ rinv @ x2h.T
    return e


def _dense_ar(rsys):
    """A_r = -F_nu M_nu F_nu^T with F_nu = [C1^T; Yhat^T C2^T]."""
    f_nu = sp.vstack([rsys.C1.T, rsys.P2.T]).tocsr()
    return -(f_nu @ rsys.Mnu @ f_nu.T).toarray()


def _system(request, name):
    """(rsys, oracle) of the toy, synthetic or desk system."""
    if name == "desk":
        desk = request.getfixturevalue("desk")
        return desk.rsys, desk.oracle
    ctx = request.getfixturevalue(name)[3]
    return ctx.rsys, build_dense_oracle(ctx, cap=100)


def test_cap_exceeded(toy):
    _, _, _, ctx = toy
    with pytest.raises(ValueError, match="cap"):
        build_dense_oracle(ctx, cap=1)


def test_toy_oracle_structure(toy):
    _, _, rsys, ctx = toy
    oracle = build_dense_oracle(ctx, cap=10)
    assert oracle.tier == "brute"
    assert (oracle.n_s, oracle.n_0, oracle.n_inf) == (1, 1, 0)
    # Y_nu spans (1, -1); W1 spans (0, 1)
    ynu = oracle.Y_nu[:, 0]
    assert abs(abs(ynu[0]) - abs(ynu[1])) < 1e-12 and np.sign(ynu[0]) != np.sign(ynu[1])
    w1 = oracle.W1[:, 0]
    assert abs(w1[0]) < 1e-12 and abs(w1[1]) > 0.9
    lam, skew = oracle.finite_eigenvalues()
    assert lam.shape == (1,)
    assert lam[0] == pytest.approx(-2.0, rel=1e-12)
    assert skew < 1e-12
    # invertible E_r: reflexive inverse is the true inverse
    einv = oracle.einv_dense()
    e = oracle.E_dense
    assert np.linalg.norm(einv - np.linalg.inv(e)) <= 1e-10 * np.linalg.norm(einv)


def test_brute_oracle_w_transform(synthetic):
    _, _, rsys, ctx, oracle = synthetic
    e, a, w = oracle.E_dense, oracle.A_dense, oracle.W
    ns, n0, ninf = oracle.n_s, oracle.n_0, oracle.n_inf
    wew = w.T @ e @ w
    waw = w.T @ a @ w
    scale_e = np.linalg.norm(e)
    scale_a = np.linalg.norm(a)
    target_e = np.zeros_like(wew)
    target_e[:ns, :ns] = oracle.E11
    target_e[ns:ns + n0, ns:ns + n0] = np.eye(n0)
    assert np.linalg.norm(wew - target_e) <= 1e-8 * scale_e
    target_a = np.zeros_like(waw)
    target_a[:ns, :ns] = oracle.A11
    target_a[ns + n0:, ns + n0:] = -np.eye(ninf)    # sign-consistent real form
    assert np.linalg.norm(waw - target_a) <= 1e-8 * scale_a
    np.linalg.cholesky(oracle.E11)
    np.linalg.cholesky(-oracle.A11)
    # index one: ker(E_r) has exactly n_inf dimensions in W coordinates
    assert np.linalg.matrix_rank(e) == ns + n0


def test_oracle_projector_identities(synthetic):
    _, _, rsys, ctx, oracle = synthetic
    pi = oracle.pi_dense()
    e = oracle.E_dense
    einv = oracle.einv_dense()
    assert np.linalg.norm(pi @ pi - pi) <= 1e-9
    assert np.linalg.norm(e @ pi - pi.T @ e) <= 1e-9 * np.linalg.norm(e)
    assert np.linalg.norm(pi @ einv - einv @ pi.T) <= 1e-9 * np.linalg.norm(einv)
    # What1 relations
    assert np.linalg.norm(oracle.What1.T @ oracle.W1 - np.eye(oracle.n_s)) <= 1e-9
    assert np.linalg.norm(oracle.What1.T @ oracle.Y_nu) <= 1e-9
    assert np.linalg.norm(oracle.What1.T @ oracle.Y_sigma) <= 1e-9


def test_oracle_ainv_identities(synthetic):
    _, _, rsys, ctx, oracle = synthetic
    n = rsys.n_r
    eye = np.eye(n)
    a = oracle.A_dense
    ainv = np.column_stack([oracle.ainv_apply(eye[:, i]) for i in range(n)])
    assert np.linalg.norm(a @ ainv @ a - a) <= 1e-9 * np.linalg.norm(a)
    assert np.linalg.norm(ainv @ a @ ainv - ainv) <= 1e-9 * np.linalg.norm(ainv)
    assert np.linalg.norm(ainv - ainv.T) <= 1e-9 * np.linalg.norm(ainv)


def test_dense_gramians_toy(toy):
    _, _, rsys, ctx = toy
    oracle = build_dense_oracle(ctx, cap=10)
    gc, go = dense_gramians(oracle)
    gcd, god = gc.toarray(), go.toarray()
    assert np.linalg.matrix_rank(gcd, tol=1e-12) == 1
    assert np.allclose(gcd, [[0.0, 0.0], [0.0, 0.25]], atol=1e-12)
    e, a = oracle.E_dense, oracle.A_dense
    assert np.linalg.norm(e @ god @ e - a @ gcd @ a) <= 1e-12 * np.linalg.norm(a @ gcd @ a)


def test_dense_gramians_zero_input(toy):
    _, _, _, ctx = toy
    oracle = build_dense_oracle(ctx, cap=10)
    oracle.B1 = np.zeros_like(oracle.B1)
    gc, _ = dense_gramians(oracle)
    assert np.allclose(gc.toarray(), 0.0)


def test_dense_gramians_lyapunov_residual(synthetic):
    _, _, rsys, ctx, oracle = synthetic
    gc, go = dense_gramians(oracle)
    e, a = oracle.E_dense, oracle.A_dense
    pi = oracle.pi_dense()
    b = ctx.B_r
    rhs = pi.T @ (b @ b.T) @ pi
    res = e @ gc.toarray() @ a + a @ gc.toarray() @ e + rhs
    assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(rhs)
    cr = np.column_stack([ctx.apply_Cr(pi @ np.eye(rsys.n_r)[:, i])
                          for i in range(rsys.n_r)])
    rhs_o = pi.T @ (cr.T @ cr) @ pi
    res_o = e @ go.toarray() @ a + a @ go.toarray() @ e + rhs_o
    assert np.linalg.norm(res_o) <= 1e-9 * np.linalg.norm(rhs_o)


def test_desk_oracle_tier_and_consistency(desk):
    oracle = desk.oracle
    assert oracle.tier == "desk"
    assert oracle.n_s + oracle.n_0 + oracle.n_inf == desk.rsys.n_r
    # E annihilates [0; null(X2hat^T)] structurally (infinite block of ker E)
    rng = np.random.default_rng(6)
    r = desk.rsys
    x2h = r.X2hat
    proj = np.eye(r.n2r) - x2h @ np.linalg.solve(x2h.T @ x2h, x2h.T)
    v2 = proj @ rng.standard_normal(r.n2r)
    v = np.concatenate([np.zeros(r.n1), v2])
    assert np.linalg.norm(r.apply_Er(v)) <= 1e-10 * np.linalg.norm(v) * np.abs(oracle.E_dense).max()
    # Pi consistency: W1 What1^T equals I - Pi_0 - Pi_inf on probes
    v = rng.standard_normal(r.n_r)
    p1 = oracle.pi_apply(v)
    p2 = oracle.pi_apply(p1)
    assert np.linalg.norm(p2 - p1) <= 1e-8 * np.linalg.norm(p1)
    # E11 SPD, -A11 SPD
    np.linalg.cholesky(oracle.E11)
    np.linalg.cholesky(-oracle.A11)


def _planted_gram(small, n=60, n0=5, seed=0):
    """Sparse-stored factor F of a Gram matrix F F^T with lambda_max = 1,
    an n0-dimensional kernel and one more eigenvalue ``small``."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = rng.uniform(0.1, 1.0, n)
    w[:n0] = 0.0
    w[n0] = small
    w[-1] = 1.0
    return sp.csr_matrix(u * np.sqrt(w)), u[:, :n0]


def test_gram_kernel_certified_basis():
    f, kernel = _planted_gram(0.05)
    y = _gram_kernel(f)
    assert y.shape == (60, 5)
    assert np.linalg.norm(y.T @ y - np.eye(5)) <= 1e-12
    assert np.linalg.norm(f @ (f.T @ y), 2) <= 1e-12
    # same subspace as the planted kernel
    assert np.linalg.svd(kernel.T @ y, compute_uv=False).min() >= 1 - 1e-10


def test_gram_kernel_counts_eigenvalue_below_threshold():
    # 1e-11 lambda_max is below both thresholds: part of the kernel
    assert _gram_kernel(_planted_gram(1e-11)[0]).shape[1] == 6


def test_gram_kernel_rejects_ambiguous_rank_threshold():
    # 1e-9 lambda_max lies between 1e-10 and 1e-8 lambda_max
    with pytest.raises(RuntimeError, match="rank threshold is ambiguous"):
        _gram_kernel(_planted_gram(1e-9)[0])


@pytest.mark.parametrize("name", ["toy", "synthetic", "desk"])
def test_sparse_pencil_products_match_dense(request, name):
    rsys, oracle = _system(request, name)
    v = np.random.default_rng(3).standard_normal((rsys.n_r, 7))
    for apply, dense in ((oracle.pencil.apply_E, _dense_er),
                         (oracle.pencil.apply_A, _dense_ar)):
        ref = dense(rsys) @ v
        assert np.linalg.norm(apply(v) - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("name", ["toy", "synthetic", "desk"])
def test_lazy_dense_forms_equal_reference(request, name):
    rsys, oracle = _system(request, name)
    assert np.array_equal(oracle.E_dense, _dense_er(rsys))
    assert np.array_equal(oracle.A_dense, _dense_ar(rsys))
    assert oracle.E_dense is oracle.E_dense          # built once


@pytest.fixture(scope="module")
def traced_desk_oracle(desk):
    """A fresh desk oracle, built with the default cap, and the peak traced
    memory of building it."""
    ctx = desk.ctx
    tracemalloc.start()
    try:
        oracle = build_dense_oracle(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return oracle, peak


def test_default_cap_is_the_config_default():
    cap = inspect.signature(build_dense_oracle).parameters["cap"].default
    assert cap == default_config()["oracle.dense_cap"]


def _arrays(values):
    """The arrays among ``values``, also inside (nested) tuples."""
    for v in values:
        if isinstance(v, tuple):
            yield from _arrays(v)
        elif isinstance(v, np.ndarray):
            yield v


def test_desk_oracle_holds_no_n_r_square_array(traced_desk_oracle):
    oracle, _ = traced_desk_oracle
    n_r = oracle.n_r
    assert n_r == oracle.pencil.Xhat.shape[0]
    n2r = n_r - oracle._n1                       # G = P2^T M_nu P2
    n_saddle = n2r + oracle.pencil.Xhat.shape[1]     # the Y_sigma saddle matrix
    held = list(_arrays(list(vars(oracle).values()) + list(vars(oracle.pencil).values())))
    assert not [v for v in held
                if v.shape in ((n_r, n_r), (n2r, n2r), (n_saddle, n_saddle))]
    # of n2r rows or more only V, n_r x (n1 + m), and the pencil's n_r x m Xhat
    assert {id(v) for v in held if v.shape[0] >= n2r} == {id(oracle.V), id(oracle.pencil.Xhat)}
    assert oracle.V.shape == (n_r, oracle.n_s + oracle.n_0)
    lazy = {"E_dense", "A_dense", "_saddle_factors", "W1", "Y_nu", "What1", "AW1",
            "einv_factor"}
    assert not lazy & set(vars(oracle))
    # the checks see a held block: the lazy ones, once made
    probe = dataclasses.replace(oracle)
    probe.pi_inf_apply(np.ones(n_r))
    assert [v for v in _arrays(vars(probe).values()) if v.shape == (n2r, n2r)]
    probe.W1
    assert [v for v in _arrays(vars(probe).values()) if v.shape == (n_r, oracle.n_s)]


def test_desk_oracle_traced_peak(traced_desk_oracle):
    # measured 0.88 n_r^2 doubles, set by G's Cholesky phase (G is
    # (n_r - n1)^2); the bound leaves 8 % of margin.  Keeping the n_r x n_s
    # blocks and the E_r^- factor set it at 1.00, the saddle LU with its
    # probe block at 1.21, the F_nu F_nu^T Gram of an earlier build at
    # 1.32, and keeping the saddle LU through the build at 1.82
    oracle, peak = traced_desk_oracle
    assert peak <= 0.95 * oracle.n_r ** 2 * 8


def _sin_angle(a, b):
    """Sine of the largest principal angle between the ranges of two
    orthonormal column blocks of equal width."""
    assert a.shape == b.shape
    return np.linalg.norm(a - b @ (b.T @ a), 2)


def test_desk_y_nu_matches_gram_kernel(desk):
    oracle = desk.oracle
    f = oracle.pencil.F_nu
    ref = _gram_kernel(f)
    assert oracle.n_0 == ref.shape[1] == 127
    assert _sin_angle(oracle.Y_nu, ref) <= 1e-8                # measured 1.3e-10
    lam_max = scipy.sparse.linalg.eigsh((f @ f.T).tocsr(), k=1, which="LA",
                                        return_eigenvectors=False)[0]
    residual = np.linalg.norm(f @ (f.T @ oracle.Y_nu))
    assert residual <= 1e-10 * lam_max                        # measured 3.3e-14
    assert oracle.margins["ynu_residual"] == pytest.approx(residual / lam_max)
    assert 1e-8 < oracle.margins["kernel_gap"]
    # V = V0 L^{-T} is orthonormal (measured 1.3e-14), and so are W1 and Y_nu
    assert oracle.margins["v_orthogonality"] <= 1e-12
    assert np.linalg.norm(oracle.W1.T @ oracle.W1 - np.eye(oracle.n_s)) <= 1e-12
    assert np.linalg.norm(oracle.Y_nu.T @ oracle.Y_nu - np.eye(oracle.n_0)) <= 1e-12
    # the Cholesky pivots of G lie in its spectrum, so their ratio (measured
    # 0.13) is at least lambda_min(G) / lambda_max(G)
    f2 = f[oracle._n1:]
    g = (f2 @ oracle.pencil.Mnu @ f2.T).tocsc()
    lam_g = [scipy.sparse.linalg.eigsh(g, k=1, which=which, return_eigenvectors=False,
                                       **kw)[0]
             for which, kw in (("LM", {"sigma": 0}), ("LA", {}))]
    assert 0 < lam_g[0] / lam_g[1] <= oracle.margins["g_pivot_ratio"] <= 1


@pytest.mark.parametrize("name", ["toy", "synthetic"])
def test_forced_desk_tier_matches_brute(request, name):
    ctx = request.getfixturevalue(name)[3]
    brute = build_dense_oracle(ctx, cap=100)
    desk = build_dense_oracle(ctx, cap=100, brute_cap=0)
    assert (brute.tier, desk.tier) == ("brute", "desk")
    assert ((desk.n_s, desk.n_0, desk.n_inf)
            == (brute.n_s, brute.n_0, brute.n_inf))
    assert _sin_angle(desk.W1, brute.W1) <= 1e-12              # measured 1.4e-15
    assert _sin_angle(desk.Y_nu, brute.Y_nu) <= 1e-12
    assert np.linalg.norm(desk.pi_dense() - brute.pi_dense()) <= 1e-12


def _planted_psd(small):
    """The dense Gram matrix of ``_planted_gram(small)`` and its kernel."""
    f, kernel = _planted_gram(small)
    return (f @ f.T).toarray(), kernel


def test_psd_kernel_counts_eigenvalue_below_threshold():
    mat, kernel = _planted_psd(0.05)
    n_0, lam, vecs = oracle_mod.psd_kernel(mat)
    assert n_0 == 5
    assert _sin_angle(vecs[:, :5], kernel) <= 1e-12
    assert lam[5] == pytest.approx(0.05)
    # 1e-11 lambda_max is below both thresholds: part of the kernel
    assert oracle_mod.psd_kernel(_planted_psd(1e-11)[0])[0] == 6


def test_psd_kernel_rejects_ambiguous_rank_threshold():
    # 1e-9 lambda_max lies between 1e-10 and 1e-8 lambda_max
    with pytest.raises(RuntimeError, match="ambiguous"):
        oracle_mod.psd_kernel(_planted_psd(1e-9)[0])


def test_desk_lazy_saddle_factors_match_ops(desk, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return g_cholesky(*args)

    g_cholesky = oracle_mod._g_cholesky
    monkeypatch.setattr(oracle_mod, "_g_cholesky", counted)
    oracle = build_dense_oracle(desk.ctx)
    assert len(calls) == 1                       # the build's own solve
    v = np.random.default_rng(8).standard_normal((desk.rsys.n_r, 3))
    for _ in range(2):
        ref = desk.ctx.apply_Pi_inf(v)
        assert np.linalg.norm(oracle.pi_inf_apply(v) - ref) <= 1e-10 * np.linalg.norm(ref)
    oracle.ainv_apply(v)
    assert len(calls) == 2                       # refactored once, on first use


def _two_call_gramians(oracle):
    """dense_gramians as two independent scipy Lyapunov solves."""
    e11, a11, b1 = oracle.E11, oracle.A11, oracle.B1
    f = np.linalg.solve(e11, a11)
    c1 = -(b1.T @ np.linalg.solve(e11, a11))
    h_c = scipy.linalg.solve_continuous_lyapunov(f.T, -(b1 @ b1.T))
    h_o = scipy.linalg.solve_continuous_lyapunov(f.T, -(c1.T @ c1))
    e_inv = np.linalg.inv(e11)
    g_c = e_inv @ h_c @ e_inv
    g_o = e_inv @ h_o @ e_inv
    return 0.5 * (g_c + g_c.T), 0.5 * (g_o + g_o.T)


@pytest.mark.parametrize("name", ["synthetic", "desk"])
def test_dense_gramians_closed_form_residual(request, name):
    """The closed-form Gramians solve E11 G A11 + A11 G E11 = -Q in W1
    coordinates (desk: 1.9e-13 for G_c and 1.3e-12 for G_o, whose right-hand
    side -C1^T C1 carries the rounding of E11^{-1} A11) and agree with two
    Bartels-Stewart solves, which are the less accurate side (desk: 2.4e-10
    and 4.0e-12 apart; their residuals read 1.4e-11 and 3.0e-12)."""
    _, oracle = _system(request, name)
    gc, go = dense_gramians(oracle)
    e11, a11, b1 = oracle.E11, oracle.A11, oracle.B1
    c1 = -(b1.T @ np.linalg.solve(e11, a11))
    for g, q, tol in ((gc.core, b1 @ b1.T, 1e-12), (go.core, c1.T @ c1, 1e-11)):
        res = e11 @ g @ a11 + a11 @ g @ e11 + q
        assert np.linalg.norm(res) <= tol * np.linalg.norm(q)
    for g, ref in zip((gc.core, go.core), _two_call_gramians(oracle)):
        assert np.linalg.norm(g - ref) <= 1e-8 * np.linalg.norm(ref)


@pytest.mark.parametrize("mnu", [np.array([-2.0, -3.0, -4.0]), np.array([0.0, 0.0, 4.0])])
def test_desk_build_refuses_g_not_positive_definite(synthetic, mnu):
    """G = P2^T M_nu P2 negative definite, or singular (P2 = [[2, 0], [0, 2],
    [2, -2]] with only the last face's M_nu entry left): the build raises."""
    _, _, rsys, ctx, _ = synthetic
    pencil = SparsePencil.of(rsys)
    pencil.Mnu = sp.diags(mnu).tocsr()
    with pytest.raises(RuntimeError, match="not positive definite"):
        oracle_mod._build_desk(rsys, pencil, ctx.B_r)


def test_finite_eigenvalues_need_positive_definite_e11(synthetic):
    oracle = synthetic[4]
    lam, skew = oracle.finite_eigenvalues()
    ref = scipy.linalg.eigvals(oracle.A11, oracle.E11)
    assert np.allclose(np.sort(lam), np.sort(ref.real), rtol=1e-12)
    assert skew <= 1e-14 * np.abs(lam).max()
    with pytest.raises(np.linalg.LinAlgError):
        dataclasses.replace(oracle, E11=-oracle.E11).finite_eigenvalues()


@pytest.mark.parametrize("skew, top", [(1e-6, None), (0.0, 1e-6), (0.5e-8, 0.8e-8)],
                         ids=["skew", "positive", "edge"])
def test_desk_theorem2_fails_on_planted_spectrum(desk, skew, top):
    """A skew part of 1e-6 of the spectrum's scale planted in A11, a
    positive eigenvalue of that size planted in its symmetric part, or both
    at once below 1e-8 of the scale (0.5e-8 and 0.8e-8), fail Theorem 2.  A
    small skew part moves the eigenvalues off the real axis only to second
    order, but the certificate |Im| <= ||N||_F no longer reaches 1e-8 of the
    scale; the third case fails only through Re <= max(lam) + ||N||_F.  The
    desk as built passes, with ||N||_F = 2.5e-15 of the scale."""
    oracle = desk.oracle
    counts = desk.ctx.dimension_counts()
    assert pipeline._theorem2(oracle, counts)[:2] == (True, True)
    lam, z = oracle._pencil_eigh
    scale = np.abs(lam).max()
    ez = oracle.E11 @ z                  # Z^{-T}: Z^T (ez P ez^T) Z = P
    p = np.zeros((oracle.n_s, oracle.n_s))
    if skew:
        p = np.random.default_rng(13).standard_normal((oracle.n_s, oracle.n_s))
        p -= p.T
        p *= skew * scale / np.linalg.norm(p)
    if top is not None:
        p[-1, -1] = top * scale - lam[-1]
    planted = dataclasses.replace(oracle, A11=oracle.A11 + ez @ p @ ez.T)
    lam_p, skew_p = planted.finite_eigenvalues()
    if skew:
        assert skew_p == pytest.approx(skew * scale, rel=1e-6)
    if top is not None:
        assert lam_p.max() == pytest.approx(top * scale, rel=1e-4)
    assert pipeline._theorem2(planted, counts)[:2] == (True, False)


def _qr_theorem4(ew, aw, g_c, g_o):
    """The Theorem-4 ratio from a thin QR of [E W1, A W1]."""
    n_s = ew.shape[1]
    r = scipy.linalg.qr(np.hstack([ew, aw]), mode="r")[0]
    r_e, r_a = r[:2 * n_s, :n_s], r[:2 * n_s, n_s:]
    t2 = r_a @ g_c @ r_a.T
    return np.linalg.norm(r_e @ g_o @ r_e.T - t2) / np.linalg.norm(t2)


def _remainders(oracle, rsys):
    """Q_x, and (E_r V, r_E) and (A_r V, r_A) with r = the rows of the n2
    block outside span X2hat, recomputed from the oracle's V."""
    n1 = rsys.n1
    q_x = np.linalg.qr(rsys.X2hat)[0]
    out = []
    for apply in (oracle.pencil.apply_E, oracle.pencil.apply_A):
        block = apply(oracle.V)
        out.append((block, block[n1:] - q_x @ (q_x.T @ block[n1:])))
    return q_x, out


def test_desk_theorem4_remainder_is_reported_and_bounded(desk):
    """theorem4_residual works on (n1 + m)-dimensional coordinates.  On the
    desk the remainder outside range(blockdiag(I, X2hat)) is rounding
    (measured 6.3e-14 of ||A W1||) and rel 9.7e-13.  A remainder planted in
    A W1 at 1e-7 of its norm, through the stored Gram matrix of the
    remainders, is reported, and rel, which accounts for it, bounds the
    ratio that a QR of the n_r-row block gives, and is tight."""
    oracle, rsys = desk.oracle, desk.rsys
    rel, remainder = theorem4_residual(oracle)
    assert rel <= 1e-10 and remainder <= 1e-12
    g_c, g_o = (g.core for g in dense_gramians(oracle))
    q_x, ((ev, r_e), (av, r_a)) = _remainders(oracle, rsys)
    r = np.hstack([r_e, r_a])
    assert np.allclose(r.T @ r, oracle.rem_gram, rtol=1e-10, atol=0.0)
    rng = np.random.default_rng(11)
    plant = rng.standard_normal((rsys.n2r, oracle.n_s))
    plant -= q_x @ (q_x.T @ plant)
    aw = av @ oracle.C
    plant *= 1e-7 * np.linalg.norm(aw) / np.linalg.norm(plant)
    # in V's coordinates r_A + plant C^T, whose product with C adds the plant
    r_p = np.hstack([r_e, r_a + plant @ oracle.C.T])
    planted = dataclasses.replace(oracle, rem_gram=r_p.T @ r_p)
    rel_p, remainder_p = theorem4_residual(planted)
    assert remainder_p == pytest.approx(1e-7, rel=1e-3)
    aw[rsys.n1:] += plant
    ref = _qr_theorem4(ev @ oracle.C, aw, g_c, g_o)
    assert ref > 1e3 * rel
    assert ref * (1 - 1e-6) <= rel_p <= ref * (1 + 1e-3)


def _explicit_forms(oracle, rsys):
    """W1, What1 and the E_r^- factor as n_r-row blocks, the way an oracle
    that keeps them builds them: What1 = H Theta from
    [Y_nu^T H; W1^T H] Theta = [0; I], and
    U = [W1 E11^{-1/2}, Y_nu (Y_nu^T E_r Y_nu)^{-1/2}]."""
    n1, x2h = rsys.n1, rsys.X2hat
    w1, y_nu = oracle.V @ oracle.C, oracle.V @ oracle.K
    t = np.vstack([np.hstack([y[:n1].T, y[n1:].T @ x2h]) for y in (y_nu, w1)])
    rhs = np.vstack([np.zeros((oracle.n_0, oracle.n_s)), np.eye(oracle.n_s)])
    theta = np.linalg.solve(t, rhs)
    what1 = np.vstack([theta[:n1], x2h @ theta[n1:]])
    blocks = [w1 @ oracle_mod._inv_sqrt_spd(w1.T @ oracle.pencil.apply_E(w1))]
    if oracle.n_0:
        blocks.append(y_nu @ oracle_mod._inv_sqrt_spd(y_nu.T @ oracle.pencil.apply_E(y_nu)))
    return w1, what1, np.hstack(blocks)


@pytest.mark.parametrize("name", ["synthetic", "desk"])
def test_factored_applies_match_explicit_forms(request, name):
    """pi_apply and einv_apply, which work on V's coordinates, equal the
    products with the explicit W1 What1^T and U U^T (desk: 3.6e-15 and
    1.8e-14), and so do the blocks formed on access."""
    rsys, oracle = _system(request, name)
    w1, what1, u = _explicit_forms(oracle, rsys)
    v = np.random.default_rng(12).standard_normal((rsys.n_r, 5))
    for got, ref in ((oracle.pi_apply(v), w1 @ (what1.T @ v)),
                     (oracle.einv_apply(v), u @ (u.T @ v)),
                     (oracle.pi_dense(), w1 @ what1.T),
                     (oracle.einv_dense(), u @ u.T)):
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

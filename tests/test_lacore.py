import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from mqsmor.lacore import (
    SingularMatrixError,
    csr_from_coo,
    dense_sym_eig,
    factorize,
    lanczos_extremal,
    nested_dissection,
    eigenvalues_at_most,
    is_positive_definite,
    psd_kernel_dim,
    read_matrix_market,
    write_matrix_market,
)


def test_csr_from_coo_sums_duplicates_and_checks_bounds():
    a = csr_from_coo([0, 0], [0, 0], [1.0, 2.0], (1, 1))
    assert a.nnz == 1 and a[0, 0] == 3.0
    with pytest.raises(ValueError):
        csr_from_coo([2], [0], [1.0], (2, 2))


def test_factorize_diagonal():
    f = factorize(sp.csr_matrix(np.diag([2.0, 5.0])))
    assert np.allclose(f.solve(np.array([2.0, 5.0])), [1.0, 1.0])


def test_factorize_2x2_hand_inverse():
    s = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 1.0]]))
    z = factorize(s).solve(np.array([1.0, 1.0]))
    assert np.allclose(z, [0.0, 1.0], atol=1e-14)


def test_factorize_singular_names_pivot():
    s = sp.csr_matrix(np.ones((2, 2)))
    with pytest.raises(SingularMatrixError, match="singular matrix"):
        factorize(s)


def test_factorize_complex():
    s = sp.csr_matrix(np.array([[1.0 + 1.0j, 0.0], [0.0, 2.0 - 1.0j]]))
    z = factorize(s).solve(np.array([1.0 + 0j, 1.0 + 0j]))
    assert np.allclose(z, [1.0 / (1 + 1j), 1.0 / (2 - 1j)])


def test_factorize_real_with_complex_rhs():
    s = sp.csr_matrix(np.diag([2.0, 4.0]))
    z = factorize(s).solve(np.array([2.0 + 2.0j, 4.0 - 8.0j]))
    assert np.allclose(z, [1.0 + 1.0j, 1.0 - 2.0j])


def test_factorize_random_spd_residual():
    rng = np.random.default_rng(0)
    n = 200
    a = sp.random(n, n, density=0.03, random_state=rng.integers(1 << 31))
    s = (a @ a.T + sp.identity(n) * n).tocsr()
    f = factorize(s)
    for _ in range(100):
        b = rng.standard_normal(n)
        x = f.solve(b)
        assert np.linalg.norm(s @ x - b) <= 1e-10 * np.linalg.norm(b)


def _random_nonsymmetric(n, rng, dtype=float):
    a = sp.random(n, n, density=0.05, random_state=rng.integers(1 << 31), dtype=float)
    if dtype is complex:
        a = a + 1j * sp.random(n, n, density=0.05,
                               random_state=rng.integers(1 << 31), dtype=float)
    return (a + sp.identity(n) * 4.0).tocsr()


@pytest.mark.parametrize("dtype", [float, complex])
def test_factorize_perm_matches_unpermuted(dtype):
    rng = np.random.default_rng(6)
    n = 120
    s = _random_nonsymmetric(n, rng, dtype)
    perm = rng.permutation(n)
    plain, permuted = factorize(s), factorize(s, perm=perm)
    b = rng.standard_normal((n, 3)).astype(dtype)
    if dtype is complex:
        b = b + 1j * rng.standard_normal((n, 3))
    x0, x1 = plain.solve(b), permuted.solve(b)
    assert np.linalg.norm(x1 - x0) <= 1e-12 * np.linalg.norm(x0)
    assert np.linalg.norm(s @ x1 - b) <= 1e-12 * np.linalg.norm(b)


def test_factorize_perm_complex_rhs_on_real_factor():
    rng = np.random.default_rng(7)
    n = 90
    s = _random_nonsymmetric(n, rng)
    perm = rng.permutation(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x0 = factorize(s).solve(b)
    x1 = factorize(s, perm=perm).solve(b)
    assert np.iscomplexobj(x1)
    assert np.linalg.norm(x1 - x0) <= 1e-12 * np.linalg.norm(x0)


def test_factorize_perm_singular_raises():
    s = sp.csr_matrix(np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(SingularMatrixError, match="singular matrix"):
        factorize(s, perm=np.array([2, 0, 1]))


def test_factorize_rejects_non_permutation():
    with pytest.raises(ValueError, match="permutation"):
        factorize(sp.identity(3, format="csr"), perm=np.array([0, 0, 1]))


def _grid_graph(nx, ny):
    """5-point Laplacian on an nx-by-ny grid, node id = i + nx*j, plus one
    extra node coupled to every grid node (id nx*ny, no coordinates)."""
    ids = np.arange(nx * ny).reshape(ny, nx)
    rows = [ids[:, :-1].ravel(), ids[:-1, :].ravel()]
    cols = [ids[:, 1:].ravel(), ids[1:, :].ravel()]
    r, c = np.concatenate(rows), np.concatenate(cols)
    n = nx * ny + 1
    hub = np.full(nx * ny, nx * ny)
    r, c = np.concatenate([r, c, hub, ids.ravel()]), np.concatenate([c, r, ids.ravel(), hub])
    a = csr_from_coo(r, c, -np.ones(r.size), (n, n)) + 4.0 * sp.identity(n, format="csr")
    jj, ii = np.divmod(np.arange(nx * ny), nx)
    xyz = np.column_stack([ii, jj, np.zeros(nx * ny)]).astype(float)
    return a.tocsr(), np.vstack([xyz, np.full((1, 3), np.nan)])


def test_nested_dissection_permutation_and_last():
    a, xyz = _grid_graph(16, 8)
    order = nested_dissection(a, xyz, last=[128])
    assert np.array_equal(np.sort(order), np.arange(129))
    assert order[-1] == 128
    assert np.array_equal(nested_dissection(a, xyz, last=[128]), order)
    for bad in ([-1], [128, 128], [129]):
        with pytest.raises(ValueError, match="last"):
            nested_dissection(a, xyz, last=bad)


def test_nested_dissection_top_split_decouples_halves():
    a, xyz = _grid_graph(16, 8)
    order = nested_dissection(a, xyz, last=[128])
    # widest axis is x, median 7.5: left is x <= 7, right x >= 8; both
    # boundary columns have 8 nodes, the left one (x = 7) is the separator
    x = xyz[:, 0]
    n_left, n_right = int(np.sum(x <= 6)), int(np.sum(x >= 8))
    left, right = order[:n_left], order[n_left:n_left + n_right]
    sep = order[n_left + n_right:-1]
    assert np.all(x[left] <= 6) and np.all(x[right] >= 8) and np.all(x[sep] == 7)
    assert a[left][:, right].nnz == 0


def test_nested_dissection_small_graph_is_one_leaf():
    a, xyz = _grid_graph(4, 4)
    order = nested_dissection(a, xyz, last=[16])
    assert np.array_equal(order, np.arange(17))


def test_dense_sym_eig_diagonal():
    w, u = dense_sym_eig(np.diag([3.0, 1.0]))
    assert np.allclose(w, [3.0, 1.0]) and np.allclose(np.abs(u), np.eye(2))


def test_dense_sym_eig_offdiagonal():
    w, _ = dense_sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [1.0, -1.0])


def test_dense_sym_eig_zero():
    w, _ = dense_sym_eig(np.zeros((2, 2)))
    assert np.array_equal(w, [0.0, 0.0])


def test_dense_sym_eig_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        dense_sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_dense_sym_eig_reconstruction_random():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = rng.integers(2, 51)
        a = rng.standard_normal((n, n))
        a = a + a.T
        w, u = dense_sym_eig(a)
        na = np.linalg.norm(a)
        assert np.linalg.norm(a @ u - u * w) <= 1e-10 * max(na, 1.0)
        assert np.linalg.norm(u.T @ u - np.eye(n)) <= 1e-10
        assert np.all(np.diff(w) <= 1e-12 * max(na, 1.0))


def _planted_psd(n, k, extra=(), seed=0):
    """PSD matrix with a planted k-dimensional kernel, a (non-orthonormal)
    basis of it, and the planted spectrum (``extra`` eigenvalues after the
    kernel, the rest in [1e-3, 1])."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = rng.uniform(1e-3, 1.0, n)
    w[:k] = 0.0
    w[k:k + len(extra)] = extra
    a = (u * w) @ u.T
    return 0.5 * (a + a.T), u[:, :k] @ rng.standard_normal((k, k)), w


def _eigvalsh_count(a, tau):
    return int(np.sum(np.linalg.eigvalsh(a) <= tau))


@pytest.mark.parametrize("n,k", [(40, 0), (80, 3)])
def test_eigenvalue_count_and_cholesky_test_on_planted_spectrum(n, k):
    a, _, w = _planted_psd(n, k, extra=(0.5e-10,), seed=n + 2 * k)
    tau = 1e-10 * w.max()
    assert eigenvalues_at_most(a.copy(), tau) == k + 1 == _eigvalsh_count(a, tau)
    # the same spectrum as a sparse matrix, shifted by -tau and by +tau
    eye = sp.identity(n, format="csr")
    assert is_positive_definite(sp.csr_matrix(a) + tau * eye)
    assert is_positive_definite(sp.csc_matrix(a) + tau * eye)
    assert not is_positive_definite(sp.csr_matrix(a) - tau * eye)
    above = np.sort(w)[k + 1:k + 3]          # the two smallest above the extra one
    assert eigenvalues_at_most(a.copy(), 0.5 * above[0]) == k + 1
    assert eigenvalues_at_most(a.copy(), above.mean()) == k + 2


@pytest.mark.parametrize("n,k", [(40, 0), (40, 1), (120, 9), (200, 31)])
def test_psd_kernel_dim_planted_kernel(n, k):
    a, q, w = _planted_psd(n, k, seed=n + k)
    tau = 1e-10 * w.max()
    assert _eigvalsh_count(a, tau) == k
    assert psd_kernel_dim(a.copy(), q, tau) == k
    # Fortran order and a sparse basis take the same path
    assert psd_kernel_dim(np.asfortranarray(a), sp.csr_matrix(q), tau) == k


@pytest.mark.parametrize("k", [0, 4])
def test_psd_kernel_dim_extra_small_eigenvalue_counts_by_inertia(k):
    a, q, w = _planted_psd(80, k, extra=(0.5e-10,), seed=k)
    tau = 1e-10 * w.max()
    assert _eigvalsh_count(a, tau) == k + 1
    assert psd_kernel_dim(a.copy(), q, tau) == k + 1


def test_psd_kernel_dim_incomplete_basis_gives_true_count():
    a, q, w = _planted_psd(90, 6, seed=3)
    tau = 1e-10 * w.max()
    assert psd_kernel_dim(a.copy(), q[:, :-1], tau) == 6
    assert psd_kernel_dim(a.copy(), np.zeros((90, 0)), tau) == 6


def test_psd_kernel_dim_overwrites_input_in_place():
    a, q, w = _planted_psd(30, 2, seed=4)
    b = a.copy()
    psd_kernel_dim(b, q, 1e-10 * w.max())
    assert not np.array_equal(a, b)


def test_psd_kernel_dim_rejects_rank_deficient_basis():
    a, q, w = _planted_psd(30, 2, seed=5)
    with pytest.raises(ValueError, match="full column rank"):
        psd_kernel_dim(a.copy(), np.hstack([q, np.zeros((30, 1))]), 1e-10 * w.max())


def test_lanczos_multiple_of_identity():
    l = np.diag([-2.0, -2.0])
    res = lanczos_extremal(lambda v: l @ v, np.array([1.0, 1.0]))
    assert res.lambda_min == pytest.approx(-2.0) and res.lambda_max == pytest.approx(-2.0)
    assert res.converged


def test_lanczos_exact_two_step():
    l = np.diag([-1.0, -10.0])
    res = lanczos_extremal(lambda v: l @ v, np.array([1.0, 1.0]), tol=1e-12)
    assert res.lambda_min == pytest.approx(-10.0, rel=1e-10)
    assert res.lambda_max == pytest.approx(-1.0, rel=1e-10)


def test_lanczos_zero_start_rejected():
    with pytest.raises(ValueError):
        lanczos_extremal(lambda v: v, np.zeros(3))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=0.1, max_value=1e3), min_size=3, max_size=40),
       st.integers(0, 2 ** 31 - 1))
def test_lanczos_diagonal_extremes_property(diag, seed):
    diag = sorted(set(round(d, 6) for d in diag))
    if len(diag) < 2 or diag[-1] / diag[0] < 1.01:
        return
    d = -np.array(diag)
    rng = np.random.default_rng(seed)
    start = rng.standard_normal(d.size) + 0.1
    res = lanczos_extremal(lambda v: d * v, start, maxit=d.size + 10, tol=1e-12)
    assert res.lambda_min == pytest.approx(d.min(), rel=1e-6)
    assert res.lambda_max == pytest.approx(d.max(), rel=1e-6)


def test_matrix_market_sparse_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    a = sp.random(7, 5, density=0.4, random_state=3).tocsr()
    p = tmp_path / "a.mtx"
    write_matrix_market(p, a)
    header = p.read_text().splitlines()[0]
    assert header == "%%MatrixMarket matrix coordinate real general"
    b = read_matrix_market(p)
    assert (a != b).nnz == 0


def test_matrix_market_symmetric_flag(tmp_path):
    a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    p = tmp_path / "s.mtx"
    write_matrix_market(p, a, symmetric=True)
    assert "symmetric" in p.read_text().splitlines()[0]
    b = read_matrix_market(p)
    assert np.allclose(b.toarray(), a.toarray())


def test_matrix_market_dense_roundtrip(tmp_path):
    a = np.array([[1.0, np.pi], [-2.0e-17, 3.0e9]])
    p = tmp_path / "d.mtx"
    write_matrix_market(p, a)
    b = np.asarray(read_matrix_market(p))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("a", [sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]])),
                               np.array([[1.0, 2.0]])])
def test_matrix_market_writes_exactly_the_given_path(tmp_path, a):
    p = tmp_path / "a.tmp"
    write_matrix_market(p, a)
    assert p.read_text().startswith("%%MatrixMarket")
    assert not (tmp_path / "a.tmp.mtx").exists()
    assert np.array_equal(sp.csr_matrix(read_matrix_market(p)).toarray(),
                          sp.csr_matrix(a).toarray())


def test_matrix_market_cut_inside_a_number_raises(tmp_path):
    """A file cut right after an exponent's ``e+`` raises ValueError; read
    in a child process, because scipy's reader can crash on it."""
    p = tmp_path / "a.mtx"
    write_matrix_market(p, sp.csr_matrix(np.array([[1.5, 0.0, 2.0],
                                                   [0.0, -3.25, 0.0],
                                                   [4.0, 0.0, 5.5]])))
    data = p.read_bytes()
    p.write_bytes(data[: data.rindex(b"e+") + 2])
    code = ("import sys\n"
            "from mqsmor.lacore import read_matrix_market\n"
            "try:\n"
            "    read_matrix_market(sys.argv[1])\n"
            "except ValueError:\n"
            "    sys.exit(3)\n")
    src = os.path.dirname(os.path.dirname(sys.modules["mqsmor"].__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code, str(p)], env=env, timeout=120)
    assert run.returncode == 3

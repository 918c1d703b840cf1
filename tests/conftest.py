"""Shared fixtures: the 2x2 toy system, a small synthetic system with
nontrivial kernel dimensions, and the desk-scale default scenario with a
dense reference kernel of its F_nu F_nu^T (built once per session)."""

import time

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from mqsmor.assembly import AssembledSystem, build_system
from mqsmor.config import default_config
from mqsmor.mesh import build_incidence, eliminate_boundary, generate_mesh
from mqsmor.mor import balanced_truncate, lr_adi, wachspress_shifts
from mqsmor.ops import OperatorContext
from mqsmor.oracle import build_dense_oracle
from mqsmor.regularize import KernelBases, build_regularized, kernel_bases


def _csr(a):
    return sp.csr_matrix(np.atleast_2d(np.asarray(a, dtype=float)))


def make_toy_system():
    """n1 = n2 = m = 1, k2 = 0: E_r = [[4,1],[1,1]], A_r = -2*ones, B_r = ones.
    N = dim ker [C1 C2] = 1."""
    sysm = AssembledSystem(
        M11=_csr([[3.0]]), Mnu=_csr([[2.0]]), Upsilon=_csr([[1.0]]),
        X=_csr([[1.0], [1.0]]), C1=_csr([[1.0]]), C2=_csr([[1.0]]),
        R=np.array([[1.0]]), n1=1, n2=1, m=1,
    )
    bases = KernelBases(Y_C2=sp.csr_matrix((1, 0)), Yhat_C2=sp.identity(1, format="csr"),
                        k2=0, n_nodes=1)
    return sysm, bases


def make_synthetic_system():
    """n1 = 2, n2 = 4, k2 = 2, m = 1, n_f = 3: n_inf = 1, n_r = 4.
    [C1 C2] has rank 2, so N = dim ker [C1 C2] = 4."""
    c1 = _csr([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
    c2 = _csr([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0], [1.0, 1.0, -1.0, -1.0]])
    y = _csr(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]))
    yh = _csr(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]))
    ups = _csr([[1.0], [2.0], [0.5]])
    x = (sp.hstack([c1, c2]).T @ ups).tocsr()
    sysm = AssembledSystem(
        M11=_csr([[3.0, 1.0], [1.0, 2.0]]), Mnu=_csr(np.diag([2.0, 3.0, 4.0])),
        Upsilon=ups, X=x, C1=c1, C2=c2, R=np.array([[2.0]]), n1=2, n2=4, m=1,
    )
    bases = KernelBases(Y_C2=y, Yhat_C2=yh, k2=2, n_nodes=4)
    return sysm, bases


@pytest.fixture()
def toy():
    sysm, bases = make_toy_system()
    rsys = build_regularized(sysm, bases)
    return sysm, bases, rsys, OperatorContext(rsys)


@pytest.fixture()
def synthetic():
    sysm, bases = make_synthetic_system()
    rsys = build_regularized(sysm, bases)
    ctx = OperatorContext(rsys)
    oracle = build_dense_oracle(ctx, cap=100)
    return sysm, bases, rsys, ctx, oracle


class DeskScenario:
    """Lazily built shared state for the default desk-scale configuration."""

    def __init__(self):
        self.config = default_config()
        self.timings = {}
        self._built = {}

    def _timed(self, name, fn):
        if name not in self._built:
            t0 = time.perf_counter()
            self._built[name] = fn()
            self.timings[name] = time.perf_counter() - t0
        return self._built[name]

    @property
    def mesh(self):
        return self._timed("mesh", lambda: generate_mesh(self.config.geometry))

    @property
    def inc(self):
        return self._timed(
            "incidence",
            lambda: eliminate_boundary(build_incidence(self.mesh), self.mesh))

    @property
    def system(self):
        return self._timed("assemble", lambda: build_system(
            self.mesh, self.inc, self.config.material, self.config.winding))

    @property
    def bases(self):
        return self._timed("bases", lambda: kernel_bases(self.inc))

    @property
    def rsys(self):
        return self._timed("regularize",
                           lambda: build_regularized(self.system, self.bases))

    @property
    def ctx(self):
        return self._timed("context", lambda: OperatorContext(self.rsys))

    @property
    def bounds(self):
        return self._timed("lanczos", lambda: self.ctx.spectral_bounds(
            maxit=self.config["mor.lanczos_maxit"], tol=self.config["mor.lanczos_tol"]))

    @property
    def shifts(self):
        return self._timed("shifts", lambda: wachspress_shifts(
            self.bounds.a, self.bounds.b, self.config["mor.eps_shift"]))

    @property
    def zc(self):
        return self._timed("lr_adi", lambda: lr_adi(
            self.ctx, self.shifts, tol=self.config["mor.tol_adi"],
            maxit=self.config["mor.maxit_adi"]))

    @property
    def model(self):
        return self._timed("bt", lambda: balanced_truncate(
            self.ctx, self.zc, target=self.config.tol_hsv))

    @property
    def oracle(self):
        return self._timed("oracle", lambda: build_dense_oracle(
            self.ctx, cap=self.config["oracle.dense_cap"]))


@pytest.fixture(scope="session")
def desk():
    return DeskScenario()


def gapped_kernel_dim(w):
    """Number of the ascending PSD eigenvalues ``w`` at most 1e-8 w[-1],
    asserting a clear gap: those lie below 1e-10 w[-1], the rest above
    1e-6 w[-1]."""
    n0 = int(np.sum(w <= 1e-8 * w[-1]))
    assert n0 == 0 or w[n0 - 1] <= 1e-10 * w[-1]
    assert n0 == w.size or w[n0] >= 1e-6 * w[-1]
    return n0


@pytest.fixture(scope="session")
def desk_dense_kernel(desk):
    """(w, Y): the eigenvalues, ascending, of the desk's F_nu F_nu^T
    (F_nu = [C1^T; P2^T]) and an orthonormal basis Y of its kernel, from
    one dense symmetric eigendecomposition."""
    f = sp.hstack([desk.rsys.C1, desk.rsys.P2]).tocsc()
    w, u = scipy.linalg.eigh((f.T @ f).toarray(), overwrite_a=True, check_finite=False,
                             driver="evd")
    return w, u[:, :gapped_kernel_dim(w)].copy()

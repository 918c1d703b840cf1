"""Assembly of the discrete MQS matrices on the interior-edge/face complex.

Whitney form conventions (node indices always ascending in the global
ordering):

    edge (a,b):    phi_e = lam_a grad(lam_b) - lam_b grad(lam_a)
    face (a,b,c):  phi_f = 2 (lam_a grad(lam_b) x grad(lam_c)
                            + lam_b grad(lam_c) x grad(lam_a)
                            + lam_c grad(lam_a) x grad(lam_b))

These match the incidence sign conventions of the mesh module, so
curl(Phi_e) = Phi_f C holds element by element.  All mass integrands are at
most quadratic (Whitney forms are affine), hence the 4-point degree-2
tetrahedral rule is exact; the winding integrand is exact too because the
stream function is affine per element on the aligned grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .lacore import csr_from_coo, is_positive_definite
from .mesh import (
    AIR,
    COIL,
    IRON,
    TET_EDGE_PAIRS,
    TET_FACE_TRIPLES,
    IncidenceSet,
    Mesh,
    tet_volumes,
)

# degree-2 rule: 4 points, barycentric (a,b,b,b) permutations, weight 1/4
_QA = 0.5854101966249684544614
_QB = 0.1381966011250105151795
QUAD_LAMBDA = np.array(
    [
        [_QA, _QB, _QB, _QB],
        [_QB, _QA, _QB, _QB],
        [_QB, _QB, _QA, _QB],
        [_QB, _QB, _QB, _QA],
    ]
)
QUAD_WEIGHT = 0.25

# local face-edge incidence for a sorted tet in the mesh's local numbering,
# same sign rule as mesh.C
C_LOCAL = np.array(
    [
        [0, 0, 0, 1, -1, 1],
        [0, 1, -1, 0, 0, 1],
        [1, 0, -1, 0, 1, 0],
        [1, -1, 0, 1, 0, 0],
    ],
    dtype=float,
)


@dataclass(frozen=True)
class MaterialSpec:
    """Conductivity, reluctivities and the terminal resistance matrix."""

    sigma1: float
    nu_iron: float
    nu_air: float
    R: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "R", np.atleast_2d(np.asarray(self.R, dtype=float)))
        if self.sigma1 <= 0:
            raise ValueError("sigma1 must be positive")
        if self.nu_iron <= 0 or self.nu_air <= 0:
            raise ValueError("reluctivities must be positive")
        R = self.R
        if R.shape[0] != R.shape[1] or not np.allclose(R, R.T):
            raise ValueError("R must be square symmetric")
        if np.any(np.linalg.eigvalsh(R) <= 0):
            raise ValueError("R must be positive definite")

    def sigma_by_region(self):
        out = np.zeros(3)
        out[IRON] = self.sigma1
        return out

    def nu_by_region(self):
        out = np.full(3, self.nu_air)
        out[IRON] = self.nu_iron
        return out


@dataclass(frozen=True)
class WindingSpec:
    """Stranded-conductor stream function for one terminal.

    psi(x) = g(rho) * h(z) with rho = max(|x1|, |x2|), g piecewise linear
    (slope -turns/cross_section on [r3, r4], zero outside, g(r4) = 0) and h
    the indicator of [z3, z4].  gamma = (0, 0, psi); chi = curl(gamma) is
    divergence free with |chi| = turns/cross_section inside the coil and
    support exactly the coil region on the aligned grid.
    """

    turns: float          # N_c
    cross_section: float  # S_c (m^2); kept a free model parameter
    r3: float
    r4: float
    z3: float
    z4: float

    def __post_init__(self):
        if self.turns <= 0 or self.cross_section <= 0:
            raise ValueError("turns and cross_section must be positive")
        if not (0 < self.r3 < self.r4):
            raise ValueError("need 0 < r3 < r4")
        if not self.z3 < self.z4:
            raise ValueError("need z3 < z4")

    @property
    def slope(self):
        return self.turns / self.cross_section

    def psi(self, pts):
        pts = np.atleast_2d(pts)
        rho = np.maximum(np.abs(pts[:, 0]), np.abs(pts[:, 1]))
        g = np.clip(self.r4 - rho, 0.0, self.r4 - self.r3) * self.slope
        h = ((pts[:, 2] > self.z3) & (pts[:, 2] < self.z4)).astype(float)
        return g * h

    def chi(self, pts):
        """curl((0,0,psi)) = (d psi/dy, -d psi/dx, 0), evaluated pointwise."""
        pts = np.atleast_2d(pts)
        x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
        rho = np.maximum(np.abs(x), np.abs(y))
        inside = (self.r3 < rho) & (rho < self.r4) & (self.z3 < z) & (z < self.z4)
        gp = np.where(inside, -self.slope, 0.0)
        x_active = np.abs(x) >= np.abs(y)
        drho_dx = np.where(x_active, np.sign(x), 0.0)
        drho_dy = np.where(x_active, 0.0, np.sign(y))
        return np.stack([gp * drho_dy, -gp * drho_dx, np.zeros_like(x)], axis=1)


@dataclass
class AssembledSystem:
    """Block matrices of the semidiscrete MQS system on the interior complex.

    Edge-indexed objects use the conducting-first partition of the eliminated
    incidence set; face-indexed objects use mesh face ids.  K is kept in the
    factored form C^T M_nu C; X = C^T Upsilon by construction.  ``edge_xyz``
    (edge midpoints, same edge order) is None for inputs without a mesh.
    """

    M11: object           # csr, n1 x n1, SPD
    Mnu: object           # csr, n_f x n_f, SPD
    Upsilon: object       # csr, n_f x m
    X: object             # csr, (n1+n2) x m
    C1: object            # csr, n_f x n1
    C2: object            # csr, n_f x n2
    R: np.ndarray         # m x m SPD
    n1: int
    n2: int
    m: int
    edge_xyz: np.ndarray | None = field(default=None, repr=False)  # (n1+n2) x 3

    @property
    def X1(self):
        return self.X[: self.n1]

    @property
    def X2(self):
        return self.X[self.n1:]

    @property
    def C(self):
        return sp.hstack([self.C1, self.C2]).tocsr()

    def K(self):
        c = self.C
        return (c.T @ (self.Mnu @ c)).tocsr()


def _tet_geometry(mesh):
    """(Positive) volumes and barycentric gradients of the sorted tets."""
    return _geometry_from_coords(mesh.nodes[mesh.tets_sorted])


def _geometry_from_coords(p):
    d = p[:, 1:] - p[:, :1]                      # (T,3,3), rows d_j = P_j - P_0
    vol = np.abs(np.linalg.det(d)) / 6.0
    dinv = np.linalg.inv(d)                      # columns are grad(lam_j), j=1..3
    grads = np.empty((p.shape[0], 4, 3))
    grads[:, 1:] = np.transpose(dinv, (0, 2, 1))
    grads[:, 0] = -grads[:, 1:].sum(axis=1)
    return vol, grads


def element_edge_mass(p):
    """6x6 Whitney 1-form Gram matrices for tets with vertex coords p (T,4,3)."""
    vol, grads = _geometry_from_coords(p)
    lam = QUAD_LAMBDA
    vals = np.empty((p.shape[0], 4, 6, 3))
    for e, (a, b) in enumerate(TET_EDGE_PAIRS):
        vals[:, :, e, :] = (
            lam[None, :, a, None] * grads[:, None, b, :]
            - lam[None, :, b, None] * grads[:, None, a, :]
        )
    me = np.einsum("tqex,tqfx->tef", vals, vals) * QUAD_WEIGHT
    return me * vol[:, None, None]


def _face_basis_at_quad(grads):
    """Whitney 2-form values at quadrature points, shape (T, 4q, 4f, 3)."""
    lam = QUAD_LAMBDA
    cross = np.cross(grads[:, :, None, :], grads[:, None, :, :])  # (T,4,4,3)
    vals = np.empty((grads.shape[0], 4, 4, 3))
    for fidx, (a, b, c) in enumerate(TET_FACE_TRIPLES):
        vals[:, :, fidx, :] = 2.0 * (
            lam[None, :, a, None] * cross[:, None, b, c, :]
            + lam[None, :, b, None] * cross[:, None, c, a, :]
            + lam[None, :, c, None] * cross[:, None, a, b, :]
        )
    return vals


def element_face_mass(p):
    """4x4 Whitney 2-form Gram matrices for tets with vertex coords p."""
    vol, grads = _geometry_from_coords(p)
    vals = _face_basis_at_quad(grads)
    mf = np.einsum("tqfx,tqgx->tfg", vals, vals) * QUAD_WEIGHT
    return mf * vol[:, None, None]


def element_curl_curl(p):
    """6x6 curl-curl matrices assembled directly from curl(phi_e) = 2 ga x gb."""
    vol, grads = _geometry_from_coords(p)
    curls = np.empty((p.shape[0], 6, 3))
    for e, (a, b) in enumerate(TET_EDGE_PAIRS):
        curls[:, e, :] = 2.0 * np.cross(grads[:, a, :], grads[:, b, :])
    kc = np.einsum("tex,tfx->tef", curls, curls)
    return kc * vol[:, None, None]


def _edge_scatter(mesh, inc, elem, tet_sel=None):
    """Scatter per-tet 6x6 element matrices into the interior-edge complex."""
    pos = np.full(mesh.n_edges, -1, dtype=np.int64)
    pos[inc.edge_order] = np.arange(inc.edge_order.shape[0])
    te = mesh.tet_edge_ids if tet_sel is None else mesh.tet_edge_ids[tet_sel]
    gpos = pos[te]                                   # (T,6)
    rows = np.repeat(gpos, 6, axis=1).ravel()
    cols = np.tile(gpos, (1, 6)).ravel()
    vals = elem.reshape(-1)
    keep = (rows >= 0) & (cols >= 0)
    ne = inc.edge_order.shape[0]
    return csr_from_coo(rows[keep], cols[keep], vals[keep], (ne, ne))


def assemble_edge_mass(mesh: Mesh, inc: IncidenceSet, sigma_by_region):
    """Conductivity-weighted edge mass matrix M on the interior complex."""
    sigma = np.asarray(sigma_by_region, dtype=float)
    w = sigma[mesh.regions]
    active = np.flatnonzero(w != 0.0)
    if active.size == 0:
        ne = inc.edge_order.shape[0]
        return sp.csr_matrix((ne, ne))
    elem = element_edge_mass(mesh.nodes[mesh.tets_sorted[active]])
    elem *= w[active][:, None, None]
    return _edge_scatter(mesh, inc, elem, tet_sel=active)


def assemble_face_mass(mesh: Mesh, inc: IncidenceSet, nu_by_region):
    """Reluctivity-weighted face mass matrix M_nu (all faces retained)."""
    nu = np.asarray(nu_by_region, dtype=float)
    w = nu[mesh.regions]
    elem = element_face_mass(mesh.nodes[mesh.tets_sorted]) * w[:, None, None]
    tf = mesh.tet_face_ids
    rows = np.repeat(tf, 4, axis=1).ravel()
    cols = np.tile(tf, (1, 4)).ravel()
    return csr_from_coo(rows, cols, elem.reshape(-1), (mesh.n_faces, mesh.n_faces))


def assemble_upsilon(mesh: Mesh, inc: IncidenceSet, windings):
    """Winding-potential matrix Upsilon_{kj} = integral gamma_j . phi_f_k.

    Exact on the aligned grid: psi is affine per element, phi_f is affine,
    so the degree-2 rule integrates the product exactly.
    """
    if isinstance(windings, WindingSpec):
        windings = [windings]
    m = len(windings)
    vol, grads = _tet_geometry(mesh)
    vals = _face_basis_at_quad(grads)                # (T,4q,4f,3)
    p = mesh.nodes[mesh.tets_sorted]                 # (T,4,3)
    qpts = np.einsum("qv,tvx->tqx", QUAD_LAMBDA, p)  # (T,4q,3)
    cols_all, rows_all, data_all = [], [], []
    for j, wind in enumerate(windings):
        psi = wind.psi(qpts.reshape(-1, 3)).reshape(qpts.shape[:2])  # (T,4q)
        contrib = np.einsum("tq,tqf->tf", psi, vals[:, :, :, 2]) * QUAD_WEIGHT
        contrib *= vol[:, None]
        rows_all.append(mesh.tet_face_ids.ravel())
        cols_all.append(np.full(mesh.tet_face_ids.size, j, dtype=np.int64))
        data_all.append(contrib.ravel())
    ups = csr_from_coo(
        np.concatenate(rows_all),
        np.concatenate(cols_all),
        np.concatenate(data_all),
        (mesh.n_faces, m),
    )
    ups.eliminate_zeros()
    return ups


def edge_midpoints(mesh: Mesh, inc: IncidenceSet):
    """Midpoints of the incidence set's edges, in its conducting-first order."""
    return mesh.nodes[mesh.edges[inc.edge_order]].mean(axis=1)


def build_system(mesh: Mesh, inc: IncidenceSet, material: MaterialSpec,
                 windings) -> AssembledSystem:
    """Assemble all system blocks; K and X are kept in factored form.

    The conducting block M11 must be positive definite (checked by a sparse
    symmetric-mode LU); a failure signals a broken conducting-edge partition.
    """
    if not inc.eliminated:
        raise ValueError("build_system expects the boundary-eliminated complex")
    if inc.edge_order.shape[0] == 0:
        raise ValueError("empty interior complex: nothing to assemble")
    if isinstance(windings, WindingSpec):
        windings = [windings]
    m = len(windings)
    if material.R.shape[0] != m:
        raise ValueError(f"R is {material.R.shape} but there are {m} windings")

    M = assemble_edge_mass(mesh, inc, material.sigma_by_region())
    n1, n2 = inc.n1, inc.n2
    off_block = M[n1:, :].nnz + M[:n1, n1:].nnz
    if off_block:
        raise ValueError("conductivity mass has entries outside the conducting block")
    M11 = M[:n1, :n1].tocsr()
    if not is_positive_definite(M11):
        raise ValueError("M11 is not positive definite")

    Mnu = assemble_face_mass(mesh, inc, material.nu_by_region())
    Upsilon = assemble_upsilon(mesh, inc, windings)
    C = inc.C.astype(np.float64).tocsr()
    X = (C.T @ Upsilon).tocsr()
    return AssembledSystem(
        M11=M11,
        Mnu=Mnu,
        Upsilon=Upsilon,
        X=X,
        C1=C[:, :n1].tocsr(),
        C2=C[:, n1:].tocsr(),
        R=material.R,
        n1=n1,
        n2=n2,
        m=m,
        edge_xyz=edge_midpoints(mesh, inc),
    )

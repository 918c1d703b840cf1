"""Structured tetrahedral mesh of a box with labeled iron / coil / air regions.

The box is split into resolution^3 cells and each cell into 6 tetrahedra
(Kuhn subdivision).  The local Kuhn frame of every cell measures coordinates
outward from the x=0 / y=0 planes, so the internal diagonal faces of cells on
the grid diagonal lie exactly on the planes |x| = |y|.  Together with shell
radii placed on grid lines this makes the winding stream function piecewise
affine per element, which downstream assembly relies on.  The reflected
frames stay conforming: the diagonal induced on a shared cell face depends
only on the two tangential axes, whose reflection classes two face-neighbors
always share.

Region shells are square in the max-norm rho(x, y) = max(|x|, |y|); region
labels are assigned by tet centroid and are exact because all interfaces lie
on cell planes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .lacore import csr_from_coo

AIR, IRON, COIL = 0, 1, 2
REGION_NAMES = {AIR: "air", IRON: "iron", COIL: "coil"}
REGION_CODES = {v: k for k, v in REGION_NAMES.items()}

_KUHN_PERMS = list(itertools.permutations(range(3)))
# local numbering of a sorted tet's edges and faces; the signs of mesh.C and
# of assembly.C_LOCAL both follow it
TET_EDGE_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
TET_FACE_TRIPLES = [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)]


@dataclass(frozen=True)
class GeometrySpec:
    """Box half-widths, max-norm shell radii, axial extents and grid resolution.

    Shell fields may all be None for a plain air box (used by small tests).
    Lengths in meters.
    """

    c1: float
    c2: float
    c3: float
    r1: float | None = None
    r2: float | None = None
    r3: float | None = None
    r4: float | None = None
    z1: float | None = None
    z2: float | None = None
    z3: float | None = None
    z4: float | None = None
    resolution: int = 10

    def __post_init__(self):
        if not (self.c1 > 0 and self.c2 > 0 and self.c3 > 0):
            raise ValueError("box half-widths must be positive")
        if self.resolution < 1:
            raise ValueError("resolution must be >= 1")
        shell = [self.r1, self.r2, self.r3, self.r4, self.z1, self.z2, self.z3, self.z4]
        given = [v is not None for v in shell]
        if any(given) and not all(given):
            raise ValueError("shell radii and axial extents must be given together")
        if self.has_shells:
            if not (0 < self.r1 < self.r2 < self.r3 < self.r4 < min(self.c1, self.c2)):
                raise ValueError("need 0 < r1 < r2 < r3 < r4 < min(c1, c2)")
            if not (-self.c3 < self.z1 < self.z3 < self.z4 < self.z2 < self.c3):
                raise ValueError("need -c3 < z1 < z3 < z4 < z2 < c3")

    @property
    def has_shells(self):
        return self.r1 is not None


@dataclass
class Mesh:
    """Tetrahedral mesh with derived edge/face complex and boundary flags.

    ``tets`` are positively oriented; ``tets_sorted`` (ascending node ids per
    tet) index into the lexicographically sorted ``edges`` and ``faces``
    arrays via ``tet_edge_ids`` / ``tet_face_ids``.  An edge is flagged
    boundary when both endpoints lie on the domain boundary; this is the
    dof-elimination rule for the tangential-trace condition.
    """

    nodes: np.ndarray          # (n_n, 3) float
    tets: np.ndarray           # (n_t, 4) int, positive orientation
    regions: np.ndarray        # (n_t,) int8
    spec: GeometrySpec | None = None
    edges: np.ndarray = field(default=None, repr=False)
    faces: np.ndarray = field(default=None, repr=False)
    tets_sorted: np.ndarray = field(default=None, repr=False)
    tet_edge_ids: np.ndarray = field(default=None, repr=False)
    tet_face_ids: np.ndarray = field(default=None, repr=False)
    node_boundary: np.ndarray = field(default=None, repr=False)
    edge_boundary: np.ndarray = field(default=None, repr=False)
    face_boundary: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.edges is None:
            self._derive_complex()

    def _derive_complex(self):
        n_n = self.nodes.shape[0]
        vols = tet_volumes(self.nodes, self.tets)
        if np.any(vols <= 0):
            raise ValueError("degenerate tetrahedron: volume <= 0")
        self.tets_sorted = np.sort(self.tets, axis=1)
        allv = self.tets_sorted
        pair = np.stack([allv[:, [a, b]] for a, b in TET_EDGE_PAIRS], axis=1)
        self.edges, inv = _unique_rows(pair.reshape(-1, 2), n_n)
        self.tet_edge_ids = inv.reshape(-1, 6)
        tri = np.stack([allv[:, [a, b, c]] for a, b, c in TET_FACE_TRIPLES], axis=1)
        self.faces, finv = _unique_rows(tri.reshape(-1, 3), n_n)
        self.tet_face_ids = finv.reshape(-1, 4)

        counts = np.bincount(self.tet_face_ids.ravel(), minlength=self.faces.shape[0])
        if counts.max() > 2 or counts.min() < 1:
            raise ValueError("non-manifold mesh: face shared by more than 2 tets")
        self.face_boundary = counts == 1

        xyz = np.abs(self.nodes)
        half = np.array([np.max(xyz[:, 0]), np.max(xyz[:, 1]), np.max(xyz[:, 2])])
        tol = 1e-9 * max(half.max(), 1.0)
        self.node_boundary = np.any(xyz >= half[None, :] - tol, axis=1)
        self.edge_boundary = (
            self.node_boundary[self.edges[:, 0]] & self.node_boundary[self.edges[:, 1]]
        )

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_edges(self):
        return self.edges.shape[0]

    @property
    def n_faces(self):
        return self.faces.shape[0]


def _unique_rows(rows, n_nodes):
    """``np.unique(rows, axis=0, return_inverse=True)`` for rows of node ids
    in ``range(n_nodes)``: each row is one int64 key in base ``n_nodes``,
    whose order is the rows' lexicographic order, so the unique rows, their
    order and the inverse ids are the same, found by a 1-D unique."""
    width, n_nodes = rows.shape[1], int(n_nodes)
    if n_nodes ** width > 2 ** 63:
        raise ValueError(f"{n_nodes} nodes: a key of {width} node ids overflows int64")
    if rows.size and (rows.min() < 0 or rows.max() >= n_nodes):
        raise ValueError("a row references a node outside the mesh")
    keys = np.zeros(rows.shape[0], dtype=np.int64)
    for j in range(width):
        keys = keys * n_nodes + rows[:, j]
    uniq, inv = np.unique(keys, return_inverse=True)
    out = np.empty((uniq.shape[0], width), dtype=rows.dtype)
    for j in reversed(range(width)):
        uniq, out[:, j] = np.divmod(uniq, n_nodes)
    return out, inv


def tet_volumes(nodes, tets):
    """Signed volumes of tets (positive for positively oriented vertex order)."""
    p = nodes[tets]
    d = p[:, 1:] - p[:, :1]
    return np.linalg.det(d) / 6.0


def _axis_grid(c, n):
    return np.linspace(-c, c, n + 1)


def _check_aligned(values, grid, axis_name):
    tol = 1e-9 * max(1.0, np.abs(grid).max())
    for v in values:
        if np.min(np.abs(grid - v)) > tol:
            raise ValueError(
                f"region interface {axis_name} = {v!r} does not lie on a grid plane; "
                f"choose resolution so all shell interfaces are grid-aligned"
            )


def generate_mesh(spec: GeometrySpec) -> Mesh:
    """Kuhn-subdivided box mesh with exact region labeling.

    Raises ValueError when a shell interface does not lie on a grid plane
    (misaligned interfaces would make region labels and the winding support
    inexact).
    """
    n = spec.resolution
    gx, gy, gz = _axis_grid(spec.c1, n), _axis_grid(spec.c2, n), _axis_grid(spec.c3, n)
    if spec.has_shells:
        radii = [spec.r1, spec.r2, spec.r3, spec.r4]
        _check_aligned(radii, gx, "x")
        _check_aligned([-r for r in radii], gx, "x")
        _check_aligned(radii, gy, "y")
        _check_aligned([-r for r in radii], gy, "y")
        _check_aligned([spec.z1, spec.z2, spec.z3, spec.z4], gz, "z")

    def node_id(i, j, k):
        return (k * (n + 1) + j) * (n + 1) + i

    ii, jj, kk = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    ii, jj, kk = ii.ravel(), jj.ravel(), kk.ravel()
    # outward-measuring local frames: mirror an axis where the cell center is negative
    mx = gx[ii] + gx[ii + 1] < 0
    my = gy[jj] + gy[jj + 1] < 0

    def corner_ids(u, v, w):
        gi = np.where(mx, ii + 1 - u, ii + u)
        gj = np.where(my, jj + 1 - v, jj + v)
        gk = kk + w
        return node_id(gi, gj, gk)

    unit = np.eye(3, dtype=int)
    tet_blocks = []
    for p in _KUHN_PERMS:
        c0 = np.zeros(3, dtype=int)
        c1 = c0 + unit[p[0]]
        c2 = c1 + unit[p[1]]
        c3 = np.ones(3, dtype=int)
        ids = [corner_ids(*c) for c in (c0, c1, c2, c3)]
        tet_blocks.append(np.stack(ids, axis=1))
    # interleave so tets of one cell are consecutive, cells in (i,j,k) order
    tets = np.stack(tet_blocks, axis=1).reshape(-1, 4)

    # node_id(i,j,k) = (k*(n+1)+j)*(n+1)+i  ->  i fastest
    nodes = np.empty(((n + 1) ** 3, 3))
    I, J, K = np.meshgrid(np.arange(n + 1), np.arange(n + 1), np.arange(n + 1),
                          indexing="ij")
    ids = node_id(I.ravel(), J.ravel(), K.ravel())
    nodes[ids, 0] = gx[I.ravel()]
    nodes[ids, 1] = gy[J.ravel()]
    nodes[ids, 2] = gz[K.ravel()]

    vols = tet_volumes(nodes, tets)
    flip = vols < 0
    tets[flip] = tets[flip][:, [0, 1, 3, 2]]

    cent = nodes[tets].mean(axis=1)
    rho = np.maximum(np.abs(cent[:, 0]), np.abs(cent[:, 1]))
    zc = cent[:, 2]
    regions = np.full(tets.shape[0], AIR, dtype=np.int8)
    if spec.has_shells:
        iron = (spec.r1 < rho) & (rho < spec.r2) & (spec.z1 < zc) & (zc < spec.z2)
        coil = (spec.r3 < rho) & (rho < spec.r4) & (spec.z3 < zc) & (zc < spec.z4)
        regions[iron] = IRON
        regions[coil] = COIL

    return Mesh(nodes=nodes, tets=tets, regions=regions, spec=spec)


@dataclass
class IncidenceSet:
    """Oriented incidence matrices on (a subset of) the mesh complex.

    C is the face-edge incidence ("discrete curl", rows = all faces), G0 the
    edge-node incidence ("discrete gradient").  Columns of C / rows of G0 are
    ordered conducting-block first; ``edge_order`` / ``node_order`` map matrix
    positions back to mesh ids.
    """

    C: object                 # csr (n_f x n_edge_cols), entries in {-1,0,1}
    G0: object                # csr (n_edge_cols x n_node_cols)
    edge_order: np.ndarray    # mesh edge id per matrix column of C
    node_order: np.ndarray    # mesh node id per matrix column of G0
    n1: int                   # leading conducting block size
    eliminated: bool = False

    @property
    def n2(self):
        return self.edge_order.shape[0] - self.n1


def gradient_incidence(edges, n_nodes):
    """Edge-node incidence with +1 where the edge leaves its low node."""
    ne = edges.shape[0]
    rows = np.repeat(np.arange(ne), 2)
    cols = edges.ravel()
    vals = np.tile(np.array([1, -1], dtype=np.int64), ne)
    return csr_from_coo(rows, cols, vals, (ne, n_nodes), dtype=np.int64)


def _curl_incidence(faces, edges, n_nodes):
    """Face-edge incidence for sorted faces (a,b,c): +(a,b), +(b,c), -(a,c)."""
    keys = edges[:, 0].astype(np.int64) * n_nodes + edges[:, 1]
    a, b, c = faces[:, 0], faces[:, 1], faces[:, 2]

    def eid(lo, hi):
        k = lo.astype(np.int64) * n_nodes + hi
        pos = np.searchsorted(keys, k)
        if k.size and (keys.size == 0
                       or not np.array_equal(keys[np.minimum(pos, keys.size - 1)], k)):
            raise RuntimeError("a face edge is missing from the edge list")
        return pos

    nf = faces.shape[0]
    rows = np.repeat(np.arange(nf), 3)
    cols = np.stack([eid(a, b), eid(b, c), eid(a, c)], axis=1).ravel()
    vals = np.tile(np.array([1, 1, -1], dtype=np.int64), nf)
    return csr_from_coo(rows, cols, vals, (nf, edges.shape[0]), dtype=np.int64)


def conducting_edge_mask(mesh: Mesh) -> np.ndarray:
    """True for edges incident to at least one iron tetrahedron."""
    mask = np.zeros(mesh.n_edges, dtype=bool)
    iron = mesh.regions == IRON
    if iron.any():
        mask[np.unique(mesh.tet_edge_ids[iron])] = True
    return mask


def build_incidence(mesh: Mesh) -> IncidenceSet:
    """Incidence matrices on the full complex, conducting edges first.

    Edge orientation is low node id -> high node id; face orientation is the
    one induced by the sorted node triple.  C @ G0 = 0 holds exactly in
    integer arithmetic.
    """
    C = _curl_incidence(mesh.faces, mesh.edges, mesh.n_nodes)
    G0 = gradient_incidence(mesh.edges, mesh.n_nodes)
    cond = conducting_edge_mask(mesh)
    edge_order = np.concatenate([np.flatnonzero(cond), np.flatnonzero(~cond)])
    node_order = np.arange(mesh.n_nodes)
    return IncidenceSet(
        C=C[:, edge_order].tocsr(),
        G0=G0[edge_order, :].tocsr(),
        edge_order=edge_order,
        node_order=node_order,
        n1=int(cond.sum()),
    )


def eliminate_boundary(inc: IncidenceSet, mesh: Mesh) -> IncidenceSet:
    """Restrict to interior edges and nodes (tangential trace condition).

    All faces are retained; the conducting-first partition is remapped.
    """
    keep_edge = ~mesh.edge_boundary[inc.edge_order]
    keep_node = ~mesh.node_boundary[inc.node_order]
    edge_order = inc.edge_order[keep_edge]
    node_order = inc.node_order[keep_node]
    n1 = int(keep_edge[: inc.n1].sum())
    C = inc.C[:, keep_edge].tocsr()
    G0 = inc.G0[keep_edge, :][:, keep_node].tocsr()
    return IncidenceSet(C=C, G0=G0, edge_order=edge_order, node_order=node_order,
                        n1=n1, eliminated=True)


def write_mesh(path, mesh: Mesh):
    """Plain-text mesh export: NODES / TETS / REGIONS sections, 1-based ids."""
    with open(path, "w") as f:
        f.write(f"NODES {mesh.n_nodes}\n")
        for p in mesh.nodes:
            f.write("%.17e %.17e %.17e\n" % (p[0], p[1], p[2]))
        f.write(f"TETS {mesh.tets.shape[0]}\n")
        for t in mesh.tets:
            f.write("%d %d %d %d\n" % (t[0] + 1, t[1] + 1, t[2] + 1, t[3] + 1))
        f.write(f"REGIONS {mesh.regions.shape[0]}\n")
        for r in mesh.regions:
            f.write(REGION_NAMES[int(r)] + "\n")


def read_mesh(path, spec: GeometrySpec | None = None) -> Mesh:
    with open(path) as f:
        tok = f.readline().split()
        if tok[0] != "NODES":
            raise ValueError("mesh file must start with a NODES section")
        nn = int(tok[1])
        nodes = np.array([[float(x) for x in f.readline().split()] for _ in range(nn)])
        tok = f.readline().split()
        if tok[0] != "TETS":
            raise ValueError("missing TETS section")
        nt = int(tok[1])
        tets = np.array(
            [[int(x) - 1 for x in f.readline().split()] for _ in range(nt)], dtype=int
        )
        tok = f.readline().split()
        if tok[0] != "REGIONS":
            raise ValueError("missing REGIONS section")
        regions = np.array(
            [REGION_CODES[f.readline().strip()] for _ in range(nt)], dtype=np.int8
        )
    return Mesh(nodes=nodes, tets=tets, regions=regions, spec=spec)


def lattice_counts(n):
    """Closed-form node/edge/face/tet counts of the Kuhn-subdivided n^3 box."""
    n_n = (n + 1) ** 3
    n_e = 3 * n * (n + 1) ** 2 + 3 * n ** 2 * (n + 1) + n ** 3
    n_f = 12 * n ** 3 + 6 * n ** 2
    n_t = 6 * n ** 3
    return n_n, n_e, n_f, n_t

"""``lacore.nested_dissection`` against the sparse-slicing version it replaced.

``_reference_order`` below is the earlier form, kept as the reference: it
finds each split's boundary sets by slicing the symmetrized sparse graph
twice per split.  The edge-list version must give the same permutation,
entry for entry.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from mqsmor.assembly import build_system
from mqsmor.config import RunConfig
from mqsmor.lacore import nested_dissection
from mqsmor.mesh import build_incidence, eliminate_boundary, generate_mesh
from mqsmor.ops import OperatorContext
from mqsmor.regularize import build_regularized, kernel_bases

_ND_LEAF = 32


def _reference_order(pattern, xyz, last=()):
    n = pattern.shape[0]
    xyz = np.asarray(xyz, dtype=float)
    last = np.asarray(last, dtype=np.int64).ravel()
    inner = np.ones(n, dtype=bool)
    inner[last] = False
    a = sp.csr_matrix(pattern)
    graph = (abs(a) + abs(a.T)).tocsr()
    idx = np.flatnonzero(inner)
    graph = graph[idx][:, idx].tocsr()
    out = []
    _reference_dissect(idx, graph, xyz[idx], out)
    out.append(last)
    return np.concatenate(out)


def _reference_dissect(idx, graph, pts, out):
    span = np.ptp(pts, axis=0) if idx.size > _ND_LEAF else np.zeros(1)
    if not span.max() > 0:
        out.append(idx)
        return
    key = pts[:, int(np.argmax(span))]
    med = np.median(key)
    left = key < med
    if not left.any():
        left = key <= med
    lo, hi = np.flatnonzero(left), np.flatnonzero(~left)
    cross = graph[lo][:, hi]
    b_lo = cross.getnnz(axis=1) > 0
    b_hi = cross.getnnz(axis=0) > 0
    if b_lo.sum() <= b_hi.sum():
        sep, lo = lo[b_lo], lo[~b_lo]
    else:
        sep, hi = hi[b_hi], hi[~b_hi]
    for part in (lo, hi):
        _reference_dissect(idx[part], graph[part][:, part], pts[part], out)
    out.append(idx[sep])


def _assert_same_order(pattern, xyz, last):
    order = nested_dissection(pattern, xyz, last=last)
    assert order.dtype == np.int64
    assert np.array_equal(order, _reference_order(pattern, xyz, last))
    assert np.array_equal(np.sort(order), np.arange(pattern.shape[0]))


def _assert_context_matches(ctx):
    r = ctx.rsys
    last = np.arange(r.n1 + r.n2, r.n1 + r.n2 + r.m)
    pattern = ctx._lemma3_K + ctx._lemma3_M
    expected = _reference_order(pattern, ctx._bordered_points(), last)
    assert np.array_equal(ctx._order, expected)


def test_desk_bordered_pattern_matches_reference(desk):
    _assert_context_matches(desk.ctx)


def test_box10_bordered_pattern_matches_reference():
    # the geometry of the box10-reduce workload in perfbench/run.py
    cfg = RunConfig({
        "geometry.resolution": 10,
        "geometry.r1": 0.0126, "geometry.r2": 0.0252,
        "geometry.r3": 0.0378, "geometry.r4": 0.0504,
        "geometry.z1": -0.0504, "geometry.z2": 0.0504,
        "geometry.z3": -0.0252, "geometry.z4": 0.0252,
    })
    mesh = generate_mesh(cfg.geometry)
    inc = eliminate_boundary(build_incidence(mesh), mesh)
    system = build_system(mesh, inc, cfg.material, cfg.winding)
    _assert_context_matches(OperatorContext(build_regularized(system, kernel_bases(inc))))


def _random_case(seed):
    """A random pattern (unsymmetric, with self loops and an explicit zero),
    points with coincident clusters or a flat coordinate, and an empty or
    non-empty ``last``."""
    rng = np.random.default_rng([2024, seed])
    n = int(rng.integers(1, 400))
    nnz = int(rng.integers(0, 6 * n))
    rows, cols = rng.integers(0, n, nnz), rng.integers(0, n, nnz)
    pattern = sp.csr_matrix((rng.standard_normal(nnz), (rows, cols)), shape=(n, n))
    if pattern.nnz:
        pattern.data[0] = 0.0
    kind = seed % 5
    if kind == 0:
        xyz = rng.standard_normal((n, 3))
    elif kind == 1:     # a flat coordinate
        xyz = rng.standard_normal((n, 3))
        xyz[:, int(rng.integers(3))] = 0.5
    elif kind == 2:     # coincident points: a few distinct locations
        spots = rng.standard_normal((int(rng.integers(2, 5)), 3))
        xyz = spots[rng.integers(0, spots.shape[0], n)]
    elif kind == 3:     # every point the same
        xyz = np.ones((n, 3))
    else:               # a lattice: many ties at the median
        xyz = rng.integers(0, 4, (n, 3)).astype(float)
    if seed % 2 and n > 1:
        last = rng.choice(n, size=int(rng.integers(1, min(n, 8) + 1)), replace=False)
        xyz[last] = np.nan
    else:
        last = ()
    return pattern, xyz, last


@pytest.mark.parametrize("seed", range(40))
def test_random_graphs_match_reference(seed):
    _assert_same_order(*_random_case(seed))

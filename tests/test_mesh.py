import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from mqsmor.config import default_config

from mqsmor.mesh import (
    AIR,
    COIL,
    IRON,
    TET_EDGE_PAIRS,
    TET_FACE_TRIPLES,
    GeometrySpec,
    _unique_rows,
    build_incidence,
    eliminate_boundary,
    generate_mesh,
    gradient_incidence,
    lattice_counts,
    read_mesh,
    tet_volumes,
    write_mesh,
)


def cube(resolution):
    return generate_mesh(GeometrySpec(c1=0.5, c2=0.5, c3=0.5, resolution=resolution))


def shelled(resolution=3):
    c = 0.5
    h = 2 * c / resolution
    return GeometrySpec(c1=c, c2=c, c3=c, r1=h / 2, r2=h, r3=h, r4=2 * h,
                        z1=-h, z2=h, z3=-h / 2, z4=h / 2, resolution=resolution)


def test_unit_cube_counts():
    mesh = cube(1)
    assert (mesh.n_nodes, mesh.n_edges, mesh.n_faces, mesh.tets.shape[0]) == (8, 19, 18, 6)
    assert mesh.n_nodes - mesh.n_edges + mesh.n_faces - mesh.tets.shape[0] == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lattice_count_formulas(n):
    mesh = cube(n)
    assert (mesh.n_nodes, mesh.n_edges, mesh.n_faces, mesh.tets.shape[0]) == lattice_counts(n)


def test_volume_partition():
    mesh = generate_mesh(GeometrySpec(c1=0.4, c2=0.3, c3=0.2, resolution=4))
    vols = tet_volumes(mesh.nodes, mesh.tets)
    assert vols.min() > 0
    assert np.isclose(vols.sum(), 8 * 0.4 * 0.3 * 0.2, rtol=1e-12)


def test_alignment_error_names_coordinate():
    spec = GeometrySpec(c1=0.5, c2=0.5, c3=0.5, r1=0.05, r2=0.25, r3=0.3, r4=0.4,
                        z1=-0.25, z2=0.25, z3=-0.05, z4=0.05, resolution=4)
    with pytest.raises(ValueError, match="0.05"):
        generate_mesh(spec)


def test_geometry_spec_invariants():
    with pytest.raises(ValueError):
        GeometrySpec(c1=0.5, c2=0.5, c3=0.5, r1=0.3, r2=0.2, r3=0.35, r4=0.4,
                     z1=-0.2, z2=0.2, z3=-0.1, z4=0.1)
    with pytest.raises(ValueError):
        GeometrySpec(c1=-1.0, c2=0.5, c3=0.5)
    with pytest.raises(ValueError):
        GeometrySpec(c1=0.5, c2=0.5, c3=0.5, r1=0.1)  # partial shell data


def test_gradient_incidence_path_convention():
    g = gradient_incidence(np.array([[0, 1], [1, 2]]), 3)
    assert np.array_equal(g.toarray(), [[1, -1, 0], [0, 1, -1]])


def test_incidence_cg0_zero_and_ranks():
    mesh = cube(1)
    inc = build_incidence(mesh)
    cg = inc.C @ inc.G0
    cg.eliminate_zeros()
    assert cg.nnz == 0
    assert np.linalg.matrix_rank(inc.C.toarray()) == 19 - 8 + 1
    assert np.linalg.matrix_rank(inc.G0.toarray()) == 8 - 1


def test_eliminate_unit_cube_degenerate():
    mesh = cube(1)
    inc = eliminate_boundary(build_incidence(mesh), mesh)
    assert inc.edge_order.shape[0] == 0
    assert inc.node_order.shape[0] == 0


def test_eliminate_res3_kernel_dimension():
    mesh = cube(3)
    inc = eliminate_boundary(build_incidence(mesh), mesh)
    c = inc.C.toarray()
    n_int_nodes = inc.node_order.shape[0]
    assert c.shape[1] - np.linalg.matrix_rank(c) == n_int_nodes
    cg = inc.C @ inc.G0
    cg.eliminate_zeros()
    assert cg.nnz == 0
    assert np.linalg.matrix_rank(inc.G0.toarray()) == n_int_nodes


def test_mesh_determinism():
    a, b = cube(2), cube(2)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.tets, b.tets)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.faces, b.faces)


def test_region_labels_and_coil_isolation(desk):
    mesh = desk.mesh
    assert (mesh.regions == IRON).sum() > 0
    assert (mesh.regions == COIL).sum() > 0
    # no coil tet shares a face with an iron tet (disjoint supports, m = 1)
    owner = {}
    for t, faces in enumerate(mesh.tet_face_ids):
        for f in faces:
            owner.setdefault(f, []).append(t)
    for f, tets in owner.items():
        if len(tets) == 2:
            r = {int(mesh.regions[tets[0]]), int(mesh.regions[tets[1]])}
            assert r != {IRON, COIL}


def test_mesh_io_roundtrip(tmp_path):
    mesh = cube(2)
    p = tmp_path / "mesh.txt"
    write_mesh(p, mesh)
    back = read_mesh(p)
    assert np.array_equal(mesh.nodes, back.nodes)
    assert np.array_equal(mesh.tets, back.tets)
    assert np.array_equal(mesh.regions, back.regions)
    assert np.array_equal(mesh.edges, back.edges)
    assert np.array_equal(mesh.faces, back.faces)


def test_conducting_partition_first(desk):
    mesh, inc = desk.mesh, desk.inc
    iron_edges = set()
    for t in np.flatnonzero(mesh.regions == IRON):
        iron_edges.update(mesh.tet_edge_ids[t])
    cond = [e for e in inc.edge_order[: inc.n1]]
    noncond = [e for e in inc.edge_order[inc.n1:]]
    assert all(e in iron_edges for e in cond)
    assert all(e not in iron_edges for e in noncond)


def test_missing_face_edge_raises_under_python_O():
    """The curl incidence's face-edge lookup is an explicit check that
    ``python -O`` keeps: a face whose edge is absent from the edge list
    raises, whether the missing key sorts inside or past the list."""
    code = ("import numpy as np\n"
            "from mqsmor.mesh import _curl_incidence\n"
            "faces = np.array([[0, 1, 2]])\n"
            "for edges in ([[0, 1], [1, 2]], [[0, 1], [0, 2]]):\n"
            "    try:\n"
            "        _curl_incidence(faces, np.array(edges), 3)\n"
            "    except RuntimeError:\n"
            "        pass\n"
            "    else:\n"
            "        raise SystemExit(1)\n"
            "raise SystemExit(3)\n")
    src = os.path.dirname(os.path.dirname(sys.modules["mqsmor"].__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=120)
    assert run.returncode == 3


def _axis0_complex(mesh):
    """Edges, faces and their per-tet ids by ``np.unique(axis=0)``, the
    form the keyed unique replaced."""
    v = mesh.tets_sorted
    pair = np.stack([v[:, list(e)] for e in TET_EDGE_PAIRS], axis=1).reshape(-1, 2)
    tri = np.stack([v[:, list(f)] for f in TET_FACE_TRIPLES], axis=1).reshape(-1, 3)
    edges, inv = np.unique(pair, axis=0, return_inverse=True)
    faces, finv = np.unique(tri, axis=0, return_inverse=True)
    return edges, faces, inv.reshape(-1, 6), finv.reshape(-1, 4)


@pytest.mark.parametrize("resolution", [9, 18])
def test_keyed_complex_equals_axis0_unique(resolution):
    """The desk geometry at its own resolution and at 18: edges, faces,
    per-tet ids and their dtypes are those of ``np.unique(axis=0)``."""
    spec = dataclasses.replace(default_config().geometry, resolution=resolution)
    mesh = generate_mesh(spec)
    got = (mesh.edges, mesh.faces, mesh.tet_edge_ids, mesh.tet_face_ids)
    for a, b in zip(got, _axis0_complex(mesh)):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def test_unique_rows_rejects_overflowing_keys_and_bad_ids():
    top = 2 ** 21 - 1
    rows = np.array([[top, top, top], [0, 1, 2], [top, top, top]])
    # (2^21)^3 = 2^63: the largest key, 2^63 - 1, still fits
    keys, inv = _unique_rows(rows, 2 ** 21)
    assert np.array_equal(keys, [[0, 1, 2], [top, top, top]])
    assert np.array_equal(inv, [1, 0, 1])
    with pytest.raises(ValueError, match="overflows int64"):
        _unique_rows(rows, 2 ** 21 + 1)
    assert np.array_equal(_unique_rows(np.array([[0, 1]]), 2 ** 31)[0], [[0, 1]])
    with pytest.raises(ValueError, match="outside the mesh"):
        _unique_rows(np.array([[0, 3]]), 3)
    with pytest.raises(ValueError, match="outside the mesh"):
        _unique_rows(np.array([[-1, 2]]), 3)

"""Output checks for one benchmark round.

Every check compares an artifact of the pipeline with a property the method
must have, or with a value computed here from other artifacts by separate
code.  Nothing is compared with a stored copy of an earlier run's output;
the full-model reference in ``reference/`` is computed by
``make_reference.py`` from the unregularized pencil, without ``regularize``
or ``ops``.
"""

from __future__ import annotations

import os

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components


def read_kv(path):
    out = {}
    with open(path) as f:
        for line in f:
            key, sep, val = line.partition("=")
            if sep:
                out[key.strip()] = val.strip()
    return out


def _csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class ReducedArtifacts:
    """The written reduced model (A, B, C) and its reported figures."""

    def __init__(self, run_dir):
        d = os.path.join(run_dir, "reduce")
        self.A = np.asarray(scipy.io.mmread(os.path.join(d, "reduced_A.mtx")))
        self.B = np.asarray(scipy.io.mmread(os.path.join(d, "reduced_B.mtx")))
        self.C = np.asarray(scipy.io.mmread(os.path.join(d, "reduced_C.mtx")))
        info = read_kv(os.path.join(d, "reduced.txt"))
        self.error_bound = float(info["error_bound"])
        self.hinf_error = float(info["hinf_error"])

    def transfer(self, s):
        ell = self.A.shape[0]
        return self.C @ np.linalg.solve(s * np.eye(ell) - self.A,
                                        self.B.astype(complex))


def topological_counts(run_dir):
    """n_s, n0, n_inf from the mesh stage's incidence data alone.

    On the boundary-eliminated box, ker C = im G0, so dim ker C2 equals the
    number of node potentials whose gradient vanishes on every conducting
    edge: one constant per ungrounded component of the conducting-edge
    graph plus one value per interior node no conducting edge touches.
    """
    inc = read_kv(os.path.join(run_dir, "mesh", "incidence.txt"))
    m = int(read_kv(os.path.join(run_dir, "assemble", "system.txt"))["m"])
    n1, n2 = int(inc["n1"]), int(inc["n2"])
    g0 = sp.csr_matrix(scipy.io.mmread(os.path.join(run_dir, "mesh", "G0.mtx")))
    n_nodes = g0.shape[1]
    g1 = g0[:n1].tocoo()
    per_row = np.bincount(g1.row, minlength=n1)
    grounded = np.zeros(n_nodes, dtype=bool)
    grounded[g1.col[per_row[g1.row] == 1]] = True    # edge ends on the boundary
    touched = np.zeros(n_nodes, dtype=bool)
    touched[g1.col] = True
    inner = per_row[g1.row] == 2
    rows = g1.row[inner]
    order = np.argsort(rows, kind="stable")
    ends = g1.col[inner][order].reshape(-1, 2)
    graph = sp.coo_matrix((np.ones(len(ends)), (ends[:, 0], ends[:, 1])),
                          shape=(n_nodes, n_nodes))
    _, label = connected_components(graph, directed=False)
    comps = np.unique(label[touched])
    grounded_comps = np.unique(label[touched & grounded])
    k2 = int((~touched).sum() + comps.size - grounded_comps.size)
    return {"N": n_nodes, "n1": n1, "n2": n2, "m": m, "k2": k2,
            "n_inf": n2 - k2 - m, "n0": n_nodes - k2,
            "n_s": n1 - n_nodes + k2 + m}


def check_dimensions(run_dir, manifest):
    """Counts in ``manifest`` (the key-value manifest of the reduce call)."""
    topo = topological_counts(run_dir)
    dims = {k[4:]: int(v) for k, v in manifest.items() if k.startswith("dim.")}
    k2 = int(read_kv(os.path.join(run_dir, "regularize", "bases.txt"))["k2"])
    ok = (k2 == topo["k2"]
          and all(dims.get(k) == topo[k] for k in ("n_s", "n0", "n_inf"))
          and dims.get("n_r") == topo["n1"] + topo["n2"] - topo["k2"])
    detail = (f"manifest n_s/n0/n_inf={dims.get('n_s')}/{dims.get('n0')}/{dims.get('n_inf')} "
              f"topology={topo['n_s']}/{topo['n0']}/{topo['n_inf']} k2={k2}/{topo['k2']}")
    return [("dimension_counts_match_topology", ok, detail)]


def check_reduced(red, R):
    """Closed-form H-infinity error, the bound chain and the model's structure."""
    rinv = np.linalg.inv(R)
    rinv_norm = np.linalg.norm(rinv, 2)
    target = 1e-8 * rinv_norm
    own = np.linalg.norm(rinv + red.B.T @ scipy.linalg.solve(red.A, red.B), 2)
    # the two terms cancel to ~1e-9 of their size; allow for rounding at
    # their own scale
    agree = abs(own - red.hinf_error) <= 1e-12 * rinv_norm
    try:
        np.linalg.cholesky(-red.A)
        neg_def = True
    except np.linalg.LinAlgError:
        neg_def = False
    return [
        ("hinf_error_recomputed", agree,
         f"reported={red.hinf_error:.6e} own={own:.6e}"),
        ("hinf_le_bound_le_target",
         red.hinf_error <= red.error_bound <= target,
         f"hinf={red.hinf_error:.3e} bound={red.error_bound:.3e} target={target:.3e}"),
        ("C_equals_B_transpose", bool(np.array_equal(red.C, red.B.T)), ""),
        ("minus_A_positive_definite", neg_def, f"order={red.A.shape[0]}"),
    ]


def check_freqresp(run_dir, red):
    rows = _csv(os.path.join(run_dir, "freqresp", "freqresp.csv"))
    omega, abs_full, abs_red, abs_err = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]
    own = np.array([np.linalg.norm(red.transfer(1j * w), 2) for w in omega])
    rel = np.max(np.abs(own - abs_red) / np.abs(own))
    # near omega = 0 the error equals the bound up to rounding in H itself
    slack = 1e-13 * abs_full
    return [
        ("reduced_response_recomputed", rel <= 1e-10, f"max_rel={rel:.2e}"),
        ("abs_error_within_bound", bool(np.all(abs_err <= red.error_bound + slack)),
         f"max_abs_error={abs_err.max():.3e} bound={red.error_bound:.3e}"),
    ]


def check_reference(run_dir, ref_path, rtol):
    """|H(i omega)| of the full model against the unregularized reference."""
    ref = np.loadtxt(ref_path, delimiter=",", ndmin=2)    # '#' header line
    rows = _csv(os.path.join(run_dir, "freqresp", "freqresp.csv"))
    worst, matched = 0.0, 0
    for w, h_ref in ref[:, :2]:
        hit = np.flatnonzero(np.isclose(rows[:, 0], w, rtol=1e-12, atol=0.0))
        if hit.size:
            matched += 1
            worst = max(worst, abs(rows[hit[0], 1] - h_ref) / h_ref)
    ok = matched == ref.shape[0] and worst <= rtol
    return [("full_response_vs_unregularized_reference", ok,
             f"matched={matched}/{ref.shape[0]} max_rel={worst:.2e} rtol={rtol:.0e}")]


def check_simulation(run_dir, red, amplitude, frequency, t_final, steps):
    rows = _csv(os.path.join(run_dir, "simulate", "simulation.csv"))
    t, u, y_red, rel = rows[:, 0], rows[:, 1], rows[:, 3], rows[:, 4]
    h = t_final / steps
    ell = red.A.shape[0]
    step = np.eye(ell) - h * red.A
    x = np.zeros(ell)
    own = np.zeros(steps + 1)
    for k in range(1, steps + 1):
        uk = amplitude * np.sin(2.0 * np.pi * frequency * t[k])
        x = np.linalg.solve(step, x + h * (red.B[:, 0] * uk))
        own[k] = (red.C @ x)[0]
    scale = max(np.abs(own).max(), 1e-300)
    dev = np.abs(own - y_red).max() / scale
    drive = np.abs(u - amplitude * np.sin(2.0 * np.pi * frequency * t)).max() / amplitude
    return [
        ("drive_as_configured", rows.shape[0] == steps + 1 and drive <= 1e-12,
         f"rows={rows.shape[0]} dev={drive:.1e}"),
        ("reduced_trajectory_recomputed", dev <= 1e-9, f"max_rel={dev:.2e}"),
        ("trajectory_rel_error", rel.max() <= 1e-6, f"max={rel.max():.2e}"),
    ]


def check_verify(run_dir):
    with open(os.path.join(run_dir, "verify", "verify.txt")) as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    bad = [ln for ln in lines if ": PASS" not in ln]
    return [("verify_all_pass", bool(lines) and not bad,
             f"{len(lines) - len(bad)}/{len(lines)} PASS")]

"""Full-model |H(i omega)| of the desk scenario, computed without regularization.

    python3 perfbench/make_reference.py      # from the checkout root

Writes ``perfbench/reference/desk_full_H.csv``, which ``run.py`` compares
with the ``freqresp`` stage of the ``desk-sweep`` workload.  Only ``mesh``
and ``assembly`` of the package are used: the voltage-driven MQS system

    (s M + K) a - X i = 0,     s X^T a + R i = u,     y = i,

with M the conductivity mass matrix (zero outside the conducting block),
K = C^T M_nu C and X = C^T Upsilon, is singular: [0; ker C2] is a common
kernel of M, K and X^T.  The equations are consistent and determine the
current i uniquely, so a dense least-squares solve of the bordered matrix
with u = 1 gives H(s) = i directly.  Rows and columns are equilibrated
first, which changes the gauge part of the solution but not i.  Takes about
five minutes and 2 GB at desk scale on two cores.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import scipy.linalg
import scipy.sparse as sp

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "reference", "desk_full_H.csv")
# the desk-sweep frequency grid (run.py): every point is a reference point
OMEGAS = np.geomspace(1.0e-4, 1.0e6, 6)


def unregularized_response(system, omega):
    """H(i omega) and the relative residual of the least-squares solve."""
    n, m = system.n1 + system.n2, system.m
    mass = sp.block_diag([system.M11, sp.csr_matrix((system.n2, system.n2))])
    s = 1j * omega
    big = sp.bmat([[s * mass + system.K(), -system.X],
                   [s * system.X.T, sp.csr_matrix(system.R)]]).toarray()
    rhs = np.zeros((n + m, m), dtype=complex)
    rhs[n:] = np.eye(m)
    row = 1.0 / np.sqrt(np.abs(big).max(axis=1))
    col = 1.0 / np.sqrt(np.abs(big).max(axis=0))
    scaled = row[:, None] * big * col[None, :]
    sol, *_ = scipy.linalg.lstsq(scaled, row[:, None] * rhs, cond=1e-13)
    x = col[:, None] * sol
    resid = np.linalg.norm(big @ x - rhs) / np.linalg.norm(rhs)
    return x[n:], float(resid)


def main():
    root = os.path.dirname(HERE)
    sys.path.insert(0, os.path.join(root, "src"))
    from mqsmor.assembly import build_system
    from mqsmor.config import default_config
    from mqsmor.mesh import build_incidence, eliminate_boundary, generate_mesh

    cfg = default_config()
    mesh = generate_mesh(cfg.geometry)
    inc = eliminate_boundary(build_incidence(mesh), mesh)
    system = build_system(mesh, inc, cfg.material, cfg.winding)
    rows = []
    for w in OMEGAS:
        h, resid = unregularized_response(system, w)
        rows.append((w, np.linalg.norm(h, 2), resid))
        print(f"omega={w:.6e} |H|={rows[-1][1]:.12e} rel_residual={resid:.2e}", flush=True)
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as f:
        f.write("# omega,abs_H,rel_residual  (python3 perfbench/make_reference.py)\n")
        for w, a, r in rows:
            f.write(f"{w:.17e},{a:.17e},{r:.3e}\n")


if __name__ == "__main__":
    main()

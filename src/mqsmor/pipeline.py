"""Pipeline driver: staged artifacts on disk plus a run manifest.

Stages: mesh, assemble, regularize, reduce, freqresp, simulate, verify, all.
Each stage writes its artifacts under the output directory; prerequisites
are read back from disk when present and recomputed in memory otherwise, so
stages are resumable.  Each stage's key-value file (``incidence.txt``,
``system.txt``, ``bases.txt``, ``reduced.txt``) is stamped with the tool
version and a hash of the config keys that stage depends on; a resumed stage
loads its artifacts only when the stamp matches, and rebuilds them otherwise.
All numeric artifacts (Matrix Market, CSV, mesh text) are byte-identical
across runs with the same config and seed; the manifest is exempt because
it records wall-clock timings.  A call on a run directory whose manifest has
the same tool version, seed and config echo keeps that manifest's
dimensions, timings and artifacts, its own values winning.
"""

from __future__ import annotations

import functools
import hashlib
import os
import time

import numpy as np
import scipy.sparse as sp

from . import __version__
from .analysis import (
    frequency_response,
    passivity_scan,
    simulate_compare,
    transfer_full,
    transfer_reduced,
)
from .assembly import AssembledSystem, build_system, edge_midpoints
from .config import RunConfig
from .lacore import read_matrix_market, write_matrix_market
from .mesh import build_incidence, eliminate_boundary, generate_mesh, read_mesh, write_mesh
from .mor import ReducedModel, balanced_truncate, lr_adi, wachspress_shifts
from .ops import OperatorContext
from .oracle import build_dense_oracle, dense_gramians
from .regularize import KernelBases, build_regularized, kernel_bases, theorem1_check

STAGES = ("mesh", "assemble", "regularize", "reduce", "freqresp", "simulate", "verify")

# config key prefixes that the artifacts of each stage depend on
_STAGE_CONFIG_KEYS = {
    "mesh": ("geometry.",),
    "assemble": ("geometry.", "material.", "winding."),
    "regularize": ("geometry.",),
    "reduce": ("geometry.", "material.", "winding.", "mor."),
}


def _config_hash(config: RunConfig, stage):
    """Hash of the config values that ``stage``'s artifacts depend on."""
    prefixes = _STAGE_CONFIG_KEYS[stage]
    text = "\n".join(f"{k} = {config.values[k]!r}" for k in sorted(config.values)
                     if k.startswith(prefixes))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class PipelineState:
    """Lazy holder of pipeline objects with disk-backed prerequisites."""

    def __init__(self, config: RunConfig, out_dir, seed=7):
        self.config = config
        self.out = str(out_dir)
        self.seed = int(seed)
        self._cache = {}
        self.manifest = RunManifest(config, self.out, seed=self.seed)

    def path(self, *parts):
        p = os.path.join(self.out, *parts)
        os.makedirs(os.path.dirname(p), exist_ok=True)
        return p

    def stamp(self, stage):
        """Key-value lines that tie a stage's artifacts to this tool and config."""
        return [("tool_version", __version__),
                ("config_hash", _config_hash(self.config, stage))]

    def _read_stamped(self, stage, name):
        """The key-value file ``<out>/<stage>/<name>`` when it carries the
        stage's stamp; None when it is missing, unstamped or stale."""
        path = os.path.join(self.out, stage, name)
        if not os.path.exists(path):
            return None
        info = _read_kv(path)
        return info if dict(self.stamp(stage)).items() <= info.items() else None

    def _get(self, key, loader, builder):
        if key in self._cache:
            return self._cache[key]
        obj = None
        try:
            obj = loader()
        except (OSError, ValueError):
            obj = None
        if obj is None:
            obj = builder()
        self._cache[key] = obj
        return obj

    def mesh(self):
        def load():
            if self._read_stamped("mesh", "incidence.txt") is None:
                return None
            return read_mesh(os.path.join(self.out, "mesh", "mesh.txt"),
                             spec=self.config.geometry)

        return self._get("mesh", load, lambda: generate_mesh(self.config.geometry))

    def incidence(self):
        if "inc" not in self._cache:
            mesh = self.mesh()
            self._cache["inc"] = eliminate_boundary(build_incidence(mesh), mesh)
        return self._cache["inc"]

    def system(self):
        def load():
            d = os.path.join(self.out, "assemble")
            dims = self._read_stamped("assemble", "system.txt")
            if dims is None:
                return None
            return AssembledSystem(
                M11=read_matrix_market(os.path.join(d, "M11.mtx")),
                Mnu=read_matrix_market(os.path.join(d, "Mnu.mtx")),
                Upsilon=read_matrix_market(os.path.join(d, "Upsilon.mtx")),
                X=read_matrix_market(os.path.join(d, "X.mtx")),
                C1=read_matrix_market(os.path.join(d, "C1.mtx")),
                C2=read_matrix_market(os.path.join(d, "C2.mtx")),
                R=self.config.material.R,
                n1=int(dims["n1"]), n2=int(dims["n2"]), m=int(dims["m"]),
                edge_xyz=edge_midpoints(self.mesh(), self.incidence()),
            )

        return self._get(
            "system", load,
            lambda: build_system(self.mesh(), self.incidence(),
                                 self.config.material, self.config.winding),
        )

    def bases(self):
        def load():
            d = os.path.join(self.out, "regularize")
            info = self._read_stamped("regularize", "bases.txt")
            if info is None:
                return None
            return KernelBases(
                Y_C2=read_matrix_market(os.path.join(d, "Y_C2.mtx")),
                Yhat_C2=read_matrix_market(os.path.join(d, "Yhat_C2.mtx")),
                k2=int(info["k2"]),
                provenance=info["provenance"],
                n_nodes=int(info["n_nodes"]),
            )

        return self._get("bases", load, lambda: kernel_bases(self.incidence()))

    def rsys(self):
        if "rsys" not in self._cache:
            self._cache["rsys"] = build_regularized(self.system(), self.bases())
        return self._cache["rsys"]

    def ctx(self):
        if "ctx" not in self._cache:
            self._cache["ctx"] = OperatorContext(self.rsys())
        return self._cache["ctx"]

    def model(self):
        def load():
            d = os.path.join(self.out, "reduce")
            info = self._read_stamped("reduce", "reduced.txt")
            if info is None:
                return None
            a = np.asarray(read_matrix_market(os.path.join(d, "reduced_A.mtx")))
            b = np.asarray(read_matrix_market(os.path.join(d, "reduced_B.mtx")))
            c = np.asarray(read_matrix_market(os.path.join(d, "reduced_C.mtx")))
            hank = np.loadtxt(os.path.join(d, "hankel.csv"), delimiter=",",
                              skiprows=1, ndmin=2)[:, 1]
            model = ReducedModel(
                A=a, B=b, C=c, hankel=hank, ell=int(info["ell"]),
                n_s=int(info["n_s"]), m=int(info["m"]),
                error_bound=float(info["error_bound"]),
                hinf_error=float(info["hinf_error"]),
            )
            return model

        return self._get("model", load, self._build_model)

    def _build_model(self):
        cfg = self.config
        ctx = self.ctx()
        bounds = ctx.spectral_bounds(maxit=cfg["mor.lanczos_maxit"],
                                     tol=cfg["mor.lanczos_tol"])
        if not bounds.converged:
            raise RuntimeError(
                f"Lanczos spectral bounds did not converge in {bounds.iterations} "
                f"iterations (a={bounds.a:.6e}, b={bounds.b:.6e}); "
                "no certified model")
        shifts = wachspress_shifts(bounds.a, bounds.b, cfg["mor.eps_shift"])
        zc = lr_adi(ctx, shifts, tol=cfg["mor.tol_adi"], maxit=cfg["mor.maxit_adi"])
        if zc.status != "converged":
            raise RuntimeError(
                f"LR-ADI ended with status {zc.status!r} after {zc.iterations} "
                f"steps, last residual {zc.history[-1]:.3e} > tol "
                f"{cfg['mor.tol_adi']:.3e}; no certified model")
        self._cache["zc"] = zc
        self._cache["shifts"] = shifts
        ell = cfg["mor.order"] or None
        if ell is not None:
            return balanced_truncate(ctx, zc, ell=ell)
        # pick the smallest order whose truncated-tail error bound meets the
        # target used by the default scenario
        target = self.config.tol_hsv
        model = balanced_truncate(ctx, zc, tol_hsv=target)
        while model.error_bound > target and model.ell < zc.n_c:
            model = balanced_truncate(ctx, zc, ell=model.ell + 1)
        return model


class RunManifest:
    """Config echo, derived dimensions, timings and artifact list.

    ``counts_source`` records whether n_s, n0 and n_inf came from the
    incidence topology or from dense algebra.
    """

    def __init__(self, config, out_dir, seed):
        self.config = config
        self.out = out_dir
        self.seed = seed
        self.dimensions = {}
        self.counts_source = None
        self.timings = []
        self.artifacts = []

    def add_dims(self, **kw):
        self.dimensions.update(kw)

    def check_identities(self):
        d = self.dimensions
        if {"n_r", "n1", "n2", "k2"} <= d.keys():
            assert d["n_r"] == d["n1"] + d["n2"] - d["k2"], "n_r identity violated"
        if {"n_r", "n_s", "n0", "n_inf"} <= d.keys():
            assert d["n_s"] + d["n0"] + d["n_inf"] == d["n_r"], "count identity violated"

    def _header(self):
        return ([("tool_version", __version__), ("seed", str(self.seed))]
                + [(f"config.{k}", str(self.config.values[k]))
                   for k in sorted(self.config.values)])

    def _merge_previous(self, path):
        """Fold in an existing manifest of the same run (same tool version,
        seed and config echo); this call's values win."""
        if not os.path.exists(path):
            return
        with open(path) as f:
            entries = [(k.strip(), v.strip())
                       for k, sep, v in (ln.partition("=") for ln in f) if sep]
        header = [(k, v) for k, v in entries
                  if k in ("tool_version", "seed") or k.startswith("config.")]
        if header != self._header():
            return
        dims = {k[4:]: int(v) for k, v in entries if k.startswith("dim.")}
        self.dimensions = {**dims, **self.dimensions}
        times = {k[5:]: float(v) for k, v in entries if k.startswith("time.")}
        self.timings = list({**times, **dict(self.timings)}.items())
        old = [v for k, v in entries if k == "artifact"]
        self.artifacts = old + [a for a in self.artifacts if a not in old]
        if self.counts_source is None:
            self.counts_source = dict(entries).get("counts_source")

    def write(self):
        path = os.path.join(self.out, "manifest.txt")
        self._merge_previous(path)
        self.check_identities()
        with open(path, "w") as f:
            for key, val in self._header():
                f.write(f"{key} = {val}\n")
            for key in sorted(self.dimensions):
                f.write(f"dim.{key} = {self.dimensions[key]}\n")
            if self.counts_source is not None:
                f.write(f"counts_source = {self.counts_source}\n")
            for stage, dt in self.timings:
                f.write(f"time.{stage} = {dt:.3f}\n")
            for art in self.artifacts:
                f.write(f"artifact = {art}\n")
        return path


def _read_kv(path):
    out = {}
    with open(path) as f:
        for line in f:
            if "=" in line:
                k, _, v = line.partition("=")
                out[k.strip()] = v.strip()
    return out


def _write_kv(path, items):
    with open(path, "w") as f:
        for k, v in items:
            if isinstance(v, float):
                f.write(f"{k} = {v:.17e}\n")
            else:
                f.write(f"{k} = {v}\n")


def _write_csv(path, header, rows):
    with open(path, "w") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(
                f"{x:.17e}" if isinstance(x, float) else str(x) for x in row
            ) + "\n")


def run_pipeline(config: RunConfig, stage, out_dir=None, seed=7):
    """Run one stage, a sequence of stages, or "all"; returns the state."""
    out_dir = out_dir or config["output.directory"]
    os.makedirs(out_dir, exist_ok=True)
    state = PipelineState(config, out_dir, seed=seed)
    if stage == "all":
        stages = STAGES
    elif isinstance(stage, str):
        stages = (stage,)
    else:
        stages = tuple(stage)
    for st in stages:
        if st not in STAGES:
            raise ValueError(f"unknown stage {st!r}; expected one of {STAGES + ('all',)}")
        t0 = time.perf_counter()
        _STAGE_FUNCS[st](state)
        state.manifest.timings.append((st, time.perf_counter() - t0))
    state.manifest.write()
    return state


def _stage_mesh(state):
    mesh = state.mesh()
    inc = state.incidence()
    p = state.path("mesh", "mesh.txt")
    write_mesh(p, mesh)
    write_matrix_market(state.path("mesh", "C.mtx"), inc.C)
    write_matrix_market(state.path("mesh", "G0.mtx"), inc.G0)
    cg = inc.C @ inc.G0
    cg.eliminate_zeros()
    _write_kv(state.path("mesh", "incidence.txt"), state.stamp("mesh") + [
        ("n_edges_interior", inc.edge_order.shape[0]),
        ("n_nodes_interior", inc.node_order.shape[0]),
        ("n1", inc.n1),
        ("n2", inc.n2),
        ("CG0_zero", cg.nnz == 0),
    ])
    if cg.nnz != 0:
        raise RuntimeError("C G0 != 0 on the interior complex")
    state.manifest.add_dims(
        n_n=mesh.n_nodes, n_e=mesh.n_edges, n_f=mesh.n_faces,
        n1=inc.n1, n2=inc.n2,
    )
    state.manifest.artifacts += ["mesh/mesh.txt", "mesh/C.mtx", "mesh/G0.mtx",
                                 "mesh/incidence.txt"]


def _stage_assemble(state):
    sysm = state.system()
    d = "assemble"
    write_matrix_market(state.path(d, "M11.mtx"), sysm.M11, symmetric=True)
    write_matrix_market(state.path(d, "Mnu.mtx"), sysm.Mnu, symmetric=True)
    write_matrix_market(state.path(d, "Upsilon.mtx"), sysm.Upsilon)
    write_matrix_market(state.path(d, "X.mtx"), sysm.X)
    write_matrix_market(state.path(d, "C1.mtx"), sysm.C1)
    write_matrix_market(state.path(d, "C2.mtx"), sysm.C2)
    mat = state.config.material
    _write_kv(state.path(d, "system.txt"), state.stamp("assemble") + [
        ("n1", sysm.n1), ("n2", sysm.n2), ("m", sysm.m),
        ("n_f", sysm.Mnu.shape[0]),
        ("sigma1", float(mat.sigma1)),
        ("nu_iron", float(mat.nu_iron)), ("nu_air", float(mat.nu_air)),
        ("R", float(mat.R[0, 0])),
    ])
    state.manifest.add_dims(n1=sysm.n1, n2=sysm.n2, m=sysm.m)
    state.manifest.artifacts += [f"{d}/{n}" for n in (
        "M11.mtx", "Mnu.mtx", "Upsilon.mtx", "X.mtx", "C1.mtx", "C2.mtx", "system.txt")]


def _stage_regularize(state):
    bases = state.bases()
    rsys = state.rsys()
    d = "regularize"
    write_matrix_market(state.path(d, "Y_C2.mtx"), bases.Y_C2)
    write_matrix_market(state.path(d, "Yhat_C2.mtx"), bases.Yhat_C2)
    write_matrix_market(state.path(d, "X2hat.mtx"), sp.csr_matrix(rsys.X2hat))
    _write_kv(state.path(d, "bases.txt"), state.stamp("regularize") + [
        ("k2", bases.k2), ("provenance", bases.provenance),
        ("n_nodes", bases.n_nodes), ("n_r", rsys.n_r),
    ])
    # the dense kernel-intersection count belongs to verify
    report = theorem1_check(state.system(), bases, dense_intersection=False)
    with open(state.path(d, "theorem1.txt"), "w") as f:
        for k, v in report.items():
            f.write(f"{k} = {v}\n")
    if not report["pass"]:
        raise RuntimeError("theorem 1 check failed; see regularize/theorem1.txt")
    state.manifest.add_dims(k2=bases.k2, n_r=rsys.n_r)
    state.manifest.artifacts += [f"{d}/{n}" for n in (
        "Y_C2.mtx", "Yhat_C2.mtx", "X2hat.mtx", "bases.txt",
        "theorem1.txt")]


def _stage_reduce(state):
    model = state.model()
    d = "reduce"
    zc = state._cache.get("zc")
    if zc is not None:
        _write_csv(state.path(d, "residual_history.csv"), "iteration,residual",
                   [(k + 1, float(r)) for k, r in enumerate(zc.history)])
    _write_csv(state.path(d, "hankel.csv"), "index,hankel_value",
               [(i + 1, float(h)) for i, h in enumerate(model.hankel)])
    write_matrix_market(state.path(d, "reduced_A.mtx"), model.A)
    write_matrix_market(state.path(d, "reduced_B.mtx"), model.B)
    write_matrix_market(state.path(d, "reduced_C.mtx"), model.C)
    _write_kv(state.path(d, "reduced.txt"), state.stamp("reduce") + [
        ("ell", model.ell), ("m", model.m), ("n_s", model.n_s),
        ("error_bound", float(model.error_bound)),
        ("hinf_error", float(model.hinf_error)),
    ])
    _record_counts(state, state.ctx().dimension_counts())
    state.manifest.artifacts += [f"{d}/{n}" for n in (
        "residual_history.csv", "hankel.csv", "reduced_A.mtx", "reduced_B.mtx",
        "reduced_C.mtx", "reduced.txt")]


def _stage_freqresp(state):
    cfg = state.config
    omegas = np.geomspace(cfg["analysis.freq_min"], cfg["analysis.freq_max"],
                          cfg["analysis.freq_points"])
    fr = frequency_response(state.ctx(), state.model(), omegas)
    rows = [
        (float(w), float(a), float(b), float(e))
        for w, a, b, e in zip(omegas, fr.magnitude_full(), fr.magnitude_reduced(),
                              fr.abs_error)
    ]
    _write_csv(state.path("freqresp", "freqresp.csv"),
               "omega,abs_H,abs_H_reduced,abs_error", rows)
    state.manifest.artifacts.append("freqresp/freqresp.csv")


def _stage_simulate(state):
    cfg = state.config
    sim = simulate_compare(state.ctx(), state.model(), cfg.drive,
                           cfg["analysis.t_final"], cfg["analysis.steps"])
    rows = [
        (float(t), float(u[0]), float(y[0]), float(yr[0]), float(e))
        for t, u, y, yr, e in zip(sim.t, sim.u, sim.y_full, sim.y_reduced,
                                  sim.rel_error)
    ]
    _write_csv(state.path("simulate", "simulation.csv"),
               "t,u,y,y_reduced,rel_error", rows)
    state.manifest.artifacts.append("simulate/simulation.csv")


def _stage_verify(state):
    cfg = state.config
    ctx = state.ctx()
    model = state.model()
    lines = []

    def record(name, ok, detail=""):
        lines.append(f"{name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
        return ok

    ok = True
    rep1 = theorem1_check(state.system(), state.bases(),
                          dense_intersection=ctx.rsys.n_r <= cfg["oracle.dense_cap"])
    ok &= record("theorem1_common_kernel", rep1["pass"], f"k2={rep1['k2']}")

    oracle = build_dense_oracle(ctx, cap=cfg["oracle.dense_cap"], seed=state.seed)
    # the oracle's dense counts against the pipeline's (topological) ones
    counts = ctx.dimension_counts()
    lam = oracle.finite_eigenvalues()
    scale = np.abs(lam).max()
    real_ok = np.abs(lam.imag).max() <= 1e-8 * scale
    nonpos_ok = lam.real.max() <= 1e-8 * scale
    counts_ok = (oracle.n_s == counts["n_s"] and oracle.n_0 == counts["n0"]
                 and oracle.n_inf == counts["n_inf"])
    ok &= record("theorem2_spectrum", bool(real_ok and nonpos_ok and counts_ok),
                 f"n_s={oracle.n_s} n0={oracle.n_0} n_inf={oracle.n_inf} "
                 f"counts_source={counts['source']}")

    rinv = ctx.rsys.Rinv
    gram = ctx.B_r.T @ ctx.apply_EinvB()
    id32 = np.linalg.norm(gram - rinv) / np.linalg.norm(rinv)
    ok &= record("sec32_BtEinvB_equals_Rinv", id32 <= 1e-10, f"rel={id32:.2e}")

    rng = np.random.default_rng(state.seed)
    rel = 0.0
    for _ in range(5):
        v = oracle.pi_apply(rng.standard_normal(ctx.rsys.n_r))
        z_fast = ctx.apply_EinvA(v)
        z_oracle = oracle.einv_apply(oracle.A_dense @ v)
        rel = max(rel, np.linalg.norm(z_fast - z_oracle)
                  / max(np.linalg.norm(z_oracle), 1e-300))
    ok &= record("lemma1_alg2_vs_oracle", rel <= 1e-9, f"rel={rel:.2e}")

    gc, go = dense_gramians(oracle)
    # [E W1, A W1] = Q [R_e, R_a] (thin QR): E G_o E^T - A G_c A^T is
    # Q (R_e G_o R_e^T - R_a G_c R_a^T) Q^T, so both norms are taken in R
    r = np.linalg.qr(np.hstack([oracle.EW1, oracle.AW1]), mode="r")
    r_e, r_a = r[:, :oracle.n_s], r[:, oracle.n_s:]
    t1 = r_e @ go.core @ r_e.T
    t2 = r_a @ gc.core @ r_a.T
    th4 = np.linalg.norm(t1 - t2) / max(np.linalg.norm(t2), 1e-300)
    ok &= record("theorem4_gramian_identity", th4 <= 1e-8, f"rel={th4:.2e}")

    scan_full = passivity_scan(functools.partial(transfer_full, ctx),
                               n_samples=cfg["analysis.passivity_samples"],
                               seed=state.seed)
    ok &= record("theorem3_passivity_full", scan_full["pass"],
                 f"margin={scan_full['min_margin_rel']:.2e}")
    scan_red = passivity_scan(functools.partial(transfer_reduced, model),
                              n_samples=cfg["analysis.passivity_samples"],
                              seed=state.seed)
    ok &= record("reduced_passivity", scan_red["pass"],
                 f"margin={scan_red['min_margin_rel']:.2e}")
    ok &= record("bound_dominates_hinf", model.hinf_error <= model.error_bound,
                 f"hinf={model.hinf_error:.3e} bound={model.error_bound:.3e}")

    with open(state.path("verify", "verify.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")
    state.manifest.artifacts.append("verify/verify.txt")
    _record_counts(state, counts)
    if not ok:
        raise RuntimeError("verification failed:\n" + "\n".join(lines))


def _record_counts(state, counts):
    state.manifest.add_dims(n_s=counts["n_s"], n0=counts["n0"],
                            n_inf=counts["n_inf"], n_r=counts["n_r"])
    state.manifest.counts_source = counts["source"]


_STAGE_FUNCS = {
    "mesh": _stage_mesh,
    "assemble": _stage_assemble,
    "regularize": _stage_regularize,
    "reduce": _stage_reduce,
    "freqresp": _stage_freqresp,
    "simulate": _stage_simulate,
    "verify": _stage_verify,
}

"""Pipeline driver: staged artifacts on disk plus a run manifest.

Stages: mesh, assemble, regularize, reduce, freqresp, simulate, verify, all.
Each stage writes its artifacts under ``<out>/<stage>/``; prerequisites are
read back from disk when present and recomputed in memory otherwise, so
stages are resumable.  ``_STAMPED`` declares, once for the writers, the
loader, the stamp and the manifest, each resumable stage's key-value file,
the config keys the stage depends on and the artifacts a later call reads
back.  The key-value file is stamped with the tool version and a hash of
those config keys; a later call loads the stage's artifacts only when the
stamp matches, and rebuilds them otherwise.  The mesh is regenerated from
``geometry.*`` on every call and never read back: that costs no more than
parsing ``mesh.txt``.

``reduce`` makes no checks of its own: ``OperatorContext.spectral_bounds``
raises when Lanczos does not converge and ``balanced_truncate`` when the
LR-ADI factor has not, so an error bound never comes from an unconverged
Gramian factor and the stage then writes nothing.

Every artifact is written to a temporary file in its directory and renamed
into place, so an interrupted call leaves each file whole or absent.  A
stage's stamped key-value file is removed before its artifacts are written
and written last, so it never stands beside a partial set.

All numeric artifacts (Matrix Market, CSV, mesh text) are byte-identical
across runs with the same config and seed; the manifest is exempt because
it records wall-clock timings.  A call on a run directory whose manifest has
the same tool version, seed and config echo keeps that manifest's
dimensions, timings and artifacts, its own values winning.
"""

from __future__ import annotations

import contextlib
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
from .mesh import build_incidence, eliminate_boundary, generate_mesh, write_mesh
from .mor import ReducedModel, TargetNotMet, balanced_truncate, lr_adi, wachspress_shifts
from .ops import OperatorContext, trim_heap
from .oracle import build_dense_oracle, dense_gramians
from .regularize import KernelBases, build_regularized, kernel_bases, theorem1_check

STAGES = ("mesh", "assemble", "regularize", "reduce", "freqresp", "simulate", "verify")

# stage -> (stamped key-value file, config-key prefixes its stamp hashes,
#           {field: artifact file that a later call reads back})
_STAMPED = {
    "mesh": ("incidence.txt", ("geometry.",), {}),
    "assemble": ("system.txt", ("geometry.", "material.", "winding."),
                 {f: f"{f}.mtx" for f in ("M11", "Mnu", "Upsilon", "X", "C1", "C2")}),
    "regularize": ("bases.txt", ("geometry.",),
                   {"Y_C2": "Y_C2.mtx", "Yhat_C2": "Yhat_C2.mtx"}),
    "reduce": ("reduced.txt", ("geometry.", "material.", "winding.", "mor."),
               {"A": "reduced_A.mtx", "B": "reduced_B.mtx", "C": "reduced_C.mtx",
                "hankel": "hankel.csv"}),
}


def _cached(build):
    """Method decorator: ``build`` runs once per state, its value is kept."""
    @functools.wraps(build)
    def get(self):
        if build.__name__ not in self._cache:
            self._cache[build.__name__] = build(self)
        return self._cache[build.__name__]
    return get


class PipelineState:
    """Lazy holder of pipeline objects with disk-backed prerequisites."""

    def __init__(self, config: RunConfig, out_dir, seed=7):
        self.config = config
        self.out = str(out_dir)
        self.seed = int(seed)
        self._cache = {}
        self.manifest = RunManifest(config, self.out, seed=self.seed)

    def stamp(self, stage):
        """Key-value lines that tie ``stage``'s artifacts to this tool and to
        the values of the config keys the stage depends on."""
        prefixes = _STAMPED[stage][1]
        text = "\n".join(f"{k} = {v!r}" for k, v in sorted(self.config.values.items())
                         if k.startswith(prefixes))
        return [("tool_version", __version__),
                ("config_hash", hashlib.sha256(text.encode()).hexdigest()[:16])]

    def _load(self, stage):
        """(info, {field: array}) from ``stage``'s artifacts when its
        key-value file carries this call's stamp; None when that file is
        missing, unstamped or stale, or an artifact does not read."""
        kv, _, files = _STAMPED[stage]
        d = os.path.join(self.out, stage)
        try:
            info = _read_kv(os.path.join(d, kv))
            if not dict(self.stamp(stage)).items() <= info.items():
                return None
            return info, {field: _read_artifact(os.path.join(d, name))
                          for field, name in files.items()}
        except (OSError, ValueError):
            return None

    @_cached
    def mesh(self):
        return generate_mesh(self.config.geometry)

    @_cached
    def incidence(self):
        return eliminate_boundary(build_incidence(self.mesh()), self.mesh())

    @_cached
    def system(self):
        loaded = self._load("assemble")
        if loaded is None:
            return build_system(self.mesh(), self.incidence(),
                                self.config.material, self.config.winding)
        dims, arrays = loaded
        return AssembledSystem(
            **arrays, R=self.config.material.R,
            n1=int(dims["n1"]), n2=int(dims["n2"]), m=int(dims["m"]),
            edge_xyz=edge_midpoints(self.mesh(), self.incidence()))

    @_cached
    def bases(self):
        loaded = self._load("regularize")
        if loaded is None:
            return kernel_bases(self.incidence())
        info, arrays = loaded
        return KernelBases(**arrays, k2=int(info["k2"]), n_nodes=int(info["n_nodes"]))

    @_cached
    def rsys(self):
        return build_regularized(self.system(), self.bases())

    @_cached
    def ctx(self):
        return OperatorContext(self.rsys())

    @_cached
    def model(self):
        loaded = self._load("reduce")
        if loaded is None:
            return self._build_model()
        info, arrays = loaded
        arrays["hankel"] = arrays["hankel"][:, 1]
        return ReducedModel(
            **arrays, ell=int(info["ell"]), n_s=int(info["n_s"]), m=int(info["m"]),
            **{k: float(info[k]) for k in ("error_bound", "hinf_error", "paper_bound",
                                           "delta")})

    def _build_model(self):
        cfg = self.config
        ctx = self.ctx()
        bounds = ctx.spectral_bounds(maxit=cfg["mor.lanczos_maxit"],
                                     tol=cfg["mor.lanczos_tol"])
        shifts = wachspress_shifts(bounds.a, bounds.b, cfg["mor.eps_shift"])
        zc = self._cache["zc"] = lr_adi(ctx, shifts, tol=cfg["mor.tol_adi"],
                                        maxit=cfg["mor.maxit_adi"])
        try:
            return balanced_truncate(ctx, zc, cfg["mor.order"] or None, target=cfg.tol_hsv)
        except TargetNotMet as exc:
            raise TargetNotMet(
                f"{exc}; LR-ADI stopped at residual {zc.history[-1]:.2e} under "
                f"mor.tol_adi = {cfg['mor.tol_adi']:g} (a smaller mor.tol_adi "
                f"gives a fuller factor)") from None


class RunManifest:
    """Config echo, derived dimensions, timings and artifact list.

    ``info`` holds a stage's own figures, written as ``<stage>.<name>``.
    """

    def __init__(self, config, out_dir, seed):
        self.config = config
        self.out = out_dir
        self.seed = seed
        self.dimensions = {}
        self.info = {}
        self.timings = []
        self.artifacts = []

    def add_dims(self, **kw):
        self.dimensions.update(kw)

    def add_info(self, stage, **kw):
        self.info.update({f"{stage}.{k}": v for k, v in kw.items()})

    def check_identities(self):
        """Raise ValueError when the dimensions, with those merged from the
        manifest on disk, break n_r = n1 + n2 - k2 or n_s + n0 + n_inf = n_r."""
        d = self.dimensions
        if {"n_r", "n1", "n2", "k2"} <= d.keys() and d["n_r"] != d["n1"] + d["n2"] - d["k2"]:
            raise ValueError(f"n_r identity violated: {d}")
        if ({"n_r", "n_s", "n0", "n_inf"} <= d.keys()
                and d["n_s"] + d["n0"] + d["n_inf"] != d["n_r"]):
            raise ValueError(f"count identity violated: {d}")

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
        info = {k: v for k, v in entries if k.partition(".")[0] in STAGES}
        self.info = {**info, **self.info}
        times = {k[5:]: float(v) for k, v in entries if k.startswith("time.")}
        self.timings = list({**times, **dict(self.timings)}.items())
        old = [v for k, v in entries if k == "artifact"]
        self.artifacts = old + [a for a in self.artifacts if a not in old]

    def text(self):
        """The manifest, folded with the one already in the run directory."""
        self._merge_previous(os.path.join(self.out, "manifest.txt"))
        self.check_identities()
        items = self._header() + [(f"dim.{k}", self.dimensions[k])
                                  for k in sorted(self.dimensions)]
        items += sorted(self.info.items())
        items += [(f"time.{stage}", f"{dt:.3f}") for stage, dt in self.timings]
        return _kv_text(items + [("artifact", art) for art in self.artifacts])


def _read_kv(path):
    out = {}
    with open(path) as f:
        for line in f:
            if "=" in line:
                k, _, v = line.partition("=")
                out[k.strip()] = v.strip()
    return out


def _read_artifact(path):
    """A Matrix Market file as a matrix, a CSV file as a 2-D array of its rows."""
    if path.endswith(".mtx"):
        return read_matrix_market(path)
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _kv_text(items):
    return "".join(f"{k} = {v:.17e}\n" if isinstance(v, float) else f"{k} = {v}\n"
                   for k, v in items)


def _csv_text(header, rows):
    return header + "\n" + "".join(
        ",".join(f"{x:.17e}" if isinstance(x, float) else str(x) for x in row) + "\n"
        for row in rows)


def _replace(path, content):
    """Write ``path`` through ``<path>.tmp`` and a rename, so it holds its
    old content or the new one, never a part.  A string is written as text,
    a callable is called with the path, anything else is a matrix."""
    tmp = path + ".tmp"
    try:
        if isinstance(content, str):
            with open(tmp, "w") as f:
                f.write(content)
        elif callable(content):
            content(tmp)
        else:
            write_matrix_market(tmp, content)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _write_stage(state, stage, files, info=None):
    """Write ``files`` ({field or file name: content}) under ``<out>/<stage>``
    and add them to the manifest's artifact list.

    A field of the stage's ``_STAMPED`` entry stands for its file name.  With
    ``info`` (key-value items) the stage's stamped file is removed first and
    written last, stamped, so it never stands beside a partial set.
    """
    kv, _, declared = _STAMPED.get(stage, (None, (), {}))
    d = os.path.join(state.out, stage)
    os.makedirs(d, exist_ok=True)
    files = {declared.get(key, key): content for key, content in files.items()}
    if info is not None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(d, kv))
        files[kv] = _kv_text(state.stamp(stage) + info)
    for name, content in files.items():
        _replace(os.path.join(d, name), content)
    state.manifest.artifacts += [os.path.join(stage, name) for name in files]


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
    _write_stage(state, "", {"manifest.txt": state.manifest.text()})
    return state


def _stage_mesh(state):
    mesh = state.mesh()
    inc = state.incidence()
    cg = inc.C @ inc.G0
    cg.eliminate_zeros()
    _write_stage(state, "mesh", {
        "mesh.txt": lambda path: write_mesh(path, mesh), "C.mtx": inc.C, "G0.mtx": inc.G0,
    }, [
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


def _stage_assemble(state):
    sysm = state.system()
    mat = state.config.material
    _write_stage(state, "assemble", {
        "M11": lambda path: write_matrix_market(path, sysm.M11, symmetric=True),
        "Mnu": lambda path: write_matrix_market(path, sysm.Mnu, symmetric=True),
        "Upsilon": sysm.Upsilon, "X": sysm.X, "C1": sysm.C1, "C2": sysm.C2,
    }, [
        ("n1", sysm.n1), ("n2", sysm.n2), ("m", sysm.m),
        ("n_f", sysm.Mnu.shape[0]),
        ("sigma1", float(mat.sigma1)),
        ("nu_iron", float(mat.nu_iron)), ("nu_air", float(mat.nu_air)),
        ("R", float(mat.R[0, 0])),
    ])
    state.manifest.add_dims(n1=sysm.n1, n2=sysm.n2, m=sysm.m)


def _stage_regularize(state):
    bases = state.bases()
    rsys = state.rsys()
    # the dense kernel-intersection count belongs to verify
    report = theorem1_check(state.system(), bases, dense_intersection=False)
    _write_stage(state, "regularize", {
        "Y_C2": bases.Y_C2, "Yhat_C2": bases.Yhat_C2,
        "X2hat.mtx": sp.csr_matrix(rsys.X2hat),
        "theorem1.txt": "".join(f"{k} = {v}\n" for k, v in report.items()),
    }, [
        ("k2", bases.k2), ("n_nodes", bases.n_nodes), ("n_r", rsys.n_r),
    ])
    if not report["pass"]:
        raise RuntimeError("theorem 1 check failed; see regularize/theorem1.txt")
    state.manifest.add_dims(k2=bases.k2, n_r=rsys.n_r)


def _stage_reduce(state):
    model = state.model()
    files = {"A": model.A, "B": model.B, "C": model.C,
             "hankel": _csv_text("index,hankel_value",
                                 [(i + 1, float(h)) for i, h in enumerate(model.hankel)])}
    zc = state._cache.get("zc")
    if zc is not None:
        files["residual_history.csv"] = _csv_text(
            "iteration,residual", [(k + 1, float(r)) for k, r in enumerate(zc.history)])
    _write_stage(state, "reduce", files, [
        ("ell", model.ell), ("m", model.m), ("n_s", model.n_s),
        ("error_bound", float(model.error_bound)),
        ("hinf_error", float(model.hinf_error)),
        ("paper_bound", float(model.paper_bound)),
        ("delta", float(model.delta)),
    ])
    _record_counts(state, state.ctx().dimension_counts())


def _stage_freqresp(state):
    cfg = state.config
    omegas = np.geomspace(cfg["analysis.freq_min"], cfg["analysis.freq_max"],
                          cfg["analysis.freq_points"])
    fr = frequency_response(state.ctx(), state.model(), omegas)
    rows = [
        (float(w), float(a), float(b), float(e), float(h))
        for w, a, b, e, h in zip(omegas, fr.magnitude_full(), fr.magnitude_reduced(),
                                 fr.abs_error, fr.h_bound)
    ]
    _write_stage(state, "freqresp", {
        "freqresp.csv": _csv_text("omega,abs_H,abs_H_reduced,abs_error,h_bound", rows)})
    certified = fr.h_bound[~np.isnan(fr.h_bound)]
    state.manifest.add_info(
        "freqresp", krylov_shift=fr.shift, krylov_basis_size=fr.basis_size,
        max_h_bound=float(certified.max()) if certified.size else float("nan"),
        lu_points=fr.lu_points)


def _stage_simulate(state):
    cfg = state.config
    sim = simulate_compare(state.ctx(), state.model(), cfg.drive,
                           cfg["analysis.t_final"], cfg["analysis.steps"])
    rows = [
        (float(t), float(u[0]), float(y[0]), float(yr[0]), float(e))
        for t, u, y, yr, e in zip(sim.t, sim.u, sim.y_full, sim.y_reduced,
                                  sim.rel_error)
    ]
    _write_stage(state, "simulate", {
        "simulation.csv": _csv_text("t,u,y,y_reduced,rel_error", rows)})


def _stage_verify(state):
    cfg = state.config
    ctx = state.ctx()
    # the oracle's cap is checked before any full-model work, not after it
    if ctx.rsys.n_r > cfg["oracle.dense_cap"]:
        raise ValueError(f"dense oracle cap exceeded: n_r = {ctx.rsys.n_r} > "
                         f"oracle.dense_cap = {cfg['oracle.dense_cap']}")
    model = state.model()
    lines = []

    def record(name, ok, detail=""):
        lines.append(f"{name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
        return ok

    # the full-model scan runs first, on the small heap; each sample frees
    # its bordered LU, and the freed heap goes back to the OS before any
    # dense block of size n^2 is made
    t0 = time.perf_counter()
    scan_full = passivity_scan(functools.partial(transfer_full, ctx),
                               n_samples=cfg["analysis.passivity_samples"],
                               seed=state.seed)
    scan_s = time.perf_counter() - t0
    trim_heap()

    ok = True
    t0 = time.perf_counter()
    rep1 = theorem1_check(state.system(), state.bases())
    theorem1_s = time.perf_counter() - t0
    ok &= record("theorem1_common_kernel", rep1["pass"],
                 f"k2={rep1['k2']} by={rep1['dimension_certificate']}")

    t0 = time.perf_counter()
    oracle = build_dense_oracle(ctx, cap=cfg["oracle.dense_cap"])
    oracle_s = time.perf_counter() - t0
    # the build's freed temporaries go back to the OS before the checks and
    # the Theorem-4 block allocate (without it the desk's Theorem-4 block
    # peaked 30 MB higher in RSS)
    trim_heap()
    margins = {f"oracle_{k}": f"{v:.3e}" for k, v in oracle.margins.items()}
    # the oracle's dense counts against the pipeline's (topological) ones
    t0 = time.perf_counter()
    counts = ctx.dimension_counts()
    e11_ok, th2_ok, th2_detail = _theorem2(oracle, counts)
    theorem2_s = time.perf_counter() - t0
    ok &= record("theorem2_spectrum", th2_ok, th2_detail)

    rinv = ctx.rsys.Rinv
    gram = ctx.B_r.T @ ctx.apply_EinvB()
    id32 = np.linalg.norm(gram - rinv) / np.linalg.norm(rinv)
    ok &= record("sec32_BtEinvB_equals_Rinv", id32 <= 1e-10, f"rel={id32:.2e}")

    rng = np.random.default_rng(state.seed)
    rel = 0.0
    for _ in range(5):
        v = oracle.pi_apply(rng.standard_normal(ctx.rsys.n_r))
        z_fast = ctx.apply_EinvA(v)
        z_oracle = oracle.einv_apply(oracle.pencil.apply_A(v))
        rel = max(rel, np.linalg.norm(z_fast - z_oracle)
                  / max(np.linalg.norm(z_oracle), 1e-300))
    ok &= record("lemma1_alg2_vs_oracle", rel <= 1e-9, f"rel={rel:.2e}")

    t0 = time.perf_counter()
    if e11_ok:
        th4, remainder = theorem4_residual(oracle)
        ok &= record("theorem4_gramian_identity", th4 <= 1e-8,
                     f"rel={th4:.2e} remainder={remainder:.2e}")
    else:
        ok &= record("theorem4_gramian_identity", False, "E11 is not positive definite")
    del oracle
    theorem4_s = time.perf_counter() - t0

    ok &= record("theorem3_passivity_full", scan_full["pass"],
                 f"margin={scan_full['min_margin_rel']:.2e}")
    t0 = time.perf_counter()
    scan_red = passivity_scan(functools.partial(transfer_reduced, model),
                              n_samples=cfg["analysis.passivity_samples"],
                              seed=state.seed)
    scan_s += time.perf_counter() - t0
    ok &= record("reduced_passivity", scan_red["pass"],
                 f"margin={scan_red['min_margin_rel']:.2e}")
    ok &= record("bound_dominates_hinf", model.hinf_error <= model.error_bound,
                 f"hinf={model.hinf_error:.3e} bound={model.error_bound:.3e}")

    # scan_s: both passivity scans
    state.manifest.add_info("verify", scan_s=f"{scan_s:.3f}", theorem1_s=f"{theorem1_s:.3f}",
                            oracle_s=f"{oracle_s:.3f}", theorem2_s=f"{theorem2_s:.3f}",
                            theorem4_s=f"{theorem4_s:.3f}", **margins)
    _write_stage(state, "verify", {"verify.txt": "\n".join(lines) + "\n"})
    _record_counts(state, counts)
    if not ok:
        raise RuntimeError("verification failed:\n" + "\n".join(lines))


def _theorem2(oracle, counts):
    """(E11 > 0, pass, detail) of Theorem 2: the finite eigenvalues are real
    and nonpositive, and the oracle's dense counts equal the pipeline's.
    Every finite eigenvalue lies within ``skew`` of an eigenvalue of the
    symmetric part (``DenseOracle.finite_eigenvalues``), so |Im| <= skew and
    Re <= max(lam) + skew certify both, each to 1e-8 of the largest |lam|."""
    detail = f"n_s={oracle.n_s} n0={oracle.n_0} n_inf={oracle.n_inf}"
    try:
        lam, skew = oracle.finite_eigenvalues()
    except np.linalg.LinAlgError:
        return False, False, f"E11 is not positive definite; {detail}"
    scale = np.abs(lam).max()
    real_ok = skew <= 1e-8 * scale
    nonpos_ok = lam.max() + skew <= 1e-8 * scale
    counts_ok = (oracle.n_s == counts["n_s"] and oracle.n_0 == counts["n0"]
                 and oracle.n_inf == counts["n_inf"])
    return True, bool(real_ok and nonpos_ok and counts_ok), detail


def theorem4_residual(oracle):
    """(rel, remainder) of the Gramian identity of Theorem 4: rel bounds
    ||D||_F / ||A W1 G_c W1^T A||_F, D = E W1 G_o W1^T E - A W1 G_c W1^T A,
    from above, evaluated in (n1 + m)-dimensional coordinates.

    E_r W1 lies in range(H), H = blockdiag(I, X2hat), by E_r's form, and
    A_r W1 does because W1 lies in ker(Y_sigma^T A_r).  With Q_H =
    blockdiag(I, Q_x), Q_x an orthonormal basis of X2hat, the block
    X = [E W1, A W1] splits into coordinates c = Q_H^T X and a remainder
    r = (I - Q_H Q_H^T) X of rounding size, and D = X Gamma X^T with
    Gamma = blockdiag(G_o, -G_c).  As Q_H^T r = 0, the four parts of D are
    orthogonal: ||D||_F^2 = ||c Gamma c^T||_F^2 + 2 ||c Gamma r^T||_F^2
    + ||r Gamma r^T||_F^2.  The oracle keeps X's parts in V's coordinates
    (W1 = V C): c_i = (Q_H^T X_V,i) C and r_i = r_V,i C, with the Gram
    matrix of r_V = [r_V,E, r_V,A].  The first part is taken on the
    coordinates; the second exactly, as c Gamma r^T = M r_V^T with
    M = [c_E G_o C^T, -c_A G_c C^T] and ||M r_V^T||_F^2 = <M r_V^T r_V, M>;
    the third is bounded by ||G_o||_F ||r_E||_F^2 + ||G_c||_F ||r_A||_F^2.
    The same split bounds ||A W1 G_c W1^T A||_F below by ||c_A G_c c_A^T||_F.
    ``remainder`` is the larger of ||r||_F / ||X||_F over E W1 and A W1.
    """
    c, rem_gram = oracle.C, oracle.rem_gram
    n_fin = c.shape[0]
    g_c, g_o = (g.core for g in dense_gramians(oracle))
    t, m_blocks = [], []
    r_gamma_r, remainder = 0.0, 0.0
    for i, (coord_v, gamma) in enumerate(((oracle.EV_coord, g_o), (oracle.AV_coord, -g_c))):
        coord = coord_v @ c
        c_gamma = coord @ gamma
        t.append(c_gamma @ coord.T)
        m_blocks.append(c_gamma @ c.T)
        own = slice(i * n_fin, (i + 1) * n_fin)
        r_norm2 = max(float(np.sum((rem_gram[own, own] @ c) * c)), 0.0)
        r_gamma_r += np.linalg.norm(gamma) * r_norm2
        x_norm = np.sqrt(np.linalg.norm(coord) ** 2 + r_norm2)
        remainder = max(remainder, np.sqrt(r_norm2) / max(x_norm, 1e-300))
    m = np.hstack(m_blocks)
    cross2 = max(float(np.sum((m @ rem_gram) * m)), 0.0)
    num = np.sqrt(np.linalg.norm(t[0] + t[1]) ** 2 + 2.0 * cross2 + r_gamma_r ** 2)
    return float(num / max(np.linalg.norm(t[1]), 1e-300)), float(remainder)


def _record_counts(state, counts):
    state.manifest.add_dims(n_s=counts["n_s"], n0=counts["n0"],
                            n_inf=counts["n_inf"], n_r=counts["n_r"])


_STAGE_FUNCS = {
    "mesh": _stage_mesh,
    "assemble": _stage_assemble,
    "regularize": _stage_regularize,
    "reduce": _stage_reduce,
    "freqresp": _stage_freqresp,
    "simulate": _stage_simulate,
    "verify": _stage_verify,
}

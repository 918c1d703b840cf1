import dataclasses
import filecmp
import math
import os
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import mqsmor
from mqsmor.assembly import build_system
from mqsmor.cli import main
from mqsmor.config import ConfigError, RunConfig, default_config, parse_config
from mqsmor.lacore import read_matrix_market
from mqsmor.mor import error_bound, reduced_order, tail_bound
from mqsmor import pipeline
from mqsmor.pipeline import RunManifest, _read_kv, run_pipeline


def test_parse_empty_file_gives_defaults(tmp_path):
    p = tmp_path / "empty.cfg"
    p.write_text("")
    cfg = parse_config(p)
    assert cfg["geometry.resolution"] == default_config()["geometry.resolution"]
    assert cfg["material.sigma1"] == 1.0e6
    assert cfg["winding.turns"] == 1600.0
    assert cfg["analysis.steps"] == 300
    assert cfg["analysis.amplitude"] == 5.0e4


def test_parse_rejects_unknown_key(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("# comment\nmaterial.sigma1 = 2e6\nnosuch.key = 1\n")
    with pytest.raises(ConfigError, match=r":3:.*nosuch\.key"):
        parse_config(p)


def test_parse_rejects_bad_value_with_line(tmp_path):
    p = tmp_path / "bad2.cfg"
    p.write_text("geometry.resolution = about_nine\n")
    with pytest.raises(ConfigError, match=":1:"):
        parse_config(p)


def test_parse_rejects_invalid_material(tmp_path):
    p = tmp_path / "bad3.cfg"
    p.write_text("material.R = -1\n")
    with pytest.raises(ConfigError):
        parse_config(p)


def test_drive_matches_configured_sine():
    cfg = default_config()
    u = cfg.drive
    t = 1.0 / 600.0    # quarter period at 150 Hz
    assert u(t)[0] == pytest.approx(5e4 * np.sin(2 * np.pi * 150 * t))


def test_cli_exit_code_config_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("material.R = -5\n")
    assert main(["mesh", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("resolution", [7, 8])
def test_cli_rejects_geometry_off_the_grid_at_config_time(tmp_path, capsys, resolution):
    """At resolution 7 or 8 the default shell radii miss the grid planes:
    a configuration error (exit 2) before any stage runs, not a numerical
    failure of the mesh stage."""
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text(f"geometry.resolution = {resolution}\n")
    out = tmp_path / "o"
    assert main(["mesh", "--config", str(cfg), "--out", str(out)]) == 2
    assert "does not lie on a grid plane" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError, match="grid plane"):
        RunConfig({"geometry.resolution": resolution})


def test_cli_rejects_seed_outside_u64_at_parsing(tmp_path, capsys):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--seed", "-1", "--out", str(out)])
    assert exc.value.code == 2
    assert "outside [0, 2^64)" in capsys.readouterr().err
    assert not out.exists()


def test_cli_exit_code_numerical_failure(tmp_path, monkeypatch):
    import mqsmor.pipeline as pl
    monkeypatch.setitem(pl._STAGE_FUNCS, "mesh",
                        lambda state: (_ for _ in ()).throw(RuntimeError("boom")))
    assert main(["mesh", "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("error", [TypeError, KeyError, AssertionError, MemoryError])
def test_cli_program_error_is_not_a_numerical_failure(tmp_path, monkeypatch, error):
    """A bug propagates with its traceback (exit code 1), not exit code 3."""
    import mqsmor.pipeline as pl

    def stage(state):
        raise error("bug")

    monkeypatch.setitem(pl._STAGE_FUNCS, "mesh", stage)
    with pytest.raises(error):
        main(["mesh", "--out", str(tmp_path / "o")])


def test_cli_success_mesh_stage(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["mesh", "--out", str(out)]) == 0
    assert (out / "mesh" / "mesh.txt").exists()
    assert (out / "mesh" / "C.mtx").exists()
    assert (out / "mesh" / "G0.mtx").exists()
    text = (out / "mesh" / "incidence.txt").read_text()
    assert "CG0_zero = True" in text
    assert (out / "manifest.txt").exists()


def test_stage_resumability_and_roundtrip(tmp_path):
    cfg = default_config()
    out = tmp_path / "run"
    run_pipeline(cfg, "mesh", out_dir=str(out))
    # assemble regenerates the mesh
    state = run_pipeline(cfg, "assemble", out_dir=str(out))
    m11 = read_matrix_market(out / "assemble" / "M11.mtx")
    assert (m11 != state.system().M11).nnz == 0
    c = read_matrix_market(out / "mesh" / "C.mtx")
    assert (c != state.incidence().C).nnz == 0
    state2 = run_pipeline(cfg, "regularize", out_dir=str(out))
    y = read_matrix_market(out / "regularize" / "Y_C2.mtx")
    assert (y != state2.bases().Y_C2).nnz == 0
    rep = (out / "regularize" / "theorem1.txt").read_text()
    assert "pass = True" in rep
    # the resumed system recomputes the edge midpoints from the mesh
    assert np.array_equal(state2.system().edge_xyz, state.system().edge_xyz)
    assert not (out / "regularize" / "K22hat.mtx").exists()


def test_resume_rebuilds_artifacts_of_another_config(tmp_path):
    out = tmp_path / "run"
    run_pipeline(default_config(), "assemble", out_dir=str(out))
    cfg = RunConfig({"material.sigma1": 2e6})
    state = run_pipeline(cfg, "regularize", out_dir=str(out))
    fresh = build_system(state.mesh(), state.incidence(), cfg.material, cfg.winding)
    resumed = state.system().M11
    assert (resumed != fresh.M11).nnz == 0
    stale = read_matrix_market(out / "assemble" / "M11.mtx")
    assert resumed.max() == pytest.approx(2.0 * stale.max(), rel=1e-12)
    # a manifest of another config is replaced, not merged
    assert "time.assemble" not in (out / "manifest.txt").read_text()


def test_resume_rebuilds_unstamped_artifacts(tmp_path):
    out = tmp_path / "run"
    run_pipeline(RunConfig({"material.sigma1": 2e6}), "assemble", out_dir=str(out))
    kv = out / "assemble" / "system.txt"
    kv.write_text("".join(line for line in kv.read_text().splitlines(True)
                          if not line.startswith("config_hash")))
    state = run_pipeline(default_config(), "mesh", out_dir=str(out))
    fresh = build_system(state.mesh(), state.incidence(),
                         state.config.material, state.config.winding)
    assert (state.system().M11 != fresh.M11).nnz == 0


class _Interrupted(Exception):
    pass


def test_interrupted_rewrite_leaves_whole_files_or_none(tmp_path, monkeypatch):
    """A rerun of assemble that dies halfway through writing M11.mtx leaves
    every file under assemble/ either byte-identical to its complete version
    or absent, and system.txt never beside a partial set.  The partial file
    is not loaded: a Matrix Market file cut inside a number can crash the
    reader."""
    import mqsmor.pipeline as pl
    out = tmp_path / "run"
    run_pipeline(default_config(), "assemble", out_dir=str(out))
    d = out / "assemble"
    complete = {p.name: p.read_bytes() for p in d.iterdir()}
    write = pl.write_matrix_market

    def interrupted(path, a, symmetric=False):
        if "M11" in os.path.basename(str(path)):
            with open(path, "wb") as f:
                f.write(complete["M11.mtx"][: len(complete["M11.mtx"]) // 2])
            raise _Interrupted
        write(path, a, symmetric=symmetric)

    monkeypatch.setattr(pl, "write_matrix_market", interrupted)
    with pytest.raises(_Interrupted):
        run_pipeline(default_config(), "assemble", out_dir=str(out))
    left = {p.name: p.read_bytes() for p in d.iterdir()}
    assert [name for name, data in left.items() if complete.get(name) != data] == []
    assert "system.txt" not in left or left.keys() == complete.keys()


def test_resumed_assemble_rebuilds_a_cut_matrix_file(tmp_path):
    """An assemble/M11.mtx cut inside a number (right after an ``e+``) does
    not load, so a rerun of assemble rebuilds it.  The rerun is a child
    process, because scipy's reader can crash the process on such a file."""
    out = tmp_path / "run"
    run_pipeline(default_config(), "assemble", out_dir=str(out))
    m11 = out / "assemble" / "M11.mtx"
    complete = m11.read_bytes()
    m11.write_bytes(complete[: complete.rindex(b"e+", 0, 2 * len(complete) // 3) + 2])
    src = os.path.dirname(os.path.dirname(mqsmor.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-m", "mqsmor.cli", "assemble", "--out", str(out)],
                         env=env, capture_output=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert m11.read_bytes() == complete


@pytest.fixture(scope="module")
def capped_reduce(tmp_path_factory):
    """``mqsmor reduce`` on the desk (n_r = 3952) with oracle.dense_cap = 1000."""
    root = tmp_path_factory.mktemp("capped")
    cfg = root / "capped.cfg"
    cfg.write_text("oracle.dense_cap = 1000\nanalysis.steps = 5\n")
    out = root / "run"
    code = main(["reduce", "--config", str(cfg), "--out", str(out)])
    return cfg, out, code, (out / "manifest.txt").read_text()


def test_reduce_counts_from_topology_above_dense_cap(capped_reduce):
    _, _, code, manifest = capped_reduce
    assert code == 0
    for line in ("dim.n_s = 466", "dim.n0 = 127", "dim.n_inf = 3359", "dim.n_r = 3952"):
        assert line in manifest


def test_manifest_keeps_dimensions_of_resumed_run(capped_reduce):
    cfg, out, _, _ = capped_reduce
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text()
    for line in ("dim.n_s = 466", "dim.n0 = 127", "dim.n_inf = 3359",
                 "time.reduce = ", "time.simulate = ",
                 "artifact = reduce/reduced.txt", "artifact = simulate/simulation.csv"):
        assert line in manifest


def test_verify_enforces_dense_cap(capped_reduce, capsys):
    cfg, out, _, _ = capped_reduce
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 3
    assert "dense oracle cap exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("samples", [0, -3])
def test_config_rejects_nonpositive_passivity_samples(tmp_path, samples):
    with pytest.raises(ConfigError, match="analysis.passivity_samples must be >= 1"):
        RunConfig({"analysis.passivity_samples": samples})
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"analysis.passivity_samples = {samples}\n")
    assert main(["verify", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("key,value,message", [
    ("mor.lanczos_maxit", 0, "must be >= 1"),
    ("mor.lanczos_maxit", -2, "must be >= 1"),
    ("mor.lanczos_tol", 0.0, "must be positive"),
    ("mor.lanczos_tol", -1e-9, "must be positive"),
    ("mor.eps_shift", 1.0, "must be below 1"),
    ("mor.eps_shift", 1.5, "must be below 1"),
])
def test_config_rejects_bad_lanczos_settings(tmp_path, key, value, message):
    with pytest.raises(ConfigError, match=f"{key} {message}"):
        RunConfig({key: value})
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"{key} = {value}\n")
    assert main(["reduce", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


VERIFY_LINES = ("theorem1_common_kernel", "theorem2_spectrum", "sec32_BtEinvB_equals_Rinv",
                "lemma1_alg2_vs_oracle", "theorem4_gramian_identity",
                "theorem3_passivity_full", "reduced_passivity", "bound_dominates_hinf")


@pytest.fixture(scope="module")
def traced_desk_verify(tmp_path_factory):
    """The output directory of a desk ``verify`` call (2 passivity samples)
    resumed after ``reduce``, the peak traced memory of that call alone, and
    n1 + n2."""
    out = tmp_path_factory.mktemp("verify") / "run"
    cfg = RunConfig({"analysis.passivity_samples": 2})
    rsys = run_pipeline(cfg, "reduce", out_dir=str(out)).rsys()
    n = rsys.n1 + rsys.n2
    tracemalloc.start()
    try:
        run_pipeline(cfg, "verify", out_dir=str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak, n


def test_desk_verify_traced_peak(traced_desk_verify):
    # measured 0.78 (n1 + n2)^2 doubles, set by the oracle's Cholesky phase
    # of G = P2^T M_nu P2; the bound leaves 9 % of margin.  theorem1_check's
    # dense principal submatrix of E + K (order n_r) set it at 1.08, the
    # whole E + K at 1.33, and an oracle that keeps its saddle LU at 1.62
    # to 1.76
    _, peak, n = traced_desk_verify
    assert peak <= 0.85 * n * n * 8


def test_desk_verify_lines_in_order(traced_desk_verify):
    lines = (traced_desk_verify[0] / "verify" / "verify.txt").read_text().splitlines()
    assert [line.split(":")[0] for line in lines] == list(VERIFY_LINES)
    assert all(": PASS" in line for line in lines)


def test_desk_verify_writes_margins_and_times(traced_desk_verify):
    """verify's manifest lines: the desk oracle's certificate margins and the
    wall times of its dense phases, kept after a later call on the same run,
    and no line that perfbench would read as a dimension."""
    out = traced_desk_verify[0]
    run_pipeline(RunConfig({"analysis.passivity_samples": 2}), "mesh", out_dir=str(out))
    info = {k.strip(): v.strip() for k, _, v in (
        line.partition("=") for line in (out / "manifest.txt").read_text().splitlines())}
    assert 0 < float(info["verify.oracle_g_pivot_ratio"]) <= 1
    assert float(info["verify.oracle_v_orthogonality"]) <= 1e-12
    assert float(info["verify.oracle_kernel_gap"]) > 1e-8
    assert float(info["verify.oracle_ynu_residual"]) <= 1e-10
    phases = ("scan_s", "theorem1_s", "oracle_s", "theorem2_s", "theorem4_s")
    for name in phases:
        assert 0 < float(info[f"verify.{name}"]) < float(info["time.verify"])
    assert sum(float(info[f"verify.{name}"]) for name in phases) < float(info["time.verify"])
    assert all(int(v) >= 0 for k, v in info.items() if k.startswith("dim."))


def test_desk_verify_fails_lines_on_non_pd_e11(traced_desk_verify, tmp_path, monkeypatch):
    """An oracle whose E11 has no Cholesky factor gives FAIL lines on
    Theorems 2 and 4, the other lines run, and the stage ends in the
    verification failure, not in a LinAlgError."""
    out = tmp_path / "run"
    shutil.copytree(traced_desk_verify[0], out)
    build = pipeline.build_dense_oracle

    def broken(*args, **kw):
        oracle = build(*args, **kw)
        return dataclasses.replace(oracle, E11=-oracle.E11)

    monkeypatch.setattr(pipeline, "build_dense_oracle", broken)
    with pytest.raises(RuntimeError, match="verification failed"):
        run_pipeline(RunConfig({"analysis.passivity_samples": 2}), "verify",
                     out_dir=str(out))
    lines = dict(line.split(": ", 1) for line in
                 (out / "verify" / "verify.txt").read_text().splitlines())
    assert list(lines) == list(VERIFY_LINES)
    failed = {k for k, v in lines.items() if v.startswith("FAIL")}
    assert failed == {"theorem2_spectrum", "theorem4_gramian_identity"}
    assert "E11 is not positive definite" in lines["theorem2_spectrum"]


def test_desk_verify_reports_theorem_certificates(traced_desk_verify):
    lines = dict(line.split(": ", 1) for line in
                 (traced_desk_verify[0] / "verify" / "verify.txt").read_text().splitlines())
    assert lines["theorem1_common_kernel"] == "PASS k2=385 by=interlacing"
    rel, remainder = (float(part.split("=")[1]) for part in
                      lines["theorem4_gramian_identity"].split()[1:])
    assert rel <= 1e-10 and remainder <= 1e-12      # measured 1.0e-12 and 6.3e-14


def test_cli_verify_refuses_above_dense_cap_before_any_solve(tmp_path, monkeypatch, capsys):
    """Above ``oracle.dense_cap`` verify refuses before the full-model scan
    and before ``reduce``: no transfer_full call, no LU, no model."""
    calls = []
    monkeypatch.setattr(pipeline, "transfer_full", lambda *a, **k: calls.append(a))
    cfg = tmp_path / "cap.cfg"
    cfg.write_text("oracle.dense_cap = 100\n")
    out = tmp_path / "run"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 3
    assert "n_r = 3952 > oracle.dense_cap = 100" in capsys.readouterr().err
    assert calls == []
    assert not (out / "reduce").exists() and not (out / "verify").exists()


def test_cli_reduce_refuses_when_no_order_meets_target(tmp_path, capsys):
    """With mor.tol_adi = 1e-5 LR-ADI stops early (20 columns) and no order's
    bound meets the desk's 1e-10 target: reduce names the target, the best
    bound and mor.tol_adi, and writes nothing."""
    cfg = tmp_path / "loose.cfg"
    cfg.write_text("mor.tol_adi = 1e-5\n")
    out = tmp_path / "run"
    assert main(["reduce", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "error-bound target 1.000e-10" in err
    assert "best certified bound" in err and "mor.tol_adi = 1e-05" in err
    assert "deviates from identity" not in err
    assert not (out / "reduce" / "reduced.txt").exists()


def test_cli_refuses_unconverged_adi_factor(tmp_path, capsys):
    cfg = tmp_path / "short.cfg"
    cfg.write_text("mor.maxit_adi = 4\n")
    out = tmp_path / "run"
    assert main(["reduce", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "'maxit'" in err and "last residual" in err
    assert not (out / "reduce" / "reduced.txt").exists()


def test_cli_refuses_unconverged_lanczos_bounds(tmp_path, capsys):
    cfg = tmp_path / "short.cfg"
    cfg.write_text("mor.lanczos_maxit = 20\n")
    out = tmp_path / "run"
    assert main(["reduce", "--config", str(cfg), "--out", str(out)]) == 3
    assert "did not converge in 20 iterations" in capsys.readouterr().err
    assert not (out / "reduce" / "reduced.txt").exists()


def _reduce_with(tmp_path, text):
    """(reduced.txt as a dict, Hankel values from hankel.csv) of a ``reduce``
    call under the config ``text``."""
    cfg = tmp_path / "mor.cfg"
    cfg.write_text(text)
    out = tmp_path / "run"
    assert main(["reduce", "--config", str(cfg), "--out", str(out)]) == 0
    info = _read_kv(out / "reduce" / "reduced.txt")
    hankel = np.loadtxt(out / "reduce" / "hankel.csv", delimiter=",", skiprows=1)[:, 1]
    return info, hankel


def test_reduce_with_fixed_order(tmp_path):
    """``reduced.txt`` holds the certified bound, the exact DC error, the
    paper's truncated-tail value and Delta = tr(R^{-1})/2 - sum of the
    Hankel values; R = 100 on the desk."""
    info, hankel = _reduce_with(tmp_path, "mor.order = 4\n")
    assert int(info["ell"]) == 4
    assert float(info["error_bound"]) == error_bound(hankel, 1 / 100.0, 4)
    assert float(info["hinf_error"]) <= float(info["error_bound"])
    assert float(info["paper_bound"]) == tail_bound(hankel, int(info["n_s"]), 4)
    assert float(info["delta"]) == math.fsum([0.005, *(-hankel)])


def test_reduce_with_error_bound_target(tmp_path):
    info, hankel = _reduce_with(tmp_path, "mor.tol_hsv = 1e-6\n")
    ell = int(info["ell"])
    assert ell == reduced_order(hankel, 1 / 100.0, 1e-6)
    assert float(info["error_bound"]) == error_bound(hankel, 1 / 100.0, ell) <= 1e-6
    assert float(info["hinf_error"]) <= float(info["error_bound"])


def test_manifest_golden_dimensions(tmp_path):
    """Frozen first-run dimensions of the shipped default scenario."""
    out = tmp_path / "run"
    run_pipeline(default_config(), ("mesh", "assemble", "regularize"),
                 out_dir=str(out))
    manifest = (out / "manifest.txt").read_text()
    golden = {
        "dim.n_n": 1000, "dim.n_e": 5859, "dim.n_f": 9234,
        "dim.n1": 592, "dim.n2": 3745, "dim.k2": 385, "dim.n_r": 3952,
    }
    for key, val in golden.items():
        assert f"{key} = {val}" in manifest, key


NUMERIC_SUFFIXES = (".mtx", ".csv", "mesh.txt")


def _numeric_artifacts(root):
    found = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            p = os.path.join(dirpath, f)
            if f.endswith((".mtx", ".csv")) or f == "mesh.txt":
                found[os.path.relpath(p, root)] = p
    return found


def test_freqresp_marks_each_value_certified(tmp_path):
    """freqresp.csv carries each point's certificate, every one within 1e-3
    of its error, and the manifest its Krylov figures, which a later call
    on the same run keeps."""
    cfg = RunConfig({"analysis.freq_points": 6, "analysis.steps": 4})
    out = tmp_path / "run"
    run_pipeline(cfg, ("reduce", "freqresp"), out_dir=str(out))
    path = out / "freqresp" / "freqresp.csv"
    assert path.read_text().splitlines()[0] == "omega,abs_H,abs_H_reduced,abs_error,h_bound"
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape == (6, 5)
    assert np.all(rows[:, 4] <= 1e-3 * rows[:, 3])
    run_pipeline(cfg, "simulate", out_dir=str(out))
    info = {k.strip(): v.strip() for k, _, v in (
        line.partition("=") for line in (out / "manifest.txt").read_text().splitlines())}
    assert info["freqresp.lu_points"] == "0"
    assert 0 < int(info["freqresp.krylov_basis_size"]) <= 120
    assert float(info["freqresp.krylov_shift"]) < 0
    assert float(info["freqresp.max_h_bound"]) == rows[:, 4].max()


def test_determinism_byte_identical_numeric_artifacts(tmp_path):
    values = {
        "analysis.freq_points": 6,
        "analysis.steps": 60,
        "mor.eps_shift": 1e-8,
        "mor.tol_adi": 1e-8,
    }
    cfg = RunConfig(dict(values))
    stages = ("mesh", "assemble", "regularize", "reduce", "freqresp", "simulate")
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        run_pipeline(RunConfig(dict(values)), stages, out_dir=str(out))
        outs.append(out)
    arts_a = _numeric_artifacts(outs[0])
    arts_b = _numeric_artifacts(outs[1])
    assert set(arts_a) == set(arts_b)
    assert len(arts_a) >= 14
    for rel in sorted(arts_a):
        assert filecmp.cmp(arts_a[rel], arts_b[rel], shallow=False), rel


@pytest.mark.parametrize("old, new, match", [
    ({"n_r": 10, "k2": 3}, {"n1": 5, "n2": 7}, "n_r identity"),
    ({"n_s": 4, "n0": 2}, {"n_inf": 3, "n_r": 10}, "count identity"),
])
def test_manifest_rejects_inconsistent_merged_dimensions(tmp_path, old, new, match):
    """Dimensions that break an identity once merged with those of the
    manifest on disk raise ValueError, a check ``python -O`` keeps."""
    cfg = default_config()
    first = RunManifest(cfg, str(tmp_path), seed=7)
    first.add_dims(**old)
    (tmp_path / "manifest.txt").write_text(first.text())
    second = RunManifest(cfg, str(tmp_path), seed=7)
    second.add_dims(**new)
    with pytest.raises(ValueError, match=match):
        second.text()

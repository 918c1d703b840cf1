import filecmp
import os
import subprocess
import sys

import numpy as np
import pytest

import mqsmor
from mqsmor.assembly import build_system
from mqsmor.cli import main
from mqsmor.config import ConfigError, RunConfig, default_config, parse_config
from mqsmor.lacore import read_matrix_market
from mqsmor.pipeline import RunManifest, run_pipeline


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
    assert "counts_source = topology" in manifest
    for line in ("dim.n_s = 466", "dim.n0 = 127", "dim.n_inf = 3359", "dim.n_r = 3952"):
        assert line in manifest


def test_manifest_keeps_dimensions_of_resumed_run(capped_reduce):
    cfg, out, _, _ = capped_reduce
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text()
    for line in ("dim.n_s = 466", "dim.n0 = 127", "dim.n_inf = 3359",
                 "counts_source = topology", "time.reduce = ", "time.simulate = ",
                 "artifact = reduce/reduced.txt", "artifact = simulate/simulation.csv"):
        assert line in manifest


def test_verify_enforces_dense_cap(capped_reduce, capsys):
    cfg, out, _, _ = capped_reduce
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 3
    assert "dense oracle cap exceeded" in capsys.readouterr().err


def test_cli_refuses_unconverged_adi_factor(tmp_path, capsys):
    cfg = tmp_path / "short.cfg"
    cfg.write_text("mor.maxit_adi = 4\n")
    out = tmp_path / "run"
    assert main(["reduce", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "'maxit'" in err and "last residual" in err
    assert not (out / "reduce" / "reduced.txt").exists()


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

"""scripts/compare_runs.py on hand-made run directories."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("compare_runs", ROOT / "scripts" / "compare_runs.py")
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)

MANIFEST = ("seed = 7\n"
            "dim.n_r = 3952\n"
            "verify.oracle_g_pivot_ratio = 1.300e-01\n"
            "verify.oracle_s = 1.055\n"
            "time.reduce = 0.744\n"
            "artifact = freqresp/freqresp.csv\n")


def _run(root):
    """A run directory with a manifest and one CSV artifact."""
    (root / "freqresp").mkdir(parents=True)
    (root / "freqresp" / "freqresp.csv").write_text("omega,abs_H\n1.0,0.01\n")
    (root / "manifest.txt").write_text(MANIFEST)
    return root


def _compare(a, b, capsys):
    code = compare_runs.main([str(a), str(b)])
    return code, capsys.readouterr().out.splitlines()


def test_identical_runs_compare_equal(tmp_path, capsys):
    a = _run(tmp_path / "a")
    b = tmp_path / "b"
    shutil.copytree(a, b)
    assert _compare(a, b, capsys) == (0, [])


def test_one_changed_csv_byte_is_reported(tmp_path, capsys):
    a, b = _run(tmp_path / "a"), _run(tmp_path / "b")
    (b / "freqresp" / "freqresp.csv").write_text("omega,abs_H\n1.0,0.02\n")
    assert _compare(a, b, capsys) == (1, ["freqresp/freqresp.csv"])


def test_manifest_differing_only_in_timings_compares_equal(tmp_path, capsys):
    a, b = _run(tmp_path / "a"), _run(tmp_path / "b")
    text = MANIFEST.replace("1.055", "2.110").replace("0.744", "0.901")
    (b / "manifest.txt").write_text(text)
    assert _compare(a, b, capsys) == (0, [])
    # a line that is not wall-clock still counts
    (b / "manifest.txt").write_text(text.replace("1.300e-01", "1.301e-01"))
    assert _compare(a, b, capsys) == (1, ["manifest.txt"])


def test_file_missing_from_one_side_is_reported(tmp_path, capsys):
    a, b = _run(tmp_path / "a"), _run(tmp_path / "b")
    (a / "freqresp" / "freqresp.csv").unlink()
    assert _compare(a, b, capsys) == (1, ["freqresp/freqresp.csv (only in B)"])

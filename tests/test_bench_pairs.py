"""The per-metric summary of scripts/bench_pairs.py on hand-made pairs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BOUNDS = {name: 0.25 for name in bench_pairs.METRICS}


def _pairs(parent, change):
    """Pairs whose every metric reads ``parent[i]`` and ``change[i]``."""
    return [{side: {"metrics": dict.fromkeys(bench_pairs.METRICS, value)}
             for side, value in (("parent", p), ("change", c))}
            for p, c in zip(parent, change)]


PARENT = [10.0, 10.2, 9.8, 10.4, 9.6, 10.1, 9.9, 10.3, 9.7, 10.0]   # IQR 0.35


def test_clear_gain_meets_the_claim():
    change = [v - 1.0 for v in PARENT]
    out = bench_pairs.summarize(_pairs(PARENT, change), BOUNDS)["analysis_s"]
    assert out["change_wins"] == 10 and out["pairs"] == 10
    assert out["claim_met"] and out["within_bound"]
    assert out["relative_change"] == pytest.approx(-0.1)


def test_nine_of_ten_wins_suffice_and_eight_do_not():
    change = [v - 1.0 for v in PARENT]
    change[0] = PARENT[0] + 0.1
    assert bench_pairs.summarize(_pairs(PARENT, change), BOUNDS)["total_s"]["claim_met"]
    change[1] = PARENT[1]                       # a tie counts for neither side
    out = bench_pairs.summarize(_pairs(PARENT, change), BOUNDS)["total_s"]
    assert out["change_wins"] == 8 and not out["claim_met"]


def test_gain_within_the_parent_spread_is_no_claim():
    change = [v - 0.2 for v in PARENT]          # 10/10 wins, 0.2 < IQR
    out = bench_pairs.summarize(_pairs(PARENT, change), BOUNDS)["setup_s"]
    assert out["change_wins"] == 10
    assert not out["beyond_parent_iqr"] and not out["claim_met"]


def test_a_loss_is_no_claim_and_the_bound_decides_within_bound():
    worse = [v * 1.2 for v in PARENT]
    out = bench_pairs.summarize(_pairs(PARENT, worse), BOUNDS)["reduce_s"]
    assert out["beyond_parent_iqr"] and not out["claim_met"]
    assert out["within_bound"]                  # +20 % against a 25 % bound
    tight = dict(BOUNDS, reduce_s=0.1)
    assert not bench_pairs.summarize(_pairs(PARENT, worse), tight)["reduce_s"]["within_bound"]


def test_bounds_are_read_from_the_checkout():
    bounds = bench_pairs.load_bounds(ROOT)
    assert set(bench_pairs.METRICS) <= set(bounds)
    assert bounds["peak_rss_mb"] == pytest.approx(0.1)


def test_each_workload_keeps_its_own_checkouts():
    """Two calls write two workloads into one file; each entry keeps the
    checkouts it measured, and no document-level description is left to
    be read as that of every workload."""
    doc = {"parent": {"commit": "old"}, "change": {"commit": "old"},
           "workloads": {"desk-sweep": {"parent": {"commit": "a"},
                                        "change": {"commit": "b"}}}}
    bench_pairs.add_workload(doc, "desk-transient", {"parent": {"commit": "c"},
                                                     "change": {"commit": "d"}})
    assert set(doc) == {"workloads"}
    assert {name: (w["parent"]["commit"], w["change"]["commit"])
            for name, w in doc["workloads"].items()} == {
        "desk-sweep": ("a", "b"), "desk-transient": ("c", "d")}
    bench_pairs.add_workload(doc, "desk-sweep", {"parent": {"commit": "e"},
                                                 "change": {"commit": "f"}})
    assert doc["workloads"]["desk-sweep"]["change"]["commit"] == "f"
    assert doc["workloads"]["desk-transient"]["change"]["commit"] == "d"



def test_source_digest_skips_byte_code_caches(tmp_path):
    """The digest covers the files under src and perfbench, and not the
    __pycache__ directories that running the checkout leaves behind."""
    for rel in ("src/pkg/mod.py", "perfbench/run.py"):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text("x = 1\n")
    clean = bench_pairs.describe(str(tmp_path))["sources_sha256"]
    (tmp_path / "src/pkg/__pycache__").mkdir()
    (tmp_path / "src/pkg/__pycache__/mod.cpython-311.pyc").write_bytes(b"\0\1")
    assert bench_pairs.describe(str(tmp_path))["sources_sha256"] == clean
    (tmp_path / "src/pkg/mod.py").write_text("x = 2\n")
    assert bench_pairs.describe(str(tmp_path))["sources_sha256"] != clean

"""Paired benchmark of two source checkouts.

    python3 scripts/bench_pairs.py --parent DIR --change DIR \
        --workload desk-transient --pairs 10 --seed0 18101 --seconds 60 \
        --out BENCH_<label>.json

Runs ``perfbench/run.py`` of each checkout, in that checkout, once per seed
and side: pair i uses seed ``seed0 + i`` on both sides, and the side that
runs first alternates (the parent first in even pairs).  Every run's JSON
line is kept.  The output file gets, per workload and end-to-end metric,
each side's median and quartiles over the pairs, the number of pairs the
change won (ties count for neither side), whether the medians differ by
more than the parent's interquartile range, whether a claimed gain would be
met (``claim_met``: the change won at least 9 of every 10 pairs and its
median is lower than the parent's by more than that range), and whether the
change's median stays within the metric's bound (``within_bound``: at most
the parent's median times 1 + bound, the bound read from the change
checkout's ``BENCHMARK.json``).  An existing output file is
updated: the workload's entry is replaced and the others are kept, so one
file can hold several workloads, each from its own call.  Each entry
therefore records the two checkouts it measured (``describe``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

# end-to-end metrics of perfbench/run.py; every one of them is better lower
METRICS = ("setup_s", "reduce_s", "analysis_s", "total_s", "peak_rss_mb")


def _git(path, *args):
    try:
        out = subprocess.run(["git", "-C", path, *args], capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def describe(path):
    """The checkout's commit, whether its tracked files differ from that
    commit, and a SHA-256 over its ``src`` and ``perfbench`` files."""
    digest = hashlib.sha256()
    for sub in ("src", "perfbench"):
        # top-down walk: pruning and sorting ``dirs`` in place skips the
        # byte-code caches and fixes the order
        for base, dirs, files in os.walk(os.path.join(path, sub)):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                full = os.path.join(base, name)
                digest.update(os.path.relpath(full, path).encode())
                with open(full, "rb") as fh:
                    digest.update(fh.read())
    status = _git(path, "status", "--porcelain", "--untracked-files=no")
    return {"commit": _git(path, "rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status),
            "sources_sha256": digest.hexdigest()}


def run_once(checkout, workload, seed, seconds):
    """One ``perfbench/run.py`` call; returns its JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited "
                         f"{out.returncode}:\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread(values):
    """Median and quartiles (inclusive method) of a sample."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def load_bounds(checkout):
    """{metric: relative bound} of the end-to-end metrics declared in the
    checkout's ``BENCHMARK.json``."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        return {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}


def summarize(pairs, bounds):
    """Per-metric summary of the pairs; ``bounds`` maps a metric to its
    relative bound (``load_bounds``)."""
    out = {}
    for name in METRICS:
        par = [p["parent"]["metrics"][name] for p in pairs]
        chg = [p["change"]["metrics"][name] for p in pairs]
        ps, cs = spread(par), spread(chg)
        wins = sum(c < p for p, c in zip(par, chg))
        beyond = abs(cs["median"] - ps["median"]) > ps["q3"] - ps["q1"]
        out[name] = {
            "parent": ps, "change": cs,
            "change_wins": wins,
            "pairs": len(pairs),
            "relative_change": cs["median"] / ps["median"] - 1.0,
            "beyond_parent_iqr": beyond,
            "claim_met": (10 * wins >= 9 * len(pairs) and beyond
                          and cs["median"] < ps["median"]),
            "within_bound": cs["median"] <= ps["median"] * (1.0 + bounds[name]),
        }
    return out


def add_workload(doc, workload, entry):
    """Put one workload's entry into the output document ``doc``.  The entry
    carries its own ``parent`` and ``change`` descriptions; document-level
    ones, which described only the latest call, are dropped."""
    doc.pop("parent", None)
    doc.pop("change", None)
    doc.setdefault("workloads", {})[workload] = entry


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed0", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out", required=True, help="JSON file to write or update")
    args = p.parse_args(argv)
    if args.pairs < 2:
        raise SystemExit("error: need at least 2 pairs for quartiles")

    sides = {"parent": args.parent, "change": args.change}
    bounds = load_bounds(args.change)
    pairs = []
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(sides[side], args.workload, seed, args.seconds)
        pairs.append(pair)
        print(f"pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
            f"{name} {pair['parent']['metrics'][name]:.4g} -> "
            f"{pair['change']['metrics'][name]:.4g}" for name in METRICS), flush=True)

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    add_workload(doc, args.workload, {
        "parent": describe(args.parent), "change": describe(args.change),
        "seconds": args.seconds, "seeds": [pr["seed"] for pr in pairs],
        "all_correct": all(pr[s]["correct"] and not pr[s]["failed"]
                           for pr in pairs for s in sides),
        "metrics": summarize(pairs, bounds), "pairs": pairs,
    })
    tmp = args.out + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

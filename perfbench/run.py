"""Staged benchmark of the mqsmor pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One round of a workload is a sequence of stage calls: each call
is one ``run_pipeline`` call (the library form of ``mqsmor <stage>``) that
resumes from the directory the previous call left, timed from outside.
Rounds repeat while another round still fits in ``--seconds``; at least one
round runs.  After each round the outputs are checked (see ``checks.py``).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (medians over rounds); with ``--trace 1`` the package
is wrapped by ``layertrace.Tracer`` and the JSON carries the per-layer metrics
(per-round averages).  Work goes to ``.perfbench_runs/`` in the checkout
and is deleted when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")
REFERENCE = os.path.join(HERE, "reference", "desk_full_H.csv")
REFERENCE_RTOL = 1e-8

SETUP = ("mesh", "assemble", "regularize")

# Workload table.  ``analysis`` are the stage calls after ``reduce``;
# ``values`` override the built-in desk scenario (resolution 9, n_r = 3952).
WORKLOADS = {
    "desk-sweep": {
        "analysis": ("freqresp", "verify"),
        "values": {
            "analysis.freq_min": 1.0e-4,
            "analysis.freq_max": 1.0e6,
            "analysis.freq_points": 6,
            "analysis.passivity_samples": 2,
        },
    },
    "desk-transient": {
        "analysis": ("simulate",),
        "values": {"analysis.steps": 200},      # over the default 0.08 s
        "seeded_drive": True,
    },
    # reference figures only (README), too long for the timed workloads:
    # a resolution-10 box (n_r = 5544) through reduce, and the unmodified
    # default scenario as one ``mqsmor all`` call
    "box10-reduce": {
        "analysis": (),
        "values": {
            "geometry.resolution": 10,
            "geometry.r1": 0.0126, "geometry.r2": 0.0252,
            "geometry.r3": 0.0378, "geometry.r4": 0.0504,
            "geometry.z1": -0.0504, "geometry.z2": 0.0504,
            "geometry.z3": -0.0252, "geometry.z4": 0.0252,
        },
    },
    "default-all": {"analysis": (), "values": {}, "single_call": True},
}

END_TO_END = (("setup_s", "s"), ("reduce_s", "s"), ("analysis_s", "s"),
              ("total_s", "s"), ("peak_rss_mb", "MB"))

# per-layer metrics: span name -> reported keys
SPANS = {
    "mesh.generate_mesh": ("s",),
    "assembly.build_system": ("s",),
    "regularize.kernel_bases": ("s",),
    "regularize.build_regularized": ("s",),
    "regularize.theorem1_check": ("calls", "s"),
    "lacore.factorize.real": ("calls", "s", "fill_nnz"),
    "lacore.factorize.complex": ("calls", "s", "fill_nnz"),
    "lacore.solve": ("calls", "s"),
    "lacore.lanczos_extremal": ("iterations", "s"),
    "lacore.dense_sym_eig": ("s",),
    "lacore.write_matrix_market": ("bytes", "s"),
    "lacore.read_matrix_market": ("bytes", "s"),
    "ops.context": ("calls", "s", "self_s"),
    "ops.shifted_solve": ("calls", "columns", "self_s", "max_rel_residual"),
    "ops.apply_EinvA": ("calls", "s"),
    "ops.spectral_bounds": ("s",),
    "ops.dimension_counts": ("s",),
    "mor.wachspress_shifts": ("count",),
    "mor.lr_adi": ("iterations", "s", "self_s", "final_residual"),
    "mor.balanced_truncate": ("calls", "s"),
    "analysis.frequency_response": ("points", "s"),
    "analysis.simulate_compare": ("steps", "s"),
    "analysis.passivity_scan": ("samples", "s"),
    "oracle.build_dense_oracle": ("s",),
    "oracle.dense_gramians": ("s",),
}
UNITS = {"s": "s", "self_s": "s", "bytes": "B", "max_rel_residual": "ratio",
         "final_residual": "ratio"}
NOT_ADDITIVE = ("max_rel_residual", "final_residual")
STAGES = ("mesh", "assemble", "regularize", "reduce", "freqresp", "simulate", "verify")


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = [(f"{span}.{key}", UNITS.get(key, "count"))
           for span, keys in SPANS.items() for key in keys]
    for st in STAGES:
        out += [(f"stage.{st}.s", "s"), (f"stage.{st}.unaccounted_s", "s")]
    out += [("pipeline.artifact_bytes", "B"), ("trace.total_s", "s"),
            ("trace.overhead_s", "s")]
    return out


def per_layer_values(tracer, n):
    """Per-layer metrics as per-round averages; prints every span first."""
    for span, entry in sorted(tracer.stats.items()):
        extra = " ".join(f"{k}={v:.4g}" for k, v in entry.items()
                         if k not in ("calls", "s", "self_s"))
        print(f"span {span}: calls={entry['calls'] / n:g} s={entry['s'] / n:.3f} "
              f"self_s={entry['self_s'] / n:.3f} {extra}".rstrip())
    values, units = {}, {}
    for name, unit in per_layer_names():
        span, _, key = name.rpartition(".")
        raw = tracer.stats.get(span, {}).get(key, 0.0)
        values[name] = raw if key in NOT_ADDITIVE else raw / n
        units[name] = unit
    values["trace.overhead_s"] = tracer.overhead_s / n
    return values, units


def limit_blas_threads():
    """At most one BLAS/OpenMP thread per CPU this process may run on."""
    ncpu = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, ncpu))
        except ValueError:
            current = ncpu
        os.environ[var] = str(max(1, min(current, ncpu)))


def import_package():
    if not os.path.isfile(os.path.join(SRC, "mqsmor", "__init__.py")):
        raise SystemExit(f"error: no mqsmor sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import mqsmor
    if not os.path.abspath(mqsmor.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported mqsmor from {mqsmor.__file__}, not {SRC}")
    from mqsmor import pipeline
    from mqsmor.config import RunConfig
    return pipeline, RunConfig


def workload_config(RunConfig, spec, seed):
    import numpy as np
    values = dict(spec["values"])
    if spec.get("seeded_drive"):
        # amplitude only: the refinement steps of each solve, and so the
        # work, do not depend on the scale of the right-hand side
        rng = np.random.default_rng(seed)
        values["analysis.amplitude"] = float(rng.uniform(4.0e4, 6.0e4))
    return RunConfig(values)


def dir_bytes(path):
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


class Round:
    """One pass over a workload's stage calls in a fresh directory."""

    def __init__(self, pipeline, config, spec, out_dir, seed, tracer=None):
        self.pipeline = pipeline
        self.config = config
        self.spec = spec
        self.out = out_dir
        self.seed = seed
        self.tracer = tracer
        self.manifests = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def _call(self, stage):
        """One timed ``run_pipeline`` call; returns its wall time."""
        tr = self.tracer
        before = tr.stats.get("pipeline.run_pipeline", {}).get("self_s", 0.0) if tr else 0.0
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            self.pipeline.run_pipeline(self.config, stage, out_dir=self.out, seed=self.seed)
        except Exception as exc:  # a failed stage call is counted, not fatal
            self.failed += 1
            self.errors.append(f"{stage}: {type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t0
        # each call rewrites manifest.txt with its own stages' dimensions
        manifest = os.path.join(self.out, "manifest.txt")
        if os.path.exists(manifest):
            import checks
            self.manifests[stage] = checks.read_kv(manifest)
        if tr is not None:
            tr.add(f"stage.{stage}", "s", dt)
            after = tr.stats["pipeline.run_pipeline"]["self_s"]
            tr.add(f"stage.{stage}", "unaccounted_s", after - before)
        return dt

    def run(self):
        """Run the stage calls; returns the round's end-to-end times."""
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        if self.spec.get("single_call"):
            return {"total_s": self._call("all")}
        times = {
            "setup_s": sum(self._call(st) for st in SETUP),
            "reduce_s": self._call("reduce"),
            "analysis_s": sum(self._call(st) for st in self.spec["analysis"]),
        }
        times["total_s"] = sum(times.values())
        return times

    def check(self):
        """Output checks; returns a list of (name, ok, detail)."""
        import checks
        if self.failed:
            return [("all_stage_calls_succeeded", False, "; ".join(self.errors))]
        try:
            return self._check_outputs(checks)
        except (OSError, ValueError, KeyError) as exc:
            return [("outputs_readable", False, f"{type(exc).__name__}: {exc}")]

    def _check_outputs(self, checks):
        red = checks.ReducedArtifacts(self.out)
        last = "all" if self.spec.get("single_call") else "reduce"
        out = checks.check_dimensions(self.out, self.manifests.get(last, {}))
        out += checks.check_reduced(red, self.config.material.R)
        stages = set(self.spec["analysis"])
        if self.spec.get("single_call"):
            stages = {"freqresp", "simulate", "verify"}
        if "freqresp" in stages:
            out += checks.check_freqresp(self.out, red)
            if not self.spec.get("single_call"):
                out += checks.check_reference(self.out, REFERENCE, REFERENCE_RTOL)
        if "simulate" in stages:
            cfg = self.config
            out += checks.check_simulation(
                self.out, red, cfg["analysis.amplitude"], cfg["analysis.frequency"],
                cfg["analysis.t_final"], cfg["analysis.steps"])
        if "verify" in stages:
            out += checks.check_verify(self.out)
        return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    limit_blas_threads()     # before anything imports numpy
    pipeline, RunConfig = import_package()
    from layertrace import Tracer

    spec = WORKLOADS[args.workload]
    config = workload_config(RunConfig, spec, args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    run_root = os.path.join(RUNS, f"{args.workload}-seed{args.seed}")
    rounds, all_checks = [], []
    attempted = failed = 0
    artifact_bytes = 0
    start = time.perf_counter()
    try:
        while True:
            t0 = time.perf_counter()
            rnd = Round(pipeline, config, spec, os.path.join(run_root, f"round{len(rounds)}"),
                        args.seed, tracer)
            rounds.append(rnd.run())
            attempted += rnd.attempted
            failed += rnd.failed
            artifact_bytes += dir_bytes(rnd.out)
            all_checks += rnd.check()
            shutil.rmtree(rnd.out, ignore_errors=True)
            round_s = time.perf_counter() - t0
            if time.perf_counter() - start + round_s > args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(run_root, ignore_errors=True)

    correct = all(ok for _, ok, _ in all_checks)
    for name, ok, detail in all_checks:
        print(f"check {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    n = len(rounds)
    if tracer is None:
        values = {k: statistics.median(r[k] for r in rounds) for k, _ in END_TO_END
                  if k in rounds[0]}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = dict(END_TO_END)
    else:
        values, units = per_layer_values(tracer, n)
        values["pipeline.artifact_bytes"] = artifact_bytes / n
        values["trace.total_s"] = statistics.median(r["total_s"] for r in rounds)
    for name, val in values.items():
        print(f"{name} = {val:.6g} {units[name]}")
    print(f"rounds = {n}, stage calls attempted = {attempted}, failed = {failed}")
    metrics = {k: {"value": float(v), "unit": units[k]} for k, v in values.items()}
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

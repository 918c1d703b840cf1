"""Command line interface.

    mqsmor <stage> [--config FILE] [--out DIR] [--seed N]

Stages: mesh, assemble, regularize, reduce, freqresp, simulate, verify, all.
Exit codes: 0 success, 2 validation error, 3 numerical failure (RuntimeError,
ValueError or numpy LinAlgError); any other exception is a program error and
ends with its traceback (exit code 1).

CSV column contracts:
    freqresp/freqresp.csv      omega, abs_H, abs_H_reduced, abs_error, h_bound
                               (h_bound: certified ||H - H_k||_2 of the full
                               model's value, nan where an LU computed it)
    simulate/simulation.csv    t, u, y, y_reduced, rel_error
    reduce/residual_history.csv  iteration, residual
    reduce/hankel.csv          index, hankel_value
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import ConfigError, default_config, parse_config
from .pipeline import STAGES, run_pipeline


def u64(text):
    """A seed in [0, 2^64), the u64 that ``--help`` promises."""
    seed = int(text)
    if not 0 <= seed < 2 ** 64:
        raise argparse.ArgumentTypeError(f"seed {seed} is outside [0, 2^64)")
    return seed


def make_parser():
    p = argparse.ArgumentParser(
        prog="mqsmor",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("stage", choices=STAGES + ("all",),
                   help="pipeline stage to run")
    p.add_argument("--config", default=None,
                   help="key-value config file (defaults to the built-in scenario)")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed", type=u64, default=7,
                   help="seed for sampled checks (u64)")
    return p


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        config = parse_config(args.config) if args.config else default_config()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        state = run_pipeline(config, args.stage, out_dir=args.out, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(f"{args.stage}: ok (artifacts in {state.out})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

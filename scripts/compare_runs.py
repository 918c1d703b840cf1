"""Byte comparison of two pipeline run directories.

    python3 scripts/compare_runs.py A B

Compares every file under the run directories A and B byte for byte.  In a
``manifest.txt`` only the wall-clock lines (``time.*`` and ``verify.*_s``)
are left out of the comparison.  Prints the path, relative to the run
directory, of each file that differs or exists on one side only, and exits
1 if there is any such file, 0 otherwise.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

WALL_CLOCK = re.compile(rb"(time\.\S+|verify\.\S+_s) = ")


def _files(root):
    return {os.path.relpath(os.path.join(base, name), root)
            for base, _, names in os.walk(root) for name in names}


def _content(path):
    with open(path, "rb") as f:
        data = f.read()
    if os.path.basename(path) == "manifest.txt":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not WALL_CLOCK.match(line))
    return data


def differing(a, b):
    """Sorted (path, note) pairs for the files that differ between the run
    directories ``a`` and ``b``; the note names the side a file is missing
    from, or is empty."""
    fa, fb = _files(a), _files(b)
    out = [(rel, "only in A") for rel in fa - fb] + [(rel, "only in B") for rel in fb - fa]
    out += [(rel, "") for rel in fa & fb
            if _content(os.path.join(a, rel)) != _content(os.path.join(b, rel))]
    return sorted(out)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("a", help="first run directory")
    p.add_argument("b", help="second run directory")
    args = p.parse_args(argv)
    for path in (args.a, args.b):
        if not os.path.isdir(path):
            p.error(f"not a directory: {path}")
    diffs = differing(args.a, args.b)
    for rel, note in diffs:
        print(f"{rel} ({note})" if note else rel)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())

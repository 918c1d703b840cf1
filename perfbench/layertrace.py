"""Per-layer tracing of mqsmor from outside the package.

``Tracer.install`` replaces every public module-level function of the
traced modules, the public methods of ``ops.OperatorContext`` and
``lacore.Factorization.solve`` by timing wrappers.  A wrapper records, per
name, the number of calls, the wall time and the self time (wall time minus
the wall time of wrapped calls nested inside it).  A few wrappers also count
work (LU fill, Lanczos iterations, bytes of Matrix Market IO, solved columns,
the residual a shifted solve reached); that bookkeeping runs after the timed
call and is summed into ``overhead_s`` instead of the span.

The package itself is not edited: names bound by ``from .x import f`` are
rebound in every ``mqsmor`` module, and ``uninstall`` restores them all.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

import numpy as np

MODULES = ("mesh", "assembly", "regularize", "lacore", "ops", "mor",
           "analysis", "oracle", "pipeline")


class Tracer:
    """Span and counter recorder with a stack for self time."""

    def __init__(self):
        self.stats = {}
        self.overhead_s = 0.0
        self._stack = []
        self._undo = []

    # -- recording --------------------------------------------------------

    def _entry(self, name):
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = {"calls": 0, "s": 0.0, "self_s": 0.0}
        return entry

    def add(self, name, key, value):
        entry = self._entry(name)
        entry[key] = entry.get(key, 0) + value

    def maximum(self, name, key, value):
        entry = self._entry(name)
        entry[key] = max(entry.get(key, 0.0), value)

    def set(self, name, key, value):
        self._entry(name)[key] = value

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` as a span named ``name``; returns its result."""
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            entry = self._entry(name)
            entry["calls"] += 1
            entry["s"] += dt
            entry["self_s"] += dt - frame[0]
            if self._stack:
                self._stack[-1][0] += dt

    def _bookkeeping(self, hook, *args):
        t0 = time.perf_counter()
        hook(self, *args)
        dt = time.perf_counter() - t0
        self.overhead_s += dt
        if self._stack:
            # keep hook time out of the enclosing span's self time
            self._stack[-1][0] += dt

    def wrap(self, name, fn):
        hook = _HOOKS.get(name)
        naming = _NAMING.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = naming(args) if naming else name
            if hook is None:
                return self.span(span_name, fn, *args, **kwargs)
            pre = hook.before(args) if hook.before else None
            result = self.span(span_name, fn, *args, **kwargs)
            self._bookkeeping(hook.after, span_name, args, result, pre)
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self):
        mods = {name: sys.modules[f"mqsmor.{name}"] for name in MODULES}
        everywhere = [m for key, m in sys.modules.items()
                      if key == "mqsmor" or key.startswith("mqsmor.")]
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped = self.wrap(f"{short}.{attr}", obj)
                for other in everywhere:
                    for key, val in list(vars(other).items()):
                        if val is obj:
                            self._undo.append((other, key, val))
                            setattr(other, key, wrapped)
        methods = [(mods["ops"].OperatorContext, "ops", None),
                   (mods["lacore"].Factorization, "lacore", ("solve",))]
        for cls, short, only in methods:
            for attr, obj in list(vars(cls).items()):
                public = attr == "__init__" or not attr.startswith("_")
                if not (inspect.isfunction(obj) and public):
                    continue
                if only is not None and attr not in only:
                    continue
                label = "context" if attr == "__init__" else attr
                self._undo.append((cls, attr, obj))
                setattr(cls, attr, self.wrap(f"{short}.{label}", obj))

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()


class _Hook:
    def __init__(self, after, before=None):
        self.after = after
        self.before = before


def _factorize_after(tr, name, args, fact, _):
    lu = getattr(fact, "_lu", None)
    if lu is not None:
        tr.add(name, "fill_nnz", int(lu.nnz))
    tr.maximum(name, "max_order", int(fact.shape[0]))


def _lanczos_after(tr, name, args, res, _):
    tr.add(name, "iterations", int(res.iterations))


def _path_size(path):
    try:
        return os.path.getsize(str(path))
    except OSError:
        return 0


def _write_mm_after(tr, name, args, _res, _pre):
    tr.add(name, "bytes", _path_size(args[0]))


def _read_mm_after(tr, name, _args, _res, size):
    tr.add(name, "bytes", size)


def _shifted_solve_after(tr, name, args, z, _):
    ctx, shift, w = args[0], args[1], np.asarray(args[2])
    tr.add(name, "columns", 1 if w.ndim == 1 else int(w.shape[1]))
    r = ctx.rsys
    resid = w - (shift * r.apply_Er(z) + r.apply_Ar(z))
    wn = np.linalg.norm(w)
    if wn > 0:
        tr.maximum(name, "max_rel_residual", float(np.linalg.norm(resid) / wn))


def _shifts_after(tr, name, _args, shifts, _):
    tr.add(name, "count", len(shifts))


def _lr_adi_after(tr, name, _args, zc, _):
    tr.add(name, "iterations", int(zc.iterations))
    tr.set(name, "final_residual", float(zc.history[-1]))


def _freq_after(tr, name, args, _res, _):
    tr.add(name, "points", int(np.asarray(args[2]).shape[0]))


def _simulate_after(tr, name, args, _res, _):
    tr.add(name, "steps", int(args[4]))


def _passivity_after(tr, name, _args, res, _):
    tr.add(name, "samples", int(res["samples"]))


_HOOKS = {
    "lacore.factorize": _Hook(_factorize_after),
    "lacore.lanczos_extremal": _Hook(_lanczos_after),
    "lacore.write_matrix_market": _Hook(_write_mm_after),
    "lacore.read_matrix_market": _Hook(_read_mm_after,
                                       before=lambda args: _path_size(args[0])),
    "ops.shifted_solve": _Hook(_shifted_solve_after),
    "mor.wachspress_shifts": _Hook(_shifts_after),
    "mor.lr_adi": _Hook(_lr_adi_after),
    "analysis.frequency_response": _Hook(_freq_after),
    "analysis.simulate_compare": _Hook(_simulate_after),
    "analysis.passivity_scan": _Hook(_passivity_after),
}

# real and complex LUs are reported apart: they serve different stages
_NAMING = {
    "lacore.factorize": lambda args: (
        "lacore.factorize.complex" if np.iscomplexobj(args[0])
        else "lacore.factorize.real"),
}

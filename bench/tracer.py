"""Span recorder for the traced benchmark run.

`Recorder.install()` replaces every public module-level function of the
layer modules with a timing wrapper, and rebinds every other name bound to
the same function object (``from .spectral import ...`` copies, the
package re-exports) so that calls between modules are caught too.  It also
wraps ``algebraic.bisect``, the root finder imported from scipy.  Nothing is
installed in an untraced run.

A span is ``(id, name, start, end, parent, info)``.  Worker threads of the
sweep pool start with an empty stack; their spans take the current
``cli.main`` span as parent.  Spans stay in memory until `write_tsv`.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
from time import perf_counter

LAYERS = ("cli", "params", "regimes", "algebraic", "bubbles", "spectral",
          "asymptotics")


def _field_size(args, kwargs):
    field = args[0] if args else kwargs["field"]
    return field.n, field.N


def _points(args, kwargs):
    return getattr(args[1] if len(args) > 1 else kwargs["k"], "size", 1)


def _iterations(args, kwargs, result):
    return result.iterations


def _samples(args, kwargs, result):
    return len(result.samples)


#: extra data recorded for a few spans: from the call (before) or the result
_BEFORE = {"spectral.frac_laplacian": _field_size,
           "spectral.seminorm": _field_size,
           "algebraic.eval_f": _points}
_AFTER = {"asymptotics.solve_tR_sR": _iterations,
          "asymptotics.continuation_branch": _samples}


class Recorder:
    def __init__(self):
        self.spans = []
        self.root = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._restore = []

    def _wrap(self, name, fn):
        before, after = _BEFORE.get(name), _AFTER.get(name)
        local, spans, ids = self._local, self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            if stack:
                parent = stack[-1]
            elif threading.current_thread() is self._main:
                parent, self.root = None, sid
            else:
                parent = self.root
            info = before(args, kwargs) if before else None
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                info = getattr(exc, "code", type(exc).__name__)
                raise
            else:
                if after:
                    info = after(args, kwargs, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, info))

        return traced

    def install(self):
        modules = {layer: sys.modules[f"critsys.{layer}"] for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        bisect = modules["algebraic"].bisect
        wrappers[id(bisect)] = self._wrap("algebraic.bisect", bisect)
        for modname, module in list(sys.modules.items()):
            if modname != "critsys" and not modname.startswith("critsys."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def write_tsv(self, path):
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\tinfo\n")
            for sid, name, start, end, parent, info in self.spans:
                fh.write(f"{sid}\t{name}\t{start!r}\t{end!r}\t"
                         f"{'' if parent is None else parent}\t"
                         f"{'' if info is None else info}\n")


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """{span id: duration minus the part of it its child spans cover}."""
    children = {}
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {sid: (end - start) - _covered(children.get(sid, ()), start, end)
            for sid, _, start, end, _, _ in spans}

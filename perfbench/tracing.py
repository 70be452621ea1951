"""In-process spans around the public functions of coarse_kit's layers.

The benchmark's launcher installs a Tracer inside a CLI process when tracing
is on.  Every module-level binding of each listed function, in every
coarse_kit module, is replaced by one wrapper, so direct imports
(``from .towers import build_Mk``), imports inside functions and calls
within a function's home module all pass through it.  Spans stay in memory
and are written once, when the process ends.
"""

import functools
import importlib
import pkgutil
import time

import coarse_kit


def _smith_cells(args, kwargs, result):
    A = args[0] if args else kwargs["A"]
    return {"cells": len(A) * (len(A[0]) if A else 0)}


def _stage_cells(args, kwargs, result):
    return {"cells": result[-1].complex.total_cells()}


# function -> counter computed from (args, kwargs, result) after the call
COUNTERS = {
    "cochains.min_norm_primitive":
        lambda a, kw, r: {"evaluations": r.certificate.node_count},
    "exact_linalg.box_feasibility":
        lambda a, kw, r: {"certified": int(r[0] is None)},
    "exact_linalg.smith_normal_form": _smith_cells,
    "towers.build_Mk": lambda a, kw, r: {"cells": r.complex.total_cells()},
    "towers.build_tower": _stage_cells,
    "towers.build_Y_stage": _stage_cells,
    "interchange.serialize_complex": lambda a, kw, r: {"bytes": len(r)},
    "interchange.parse_complex":
        lambda a, kw, r: {"bytes": len(a[0] if a else kw["text"])},
}


class Tracer:
    """Collects spans [name, start, end, parent index, counters]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced

    def install(self, functions):
        """Wrap ``functions`` ("module.name") everywhere they are bound.

        Returns {function: number of bindings replaced}.
        """
        modules = [coarse_kit] + [
            importlib.import_module(f"coarse_kit.{info.name}")
            for info in pkgutil.iter_modules(coarse_kit.__path__)
        ]
        bindings = {}
        for name in functions:
            home, attr = name.split(".")
            original = getattr(importlib.import_module(f"coarse_kit.{home}"),
                               attr)
            wrapper = self.wrap(name, original)
            bindings[name] = 0
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        bindings[name] += 1
        return bindings

"""Span tracing of the package's layers, installed from outside.

`Tracer.install()` replaces each traced callable with a wrapper in every
`catruler` module namespace that binds it (so `physical_realization.
threshold_probability` and `fock_oracle._gram_norm_squared` are traced as
`coherent_algebra.threshold_probability` and `coherent_algebra.
norm_squared`), and counts constructor calls by wrapping `__init__`.
Spans (name, start, end, parent span, operation id) stay in memory until
`write()`.  A layer's self time is its span time minus the time of its
direct child spans.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

# home module -> callables traced with spans
TRACED = {
    "coherent_algebra": ("threshold_probability", "norm_squared", "overlap"),
    "physical_realization": (
        "output_state", "cat_coefficients", "fringe_scan", "measurement_probabilities",
        "central_fringe_width", "scan_extracted_spacing",
    ),
    "cli": ("main",),
    "fock_oracle": (
        "end_to_end_oracle", "coherent_to_fock", "beamsplitter_fock", "quadrature_cdf_fock",
    ),
}
# home module -> classes whose constructor calls are counted
CONSTRUCTORS = {
    "coherent_algebra": ("CoherentSuperposition",),
    "physical_realization": ("RealizationParams",),
}


def layer_metric_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric the tracer reports."""
    names = []
    for module, callables in TRACED.items():
        for name in callables:
            names += [(f"{module}.{name}.calls", "count"), (f"{module}.{name}.self_s", "s")]
    for module, classes in CONSTRUCTORS.items():
        names += [(f"{module}.{name}.calls", "count") for name in classes]
    return names


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.current = -1  # index of the open span, -1 outside any
        self.op = -1  # id of the operation being run
        self.constructed: Counter[str] = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.current
            index = len(spans)
            spans.append(None)
            self.current = index
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.current = parent
                spans[index] = (name, start, end, parent, self.op)

        return traced

    def _count(self, name: str, init):
        counts = self.constructed

        @functools.wraps(init)
        def counted(obj, *args, **kwargs):
            counts[name] += 1
            init(obj, *args, **kwargs)

        return counted

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "catruler" or key.startswith("catruler."))
        ]
        wrappers = {}
        for module, callables in TRACED.items():
            home = sys.modules[f"catruler.{module}"]
            for name in callables:
                original = getattr(home, name)
                wrappers[id(original)] = (original, self._wrap(f"{module}.{name}", original))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(mod, attr, wrappers[id(value)][1])
                    self._restore.append((mod, attr, value))
        for module, classes in CONSTRUCTORS.items():
            for name in classes:
                cls = getattr(sys.modules[f"catruler.{module}"], name)
                init = cls.__dict__["__init__"]
                cls.__init__ = self._count(f"{module}.{name}", init)
                self._restore.append((cls, "__init__", init))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Calls and self seconds per operation of every traced layer."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[index]
        constructor_layers = {f"{m}.{c}" for m, cs in CONSTRUCTORS.items() for c in cs}
        metrics = {}
        for name, _ in layer_metric_names():
            layer, kind = name.rsplit(".", 1)
            if kind == "self_s":
                metrics[name] = self_s[layer] / n_ops
            elif layer in constructor_layers:
                metrics[name] = self.constructed[layer] / n_ops
            else:
                metrics[name] = calls[layer] / n_ops
        return metrics

    def write(self, path: Path) -> None:
        """Spans as CSV: name, start, end, parent index, operation id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,op\n")
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{index},{name},{start!r},{end!r},{parent},{op}\n")

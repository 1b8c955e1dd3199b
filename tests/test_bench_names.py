"""The benchmark's tracer wraps package callables by name; this keeps a
deletion or rename in the package from breaking `bench/run.py --trace 1`
unnoticed.  bench/tracing.py is loaded by path and only read."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from catruler.coherent_algebra import CoherentSuperposition, threshold_probability

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _load_tracing()
TRACED = [(m, name) for m, names in _tracing.TRACED.items() for name in names]
CONSTRUCTORS = [(m, name) for m, names in _tracing.CONSTRUCTORS.items() for name in names]


@pytest.mark.parametrize("module,name", TRACED)
def test_traced_callable_exists_in_its_home_module(module, name):
    assert callable(getattr(importlib.import_module(f"catruler.{module}"), name))


@pytest.mark.parametrize("module,name", CONSTRUCTORS)
def test_counted_class_defines_its_own_init(module, name):
    # the tracer wraps cls.__dict__["__init__"]
    cls = getattr(importlib.import_module(f"catruler.{module}"), name)
    assert "__init__" in cls.__dict__


def test_threshold_workload_call_is_accepted():
    state = CoherentSuperposition(((1.0, 0.3 + 2j), (0.5j, -1.0 - 1j))).normalized()
    assert 0.0 <= threshold_probability(state, 0.2, method="erf") <= 1.0

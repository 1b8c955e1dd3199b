"""Start-up: importing the CLI, or any single module of the package,
must load no scipy module at all, nor may a threshold probability or an
oracle run load one later (the package runs on numpy and the math module;
scipy serves only the tests, through quad_reference and their own
references), and every module of the package must import on its own.
No README command may load numpy.random, which costs about 6 MiB of
resident memory: the oracle draws its cases with random.Random, and no
module of the package names numpy.random in its code at all.  Nor
may one load numpy.fft (the Faddeeva coefficients are a literal table)
or call a LAPACK routine of numpy.linalg (width-scaling fits its
exponent in closed form): each pages in library code for no work.

The checks run in a fresh interpreter, because the test modules of this
suite import scipy themselves.  Its path starts at the directory that
holds the catruler this suite imports: src/ in the source tree, or
site-packages when the suite runs against an installed wheel.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import catruler
import quad_reference
from catruler.coherent_algebra import CoherentSuperposition
from readme_commands import readme_argv

PACKAGE_ROOT = Path(catruler.__file__).resolve().parent.parent

PROBE = """
import importlib, json, pkgutil, sys
import numpy
fft_at_import = "numpy.fft" in sys.modules
# every LAPACK routine of numpy.linalg is reached through the module
# global _umath_linalg of its implementation module (np.polyfit binds
# lstsq at import, so a patched numpy.linalg.lstsq would see nothing);
# a proxy there records each routine called
try:
    from numpy.linalg import _linalg as linalg_impl
except ImportError:  # numpy 1.x
    from numpy.linalg import linalg as linalg_impl
lapack_calls = []
class Recorder:
    def __init__(self, module):
        self.module = module
    def __getattr__(self, name):
        value = getattr(self.module, name)
        if not callable(value):
            return value
        def recorded(*args, **kwargs):
            lapack_calls.append(name)
            return value(*args, **kwargs)
        return recorded
linalg_impl._umath_linalg = Recorder(linalg_impl._umath_linalg)
import catruler
bound = sorted(name for name in vars(catruler) if not name.startswith("__"))
modules = sorted(m.name for m in pkgutil.iter_modules(catruler.__path__))
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
# each module into a fresh package, so that an import cycle or a missing
# import shows in the module that has it rather than in the next one; a
# scipy module, once loaded, stays loaded, so it is charged to the first
# module that brings it
loaded = {}
for name in modules:
    for key in [k for k in sys.modules if k == "catruler" or k.startswith("catruler.")]:
        del sys.modules[key]
    importlib.import_module("catruler." + name)
    if scipy_modules() and not loaded:
        loaded[name] = scipy_modules()
from catruler.coherent_algebra import CoherentSuperposition, threshold_probability
from catruler.fock_oracle import _end_to_end_oracles, end_to_end_oracle
from catruler.physical_realization import RealizationParams
state = CoherentSuperposition(((1.0, 0.0), (1.0, 1.5))).normalized()
erf = threshold_probability(state, 0.7)
end_to_end_oracle(RealizationParams(2.0, 0.1))
_end_to_end_oracles([RealizationParams(2.0, 0.1), RealizationParams(1.3, 2.5)])
from catruler import cli
exits = [cli.main(argv) for argv in json.loads(sys.argv[1])]
lapack = sorted(set(lapack_calls))
fft = sorted(m for m in sys.modules if m.startswith("numpy.fft"))
# the recorder sees the fit the package no longer makes
numpy.polyfit([1.0, 2.0, 3.0], [2.0, 1.0, 0.5], 1)
print(json.dumps({
    "package": catruler.__file__,
    "bound": bound,
    "modules": modules,
    "loaded": loaded,
    "erf": erf,
    "after_calls": scipy_modules(),
    "exits": exits,
    "numpy_random": sorted(m for m in sys.modules if m.startswith("numpy.random")),
    "fft_at_import": fft_at_import,
    "numpy_fft": fft,
    "lapack": lapack,
    "polyfit_lapack": sorted(set(lapack_calls) - set(lapack)),
}))
"""

STATE = CoherentSuperposition(((1.0, 0.0), (1.0, 1.5))).normalized()


def readme_commands(out):
    """The README's CLI commands, writing to out, with 25 scan points and 3 oracle cases."""
    commands = readme_argv(out)
    for argv in commands:
        if "--cases" in argv:
            argv[argv.index("--cases") + 1] = "3"
        if {"fringe", "width-scaling", "ruler"} & set(argv):
            argv += ["--points", "25"]
    return commands


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT))
    commands = json.dumps(readme_commands(tmp_path_factory.mktemp("out")))
    run = subprocess.run([sys.executable, "-c", PROBE, commands], env=env, capture_output=True,
                         text=True, check=True)
    return json.loads(run.stdout)


def test_no_module_import_loads_scipy(probe):
    assert probe["loaded"] == {}
    # the scipy-free interpreter computes what the quadrature reference does
    assert abs(quad_reference.threshold_probability(STATE, 0.7) - probe["erf"]) <= 1e-8


def test_threshold_and_oracle_calls_load_no_scipy(probe):
    # no runtime path imports scipy lazily
    assert probe["after_calls"] == []


def test_readme_commands_load_no_numpy_random(probe):
    assert probe["exits"] == [0] * 6
    assert probe["numpy_random"] == []


def numpy_random_uses(source: str) -> list[int]:
    """Lines that import numpy.random or take .random of a name bound to
    numpy; strings and comments are not code, so a docstring may name it."""
    tree = ast.parse(source)
    numpy_names = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy_names |= {a.asname or a.name for a in node.names if a.name == "numpy"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(a.name.startswith("numpy.random") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").startswith("numpy.random") or (
                node.module == "numpy" and any(a.name == "random" for a in node.names)
            )
        else:
            hit = (isinstance(node, ast.Attribute) and node.attr == "random"
                   and isinstance(node.value, ast.Name) and node.value.id in numpy_names)
        if hit:
            lines.append(node.lineno)
    return lines


def test_no_module_uses_numpy_random():
    modules = sorted(Path(catruler.__file__).resolve().parent.glob("*.py"))
    assert "squeezed_baseline.py" in {m.name for m in modules}
    uses = {m.name: numpy_random_uses(m.read_text(encoding="utf-8")) for m in modules}
    assert {name: lines for name, lines in uses.items() if lines} == {}
    # the scan sees each form of the use, and not the word in a docstring
    assert numpy_random_uses("import numpy as np\nnp.random.default_rng(0)\n") == [2]
    assert numpy_random_uses("from numpy import random\nimport numpy.random\n") == [1, 2]
    assert numpy_random_uses('def f():\n    """not numpy.random"""\n') == []


def test_readme_commands_load_no_numpy_fft(probe):
    if probe["fft_at_import"]:
        pytest.skip("a bare import of this numpy loads numpy.fft")
    assert probe["numpy_fft"] == []


def test_readme_commands_call_no_lapack_routine(probe):
    assert probe["lapack"] == []
    # the recorder is live: np.polyfit's least squares shows in it
    assert probe["polyfit_lapack"] != []


def test_each_module_imports_alone_and_the_package_binds_no_name(probe):
    # the probe imported the package this suite tests
    assert Path(probe["package"]).resolve() == Path(catruler.__file__).resolve()
    assert "cli" in probe["modules"] and "physical_realization" in probe["modules"]
    # names are imported from their modules, not re-exported by the package
    assert probe["bound"] == []

"""Start-up: importing the CLI, or any single module of the package,
must load no scipy module at all, nor may a threshold probability or an
oracle run load one later (the package runs on numpy and the math module;
scipy serves only the tests, through quad_reference and their own
references), and every module of the package must import on its own.
No README command may load numpy.random, which costs about 6 MiB of
resident memory: the oracle draws its cases with random.Random.

The checks run in a fresh interpreter, because the test modules of this
suite import scipy themselves.
"""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import quad_reference
from catruler.coherent_algebra import CoherentSuperposition

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import importlib, json, pkgutil, sys
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
print(json.dumps({
    "bound": bound,
    "modules": modules,
    "loaded": loaded,
    "erf": erf,
    "after_calls": scipy_modules(),
    "exits": exits,
    "numpy_random": sorted(m for m in sys.modules if m.startswith("numpy.random")),
}))
"""

STATE = CoherentSuperposition(((1.0, 0.0), (1.0, 1.5))).normalized()


def readme_commands(out):
    """The README's CLI commands, writing to out, with 25 scan points and 3 oracle cases."""
    text = (SRC.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        if line.startswith("catruler "):
            argv = ["--quiet", *shlex.split(line)[1:]]
            argv[argv.index("--out") + 1] = str(out)
            if "--cases" in argv:
                argv[argv.index("--cases") + 1] = "3"
            if {"fringe", "width-scaling", "ruler"} & set(argv):
                argv += ["--points", "25"]
            commands.append(argv)
    return commands


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    env = dict(os.environ, PYTHONPATH=str(SRC))
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


def test_each_module_imports_alone_and_the_package_binds_no_name(probe):
    assert "cli" in probe["modules"] and "physical_realization" in probe["modules"]
    # names are imported from their modules, not re-exported by the package
    assert probe["bound"] == []

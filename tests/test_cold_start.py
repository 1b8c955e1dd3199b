"""Start-up cost: importing the CLI must not load the scipy subpackages
that only the adaptive-quadrature reference path needs.

The check runs in a fresh interpreter, because the test modules of this
suite import scipy.integrate themselves.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# loaded by scipy.integrate and by nothing on the production path
QUADRATURE_ONLY = ("scipy.integrate", "scipy.optimize", "scipy.sparse")

PROBE = f"""
import json, sys
import catruler.cli
loaded = sorted(m for m in sys.modules
                if any(m == p or m.startswith(p + ".") for p in {QUADRATURE_ONLY!r}))
from catruler.coherent_algebra import CoherentSuperposition, threshold_probability
state = CoherentSuperposition(((1.0, 0.0), (1.0, 1.5))).normalized()
print(json.dumps({{
    "loaded": loaded,
    "quad": threshold_probability(state, 0.7, method="quad"),
    "erf": threshold_probability(state, 0.7, method="erf"),
}}))
"""


def test_cli_import_defers_the_quadrature_stack():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True)
    result = json.loads(run.stdout)
    assert result["loaded"] == []
    # the deferred import still serves the reference path when it is asked for
    assert abs(result["quad"] - result["erf"]) <= 1e-8

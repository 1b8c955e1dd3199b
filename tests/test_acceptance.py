"""Acceptance suite: one test per criterion, printed as PASS/FAIL lines.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.

Two criteria check the exact physics rather than idealized figures:

* criterion 4: the heralded gate carries an intrinsic error whose leading
  term is pi^2/(16 alpha^2), so 1 - P+ and P- at zero phase both follow
  that law (0.978 / 0.026 at alpha = 5, where 0.99 / 0.01 is out of
  reach).  The test checks the law at every alpha, the 0.99 / 0.01 target
  where the law leaves room for it (alpha = 10, 20), and the alpha = 5
  figures against the independent Fock oracle.
* criterion 8: the two conditional fringe patterns are antiphase (the "-"
  outcome heralds a bit flip, which is what the correction
  (P- - P+ + 1)/2 undoes), so their cross-correlation peaks at half the
  fringe period.
"""

import json
import math
import time

import numpy as np
import pytest

from catruler.cli import main
from catruler.fock_oracle import (
    coherent_to_fock,
    end_to_end_oracle,
    parity_distribution,
)
from catruler.ideal_circuit import phase_gate_error, snr_ideal
from catruler.physical_realization import (
    RealizationParams,
    central_fringe_width,
    fringe_scan,
    measurement_probabilities,
    output_state,
)
from catruler.squeezed_baseline import equal_power_params, snr_squeezed

import offset_reference

pytestmark = pytest.mark.filterwarnings("ignore::catruler.errors.ApproximationRegimeWarning")


def report(number: int, name: str, passed: bool, detail: str) -> str:
    line = f"[acceptance {number}] {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    return line


def test_criterion_1_quantum_ruler(tmp_path):
    start = time.monotonic()
    code = main(["--out", str(tmp_path), "--quiet", "ruler",
                 "--alpha", "20", "--wavelength", "1e-6"])
    elapsed = time.monotonic() - start
    result = json.loads((tmp_path / "ruler.json").read_text())
    closed_form_ok = code == 0 and result["analytic_spacing"] == pytest.approx(1.25e-9, rel=1e-12)
    scan_ok = result["relative_deviation"] < 0.05
    runtime_ok = elapsed < 60.0
    passed = closed_form_ok and scan_ok and runtime_ok
    line = report(1, "quantum ruler 1.25 nm", passed,
                  f"analytic={result['analytic_spacing']:.6e} m, "
                  f"scan={result['scan_spacing']:.6e} m, "
                  f"deviation={result['relative_deviation']:.2%}, {elapsed:.1f}s")
    assert passed, line


def test_criterion_2_heisenberg_width_scaling():
    start = time.monotonic()
    widths = {}
    for alpha in (5.0, 10.0, 20.0):
        period = 2 * math.pi / alpha**2
        curve = fringe_scan(alpha, -3 * period, 3 * period, 801)
        widths[alpha] = central_fringe_width(curve)
    elapsed = time.monotonic() - start
    r1 = widths[5.0] / widths[10.0]
    r2 = widths[10.0] / widths[20.0]
    slope = float(np.polyfit(np.log([5.0, 10.0, 20.0]),
                             np.log([widths[5.0], widths[10.0], widths[20.0]]), 1)[0])
    passed = (3.6 <= r1 <= 4.4) and (3.6 <= r2 <= 4.4) and (-2.2 <= slope <= -1.8) and elapsed < 300.0
    line = report(2, "central width ~ 1/alpha^2", passed,
                  f"w5/w10={r1:.3f}, w10/w20={r2:.3f}, exponent={slope:.3f}, {elapsed:.1f}s")
    assert passed, line


def test_criterion_3_factor_four_snr():
    start = time.monotonic()
    n_bar, v_theta = 200.0, 1e-4
    ideal = snr_ideal(v_theta, math.sqrt(2 * n_bar))
    ratio = ideal / snr_squeezed(equal_power_params(n_bar, v_theta))
    adjusted = ideal / snr_squeezed(equal_power_params(2 * n_bar, v_theta))
    elapsed = time.monotonic() - start
    passed = (3.8 <= ratio <= 4.2) and (0.95 <= adjusted <= 1.05) and elapsed < 60.0
    line = report(3, "factor-of-four SNR at matched photons", passed,
                  f"ratio={ratio:.4f}, resource_adjusted={adjusted:.4f}, {elapsed:.2f}s")
    assert passed, line


@pytest.mark.parametrize("alpha", [5.0, 10.0, 20.0])
def test_criterion_4_null_length_certainty(alpha):
    params = RealizationParams(alpha=alpha)
    p_plus, p_minus = measurement_probabilities(params)
    # To leading order the "+" outcome leaves the homodyne port in
    # (|0> + |i d>) + (|alpha> + i|alpha + i d>), d = alpha sin(phi) ~ pi/(2 alpha):
    # the second pair sits above the threshold and interferes destructively
    # down to a relative weight d^2/4 = pi^2/(16 alpha^2).  The "-" outcome
    # flips the sign of the |i d> pair, so there (|0> - |i d>) is the
    # suppressed, below-threshold pair.  The next order is a relative
    # correction of order 1/alpha^2, with coefficients of about -3 for
    # 1 - P+ and +1.8 for P- from alpha = 5 to 40.  A band of 4/alpha^2
    # around the law covers it, while a factor-of-two error fails at every
    # alpha.
    law = math.pi**2 / (16 * alpha**2)
    band = 4 / alpha**2
    ratios = ((1 - p_plus) / law, p_minus / law)
    passed = all(abs(r - 1) <= band for r in ratios)
    detail = (f"p_plus={p_plus:.6f}, p_minus={p_minus:.6f}, "
              f"deficit/law={ratios[0]:.3f}/{ratios[1]:.3f} (1 +- {band:.3f})")
    if law < 0.01:  # 0.99 / 0.01 is within reach only for alpha > pi/0.4 ~ 7.9
        passed = passed and p_plus >= 0.99 and p_minus <= 0.01
        detail += ", want p_plus >= 0.99, p_minus <= 0.01"
    if alpha == 5.0:  # the oracle's number basis grows as alpha^2
        oracle = end_to_end_oracle(params)
        dp = max(abs(p_plus - oracle.p_plus), abs(p_minus - oracle.p_minus))
        passed = passed and dp < 1e-6
        detail += f", max|dP| vs Fock oracle={dp:.2e} (< 1e-6)"
    line = report(4, f"null-phase certainty at alpha={alpha:g}", passed, detail)
    assert passed, line


def test_criterion_5_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    worst_dp = 0.0
    worst_dl = 0.0
    cases = 50
    for _ in range(cases):
        alpha = float(rng.uniform(0.4, 3.0))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        params = RealizationParams(alpha=alpha, theta=theta)
        oracle = end_to_end_oracle(params)
        p_plus, p_minus = measurement_probabilities(params)
        out = output_state(params)
        worst_dp = max(worst_dp, abs(p_plus - oracle.p_plus), abs(p_minus - oracle.p_minus))
        # the analytic leakage is 1 - w+ - w-, so only the oracle's can test it
        worst_dl = max(worst_dl, abs(out.leakage - oracle.leakage))
    elapsed = time.monotonic() - start
    passed = worst_dp < 1e-6 and worst_dl < 1e-6 and elapsed < 600.0
    line = report(5, f"oracle equivalence over {cases} random cases", passed,
                  f"max|dP|={worst_dp:.2e} (< 1e-6), max|dleakage|={worst_dl:.2e} (< 1e-6), "
                  f"{elapsed:.1f}s")
    assert passed, line


def test_criterion_6_parity_theorem():
    worst = 0.0
    for alpha in (1.0, 2.0, 3.0):
        lo = coherent_to_fock(-alpha / 2, 60)
        hi = coherent_to_fock(alpha / 2, 60)
        for sign in (+1, -1):
            norm = 1.0 / math.sqrt(2 + sign * 2 * math.exp(-(alpha**2) / 2))
            p_even, p_odd = parity_distribution((lo + sign * hi) * norm)
            worst = max(worst, p_odd if sign > 0 else p_even)
    passed = worst < 1e-10
    line = report(6, "displaced cats are parity eigenstates", passed,
                  f"worst wrong-parity mass={worst:.2e} (< 1e-10)")
    assert passed, line


def test_criterion_7_phase_gate_approximation(tmp_path):
    worst_excess = -math.inf
    for alpha in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0):
        for x in np.linspace(1e-4, 0.01, 20):  # x = theta^2 alpha^2 <= 0.01
            theta = math.sqrt(x) / alpha
            worst_excess = max(worst_excess, phase_gate_error(alpha, theta) - x)
    surface_code = main(["--out", str(tmp_path), "--quiet", "phase-error",
                         "--alpha", "1,2,5,10", "--theta-max", "0.01", "--theta-points", "26"])
    surface = (tmp_path / "phase_error.csv").read_text().splitlines()
    emitted = surface_code == 0 and surface[0] == "# schema=1" and len(surface) == 2 + 4 * 26
    passed = worst_excess <= 0.0 and emitted
    line = report(7, "phase-gate error within theta^2 alpha^2", passed,
                  f"max(error - bound)={worst_excess:.2e} (<= 0), surface rows={len(surface) - 2}")
    assert passed, line


def test_criterion_8_out_of_phase_fringes():
    start = time.monotonic()
    alpha = 10.0
    period = 2 * math.pi / alpha**2
    curve = fringe_scan(alpha, 0.0, 2 * period, 241)
    offset = offset_reference.phase_offset(curve)
    elapsed = time.monotonic() - start
    # antiphase (the "-" outcome heralds a bit flip), within 10% of period/4
    deviation = abs(offset - period / 2)
    passed = deviation <= 0.1 * (period / 4) and elapsed < 120.0
    line = report(8, "P+/P- antiphase cross-correlation offset", passed,
                  f"offset={offset:.4e} = {offset / period:.3f} periods "
                  f"(want 0.5 +- 0.025), {elapsed:.1f}s")
    assert passed, line

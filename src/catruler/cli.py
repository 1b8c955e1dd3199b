"""Command-line front end: parameter sweeps, scaling fits, SNR tables,
quantum-ruler numbers and oracle validation, emitted as CSV/JSON.

Exit codes: 0 success, 2 usage error (an unwritable --out included), 3
numerical failure.  Identical arguments and seed produce byte-identical
output files; numbers are serialized with 12 significant digits and a
dot decimal separator, and every CSV starts with a `# schema=1` line.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import warnings
from pathlib import Path

import numpy as np

from . import fock_oracle, physical_realization
from .coherent_algebra import MAX_AMPLITUDE, _require_alpha, beamsplitter, cat_norm_squared
from .errors import ApproximationRegimeWarning, CatRulerError
from .fock_oracle import ORACLE_MAX_ALPHA
from .ideal_circuit import _require_v_theta, phase_gate_error, snr_ideal
from .physical_realization import (
    RealizationParams,
    fringe_scan,
    fringe_scans,
    fringe_spacing_physical,
    scan_extracted_spacing,
)
from .squeezed_baseline import equal_power_params, snr_squeezed

SCHEMA_LINE = "# schema=1"
DEFAULT_POINTS = 801
AUTO_SPAN_PERIODS = 3.0
ORACLE_MIN_ALPHA = 0.4  # floor of the oracle cases' alpha draw
NUMBER_FORMAT = "{:.12g}"  # 12 significant digits, dot decimal separator


def _fmt(value: float) -> str:
    return NUMBER_FORMAT.format(value)


def _parse_float_list(text: str, name: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"could not parse {name} list {text!r}") from exc
    if not values:
        raise ValueError(f"{name} list is empty")
    return values


def _auto_span(alpha: float) -> tuple[float, float]:
    _require_alpha(alpha, "alpha values")
    period = 2.0 * math.pi / alpha**2
    return (-AUTO_SPAN_PERIODS * period, AUTO_SPAN_PERIODS * period)


def _parse_span(text: str, alpha: float) -> tuple[float, float]:
    if text == "auto":
        return _auto_span(alpha)
    try:
        lo, hi = (float(p) for p in text.split(":"))
    except ValueError as exc:
        raise ValueError(f"theta span must be 'auto' or 'min:max', got {text!r}") from exc
    return lo, hi


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _output_path(args, name: str) -> Path:
    """Path of an output file; the directory is created here, so call
    this only once every argument is validated and the results exist."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


def _write_csv(args, name: str, header: list[str], table, comments=()) -> None:
    """Write a table (rows x columns, array-like) as CSV.  The rows are
    formatted as lists of Python floats, which format in half the time of
    numpy scalars and give the same digits."""
    table = np.asarray(table, dtype=float)
    row_format = ",".join([NUMBER_FORMAT] * table.shape[1]).format
    lines = [SCHEMA_LINE]
    lines.extend(f"# {c}" for c in comments)
    lines.append(",".join(header))
    lines.extend(row_format(*row) for row in table.tolist())
    path = _output_path(args, name)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _say(args, f"wrote {path}")


def _write_report(args, name: str, report: dict) -> None:
    """Write a JSON report and echo it to stdout."""
    text = json.dumps(report, indent=2, sort_keys=True)
    path = _output_path(args, name)
    path.write_text(text + "\n", encoding="utf-8")
    _say(args, text)
    _say(args, f"wrote {path}")


# ---------------------------------------------------------------- fringe


def cmd_fringe(args) -> int:
    alphas = _parse_float_list(args.alpha, "alpha")
    spans = [_parse_span(args.theta_span, alpha) for alpha in alphas]
    curves = fringe_scans(alphas, spans, args.points)

    for alpha, curve in zip(alphas, curves):
        table = np.column_stack((
            curve.theta, curve.p_plus, curve.p_minus,
            curve.fringe, curve.fringe_complement, curve.leakage,
        ))
        _write_csv(
            args, f"fringe_alpha{_fmt(alpha)}.csv",
            ["theta", "p_plus", "p_minus", "fringe", "fringe_complement", "leakage"],
            table,
            comments=[f"alpha={_fmt(alpha)}"],
        )
    return 0


# ---------------------------------------------------------- width-scaling


def _loglog_slope(xs: list[float], ys: list[float]) -> float:
    """Ordinary least-squares slope of log y on log x, from centred sums;
    the x values must have distinct logs."""
    log_x = [math.log(x) for x in xs]
    log_y = [math.log(y) for y in ys]
    mean_x = sum(log_x) / len(log_x)
    mean_y = sum(log_y) / len(log_y)
    dx = [v - mean_x for v in log_x]
    return sum(d * (v - mean_y) for d, v in zip(dx, log_y)) / sum(d * d for d in dx)


def cmd_width_scaling(args) -> int:
    alphas = _parse_float_list(args.alpha, "alpha")
    # the report keys each width by its formatted alpha, so alphas that
    # format alike would merge into one entry
    seen: dict[str, float] = {}
    for alpha in alphas:
        key = _fmt(alpha)
        if key in seen:
            raise ValueError(
                f"width-scaling needs distinct alpha values at 12 significant digits: "
                f"{seen[key]!r} and {alpha!r} share the report key {key!r}"
            )
        seen[key] = alpha

    curves = fringe_scans(alphas, [_auto_span(alpha) for alpha in alphas], args.points)
    widths = {a: physical_realization.central_fringe_width(c) for a, c in zip(alphas, curves)}

    report = {
        "alphas": [float(a) for a in alphas],
        "n_points": args.points,
        "widths": {_fmt(a): w for a, w in widths.items()},
    }
    if len(alphas) >= 2:
        report["ratios"] = {
            f"{_fmt(a)}/{_fmt(b)}": widths[a] / widths[b]
            for a, b in zip(alphas, alphas[1:])
        }
        report["exponent"] = _loglog_slope(alphas, [widths[a] for a in alphas])

    _write_report(args, "width_scaling.json", report)
    return 0


# --------------------------------------------------------------------- snr


def cmd_snr(args) -> int:
    n_bars = _parse_float_list(args.n_bar, "n-bar")
    for n_bar in n_bars:
        if not (n_bar > 0 and math.isfinite(n_bar)):
            raise ValueError(f"--n-bar values must be positive and finite, got {n_bar!r}")
    v_theta = args.v_theta
    _require_v_theta(v_theta)
    rows = []
    for n_bar in n_bars:
        alpha = math.sqrt(2.0 * n_bar)
        try:
            ideal = snr_ideal(v_theta, alpha)
            squeezed = snr_squeezed(equal_power_params(n_bar, v_theta))
            # the physical realization consumes two cats per shot, so the fair
            # comparison hands the squeezed benchmark the doubled budget
            squeezed_doubled = snr_squeezed(equal_power_params(2.0 * n_bar, v_theta))
        except ValueError as err:  # it may name alpha, for which snr has no option
            raise ValueError(f"--n-bar {n_bar!r}: {err}") from err
        ratio = ideal / squeezed if squeezed > 0 else 0.0
        adjusted = ideal / squeezed_doubled if squeezed_doubled > 0 else 0.0
        rows.append((n_bar, ideal, squeezed, ratio, adjusted))

    _write_csv(args, "snr.csv",
               ["n_bar", "snr_ideal", "snr_squeezed", "ratio", "resource_adjusted_ratio"], rows,
               comments=[f"v_theta={_fmt(v_theta)}"])
    return 0


# ------------------------------------------------------------------- ruler


def cmd_ruler(args) -> int:
    alpha = args.alpha
    wavelength = args.wavelength

    analytic = fringe_spacing_physical(alpha, wavelength)
    lo, hi = _auto_span(alpha)
    curve = fringe_scan(alpha, lo, hi, args.points)
    measured = scan_extracted_spacing(curve, wavelength)
    report = {
        "alpha": alpha,
        "wavelength": wavelength,
        "half_wavelength": wavelength / 2.0,
        "analytic_spacing": analytic,
        "scan_spacing": measured,
        "relative_deviation": abs(measured - analytic) / analytic,
    }
    _write_report(args, "ruler.json", report)
    return 0


# ------------------------------------------------------------------ oracle


def _check(value: float, tolerance: float, at_least: bool = False) -> dict:
    """A check record: value below tolerance, or with at_least at or
    above 1 - tolerance."""
    passed = value >= 1 - tolerance if at_least else value < tolerance
    return {"value": float(value), "tolerance": tolerance, "pass": bool(passed)}


def _oracle_draws(seed: int, max_alpha: float, cases: int) -> list[tuple[float, float]]:
    """The oracle's (alpha, theta) cases from random.Random(seed), not numpy.random."""
    uniform = random.Random(seed).uniform
    return [(uniform(ORACLE_MIN_ALPHA, max_alpha), uniform(0.0, 2.0 * math.pi)) for _ in range(cases)]


def _oracle_checks(max_alpha: float, cases: int, seed: int, inject_bug: bool) -> dict:
    checks: dict[str, dict] = {}

    # beamsplitter against the coherent-amplitude prediction
    g, b, angle, n = 1.5, 1.0, 0.3, 50
    state = np.outer(fock_oracle.coherent_to_fock(g, n), fock_oracle.coherent_to_fock(b, n))
    mixed = fock_oracle.beamsplitter_fock(state, angle)
    predicted = np.outer(*(fock_oracle.coherent_to_fock(a, n) for a in beamsplitter(g, b, angle)))
    fidelity = abs(np.vdot(predicted, mixed)) ** 2
    checks["beamsplitter_fidelity"] = _check(fidelity, 1e-8, at_least=True)

    # parity of displaced cats
    worst_parity = 0.0
    for alpha in (1.0, 2.0, 3.0):
        lo_amp = fock_oracle.coherent_to_fock(-alpha / 2.0, 60)
        hi_amp = fock_oracle.coherent_to_fock(alpha / 2.0, 60)
        for sign in (+1, -1):
            norm = 1.0 / math.sqrt(cat_norm_squared(alpha, sign))
            p_even, p_odd = fock_oracle.parity_distribution((lo_amp + sign * hi_amp) * norm)
            worst_parity = max(worst_parity, p_odd if sign > 0 else p_even)
    checks["parity_theorem"] = _check(worst_parity, 1e-10)

    # randomized end-to-end agreement with the analytic pipeline: the
    # oracle side one call over all the cases, the analytic side one scan
    # kernel evaluation; small alpha deliberately violates the weak-mixing
    # regime, so silence the advisory warning for these exactness checks
    draws = _oracle_draws(seed, max_alpha, cases)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ApproximationRegimeWarning)
        oracles = fock_oracle._end_to_end_oracles([RealizationParams(*draw) for draw in draws])
    alphas, thetas = np.array(draws).T
    batch = physical_realization._conditional_batch(alphas, thetas)
    conditional = batch.conditional
    if inject_bug:
        conditional[0, 0] += 1e-4
    worst_dp = np.abs(conditional - [(o.p_plus, o.p_minus) for o in oracles]).max()
    worst_dl = np.abs(batch.leakage - [o.leakage for o in oracles]).max()
    worst_norm = np.abs(batch.norm - 1.0).max()
    checks["probability_agreement"] = _check(worst_dp, 1e-6)
    checks["leakage_agreement"] = _check(worst_dl, 1e-6)
    # outcome weights plus leakage sum to 1 by construction; what can fail
    # is the two-mode norm they are taken from
    checks["weight_closure"] = _check(worst_norm, 1e-9)
    return checks


def cmd_oracle(args) -> int:
    if args.cases <= 0:
        raise ValueError("--cases must be positive")
    if not ORACLE_MIN_ALPHA < args.max_alpha <= ORACLE_MAX_ALPHA:
        raise ValueError(
            f"--max-alpha must lie in ({ORACLE_MIN_ALPHA}, {ORACLE_MAX_ALPHA:g}]: the cases' "
            f"alpha draw starts at {ORACLE_MIN_ALPHA}, and the number-basis grid grows as "
            f"alpha^4; got {args.max_alpha!r}"
        )
    # random.Random would draw the cases of the seed's absolute value
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed!r}")

    checks = _oracle_checks(args.max_alpha, args.cases, args.seed, args.inject_bug)
    all_pass = all(c["pass"] for c in checks.values())
    report = {
        "cases": args.cases,
        "max_alpha": args.max_alpha,
        "seed": args.seed,
        "checks": checks,
        "all_pass": all_pass,
    }
    _write_report(args, "oracle_report.json", report)
    if not all_pass:
        print("oracle validation failed", file=sys.stderr)
        return 3
    return 0


# ------------------------------------------------------------- phase-error


def cmd_phase_error(args) -> int:
    alphas = _parse_float_list(args.alpha, "alpha")
    if not (args.theta_max > 0 and math.isfinite(args.theta_max)):
        raise ValueError("--theta-max must be positive and finite")
    # the theta_sq_alpha_sq column theta^2 alpha^2 needs both theta and
    # theta alpha to have finite squares
    if not max(args.theta_max, args.theta_max * max(alphas)) <= MAX_AMPLITUDE:
        raise ValueError(
            f"(--theta-max * alpha)^2 must be finite, got --theta-max {args.theta_max!r} "
            f"with alpha {max(alphas)!r}"
        )
    if args.theta_points < 2:
        raise ValueError("--theta-points must be at least 2")

    thetas = np.linspace(0.0, args.theta_max, args.theta_points)
    blocks = []
    for alpha in alphas:
        errors = phase_gate_error(alpha, thetas)  # checks alpha before alpha**2 below
        blocks.append(np.column_stack(
            (thetas, np.full(thetas.size, alpha), errors, thetas**2 * alpha**2)
        ))
    _write_csv(args, "phase_error.csv",
               ["theta", "alpha", "error", "theta_sq_alpha_sq"], np.concatenate(blocks))
    return 0


# -------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catruler",
        description="Cat-state interferometer sweeps, SNR tables and oracle validation.",
    )
    parser.add_argument("--out", default=".", help="output directory (default: current)")
    parser.add_argument("--seed", type=int, default=0, help="random.Random seed of the oracle cases (default 0)")
    parser.add_argument("--quiet", action="store_true", help="suppress informational output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fringe", help="fringe scans to CSV, one file per alpha")
    p.add_argument("--alpha", required=True, help="comma-separated cat amplitudes")
    p.add_argument("--theta-span", default="auto",
                   help="'auto' (±3 fringe periods, the default) or 'min:max' in radians")
    p.add_argument("--points", type=int, default=DEFAULT_POINTS, help="samples per scan (default 801)")
    p.set_defaults(func=cmd_fringe)

    p = sub.add_parser("width-scaling", help="central fringe width vs alpha, JSON report")
    p.add_argument("--alpha", required=True, help="comma-separated cat amplitudes")
    p.add_argument("--points", type=int, default=DEFAULT_POINTS, help="samples per scan (default 801)")
    p.set_defaults(func=cmd_width_scaling)

    p = sub.add_parser("snr", help="ideal vs squeezed-benchmark SNR table")
    p.add_argument("--n-bar", required=True, help="comma-separated photon numbers")
    p.add_argument("--v-theta", type=float, required=True, help="phase fluctuation power (rad^2)")
    p.set_defaults(func=cmd_snr)

    p = sub.add_parser("ruler", help="quantum-ruler fringe spacing, JSON report")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--wavelength", type=float, required=True, help="wavelength in meters")
    p.add_argument("--points", type=int, default=1201, help="samples in the scan (default 1201)")
    p.set_defaults(func=cmd_ruler)

    p = sub.add_parser("oracle", help="validate the analytic pipeline against the Fock oracle")
    p.add_argument("--max-alpha", type=float, default=3.0,
                   help=f"cases draw alpha from [{ORACLE_MIN_ALPHA}, max-alpha) (default 3)")
    p.add_argument("--cases", type=int, default=50)
    p.add_argument("--inject-bug", action="store_true",
                   help="test-only: perturb one compared value to prove failures are caught")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("phase-error", help="phase-gate approximation error over a theta x alpha grid")
    p.add_argument("--alpha", required=True, help="comma-separated amplitudes")
    p.add_argument("--theta-max", type=float, default=0.01)
    p.add_argument("--theta-points", type=int, default=26)
    p.set_defaults(func=cmd_phase_error)

    return parser


# built once: argparse returns a fresh namespace from every parse
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return 0 if exc.code in (0, None) else 2

    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # an OSError names the --out path it failed on
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except CatRulerError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

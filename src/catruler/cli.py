"""Command-line front end: parameter sweeps, scaling fits, SNR tables,
quantum-ruler numbers and oracle validation, emitted as CSV/JSON.

Exit codes: 0 success, 2 usage or configuration error, 3 numerical
failure.  Identical configuration and seed produce byte-identical output
files; numbers are serialized with 12 significant digits and a dot
decimal separator, and every CSV starts with a `# schema=1` line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import fock_oracle, physical_realization
from .errors import CatRulerError
from .ideal_circuit import phase_gate_error, snr_ideal
from .physical_realization import (
    NORMALIZATION_MODES,
    RealizationParams,
    fringe_scan,
    fringe_spacing_physical,
    scan_extracted_spacing,
)
from .squeezed_baseline import equal_power_params, snr_squeezed

SCHEMA_LINE = "# schema=1"
DEFAULT_POINTS = 801
AUTO_SPAN_PERIODS = 3.0


def _fmt(value: float) -> str:
    return f"{value:.12g}"


@dataclass
class SweepConfig:
    """Sweep defaults; a JSON config file mirrors these field names."""

    alphas: list[float] | None = None
    theta_span: object = "auto"  # "auto" or [min, max]
    n_points: int | None = None
    normalization_mode: str | None = None
    output_path: str | None = None
    seed: int | None = None

    @classmethod
    def from_file(cls, path: Path) -> "SweepConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(raw) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**raw)
        if cfg.alphas is not None:
            cfg.alphas = [float(a) for a in cfg.alphas]
        if cfg.normalization_mode is not None and cfg.normalization_mode not in NORMALIZATION_MODES:
            raise ValueError(f"normalization_mode must be one of {NORMALIZATION_MODES}")
        return cfg


def _parse_float_list(text: str, name: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"could not parse {name} list {text!r}") from exc
    if not values:
        raise ValueError(f"{name} list is empty")
    return values


def _require_alphas(alphas: list[float] | None) -> list[float]:
    """The cat amplitudes of a scan command: at least one, each positive and finite."""
    if not alphas:
        raise ValueError("no alpha values given (use --alpha or a config file)")
    for alpha in alphas:
        if not (alpha > 0 and math.isfinite(alpha)):
            raise ValueError(f"alpha values must be positive and finite, got {alpha!r}")
    return alphas


def _auto_span(alpha: float) -> tuple[float, float]:
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


def _write_csv(path: Path, header: list[str], rows, comments=()) -> None:
    lines = [SCHEMA_LINE]
    lines.extend(f"# {c}" for c in comments)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


# ---------------------------------------------------------------- fringe


def cmd_fringe(args, config: SweepConfig) -> int:
    alphas = _require_alphas(
        _parse_float_list(args.alpha, "alpha") if args.alpha else config.alphas
    )
    n_points = args.points or config.n_points or DEFAULT_POINTS
    mode = args.normalization or config.normalization_mode or "conditional"
    out_dir = Path(args.out or config.output_path or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    span_text = args.theta_span or (
        config.theta_span if isinstance(config.theta_span, str)
        else ":".join(str(v) for v in config.theta_span)
    )

    for alpha in alphas:
        lo, hi = _parse_span(span_text, alpha)
        curve = fringe_scan(alpha, lo, hi, n_points, mode=mode)
        rows = zip(
            curve.theta, curve.p_plus, curve.p_minus,
            curve.fringe, curve.fringe_complement, curve.leakage,
        )
        path = out_dir / f"fringe_alpha{_fmt(alpha)}.csv"
        _write_csv(
            path,
            ["theta", "p_plus", "p_minus", "fringe", "fringe_complement", "leakage"],
            rows,
            comments=[f"alpha={_fmt(alpha)}", f"normalization={mode}"],
        )
        _say(args, f"wrote {path}")
    return 0


# ---------------------------------------------------------- width-scaling


def cmd_width_scaling(args, config: SweepConfig) -> int:
    alphas = _require_alphas(
        _parse_float_list(args.alpha, "alpha") if args.alpha else config.alphas
    )
    n_points = args.points or config.n_points or DEFAULT_POINTS
    mode = args.normalization or config.normalization_mode or "conditional"
    out_dir = Path(args.out or config.output_path or ".")
    out_dir.mkdir(parents=True, exist_ok=True)

    widths = {}
    for alpha in alphas:
        lo, hi = _auto_span(alpha)
        curve = fringe_scan(alpha, lo, hi, n_points, mode=mode)
        widths[alpha] = physical_realization.central_fringe_width(curve)

    report = {
        "alphas": [float(a) for a in alphas],
        "n_points": n_points,
        "normalization": mode,
        "widths": {_fmt(a): w for a, w in widths.items()},
    }
    if len(alphas) >= 2:
        report["ratios"] = {
            f"{_fmt(a)}/{_fmt(b)}": widths[a] / widths[b]
            for a, b in zip(alphas, alphas[1:])
        }
        slope = np.polyfit(np.log(np.array(alphas)), np.log(np.array([widths[a] for a in alphas])), 1)
        report["exponent"] = float(slope[0])

    path = out_dir / "width_scaling.json"
    _write_json(path, report)
    _say(args, json.dumps(report, indent=2, sort_keys=True))
    _say(args, f"wrote {path}")
    return 0


# --------------------------------------------------------------------- snr


class SnrRow(NamedTuple):
    """Paired ideal-circuit and squeezed-benchmark figures at one photon budget."""

    n_bar: float
    snr_ideal: float
    snr_squeezed: float
    ratio: float
    resource_adjusted_ratio: float


def cmd_snr(args, config: SweepConfig) -> int:
    n_bars = _parse_float_list(args.n_bar, "n-bar")
    v_theta = args.v_theta
    if v_theta < 0:
        raise ValueError("v-theta must be nonnegative")
    out_dir = Path(args.out or config.output_path or ".")
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    for n_bar in n_bars:
        alpha = math.sqrt(2.0 * n_bar)
        ideal = snr_ideal(v_theta, alpha)
        squeezed = snr_squeezed(equal_power_params(n_bar, v_theta))
        # the physical realization consumes two cats per shot, so the fair
        # comparison hands the squeezed benchmark the doubled budget
        squeezed_doubled = snr_squeezed(equal_power_params(2.0 * n_bar, v_theta))
        ratio = ideal / squeezed if squeezed > 0 else 0.0
        adjusted = ideal / squeezed_doubled if squeezed_doubled > 0 else 0.0
        rows.append(SnrRow(n_bar, ideal, squeezed, ratio, adjusted))

    path = out_dir / "snr.csv"
    _write_csv(
        path,
        list(SnrRow._fields),
        rows,
        comments=[f"v_theta={_fmt(v_theta)}"],
    )
    _say(args, f"wrote {path}")
    return 0


# ------------------------------------------------------------------- ruler


def cmd_ruler(args, config: SweepConfig) -> int:
    (alpha,) = _require_alphas([args.alpha])
    wavelength = args.wavelength
    if not (wavelength > 0 and math.isfinite(wavelength)):
        raise ValueError("wavelength must be positive and finite")
    n_points = args.points or config.n_points or 1201
    mode = args.normalization or config.normalization_mode or "conditional"
    out_dir = Path(args.out or config.output_path or ".")
    out_dir.mkdir(parents=True, exist_ok=True)

    analytic = fringe_spacing_physical(alpha, wavelength)
    lo, hi = _auto_span(alpha)
    curve = fringe_scan(alpha, lo, hi, n_points, mode=mode)
    measured = scan_extracted_spacing(curve, wavelength)
    report = {
        "alpha": alpha,
        "wavelength": wavelength,
        "half_wavelength": wavelength / 2.0,
        "analytic_spacing": analytic,
        "scan_spacing": measured,
        "relative_deviation": abs(measured - analytic) / analytic,
    }
    path = out_dir / "ruler.json"
    _write_json(path, report)
    _say(args, json.dumps(report, indent=2, sort_keys=True))
    _say(args, f"wrote {path}")
    return 0


# ------------------------------------------------------------------ oracle


def _oracle_checks(max_alpha: float, cases: int, cap: int, seed: int, inject_bug: bool) -> dict:
    import warnings

    from .errors import ApproximationRegimeWarning

    rng = np.random.default_rng(seed)
    checks: dict[str, dict] = {}

    # beamsplitter against the coherent-amplitude prediction
    g, b, angle, n = 1.5, 1.0, 0.3, 50
    state = fock_oracle.two_mode_product(
        fock_oracle.coherent_to_fock(g, n), fock_oracle.coherent_to_fock(b, n)
    )
    mixed = fock_oracle.beamsplitter_fock(state, angle)
    predicted = fock_oracle.two_mode_product(
        fock_oracle.coherent_to_fock(math.cos(angle) * g + 1j * math.sin(angle) * b, n),
        fock_oracle.coherent_to_fock(math.cos(angle) * b + 1j * math.sin(angle) * g, n),
    )
    fidelity = abs(np.vdot(predicted.coefficients, mixed.coefficients)) ** 2
    checks["beamsplitter_fidelity"] = {
        "value": float(fidelity), "tolerance": 1e-8, "pass": bool(fidelity >= 1 - 1e-8),
    }

    # parity of displaced cats
    worst_parity = 0.0
    for alpha in (1.0, 2.0, 3.0):
        for sign in (+1, -1):
            norm = 1.0 / math.sqrt(2.0 + sign * 2.0 * math.exp(-(alpha**2) / 2.0))
            lo_amp = fock_oracle.coherent_to_fock(-alpha / 2.0, 60)
            hi_amp = fock_oracle.coherent_to_fock(alpha / 2.0, 60)
            vec = fock_oracle.FockVector(
                (lo_amp.coefficients + sign * hi_amp.coefficients) * norm, 60
            )
            p_even, p_odd = fock_oracle.parity_distribution(vec)
            worst_parity = max(worst_parity, p_odd if sign > 0 else p_even)
    checks["parity_theorem"] = {
        "value": worst_parity, "tolerance": 1e-10, "pass": bool(worst_parity < 1e-10),
    }

    # randomized end-to-end agreement with the analytic pipeline; small
    # alpha deliberately violates the weak-mixing regime, so silence the
    # advisory warning for these exactness checks
    worst_dp = 0.0
    worst_dl = 0.0
    worst_closure = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ApproximationRegimeWarning)
        for index in range(cases):
            alpha = float(rng.uniform(0.4, max_alpha))
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            params = RealizationParams(alpha=alpha, theta=theta)
            reach = alpha * (math.cos(params.phi) + math.sin(params.phi))
            truncation = min(cap, fock_oracle.default_truncation(reach))
            oracle = fock_oracle.end_to_end_oracle(params, truncation)
            p_plus, p_minus = physical_realization.measurement_probabilities(params, method="erf")
            if inject_bug and index == 0:
                p_plus += 1e-4
            out = physical_realization.output_state(params)
            worst_dp = max(worst_dp, abs(p_plus - oracle.p_plus), abs(p_minus - oracle.p_minus))
            worst_dl = max(worst_dl, abs(out.leakage - oracle.leakage))
            worst_closure = max(
                worst_closure, abs(out.plus_weight + out.minus_weight + out.leakage - 1.0)
            )
    checks["probability_agreement"] = {
        "value": worst_dp, "tolerance": 1e-6, "pass": bool(worst_dp < 1e-6),
    }
    checks["leakage_agreement"] = {
        "value": worst_dl, "tolerance": 1e-6, "pass": bool(worst_dl < 1e-6),
    }
    checks["weight_closure"] = {
        "value": worst_closure, "tolerance": 1e-9, "pass": bool(worst_closure < 1e-9),
    }
    return checks


def cmd_oracle(args, config: SweepConfig) -> int:
    if args.cases <= 0:
        raise ValueError("--cases must be positive")
    seed = args.seed if args.seed is not None else (config.seed or 0)
    out_dir = Path(args.out or config.output_path or ".")
    out_dir.mkdir(parents=True, exist_ok=True)

    checks = _oracle_checks(args.max_alpha, args.cases, args.truncation, seed, args.inject_bug)
    all_pass = all(c["pass"] for c in checks.values())
    report = {
        "cases": args.cases,
        "max_alpha": args.max_alpha,
        "truncation_cap": args.truncation,
        "seed": seed,
        "checks": checks,
        "all_pass": all_pass,
    }
    path = out_dir / "oracle_report.json"
    _write_json(path, report)
    _say(args, json.dumps(report, indent=2, sort_keys=True))
    _say(args, f"wrote {path}")
    if not all_pass:
        print("oracle validation failed", file=sys.stderr)
        return 3
    return 0


# ------------------------------------------------------------- phase-error


def cmd_phase_error(args, config: SweepConfig) -> int:
    alphas = _parse_float_list(args.alpha, "alpha")
    if args.theta_max <= 0:
        raise ValueError("--theta-max must be positive")
    if args.theta_points < 2:
        raise ValueError("--theta-points must be at least 2")
    out_dir = Path(args.out or config.output_path or ".")
    out_dir.mkdir(parents=True, exist_ok=True)

    thetas = np.linspace(0.0, args.theta_max, args.theta_points)
    rows = []
    for alpha in alphas:
        for theta in thetas:
            rows.append(
                (theta, alpha, phase_gate_error(alpha, theta), theta**2 * alpha**2)
            )
    path = out_dir / "phase_error.csv"
    _write_csv(
        path,
        ["theta", "alpha", "error", "theta_sq_alpha_sq"],
        rows,
    )
    _say(args, f"wrote {path}")
    return 0


# -------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catruler",
        description="Cat-state interferometer sweeps, SNR tables and oracle validation.",
    )
    parser.add_argument("--out", default=None, help="output directory (default: current)")
    parser.add_argument("--seed", type=int, default=None, help="seed for randomized commands")
    parser.add_argument(
        "--normalization", choices=NORMALIZATION_MODES, default=None,
        help="probability normalization for scans (default: conditional)",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress informational output")
    parser.add_argument("--config", type=Path, default=None, help="JSON sweep config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fringe", help="fringe scans to CSV, one file per alpha")
    p.add_argument("--alpha", default=None, help="comma-separated cat amplitudes")
    p.add_argument("--theta-span", default=None,
                   help="'auto' (±3 fringe periods) or 'min:max' in radians")
    p.add_argument("--points", type=int, default=None, help="samples per scan (default 801)")
    p.set_defaults(func=cmd_fringe)

    p = sub.add_parser("width-scaling", help="central fringe width vs alpha, JSON report")
    p.add_argument("--alpha", default=None, help="comma-separated cat amplitudes")
    p.add_argument("--points", type=int, default=None)
    p.set_defaults(func=cmd_width_scaling)

    p = sub.add_parser("snr", help="ideal vs squeezed-benchmark SNR table")
    p.add_argument("--n-bar", required=True, help="comma-separated photon numbers")
    p.add_argument("--v-theta", type=float, required=True, help="phase fluctuation power (rad^2)")
    p.set_defaults(func=cmd_snr)

    p = sub.add_parser("ruler", help="quantum-ruler fringe spacing, JSON report")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--wavelength", type=float, required=True, help="wavelength in meters")
    p.add_argument("--points", type=int, default=None)
    p.set_defaults(func=cmd_ruler)

    p = sub.add_parser("oracle", help="validate the analytic pipeline against the Fock oracle")
    p.add_argument("--max-alpha", type=float, default=3.0)
    p.add_argument("--cases", type=int, default=50)
    p.add_argument("--truncation", type=int, default=120, help="per-mode truncation cap")
    p.add_argument("--inject-bug", action="store_true",
                   help="test-only: perturb one compared value to prove failures are caught")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("phase-error", help="phase-gate approximation error over a theta x alpha grid")
    p.add_argument("--alpha", required=True, help="comma-separated amplitudes")
    p.add_argument("--theta-max", type=float, default=0.01)
    p.add_argument("--theta-points", type=int, default=26)
    p.set_defaults(func=cmd_phase_error)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return 0 if exc.code in (0, None) else 2

    try:
        config = SweepConfig.from_file(args.config) if args.config else SweepConfig()
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        return args.func(args, config)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except CatRulerError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""The three benchmark workloads: their inputs, their operation and the
checks made on every result.

Each workload repeats one *operation* in whole *rounds*: `op(i)` is the
timed call, `check(i, result)` runs after it, outside the timing, and
`finish()` makes the run-level checks once the timed loop has ended and
returns how many operations failed.  The checks are made apart from the
program: they recompute what they can (mpmath, the closed-form tick
spacing, the gate-error law) and otherwise test properties the program
documents (CSV identities, byte-identical repeats).  They never compare
against a stored copy of earlier output.

Every call into the package goes through its module namespace at call
time (`cli.main`, `coherent_algebra.threshold_probability`), so the
traced run sees it.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from catruler import cli, coherent_algebra, fock_oracle, physical_realization

# Tolerance of the two threshold evaluation paths, restated here so that a
# change of the package constant cannot loosen the check.
DUAL_PATH_TOLERANCE = 1e-8
# Digits carried by the mpmath reference.
REFERENCE_DPS = 40
# Twelve significant digits per CSV value; sums of three printed values
# carry at most a few units of 1e-12.
PRINT_TOLERANCE = 2e-11


def _fmt(value: float) -> str:
    """Number format of the CLI's file names and report keys."""
    return f"{value:.12g}"


class Workload:
    """One named workload; subclasses set `name` and `round_size`."""

    name = ""
    round_size = 1

    def __init__(self, seed: int, out_root: Path):
        self.seed = seed
        self.out_root = out_root
        self.bytes_written = 0  # CLI output bytes over all checked ops

    def warm_up(self) -> None:
        """One untimed round; nothing it returns is checked."""
        for i in range(self.round_size):
            self.op(-1 - i)

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> bool:
        raise NotImplementedError

    def finish(self) -> tuple[int, bool]:
        """(number of failed operations, run-level checks passed)."""
        raise NotImplementedError

    def close(self) -> None:
        """Remove what the operations wrote."""


def _tree_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


class _CliWorkload(Workload):
    """A workload whose operation runs CLI commands into a fresh directory."""

    def __init__(self, seed: int, out_root: Path):
        super().__init__(seed, out_root)
        self.work_dir = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=out_root))
        self.devnull = open(os.devnull, "w", encoding="utf-8")
        self.first_files: dict[str, bytes] | None = None
        self.failed = 0

    def commands(self, out_dir: Path) -> list[list[str]]:
        raise NotImplementedError

    def warm_up(self) -> None:
        super().warm_up()
        for i in range(self.round_size):
            shutil.rmtree(self.work_dir / f"op{-1 - i}", ignore_errors=True)

    def op(self, i: int) -> list[int]:
        out_dir = self.work_dir / f"op{i}"
        # the commands print their reports; a user sees them, the result
        # line of the benchmark must not
        with contextlib.redirect_stdout(self.devnull):
            return [cli.main(argv) for argv in self.commands(out_dir)]

    def check(self, i: int, result) -> bool:
        out_dir = self.work_dir / f"op{i}"
        ok = isinstance(result, list) and all(code == 0 for code in result) and out_dir.is_dir()
        if ok:
            files = _tree_bytes(out_dir)
            self.bytes_written += sum(len(b) for b in files.values())
            if self.first_files is None:
                self.first_files = files
            # identical arguments and seed give byte-identical files
            ok = files == self.first_files and self.check_files(files)
        if out_dir.is_dir():
            shutil.rmtree(out_dir)
        self.failed += not ok
        return ok

    def check_files(self, files: dict[str, bytes]) -> bool:
        raise NotImplementedError

    def close(self) -> None:
        self.devnull.close()
        shutil.rmtree(self.work_dir, ignore_errors=True)


# ------------------------------------------------------------------ scan


SCAN_ALPHAS = (5.0, 10.0, 20.0)
RULER_ALPHA = 20.0
WAVELENGTH = 1e-6
FRINGE_COLUMNS = ["theta", "p_plus", "p_minus", "fringe", "fringe_complement", "leakage"]
# alpha = 5 rows compared with the Fock oracle at the end of a run
ORACLE_ROWS = 3


def parse_csv(text: str) -> tuple[list[str], list[str], np.ndarray]:
    """(comment lines, header, rows) of a catruler CSV."""
    comments, header, rows = [], None, []
    for line in text.splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return comments, header or [], np.array(rows, dtype=float)


def check_fringe_csv(text: str, alpha: float, n_points: int) -> bool:
    """Identities and ranges every fringe CSV must satisfy."""
    comments, header, rows = parse_csv(text)
    if comments[:1] != ["# schema=1"] or header != FRINGE_COLUMNS:
        return False
    if rows.shape != (n_points, len(FRINGE_COLUMNS)) or not np.all(np.isfinite(rows)):
        return False
    theta, p_plus, p_minus, fringe, complement, leakage = rows.T
    period = 2.0 * math.pi / alpha**2
    expected_theta = np.linspace(-3.0 * period, 3.0 * period, n_points)
    if not np.allclose(theta, expected_theta, rtol=0.0, atol=1e-11 * period):
        return False
    probabilities = rows[:, 1:]
    if probabilities.min() < 0.0 or probabilities.max() > 1.0:
        return False
    if np.max(np.abs(fringe - (p_minus - p_plus + 1.0) / 2.0)) > PRINT_TOLERANCE:
        return False
    if np.max(np.abs(complement - (1.0 - fringe))) > PRINT_TOLERANCE:
        return False
    # null phase: both deficits follow the gate-error law pi^2/(16 alpha^2)
    # within a relative band of 4/alpha^2
    null = int(np.argmin(np.abs(theta)))
    if abs(theta[null]) > 1e-12:
        return False
    law = math.pi**2 / (16.0 * alpha**2)
    band = 4.0 / alpha**2
    return all(
        abs(deficit / law - 1.0) <= band for deficit in (1.0 - p_plus[null], p_minus[null])
    )


def check_width_report(report: dict) -> bool:
    widths = [report["widths"][_fmt(a)] for a in SCAN_ALPHAS]
    if not all(math.isfinite(w) and w > 0 for w in widths):
        return False
    pairs = list(zip(SCAN_ALPHAS, widths))
    for (a, wa), (b, wb) in zip(pairs, pairs[1:]):
        ratio = report["ratios"][f"{_fmt(a)}/{_fmt(b)}"]
        # the width scales as 1/alpha^2, so doubling alpha quarters it
        if not (3.6 <= ratio <= 4.4 and abs(ratio - wa / wb) <= 1e-12 * ratio):
            return False
    return True


def check_ruler_report(report: dict) -> bool:
    analytic = WAVELENGTH / (2.0 * RULER_ALPHA**2)
    return (
        abs(report["analytic_spacing"] - analytic) <= 1e-12 * analytic
        and abs(report["scan_spacing"] - analytic) <= 0.05 * analytic
    )


class ScanWorkload(_CliWorkload):
    """The README's three scan commands, in-process, on the default path."""

    name = "scan"
    n_points = 25

    def commands(self, out_dir: Path) -> list[list[str]]:
        alphas = ",".join(_fmt(a) for a in SCAN_ALPHAS)
        common = ["--out", str(out_dir), "--seed", str(self.seed)]
        points = ["--points", str(self.n_points)]
        return [
            common + ["fringe", "--alpha", alphas, "--theta-span", "auto"] + points,
            common + ["width-scaling", "--alpha", alphas] + points,
            common + ["ruler", "--alpha", _fmt(RULER_ALPHA),
                      "--wavelength", repr(WAVELENGTH)] + points,
        ]

    def check_files(self, files: dict[str, bytes]) -> bool:
        try:
            return (
                all(
                    check_fringe_csv(files[f"fringe_alpha{_fmt(a)}.csv"].decode(), a,
                                     self.n_points)
                    for a in SCAN_ALPHAS
                )
                and check_width_report(json.loads(files["width_scaling.json"]))
                and check_ruler_report(json.loads(files["ruler.json"]))
            )
        except (KeyError, ValueError, IndexError):
            return False

    def finish(self) -> tuple[int, bool]:
        """A few alpha = 5 rows, chosen by the seed, must match the
        number-basis oracle to 1e-6."""
        if self.first_files is None:
            return self.failed, True
        _, _, rows = parse_csv(self.first_files["fringe_alpha5.csv"].decode())
        picks = np.random.default_rng(self.seed).choice(len(rows), ORACLE_ROWS, replace=False)
        for k in sorted(picks):
            theta, p_plus, p_minus, _, _, leakage = rows[k]
            oracle = fock_oracle.end_to_end_oracle(
                physical_realization.RealizationParams(alpha=5.0, theta=float(theta))
            )
            if max(abs(p_plus - oracle.p_plus), abs(p_minus - oracle.p_minus),
                   abs(leakage - oracle.leakage)) > 1e-6:
                return self.failed, False
        return self.failed, True


# ---------------------------------------------------------------- oracle


class OracleWorkload(_CliWorkload):
    """`oracle --cases K --max-alpha 3`, cases drawn from the run's seed."""

    name = "oracle"
    cases = 20
    inject_bug = False

    def commands(self, out_dir: Path) -> list[list[str]]:
        argv = ["--out", str(out_dir), "--seed", str(self.seed),
                "oracle", "--cases", str(self.cases), "--max-alpha", "3"]
        return [argv + ["--inject-bug"]] if self.inject_bug else [argv]

    def check_files(self, files: dict[str, bytes]) -> bool:
        try:
            report = json.loads(files["oracle_report.json"])
            if not (report["all_pass"] is True and report["seed"] == self.seed
                    and report["cases"] == self.cases):
                return False
            for name, entry in report["checks"].items():
                value, tol = entry["value"], entry["tolerance"]
                within = value >= 1.0 - tol if name == "beamsplitter_fidelity" else value < tol
                if not (entry["pass"] is True and math.isfinite(value) and within):
                    return False
            return bool(report["checks"])
        except (KeyError, ValueError, TypeError):
            return False

    def finish(self) -> tuple[int, bool]:
        return self.failed, True


# ------------------------------------------------------------- threshold


# Seeded members keep every pairwise imaginary separation at or below this,
# so none of them reaches the range where `_threshold_kernel_erf`
# multiplies an underflowed overlap by an overflowed erf.
SEEDED_MAX_SEPARATION = 25.0
SEEDED_MEMBERS = 48
# Wide members: fixed inputs, imaginary separations from 40 to 100.  Each
# returns NaN today; they do not depend on the seed, so the failed share
# is the same in every run.
WIDE_MEMBERS = (
    ((1.0, 1.0), (20j, -20j), 0.3),
    ((1.0, 0.5 - 0.5j), (0.5 + 25j, -0.3 - 25j), 0.0),
    ((1.0, 1j, 0.7), (30j, -30j, 0.5 + 0j), 0.2),
    ((0.6, -0.8, 0.5, 0.3j), (1 + 40j, -1 - 40j, 0.2 + 10j, -0.4 - 5j), 0.5),
    ((1.0, -1.0), (50j, -50j), -0.4),
    ((0.3, 0.9j, -0.4, 0.2, 0.5), (-2 + 22j, 2 - 22j, 1j, -1.5 + 3j, 0.5 - 8j), -1.0),
    ((1.0, 0.2, -0.6j), (1.5 + 45j, 1.5 - 5j, -1 - 12j), 1.2),
    ((0.4, 0.4, 0.4, 0.4, 0.4, 0.4j), (35j, -35j, 2 + 20j, -2 - 20j, 1 + 0j, -1 + 0j), 0.1),
)


def seeded_member(rng: np.random.Generator) -> tuple[tuple, tuple, float]:
    """(coefficients, amplitudes, threshold) of one 2-6-term superposition."""
    n = int(rng.integers(2, 7))
    separation = rng.uniform(0.0, SEEDED_MAX_SEPARATION)
    re = rng.uniform(-3.0, 3.0, n)
    im = rng.uniform(-separation / 2.0, separation / 2.0, n)
    coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
    threshold = rng.uniform(re.min() - 1.0, re.max() + 1.0)
    return tuple(complex(c) for c in coeffs), tuple(complex(g) for g in re + 1j * im), threshold


def reference_threshold_probability(coeffs, amps, threshold: float) -> float:
    """sum_kl conj(c_k) c_l <g_k|g_l> (1 + erf(z_kl))/2 in mpmath, with
    z_kl = sqrt(2) (T - (conj(g_k) + g_l)/2): the documented closed form
    of int_{-inf}^{T} |sum_k c_k psi_{g_k}(x)|^2 dx in canonical units."""
    import mpmath  # imported here so that it stays out of the measured set-up

    with mpmath.workdps(REFERENCE_DPS):
        cs = [mpmath.mpc(c) for c in coeffs]
        gs = [mpmath.mpc(g) for g in amps]
        t = mpmath.mpf(threshold)
        total = mpmath.mpc(0)
        for ck, gk in zip(cs, gs):
            for cl, gl in zip(cs, gs):
                ov = mpmath.exp(-(abs(gk) ** 2 + abs(gl) ** 2) / 2 + mpmath.conj(gk) * gl)
                z = mpmath.sqrt(2) * (t - (mpmath.conj(gk) + gl) / 2)
                total += mpmath.conj(ck) * cl * ov * (1 + mpmath.erf(z)) / 2
        return float(total.real)


class ThresholdWorkload(Workload):
    """One `threshold_probability(state, T, method="erf")` call per op."""

    name = "threshold"

    def __init__(self, seed: int, out_root: Path, n_seeded: int = SEEDED_MEMBERS):
        super().__init__(seed, out_root)
        rng = np.random.default_rng(seed)
        specs = [seeded_member(rng) for _ in range(n_seeded)] + list(WIDE_MEMBERS)
        self.states = [
            coherent_algebra.CoherentSuperposition(tuple(zip(c, g))).normalized()
            for c, g, _ in specs
        ]
        self.thresholds = [t for _, _, t in specs]
        self.round_size = len(specs)
        self.first_values: list[float | None] = [None] * self.round_size
        self.rounds_checked = 0
        self.unrepeatable = 0  # ops whose value differs from the first round

    def op(self, i: int) -> float:
        m = i % self.round_size
        return coherent_algebra.threshold_probability(
            self.states[m], self.thresholds[m], method="erf"
        )

    def check(self, i: int, result) -> bool:
        m = i % self.round_size
        if m == 0:
            self.rounds_checked += 1
        value = result if isinstance(result, float) else None
        first = self.first_values[m]
        if self.rounds_checked == 1:
            self.first_values[m] = value
            return True
        same = value == first or (
            value is not None and first is not None and math.isnan(value) and math.isnan(first)
        )
        self.unrepeatable += not same
        return same

    def member_ok(self) -> list[bool]:
        """Whether each member's first-round value matches the mpmath reference."""
        ok = []
        for state, threshold, value in zip(self.states, self.thresholds, self.first_values):
            if value is None or not math.isfinite(value):
                ok.append(False)
                continue
            c = [c for c, _ in state.terms]
            g = [g for _, g in state.terms]
            ref = reference_threshold_probability(c, g, threshold)
            ok.append(abs(value - ref) <= DUAL_PATH_TOLERANCE * max(1.0, abs(ref)))
        return ok

    def finish(self) -> tuple[int, bool]:
        bad_members = self.round_size - sum(self.member_ok())
        return self.rounds_checked * bad_members + self.unrepeatable, True


WORKLOADS = {w.name: w for w in (ScanWorkload, OracleWorkload, ThresholdWorkload)}

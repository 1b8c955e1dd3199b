"""Fast tests of the benchmark itself: every workload completes at a tiny
size, a perturbed result counts as failed, and tracing leaves outputs
byte-identical.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads
from catruler import cli

BENCH = Path(__file__).resolve().parent
TINY_POINTS = 15


@pytest.fixture(scope="module")
def scan_files(tmp_path_factory):
    """Files of one scan operation at a tiny point count."""
    w = workloads.ScanWorkload(0, tmp_path_factory.mktemp("scan"))
    w.n_points = TINY_POINTS
    assert w.check(0, w.op(0))
    assert w.finish() == (0, True)
    files = w.first_files
    w.close()
    return files


def test_scan_completes_and_passes_its_checks(scan_files):
    assert set(scan_files) == {
        "fringe_alpha5.csv", "fringe_alpha10.csv", "fringe_alpha20.csv",
        "width_scaling.json", "ruler.json",
    }


def _perturb_csv(text: str, column: int, delta: float) -> str:
    lines = text.splitlines()
    row = next(i for i, line in enumerate(lines) if line[:1] not in ("#", "t"))
    values = lines[row].split(",")
    values[column] = repr(float(values[column]) + delta)
    lines[row] = ",".join(values)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("column", [1, 2, 3, 4])
def test_scan_perturbed_csv_fails(scan_files, column):
    text = scan_files["fringe_alpha5.csv"].decode()
    assert workloads.check_fringe_csv(text, 5.0, TINY_POINTS)
    assert not workloads.check_fringe_csv(_perturb_csv(text, column, 1e-9), 5.0, TINY_POINTS)


def test_scan_null_phase_outside_the_law_fails(scan_files):
    text = scan_files["fringe_alpha5.csv"].decode()
    _, _, rows = workloads.parse_csv(text)
    null = int(min(range(len(rows)), key=lambda k: abs(rows[k][0])))
    lines = text.splitlines()
    offset = len(lines) - len(rows)
    theta, p_plus, p_minus, _, _, leakage = rows[null]
    p_minus *= 2.0  # keep the CSV identities, break the gate-error law
    fringe = (p_minus - p_plus + 1.0) / 2.0
    lines[offset + null] = ",".join(
        f"{v:.12g}" for v in (theta, p_plus, p_minus, fringe, 1.0 - fringe, leakage)
    )
    assert not workloads.check_fringe_csv("\n".join(lines) + "\n", 5.0, TINY_POINTS)


def test_scan_perturbed_reports_fail(scan_files):
    width = json.loads(scan_files["width_scaling.json"])
    assert workloads.check_width_report(width)
    width["ratios"]["5/10"] *= 1.2
    assert not workloads.check_width_report(width)
    ruler = json.loads(scan_files["ruler.json"])
    assert workloads.check_ruler_report(ruler)
    ruler["scan_spacing"] *= 1.06
    assert not workloads.check_ruler_report(ruler)


def test_scan_operation_that_differs_from_the_first_fails(scan_files, tmp_path):
    w = workloads.ScanWorkload(0, tmp_path)
    w.first_files = dict(scan_files)
    w.first_files["ruler.json"] += b" "
    w.n_points = TINY_POINTS
    assert not w.check(0, w.op(0))
    assert w.finish()[0] == 1
    w.close()


def test_tracing_keeps_outputs_identical_and_counts_per_point(scan_files, tmp_path):
    w = workloads.ScanWorkload(0, tmp_path)
    w.n_points = TINY_POINTS
    tracer = tracing.Tracer()
    original_main = cli.main
    tracer.install()
    try:
        tracer.op = 0
        result = w.op(0)
    finally:
        tracer.uninstall()
    assert cli.main is original_main
    assert w.check(0, result) and w.first_files == scan_files
    w.close()
    metrics = tracer.layer_metrics(1)
    points = 7 * TINY_POINTS
    assert metrics["physical_realization.fringe_scan.calls"] == 7
    assert metrics["physical_realization.output_state.calls"] == 2 * points
    assert metrics["coherent_algebra.threshold_probability.calls"] == 2 * points
    assert metrics["coherent_algebra.norm_squared.calls"] == 6 * points
    assert metrics["cli.main.calls"] == 3
    assert metrics["fock_oracle.end_to_end_oracle.calls"] == 0
    assert all(v >= 0 for k, v in metrics.items() if k.endswith(".self_s"))


def test_oracle_completes_and_passes(tmp_path):
    w = workloads.OracleWorkload(3, tmp_path)
    w.cases = 2
    assert w.check(0, w.op(0)) and w.check(1, w.op(1))
    assert w.finish() == (0, True)
    w.close()


def test_oracle_injected_bug_counts_as_failed(tmp_path):
    w = workloads.OracleWorkload(3, tmp_path)
    w.cases = 2
    w.inject_bug = True
    assert not w.check(0, w.op(0))
    assert w.finish() == (1, True)
    w.close()


def test_threshold_fails_exactly_its_wide_members(tmp_path):
    w = workloads.ThresholdWorkload(5, tmp_path, n_seeded=4)
    rounds = 2
    for i in range(rounds * w.round_size):
        w.check(i, w.op(i))
    ok = w.member_ok()
    assert ok == [True] * 4 + [False] * len(workloads.WIDE_MEMBERS)
    assert w.finish() == (rounds * len(workloads.WIDE_MEMBERS), True)


def test_threshold_perturbed_value_fails(tmp_path):
    w = workloads.ThresholdWorkload(5, tmp_path, n_seeded=2)
    for i in range(w.round_size):
        w.check(i, w.op(i))
    w.first_values[1] += 2e-8
    assert w.member_ok()[:2] == [True, False]


def test_threshold_reference_matches_the_quadrature_path():
    """The mpmath closed form agrees with the package's adaptive
    quadrature on a state far from the erf fault."""
    from catruler import coherent_algebra as ca

    state = ca.CoherentSuperposition(((1.0, 0.3 + 2j), (0.5j, -1.0 - 1j))).normalized()
    ref = workloads.reference_threshold_probability(
        [c for c, _ in state.terms], [g for _, g in state.terms], 0.2
    )
    assert math.isclose(ref, ca.threshold_probability(state, 0.2, method="quad"), abs_tol=1e-8)


def test_command_prints_result_line():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "threshold", "--seed", "0",
         "--seconds", "0.05", "--trace", "0"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    members = workloads.SEEDED_MEMBERS + len(workloads.WIDE_MEMBERS)
    assert result["failed"] * members == result["attempted"] * len(workloads.WIDE_MEMBERS)
    assert set(result["metrics"]) == {"op_s", "setup_s", "peak_rss_mb"}


def test_command_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0 and out.stdout == ""

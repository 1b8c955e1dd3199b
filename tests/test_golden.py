"""Golden outputs of the README's CLI commands.

tests/golden/ holds what the six commands of the README's CLI block
write, at their README settings: every CSV and JSON file, and
commands.json with each command line, its exit code and its files.  The
fringe CSVs keep every THIN-th data row and the last one.  Each test run
repeats the commands in-process through cli.main and compares:

- exit codes, file names, CSV headers and comment lines, and JSON keys,
  strings, booleans and integers exactly;
- every other number to one unit in its 12th significant digit (the
  precision of NUMBER_FORMAT), so that a platform whose libraries round
  a last bit the other way still passes.  The numbers are compared as
  the decimals they are printed as, so no binary rounding moves the
  bound;
- the check values of oracle_report.json to their recorded tolerances:
  each may drift by less than its tolerance, but its pass flag may not
  change.

On the platform that recorded the files (platform.json: the Python and
numpy versions and the machine) each file must also equal its golden
text byte for byte.

A change that moves an output regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and lists the drift that `git diff tests/golden` shows.
"""

import json
import platform
import re
import tempfile
from decimal import Decimal, InvalidOperation
from pathlib import Path

import numpy as np
import pytest

from catruler.cli import main
from readme_commands import readme_argv, readme_lines

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "commands.json"
PLATFORM = GOLDEN / "platform.json"
# the fringe CSVs keep every THIN-th data row (and the last)
THIN = 4
# one unit in the 12th significant digit
DIGITS = 12

pytestmark = pytest.mark.filterwarnings("ignore::catruler.errors.ApproximationRegimeWarning")


def thinned(name: str, text: str) -> str:
    """A fringe CSV with every THIN-th data row and the last; other files whole."""
    if not name.startswith("fringe_"):
        return text
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    rows = lines[start:]
    kept = rows[::THIN] + ([rows[-1]] if (len(rows) - 1) % THIN else [])
    return "\n".join(lines[:start] + kept) + "\n"


def run_commands(out: Path) -> list[dict]:
    """Run each README command into its own directory under out; return
    its line, exit code and the thinned text of each file it wrote."""
    runs = []
    for i, (line, argv) in enumerate(zip(readme_lines(), readme_argv(out))):
        target = out / str(i)
        argv[argv.index(str(out))] = str(target)
        code = main(argv)
        # a failed command may create no directory
        files = {p.name: thinned(p.name, p.read_text()) for p in sorted(target.glob("*"))}
        runs.append({"command": line, "exit": code, "files": files})
    return runs


def close(value: Decimal, golden: Decimal) -> bool:
    """value within one unit of the 12th significant digit of the larger."""
    if value == golden:
        return True
    if not (value.is_finite() and golden.is_finite()):
        return False
    return abs(value - golden) <= unit_of(max(abs(value), abs(golden)))


def unit_of(number: Decimal) -> Decimal:
    """One unit in the 12th significant digit of number."""
    return Decimal(1).scaleb(number.adjusted() - (DIGITS - 1))


def numbers(line: str) -> list[Decimal] | None:
    try:
        return [Decimal(v) for v in line.split(",")]
    except InvalidOperation:
        return None


def csv_mismatches(text: str, golden: str) -> list[str]:
    """Comment lines and the header exactly, each data value by close."""
    lines, golden_lines = text.splitlines(), golden.splitlines()
    if len(lines) != len(golden_lines):
        return [f"{len(lines)} lines, golden {len(golden_lines)}"]
    header = next(i for i, line in enumerate(golden_lines) if not line.startswith("#"))
    found = []
    for i, (line, want) in enumerate(zip(lines, golden_lines)):
        if i <= header:
            same = line == want
        else:
            values, wanted = numbers(line), numbers(want)
            same = values is not None and len(values) == len(wanted) and all(
                close(v, w) for v, w in zip(values, wanted))
        if not same:
            found.append(f"line {i + 1}: {line!r}, golden {want!r}")
    return found


def json_mismatches(value, golden, path="") -> list[str]:
    """Keys, strings, booleans and integers exactly, floats by close; the
    value of a check record (one with a tolerance) within its tolerance."""
    if isinstance(golden, dict):
        if not isinstance(value, dict) or sorted(value) != sorted(golden):
            return [f"{path}: keys {sorted(value) if isinstance(value, dict) else value!r}, "
                    f"golden {sorted(golden)}"]
        found = []
        for key in golden:
            if key == "value" and "tolerance" in golden:
                if not abs(value[key] - golden[key]) < golden["tolerance"]:
                    found.append(f"{path}/value: {value[key]!r}, golden {golden[key]!r} "
                                 f"+- {golden['tolerance']!r}")
            else:
                found += json_mismatches(value[key], golden[key], f"{path}/{key}")
        return found
    if isinstance(golden, list):
        if not isinstance(value, list) or len(value) != len(golden):
            return [f"{path}: {value!r}, golden {golden!r}"]
        return [m for i, (v, g) in enumerate(zip(value, golden))
                for m in json_mismatches(v, g, f"{path}/{i}")]
    if isinstance(golden, Decimal) and isinstance(value, Decimal):
        return [] if close(value, golden) else [f"{path}: {value!r}, golden {golden!r}"]
    if type(value) is not type(golden) or value != golden:
        return [f"{path}: {value!r}, golden {golden!r}"]
    return []


def mismatches(name: str, text: str, golden: str) -> list[str]:
    if name.endswith(".json"):
        return json_mismatches(json.loads(text, parse_float=Decimal),
                               json.loads(golden, parse_float=Decimal))
    return csv_mismatches(text, golden)


def golden_names() -> list[str]:
    return sorted(p.name for p in GOLDEN.glob("*") if p not in (MANIFEST, PLATFORM))


def running_platform() -> dict[str, str]:
    """What may round a last bit differently: the Python and numpy
    versions and the machine."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return run_commands(tmp_path_factory.mktemp("golden"))


def test_manifest_holds_the_readme_commands(runs):
    recorded = json.loads(MANIFEST.read_text())
    assert [r["command"] for r in recorded] == readme_lines()
    assert [r["exit"] for r in runs] == [r["exit"] for r in recorded] == [0] * 6
    assert [sorted(r["files"]) for r in runs] == [r["files"] for r in recorded]
    assert golden_names() == sorted(name for r in recorded for name in r["files"])
    assert sorted(json.loads(PLATFORM.read_text())) == sorted(running_platform())


def test_outputs_match_the_golden_files(runs):
    found = {
        name: mismatches(name, text, (GOLDEN / name).read_text())
        for run in runs for name, text in run["files"].items()
    }
    assert {name: m for name, m in found.items() if m} == {}


def test_outputs_equal_the_golden_bytes_on_the_recording_platform(runs):
    recorded = json.loads(PLATFORM.read_text())
    if running_platform() != recorded:
        pytest.skip(f"recorded on {recorded}, running on {running_platform()}")
    differ = [name for run in runs for name, text in run["files"].items()
              if text != (GOLDEN / name).read_text()]
    assert differ == []


NUMBER = re.compile(r"(\d+(?:\.\d+)?)(?:e[-+]?\d+)?")


def edited_digit(match: re.Match) -> int:
    """Position of the last digit of a number's mantissa, or of its 12th
    significant digit if it has more."""
    significant = 0
    for at in range(match.start(1), match.end(1)):
        if match.string[at].isdigit():
            significant += significant > 0 or match.string[at] != "0"
            if significant == DIGITS:
                return at
    return match.end(1) - 1


# a JSON line that holds one number, after its key if it has one
JSON_NUMBER = re.compile(r'^ *(?:"([^"]*)": )?(-?[\d.]+(?:e[-+]?\d+)?),?$', re.M)


def close_spans(name: str, golden: str) -> list[tuple[int, int]]:
    """(start, end) of each number that the comparison holds to close:
    each data field of a CSV, and each float of a JSON file except the
    oracle's check values."""
    if name.endswith(".json"):
        return [m.span(2) for m in JSON_NUMBER.finditer(golden)
                if m.group(1) != "value" and not m.group(2).lstrip("-").isdigit()]
    lines = golden.splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    data = sum(map(len, lines[:header + 1]))
    return [(m.start() + data, m.end() + data) for m in re.finditer(r"[^,\n]+", golden[data:])]


@pytest.mark.parametrize("name", golden_names())
def test_a_one_digit_edit_is_caught(name):
    """Each number the comparison holds to 12 digits or exactly (the
    first 30 and last 10 of the file) fails it when its last compared
    digit moves by 5; each held to 12 digits (again the first 30 and last
    10) passes it when its 12th significant digit moves by 1 either way
    and fails it when that digit moves by 2; an oracle check value fails
    it once it drifts past its tolerance, and not before."""
    golden = (GOLDEN / name).read_text()
    edits, offset = [], 0
    for line in golden.splitlines(keepends=True):
        if not line.lstrip().startswith('"value"'):  # the oracle's check values: below
            edits += [offset + edited_digit(m) for m in NUMBER.finditer(line)]
        offset += len(line)
    assert edits
    for at in edits[:30] + edits[-10:]:
        edited = golden[:at] + str((int(golden[at]) + 5) % 10) + golden[at + 1:]
        assert mismatches(name, edited, golden), (name, golden[at - 20:at + 5])
    spans = close_spans(name, golden)
    moved = 0
    for begin, end in spans[:30] + spans[-10:]:
        number = Decimal(golden[begin:end])
        unit = unit_of(number)
        # zero has no 12th digit, and a move up across a power of ten is
        # judged at the unit of the larger number, ten times this one
        if number == 0 or unit_of(abs(number) + 2 * unit) != unit:
            continue
        moved += 1
        for step in (1, -1, 2, -2):
            edited = golden[:begin] + f"{number + step * unit:e}" + golden[end:]
            assert bool(mismatches(name, edited, golden)) == (abs(step) == 2), (
                name, golden[begin:end], step)
    assert moved
    if name == "oracle_report.json":
        report = json.loads(golden)
        for check in report["checks"].values():
            value = check["value"]
            check["value"] = value + 0.5 * check["tolerance"]
            assert mismatches(name, json.dumps(report), golden) == []
            check["value"] = value + 1.5 * check["tolerance"]
            assert mismatches(name, json.dumps(report), golden)
            check["value"] = value


def regenerate() -> None:
    """Rewrite tests/golden/ from the README commands as they run now."""
    with tempfile.TemporaryDirectory() as out:
        runs = run_commands(Path(out))
    for path in GOLDEN.glob("*"):
        path.unlink()
    GOLDEN.mkdir(exist_ok=True)
    for run in runs:
        for name, text in run["files"].items():
            (GOLDEN / name).write_text(text, encoding="utf-8")
    recorded = [{"command": r["command"], "exit": r["exit"], "files": sorted(r["files"])}
                for r in runs]
    MANIFEST.write_text(json.dumps(recorded, indent=2) + "\n", encoding="utf-8")
    PLATFORM.write_text(json.dumps(running_platform(), indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()

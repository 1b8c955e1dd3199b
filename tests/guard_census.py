"""Guard census: does some Tier-1 test need each guard of the package?

A guard site is either an `if` (or `elif`) of the catruler package whose
body starts with a `raise`, or a call of `_require(<condition>, ...)`,
the scan kernel's array guard, which raises unless every element of its
first argument holds.  The census copies src/ to a temporary directory
and, one site at a time, rewrites the copy's condition, as
`False and (<condition>)` in an `if` and as `np.True_` in a `_require`
call, which disables the guard and nothing else.  For each such mutant
it runs the Tier-1 suite against the copy with `-x -p no:cacheprovider`,
the test files that import the mutated module first.  A mutant that
passes the suite is a survivor: no test notices that its guard is gone.
Run from the repository root:

    PYTHONPATH=src python tests/guard_census.py

It prints each survivor as `path:line: if <condition>` or
`path:line: _require(<condition>, ...)`, then the count and the wall
time, and exits 1 if any site survived.  It writes nothing under src/ or
tests/: the suite runs from the temporary directory, without bytecode
files or a pytest cache.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "catruler"
TESTS = ROOT / "tests"
TIER1 = ["-q", "--continue-on-collection-errors", "-x", "-p", "no:cacheprovider"]


# the array guard of the scan kernel, and the condition that disables it
REQUIRE = "_require"
ALWAYS = "np.True_"


def guard_sites(source: str) -> list[tuple[str, ast.expr]]:
    """(kind, condition) of each guard site in source order: kind "if"
    for an `if` whose body starts with a raise, REQUIRE for the first
    argument of a REQUIRE call."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and isinstance(node.body[0], ast.Raise):
            sites.append(("if", node.test))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == REQUIRE and node.args):
            sites.append((REQUIRE, node.args[0]))
    return sorted(sites, key=lambda site: (site[1].lineno, site[1].col_offset))


def disabled(source: str, kind: str, condition: ast.expr) -> str:
    """source with the condition of a site made `False and (<condition>)`
    in an `if`, or ALWAYS in a REQUIRE call.

    ast offsets count UTF-8 bytes, so the splice is made on bytes."""
    lines = source.encode("utf-8").splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))
    begin = starts[condition.lineno - 1] + condition.col_offset
    end = starts[condition.end_lineno - 1] + condition.end_col_offset
    data = b"".join(lines)
    if kind == "if":
        spliced = b"False and (" + data[begin:end] + b")"
    else:
        spliced = ALWAYS.encode("utf-8")
    return (data[:begin] + spliced + data[end:]).decode("utf-8")


def label(kind: str, condition: ast.expr) -> str:
    if kind == "if":
        return f"if {ast.unparse(condition)}"
    return f"{kind}({ast.unparse(condition)}, ...)"


def importers(module: str) -> set[Path]:
    """Test files that import catruler.<module> by name."""
    found = set()
    for path in TESTS.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = {node.module} | {f"{node.module}.{a.name}" for a in node.names}
            elif isinstance(node, ast.Import):
                names = {a.name for a in node.names}
            else:
                continue
            if f"catruler.{module}" in names:
                found.add(path)
    return found


def run_suite(src: Path, order: list[Path], cwd: Path) -> bool:
    """Whether the Tier-1 suite, in the given file order, passes against src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", *TIER1, "--rootdir", str(ROOT),
               "-c", str(ROOT / "pyproject.toml"), *map(str, order)]
    return subprocess.run(command, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def main() -> int:
    started = time.perf_counter()
    all_tests = sorted(TESTS.glob("test_*.py"))
    with tempfile.TemporaryDirectory(prefix="guard-census-") as scratch:
        scratch = Path(scratch)
        src = scratch / "src"
        shutil.copytree(PACKAGE.parent, src, ignore=shutil.ignore_patterns("__pycache__"))
        if not run_suite(src, all_tests, scratch):
            print("the unmutated copy fails the suite; no census taken", file=sys.stderr)
            return 2
        survivors, count = [], 0
        for path in sorted(PACKAGE.glob("*.py")):
            source = path.read_text(encoding="utf-8")
            target = src / "catruler" / path.name
            first = importers(path.stem)
            order = sorted(first) + [t for t in all_tests if t not in first]
            for kind, condition in guard_sites(source):
                count += 1
                target.write_text(disabled(source, kind, condition), encoding="utf-8")
                if run_suite(src, order, scratch):
                    survivors.append(f"{path.relative_to(ROOT)}:{condition.lineno}: {label(kind, condition)}")
                    print(survivors[-1], flush=True)
            target.write_text(source, encoding="utf-8")
    print(f"{len(survivors)} of {count} guard sites survived, "
          f"in {time.perf_counter() - started:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

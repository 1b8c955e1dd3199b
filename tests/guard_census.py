"""Guard census: does some Tier-1 test need each guard of the package?

A guard site of the catruler package is one of four kinds:

- an `if` (or `elif`) whose body starts with a `raise`;
- a call of `_require(<condition>, ...)`, the scan kernel's array guard,
  which raises unless every element of its first argument holds;
- a clamp: a two-argument call of `max`, `min`, `np.maximum` or
  `np.minimum`, an `out=` keyword allowed;
- a slack term: a use of one of the module-level tolerance constants in
  TOLERANCES (not its definition, and not inside an f-string message),
  or a float literal between 0 and 1 inside a comparison.

The census copies src/ to a temporary directory and, one site at a
time, disables the copy's site and nothing else: the condition of an
`if` becomes `False and (<condition>)`, that of a `_require` call
`np.True_`, a clamp becomes its first argument, and a slack term
becomes `0.0`.  For each such mutant it runs the Tier-1 suite against
the copy with `-x -p no:cacheprovider`, the test files that import the
mutated module first.  A mutant that passes the suite is a survivor: no
test notices that its guard is gone.
Run from the repository root:

    PYTHONPATH=src python tests/guard_census.py

It prints each survivor as `path:line:column: ` followed by
`if <condition>`, `_require(<condition>, ...)`,
`<clamp> -> <first argument>` or `<slack> -> 0.0`, then the count and
the wall time, and exits 1 if any site survived.  It writes nothing
under src/ or tests/: the suite runs from the temporary directory,
without bytecode files or a pytest cache.
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
# the clamps, each disabled by its first argument
CLAMP = "clamp"
CLAMPS = {"max", "min", "np.maximum", "np.minimum"}
# the slack terms, each disabled by zero
SLACK = "slack"
ZERO = "0.0"
TOLERANCES = {"NORM_CLAMP", "IMAG_RESIDUE_LIMIT", "WEIGHT_CLOSURE_TOL", "TAIL_TOL",
              "UNITARY_NORM_TOL", "STATE_NORM_TOL", "BLOCK_DROP_MASS"}


def guard_sites(source: str) -> list[tuple[str, ast.expr]]:
    """(kind, node) of each guard site in source order: kind "if" with
    the condition of an `if` whose body starts with a raise, REQUIRE with
    the first argument of a REQUIRE call, CLAMP with the call of a clamp,
    SLACK with the name or literal of a slack term."""
    tree = ast.parse(source)
    messages = {id(sub) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
                for sub in ast.walk(node)}
    compared = {id(sub) for node in ast.walk(tree) if isinstance(node, ast.Compare)
                for sub in ast.walk(node)}
    sites = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id in TOLERANCES
                and isinstance(node.ctx, ast.Load) and id(node) not in messages):
            sites.append((SLACK, node))
        elif (isinstance(node, ast.Constant) and type(node.value) is float
              and 0.0 < node.value < 1.0 and id(node) in compared):
            sites.append((SLACK, node))
        elif isinstance(node, ast.If) and isinstance(node.body[0], ast.Raise):
            sites.append(("if", node.test))
        elif isinstance(node, ast.Call) and node.args:
            name = ast.unparse(node.func)
            if name == REQUIRE:
                sites.append((REQUIRE, node.args[0]))
            elif (name in CLAMPS and len(node.args) == 2
                  and all(keyword.arg == "out" for keyword in node.keywords)):
                sites.append((CLAMP, node))
    return sorted(sites, key=lambda site: (site[1].lineno, site[1].col_offset))


def disabled(source: str, kind: str, node: ast.expr) -> str:
    """source with a site disabled: the condition node made
    `False and (<condition>)` in an `if`, or ALWAYS in a REQUIRE call,
    a CLAMP call made `(<first argument>)`, and a SLACK term ZERO.

    ast offsets count UTF-8 bytes, so the splice is made on bytes."""
    lines = source.encode("utf-8").splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))
    data = b"".join(lines)

    def span(node: ast.expr) -> slice:
        return slice(starts[node.lineno - 1] + node.col_offset,
                     starts[node.end_lineno - 1] + node.end_col_offset)

    site = span(node)
    if kind == "if":
        spliced = b"False and (" + data[site] + b")"
    elif kind == REQUIRE:
        spliced = ALWAYS.encode("utf-8")
    elif kind == SLACK:
        spliced = ZERO.encode("utf-8")
    else:
        spliced = b"(" + data[span(node.args[0])] + b")"
    return (data[:site.start] + spliced + data[site.stop:]).decode("utf-8")


def label(kind: str, node: ast.expr) -> str:
    if kind == "if":
        return f"if {ast.unparse(node)}"
    if kind == REQUIRE:
        return f"{kind}({ast.unparse(node)}, ...)"
    if kind == SLACK:
        return f"{ast.unparse(node)} -> {ZERO}"
    return f"{ast.unparse(node)} -> {ast.unparse(node.args[0])}"


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
            for kind, node in guard_sites(source):
                count += 1
                target.write_text(disabled(source, kind, node), encoding="utf-8")
                if run_suite(src, order, scratch):
                    survivors.append(f"{path.relative_to(ROOT)}:{node.lineno}:{node.col_offset + 1}: "
                                     f"{label(kind, node)}")
                    print(survivors[-1], flush=True)
            target.write_text(source, encoding="utf-8")
    print(f"{len(survivors)} of {count} guard sites survived, "
          f"in {time.perf_counter() - started:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

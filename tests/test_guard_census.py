"""The guard census's site finder and splicer, on every module of the package.

The census itself runs the suite once per site and is too slow for
Tier-1; these checks run its two pure steps, `guard_sites` and
`disabled`, so that a splicer broken by a change to the package shows
on every run of the suite: each mutant parses, differs from its source
only inside its site, and holds there exactly the disabled form.
"""

import ast

import pytest

from guard_census import CLAMP, PACKAGE, REQUIRE, disabled, guard_sites

MODULES = sorted(PACKAGE.glob("*.py"))


def byte_span(source: bytes, node: ast.expr) -> tuple[int, int]:
    """[start, stop) of node in the UTF-8 bytes of its source."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return (starts[node.lineno - 1] + node.col_offset,
            starts[node.end_lineno - 1] + node.end_col_offset)


def expected(kind: str, node: ast.expr) -> ast.expr:
    """The expression that disables a site."""
    if kind == "if":
        return ast.BoolOp(op=ast.And(), values=[ast.Constant(False), node])
    if kind == REQUIRE:
        # every element holds, so the call never raises
        return ast.parse("np.True_", mode="eval").body
    return node.args[0]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_each_mutant_changes_its_site_alone(path):
    source = path.read_text(encoding="utf-8")
    data = source.encode("utf-8")
    for kind, node in guard_sites(source):
        mutant = disabled(source, kind, node).encode("utf-8")
        ast.parse(mutant)
        start, stop = byte_span(data, node)
        end = len(mutant) - (len(data) - stop)
        assert mutant[:start] == data[:start] and mutant[end:] == data[stop:], (path.name, node.lineno)
        spliced = ast.parse(mutant[start:end], mode="eval").body
        assert ast.dump(spliced) == ast.dump(expected(kind, node)), (path.name, node.lineno)


def test_every_kind_of_site_is_found():
    kinds = {kind for path in MODULES for kind, _ in guard_sites(path.read_text(encoding="utf-8"))}
    assert kinds == {"if", REQUIRE, CLAMP}

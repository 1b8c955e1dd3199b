"""The commands of the README's CLI block, which several tests run."""

import shlex
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_lines() -> list[str]:
    """The `catruler ...` lines of the first sh block after "## CLI"."""
    block = README.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("catruler ")]


def readme_argv(out) -> list[list[str]]:
    """Each command's arguments for cli.main, quiet and writing to out."""
    commands = []
    for line in readme_lines():
        argv = ["--quiet", *shlex.split(line)[1:]]
        argv[argv.index("--out") + 1] = str(out)
        commands.append(argv)
    return commands

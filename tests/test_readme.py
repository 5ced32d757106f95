"""The README's command examples are commands the CLI accepts."""

import os
import re
import shlex

import pytest

from svp import cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_commands() -> list:
    """Every ``svp ...`` line of the README's ``sh`` blocks, with ``\\``
    continuations joined."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line.strip() for line in lines if line.strip().startswith("svp ")]


def test_readme_shows_every_command():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert {shlex.split(line)[1] for line in readme_commands()} == set(sub.choices)


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_parses(line):
    argv = shlex.split(line)[1:]
    assert cli.build_parser().parse_args(argv).command == argv[0]

"""The README's command examples are commands the CLI accepts, and its
JSON config example is a config the CLI runs."""

import dataclasses
import json
import os
import re
import shlex

import pytest

from svp import cli, harness
from svp.learner import LearnerSpec, SynthParams

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


def json_config_section() -> str:
    """The text of the README's ``## JSON config`` section."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return text.split("\n## JSON config\n", 1)[1].split("\n## ", 1)[0]


def test_readme_config_runs(tmp_path):
    block = re.search(r"^```json\n(.*?)^```", json_config_section(), flags=re.M | re.S)[1]
    config = json.loads(block)
    config["output"] = str(tmp_path / config["output"])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["al", "--config", str(path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "config.json", "run.json", "run.rounds.csv"]


def test_readme_config_section_names_every_key():
    keys = {name for required, optional in harness.CONFIG_FIELDS.values()
            for name in required + optional}
    keys |= {f.name for cls in (LearnerSpec, harness.Schedule, SynthParams)
             for f in dataclasses.fields(cls)}
    keys |= {*harness._DATA_FILES, "synthetic"}
    section = json_config_section()
    assert sorted(k for k in keys if f"`{k}`" not in section and f'"{k}"' not in section) == []

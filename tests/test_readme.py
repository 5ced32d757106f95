"""The README's command examples are commands the CLI accepts and run in
order, its JSON config example is a config the CLI runs, its config section
names every accepted key and documents no other, and each error line it
quotes is one a command prints."""

import dataclasses
import inspect
import json
import os
import re
import shlex

import numpy as np
import pytest

import svp
from svp import cli, harness
from svp.learner import LearnerSpec, SynthParams
from svp.tensor_io import write_labels_csv, write_scores_csv, write_tensor, write_train_log
from test_cli import SYNTH, coreset_config, synth_argv

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


JSON_BLOCK = r"^```json\n(.*?)^```"


def json_config_section() -> str:
    """The text of the README's ``## JSON config`` section."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return text.split("\n## JSON config\n", 1)[1].split("\n## ", 1)[0]


def readme_config() -> dict:
    """The README's JSON config example."""
    return json.loads(re.search(JSON_BLOCK, json_config_section(), flags=re.M | re.S)[1])


def test_readme_config_runs(tmp_path):
    config = readme_config()
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


def test_readme_config_section_documents_only_accepted_keys():
    # The reverse: each bare name the section backticks outside its example
    # is a key a config takes, or a name the code gives to something else.
    keys = {name for required, optional in harness.CONFIG_FIELDS.values()
            for name in required + optional}
    keys |= {f.name for cls in (LearnerSpec, harness.Schedule, SynthParams)
             for f in dataclasses.fields(cls)}
    keys |= {*harness._DATA_FILES, "synthetic"}
    others = {*harness.CONFIG_FIELDS, *harness.METHODS["coreset"], "true", "false", "null"}
    others |= {sub for a in cli.build_parser()._actions if a.dest == "command" for sub in a.choices}
    for name, value in vars(svp).items():  # the API's functions, parameters and methods
        if inspect.isfunction(value):
            others |= {name, *inspect.signature(value).parameters}
        elif inspect.isclass(value):
            others |= set(dir(value))
    # The report's timing block, the data sides a check names, the module
    # that measures memory, and the misspelt data key the section shows failing.
    others |= {"timing", "train", "test", "tracemalloc", "test_lables"}
    section = re.sub(JSON_BLOCK, "", json_config_section(), flags=re.M | re.S)
    names = set(re.findall(r"`([a-z][a-z0-9_]*)`", section))
    assert sorted(names - keys - others) == []


# The ``error:`` texts the README quotes, each with a set-up that writes its
# inputs in ``tmp_path`` and returns the command, which must exit 1, and the
# values of the text's ``<...>`` placeholders. ``...`` stands for any text
# within the line. Set-ups that need fixtures name them.
QUOTED = {}


def quoted(text, *fixtures):
    def register(setup):
        QUOTED[text] = setup, fixtures
        return setup
    return register


def kcenters_argv(tmp_path, rows, *flags):
    feats = tmp_path / "x.svpt"
    write_tensor(np.arange(float(rows))[:, None], feats)
    return ["kcenters", "--features", str(feats), *flags, "--out", str(tmp_path / "o.csv")]


def initial_file_argv(tmp_path, lines):
    init = tmp_path / "init.txt"
    init.write_text(lines)
    return kcenters_argv(tmp_path, 20, "--initial", str(init), "--budget", "1"), str(init)


@quoted("error: --initial-size=60 exceeds the 50 candidates")
def _(tmp_path):
    return kcenters_argv(tmp_path, 50, "--initial-size", "60", "--budget", "0", "--seed", "1"), {}


@quoted("error: --budget=30 exceeds the 15 candidates")
def _(tmp_path):
    return kcenters_argv(tmp_path, 20, "--initial-size", "5", "--budget", "30", "--seed", "1"), {}


@quoted("error: --budget must be nonnegative, got -1")
def _(tmp_path):
    return kcenters_argv(tmp_path, 20, "--initial-size", "5", "--budget", "-1", "--seed", "1"), {}


@quoted("error: <path>: initial set holds duplicate indices")
def _(tmp_path):
    argv, init = initial_file_argv(tmp_path, "0\n3\n0\n")
    return argv, {"<path>": init}


@quoted("error: <path>: initial set must be nonempty, with every index in [0, 20)")
def _(tmp_path):
    argv, init = initial_file_argv(tmp_path, "0\n99\n")
    return argv, {"<path>": init}


@quoted("error: <file>:<line>: not an integer: ...")
def _(tmp_path):
    argv, init = initial_file_argv(tmp_path, "0\n1_0\n")
    return argv, {"<file>": init, "<line>": "2"}


def forget_argv(tmp_path, log, *flags):
    return ["forget", "--log", str(log), "--out", str(tmp_path / "f.csv"), *flags]


def log_file(tmp_path):
    log = tmp_path / "log.svpl"
    write_train_log(np.ones((20, 2), dtype=bool), log)
    return log


@quoted("error: --select=30 exceeds the 20 candidates")
def _(tmp_path):
    return forget_argv(tmp_path, log_file(tmp_path), "--select", "30"), {}


@quoted("error: --select must be nonnegative, got -1")
def _(tmp_path):
    return forget_argv(tmp_path, log_file(tmp_path), "--select", "-1"), {}


@quoted("error: <path>: bad magic b'SVPT', expected b'SVPL'")
def _(tmp_path):
    log = tmp_path / "x.svpt"
    write_tensor(np.ones((2, 2)), log)
    return forget_argv(tmp_path, log), {"<path>": str(log)}


@quoted("error: <path>: not a regular file; this command reads it twice")
def _(tmp_path):
    return forget_argv(tmp_path, os.devnull), {"<path>": os.devnull}


@quoted("error: <path>: every value is equal, so there is nothing to correlate")
def _(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_scores_csv(np.array([1.0, 2.0]), a)
    write_scores_csv(np.array([3.0, 3.0]), b)
    return ["correlate", "--a", str(a), "--b", str(b)], {"<path>": str(b)}


def score_argv(tmp_path, probs, out):
    path = tmp_path / "p.svpt"
    write_tensor(np.array(probs, dtype=np.float32), path)
    return ["score", "--method", "entropy", "--probs", str(path), "--out", str(out)], str(path)


@quoted("error: <path>: ...")
def _(tmp_path):
    argv, probs = score_argv(tmp_path, [[0.5, 0.5], [0.5, 0.6]], tmp_path / "s.csv")
    return argv, {"<path>": probs}


@quoted("error: [Errno 21] Is a directory: '<path>'")
def _(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    return score_argv(tmp_path, [[0.5, 0.5]], out)[0], {"<path>": str(out)}


@quoted("error: [Errno 2] No such file or directory: '<path>'")
def _(tmp_path):
    out = tmp_path / "nodir" / "s.csv"
    return score_argv(tmp_path, [[0.5, 0.5]], out)[0], {"<path>": str(out)}


@quoted("error: <path>: two outputs of one write go to this file")
def _(tmp_path):
    argv = synth_argv(tmp_path) + ["--out-test-features", str(tmp_path / "x.svpt"),
                                   "--out-test-labels", str(tmp_path / "yt.csv")]
    return argv, {"<path>": str(tmp_path / "x.svpt")}


@quoted("error: n_train=9223372036854775807, dim=3: a 9223372036854775807 x 3 float64 matrix "
        "is too large for an array")
def _(tmp_path):
    return synth_argv(tmp_path, n_train=str(2**63 - 1)), {}


@quoted("error: synthetic features overflow float64 (separation ..., noise ...)")
def _(tmp_path):
    flags = {key: str(value) for key, value in SYNTH.items()}
    return synth_argv(tmp_path, **{**flags, "separation": "1e308", "seed": "1"}), {}


@quoted("error: Unable to allocate ...", "address_space_cap")
def _(tmp_path):
    return synth_argv(tmp_path, n_train=str(10**13)), {}


@quoted("error: ...")
def _(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text("[]")
    return ["al", "--config", str(cfg)], {}


@quoted("error: <config path>: ...")
def _(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text("{")
    return ["al", "--config", str(cfg)], {"<config path>": str(cfg)}


@quoted("error: unknown data fields: ['features']")
def _(tmp_path):
    cfg = coreset_config(tmp_path, data={"synthetic": SYNTH, "features": "x.svpt"})
    return ["coreset", "--config", str(cfg)], {}


@quoted("error: <field> is too large for a float64")
def _(tmp_path):
    cfg = coreset_config(tmp_path, subset_fraction=10**400)
    return ["coreset", "--config", str(cfg)], {"<field>": "subset_fraction"}


@quoted("error: test features have 5 columns, train features 4")
def _(tmp_path):
    data = {}
    for features, width in (("features", 4), ("test_features", 5)):
        labels = features.replace("features", "labels")
        data[features], data[labels] = str(tmp_path / f"{features}.svpt"), str(tmp_path / labels)
        write_tensor(np.zeros((4, width)), data[features])
        write_labels_csv(np.array([0, 1, 0, 1]), data[labels])
    return ["coreset", "--config", str(coreset_config(tmp_path, data=data))], {}


@quoted("error: training diverged at epoch <k>: non-finite parameters")
def _(tmp_path):
    target = {"kind": "mlp", "epochs": 2, "learning_rate": 1e300, "batch_size": 16,
              "seed": 3, "hidden_units": 8}
    return ["coreset", "--config", str(coreset_config(tmp_path, target=target))], {"<k>": "0"}


def test_readme_commands_run_in_order(tmp_path, monkeypatch, capsys):
    # ``svp synth`` writes its own files; small writers make the rest, with
    # rows enough for the examples' counts (5 + 100 centers, 100 selected).
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(0)
    probs = rng.random((120, 4))
    write_tensor(probs / probs.sum(axis=1, keepdims=True), "probs.svpt")
    write_tensor(rng.standard_normal((120, 8)), "feats.svpt")
    write_train_log(rng.random((120, 5)) < 0.5, "log.svpl")
    for name in ("scores_proxy.csv", "scores_target.csv"):
        write_scores_csv(rng.random(120), name)
    config = readme_config()
    (tmp_path / "al.json").write_text(json.dumps(config))
    for key in ("budget_fraction", "schedule"):
        del config[key]
    config.update(task="coreset", subset_fraction=0.5, output="coreset_run.json")
    (tmp_path / "coreset.json").write_text(json.dumps(config))
    for line in readme_commands():
        assert cli.main(shlex.split(line)[1:]) == 0, (line, capsys.readouterr().err)


def readme_errors() -> list:
    """Every backticked ``error: ...`` text of the README, once each, with
    its line breaks read as spaces."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return sorted({" ".join(t.split()) for t in re.findall(r"`(error: [^`]+)`", text)})


def test_every_quoted_error_has_a_command_and_every_command_a_quote():
    quotes = readme_errors()
    assert [t for t in quotes if t not in QUOTED] == []
    assert [t for t in QUOTED if t not in quotes] == []


@pytest.mark.parametrize("text", readme_errors())
def test_quoted_error_is_what_its_command_prints(text, tmp_path, capsys, request):
    assert text in QUOTED, "the README quotes an error no command in QUOTED prints"
    setup, fixtures = QUOTED[text]
    for name in fixtures:
        request.getfixturevalue(name)
    argv, fills = setup(tmp_path)
    parts = []
    for part in text.split("..."):
        for placeholder, value in fills.items():
            part = part.replace(placeholder, value)
        parts.append(re.escape(part))
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert re.fullmatch("[^\n]*".join(parts) + "\n", err), err

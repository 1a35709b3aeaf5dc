"""Golden corpus: the CLI's stdout must stay byte-identical across refactors.

``tests/golden/cases.json`` maps a case name to its argv; ``tests/golden/<name>.out``
holds the stdout that argv produced when the corpus was captured.  stderr is
not compared because it carries ``elapsed_ms``.  Every case runs with its
working directory set to ``tests/golden/data/``, so file-backed specs name
their fixtures by bare relative paths such as ``file:w.txt`` and the reports,
which echo those specs, do not depend on where the repository lives.

``tests/golden/help/<command>.txt`` holds the ``--help`` text of the top level
(``seqlab.txt``) and of each subcommand, rendered at 80 columns.

Recapture (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import functools
import io
import json
import os
import re
import shlex
from pathlib import Path

import pytest

from seqlab import cli
from seqlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
README = GOLDEN.parent.parent / "README.md"
DATA = GOLDEN / "data"
CASES = json.loads((GOLDEN / "cases.json").read_text())
HELP = {"seqlab": [], **{cmd: [cmd] for cmd in ("density", "membership", "norm", "witness", "check")}}


def _stdout(argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(DATA)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def _help(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_:
        main(argv + ["--help"])
    assert exit_.value.code == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name):
    code, out = _stdout(CASES[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text()


@pytest.mark.parametrize("name", sorted(HELP))
def test_golden_help(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    # twice in one process, so a second rendering matches the first
    assert [_help(HELP[name]) for _ in range(2)] == [(GOLDEN / "help" / f"{name}.txt").read_text()] * 2


@functools.cache
def _json_report(name):
    """The JSON report of case ``name``, whatever ``--format`` its argv names."""
    argv = CASES[name]
    at = argv.index("--format") if "--format" in argv else len(argv)
    code, out = _stdout(argv[:at] + argv[at + 2:])
    assert code == 0
    return json.loads(out)


def _replayed(report):
    """The argv rebuilt from ``report``'s ``inputs``: a null or false flag left out, a true one
    bare, and the witness task as the positional argument."""
    argv = [report["subcommand"]]
    for name, value in sorted(report["inputs"].items()):
        if name == "task":
            argv.insert(1, value)
        elif value is True:
            argv.append(f"--{name.replace('_', '-')}")
        elif value is not None and value is not False:
            argv += [f"--{name.replace('_', '-')}", str(value)]
    return argv


@pytest.mark.parametrize("name", sorted(CASES))
def test_inputs_are_the_routes_declaration(name):
    route = cli._route(cli.build_parser().parse_args(CASES[name]))
    assert set(_json_report(name)["inputs"]) == cli._READS[route]


@pytest.mark.parametrize("name", sorted(CASES))
def test_inputs_replay_the_results(name):
    # the configuration a report echoes is enough to reproduce its results
    report = _json_report(name)
    code, out = _stdout(_replayed(report))
    assert code == 0
    assert json.loads(out)["results"] == report["results"]


def _readme_commands():
    """The argv of each ``seqlab`` command in the README's bash blocks, in order,
    with continuation lines joined and trailing comments dropped."""
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text(), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("seqlab ")]


def test_readme_examples_are_the_readme_cases():
    assert _readme_commands() == [argv for name, argv in CASES.items() if name.startswith("readme_")]


@pytest.mark.parametrize("line", [line.strip() for line in cli.__doc__.splitlines()
                                  if line.strip().startswith("seqlab ")])
def test_help_examples_run(line):
    assert _stdout(shlex.split(line)[1:])[0] == 0


if __name__ == "__main__":
    for name, argv in sorted(CASES.items()):
        code, out = _stdout(argv)
        if code != 0:
            raise SystemExit(f"case {name} exited {code}")
        (GOLDEN / f"{name}.out").write_text(out)
        print(f"wrote {name}.out ({len(out)} bytes)")
    os.environ["COLUMNS"] = "80"
    (GOLDEN / "help").mkdir(exist_ok=True)
    for name, argv in sorted(HELP.items()):
        (GOLDEN / "help" / f"{name}.txt").write_text(_help(argv))
        print(f"wrote help/{name}.txt")

"""Golden corpus: the CLI's stdout must stay byte-identical across refactors.

``tests/golden/cases.json`` maps a case name to its argv; ``tests/golden/<name>.out``
holds the stdout that argv produced when the corpus was captured.  stderr is
not compared because it carries ``elapsed_ms``.  Every case runs with its
working directory set to ``tests/golden/data/``, so file-backed specs name
their fixtures by bare relative paths such as ``file:w.txt`` and the reports,
which echo those specs, do not depend on where the repository lives.

Recapture (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from seqlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = GOLDEN / "data"
CASES = json.loads((GOLDEN / "cases.json").read_text())


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


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name):
    code, out = _stdout(CASES[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text()


if __name__ == "__main__":
    for name, argv in sorted(CASES.items()):
        code, out = _stdout(argv)
        if code != 0:
            raise SystemExit(f"case {name} exited {code}")
        (GOLDEN / f"{name}.out").write_text(out)
        print(f"wrote {name}.out ({len(out)} bytes)")

"""The one spec grammar, fuzzed through the CLI.

Spec heads come from the form tables of every family, plus unknown heads.
Bodies come from a hostile token set: valid numbers, non-finite, huge and
tiny values, empty tokens, extra commas and nested ``spike:set=`` specs.
Numeric flags take hostile values too, but only values that argparse
accepts, so argparse's own exit 2 never occurs.  Whatever the input, ``main`` exits 0
with exactly one ``elapsed_ms=`` line on stderr, or exits 1 with an empty stdout
and exactly one ``seqlab: error:`` line on stderr; no exception escapes it.  A
``does not read --FLAG`` line names a flag that the command line sets.

Sizes stay small: every ``--n`` a run can build is at most 10^5 values, and
larger ones are met only as values the boundary refuses before allocating.
The CI fuzz step runs this file under the larger ``fuzz`` profile registered
in ``conftest.py``.
"""

import contextlib
import io
import os
import re
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqlab import core, matrices, modulus, orlicz, sequences
from seqlab.cli import main
from seqlab.errors import SpecError

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "golden" / "data"

# Each family as README "Spec mini-languages" names it, with its form table.
TABLES = {
    "set": core._SET_FORMS,
    "theta": core._THETA_FORMS,
    "modulus": modulus._MODULUS_FORMS,
    "orlicz": orlicz._FAMILY_FORMS,
    "rho": orlicz._RHO_FORMS,
    "matrix": matrices._MATRIX_FORMS,
    "seq": sequences._SEQUENCE_FORMS,
}

# Valid numbers stay small, so that a generated theta or plateau scheme, and
# so the default truncation built on it, stays far below 10^5 indices.
NUMBERS = ["1", "2", "3", "0.5", "1.5", "-2"]
HOSTILE = NUMBERS + ["nan", "inf", "-inf", "0", "-1", str(2 ** 63), "1e400", "1e-300", "", " ", "x"]
FILES = ["w.txt", "cuts.txt", "idx.txt", "rho.txt", "riesz.txt", "band.csv", "seq.csv", "missing.txt"]

TOKEN = st.sampled_from(HOSTILE)
# one to four tokens with stray commas between them
LIST_BODY = st.lists(st.sampled_from(HOSTILE + [","]), min_size=0, max_size=4).map(",".join)


# Valid specs of each family, so that runs also get past the boundary.
VALID = {
    "set": ["evens", "odds", "squares", "arith:3,5", "list:1,4,9", "file:idx.txt"],
    "theta": ["powers2", "geometric:1.5", "explicit:1,2,4,8,16,32,64", "file:cuts.txt"],
    "modulus": ["id", "log1p", "pow:0.5", "bounded"],
    "orlicz": ["linear", "poly:2", "explog", "weighted:base=poly:2,weights=file:w.txt"],
    "rho": ["const:1", "const:0.5", "file:rho.txt"],
    "matrix": ["identity", "cesaro", "riesz:file=riesz.txt", "file:band.csv"],
    "seq": ["const:1", "alt", "alt:1,0", "harmonic:0", "spike:set=squares,base=2,delta=1", "list:3,4",
            "file:seq.csv"],
}


def spec(family, depth=2):
    """A spec of ``family``: a valid one, or a known or unknown head with a
    hostile body."""
    heads = st.sampled_from(sorted(TABLES[family]) + ["bogus", "bogus:", ""])
    hostile = st.builds(lambda head, rest: head + rest if head.endswith(":") else head,
                        heads, body(family, depth))
    return st.sampled_from(VALID[family]) | hostile


def body(family, depth):
    """The body after a head: numbers, a file, or a family's key=value fields."""
    options = [LIST_BODY, st.sampled_from(FILES), st.just("")]
    if depth > 0:
        options.append(st.builds(lambda s, b, d: f"set={s},base={b},delta={d}",
                                 spec("set", depth - 1) | spec("seq", depth - 1), TOKEN, TOKEN))
        options.append(st.builds(lambda b, w: f"base={b},weights={w}", spec("orlicz", depth - 1),
                                 st.sampled_from(["file:w.txt", "file:rho.txt"]) | TOKEN))
    if family == "matrix":
        options.append(st.sampled_from(["file=riesz.txt", "file=w.txt", "file=missing.txt"]))
    return st.one_of(options)


INTS = st.sampled_from([-5, -1, 0, 1, 2, 6, 12, 63, 2 ** 63])
N = st.sampled_from([-5, 0, 1, 2, 99, 100, 1000, 4096, 100_000, core.MATERIALIZE_CAP + 1, 2 ** 63])
# a depth's cost grows with it, so a huge one must be refused at the boundary
DEPTH = st.sampled_from([-3, -1, 0, 1, 2, 3, 10, 1001, 2 ** 63 - 1])
FLOATS = st.sampled_from(["nan", "inf", "-inf", "1e400", "0", "-1", "1e-12", "1e-300", "0.5", "1", "2",
                          str(2 ** 63)])


@st.composite
def flags(draw, pairs):
    """Each (flag, strategy) pair present one time in three, as ``--flag=value``,
    which argparse takes even for a value such as ``-inf`` that starts with a dash."""
    return [f"{flag}={draw(values)}" for flag, values in pairs if draw(st.integers(0, 2)) == 0]


COMMON = [("--n", N), ("--blocks", INTS), ("--tol", FLOATS)]


@st.composite
def argv(draw):
    """A command line argparse accepts, with hostile specs and numbers."""
    command = draw(st.sampled_from(["density", "membership", "norm", "witness", "check"]))
    if command == "density":
        return ["density", f"--set={draw(spec('set'))}"] + draw(flags([
            ("--modulus", spec("modulus")), ("--n", N), ("--tol", FLOATS)]))
    if command == "check":
        return ["check"] + draw(flags([("--modulus", spec("modulus")), ("--orlicz", spec("orlicz"))]))
    if command == "norm":
        return ["norm", "--kind", draw(st.sampled_from(["luxemburg", "orlicz", "block-mean"])),
                f"--seq={draw(spec('seq'))}"] + draw(flags([("--orlicz", spec("orlicz")),
                                                          ("--theta", spec("theta"))] + COMMON))
    space = [("--matrix", spec("matrix")), ("--orlicz", spec("orlicz")), ("--theta", spec("theta")),
             ("--rho", spec("rho")), ("--modulus", spec("modulus")), ("--alpha", FLOATS),
             ("--nu", FLOATS), ("--rho-value", FLOATS), ("--limit", FLOATS), ("--eps", FLOATS)] + COMMON
    if command == "membership":
        head = ["membership", "--mode", draw(st.sampled_from(["mean", "count", "density"]))]
        source = draw(st.sampled_from(["--seq", "--seq", "--witness", None]))
        if source == "--seq":
            head.append(f"--seq={draw(spec('seq'))}")
        elif source:
            head += ["--witness", draw(st.sampled_from(["half-plateau", "block-spike"]))]
        if draw(st.booleans()):
            head.append("--estimate-limit")
        return head + draw(flags(space))
    task = draw(st.sampled_from(["extract", "cauchy", "half-plateau", "block-spike", "probe"]))
    seq = [f"--seq={draw(spec('seq'))}"] if draw(st.integers(0, 3)) else []
    return ["witness", task] + seq + draw(flags(space + [
        ("--depth", DEPTH),
        ("--probe-moduli", st.lists(spec("modulus") | TOKEN, max_size=3).map(",".join))]))


def run(args):
    """main(args) in the fixture directory, with warnings shown on its stderr
    as a plain run would show them."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(DATA)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("always")
            code = main(args)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(args=argv())
def test_cli_exit_contract_under_fuzzing(args):
    code, out, err = run(args)
    assert code in (0, 1)
    if code == 1:
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("seqlab: error: "), err
        # a refusal names a flag the command line set, never one left at its default
        unread = re.search(r" does not read (--[a-z-]+)$", err.rstrip("\n"))
        assert unread is None or any(a == unread[1] or a.startswith(unread[1] + "=") for a in args), err
    else:  # the one timing line and nothing else, so no warning reaches stderr
        assert re.fullmatch(r"elapsed_ms=\d+\.\d\n", err), err


# Each boundary hole the grammar closes: an input that once exited 0, or
# exited 1 naming the wrong input or none, and the field its one line names.
HOLES = [
    (["norm", "--kind", "luxemburg", "--orlicz", "poly:inf", "--seq", "list:3,4"], "p"),
    (["norm", "--kind", "luxemburg", "--orlicz", "poly:nan", "--seq", "list:3,4"], "p"),
    (["norm", "--kind", "block-mean", "--theta", "geometric:nan", "--blocks", "4",
      "--seq", "const:1", "--n", "64"], "q"),
    (["density", "--set", "list:9223372036854775808"], "index"),
    (["norm", "--kind", "block-mean", "--theta", "powers2", "--blocks", "64",
      "--seq", "const:1", "--n", "64"], "blocks"),
    (["membership", "--seq", "const:1", "--n", "0", "--limit", "1", "--mode", "mean"], "n"),
    (["membership", "--seq", "const:1", "--n", "-5", "--limit", "1", "--mode", "mean"], "n"),
    # refused by its range, before 8 GB could be asked for
    (["membership", "--seq", "const:1", "--n", "1000000000", "--limit", "1", "--mode", "mean"], "n"),
]


@pytest.mark.parametrize("args, field", HOLES)
def test_boundary_hole_exits_one_naming_the_field(args, field):
    code, out, err = run(args)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"seqlab: error: {field} must be "), err


@pytest.mark.parametrize("build, message", [
    (lambda: core.make_index_set("arith:3"),
     "d must be an integer in [1, 2^63 - 1], got '' in spec 'arith:3'"),
    (lambda: core.make_lacunary("geometric:1", 4),
     "q must be a finite number in (1, 1e+18], got '1' in spec 'geometric:1'"),
    (lambda: core.make_lacunary("geometric:1.5", 200),
     "blocks must be an integer in [1, 107], got 200 in spec 'geometric:1.5'"),
    (lambda: core.make_lacunary("explicit:0,3,x"),
     "cut must be an integer in [0, 2^63 - 1], got 'x' in spec 'explicit:0,3,x'"),
    (lambda: core.make_lacunary("explicit:, ,"), "no cut in spec 'explicit:, ,'"),
    (lambda: modulus.make_modulus("pow:1e400"),
     "p must be a finite number in (0, 1] for subadditivity, got '1e400' in spec 'pow:1e400'"),
    (lambda: orlicz.make_orlicz("poly:0.5"),
     "p must be a finite number in [1, inf) for convexity, got '0.5' in spec 'poly:0.5'"),
    (lambda: orlicz.make_rho("const:0"), "c must be a finite number in (0, inf), got '0' in spec 'const:0'"),
    (lambda: sequences.make_sequence("alt:1,2,3", 4),
     "b must be a finite number, got '2,3' in spec 'alt:1,2,3'"),
    (lambda: sequences.make_sequence("spike:set=evens,delta=nan", 4),
     "delta must be a finite number, got 'nan' in spec 'spike:set=evens,delta=nan'"),
    (lambda: sequences.make_sequence("harmonic:0"), "sequence spec 'harmonic:0' needs a truncation length n"),
    (lambda: sequences.make_sequence("list:1,2", core.MATERIALIZE_CAP + 1),
     "n must be an integer in [1, 50000000], got 50000001 in spec 'list:1,2'"),
    (lambda: matrices.make_matrix("cesaro:"), "unknown matrix spec 'cesaro:'"),
    (lambda: orlicz.make_family("weighted:base=linear,weights=w.txt"), "unknown weights spec 'w.txt'"),
])
def test_one_error_form(build, message):
    with pytest.raises(SpecError) as info:
        build()
    assert str(info.value) == message


def readme_heads():
    """family -> the set of heads README "Spec mini-languages" lists for it."""
    text = (ROOT / "README.md").read_text()
    section = text.split("### Spec mini-languages", 1)[1].split("\n### ", 1)[0]
    heads = {}
    for row in re.findall(r"^\| (\w+)-spec \| ([^|]+) \|", section, flags=re.M):
        family, forms = row
        heads[family] = {re.match(r"[^:]*:?", form).group() for form in re.findall(r"`([^`]+)`", forms)}
    return heads


def test_readme_lists_the_heads_of_every_form_table():
    assert readme_heads() == {family: set(table) for family, table in TABLES.items()}

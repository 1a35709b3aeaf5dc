import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from seqlab import cli
from seqlab.cli import main
from seqlab.sequences import make_sequence
from seqlab.witnesses import BLOCK_SPIKE_DISCREPANCY


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, _ = run(capsys, argv)
    assert code == 0
    return json.loads(out)


class TestDensityCommand:
    def test_f_density(self, capsys):
        payload = run_json(capsys, ["density", "--set", "squares", "--modulus", "log1p",
                                    "--n", "1000000", "--tol", "0.02"])
        assert payload["schema_version"] == "seqlab/1"
        assert payload["results"]["verdict"] == "converged"
        assert abs(payload["results"]["value"] - 0.5) <= 0.02
        assert payload["warnings"] == []

    def test_natural_density(self, capsys):
        payload = run_json(capsys, ["density", "--set", "evens", "--n", "100000"])
        assert abs(payload["results"]["value"] - 0.5) <= 1e-3

    def test_bounded_modulus_exits_one(self, capsys):
        code, out, err = run(capsys, ["density", "--set", "squares", "--modulus", "bounded",
                                      "--n", "1000"])
        assert code == 1
        assert "bounded modulus" in err

    def test_unknown_set_exits_one(self, capsys):
        code, _, err = run(capsys, ["density", "--set", "primes", "--n", "1000"])
        assert code == 1
        assert "unknown set spec" in err


class TestMembershipCommand:
    def test_half_plateau_mean_member(self, capsys):
        payload = run_json(capsys, ["membership", "--witness", "half-plateau",
                                    "--mode", "mean", "--blocks", "10"])
        assert payload["results"]["verdict"] == "member"

    def test_half_plateau_count_non_member(self, capsys):
        payload = run_json(capsys, ["membership", "--witness", "half-plateau",
                                    "--mode", "count", "--blocks", "10"])
        assert payload["results"]["verdict"] == "non-member"
        trail = payload["results"]["exceedance_ratios"]
        assert trail[-1] == pytest.approx(0.5)

    def test_constant_density_member(self, capsys):
        payload = run_json(capsys, ["membership", "--seq", "const:3", "--limit", "3",
                                    "--mode", "density", "--modulus", "id", "--n", "1000"])
        assert payload["results"]["verdict"] == "member"

    def test_block_spike_warning_attached(self, capsys):
        payload = run_json(capsys, ["membership", "--witness", "block-spike",
                                    "--mode", "mean", "--blocks", "12"])
        assert payload["results"]["verdict"] == "non-member"
        assert any("block-spike" in w for w in payload["warnings"])

    def test_estimate_limit(self, capsys):
        payload = run_json(capsys, ["membership", "--seq", "const:7", "--estimate-limit",
                                    "--mode", "mean", "--modulus", "id", "--blocks", "6"])
        assert payload["inputs"]["limit"] == 7.0
        assert payload["results"]["verdict"] == "member"

    def test_estimate_limit_at_the_float_range(self, capsys):
        # averaging the two middle values of 1e308 would overflow
        payload = run_json(capsys, ["membership", "--seq", "const:1e308", "--estimate-limit",
                                    "--mode", "density", "--n", "1000"])
        assert payload["inputs"]["limit"] == 1e308
        assert payload["results"]["verdict"] == "member"

    def test_missing_limit_exits_one(self, capsys):
        code, _, err = run(capsys, ["membership", "--seq", "const:3", "--mode", "mean"])
        assert code == 1
        assert "limit" in err


@pytest.mark.parametrize("eps", ["nan", "inf"])
@pytest.mark.parametrize("argv", [
    ["membership", "--seq", "alt:1,2", "--limit", "1", "--mode", "density",
     "--modulus", "log1p", "--n", "10000"],
    ["witness", "cauchy", "--seq", "harmonic:0", "--modulus", "id", "--n", "10000"],
])
def test_non_finite_eps_exits_one(capsys, argv, eps):
    code, out, err = run(capsys, argv + ["--eps", eps])
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "eps must be positive and finite" in err


@pytest.mark.parametrize("argv, name", [
    (["witness", "half-plateau", "--nu", "nan"], "nu"),
    (["witness", "half-plateau", "--nu", "inf"], "nu"),
    (["witness", "half-plateau", "--rho-value", "nan"], "rho"),
    (["witness", "half-plateau", "--rho-value", "inf"], "rho"),
    (["membership", "--witness", "half-plateau", "--mode", "mean", "--nu", "nan"], "nu"),
])
def test_non_finite_half_plateau_exits_one(capsys, argv, name):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and f"{name} must be finite" in err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_block_spike_rho_exits_one(capsys, bad):
    code, out, err = run(capsys, ["witness", "block-spike", "--rho-value", bad])
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and f"rho constant must be positive and finite, got {bad}" in err


@pytest.mark.parametrize("argv, message", [
    (["witness", "half-plateau", "--nu", "-1"], "plateau height nu must be >= 0"),
    (["witness", "half-plateau", "--rho-value", "0"], "rho must be positive"),
    (["witness", "block-spike", "--rho-value", "0"], "rho constant must be positive and finite, got 0.0"),
    (["membership", "--mode", "mean", "--limit", "1"], "membership needs --seq or --witness"),
], ids=["half-plateau-nu", "half-plateau-rho", "block-spike-rho", "membership-no-source"])
def test_out_of_range_instance_or_no_source_exits_one(capsys, argv, message):
    assert run(capsys, argv) == (1, "", f"seqlab: error: {message}\n")


def test_short_riesz_weights_exit_one_naming_the_row(capsys, tmp_path):
    # six powers-of-2 blocks end at row 64, which five weights cannot reach
    weights = tmp_path / "w.txt"
    weights.write_text("1\n2\n3\n4\n5\n")
    argv = ["membership", "--seq", "harmonic:0", "--limit", "0", "--mode", "mean",
            "--matrix", f"riesz:file={weights}", "--blocks", "6"]
    assert run(capsys, argv) == (1, "", "seqlab: error: riesz weights cover only 5 rows, row 64 requested\n")


def unread(route, flag):
    return f"seqlab: error: {route} does not read --{flag}\n"


SEQ_ROUTE = ["--seq", "const:1", "--n", "2000"]
AT_DEFAULTS = ["--theta", "powers2", "--alpha", "1", "--orlicz", "linear", "--rho", "const:1"]


@pytest.mark.parametrize("argv, err", [
    (["witness", "half-plateau", "--rho", "bogus", "--matrix", "nope", "--seq", "nope", "--modulus", "nope",
      "--probe-moduli", "x"], unread("witness half-plateau", "seq")),
    (["membership", "--witness", "half-plateau", "--mode", "mean", "--matrix", "bogus", "--orlicz", "bogus",
      "--rho", "nope"], unread("membership --witness half-plateau", "matrix")),
    (["witness", "block-spike", "--eps", "5", "--limit", "3"], unread("witness block-spike", "limit")),
    (["witness", "block-spike", "--n", "100"], unread("witness block-spike", "n")),
    (["witness", "block-spike", "--depth", "3"], unread("witness block-spike", "depth")),
    (["witness", "block-spike", "--nu", "2"], unread("witness block-spike", "nu")),
    (["witness", "half-plateau", "--modulus", "id"], unread("witness half-plateau", "modulus")),
    (["witness", "half-plateau", "--alpha", "0.5"], unread("witness half-plateau", "alpha")),
    (["witness", "half-plateau", "--theta", "geometric:1.5"], unread("witness half-plateau", "theta")),
    (["membership", "--witness", "block-spike", "--mode", "count", "--estimate-limit"],
     unread("membership --witness block-spike", "estimate-limit")),
    (["membership", "--witness", "block-spike", "--mode", "count", "--eps", "0"],
     unread("membership --witness block-spike", "eps")),
    (["membership", "--witness", "half-plateau", "--mode", "density", "--orlicz", "poly:2"],
     unread("membership --witness half-plateau", "orlicz")),
    (["membership", "--mode", "mean", "--limit", "1", "--rho-value", "2"] + SEQ_ROUTE,
     unread("membership --seq", "rho-value")),
    (["witness", "probe", "--probe-moduli", "id", "--nu", "nan"] + SEQ_ROUTE, unread("witness probe", "nu")),
    (["witness", "extract", "--rho-value", "1.5"] + SEQ_ROUTE, unread("witness extract", "rho-value")),
    (["witness", "probe", "--probe-moduli", "id", "--modulus", "log1p"] + SEQ_ROUTE,
     unread("witness probe", "modulus")),
    (["witness", "probe", "--probe-moduli", "id", "--limit", "5"] + SEQ_ROUTE, unread("witness probe", "limit")),
    (["witness", "probe", "--probe-moduli", "id", "--depth", "7"] + SEQ_ROUTE, unread("witness probe", "depth")),
    (["witness", "probe", "--probe-moduli", "id", "--rho-value", "2"] + SEQ_ROUTE,
     unread("witness probe", "rho-value")),
    (["witness", "cauchy", "--modulus", "id", "--limit", "5"] + SEQ_ROUTE, unread("witness cauchy", "limit")),
    (["witness", "cauchy", "--modulus", "id", "--probe-moduli", "nope"] + SEQ_ROUTE,
     unread("witness cauchy", "probe-moduli")),
    (["witness", "cauchy", "--modulus", "id", "--nu", "2"] + SEQ_ROUTE, unread("witness cauchy", "nu")),
    (["witness", "extract", "--modulus", "id", "--probe-moduli", "id"] + SEQ_ROUTE,
     unread("witness extract", "probe-moduli")),
    # the --seq witness tasks build no scheme of their own, and cauchy scores with no family or rho
    (["witness", "probe", "--probe-moduli", "id", "--theta", "geometric:1.5"] + SEQ_ROUTE,
     unread("witness probe", "theta")),
    (["witness", "probe", "--probe-moduli", "id", "--blocks", "200"] + SEQ_ROUTE, unread("witness probe", "blocks")),
    (["witness", "probe", "--probe-moduli", "id", "--alpha", "0.5"] + SEQ_ROUTE, unread("witness probe", "alpha")),
    (["witness", "extract", "--modulus", "id", "--theta", "bogus"] + SEQ_ROUTE, unread("witness extract", "theta")),
    (["witness", "extract", "--modulus", "id", "--blocks", "3"] + SEQ_ROUTE, unread("witness extract", "blocks")),
    (["witness", "extract", "--modulus", "id", "--alpha", "nan"] + SEQ_ROUTE, unread("witness extract", "alpha")),
    (["witness", "cauchy", "--modulus", "id", "--theta", "powers2:"] + SEQ_ROUTE, unread("witness cauchy", "theta")),
    (["witness", "cauchy", "--modulus", "id", "--blocks", "0"] + SEQ_ROUTE, unread("witness cauchy", "blocks")),
    (["witness", "cauchy", "--modulus", "id", "--alpha", "2"] + SEQ_ROUTE, unread("witness cauchy", "alpha")),
    (["witness", "cauchy", "--modulus", "id", "--orlicz", "explog"] + SEQ_ROUTE, unread("witness cauchy", "orlicz")),
    (["witness", "cauchy", "--modulus", "id", "--rho", "const:5"] + SEQ_ROUTE, unread("witness cauchy", "rho")),
    # each norm kind refuses what it ignores: the gauge kinds the scheme, block-mean the gauge and its tolerance
    (["norm", "--kind", "luxemburg", "--orlicz", "poly:2", "--seq", "list:3,4", "--theta", "bogus"],
     unread("norm luxemburg", "theta")),
    (["norm", "--kind", "orlicz", "--seq", "list:3,4", "--blocks", "4"], unread("norm orlicz", "blocks")),
    (["norm", "--kind", "block-mean", "--blocks", "4", "--seq", "const:1", "--n", "16", "--orlicz", "nope"],
     unread("norm block-mean", "orlicz")),
    (["norm", "--kind", "block-mean", "--blocks", "4", "--seq", "const:1", "--n", "16", "--orlicz", "nope",
      "--tol", "5"], unread("norm block-mean", "tol")),
], ids=["half-plateau-junk", "membership-half-plateau-junk", "block-spike-eps-limit", "block-spike-n",
        "block-spike-depth", "block-spike-nu", "half-plateau-modulus", "half-plateau-alpha", "half-plateau-theta",
        "membership-estimate", "membership-eps-zero", "membership-half-plateau-orlicz", "membership-seq-rho-value",
        "probe-nu", "extract-rho-value", "probe-modulus", "probe-limit", "probe-depth", "probe-rho-value",
        "cauchy-limit", "cauchy-probe-moduli", "cauchy-nu", "extract-probe-moduli", "probe-theta", "probe-blocks",
        "probe-alpha", "extract-theta", "extract-blocks", "extract-alpha", "cauchy-theta", "cauchy-blocks",
        "cauchy-alpha", "cauchy-orlicz", "cauchy-rho", "luxemburg-theta", "orlicz-blocks", "block-mean-orlicz",
        "block-mean-tol"])
def test_unread_flags_are_refused_before_any_generation(capsys, monkeypatch, argv, err):
    # a flag set away from its default on a route that does not read it is one error line, and nothing is generated
    from seqlab import witnesses
    calls = []
    monkeypatch.setattr(cli, "make_sequence", lambda *args: calls.append(args))
    for name in ("gen_half_plateau_instance", "gen_block_spike_instance"):
        monkeypatch.setattr(witnesses, name, lambda *args, name=name: calls.append(name))
    assert run(capsys, argv) == (1, "", err)
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["witness", "block-spike", "--eps", "0.1", "--matrix", "identity", "--rho", "const:1"],
    ["witness", "half-plateau", "--orlicz", "linear", "--alpha", "1", "--theta", "powers2"],
    ["membership", "--witness", "half-plateau", "--mode", "density", "--modulus", "log1p", "--nu", "2"],
    ["membership", "--mode", "mean", "--limit", "1", "--nu", "1", "--rho-value", "1.0"] + SEQ_ROUTE,
    ["witness", "probe", "--probe-moduli", "id"] + AT_DEFAULTS + SEQ_ROUTE,
    ["witness", "extract", "--modulus", "id", "--limit", "1"] + AT_DEFAULTS + SEQ_ROUTE,
    ["witness", "cauchy", "--modulus", "id"] + AT_DEFAULTS + SEQ_ROUTE,
    ["norm", "--kind", "block-mean", "--orlicz", "poly:2", "--blocks", "4", "--seq", "const:1", "--n", "16"],
    ["norm", "--kind", "luxemburg", "--theta", "powers2", "--orlicz", "poly:2", "--seq", "list:3,4"],
    ["norm", "--kind", "orlicz", "--theta", "powers2", "--seq", "list:3,4"],
], ids=["block-spike", "half-plateau", "membership-witness", "membership-seq", "probe", "extract", "cauchy",
        "block-mean", "luxemburg", "orlicz"])
def test_flags_at_their_defaults_are_not_refused(capsys, argv):
    assert run_json(capsys, argv)["schema_version"] == "seqlab/1"


# the flags no route reads or refuses: help and the output
NEVER_REFUSED = {"help", "format", "out"}


def test_every_refusable_flag_has_one_default_and_every_route_declares_its_reads():
    # each flag is refused against its own subcommand's default, so only the order is declared
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    routes = set()
    for command, parser in sub.items():
        dests = {a.dest for a in parser._actions} - NEVER_REFUSED
        picks = next((a.choices for a in parser._actions if a.dest in ("kind", "task", "witness")), [""])
        if command == "membership":
            own = {"membership --seq"} | {f"membership --witness {pick}" for pick in picks}
        else:
            own = {f"{command} {pick}".strip() for pick in picks}
        for route in own:  # a new flag is refused on every route of its command until one declares it
            assert cli._READS[route] <= dests, route
            assert dests - cli._READS[route] <= set(cli._REFUSAL_ORDER), route
        routes |= own
    assert set(cli._READS) == routes and len(routes) == 13
    assert len(set(cli._REFUSAL_ORDER)) == len(cli._REFUSAL_ORDER)
    assert all(any(name not in reads for reads in cli._READS.values()) for name in cli._REFUSAL_ORDER)


def test_readme_states_the_declaration_and_the_refusal_order():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()

    def flags(names):  # the witness task is the positional `task`
        return [f"`{name}`" if name == "task" else f"`--{name.replace('_', '-')}`" for name in names]

    rows = dict(re.findall(r"^\| `([a-z -]+)` \| (`.*`) \|$", text, re.M))
    assert set(rows) == set(cli._READS)
    for route, reads in cli._READS.items():
        assert sorted(rows[route].split(", ")) == sorted(flags(reads)), route
    order = re.search(r"the first in this order is\s+named: (.*?)\.\n", text, re.S)[1]
    assert re.split(r",\s+", order) == flags(cli._REFUSAL_ORDER)


def test_block_spike_takes_twelve_blocks_under_both_commands(capsys):
    member = run_json(capsys, ["membership", "--witness", "block-spike", "--mode", "mean"])
    witness = run_json(capsys, ["witness", "block-spike"])
    assert member["inputs"]["blocks"] == witness["inputs"]["blocks"] == 12
    assert member["results"]["block_residuals"] == witness["results"]["residuals"]
    assert len(witness["results"]["residuals"]) == 12


@pytest.mark.parametrize("task", [["probe", "--probe-moduli", "id"], ["extract", "--modulus", "id", "--limit", "1"],
                                  ["cauchy", "--modulus", "id"]], ids=["probe", "extract", "cauchy"])
def test_witness_data_keeps_its_own_length_when_n_is_unset(capsys, tmp_path, task):
    # list and file data cannot be extended, so an unset --n takes their length, as under norm
    values = [1.0 + (-1) ** i / i for i in range(1, 301)]
    path = tmp_path / "seq.csv"
    path.write_text("i,value\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(values, start=1)))
    for spec in ("list:" + ",".join(map(repr, values)), f"file:{path}"):
        assert run_json(capsys, ["witness", *task, "--seq", spec])["inputs"]["n"] == 300
    # a generated sequence is made to 100,000 terms
    assert run_json(capsys, ["witness", *task, "--seq", "harmonic:1"])["inputs"]["n"] == 100_000


def test_witness_probe_of_five_values_is_refused_for_their_length(capsys):
    # the limit estimate needs 100 terms; the five given ones are all it is offered
    argv = ["witness", "probe", "--seq", "list:1,2,3,1,2", "--probe-moduli", "id"]
    assert run(capsys, argv) == (1, "", "seqlab: error: truncation must be >= 100, got 5\n")


@pytest.mark.parametrize("theta", ["powers2", "geometric:1.5"])
def test_block_mean_theta_generated_to_a_count_needs_blocks(capsys, theta):
    argv = ["norm", "--kind", "block-mean", "--seq", "const:1", "--n", "16", "--theta", theta]
    assert run(capsys, argv) == (1, "", f"seqlab: error: theta spec {theta!r} needs --blocks, its block count\n")


def test_block_mean_listed_cuts_are_used_whole_without_blocks(capsys, tmp_path):
    path = tmp_path / "cuts.txt"
    path.write_text("2\n4\n8\n16\n")
    for theta in ("explicit:2,4,8,16", f"file:{path}"):
        payload = run_json(capsys, ["norm", "--kind", "block-mean", "--seq", "const:1", "--n", "16", "--theta", theta])
        assert payload["results"] == {"cuts": [0, 2, 4, 8, 16], "value": 1.0}
        assert payload["inputs"]["blocks"] == 4


def test_explicit_matrix_overflow_exits_one(capsys, tmp_path):
    # row 2 sums two finite terms to inf; row 1 alone is fine
    p = tmp_path / "m.csv"
    p.write_text("i,k,a\n1,1,1\n2,1,1e300\n2,2,1e300\n" + "".join(f"{i},{i},1\n" for i in range(3, 9)))
    code, out, err = run(capsys, ["membership", "--seq", "list:1e8,1e8,1,1,1,1,1,1", "--limit", "0",
                                  "--mode", "mean", "--matrix", f"file:{p}",
                                  "--theta", "explicit:1,2,3,4,5,6,7", "--blocks", "6"])
    assert code == 1
    assert out == ""
    assert err == "seqlab: error: non-finite accumulation at row 2\n"


OVERFLOWING = ",".join(["1.5e308,-1.5e308"] * 60)


@pytest.mark.parametrize("argv, message", [
    (["membership", "--seq", "const:1e300", "--limit", "0", "--mode", "mean", "--orlicz", "poly:2",
      "--blocks", "6"], "non-finite score at index 1"),
    (["membership", "--seq", "const:1e300", "--limit", "0", "--mode", "density", "--orlicz", "poly:2",
      "--blocks", "6", "--n", "1000"], "non-finite score at index 1"),
    (["witness", "extract", "--seq", "const:1e300", "--limit", "0", "--orlicz", "poly:2", "--n", "1000"],
     "non-finite score at index 1"),
    (["membership", "--seq", "list:1e308,1e308,1,1,1,1,1,1", "--limit", "0", "--mode", "mean",
      "--matrix", "cesaro", "--theta", "explicit:1,2,3,4,5,6,7", "--blocks", "6"],
     "non-finite accumulation at row 2"),
    (["witness", "cauchy", "--seq", f"list:{OVERFLOWING}", "--n", "120"],
     "sequence 'dev@120' contains non-finite values"),
    (["membership", "--seq", f"list:{OVERFLOWING}", "--mode", "density", "--estimate-limit", "--n", "120"],
     "the transformed values spread past the float range; supply --limit"),
    # each route words the spread refusal for itself: extract takes --limit, the probe does not
    (["witness", "extract", "--seq", f"list:{OVERFLOWING}", "--n", "120"],
     "the transformed values spread past the float range; supply --limit"),
    (["witness", "probe", "--seq", f"list:{OVERFLOWING}", "--probe-moduli", "id", "--n", "120"],
     "the transformed values spread past the float range, so the probe cannot bin them"),
    # the height search meets a gauge past the float range
    (["witness", "block-spike", "--orlicz", "explog", "--rho-value", "1e-300", "--blocks", "8"],
     "non-finite score at index 2"),
    # finite scores, but the two of block 1 sum past the float range
    (["membership", "--seq", "alt:1.5e308,-1.5e308", "--limit", "2", "--mode", "mean", "--n", "3000"],
     "non-finite sum of scores in block 1"),
], ids=["mean-score", "density-score", "extract-score", "cesaro-row", "cauchy-dev", "estimate-spread",
        "extract-spread", "probe-spread", "block-spike-gauge", "block-sum"])
def test_overflow_exits_one_with_one_line(capsys, argv, message):
    # the ini setting turns any RuntimeWarning into an error, so none may precede the line
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == f"seqlab: error: {message}\n"


SPIKE = "spike:set=squares,base=1.5,delta=2"
WEIGHTED = "weighted:base=poly:2,weights=file:{weights}"


@pytest.mark.parametrize("argv, bound", [
    (["witness", "probe", "--seq", SPIKE, "--probe-moduli", "id,log1p"], 2.5),
    (["witness", "extract", "--seq", SPIKE, "--modulus", "id"], 2.5),
    (["witness", "cauchy", "--seq", "harmonic:0.5", "--modulus", "id"], 2.5),
    (["membership", "--seq", "alt:1,2", "--limit", "1", "--mode", "density", "--modulus", "log1p"], 2.5),
    (["membership", "--seq", "harmonic:1", "--estimate-limit", "--mode", "density", "--modulus", "id"], 2.5),
    (["membership", "--seq", "alt:1,2", "--limit", "1", "--mode", "count", "--blocks", "20"], 2.5),
    (["membership", "--seq", "alt:1,2", "--limit", "1", "--mode", "mean", "--blocks", "20"], 2.5),
    (["norm", "--kind", "luxemburg", "--orlicz", "explog", "--seq", "alt:1.003,-2.01"], 2.5),
    (["norm", "--kind", "orlicz", "--orlicz", "explog", "--seq", "alt:1.003,-2.01"], 2.5),
    (["norm", "--kind", "luxemburg", "--orlicz", WEIGHTED, "--seq", "alt:1.003,-2.01"], 3.5),
    (["norm", "--kind", "orlicz", "--orlicz", WEIGHTED, "--seq", "alt:1.003,-2.01"], 3.5),
], ids=["probe", "extract", "cauchy", "membership", "harmonic-estimate", "count", "mean", "luxemburg",
        "orlicz", "weighted-luxemburg", "weighted-orlicz"])
def test_peak_memory_in_prefix_sizes(capsys, tmp_path, argv, bound):
    # the prefix x, the scores and O(block) or O(members) scratch; the limit
    # estimate's sorted copy of the prefix, which probe, extract and
    # --estimate-limit make first, is dropped before any candidate is scored
    # (harmonic's values are all distinct), and the block modes count a one-byte mask.
    # A norm holds x, |x| / max|x| and O(block) scratch, and a weighted one its
    # weight table.
    n = 2 ** 20
    weights = tmp_path / "w.txt"
    weights.write_text("1.5\n" * n)
    argv = [arg.format(weights=weights) for arg in argv]
    tracemalloc.start()
    try:
        code = main(argv + ["--n", str(n)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak <= bound * 8 * n, f"peaked at {peak / (8 * n):.2f} x the prefix's bytes"


@pytest.mark.parametrize("spec", ["const:2", "spike:set=squares,base=1,delta=2", "alt:1,2", "harmonic:1"])
def test_generation_peak_memory(spec):
    # each generator builds its values in one array, which the prefix takes over uncopied
    n = 2 ** 20
    tracemalloc.start()
    try:
        make_sequence(spec, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * 8 * n, f"peaked at {peak / (8 * n):.2f} x the prefix's bytes"


@pytest.mark.parametrize("size", [3 * 2 ** 14 + 4, 3])
def test_short_weight_table_exits_one_naming_index_n(capsys, tmp_path, size):
    # the norm's modular passes run in blocks; the one holding index n goes first
    n = 3 * 2 ** 14 + 5
    path = tmp_path / "w.txt"
    path.write_text("1.5\n" * size)
    code, out, err = run(capsys, ["norm", "--kind", "luxemburg", "--seq", "alt:1,-2", "--n", str(n),
                                  "--orlicz", f"weighted:base=poly:2,weights=file:{path}"])
    assert code == 1
    assert out == ""
    assert err == f"seqlab: error: weight table covers 1..{size}, index {n} requested\n"


@pytest.mark.parametrize("limit", ["nan", "inf"])
@pytest.mark.parametrize("argv", [
    ["membership", "--seq", "const:1", "--mode", "density", "--modulus", "id", "--n", "1000"],
    ["membership", "--seq", "const:1", "--mode", "mean", "--blocks", "6"],
    ["witness", "extract", "--seq", "const:1", "--modulus", "id", "--n", "1000"],
])
def test_non_finite_limit_exits_one(capsys, argv, limit):
    code, out, err = run(capsys, argv + ["--limit", limit])
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and f"limit must be finite, got {limit}" in err


@pytest.mark.parametrize("argv", [
    # the estimate wins over a given --limit
    ["membership", "--mode", "count", "--estimate-limit", "--limit", "0.5"],
    ["witness", "extract"],
], ids=["membership", "extract"])
def test_failed_limit_estimate_exits_one(capsys, argv):
    # alt:0,1 leaves exceedance density 1/2 around either value
    code, out, err = run(capsys, argv + ["--seq", "alt:0,1", "--n", "100000"])
    assert code == 1
    assert out == ""
    assert err == "seqlab: error: no candidate limit passed the density test; supply --limit\n"


@pytest.mark.parametrize("tol", ["nan", "inf"])
@pytest.mark.parametrize("modulus", [[], ["--modulus", "log1p"]])
def test_non_finite_tol_exits_one(capsys, tol, modulus):
    code, out, err = run(capsys, ["density", "--set", "evens", "--n", "100000", "--tol", tol]
                         + modulus)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "tolerance must be positive and finite" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
@pytest.mark.parametrize("argv", [
    ["membership", "--seq", "harmonic:0", "--limit", "0", "--mode", "mean", "--blocks", "7"],
    ["membership", "--seq", "harmonic:0", "--limit", "0", "--mode", "count", "--blocks", "7"],
    ["norm", "--kind", "luxemburg", "--seq", "list:3,4"],
    ["norm", "--kind", "orlicz", "--seq", "list:3,4"],
], ids=["mean", "count", "luxemburg", "orlicz"])
def test_bad_tol_exits_one(capsys, argv, tol):
    code, out, err = run(capsys, argv + ["--tol", tol])
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "tolerance must be positive and finite" in err


# Each file-backed spec as the CLI takes it, given the path of its file.
FILE_SPECS = {
    "set": lambda p: ["density", "--set", f"file:{p}", "--n", "1000"],
    "theta": lambda p: ["norm", "--kind", "block-mean", "--theta", f"file:{p}",
                        "--seq", "const:1", "--n", "64"],
    "rho": lambda p: ["membership", "--seq", "const:0", "--limit", "0", "--mode", "mean",
                      "--blocks", "6", "--rho", f"file:{p}"],
    "weights": lambda p: ["norm", "--kind", "luxemburg", "--seq", "list:3,4",
                          "--orlicz", f"weighted:base=poly:2,weights=file:{p}"],
    "riesz": lambda p: ["membership", "--seq", "const:0", "--limit", "0", "--mode", "mean",
                        "--blocks", "6", "--matrix", f"riesz:file={p}"],
    "matrix": lambda p: ["membership", "--seq", "const:0", "--limit", "0", "--mode", "mean",
                         "--blocks", "6", "--matrix", f"file:{p}"],
}


# What the one-line message of each file fault says, besides the file's path.
FILE_FAULTS = {
    "missing": ("cannot read",),
    "empty": ("empty",),
    "non-numeric": ("non-numeric", "non-integer", "malformed"),
    "not-utf8": ("cannot read",),
}


@pytest.mark.parametrize("fault", sorted(FILE_FAULTS))
@pytest.mark.parametrize("spec", sorted(FILE_SPECS))
def test_bad_spec_file_exits_one(capsys, tmp_path, spec, fault):
    path = tmp_path / "spec.txt"
    if fault == "empty":
        path.write_text(" \n\n")
    elif fault == "non-numeric":
        path.write_text("i,k,a\n1,1,one\n" if spec == "matrix" else "1\ntwo\n")
    elif fault == "not-utf8":
        path.write_bytes(b"\xff\xfe1\n")
    code, out, err = run(capsys, FILE_SPECS[spec](path))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and str(path) in err
    assert any(phrase in err for phrase in FILE_FAULTS[fault])


DEGENERATE_FILES = [(spec, text) for spec in sorted(FILE_SPECS) + ["seq"] for text in ("", " \n\t\n")]
DEGENERATE_FILES += [("matrix", "i,k,a\n"), ("seq", "i,value\n")]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec, text", DEGENERATE_FILES)
def test_degenerate_spec_file_exits_one_with_one_line(capsys, tmp_path, spec, text):
    path = tmp_path / "spec.txt"
    path.write_text(text)
    argv = (FILE_SPECS[spec](path) if spec in FILE_SPECS
            else ["norm", "--kind", "luxemburg", "--orlicz", "poly:2", "--seq", f"file:{path}"])
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("seqlab: error: ")


def test_empty_spec_file_under_warnings_as_errors(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "seqlab.cli", "norm", "--kind", "luxemburg",
         "--seq", "list:3,4", "--orlicz", f"weighted:base=poly:2,weights=file:{path}"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"seqlab: error: empty weight file {path}\n"


def numpy_ma_after(argv):
    """Whether ``numpy.ma`` is in ``sys.modules`` after ``main(argv)`` in a fresh interpreter;
    skips where numpy imports it with numpy itself."""
    script = ("import contextlib, io, sys, numpy\n"
              "loaded = 'numpy.ma' in sys.modules\n"
              "from seqlab.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = main(sys.argv[1:])\n"
              "print(code, loaded, 'numpy.ma' in sys.modules)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    code, loaded, after = proc.stdout.split()
    if loaded == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert code == "0"
    return after == "True"


def test_witness_probe_leaves_numpy_ma_unimported():
    # np.median's NaN check and np.unique both import numpy.ma (1.09 MB) on
    # their first call; the probe's limit estimate and counts use neither
    assert not numpy_ma_after(["witness", "probe", "--seq", "spike:set=squares,base=1.234,delta=2",
                               "--n", "100000", "--probe-moduli", "id,log1p"])


@pytest.mark.parametrize("argv", [
    ["check", "--modulus", "pow:0.5"],
    ["density", "--set", "list:5,3,3,1", "--n", "100"],
], ids=["axiom-grid", "unsorted-members"])
def test_distinct_sorts_leave_numpy_ma_unimported(argv):
    # the axiom grid and an unsorted member list are made distinct by comparing
    # sorted neighbours, as np.unique would, without its numpy.ma import
    assert not numpy_ma_after(argv)


def test_norm_past_the_float_range_exits_one(capsys):
    code, out, err = run(capsys, ["norm", "--kind", "luxemburg", "--orlicz", "explog",
                                  "--seq", "list:1.7e308"])
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "overflows the float range" in err


def test_orlicz_scale_past_the_float_range_is_null(capsys):
    payload = run_json(capsys, ["norm", "--kind", "orlicz", "--orlicz", "poly:2",
                                "--seq", "list:5e-324"])
    assert payload["results"]["value"] == 1e-323
    assert payload["results"]["scale"] is None
    assert payload["warnings"] == ["the minimizing scale k lies past the float range"]


def test_truncation_past_int64_exits_one(capsys):
    code, out, err = run(capsys, ["density", "--set", "odds", "--n", str(10 ** 23)])
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "truncation must be <= 2^63 - 1" in err


@pytest.mark.parametrize("spec, text", [("set", "1\n9223372036854775808\n"),
                                        ("theta", "0\n4\n9223372036854775808\n")])
def test_file_entry_past_int64_exits_one(capsys, tmp_path, spec, text):
    path = tmp_path / "big.txt"
    path.write_text(text)
    code, out, err = run(capsys, FILE_SPECS[spec](path))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and str(path) in err and "2^63 - 1" in err


def test_empty_probe_moduli_exits_one(capsys):
    code, out, err = run(capsys, ["witness", "probe", "--seq", "const:1", "--probe-moduli", ",,",
                                  "--n", "1000"])
    assert code == 1
    assert out == ""
    assert err == "seqlab: error: the multi-modulus probe needs at least one modulus\n"


@pytest.mark.parametrize("mode", ["count", "density"])
def test_score_at_eps_is_no_exceedance_in_either_mode(capsys, mode):
    # alt:0,1 against L = 0.5 puts every score at eps = 0.5 exactly, which no mode counts
    payload = run_json(capsys, ["membership", "--seq", "alt:0,1", "--limit", "0.5", "--eps", "0.5",
                                "--blocks", "12", "--n", "100000", "--mode", mode])
    assert payload["results"]["verdict"] == "member"
    assert payload["results"]["exceedance_counts"] == [0] * 12


def bounded(use):
    return f"bounded modulus 'bounded': {use} needs an unbounded modulus"


BOUNDED = bounded("the density mode")
NO_LIMIT = "membership needs --limit or --estimate-limit"


@pytest.mark.parametrize("argv, message", [
    (["witness", "probe", "--probe-moduli", ""], "the multi-modulus probe needs at least one modulus"),
    (["witness", "probe", "--probe-moduli", "id,bounded"], BOUNDED),
    (["membership", "--mode", "density", "--modulus", "bounded", "--limit", "1"], BOUNDED),
    (["membership", "--mode", "density", "--modulus", "bounded", "--estimate-limit"], BOUNDED),
    (["membership", "--mode", "mean"], NO_LIMIT),
    (["membership", "--mode", "count"], NO_LIMIT),
    (["witness", "extract", "--modulus", "bounded"], BOUNDED),
    (["witness", "extract", "--modulus", "bounded", "--limit", "1"], bounded("witness extraction")),
    (["witness", "cauchy", "--modulus", "bounded"], bounded("the Cauchy check")),
    (["membership", "--mode", "count", "--modulus", "bounded", "--estimate-limit"], BOUNDED),
    (["membership", "--mode", "mean", "--modulus", "bounded", "--estimate-limit"], BOUNDED),
    (["membership", "--mode", "mean", "--modulus", "nope", "--limit", "1"], "unknown modulus spec 'nope'"),
], ids=["probe-empty", "probe-bounded", "density-bounded", "density-estimate-bounded",
        "mean-no-limit", "count-no-limit", "extract-estimate-bounded", "extract-bounded",
        "cauchy-bounded", "count-estimate-bounded", "mean-estimate-bounded", "mean-unknown"])
def test_bad_moduli_are_refused_before_the_prefix(capsys, monkeypatch, argv, message):
    from seqlab import cli
    calls = []
    monkeypatch.setattr(cli, "make_sequence", lambda *args: calls.append(args))
    code, out, err = run(capsys, argv + ["--seq", "const:1", "--n", "1000"])
    assert (code, out, err) == (1, "", f"seqlab: error: {message}\n")
    assert calls == []


@pytest.mark.parametrize("task, depth", [("cauchy", "-1"), ("cauchy", "0"), ("extract", "1"),
                                         ("cauchy", "1001"), ("extract", "1001"),
                                         ("cauchy", "9223372036854775807")])
@pytest.mark.parametrize("n", ["1000", "10000"])
def test_depth_is_checked_before_the_data(capsys, task, depth, n):
    # harmonic:0 passes the base Cauchy check at n = 10^4 but not at 10^3
    code, out, err = run(capsys, ["witness", task, "--seq", "harmonic:0", "--depth", depth, "--n", n])
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "--depth" in err


def test_depth_at_the_cap_runs(capsys):
    payload = run_json(capsys, ["witness", "cauchy", "--seq", "const:1", "--n", "1000", "--depth", "1000"])
    assert payload["results"]["cauchy"] is True
    assert len(payload["results"]["anchors"]) == 1000


def test_squares_log1p_at_1e15(capsys):
    n = 10 ** 15
    payload = run_json(capsys, ["density", "--set", "squares", "--modulus", "log1p",
                                "--n", str(n), "--tol", "0.02"])
    res = payload["results"]
    cps = res["checkpoints"]
    assert cps[-1] == n
    counts = np.asarray([math.isqrt(cp) for cp in cps], dtype=float)
    closed_form = np.log1p(counts) / np.log1p(np.asarray(cps, dtype=float))
    assert res["ratios"] == [float(f"{r:.12g}") for r in closed_form]
    assert res["verdict"] == "converged" and abs(res["value"] - 0.5) <= 0.02


class TestNormCommand:
    def test_luxemburg(self, capsys):
        payload = run_json(capsys, ["norm", "--kind", "luxemburg", "--orlicz", "poly:2",
                                    "--seq", "list:3,4"])
        assert payload["results"]["value"] == pytest.approx(5.0, abs=1e-6)

    def test_orlicz(self, capsys):
        payload = run_json(capsys, ["norm", "--kind", "orlicz", "--orlicz", "poly:2",
                                    "--seq", "list:3,4"])
        assert payload["results"]["value"] == pytest.approx(10.0, abs=1e-5)
        assert payload["results"]["attained"] == "interior"
        assert payload["results"]["iterations"] > 0

    def test_block_mean(self, capsys):
        payload = run_json(capsys, ["norm", "--kind", "block-mean", "--theta", "powers2",
                                    "--blocks", "4", "--seq", "const:1", "--n", "16"])
        assert payload["results"]["value"] == 1.0

    def test_block_mean_past_the_float_range_sum(self, capsys):
        # the block sum 2e308 overflows; the block mean does not
        payload = run_json(capsys, ["norm", "--kind", "block-mean", "--theta", "explicit:2",
                                    "--seq", "list:1e308,1e308"])
        assert payload["results"]["value"] == 1e308


class TestWitnessCommand:
    def test_half_plateau(self, capsys):
        payload = run_json(capsys, ["witness", "half-plateau", "--nu", "1", "--rho-value", "1",
                                    "--blocks", "10"])
        r = payload["results"]
        assert r["bound_satisfied"]
        assert r["matches_expected"]
        assert r["mean"]["verdict"] == "member"
        assert r["count"]["verdict"] == "non-member"

    def test_half_plateau_zero_height_past_2_to_1023(self, capsys):
        payload = run_json(capsys, ["witness", "half-plateau", "--nu", "0", "--blocks", "2000"])
        assert payload["results"]["cuts"][-1] == 4000

    @pytest.mark.parametrize("nu, rho, blocks, block", [("1e-320", "1", "1100", 1087),
                                                        ("1e308", "1", "8", 1),
                                                        ("1e308", "0.5", "8", 1)])
    def test_half_plateau_cuts_past_budget(self, capsys, nu, rho, blocks, block):
        code, out, err = run(capsys, ["witness", "half-plateau", "--nu", nu,
                                      "--rho-value", rho, "--blocks", blocks])
        assert code == 1
        assert out == ""
        assert err == f"seqlab: error: plateau cuts exceed the truncation budget (10000000) at block {block}\n"

    def test_block_spike_discrepancy_warning(self, capsys):
        payload = run_json(capsys, ["witness", "block-spike", "--blocks", "12"])
        assert payload["results"]["residuals_at_least_one"]
        assert payload["results"]["one_spike_per_block"]
        assert payload["warnings"] == [BLOCK_SPIKE_DISCREPANCY]

    def test_block_spike_bounded_gauge_exits_one(self, capsys):
        code, _, err = run(capsys, ["witness", "block-spike", "--blocks", "8",
                                    "--orlicz", "poly:0.5"])
        assert code == 1

    def test_extract(self, capsys):
        payload = run_json(capsys, ["witness", "extract",
                                    "--seq", "spike:set=squares,base=2,delta=1",
                                    "--modulus", "id", "--n", "100000"])
        r = payload["results"]
        assert r["limit"] == 2.0
        assert r["density"]["value"] <= 0.01
        assert r["off_check"]["passed"]

    def test_extract_failure_is_payload_not_exit(self, capsys):
        payload = run_json(capsys, ["witness", "extract", "--seq", "alt",
                                    "--modulus", "id", "--limit", "0", "--n", "10000"])
        assert payload["results"]["failure"]["stuck_level"] == 2

    def test_cauchy(self, capsys):
        payload = run_json(capsys, ["witness", "cauchy", "--seq", "harmonic:0",
                                    "--modulus", "id", "--n", "10000", "--depth", "10"])
        r = payload["results"]
        assert r["cauchy"]
        assert abs(r["limit"]) <= 0.2
        assert r["width"] <= 0.2 + 1e-12

    def test_probe(self, capsys):
        payload = run_json(capsys, ["witness", "probe",
                                    "--seq", "spike:set=squares,base=2,delta=1",
                                    "--probe-moduli", "id,log1p", "--n", "100000"])
        r = payload["results"]
        assert r["limits"]["id"] == 2.0
        assert r["limits"]["log1p"] is None
        assert not r["all_agree"]
        assert not r["norm_convergence"]

    def test_probe_repeated_modulus_agrees(self, capsys):
        payload = run_json(capsys, ["witness", "probe", "--seq", "const:3",
                                    "--probe-moduli", "id,id", "--n", "10000"])
        assert payload["results"]["limits"] == {"id": 3.0}
        assert payload["results"]["all_agree"] is True

    def test_probe_spread_past_int64_bins(self, capsys):
        payload = run_json(capsys, ["witness", "probe", "--seq", "alt:0,1e19",
                                    "--probe-moduli", "id", "--n", "100000"])
        assert payload["results"]["limits"] == {"id": None}


@pytest.mark.parametrize("argv, rows, field, value", [
    (["membership", "--mode", "mean", "--limit", "2"], 1024, "verdict", "member"),
    (["membership", "--mode", "count", "--limit", "2"], 1024, "verdict", "member"),
    (["membership", "--mode", "density", "--limit", "2"], 5000, "verdict", "member"),
    (["membership", "--mode", "mean", "--estimate-limit"], 5000, "verdict", "member"),
    (["membership", "--mode", "count", "--estimate-limit"], 5000, "verdict", "member"),
    (["membership", "--mode", "density", "--estimate-limit"], 5000, "verdict", "member"),
    (["witness", "probe", "--probe-moduli", "id,log1p"], 5000, "reference", 2.0),
    (["witness", "extract", "--modulus", "id"], 5000, "limit", 2.0),
    (["witness", "cauchy", "--modulus", "id"], 5000, "cauchy", True),
], ids=["mean", "count", "density", "mean-estimate", "count-estimate", "density-estimate",
        "probe", "extract", "cauchy"])
def test_each_route_transforms_once(capsys, monkeypatch, argv, rows, field, value):
    # the CLI alone applies --matrix, once, and every stage after it takes the
    # array before it: the Cauchy check and construction read one transformed
    # prefix, and the block modes given --limit transform rows 1..k_max only
    from seqlab import matrices
    calls = []

    def counted(*args):
        calls.append(args[2])
        return matrices.transform_prefix(*args)

    # every module but matrices that binds the transform, which is the CLI alone
    bound = sorted(name for name, module in sys.modules.items() if name.startswith("seqlab.")
                   and name != "seqlab.matrices" and hasattr(module, "transform_prefix"))
    assert bound == ["seqlab.cli"]
    for name in bound:
        monkeypatch.setattr(sys.modules[name], "transform_prefix", counted)
    payload = run_json(capsys, argv + ["--seq", "const:2", "--matrix", "cesaro", "--n", "5000"])
    assert payload["results"][field] == value
    assert calls == [rows]


@pytest.mark.parametrize("argv", [
    ["membership", "--seq", "const:2", "--estimate-limit", "--mode", "density", "--n", "2000"],
    ["membership", "--seq", "const:2", "--estimate-limit", "--mode", "count", "--n", "2000"],
    ["membership", "--seq", "const:2", "--limit", "2", "--mode", "mean", "--n", "2000"],
    ["membership", "--witness", "half-plateau", "--mode", "density", "--modulus", "log1p"],
    ["witness", "extract", "--seq", "const:2", "--n", "2000"],
    ["witness", "cauchy", "--seq", "const:2", "--n", "2000"],
], ids=["density-estimate", "count-estimate", "mean", "witness-density", "extract", "cauchy"])
def test_each_route_parses_the_modulus_once(capsys, monkeypatch, argv):
    # the one --modulus a call names is parsed once, even where the estimate and the verdict both read it
    calls = []
    make = cli.make_modulus
    monkeypatch.setattr(cli, "make_modulus", lambda spec: calls.append(spec) or make(spec))
    run_json(capsys, argv)
    assert calls == ["log1p" if "log1p" in argv else "id"]


def test_estimate_scores_once_per_candidate(capsys, monkeypatch, tmp_path):
    # density membership judges the estimate's winning scores, so each candidate
    # tried is scored once and the winner is not scored again.  Here log1p turns
    # the first candidate, 0.95, down for the squares at 2.0 and takes the second
    from seqlab import membership
    n = 2000
    i = np.arange(1, n + 1)
    y = np.where((i % 2 == 1) | (i % 10 == 0), 0.95, 1.05)
    y[np.isin(i, np.arange(1, 45) ** 2)] = 2.0
    y[0] = 0.0
    seq = tmp_path / "seq.csv"
    seq.write_text("i,value\n" + "".join(f"{k},{v!r}\n" for k, v in zip(i, y.tolist())))
    limits = []
    score = membership.pointwise_scores
    monkeypatch.setattr(membership, "pointwise_scores",
                        lambda y, params: limits.append(params.limit) or score(y, params))
    for spec, modulus, eps, tried in (("const:2", "id", "0.1", [2.0]), (f"file:{seq}", "log1p", "1", [0.95, 1.05])):
        limits.clear()
        payload = run_json(capsys, ["membership", "--seq", spec, "--estimate-limit", "--mode", "density",
                                    "--modulus", modulus, "--eps", eps, "--tol", "0.05", "--n", str(n)])
        assert payload["results"]["verdict"] == "member"
        assert payload["inputs"]["limit"] == tried[-1]
        assert limits == tried


class TestCheckCommand:
    def test_modulus_pass(self, capsys):
        payload = run_json(capsys, ["check", "--modulus", "id"])
        assert payload["results"]["passed"]

    def test_orlicz_pass(self, capsys):
        payload = run_json(capsys, ["check", "--orlicz", "poly:2"])
        assert payload["results"]["passed"]

    def test_super_additive_power_rejected_at_parse(self, capsys):
        code, _, err = run(capsys, ["check", "--modulus", "pow:2"])
        assert code == 1
        assert "subadditivity" in err

    def test_needs_exactly_one(self, capsys):
        code, _, _ = run(capsys, ["check"])
        assert code == 1


class TestOutputFormats:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, ["norm", "--kind", "luxemburg", "--orlicz", "poly:2",
                                    "--seq", "list:3,4", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "field,index,value"
        assert any(line.startswith("results.value,") for line in lines)

    def test_table(self, capsys):
        code, out, _ = run(capsys, ["norm", "--kind", "luxemburg", "--orlicz", "poly:2",
                                    "--seq", "list:3,4", "--format", "table"])
        assert code == 0
        assert "results.value" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, ["check", "--modulus", "id", "--out", str(target)])
        assert code == 0
        assert target.read_text() == out

    @pytest.mark.parametrize("where", ["missing/report.csv", "."])
    def test_unwritable_out_exits_one_naming_the_path(self, capsys, tmp_path, where):
        target = tmp_path / where
        code, out, err = run(capsys, ["density", "--set", "evens", "--n", "1000", "--out", str(target)])
        assert (code, out) == (1, "")
        assert re.fullmatch(f"seqlab: error: cannot write report to {re.escape(str(target))}: [^\n]+\n", err)

    def test_out_file_is_utf8(self, capsys, tmp_path):
        data = tmp_path / "é.txt"
        data.write_text("i,value\n1,3\n2,4\n")
        target = tmp_path / "report.txt"
        code, out, _ = run(capsys, ["norm", "--kind", "luxemburg", "--orlicz", "poly:2", "--seq", f"file:{data}",
                                    "--format", "table", "--out", str(target)])
        assert code == 0 and "é" in out
        assert target.read_bytes() == out.encode("utf-8")

    def test_csv_quotes_line_breaks(self, capsys):
        code, out, _ = run(capsys, ["density", "--set", "evens\n", "--n", "1000", "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out, newline="")))
        assert all(len(row) == 3 for row in rows)
        assert ["inputs.set", "", "evens\n"] in rows

    def test_csv_one_row_per_checkpoint(self, capsys):
        code, out, _ = run(capsys, ["density", "--set", "evens", "--n", "1000",
                                    "--format", "csv"])
        assert code == 0
        ratio_rows = [l for l in out.splitlines() if l.startswith("results.ratios,")]
        payload_rows = [l for l in out.splitlines() if l.startswith("results.checkpoints,")]
        assert len(ratio_rows) == len(payload_rows) >= 3


class TestSharedParser:
    GOOD = ["membership", "--seq", "alt:1,2", "--limit", "1", "--mode", "count", "--n", "2000"]

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_second_call_builds_no_parser(self, capsys, monkeypatch):
        made = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli.build_parser.cache_clear()
        run(capsys, self.GOOD)
        built = len(made)  # the top level, the shared space flags and five subcommands
        run(capsys, self.GOOD)
        assert (built, len(made)) == (7, 7)

    @pytest.mark.parametrize("before, code", [
        (GOOD + ["--format", "csv", "--eps", "0.5", "--out", os.devnull], 0),
        (["membership", "--seq", "const:1", "--eps", "0.5", "--format", "table", "--mode", "bogus"], 2),
        (["membership", "--seq", "const:1", "--eps", "0.5", "--format", "table", "--mode", "mean"], 1),
    ], ids=["csv", "exit-2", "exit-1"])
    def test_an_earlier_call_leaves_no_state(self, capsys, monkeypatch, before, code):
        if code == 2:  # argparse's own refusal
            with pytest.raises(SystemExit, match="^2$"):
                main(before)
        else:
            assert main(before) == code
        capsys.readouterr()
        shared = run(capsys, self.GOOD)
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)  # a parser built afresh
        assert shared[:2] == run(capsys, self.GOOD)[:2]
        assert shared[0] == 0 and json.loads(shared[1])["inputs"]["eps"] == 0.1  # JSON at the default eps


class TestDeterminism:
    INVOCATIONS = [
        ["density", "--set", "evens", "--modulus", "id", "--n", "10000"],
        ["membership", "--witness", "half-plateau", "--mode", "count", "--blocks", "10"],
        ["norm", "--kind", "luxemburg", "--orlicz", "poly:2", "--seq", "list:3,4"],
        ["witness", "half-plateau", "--nu", "1", "--blocks", "10"],
        ["check", "--modulus", "id"],
    ]

    @pytest.mark.parametrize("argv", INVOCATIONS, ids=lambda a: a[0])
    def test_byte_identical(self, capsys, argv):
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_floats_at_twelve_significant_digits(self, capsys):
        payload = run_json(capsys, ["norm", "--kind", "luxemburg", "--orlicz", "poly:2",
                                    "--seq", "list:3,4"])
        v = payload["results"]["value"]
        assert v == float(f"{v:.12g}")

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from seqlab.cli import main
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
    assert err.count("\n") == 1 and f"rho must be finite, got {bad}" in err


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
], ids=["mean-score", "density-score", "extract-score", "cesaro-row", "cauchy-dev", "estimate-spread"])
def test_overflow_exits_one_with_one_line(capsys, argv, message):
    # the ini setting turns any RuntimeWarning into an error, so none may precede the line
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == f"seqlab: error: {message}\n"


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

    def test_probe_spread_past_int64_bins(self, capsys):
        payload = run_json(capsys, ["witness", "probe", "--seq", "alt:0,1e19",
                                    "--probe-moduli", "id", "--n", "100000"])
        assert payload["results"]["limits"] == {"id": None}


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

    def test_csv_one_row_per_checkpoint(self, capsys):
        code, out, _ = run(capsys, ["density", "--set", "evens", "--n", "1000",
                                    "--format", "csv"])
        assert code == 0
        ratio_rows = [l for l in out.splitlines() if l.startswith("results.ratios,")]
        payload_rows = [l for l in out.splitlines() if l.startswith("results.checkpoints,")]
        assert len(ratio_rows) == len(payload_rows) >= 3


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

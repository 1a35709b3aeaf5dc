"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time

import numpy as np
import pytest

from seqlab.cli import main as cli_main
from seqlab.core import SequencePrefix, make_index_set, make_lacunary
from seqlab.density import complement_inequality_check, f_density, natural_density
from seqlab.errors import WitnessExtractionError
from seqlab.matrices import make_matrix, transform_prefix
from seqlab.membership import SpaceParams, block_trails, pointwise_scores
from seqlab.modulus import Modulus, check_modulus_axioms, make_modulus
from seqlab.orlicz import (OrliczFn, check_orlicz_axioms, luxemburg_norm,
                           make_orlicz, modular, orlicz_norm, uniform_family)
from seqlab.sequences import alternating_sequence, spike_sequence
from seqlab.witnesses import (BLOCK_SPIKE_DISCREPANCY, block_spike_report,
                              converge_off_witness, extract_witness_set,
                              gen_block_spike_instance, gen_half_plateau_instance,
                              multi_modulus_probe)

IDENTITY = make_matrix("identity")
LINEAR_FAMILY = uniform_family(make_orlicz("linear"))
POLY2_FAMILY = uniform_family(make_orlicz("poly:2"))


def scores(x, params):
    return pointwise_scores(transform_prefix(IDENTITY, x, len(x)), params)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_half_plateau_reproduction():
    started = time.monotonic()
    x, params = gen_half_plateau_instance(nu=1.0, rho=1.0, blocks=10)
    t, c, _ = block_trails(scores(x, params), params)
    bounds = 2.0 ** -np.arange(1, 11, dtype=float)
    bound_ok = bool(np.all(t <= bounds + 1e-12))
    ratios_ok = bool(np.all(np.abs(c[7:10] - 0.5) <= 0.05))
    elapsed = time.monotonic() - started
    report(1, bound_ok and ratios_ok and elapsed < 10.0,
           f"residuals within 2^-r: {bound_ok}, late ratios near 0.5: {ratios_ok}, "
           f"elapsed {elapsed:.2f}s")


def test_criterion_2_block_spike_reproduction(capsys):
    started = time.monotonic()
    x, params, _ = gen_block_spike_instance(make_orlicz("linear"), make_lacunary("powers2", 12),
                                            rho=1.0, alpha=1.0)
    rep = block_spike_report(x, params)
    t = np.asarray(rep.mean_report.block_residuals)
    c = np.asarray(rep.mean_report.exceedance_ratios)
    h = params.scheme.h.astype(float)
    t_ok = bool(np.all(t >= 1.0 - 1e-9))
    c_exact = bool(np.array_equal(c, 1.0 / h)) and rep.checks["one_spike_per_block"]
    c12_ok = c[-1] < 1e-3
    # the discrepancy warning is the CLI report's, for the same instance
    cli_main(["witness", "block-spike", "--theta", "powers2", "--blocks", "12", "--orlicz", "linear"])
    warned = BLOCK_SPIKE_DISCREPANCY in json.loads(capsys.readouterr().out)["warnings"]
    elapsed = time.monotonic() - started
    with capsys.disabled():
        report(2, t_ok and c_exact and c12_ok and warned and elapsed < 10.0,
               f"residuals >= 1: {t_ok}, ratios exactly 1/h_r: {c_exact}, "
               f"c_12={c[-1]:.6f}, discrepancy warning: {warned}, elapsed {elapsed:.2f}s")


def test_criterion_3_density_oracles():
    squares = make_index_set("squares")
    evens = make_index_set("evens")
    d1 = f_density(squares, make_modulus("log1p"), 10 ** 6, tol=0.02)
    d2 = f_density(squares, make_modulus("id"), 10 ** 6, tol=1e-2)
    d3 = f_density(evens, make_modulus("id"), 10 ** 6, tol=1e-2)
    d4 = f_density(evens, make_modulus("log1p"), 10 ** 6, tol=0.02)
    d5 = f_density(evens, make_modulus("pow:0.5"), 10 ** 6, tol=0.02)
    ok1 = d1.converged and abs(d1.value - 0.5) <= 0.02
    ok2 = d2.converged and abs(d2.value - 0.0) <= 1e-3
    ok3 = d3.converged and abs(d3.value - 0.5) <= 0.02
    ok4 = d4.converged and abs(d4.value - 1.0) <= 0.02
    ok5 = d5.converged and abs(d5.value - 0.5 ** 0.5) <= 0.02
    report(3, ok1 and ok2 and ok3 and ok4 and ok5,
           f"squares/log1p={d1.value:.4f} (0.5±0.02), squares/id={d2.value:.5f} (0±1e-3), "
           f"evens/id={d3.value:.4f}, evens/log1p={d4.value:.4f}, evens/pow:0.5={d5.value:.4f} "
           f"(closed-form limits 0.5, 1.0, 0.7071, all ±0.02)")


def test_criterion_4_complement_inequality_exact():
    sets = ["evens", "odds", "squares", "arith:3,5", "arith:1,1"]
    moduli = ["id", "log1p", "pow:0.5", "pow:0.25"]
    violations = []
    for s in sets:
        for m in moduli:
            res = complement_inequality_check(make_index_set(s), make_modulus(m), 10 ** 5)
            if not res.passed:
                violations.append((s, m, res.first_violation))
    report(4, not violations,
           f"all n <= 1e5, {len(sets)} sets x {len(moduli)} moduli, violations: {violations or 'none'}")


def test_criterion_5_norm_oracles():
    x34 = SequencePrefix(np.asarray([3.0, 4.0]))
    lux = luxemburg_norm(POLY2_FAMILY, x34, tol=1e-8)
    orl = orlicz_norm(POLY2_FAMILY, x34, tol=1e-6)
    lin = luxemburg_norm(LINEAR_FAMILY, SequencePrefix(np.asarray([1.0, 2.0, 3.0])), tol=1e-8)
    ok_lux = abs(lux - 5.0) <= 1e-8
    ok_orl = abs(orl.value - 10.0) <= 1e-6
    ok_lin = abs(lin - 6.0) <= 1e-8

    rng = np.random.default_rng(12345)
    tol = 1e-8
    bracket_failures = 0
    families = [POLY2_FAMILY, LINEAR_FAMILY, uniform_family(make_orlicz("explog"))]
    linear_failures = 0
    for trial in range(100):
        fam = families[trial % 3]
        size = int(rng.integers(1, 12))
        vals = rng.uniform(-10.0, 10.0, size=size)
        if not np.any(vals):
            vals[0] = 1.0
        x = SequencePrefix(vals)
        k = luxemburg_norm(fam, x, tol=tol)
        scaled = SequencePrefix(vals / (k * (1.0 + 10.0 * tol)))
        if modular(fam, scaled) > 1.0:
            bracket_failures += 1
        if fam is LINEAR_FAMILY and abs(k - np.abs(vals).sum()) > 1e-8 * max(1.0, np.abs(vals).sum()):
            linear_failures += 1
    report(5, ok_lux and ok_orl and ok_lin and bracket_failures == 0 and linear_failures == 0,
           f"luxemburg={lux:.10f} (5±1e-8), orlicz={orl.value:.8f} (10±1e-6), "
           f"linear sum={lin:.10f} (6±1e-8), bracket failures {bracket_failures}/100, "
           f"linear-family failures {linear_failures}")


def test_criterion_6_witness_round_trip():
    n = 100_000
    x = spike_sequence(n, make_index_set("squares"), base=2.0, delta=1.0)
    params = SpaceParams(LINEAR_FAMILY, make_lacunary("powers2", 16), limit=2.0)
    f = make_modulus("id")
    s = scores(x, params)
    ws = extract_witness_set(s, f, depth=5)
    dens_ok = ws.density.converged and ws.density.value <= 0.01
    off = converge_off_witness(s, ws.members, params.eps, tol=1.0 / 5)
    stuck = None
    try:
        extract_witness_set(scores(alternating_sequence(10_000),
                                   SpaceParams(LINEAR_FAMILY, make_lacunary("powers2", 13),
                                               limit=0.0)),
                            f, depth=5)
    except WitnessExtractionError as exc:
        stuck = exc.stuck_level
    report(6, dens_ok and off.passed and stuck == 2,
           f"witness density={ws.density.value:.4f} (<=0.01), off-witness pass with i0={off.i0}, "
           f"alternating stuck at level {stuck} (want 2)")


def test_criterion_7_reduction_identities():
    rng = np.random.default_rng(2718)
    scheme = make_lacunary("powers2", 6)
    eps = 0.1
    bitwise_ok = True
    counter_ok = True
    for _ in range(100):
        vals = rng.normal(size=scheme.k_max)
        limit = float(rng.normal())
        params = SpaceParams(LINEAR_FAMILY, scheme, alpha=1.0,
                             limit=limit, eps=eps)
        x = SequencePrefix(vals)
        s = scores(x, params)
        if not np.array_equal(s, np.abs(vals - limit)):
            bitwise_ok = False
        _, _, counts = block_trails(s, params)
        for r in range(1, scheme.blocks + 1):
            lo, hi = scheme.block(r)
            brute = sum(1 for i in range(lo + 1, hi + 1) if abs(vals[i - 1] - limit) > eps)
            if counts[r - 1] != brute:
                counter_ok = False
    report(7, bitwise_ok and counter_ok,
           f"scores equal |x-L| bit-for-bit on 100 prefixes: {bitwise_ok}, "
           f"block counting matches brute force: {counter_ok}")


def test_criterion_8_density_implication_and_probe():
    sets = ["squares", "evens", "odds", "arith:3,5", "arith:1,200"]
    moduli = ["id", "log1p", "pow:0.5"]
    triggered = 0
    failures = []
    for s in sets:
        a = make_index_set(s)
        for m in moduli:
            d = f_density(a, make_modulus(m), 10 ** 6, tol=1e-2)
            if d.converged and d.value <= 0.01:
                triggered += 1
                nd = natural_density(a, 10 ** 6, tol=1e-2)
                if not (nd.converged and nd.value <= 0.02):
                    failures.append((s, m, nd.value))
    x = spike_sequence(100_000, make_index_set("squares"), base=2.0, delta=1.0)
    params = SpaceParams(LINEAR_FAMILY, make_lacunary("powers2", 16), limit=None)
    probe = multi_modulus_probe(transform_prefix(IDENTITY, x, len(x)), params,
                                [make_modulus("id"), make_modulus("log1p")])
    probe_ok = probe.limits["id"] == 2.0 and probe.limits["log1p"] is None
    report(8, triggered >= 2 and not failures and probe_ok,
           f"{triggered} null f-density cases all have natural density <= 0.02 "
           f"(failures: {failures or 'none'}); probe id->2.0, log1p->none: {probe_ok}")


def test_criterion_9_axiom_checkers():
    square_fn = Modulus("square", lambda t: t * t)
    rep_sq = check_modulus_axioms(square_fn, grid=[1.0, 2.0, 3.0])
    sq_ok = (not rep_sq.subadditive.passed) and rep_sq.subadditive.witness == (1.0, 1.0)
    rep_root = check_orlicz_axioms(OrliczFn("sqrt", np.sqrt))
    root_ok = not rep_root.midpoint_convex.passed and rep_root.midpoint_convex.witness is not None
    builtin_moduli_ok = all(check_modulus_axioms(make_modulus(s)).passed
                            for s in ("id", "log1p", "pow:0.5", "bounded"))
    builtin_orlicz_ok = all(check_orlicz_axioms(make_orlicz(s)).passed
                            for s in ("linear", "poly:2", "poly:1.5", "explog"))
    report(9, sq_ok and root_ok and builtin_moduli_ok and builtin_orlicz_ok,
           f"x^2 rejected with witness (1,1): {sq_ok}, sqrt convexity witness: {root_ok}, "
           f"all built-ins pass: {builtin_moduli_ok and builtin_orlicz_ok}")


def test_criterion_10_cli_determinism(capsys):
    invocations = [
        ["density", "--set", "evens", "--modulus", "id", "--n", "10000"],
        ["membership", "--witness", "half-plateau", "--mode", "count", "--blocks", "10"],
        ["norm", "--kind", "orlicz", "--orlicz", "poly:2", "--seq", "list:3,4"],
        ["witness", "block-spike", "--blocks", "12"],
        ["check", "--modulus", "log1p"],
    ]
    mismatches = []
    for argv in invocations:
        code1 = cli_main(argv)
        out1 = capsys.readouterr().out
        code2 = cli_main(argv)
        out2 = capsys.readouterr().out
        if code1 != 0 or code2 != 0 or out1 != out2:
            mismatches.append(argv[0])
        json.loads(out1)  # must be valid JSON
    with capsys.disabled():
        report(10, not mismatches,
               f"byte-identical JSON across double runs of {len(invocations)} subcommands "
               f"(mismatches: {mismatches or 'none'})")

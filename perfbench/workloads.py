"""The three benchmark workloads and the oracle that checks each invocation.

A workload is a fixed list of invocation kinds, some of them repeated; one
pass runs the list once.  The seed picks values only (spike base and delta,
harmonic level, ``alt`` values, the arith offset, exponents, tolerances,
generated weights and band coefficients), never structure (n, spec kinds,
moduli, matrix kinds), so the work done does not depend on the seed.  Every
pass draws fresh values, as separate CLI users would.  The value ranges are
narrow enough that no search changes its number of steps between draws.

Each oracle recomputes the answer independently of seqlab, from closed forms
or plain numpy, and raises ``Mismatch`` when the program's output disagrees.
A kind may name a ``known_defect``: a failure of the seed commit that the
benchmark counts in ``failed`` like any other, but which does not by itself
mark the run incorrect.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


class Mismatch(Exception):
    """The program's output disagrees with the oracle."""


@dataclass
class Call:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    known_defect: str | None = None


class Draw:
    """Seeded values for one run; a kind gets the same values twice only
    once its value range is nearly used up."""

    ATTEMPTS = 100

    def __init__(self, rng):
        self.rng = rng
        self._seen: set = set()

    def uniform(self, lo, hi, digits):
        return round(self.rng.uniform(lo, hi), digits)

    def fresh(self, kind, make):
        for _ in range(self.ATTEMPTS):
            values = make()
            if (kind, values) not in self._seen:
                break
        self._seen.add((kind, values))
        return values


# -------------------------------------------------------------------------
# invoking the program
# -------------------------------------------------------------------------

def invoke_cli(argv):
    """``seqlab.cli.main(argv)`` in-process with stdout and stderr captured."""
    from seqlab import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_call(kind, argv, check, known_defect=None) -> Call:
    argv = [str(a) for a in argv]

    def verify(result):
        code, out, err = result
        if code != 0:
            raise Mismatch(f"exit {code}: {err.strip().splitlines()[-1] if err.strip() else ''}")
        check(json.loads(out)["results"])

    return Call(kind, lambda: invoke_cli(argv), verify, known_defect)


# -------------------------------------------------------------------------
# oracle helpers
# -------------------------------------------------------------------------

def expect(cond, what):
    if not cond:
        raise Mismatch(what)


def close(got, want, rtol, what, atol=0.0):
    """Reports carry 12 significant digits, so rtol >= 1e-9 absorbs rounding."""
    if got is None or not math.isclose(float(got), want, rel_tol=rtol, abs_tol=atol):
        raise Mismatch(f"{what}: got {got!r}, want {want!r}")


def all_close(got, want, rtol, what, atol=0.0):
    expect(got is not None and len(got) == len(want), f"{what}: length {len(got or [])} != {len(want)}")
    for i, (g, w) in enumerate(zip(got, want)):
        close(g, w, rtol, f"{what}[{i}]", atol)


def geometric_checkpoints(n):
    """ceil(n / 2^j) for j >= 0 while >= 10, ascending."""
    pts, j = set(), 0
    while -(-n // 2 ** j) >= 10:
        pts.add(-(-n // 2 ** j))
        j += 1
    return sorted(pts)


def check_trail(dens, n, count, f):
    """The density trail must equal f(count(cp)) / f(cp) at every checkpoint."""
    cps = geometric_checkpoints(n)
    expect(dens["checkpoints"] == cps, f"checkpoints differ at n={n}")
    want = [min(1.0, max(0.0, f(count(cp)) / f(cp))) for cp in cps]
    all_close(dens["ratios"], want, 1e-9, "ratios", atol=1e-12)


def powers2_cuts(blocks):
    return [0] + [2 ** r for r in range(1, blocks + 1)]


def trail_verdict(trail, tol):
    """The documented three-valued rule on the trailing third of a block trail."""
    w = math.ceil(len(trail) / 3)
    tail = trail[-w:]
    if max(tail) <= tol:
        return "member"
    if min(tail) >= 2 * tol and all(b - a >= -1e-9 for a, b in zip(tail, tail[1:])):
        return "non-member"
    return "inconclusive"


ID = float
LOG1P = math.log1p


def POW(p):
    return lambda v: float(v) ** p


# -------------------------------------------------------------------------
# exceedance: density membership and the witness pipeline
# -------------------------------------------------------------------------

EXCEEDANCE_NS = (100_000, 1_000_000)


def repeats(ns, doubled=1):
    """Each n of a pass, the ``doubled`` smallest twice.

    With these weights every workload's pass holds a number of invocations
    that puts the median and the 90th percentile inside one kind's latencies
    rather than on the gap between two kinds, where they would ride on one
    kind's slowest and another's fastest sample.
    """
    return [(n, rep) for i, n in enumerate(ns) for rep in range(2 if i < doubled else 1)]


def exceedance_pass(draw: Draw, work: Path, index: int, inputs=None) -> list[Call]:
    calls = []
    for n, rep in repeats(EXCEEDANCE_NS):
        for probe_rep in range(2):
            # delta > 1 keeps every witness level 1/j (j <= 5) equal to the squares
            base, delta = draw.fresh(("probe", n, rep, probe_rep),
                                     lambda: (draw.uniform(-5, 5, 3), draw.uniform(1.5, 3, 3)))

            def probe(r, base=base):
                close(r["limits"]["id"], base, 1e-9, "id-modulus limit", atol=1e-9)
                # the squares have log1p-density 1/2, so no candidate is a member
                expect(r["limits"]["log1p"] is None,
                       f"log1p limit {r['limits']['log1p']!r}, want null")
                close(r["reference"], base, 1e-9, "reference", atol=1e-9)
                expect(r["all_agree"] is False and r["norm_convergence"] is False, "probe flags")

            calls.append(cli_call(f"probe@{n}", [
                "witness", "probe", "--seq", f"spike:set=squares,base={base},delta={delta}",
                "--probe-moduli", "id,log1p", "--n", n], probe))

        base, delta = draw.fresh(("extract", n, rep),
                                 lambda: (draw.uniform(-5, 5, 3), draw.uniform(1.5, 3, 3)))

        def extract(r, base=base, n=n):
            close(r["limit"], base, 1e-9, "limit", atol=1e-9)
            expect(r["witness_size"] == math.isqrt(n), f"witness size {r['witness_size']} != isqrt({n})")
            d = r["density"]
            expect(d["verdict"] == "converged" and d["value"] <= d["tol"],
                   f"witness density {d['verdict']} {d['value']!r} > tol {d['tol']}")
            check_trail(d, n, math.isqrt, ID)
            expect(r["off_check"]["passed"] is True, "off-witness check failed")

        calls.append(cli_call(f"extract@{n}", [
            "witness", "extract", "--seq", f"spike:set=squares,base={base},delta={delta}",
            "--modulus", "id", "--n", n], extract))

        level = draw.fresh(("cauchy", n, rep), lambda: draw.uniform(-10, 10, 3))
        depth = 10

        def cauchy(r, level=level):
            expect(r["cauchy"] is True, "no Cauchy anchor")
            expect(abs(r["limit"] - level) <= 2.0 / depth + 1e-9,
                   f"Cauchy limit {r['limit']!r} not within 2/{depth} of {level}")
            expect(r["width"] <= 2.0 / depth + 1e-9, f"width {r['width']!r}")

        calls.append(cli_call(f"cauchy@{n}", [
            "witness", "cauchy", "--seq", f"harmonic:{level}", "--modulus", "id",
            "--depth", depth, "--n", n], cauchy))

        a, gap = draw.fresh(("membership", n, rep), lambda: (draw.uniform(-3, 3, 3), draw.uniform(0.5, 2, 3)))
        b = round(a + gap, 3)

        def membership(r, n=n, a=a, b=b):
            # scores are |b - a| at even indices and 0 at odd ones, so the
            # exceedance set is the evens, whose log1p-density is 1
            d = r["density"]
            check_trail(d, n, lambda cp: cp // 2, LOG1P)
            expect(r["verdict"] != "member", "alt:a,b judged a member at limit a")
            h = np.diff(powers2_cuts(10))
            all_close(r["block_residuals"], [abs(b - a) / 2] * len(h), 1e-9, "block residuals")
            expect(r["exceedance_counts"] == [int(v) // 2 for v in h], "block exceedance counts")

        calls.append(cli_call(f"membership@{n}", [
            "membership", "--seq", f"alt:{a},{b}", "--limit", a, "--mode", "density",
            "--modulus", "log1p", "--n", n], membership))
    return calls


# -------------------------------------------------------------------------
# counting: rule sets counted at checkpoints, and the complement inequality
# -------------------------------------------------------------------------

COUNTING_NS = (100_000, 1_000_000, 10_000_000, 40_000_000)
ARITH_D = 32  # divides every n above, so arith:a,32 has n/32 members for any 1 <= a <= 32


def _arith_count(a):
    return lambda cp: max(0, (cp - a) // ARITH_D + 1)


def counting_pass(draw: Draw, work: Path, index: int, inputs=None) -> list[Call]:
    calls = []

    def density(kind, n, set_spec, modulus, count, f, known_defect=None):
        tol = draw.fresh((kind, n, "tol"), lambda: draw.uniform(0.005, 0.05, 4))
        argv = ["density", "--set", set_spec, "--n", n, "--tol", tol]
        if modulus:
            argv += ["--modulus", modulus]
        calls.append(cli_call(f"{kind}@{n}", argv, lambda r: check_trail(r, n, count, f),
                              known_defect))

    for n, rep in repeats(COUNTING_NS, doubled=2):
        density("evens", n, "evens", None, lambda cp: cp // 2, ID)
        p = draw.fresh(("odds", n, rep), lambda: draw.uniform(0.3, 0.9, 3))
        density("odds", n, "odds", f"pow:{p}", lambda cp: (cp + 1) // 2, POW(p))
        density("squares", n, "squares", "log1p", math.isqrt, LOG1P)
        a = draw.fresh(("arith", n, rep), lambda: draw.rng.randint(1, ARITH_D))
        density("arith", n, f"arith:{a},{ARITH_D}", "id", _arith_count(a), ID)
    density("squares", 10 ** 9, "squares", "log1p", math.isqrt, LOG1P,
            known_defect="rule sets are materialized, and refused past 5e7")

    from seqlab import density as density_mod
    from seqlab.core import make_index_set
    from seqlab.modulus import make_modulus

    def complement_check(n):
        def verify(res):
            # every pow:p with 0 < p <= 1 is subadditive, so no n may violate
            expect(res.passed and res.first_violation is None,
                   f"complement inequality violated at n={res.first_violation}")
            expect(res.n_checked == n, f"checked {res.n_checked} of {n}")
        return verify

    for n, set_spec in ((1_000_000, None), (10_000_000, "evens")):
        p = draw.fresh(("complement", n), lambda: draw.uniform(0.3, 0.9, 3))
        if set_spec is None:
            set_spec = f"arith:{draw.rng.randint(1, ARITH_D)},{ARITH_D}"
        calls.append(Call(
            f"complement@{n}",
            lambda s=set_spec, p=p, n=n: density_mod.complement_inequality_check(
                make_index_set(s), make_modulus(f"pow:{p}"), n),
            complement_check(n)))
    return calls


# -------------------------------------------------------------------------
# gauge: norms, block membership, matrices and axiom checks
# -------------------------------------------------------------------------

GAUGE_NS = (100_000, 1_000_000)
LADDER = (1e-15, 1e-6, 1.0, 1e6, 1e15)
WEIGHTED_N = 1_000_000
RIESZ_N = 2 ** 19   # membership with 19 powers-of-2 blocks
BAND_ROWS = 20_000  # explicit matrix; membership with 14 blocks stays inside it
BAND_WIDTH = 3


def _alt_norms(n, a, b):
    na, nb = (n + 1) // 2, n // 2
    return math.sqrt(na * a * a + nb * b * b), na * abs(a) + nb * abs(b)


def _explog_luxemburg(n, a, b):
    """Root of ceil(n/2) expm1(|a|/k) + floor(n/2) expm1(|b|/k) = 1, by bisection."""
    na, nb = (n + 1) // 2, n // 2

    def excess(k):
        return na * math.expm1(abs(a) / k) + nb * math.expm1(abs(b) / k) - 1.0

    lo, hi = 1e-300, 1.0
    while excess(hi) > 0:
        lo, hi = hi, 2 * hi
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if excess(mid) > 0 else (lo, mid)
    return hi


def _weights_file(rng, size, path: Path) -> np.ndarray:
    """Write ``size`` positive weights, one per line; return them as parsed."""
    w = np.round(rng.uniform(0.5, 2.0, size), 6)
    with path.open("w") as fh:
        for chunk in np.array_split(w, max(1, size // 100_000)):  # keeps the harness's peak RSS small
            fh.write("".join(f"{v:.6f}\n" for v in chunk.tolist()))
    return w


def gauge_inputs(draw: Draw, work: Path) -> dict:
    """Weight files shared by every pass of one run."""
    rng = np.random.default_rng(draw.rng.getrandbits(64))
    return {
        "weights": _weights_file(rng, WEIGHTED_N, work / "weights.txt"),
        "riesz": _weights_file(rng, RIESZ_N, work / "riesz.txt"),
        "weights_path": work / "weights.txt",
        "riesz_path": work / "riesz.txt",
    }


def _band_matrix(draw: Draw, path: Path) -> np.ndarray:
    """Write a banded row-normalized ``i,k,a`` CSV; return its coefficients.

    Row i has entries at k = i-2..i (those >= 1); coef[i-1, j] is a_{i,i-j}.
    """
    c = np.asarray([draw.uniform(0.2, 1.0, 6) for _ in range(BAND_WIDTH)])
    coef = np.zeros((BAND_ROWS, BAND_WIDTH))
    lines = ["i,k,a"]
    for i in range(1, BAND_ROWS + 1):
        m = min(i, BAND_WIDTH)
        row = c[:m] / c[:m].sum()
        coef[i - 1, :m] = row
        for j in range(m - 1, -1, -1):
            lines.append(f"{i},{i - j},{float(row[j])!r}")
    path.write_text("\n".join(lines) + "\n")
    return coef


def _band_transform(coef, x):
    y = coef[:, 0] * x[: len(coef)]
    for j in range(1, coef.shape[1]):
        y[j:] += coef[j:, j] * x[: len(coef) - j]
    return y


def gauge_pass(draw: Draw, work: Path, index: int, inputs: dict) -> list[Call]:
    from seqlab import matrices as matrices_mod

    calls = []
    for n, rep in repeats(GAUGE_NS):
        for gauge in ("poly:2", "explog", "linear"):
            for kind in ("luxemburg", "orlicz"):
                a, b = draw.fresh((kind, gauge, n, rep), lambda: (draw.uniform(1.0, 1.01, 5),
                                                             draw.uniform(-2.02, -2.0, 5)))
                l2, l1 = _alt_norms(n, a, b)

                def norm(r, kind=kind, gauge=gauge, n=n, a=a, b=b, l2=l2, l1=l1):
                    if gauge == "poly:2":
                        close(r["value"], l2 if kind == "luxemburg" else 2 * l2, 1e-6, "poly:2 norm")
                    elif gauge == "linear":
                        close(r["value"], l1, 1e-6, "linear norm")
                    else:
                        lux = _explog_luxemburg(n, a, b)
                        if kind == "luxemburg":
                            close(r["value"], lux, 1e-6, "explog Luxemburg norm")
                        else:
                            expect(lux * (1 - 1e-6) <= r["value"] <= 2 * lux * (1 + 1e-6),
                                   f"explog Orlicz norm {r['value']!r} outside [{lux!r}, 2*{lux!r}]")

                calls.append(cli_call(f"{kind}:{gauge}@{n}", [
                    "norm", "--kind", kind, "--orlicz", gauge, "--seq", f"alt:{a},{b}", "--n", n], norm))

    for s in LADDER:
        for kind in ("luxemburg", "orlicz"):
            # u < 1.059 keeps every Luxemburg bracket and bisection the same length
            u = draw.fresh(("ladder", kind, s), lambda: draw.uniform(1.0, 1.05, 4))
            x1, x2 = float(f"{3 * u * s:.12g}"), float(f"{4 * u * s:.12g}")
            want = math.hypot(x1, x2) * (1 if kind == "luxemburg" else 2)
            defect = None
            if kind == "orlicz" and s in (1e-15, 1e15):
                defect = "orlicz_norm scans a fixed 2^-40..2^40 scale grid"
            calls.append(cli_call(
                f"ladder:{kind}@{s:g}",
                ["norm", "--kind", kind, "--orlicz", "poly:2", "--seq", f"list:{x1!r},{x2!r}"],
                lambda r, want=want: close(r["value"], want, 1e-6, "poly:2 norm of list:3s,4s"),
                known_defect=defect))

    # Luxemburg only: the Orlicz norm of the weighted family would take 1.9 s
    # at the seed, too long for enough passes in one run.
    a, b = draw.fresh("weighted", lambda: (draw.uniform(1.0, 1.01, 5), draw.uniform(-2.02, -2.0, 5)))
    x = np.empty(WEIGHTED_N)
    x[0::2], x[1::2] = a, b
    want = math.sqrt(math.fsum(inputs["weights"] * x * x))
    calls.append(cli_call("weighted:luxemburg", [
        "norm", "--kind", "luxemburg",
        "--orlicz", f"weighted:base=poly:2,weights=file:{inputs['weights_path']}",
        "--seq", f"alt:{a},{b}", "--n", WEIGHTED_N],
        lambda r: close(r["value"], want, 1e-6, "weighted poly:2 Luxemburg norm")))

    base, delta = draw.fresh("block-mean", lambda: (draw.uniform(0.5, 2, 3), draw.uniform(1, 3, 3)))

    def block_mean(r):
        cuts = powers2_cuts(19)
        expect(r["cuts"] == cuts, "block-mean cuts")
        means = [(base * (hi - lo) + delta * (math.isqrt(hi) - math.isqrt(lo))) / (hi - lo)
                 for lo, hi in zip(cuts, cuts[1:])]
        close(r["value"], max(means), 1e-9, "block-mean norm")

    calls.append(cli_call("block-mean", [
        "norm", "--kind", "block-mean", "--theta", "powers2", "--blocks", 19,
        "--seq", f"spike:set=squares,base={base},delta={delta}", "--n", 1_000_000], block_mean))

    band_path = work / f"band-{index}.csv"
    coef = _band_matrix(draw, band_path)
    matrices = (
        ("cesaro", "cesaro", RIESZ_N, 19),
        ("riesz", f"riesz:file={inputs['riesz_path']}", RIESZ_N, 19),
        ("band", f"file:{band_path}", BAND_ROWS, 14),
    )
    for label, spec, n, blocks in matrices:
        for mode in ("mean", "count"):
            level = draw.fresh(("block", label, mode), lambda: draw.uniform(-2, 2, 3))

            def block(r, label=label, n=n, blocks=blocks, level=level, mode=mode):
                cuts = powers2_cuts(blocks)
                k = cuts[-1]
                x = level + 1.0 / np.arange(1, n + 1)
                if label == "cesaro":
                    y = np.cumsum(x[:k]) / np.arange(1, k + 1)
                elif label == "riesz":
                    w = inputs["riesz"][:k]
                    y = np.cumsum(w * x[:k]) / np.cumsum(w)
                else:
                    y = _band_transform(coef, x)[:k]
                s = np.abs(y - level)
                h = np.diff(cuts).astype(float)
                t = np.add.reduceat(s, cuts[:-1]) / h
                counts = np.add.reduceat((s >= 0.1).astype(np.int64), cuts[:-1])
                all_close(r["block_residuals"], t, 1e-7, f"{label} block residuals", atol=1e-12)
                expect(r["exceedance_counts"] == counts.tolist(), f"{label} exceedance counts")
                all_close(r["exceedance_ratios"], counts / h, 1e-9, f"{label} exceedance ratios")
                trail = t if mode == "mean" else counts / h
                expect(r["verdict"] == trail_verdict(list(trail), 0.01), f"{label} {mode} verdict")

            calls.append(cli_call(f"{mode}:{label}", [
                "membership", "--seq", f"harmonic:{level}", "--limit", level, "--mode", mode,
                "--matrix", spec, "--blocks", blocks, "--n", n], block))

    def regularity(rep):
        expect(rep.upto == BAND_ROWS, "regularity upto")
        close(rep.sup_abs_row_sum, 1.0, 1e-12, "sup of absolute row sums")
        expect(rep.rows_sum_to_one and rep.columns_vanish, "banded matrix judged not regular")

    def regularity_run():
        return matrices_mod.regularity_check(matrices_mod.make_matrix(f"file:{band_path}"), BAND_ROWS)

    calls.append(Call("regularity", regularity_run, regularity))

    def passed(r):
        expect(r["passed"] is True, f"axioms failed: {r['axioms']}")

    # Six axiom checks.  Their number puts the median latency well inside the
    # cluster of 14-18 ms invocations above them, not at its edge.
    for rep in range(3):
        # p >= 0.5: the sampled right-continuity check asks f(10^-k) <= 1e-6 for some k <= 12
        p = draw.fresh(("check-modulus", rep), lambda: draw.uniform(0.5, 0.95, 3))
        calls.append(cli_call("check:modulus", ["check", "--modulus", f"pow:{p}"], passed))
    for rep in range(2):
        q = draw.fresh(("check-poly", rep), lambda: draw.uniform(1.5, 3.0, 3))
        calls.append(cli_call("check:poly", ["check", "--orlicz", f"poly:{q}"], passed))
    # explog has no value to draw, so this one argv repeats in every pass
    calls.append(cli_call("check:orlicz", ["check", "--orlicz", "explog"], passed))
    return calls


# name -> (pass builder, generator of the inputs every pass of a run shares)
WORKLOADS = {
    "exceedance": (exceedance_pass, None),
    "counting": (counting_pass, None),
    "gauge": (gauge_pass, gauge_inputs),
}

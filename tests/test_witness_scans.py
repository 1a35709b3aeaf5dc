"""The witness routes' shared scans against reference copies of the loops they
replaced.

``stat_limit_estimate`` sorts one copy of the transformed prefix, where every
bin is one run, finds the runs in blocks of ``_CHUNK`` values, ranks them by
length, takes each candidate's median from the middle of its run and scores
each candidate once for every modulus; ``_cauchy_search`` builds one deviation
per anchor for every radius; ``witness extract`` reuses the limit estimate's
scores, and the extraction and the off-witness check work from member
positions.  The references below are the per-modulus and per-radius loops,
``np.unique`` over an n-length copy of the bins with ``np.median`` of each
candidate's masked members, and the n-length mask and index arrays, kept
verbatim in behaviour: the new code must return the same floats and anchors,
and raise the same exception with the same message.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlab.core import IndexSet, SequencePrefix, make_index_set, make_lacunary
from seqlab.density import checkpoints, exceedance_set, f_density
from seqlab.errors import CauchyConstructionError, SpreadError, WitnessExtractionError
from seqlab.matrices import make_matrix, transform_prefix
from seqlab.membership import (_CHUNK, CauchyReport, SpaceParams, pointwise_scores, stat_cauchy_check,
                               stat_limit_estimate)
from seqlab.modulus import make_modulus
from seqlab.orlicz import make_family
from seqlab.sequences import alternating_sequence, harmonic_sequence, spike_sequence
from seqlab.witnesses import (OffWitnessCheck, cauchy_limit_construction,
                              converge_off_witness, extract_witness_set, multi_modulus_probe)

_SLACK = 1e-12


# -- references: the loops as they were before the shared scans -------------

def reference_limit_estimate(y, params, f, eps, tol):
    """One modulus: bin, then score candidates until one is a density member."""
    if not f.unbounded:
        raise ValueError(f"bounded modulus {f.name!r}: the density mode needs an unbounded modulus")
    width = max(eps, 1e-12)
    if not math.isfinite((float(y.max()) - float(y.min())) / width):
        raise SpreadError("the transformed values spread past the float range; supply --limit")
    bins = np.floor((y - float(y.min())) / width).astype(np.int64)
    uniq, cnt = np.unique(bins, return_counts=True)
    order = np.lexsort((uniq, -cnt))
    for b in uniq[order][:5]:
        candidate = float(np.median(y[bins == b]))
        s = pointwise_scores(y, replace(params, limit=candidate, eps=eps))
        dens = f_density(exceedance_set(s, eps), f, len(s), tol)
        if dens.converged and dens.value <= tol:
            return candidate
    return None


def reference_limit_scan(y, params, moduli, tol):
    """All moduli at once, from an n-length copy of the float bins: np.unique
    sorts a copy of them, and each candidate's members come from an n-length
    mask.  Returns the limits and the scores against the last candidate."""
    width = max(params.eps, 1e-12)
    lo = float(y.min())
    if not math.isfinite((float(y.max()) - lo) / width):
        raise SpreadError("the transformed values spread past the float range; supply --limit")
    bins = np.floor((y - lo) / width)
    uniq, cnt = np.unique(bins, return_counts=True)
    limits, s = [None] * len(moduli), None
    for b in uniq[np.lexsort((uniq, -cnt))][:5]:
        members = y[bins == b]
        with np.errstate(over="ignore"):
            candidate = float(np.median(members))
        if not math.isfinite(candidate):
            candidate = 2.0 * float(np.median(members / 2.0))
        s = pointwise_scores(y, replace(params, limit=candidate))
        above = exceedance_set(s, params.eps)
        for i, f in enumerate(moduli):
            dens = f_density(above, f, len(y), tol)
            if limits[i] is None and dens.converged and dens.value <= tol:
                limits[i] = candidate
        if None not in limits:
            break
    return limits, s


def reference_cauchy_search(y, f, eps, tol):
    """One radius: a deviation per anchor, largest anchor first."""
    if not f.unbounded:
        raise ValueError(f"bounded modulus {f.name!r}: the Cauchy check needs an unbounded modulus")
    trail = []
    for anchor in checkpoints(len(y))[::-1]:
        anchor = int(anchor)
        dev = np.abs(y - y[anchor - 1])
        if not math.isfinite(float(dev.max())):
            raise ValueError(f"sequence 'dev@{anchor}' contains non-finite values")
        dens = f_density(exceedance_set(dev, eps), f, len(y), tol)
        trail.append((anchor, dens.verdict, dens.value))
        if dens.converged and dens.value <= tol:
            return CauchyReport(True, anchor, dens, tuple(trail))
    return CauchyReport(False, None, None, tuple(trail))


def reference_cauchy_construction(y, f, depth, tol):
    """The nested intervals over the transformed prefix y, one anchor search per radius 1/k."""
    anchors = []
    lo, hi = -math.inf, math.inf
    for k in range(1, depth + 1):
        report = reference_cauchy_search(y, f, 1.0 / k, tol)
        if not report.cauchy:
            raise CauchyConstructionError(
                k, f"no anchor realizes the Cauchy condition at radius 1/{k}")
        anchors.append(report.anchor)
        center = float(y[report.anchor - 1])
        lo = max(lo, center - 1.0 / k)
        hi = min(hi, center + 1.0 / k)
    if lo > hi + _SLACK:
        raise CauchyConstructionError(
            None, f"nested intervals emptied: lo={lo:.6g} > hi={hi:.6g}")
    return 0.5 * (lo + hi), max(0.0, hi - lo), tuple(anchors)


def reference_thresholds(s, f, depth):
    """The extraction's level loop with |B_j(i)| from a running sum."""
    n = len(s)
    f_all = f(np.arange(1, n + 1, dtype=np.int64))
    thresholds, counts_at = [], {}
    r_prev = 0
    for j in range(1, depth + 1):
        above = s > 1.0 / j
        counts = np.cumsum(above)
        counts_at[j] = tuple((int(cp), int(counts[cp - 1])) for cp in checkpoints(n))
        if j == 1:
            members = np.flatnonzero(above) + 1
            r_j = int(members[0]) if members.size else 1
        else:
            bad = np.flatnonzero(f(counts) / f_all > 1.0 / j + _SLACK)
            last_bad = int(bad[-1]) + 1 if bad.size else 0
            r_j = max(last_bad + 1, r_prev + 1)
            if r_j > n // 2:
                return ("stuck", j, f"stuck at level {j}: f(|B_{j}(i)|)/f(i) keeps exceeding "
                                    f"1/{j} through index {last_bad} of {n}"), counts_at
        thresholds.append(r_j)
        r_prev = r_j
    return tuple(thresholds), counts_at


def reference_off_tail_sup(s, thresholds, depth):
    """The largest score past r_depth off the witness set, from an n-length mask."""
    n = len(s)
    x_members = []
    for j in range(1, depth + 1):
        hi = thresholds[j] if j < depth else n + 1
        level = np.flatnonzero(s > 1.0 / j) + 1
        x_members.append(level[(level >= thresholds[j - 1]) & (level < hi)])
    x_members = np.concatenate(x_members)
    off = np.ones(n, dtype=bool)
    off[x_members - 1] = False
    tail = s[thresholds[-1] - 1:][off[thresholds[-1] - 1:]]
    return x_members, float(tail.max()) if tail.size else 0.0


def reference_off_witness(s, witness, eps, tol):
    """The off-witness check from n-length mask and index arrays."""
    n = len(s)
    members = witness.members_upto(n)
    off = np.ones(n, dtype=bool)
    if members.size:
        off[members - 1] = False
    off_idx = np.flatnonzero(off) + 1
    if off_idx.size == 0:
        return OffWitnessCheck(True, 0, 0.0, 0)
    w = math.ceil(off_idx.size / 3)
    tail_max = float(s[off_idx[-w:] - 1].max())
    exceed_off = off_idx[s[off_idx - 1] > eps]
    i0 = int(exceed_off.max()) if exceed_off.size else 0
    return OffWitnessCheck(tail_max <= tol + _SLACK, i0, tail_max, int(off_idx.size))


def outcome(fn, *args, **kwargs):
    """``("ok", result)`` or ``("raised", type, message)``."""
    try:
        return ("ok", fn(*args, **kwargs))
    except (ValueError, ArithmeticError, CauchyConstructionError) as exc:
        return ("raised", type(exc), str(exc))


# -- inputs ----------------------------------------------------------------

MODULI = {name: make_modulus(name) for name in ("id", "log1p", "pow:0.5")}


@st.composite
def instances(draw):
    """A spike, alternating or harmonic prefix x with n in [100, 5000] and its
    transform y under the identity or Cesaro matrix; ``poison`` optionally puts
    +1e308 at one anchor and -1e308 at index 1, so that anchor's deviation overflows."""
    n = draw(st.integers(min_value=100, max_value=5000))
    kind = draw(st.sampled_from(["spike", "alt", "harmonic"]))
    level = draw(st.sampled_from([-2.0, 0.0, 0.5, 3.0]))
    if kind == "spike":
        positions = make_index_set(draw(st.sampled_from(["squares", "evens", "arith:3,7"])))
        delta = draw(st.sampled_from([0.05, 0.3, 1.0, 2.5]))
        x = spike_sequence(n, positions, base=level, delta=delta)
    elif kind == "alt":
        x = alternating_sequence(n, level, level + draw(st.sampled_from([0.05, 0.2, 1.0])))
    else:
        x = harmonic_sequence(n, level)
    values = np.array(x.values)
    if draw(st.booleans()):
        values[int(draw(st.sampled_from(list(checkpoints(n))))) - 1] = 1e308
        values[0] = -1e308
    x = SequencePrefix(values, label=x.label)
    y = transform_prefix(make_matrix(draw(st.sampled_from(["identity", "cesaro"]))), x, len(x))
    params = SpaceParams(make_family("linear"), make_lacunary("powers2", 4),
                         eps=draw(st.sampled_from([0.05, 0.1, 0.3])))
    tol = draw(st.sampled_from([0.01, 0.05]))
    return x, y, params, tol


moduli_lists = st.lists(st.sampled_from(sorted(MODULI)), min_size=1, max_size=4).map(
    lambda names: [MODULI[name] for name in names])

quiet = pytest.mark.filterwarnings("ignore::RuntimeWarning")


# -- properties ------------------------------------------------------------

@quiet
@settings(max_examples=60, deadline=None)
@given(inst=instances(), moduli=moduli_lists)
def test_limit_estimate_matches_per_modulus_scan(inst, moduli):
    _, y, params, tol = inst
    want = outcome(lambda: [reference_limit_estimate(y, params, f, params.eps, tol)
                            for f in moduli])
    got = outcome(lambda: stat_limit_estimate(y, params, moduli, tol)[0])
    assert got == want
    if want[0] == "ok":
        probe = multi_modulus_probe(y, params, moduli, tol)
        assert probe.limits == dict(zip((f.name for f in moduli), want[1]))
        assert stat_limit_estimate(y, params, moduli[:1], tol)[0] == want[1][:1]


def assert_same_scan(y, params, moduli, tol):
    want = outcome(reference_limit_scan, y, params, moduli, tol)
    got = outcome(stat_limit_estimate, y, params, moduli, tol)
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got == want
        return got
    (got_limits, got_s), (want_limits, want_s) = got[1], want[1]
    assert got_limits == want_limits
    assert (got_s is None) == (want_s is None)
    assert got_s is None or np.array_equal(got_s, want_s)
    return got


@quiet
@settings(max_examples=60, deadline=None)
@given(inst=instances(), moduli=moduli_lists)
def test_limit_scan_matches_np_unique_reference(inst, moduli):
    _, y, params, tol = inst
    assert_same_scan(y, params, moduli, tol)


def _tied_bins(n):
    # eight bins whose counts differ by at most one, so the ranking rests on
    # the tie-break by bin and the scan runs through five of them
    return np.arange(n) % 8 * 0.5


def _straddling_bins(n):
    # runs of 1000 indices cycle through seven values, so every bin crosses
    # block edges; a sine keeps the members of a bin distinct
    i = np.arange(n)
    return (i // 1000) % 7 + 0.02 * np.sin(i)


def _noisy_plateau(n):
    # one bin of distinct values spread over every block, and a spike every
    # 50th index: a density member under id but not under log1p
    i = np.arange(n)
    return np.where(i % 50 == 0, 7.0, 3.0 + 0.01 * np.sin(i))


def _near_the_float_max(n):
    # the modal bin holds 1e308, whose two middle values overflow when averaged
    # at an even count; every 97th value lies a finite spread of bins below
    y = np.full(n, 1e308)
    y[::97] = 9.9e307
    return y


@quiet
@pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
@pytest.mark.parametrize("make", [_tied_bins, _straddling_bins, _noisy_plateau, _near_the_float_max,
                                  lambda n: np.full(n, 2.5)],
                         ids=["tied", "straddling", "plateau", "near-max", "single-bin"])
def test_limit_scan_across_block_edges(n, make):
    params = SpaceParams(make_family("linear"), make_lacunary("powers2", 4), eps=0.1)
    assert assert_same_scan(make(n), params, [MODULI["id"], MODULI["log1p"]], 0.05)[0] == "ok"


def _first_run_ending_at(end, n):
    # bin 0 holds the first ``end`` values of the sorted copy and bin 10 the rest,
    # each of distinct values, shuffled; so a run ends at ``end`` in the sorted copy
    i = np.arange(n)
    y = np.where(i < end, 0.09 * i / n, 1.0 + 0.09 * i / n)
    return np.random.default_rng(end).permutation(y)


def _more_bins_than_a_block(n):
    # every pair of indices its own bin, past _CHUNK bins, and one bin of three
    # in the middle, the fullest; the other candidates tie and go by bin
    y = np.repeat(np.arange(_CHUNK + 100) * 0.25, 2)[:n]
    y[n // 2] = y[n // 2 + 2]
    return np.random.default_rng(n).permutation(y)


def _one_bin_of_distinct_values(n):
    return 2.5 + 0.04 * np.sin(np.arange(n))


@quiet
@pytest.mark.parametrize("make", [
    *(lambda n, end=end: _first_run_ending_at(end, n)
      for end in [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK - 1, 2 * _CHUNK, 2 * _CHUNK + 1]),
    _more_bins_than_a_block, _one_bin_of_distinct_values,
], ids=["run-end-chunk-1", "run-end-chunk", "run-end-chunk+1", "run-end-2chunk-1", "run-end-2chunk",
        "run-end-2chunk+1", "more-bins-than-a-block", "one-bin"])
def test_limit_scan_over_runs_of_the_sorted_copy(make):
    # the runs of the sorted copy are found in blocks of _CHUNK values: a run
    # that ends at one of a block's edges, more runs than a block holds, and one run
    params = SpaceParams(make_family("linear"), make_lacunary("powers2", 4), eps=0.1)
    y = make(2 * _CHUNK + 200)
    assert assert_same_scan(y, params, [MODULI["id"], MODULI["log1p"]], 0.05)[0] == "ok"


@quiet
@settings(max_examples=60, deadline=None)
@given(inst=instances(), modulus=st.sampled_from(sorted(MODULI)),
       depth=st.integers(min_value=1, max_value=12))
def test_cauchy_sweep_matches_per_radius_search(inst, modulus, depth):
    _, y, params, tol = inst
    f = MODULI[modulus]
    want = outcome(reference_cauchy_construction, y, f, depth, tol)
    got = outcome(cauchy_limit_construction, y, f, depth, tol)
    if got[0] == "ok":
        got = ("ok", (got[1].value, got[1].width, got[1].anchors))
    assert got == want
    assert (outcome(stat_cauchy_check, y, params.eps, f, tol)
            == outcome(reference_cauchy_search, y, f, params.eps, tol))


@quiet
@settings(max_examples=40, deadline=None)
@given(inst=instances(), modulus=st.sampled_from(sorted(MODULI)),
       depth=st.integers(min_value=2, max_value=8))
def test_extract_on_reused_scores_matches_rescored(inst, modulus, depth):
    x, y, params, tol = inst
    f = MODULI[modulus]
    got = outcome(stat_limit_estimate, y, params, [f], tol)
    if got[0] != "ok" or got[1][0][0] is None:
        return
    (est,), s = got[1]
    at_est = replace(params, limit=est)
    rescored_s = pointwise_scores(y, at_est)
    assert np.array_equal(s, rescored_s)
    want_thresholds, want_counts = reference_thresholds(s, f, depth)
    if isinstance(want_thresholds[0], str):
        with pytest.raises(WitnessExtractionError) as fed:
            extract_witness_set(s, f, depth, tol)
        with pytest.raises(WitnessExtractionError) as rescored:
            extract_witness_set(rescored_s, f, depth, tol)
        assert fed.value.stuck_level == rescored.value.stuck_level == want_thresholds[1]
        assert str(fed.value) == str(rescored.value)
        return
    fed = extract_witness_set(s, f, depth, tol)
    rescored = extract_witness_set(rescored_s, f, depth, tol)
    assert fed.thresholds == rescored.thresholds == want_thresholds
    assert fed.level_counts == rescored.level_counts == want_counts
    assert np.array_equal(fed.members.members_upto(len(x)), rescored.members.members_upto(len(x)))
    assert (fed.density, fed.off_tail_sup) == (rescored.density, rescored.off_tail_sup)
    assert (converge_off_witness(s, fed.members, at_est.eps, 1.0 / depth)
            == converge_off_witness(rescored_s, fed.members, at_est.eps, 1.0 / depth))


def test_each_modulus_keeps_its_own_first_candidate():
    # y = 0.95 on the odds and multiples of 10, 1.05 on the other evens, 2.0 on
    # the squares and 0 at index 1.  With eps = 1 the first candidate, 0.95,
    # leaves the squares as exceedances (id-null, not log1p-null); the second,
    # 1.05, leaves only index 1.  So id stops at the first candidate while
    # log1p and pow:0.5 need the second, and the scan must go on for them.
    n = 2000
    i = np.arange(1, n + 1)
    y = np.where((i % 2 == 1) | (i % 10 == 0), 0.95, 1.05)
    y[np.isin(i, np.arange(1, 45) ** 2)] = 2.0
    y[0] = 0.0
    params = SpaceParams(make_family("linear"), make_lacunary("powers2", 4), eps=1.0)
    names = ["id", "log1p", "id", "pow:0.5"]
    want = [reference_limit_estimate(y, params, MODULI[m], 1.0, 0.05) for m in names]
    assert want == [0.95, 1.05, 0.95, 1.05]
    assert stat_limit_estimate(y, params, [MODULI[m] for m in names], 0.05)[0] == want


@quiet
@settings(max_examples=60, deadline=None)
@given(inst=instances(), modulus=st.sampled_from(sorted(MODULI)),
       depth=st.integers(min_value=2, max_value=8), at=st.sampled_from(["first", "last", "median"]))
def test_extraction_from_member_positions_matches_n_array_reference(inst, modulus, depth, at):
    _, y, params, tol = inst
    f = MODULI[modulus]
    limit = {"first": y[0], "last": y[-1], "median": np.median(y)}[at]
    scored = outcome(pointwise_scores, y, replace(params, limit=float(limit)))
    if scored[0] != "ok":
        return
    s = scored[1]
    want_thresholds, want_counts = reference_thresholds(s, f, depth)
    witnesses = [make_index_set("squares"), make_index_set("evens"), IndexSet.from_members("none", []),
                 IndexSet.from_members("all", np.arange(1, len(s) + 1))]
    if want_thresholds[0] == "stuck":
        with pytest.raises(WitnessExtractionError) as stuck:
            extract_witness_set(s, f, depth, tol)
        assert (stuck.value.stuck_level, str(stuck.value)) == want_thresholds[1:]
    else:
        ws = extract_witness_set(s, f, depth, tol)
        want_members, want_sup = reference_off_tail_sup(s, want_thresholds, depth)
        assert ws.thresholds == want_thresholds
        assert ws.level_counts == want_counts
        assert np.array_equal(ws.members.members_upto(len(s)), want_members)
        assert ws.off_tail_sup == want_sup
        witnesses.append(ws.members)
    for witness in witnesses:
        assert (converge_off_witness(s, witness, params.eps, 1.0 / depth)
                == reference_off_witness(s, witness, params.eps, 1.0 / depth))


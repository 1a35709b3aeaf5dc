"""The witness routes' shared scans against reference copies of the loops they
replaced.

``stat_limit_estimate`` bins the transformed prefix once and scores each candidate
once for every modulus; ``_cauchy_search`` builds one deviation per anchor for
every radius; ``witness extract`` reuses the limit estimate's scores.  The
references below are the per-modulus and per-radius loops, kept verbatim in
behaviour: the new code must return the same floats and anchors, and raise the
same exception with the same message.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlab.core import SequencePrefix, make_index_set, make_lacunary
from seqlab.density import checkpoints, exceedance_set, f_density
from seqlab.errors import CauchyConstructionError, WitnessExtractionError
from seqlab.matrices import make_matrix, transform_prefix
from seqlab.membership import (CauchyReport, SpaceParams, pointwise_scores, stat_cauchy_check,
                               stat_limit_estimate)
from seqlab.modulus import make_modulus
from seqlab.orlicz import make_family
from seqlab.sequences import alternating_sequence, harmonic_sequence, spike_sequence
from seqlab.witnesses import (cauchy_limit_construction, converge_off_witness,
                              extract_witness_set, multi_modulus_probe)

_SLACK = 1e-12


# -- references: the loops as they were before the shared scans -------------

def reference_limit_estimate(y, params, f, eps, tol):
    """One modulus: bin, then score candidates until one is a density member."""
    if not f.unbounded:
        raise ValueError(f"bounded modulus {f.name!r}: the density mode needs an unbounded modulus")
    width = max(eps, 1e-12)
    if not math.isfinite((float(y.max()) - float(y.min())) / width):
        raise ValueError("the transformed values spread past the float range; supply --limit")
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


def reference_cauchy_construction(x, params, f, depth, tol):
    """The nested intervals, one anchor search per radius 1/k."""
    y = transform_prefix(params.matrix, x, len(x))
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
            r_j = max((int(bad[-1]) + 1 if bad.size else 0) + 1, r_prev + 1)
            if r_j > n // 2:
                return ("stuck", j), counts_at
        thresholds.append(r_j)
        r_prev = r_j
    return tuple(thresholds), counts_at


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
    """A spike, alternating or harmonic prefix with n in [100, 5000], under the
    identity or Cesaro matrix; ``poison`` optionally puts +1e308 at one anchor
    and -1e308 at index 1, so that anchor's deviation overflows."""
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
    params = SpaceParams(make_matrix(draw(st.sampled_from(["identity", "cesaro"]))),
                         make_family("linear"), make_lacunary("powers2", 4),
                         eps=draw(st.sampled_from([0.05, 0.1, 0.3])))
    tol = draw(st.sampled_from([0.01, 0.05]))
    return x, params, tol


moduli_lists = st.lists(st.sampled_from(sorted(MODULI)), min_size=1, max_size=4).map(
    lambda names: [MODULI[name] for name in names])

quiet = pytest.mark.filterwarnings("ignore::RuntimeWarning")


# -- properties ------------------------------------------------------------

@quiet
@settings(max_examples=60, deadline=None)
@given(inst=instances(), moduli=moduli_lists)
def test_limit_estimate_matches_per_modulus_scan(inst, moduli):
    x, params, tol = inst
    y = transform_prefix(params.matrix, x, len(x))
    want = outcome(lambda: [reference_limit_estimate(y, params, f, params.eps, tol)
                            for f in moduli])
    got = outcome(lambda: stat_limit_estimate(y, params, moduli, tol)[0])
    assert got == want
    if want[0] == "ok":
        probe = multi_modulus_probe(x, params, moduli, tol)
        assert probe.limits == dict(zip((f.name for f in moduli), want[1]))
        assert stat_limit_estimate(y, params, moduli[:1], tol)[0] == want[1][:1]


@quiet
@settings(max_examples=60, deadline=None)
@given(inst=instances(), modulus=st.sampled_from(sorted(MODULI)),
       depth=st.integers(min_value=1, max_value=12))
def test_cauchy_sweep_matches_per_radius_search(inst, modulus, depth):
    x, params, tol = inst
    f = MODULI[modulus]
    want = outcome(reference_cauchy_construction, x, params, f, depth, tol)
    got = outcome(cauchy_limit_construction, x, params, f, depth, tol)
    if got[0] == "ok":
        got = ("ok", (got[1].value, got[1].width, got[1].anchors))
    assert got == want
    y = transform_prefix(params.matrix, x, len(x))
    assert (outcome(stat_cauchy_check, x, params, f, tol)
            == outcome(reference_cauchy_search, y, f, params.eps, tol))


@quiet
@settings(max_examples=40, deadline=None)
@given(inst=instances(), modulus=st.sampled_from(sorted(MODULI)),
       depth=st.integers(min_value=2, max_value=8))
def test_extract_on_reused_scores_matches_rescored(inst, modulus, depth):
    x, params, tol = inst
    f = MODULI[modulus]
    y = transform_prefix(params.matrix, x, len(x))
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
    params = SpaceParams(make_matrix("identity"), make_family("linear"),
                         make_lacunary("powers2", 4), eps=1.0)
    names = ["id", "log1p", "id", "pow:0.5"]
    want = [reference_limit_estimate(y, params, MODULI[m], 1.0, 0.05) for m in names]
    assert want == [0.95, 1.05, 0.95, 1.05]
    assert stat_limit_estimate(y, params, [MODULI[m] for m in names], 0.05)[0] == want

"""Executable constructions: witness-set extraction, nested-interval Cauchy
limits, the two strict-inclusion generators, and the multi-modulus probe.

The two generators deliberately split the membership modes:

* ``half-plateau`` fills the first half of each block with a constant whose
  family weight fades (M_i(t) = t/i), so mean residuals collapse below 2^-r
  while exceedance ratios sit at one half;
* ``block-spike`` puts a single growing spike at each block's right endpoint,
  sized so its score matches h_r^alpha, so exceedance ratios vanish while mean
  residuals stay pinned at 1.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .core import MATERIALIZE_CAP, IndexSet, LacunaryScheme, SequencePrefix
from .density import DEFAULT_TOL, DensityEstimate, checkpoints, exceedance_set, f_density, tail_window
from .errors import (CauchyConstructionError, GenerationError, SpreadError,
                     TruncationError, WitnessExtractionError)
from .membership import (DEFAULT_EPS, MEMBER, MIN_BLOCKS, NON_MEMBER, MembershipReport,
                         SpaceParams, _block_report, _cauchy_search, block_trails,
                         pointwise_scores, stat_limit_estimate)
from .modulus import Modulus
from .orlicz import OrliczFamily, OrliczFn, const_rho, make_orlicz, uniform_family, weighted_family

_SLACK = 1e-12
_CUT_BUDGET = 10_000_000

BLOCK_SPIKE_DISCREPANCY = (
    "block-spike discrepancy: exceedance counting accepts this construction "
    "(one spike per block, ratios 1/h_r^alpha -> 0) while the mean residual "
    "trail stays >= 1, so the averaged-space verdict is non-member; any "
    "expectation of averaged-space membership for it contradicts the computed trail."
)


@dataclass(frozen=True)
class WitnessSet:
    """A density-null exceptional set outside of which the scores stay small."""

    members: IndexSet
    thresholds: tuple[int, ...]
    level_counts: dict  # level j -> tuple of (checkpoint, |B_j(checkpoint)|)
    density: DensityEstimate
    off_tail_sup: float


def _last_bad(members: np.ndarray, n: int, f: Modulus, bound: float) -> int:
    """The last i in 1..n with f(|B(i)|)/f(i) > bound, or 0, where B(i) holds the sorted
    ``members`` up to i.  Along a run of constant count k the ratio f(k)/f(i) does not
    increase, so it is taken at each run's first index and the last failing run is bisected.
    """
    starts = np.concatenate(([1], members))  # run k holds the count k from starts[k]
    ends = np.append(members - 1, n)
    counts = np.arange(starts.size)
    bad = np.flatnonzero(f(counts) / f(starts) > bound)  # f(0) = 0, so an empty run 0 never fails
    if not bad.size:
        return 0
    k = int(bad[-1])
    run, f_k = range(int(starts[k]), int(ends[k]) + 1), f(counts[k:k + 1])
    # the run's first index fails, so the first that passes comes after it
    return run[bisect.bisect_left(run, True, key=lambda i: bool(f_k / f(np.array([i])) <= bound)) - 1]


def extract_witness_set(s: np.ndarray, f: Modulus, depth: int = 5,
                        tol: float = DEFAULT_TOL) -> WitnessSet:
    """Build X = union_j ([r_j, r_{j+1}) intersect B_j), B_j = {i : s_i > 1/j}, from scores s.

    Each threshold r_j is the first index past r_{j-1} after which
    f(|B_j(i)|)/f(i) <= 1/j holds through the truncation; a threshold must
    leave at least half the truncation as verification tail, otherwise the
    construction is declared stuck at that level.  On success the scores off
    X beyond r_depth stay <= 1/depth by construction (verified and reported).
    Each level B_j is filtered from B_depth and worked from its members.
    """
    f.unbounded_for("witness extraction")
    if depth < 2:
        raise ValueError("witness depth must be >= 2")
    n = len(s)
    cps = checkpoints(n)
    deepest = exceedance_set(s, 1.0 / depth).members_upto(n)

    thresholds: list[int] = []
    level_members: dict[int, np.ndarray] = {}
    level_counts: dict[int, tuple] = {}
    for j in range(1, depth + 1):
        members = level_members[j] = deepest[s[deepest - 1] > 1.0 / j]
        level_counts[j] = tuple(zip(cps.tolist(), np.searchsorted(members, cps, side="right").tolist()))
        if j == 1:
            r_j = int(members[0]) if members.size else 1
        else:
            last_bad = _last_bad(members, n, f, 1.0 / j + _SLACK)
            r_j = max(last_bad, thresholds[-1]) + 1
            if r_j > n // 2:
                raise WitnessExtractionError(
                    j,
                    f"stuck at level {j}: f(|B_{j}(i)|)/f(i) keeps exceeding "
                    f"1/{j} through index {last_bad} of {n}",
                )
        thresholds.append(r_j)

    cuts = thresholds + [n + 1]  # X takes B_j on [r_j, r_{j+1}): disjoint ascending slices
    x_members = np.concatenate([m[(m >= cuts[j - 1]) & (m < cuts[j])] for j, m in level_members.items()])
    witness = IndexSet.from_members("witness", x_members)

    dens = f_density(witness, f, n, tol)
    # past r_depth the witness set is B_depth, so the scores off it are those <= 1/depth
    tail = s[thresholds[-1] - 1:]
    off_sup = float(np.max(tail, where=tail <= 1.0 / depth, initial=0.0))  # scores are >= 0
    return WitnessSet(witness, tuple(thresholds), level_counts, dens, off_sup)


@dataclass(frozen=True)
class OffWitnessCheck:
    passed: bool
    i0: int
    tail_max: float
    n_off: int


def converge_off_witness(s: np.ndarray, witness: IndexSet, eps: float,
                         tol: float) -> OffWitnessCheck:
    """Check the scores s_1..s_n restricted to the complement of the witness set.

    Passes when the trailing third of off-witness scores stays <= tol.  Also
    reports the smallest i0 with {i : s_i > eps} contained in X union {1..i0}
    (i0 = 0 when the exceedances are exactly covered).  Only the trailing third gets a mask.
    """
    n = len(s)
    members = witness.members_upto(n)
    n_off = n - members.size
    if n_off == 0:
        return OffWitnessCheck(True, 0, 0.0, 0)
    # the trailing third starts at the k-th off index: k plus the number of
    # members m_r (the r-th smallest) with m_r - r < k
    k = n_off - tail_window(n_off) + 1
    start = k + int(np.searchsorted(members - np.arange(1, members.size + 1), k))
    tail = s[start - 1:]
    off = np.ones(tail.size, dtype=bool)
    off[members[np.searchsorted(members, start):] - start] = False
    tail_max = float(np.max(tail, where=off, initial=-np.inf))
    exceed_off = np.setdiff1d(exceedance_set(s, eps).members_upto(n), members, assume_unique=True)
    i0 = int(exceed_off[-1]) if exceed_off.size else 0
    return OffWitnessCheck(tail_max <= tol + _SLACK, i0, tail_max, n_off)


@dataclass(frozen=True)
class NestedLimit:
    value: float
    width: float
    anchors: tuple[int, ...]


def cauchy_limit_construction(y: np.ndarray, f: Modulus, depth: int = 10,
                              tol: float = DEFAULT_TOL) -> NestedLimit:
    """Intersect anchor-centered intervals of radius 1/k, k = 1..depth, over the transformed prefix y.

    Each level picks an anchor realizing the Cauchy condition at radius 1/k;
    the midpoint of the final intersection is the limit estimate and its width
    is at most 2/depth.  An empty intersection diagnoses a false Cauchy verdict
    at this truncation.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    reports = _cauchy_search(y, f, [1.0 / k for k in range(1, depth + 1)], tol)
    anchors = []
    lo = -math.inf
    hi = math.inf
    for k, report in enumerate(reports, start=1):
        if not report.cauchy:
            raise CauchyConstructionError(
                k, f"no anchor realizes the Cauchy condition at radius 1/{k}")
        anchor = report.anchor
        anchors.append(anchor)
        center = float(y[anchor - 1])
        lo = max(lo, center - 1.0 / k)
        hi = min(hi, center + 1.0 / k)
    if lo > hi + _SLACK:
        raise CauchyConstructionError(
            None, f"nested intervals emptied: lo={lo:.6g} > hi={hi:.6g}")
    width = max(0.0, hi - lo)
    return NestedLimit(0.5 * (lo + hi), width, tuple(anchors))


def _instance_params(family: OrliczFamily, scheme: LacunaryScheme, alpha: float, rho: float,
                     eps: float = DEFAULT_EPS) -> SpaceParams:
    """The space both generators build: limit 0 and the constant ``rho``, with no matrix."""
    return SpaceParams(family, scheme, alpha, const_rho(rho), 0.0, eps)


def gen_half_plateau_instance(nu: float = 1.0, rho: float = 1.0,
                              blocks: int = 10) -> tuple[SequencePrefix, SpaceParams]:
    """Sequence equal to nu on the first half of each block, 0 on the rest,
    against the fading family M_i(t) = t/i.

    Cuts n_r = max(n_{r-1}+2, ceil((nu/rho) 2^r)) make every plateau score
    (nu/rho)/i fall below 2^{-(r-1)} inside block r, so the mean residuals obey
    t_r <= 2^-r while the exceedance ratio per block stays at one half.  The
    exceedance threshold is set below the smallest plateau score at this
    truncation so every plateau position counts.
    """
    for name, v in (("nu", nu), ("rho", rho)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    if nu < 0:
        raise ValueError("plateau height nu must be >= 0")
    if rho <= 0:
        raise ValueError("rho must be positive")
    if blocks < MIN_BLOCKS:
        raise ValueError(f"need at least {MIN_BLOCKS} blocks")
    # a ratio past the budget fails at block 1 either way; clamped, the exact
    # ldexp below stops at the budget check long before it could overflow
    ratio = min(nu / rho, _CUT_BUDGET)
    cuts = [0]
    for r in range(1, blocks + 1):
        cuts.append(max(cuts[-1] + 2, math.ceil(math.ldexp(ratio, r))))
        if cuts[-1] > _CUT_BUDGET:
            raise GenerationError(
                f"plateau cuts exceed the truncation budget ({_CUT_BUDGET}) at block {r}")
    scheme = LacunaryScheme(tuple(cuts))
    values = np.zeros(scheme.k_max)
    for r in range(1, blocks + 1):
        lo, hi = scheme.block(r)
        mid = (lo + hi) // 2
        values[lo:mid] = nu
    family = weighted_family(make_orlicz("linear"), lambda idx: 1.0 / idx, name="t/i")
    if nu > 0:
        last_mid = (cuts[-2] + cuts[-1]) // 2
        eps = 0.5 * ratio / last_mid
    else:
        eps = DEFAULT_EPS
    x = SequencePrefix._adopt(values, f"half-plateau(nu={nu:g},rho={rho:g},R={blocks})")
    return x, _instance_params(family, scheme, 1.0, rho, eps)


@dataclass(frozen=True)
class PairReport:
    """Both block verdicts on one scoring of a generated instance, with its own checks."""

    mean_report: MembershipReport
    count_report: MembershipReport
    checks: dict
    matches_expected: bool  # the (mean, count) verdicts are the ones the instance is built to give


def _pair_report(x: SequencePrefix, params: SpaceParams, tol: float,
                 expected: tuple[str, str], checks) -> PairReport:
    """Judge both modes on one ``block_trails`` scoring of ``x.values`` against the
    ``expected`` (mean, count) verdicts; ``checks(t, counts)`` gives the instance's own checks."""
    trails = block_trails(pointwise_scores(x.values, params), params)
    mean_rep = _block_report(trails, params, "mean", tol)
    count_rep = _block_report(trails, params, "count", tol)
    return PairReport(mean_rep, count_rep, checks(trails[0], trails[2]),
                      (mean_rep.verdict, count_rep.verdict) == expected)


def half_plateau_report(x: SequencePrefix, params: SpaceParams,
                        tol: float = DEFAULT_TOL) -> PairReport:
    """Expected mean member, count non-member; checks that t_r <= 2^-r."""
    bounds = 2.0 ** -np.arange(1, params.scheme.blocks + 1, dtype=float)
    return _pair_report(x, params, tol, (MEMBER, NON_MEMBER), lambda t, counts: {
        "residual_bounds": tuple(float(v) for v in bounds),
        "bound_satisfied": bool(np.all(t <= bounds + _SLACK)),
    })


def _solve_min_height(base: OrliczFn, rho: float, target: float) -> float:
    """Smallest nu with base(nu/rho) >= target, by doubling then bisection.

    Returns the bracket's upper end, so the inequality is guaranteed at the
    returned height.  A gauge bounded below the target trips the doubling cap.
    """
    hi = 1.0
    doublings = 0
    with np.errstate(over="ignore"):  # a gauge past the float range is inf, which meets any target
        while float(base(hi / rho)) < target:
            hi *= 2.0
            doublings += 1
            if doublings > 400:
                raise GenerationError(
                    f"gauge {base.name!r} never reaches {target:g}; is it bounded above?")
        lo = 0.0 if hi == 1.0 else hi / 2.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if float(base(mid / rho)) >= target:
                hi = mid
            else:
                lo = mid
    return hi


def gen_block_spike_instance(base: OrliczFn, scheme: LacunaryScheme, rho: float = 1.0,
                             alpha: float = 1.0) -> tuple[SequencePrefix, SpaceParams, tuple]:
    """One spike per block at i = k_r, sized so base(nu_r/rho) >= h_r^alpha,
    as ``(x, params, spike_heights)``.

    With the uniform family built from ``base``, the spike score matches the
    block normalizer: mean residuals stay >= 1 while exceedance ratios are
    exactly 1/h_r^alpha.  Requires an unbounded, strictly increasing gauge;
    a bounded one cannot satisfy the height inequality and raises.
    """
    params = _instance_params(uniform_family(base), scheme, alpha, rho)
    if scheme.k_max > MATERIALIZE_CAP:
        raise TruncationError(f"block-spike scheme ends at {scheme.k_max}, past {MATERIALIZE_CAP} values")
    heights = []
    for r in range(1, scheme.blocks + 1):
        target = float(scheme.h[r - 1]) ** alpha
        heights.append(_solve_min_height(base, rho, target))
    values = np.zeros(scheme.k_max)
    for r in range(1, scheme.blocks + 1):
        values[scheme.cuts[r] - 1] = heights[r - 1]
    x = SequencePrefix._adopt(values, f"block-spike({base.name},R={scheme.blocks})")
    return x, params, tuple(heights)


def block_spike_report(x: SequencePrefix, params: SpaceParams,
                       tol: float = DEFAULT_TOL) -> PairReport:
    """Expected count member, mean non-member; checks for one spike per block
    and residuals >= 1."""
    return _pair_report(x, params, tol, (NON_MEMBER, MEMBER), lambda t, counts: {
        "exceedance_counts": tuple(int(v) for v in counts),
        "residuals_at_least_one": bool(np.all(t >= 1.0 - 1e-9)),
        "one_spike_per_block": bool(np.all(counts == 1)),
    })


@dataclass(frozen=True)
class ModulusProbeReport:
    limits: dict  # modulus name -> limit or None
    all_agree: bool
    reference: float | None
    norm_convergence: bool


def probe_moduli(moduli) -> list[Modulus]:
    """``moduli`` as a list the probe can run: at least one, each unbounded."""
    moduli = [f.unbounded_for("the density mode") for f in moduli]
    if not moduli:
        raise ValueError("the multi-modulus probe needs at least one modulus")
    return moduli


def multi_modulus_probe(y: np.ndarray, params: SpaceParams,
                        moduli, tol: float = DEFAULT_TOL) -> ModulusProbeReport:
    """Run the limit estimate of the transformed prefix y under each modulus and compare them.

    When every modulus finds a limit they must agree, and a genuinely
    convergent sequence additionally passes the plain tail check against the
    shared value; disagreement (or a missing limit under some modulus) comes
    with norm convergence failing at truncation.
    """
    moduli = probe_moduli(moduli)
    try:
        estimates = stat_limit_estimate(y, params, moduli, tol)[0]
    except SpreadError:  # its refusal advises --limit, which the probe does not take
        raise SpreadError("the transformed values spread past the float range, "
                          "so the probe cannot bin them") from None
    limits = dict(zip((f.name for f in moduli), estimates))
    found = [v for v in limits.values() if v is not None]
    all_agree = len(found) == len(limits) and (
        not found or max(found) - min(found) <= 1e-9)
    reference = found[0] if found else None
    norm_convergence = False
    if reference is not None:
        w = tail_window(len(y))
        norm_convergence = bool(np.max(np.abs(y[-w:] - reference)) <= params.eps)
    return ModulusProbeReport(limits, all_agree, reference, norm_convergence)

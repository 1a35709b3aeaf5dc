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

import math
from dataclasses import dataclass

import numpy as np

from .core import MATERIALIZE_CAP, IndexSet, LacunaryScheme, SequencePrefix
from .density import DensityEstimate, checkpoints, f_density
from .errors import (CauchyConstructionError, GenerationError,
                     TruncationError, WitnessExtractionError)
from .matrices import make_matrix, transform_prefix
from .membership import (DEFAULT_TOL, MEMBER, NON_MEMBER, MembershipReport, SpaceParams,
                         _block_report, _cauchy_search, block_trails, pointwise_scores,
                         stat_limit_estimate)
from .modulus import Modulus
from .orlicz import OrliczFn, const_rho, make_orlicz, uniform_family, weighted_family

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


def extract_witness_set(s: np.ndarray, f: Modulus, depth: int = 5,
                        tol: float = DEFAULT_TOL) -> WitnessSet:
    """Build X = union_j ([r_j, r_{j+1}) intersect B_j), B_j = {i : s_i > 1/j}, from scores s.

    Each threshold r_j is the first index past r_{j-1} after which
    f(|B_j(i)|)/f(i) <= 1/j holds through the truncation; a threshold must
    leave at least half the truncation as verification tail, otherwise the
    construction is declared stuck at that level.  On success the scores off
    X beyond r_depth stay <= 1/depth by construction (verified and reported).
    """
    if not f.unbounded:
        raise ValueError(f"bounded modulus {f.name!r}: witness extraction needs an unbounded modulus")
    if depth < 2:
        raise ValueError("witness depth must be >= 2")
    n = len(s)
    f_all = f(np.arange(1, n + 1, dtype=np.int64))
    cps = checkpoints(n)

    thresholds: list[int] = []
    level_members: dict[int, np.ndarray] = {}
    level_counts: dict[int, tuple] = {}
    r_prev = 0
    for j in range(1, depth + 1):
        members = np.flatnonzero(s > 1.0 / j) + 1
        level_members[j] = members
        # counts[i - 1] = |B_j(i)|: the count k holds from the k-th member up to the next
        counts = np.repeat(np.arange(members.size + 1), np.diff(members, prepend=1, append=n + 1))
        level_counts[j] = tuple((int(cp), int(counts[cp - 1])) for cp in cps)
        if j == 1:
            r_j = int(members[0]) if members.size else 1
        else:
            ratios = f(counts) / f_all
            bad = np.flatnonzero(ratios > 1.0 / j + _SLACK)
            last_bad = int(bad[-1]) + 1 if bad.size else 0
            r_j = max(last_bad + 1, r_prev + 1)
            if r_j > n // 2:
                raise WitnessExtractionError(
                    j,
                    f"stuck at level {j}: f(|B_{j}(i)|)/f(i) keeps exceeding "
                    f"1/{j} through index {last_bad} of {n}",
                )
        thresholds.append(r_j)
        r_prev = r_j

    parts = []
    for j in range(1, depth + 1):
        lo = thresholds[j - 1]
        hi = thresholds[j] if j < depth else n + 1
        m = level_members[j]
        parts.append(m[(m >= lo) & (m < hi)])
    x_members = np.concatenate(parts)  # disjoint ascending slices: sorted and unique
    witness = IndexSet.from_members("witness", x_members)

    dens = f_density(witness, f, n, tol)
    off = np.ones(n, dtype=bool)
    if x_members.size:
        off[x_members - 1] = False
    tail = s[thresholds[-1] - 1:][off[thresholds[-1] - 1:]]
    off_sup = float(tail.max()) if tail.size else 0.0
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
    (i0 = 0 when the exceedances are exactly covered).
    """
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


@dataclass(frozen=True)
class NestedLimit:
    value: float
    width: float
    anchors: tuple[int, ...]


def cauchy_limit_construction(x: SequencePrefix, params: SpaceParams, f: Modulus,
                              depth: int = 10, tol: float = DEFAULT_TOL) -> NestedLimit:
    """Intersect anchor-centered intervals of radius 1/k for k = 1..depth.

    Each level picks an anchor realizing the Cauchy condition at radius 1/k;
    the midpoint of the final intersection is the limit estimate and its width
    is at most 2/depth.  An empty intersection diagnoses a false Cauchy verdict
    at this truncation.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    y = transform_prefix(params.matrix, x, len(x))
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
    if blocks < 6:
        raise ValueError("need at least 6 blocks")
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
        eps = 0.1
    params = SpaceParams(
        matrix=make_matrix("identity"),
        family=family,
        scheme=scheme,
        alpha=1.0,
        rho=const_rho(rho),
        limit=0.0,
        eps=eps,
    )
    x = SequencePrefix(values, label=f"half-plateau(nu={nu:g},rho={rho:g},R={blocks})")
    return x, params


@dataclass(frozen=True)
class PairReport:
    """Both block verdicts on one scoring of a generated instance, with its own checks."""

    mean_report: MembershipReport
    count_report: MembershipReport
    checks: dict
    matches_expected: bool  # the (mean, count) verdicts are the ones the instance is built to give


def _pair_report(x: SequencePrefix, params: SpaceParams, tol: float,
                 expected: tuple[str, str], checks) -> PairReport:
    """Judge both modes on one ``block_trails`` scoring against the ``expected``
    (mean, count) verdicts; ``checks(t, counts)`` gives the instance's own checks."""
    y = transform_prefix(params.matrix, x, min(params.scheme.k_max, len(x)))
    trails = block_trails(pointwise_scores(y, params), params)
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
    if not math.isfinite(rho):
        raise ValueError(f"rho must be finite, got {rho}")
    if rho <= 0:
        raise ValueError("rho must be positive")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if scheme.k_max > MATERIALIZE_CAP:
        raise TruncationError(f"block-spike scheme ends at {scheme.k_max}, past {MATERIALIZE_CAP} values")
    heights = []
    for r in range(1, scheme.blocks + 1):
        target = float(scheme.h[r - 1]) ** alpha
        heights.append(_solve_min_height(base, rho, target))
    values = np.zeros(scheme.k_max)
    for r in range(1, scheme.blocks + 1):
        values[scheme.cuts[r] - 1] = heights[r - 1]
    params = SpaceParams(
        matrix=make_matrix("identity"),
        family=uniform_family(base),
        scheme=scheme,
        alpha=alpha,
        rho=const_rho(rho),
        limit=0.0,
    )
    x = SequencePrefix(values, label=f"block-spike({base.name},R={scheme.blocks})")
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


def multi_modulus_probe(x: SequencePrefix, params: SpaceParams,
                        moduli, tol: float = DEFAULT_TOL) -> ModulusProbeReport:
    """Run the limit estimate under each modulus and compare the answers.

    When every modulus finds a limit they must agree, and a genuinely
    convergent sequence additionally passes the plain tail check against the
    shared value; disagreement (or a missing limit under some modulus) comes
    with norm convergence failing at truncation.
    """
    moduli = list(moduli)
    if not moduli:
        raise ValueError("the multi-modulus probe needs at least one modulus")
    for f in moduli:
        if not f.unbounded:
            raise ValueError(f"bounded modulus {f.name!r} not allowed in the probe")
    y = transform_prefix(params.matrix, x, len(x))
    limits = dict(zip((f.name for f in moduli), stat_limit_estimate(y, params, moduli, tol)[0]))
    found = [v for v in limits.values() if v is not None]
    all_agree = len(found) == len(moduli) and (
        not found or max(found) - min(found) <= 1e-9)
    reference = found[0] if found else None
    norm_convergence = False
    if reference is not None:
        w = math.ceil(len(y) / 3)
        norm_convergence = bool(np.max(np.abs(y[-w:] - reference)) <= params.eps)
    return ModulusProbeReport(limits, all_agree, reference, norm_convergence)

"""Membership diagnostics over lacunary blocks.

Three modes share the same pointwise scores s_i = M_i(|A_i(x) - L| / rho_i):

* ``mean``    — block residuals t_r = h_r^{-alpha} sum_{i in J_r} s_i must fall
                below tolerance on the trailing third of blocks;
* ``count``   — exceedance ratios c_r = h_r^{-alpha} #{i in J_r : s_i >= eps}
                must do the same;
* ``density`` — the global exceedance set {i : s_i > eps} must have a
                modulus-weighted density estimate converging to ~0.

Finite truncations cannot certify limits, so verdicts are three-valued
(member / non-member / inconclusive) and every report carries its trail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .core import IndexSet, LacunaryScheme, SequencePrefix, check_tol
from .density import DensityEstimate, checkpoints, exceedance_set, f_density
from .errors import TruncationError
from .matrices import SummabilityMatrix, transform_prefix
from .modulus import Modulus
from .orlicz import OrliczFamily, RhoSchedule, const_rho

DEFAULT_TOL = 1e-2
DEFAULT_EPS = 0.1
MIN_BLOCKS = 6

MEMBER = "member"
NON_MEMBER = "non-member"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SpaceParams:
    """Everything a membership test needs besides the sequence itself."""

    matrix: SummabilityMatrix
    family: OrliczFamily
    scheme: LacunaryScheme
    alpha: float = 1.0
    rho: RhoSchedule = field(default_factory=const_rho)
    limit: Optional[float] = None
    eps: float = DEFAULT_EPS

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if self.limit is not None and not math.isfinite(self.limit):
            raise ValueError(f"limit must be finite, got {self.limit}")


@dataclass(frozen=True)
class MembershipReport:
    mode: str
    verdict: str
    block_residuals: tuple[float, ...] | None = None
    exceedance_ratios: tuple[float, ...] | None = None
    exceedance_counts: tuple[int, ...] | None = None
    density: DensityEstimate | None = None
    evidence: dict = field(default_factory=dict)


def pointwise_scores(y: np.ndarray, params: SpaceParams) -> np.ndarray:
    """The read-only scores s_i = M_i(|y_i - L| / rho_i) of the transformed prefix y_i = A_i(x)."""
    if params.limit is None:
        raise ValueError("a candidate limit L is required to compute scores")
    idx = np.arange(1, y.size + 1, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite score raises below
        dev = np.abs(y - params.limit)
        dev /= params.rho.values(idx)  # in place: one n-array fewer at the peak
        s = params.family.eval_many(idx, dev)
    if not np.all(np.isfinite(s)):
        raise ValueError(f"non-finite score at index {int(np.argmin(np.isfinite(s))) + 1}")
    s.flags.writeable = False
    return s


def block_trails(s: np.ndarray, params: SpaceParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-block residuals t_r, exceedance ratios c_r and raw counts from scores s_1..s_N, N >= k_max."""
    scheme = params.scheme
    if scheme.k_max > len(s):
        raise TruncationError(
            f"scheme extends to {scheme.k_max}, past the sequence truncation {len(s)}")
    s = s[:scheme.k_max]
    starts = scheme.cuts_array[:-1]
    sums = np.add.reduceat(s, starts)
    counts = np.add.reduceat((s >= params.eps).astype(np.int64), starts)
    halpha = scheme.h.astype(float) ** params.alpha
    return sums / halpha, counts / halpha, counts


def _trail_verdict(trail: np.ndarray, tol: float) -> tuple[str, int]:
    check_tol(tol)
    r = len(trail)
    if r < MIN_BLOCKS:
        raise ValueError(f"need at least {MIN_BLOCKS} blocks for a verdict, got {r}")
    w = math.ceil(r / 3)
    tail = trail[-w:]
    if float(np.max(tail)) <= tol:
        return MEMBER, w
    nondecreasing = bool(np.all(np.diff(tail) >= -1e-9))
    if float(np.min(tail)) >= 2.0 * tol and nondecreasing:
        return NON_MEMBER, w
    return INCONCLUSIVE, w


def block_membership(x: SequencePrefix, params: SpaceParams, mode: str,
                     tol: float = DEFAULT_TOL) -> MembershipReport:
    """Verdict on whether the block residual trail t_r (mode ``mean``) or the
    exceedance ratio trail c_r (mode ``count``) tends to 0."""
    if mode not in ("mean", "count"):
        raise ValueError(f"block mode must be 'mean' or 'count', got {mode!r}")
    # rows past len(x) are left to block_trails, which names the scheme
    y = transform_prefix(params.matrix, x, min(params.scheme.k_max, len(x)))
    return _block_report(block_trails(pointwise_scores(y, params), params), params, mode, tol)


def _block_report(trails: tuple[np.ndarray, np.ndarray, np.ndarray], params: SpaceParams,
                  mode: str, tol: float) -> MembershipReport:
    """The ``mode`` verdict on trails (t, c, counts) from ``block_trails``, so
    a caller judging both modes scores the prefix once."""
    t, c, counts = trails
    verdict, w = _trail_verdict(t if mode == "mean" else c, tol)
    return MembershipReport(
        mode=mode,
        verdict=verdict,
        block_residuals=tuple(float(v) for v in t),
        exceedance_ratios=tuple(float(v) for v in c),
        exceedance_counts=tuple(int(v) for v in counts),
        evidence={
            "tol": tol,
            "eps": params.eps,
            "alpha": params.alpha,
            "window": w,
            "h": [int(v) for v in params.scheme.h],
            "k_max": params.scheme.k_max,
        },
    )


def density_membership(x: SequencePrefix, params: SpaceParams, f: Modulus,
                       tol: float = DEFAULT_TOL) -> MembershipReport:
    """Verdict on whether the global exceedance set {i : s_i > eps} has
    modulus-weighted density converging to <= tol."""
    if not f.unbounded:
        raise ValueError(f"bounded modulus {f.name!r}: the density mode needs an unbounded modulus")
    s = pointwise_scores(transform_prefix(params.matrix, x, len(x)), params)
    dens, verdict = _density_verdict(exceedance_set(s, params.eps), len(s), f, tol)
    t = c = counts = None
    if params.scheme.k_max <= len(x):
        t_arr, c_arr, n_arr = block_trails(s, params)
        t = tuple(float(v) for v in t_arr)
        c = tuple(float(v) for v in c_arr)
        counts = tuple(int(v) for v in n_arr)
    return MembershipReport(
        mode="density",
        verdict=verdict,
        block_residuals=t,
        exceedance_ratios=c,
        exceedance_counts=counts,
        density=dens,
        evidence={"tol": tol, "eps": params.eps, "modulus": f.name, "n": len(s)},
    )


def _density_verdict(above: IndexSet, n: int, f: Modulus,
                     tol: float) -> tuple[DensityEstimate, str]:
    """Density of the exceedance set ``above`` under f and the membership verdict it gives."""
    dens = f_density(above, f, n, tol)
    if dens.converged and dens.value <= tol:
        return dens, MEMBER
    if dens.converged and dens.value >= 2.0 * tol:
        return dens, NON_MEMBER
    return dens, INCONCLUSIVE


def stat_limit_estimate(y: np.ndarray, params: SpaceParams, moduli: list[Modulus],
                        tol: float = DEFAULT_TOL) -> tuple[list[float | None], np.ndarray | None]:
    """Scan histogram modes of the transformed prefix ``y`` for a limit under
    each modulus: the first candidate whose density-mode verdict is ``member``,
    or None when none passes (an alternating sequence leaves exceedance density
    1/2 around either value).  The values are binned once, and each of the at
    most five candidates is scored and thresholded once for all moduli.  Also
    returns the scores against the last candidate scored: the winner's when
    every modulus found one.
    """
    for f in moduli:
        if not f.unbounded:
            raise ValueError(f"bounded modulus {f.name!r}: the density mode needs an unbounded modulus")
    width = max(params.eps, 1e-12)
    lo = float(y.min())
    if not math.isfinite((float(y.max()) - lo) / width):
        raise ValueError("the transformed values spread past the float range; supply --limit")
    # float bins: exact integers here, with no int64 cast to overflow
    bins = np.floor((y - lo) / width)
    uniq, cnt = np.unique(bins, return_counts=True)
    order = np.lexsort((uniq, -cnt))
    limits: list[float | None] = [None] * len(moduli)
    s = None
    for b in uniq[order][:5]:
        with np.errstate(over="ignore"):  # two middle values near 1e308 overflow when averaged
            candidate = float(np.median(y[bins == b]))
        if not math.isfinite(candidate):
            candidate = 2.0 * float(np.median(y[bins == b] / 2.0))  # halving is exact at this size
        s = pointwise_scores(y, replace(params, limit=candidate))
        above = exceedance_set(s, params.eps)
        for i, f in enumerate(moduli):
            if limits[i] is None and _density_verdict(above, len(y), f, tol)[1] == MEMBER:
                limits[i] = candidate
        if None not in limits:
            break
    return limits, s


@dataclass(frozen=True)
class CauchyReport:
    cauchy: bool
    anchor: int | None
    density: DensityEstimate | None
    trail: tuple  # (anchor, verdict, value) per attempt


def stat_cauchy_check(x: SequencePrefix, params: SpaceParams, f: Modulus,
                      tol: float = DEFAULT_TOL) -> CauchyReport:
    """Search anchor rows N* making {i : |A_i(x) - A_{N*}(x)| > eps} density-null.

    Anchors are tried at geometric checkpoint positions, largest first; the
    first anchor whose exceedance density converges to <= tol wins.
    """
    return _cauchy_search(transform_prefix(params.matrix, x, len(x)), f, [params.eps], tol)[0]


def _cauchy_search(y: np.ndarray, f: Modulus, radii: list[float], tol: float) -> list[CauchyReport]:
    """``stat_cauchy_check`` at each radius over the transformed prefix ``y``.

    The anchors are walked once, largest first: each deviation |y - y[N*]| is
    built once and tested at every radius that has no anchor yet, so each
    radius keeps its first passing anchor.
    """
    if not f.unbounded:
        raise ValueError(f"bounded modulus {f.name!r}: the Cauchy check needs an unbounded modulus")
    trails: list[list] = [[] for _ in radii]
    found: list[CauchyReport | None] = [None] * len(radii)
    for anchor in checkpoints(len(y))[::-1]:
        pending = [i for i, rep in enumerate(found) if rep is None]
        if not pending:
            break
        anchor = int(anchor)
        # y is finite, so the deviation is NaN-free and only overflow can make it infinite
        with np.errstate(over="ignore"):
            dev = np.abs(y - y[anchor - 1])
        if not math.isfinite(float(dev.max())):
            raise ValueError(f"sequence 'dev@{anchor}' contains non-finite values")
        for i in pending:
            dens = f_density(exceedance_set(dev, radii[i]), f, len(y), tol)
            trails[i].append((anchor, dens.verdict, dens.value))
            if dens.converged and dens.value <= tol:
                found[i] = CauchyReport(True, anchor, dens, tuple(trails[i]))
    return [rep or CauchyReport(False, None, None, tuple(trail)) for rep, trail in zip(found, trails)]

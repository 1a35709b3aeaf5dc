"""Membership diagnostics over lacunary blocks.

Three modes share the scores s_i = M_i(|y_i - L| / rho_i) of a transform y = Ax the caller made:

* ``mean``    — block residuals t_r = h_r^{-alpha} sum_{i in J_r} s_i must fall
                below tolerance on the trailing third of blocks;
* ``count``   — exceedance ratios c_r = h_r^{-alpha} #{i in J_r : s_i > eps}
                must do the same;
* ``density`` — the global exceedance set {i : s_i > eps} must have a
                modulus-weighted density estimate converging to ~0.

Every route takes {i : s_i > eps} from ``density.exceedance_set``; Fridy and
Orhan (1993) write s_i ≥ eps, which gives the same spaces over all eps > 0.
Finite truncations cannot certify limits, so verdicts are three-valued
(member / non-member / inconclusive) and every report carries its trail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .core import IndexSet, LacunaryScheme, check_tol
from .density import DEFAULT_TOL, DensityEstimate, checkpoints, exceedance_set, f_density, tail_window
from .errors import SpreadError, TruncationError
from .modulus import Modulus
from .orlicz import OrliczFamily, RhoSchedule, const_rho

DEFAULT_EPS = 0.1
MIN_BLOCKS = 6
# Indices per block of the scores: a 2^16 block's temporaries take 512 KB each.
_CHUNK = 1 << 16

MEMBER = "member"
NON_MEMBER = "non-member"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SpaceParams:
    """Everything a membership test needs besides the transformed prefix."""

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
    """The read-only scores s_i = M_i(|y_i - L| / rho_i) of the transformed prefix y_i = A_i(x),
    made in blocks of ``_CHUNK`` indices into one array, so no other n-length array is made."""
    if params.limit is None:
        raise ValueError("a candidate limit L is required to compute scores")
    s = np.empty(y.size)
    rho = params.rho
    starts = range(0, y.size, _CHUNK)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite score raises below
        # the last block first, so that a rho or weight table short of n names index n
        for lo in (*starts[-1:], *starts[:-1]):
            dev = np.subtract(y[lo:lo + _CHUNK], params.limit, out=s[lo:lo + _CHUNK])
            np.abs(dev, out=dev)
            # only a rho table reads indices here; a family that reads them makes its own
            dev /= rho.values(np.arange(lo + 1, lo + dev.size + 1)) if rho.constant is None else rho.constant
            s[lo:lo + _CHUNK] = params.family.eval_block(lo, dev)
    # a NaN makes min and max NaN and an infinity one of them infinite, with no mask made
    if not (math.isfinite(s.min()) and math.isfinite(s.max())):
        raise ValueError(f"non-finite score at index {int(np.argmin(np.isfinite(s))) + 1}")
    s.flags.writeable = False
    return s


def block_trails(s: np.ndarray, params: SpaceParams, *,
                 _above: IndexSet | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-block residuals t_r, exceedance ratios c_r and raw counts from scores s_1..s_N, N >= k_max.
    Density mode passes the exceedance set of s it already made as ``_above``."""
    scheme = params.scheme
    if scheme.k_max > len(s):
        raise TruncationError(
            f"scheme extends to {scheme.k_max}, past the sequence truncation {len(s)}")
    s = s[:scheme.k_max]
    with np.errstate(over="ignore"):  # finite scores whose block sum passes the float range raise below
        sums = np.add.reduceat(s, scheme.cuts_array[:-1])
    if not math.isfinite(sums.max()):
        raise ValueError(f"non-finite sum of scores in block {int(np.argmax(sums)) + 1}")
    above = exceedance_set(s, params.eps) if _above is None else _above
    counts = np.diff(above.counts(scheme.cuts_array))
    halpha = scheme.h.astype(float) ** params.alpha
    return sums / halpha, counts / halpha, counts


def _trail_verdict(trail: np.ndarray, tol: float) -> tuple[str, int]:
    check_tol(tol)
    r = len(trail)
    if r < MIN_BLOCKS:
        raise ValueError(f"need at least {MIN_BLOCKS} blocks for a verdict, got {r}")
    w = tail_window(r)
    tail = trail[-w:]
    if float(np.max(tail)) <= tol:
        return MEMBER, w
    nondecreasing = bool(np.all(np.diff(tail) >= -1e-9))
    if float(np.min(tail)) >= 2.0 * tol and nondecreasing:
        return NON_MEMBER, w
    return INCONCLUSIVE, w


def block_membership(s: np.ndarray, params: SpaceParams, mode: str,
                     tol: float = DEFAULT_TOL) -> MembershipReport:
    """Verdict from the scores s on whether the block residual trail t_r (mode
    ``mean``) or the exceedance ratio trail c_r (mode ``count``) tends to 0."""
    if mode not in ("mean", "count"):
        raise ValueError(f"block mode must be 'mean' or 'count', got {mode!r}")
    return _block_report(block_trails(s, params), params, mode, tol)


def _block_report(trails: tuple[np.ndarray, np.ndarray, np.ndarray], params: SpaceParams,
                  mode: str, tol: float) -> MembershipReport:
    """The ``mode`` verdict on trails (t, c, counts) from ``block_trails``, so
    a caller judging both modes scores the prefix once."""
    verdict, w = _trail_verdict(trails[0] if mode == "mean" else trails[1], tol)
    return MembershipReport(
        mode=mode,
        verdict=verdict,
        **_trail_fields(trails),
        evidence={
            "tol": tol,
            "eps": params.eps,
            "alpha": params.alpha,
            "window": w,
            "h": [int(v) for v in params.scheme.h],
            "k_max": params.scheme.k_max,
        },
    )


def _trail_fields(trails: tuple[np.ndarray, np.ndarray, np.ndarray]) -> dict:
    """The trails (t, c, counts) from ``block_trails`` as a report's three trail fields."""
    t, c, counts = trails
    return {"block_residuals": tuple(float(v) for v in t),
            "exceedance_ratios": tuple(float(v) for v in c),
            "exceedance_counts": tuple(int(v) for v in counts)}


def density_membership(s: np.ndarray, params: SpaceParams, f: Modulus,
                       tol: float = DEFAULT_TOL) -> MembershipReport:
    """Verdict from the scores s on whether the global exceedance set
    {i : s_i > eps} has modulus-weighted density converging to <= tol."""
    f.unbounded_for("the density mode")
    above = exceedance_set(s, params.eps)
    dens, verdict = _density_verdict(above, len(s), f, tol)
    # the trails too, counted in the same set, where the scores reach k_max; else the report leaves them unset
    trails = _trail_fields(block_trails(s, params, _above=above)) if params.scheme.k_max <= len(s) else {}
    return MembershipReport(
        mode="density",
        verdict=verdict,
        density=dens,
        evidence={"tol": tol, "eps": params.eps, "modulus": f.name, "n": len(s)},
        **trails,
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


def _run_median(ys: np.ndarray, at: int, count: int) -> float:
    """The median of the sorted run ``ys[at:at + count]``: numpy's own ``np.median``
    recipe, ``np.mean`` of the middle one or two values, halved and doubled where
    two middle values near 1e308 overflow when averaged."""
    k, odd = divmod(count, 2)
    middle = ys[at + k - 1 + odd:at + k + 1]
    with np.errstate(over="ignore"):
        median = float(np.mean(middle))
    if not math.isfinite(median):
        median = 2.0 * float(np.mean(middle / 2.0))  # halving is exact at this size
    return median


def _modal_medians(y: np.ndarray, lo: float, width: float) -> list[float]:
    """The medians of the at most five fullest bins floor((v - lo) / width) of ``y``,
    fullest first and ties by bin.  Each IEEE step of the bin is monotone, so the
    bins never drop along a sorted copy of ``y`` and each bin is one run of it,
    whose starts are found in blocks of ``_CHUNK`` values."""
    ys = np.sort(y)
    runs = []
    for at in range(0, ys.size, _CHUNK):
        bins = ys[at:at + _CHUNK] - lo  # float bins: exact integers here, with no int64 cast to overflow
        bins /= width
        np.floor(bins, out=bins)
        if at == 0 or bins[0] != last:  # a run starts at the block's first value
            runs.append([at])
        runs.append(np.flatnonzero(bins[1:] != bins[:-1]) + (at + 1))
        last = bins[-1]
    starts = np.concatenate(runs)
    runs = bins = None  # up to n per-block starts, dropped before the counts are made
    counts = np.diff(starts, append=ys.size)
    # the runs follow the bins upward, so a stable sort breaks ties of count by bin
    fullest = np.argsort(-counts, kind="stable")[:5]
    return [_run_median(ys, at, count)
            for at, count in zip(starts[fullest].tolist(), counts[fullest].tolist())]


def stat_limit_estimate(y: np.ndarray, params: SpaceParams, moduli: list[Modulus],
                        tol: float = DEFAULT_TOL) -> tuple[list[float | None], np.ndarray | None]:
    """Scan histogram modes of the transformed prefix ``y`` for a limit under
    each modulus: the first candidate whose density-mode verdict is ``member``,
    or None when none passes (an alternating sequence leaves exceedance density
    1/2 around either value).  The candidates are the medians of the at most five
    fullest bins, all taken from one sorted copy of ``y``, which is dropped before
    the first candidate is scored; each is scored and thresholded once for all
    moduli.  Also returns the scores against the last candidate scored: the
    winner's when every modulus found one.
    """
    moduli = [f.unbounded_for("the density mode") for f in moduli]
    width = max(params.eps, 1e-12)
    lo = float(y.min())
    if not math.isfinite((float(y.max()) - lo) / width):
        raise SpreadError("the transformed values spread past the float range; supply --limit")
    limits: list[float | None] = [None] * len(moduli)
    s = None
    for candidate in _modal_medians(y, lo, width):
        s = above = None  # dropped before this candidate's scores are made
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


def stat_cauchy_check(y: np.ndarray, eps: float, f: Modulus,
                      tol: float = DEFAULT_TOL) -> CauchyReport:
    """Search anchor rows N* making {i : |y_i - y_{N*}| > eps} density-null, y_i = A_i(x).

    Anchors are tried at geometric checkpoint positions, largest first; the
    first anchor whose exceedance density converges to <= tol wins.
    """
    return _cauchy_search(y, f, [eps], tol)[0]


def _cauchy_search(y: np.ndarray, f: Modulus, radii: list[float], tol: float) -> list[CauchyReport]:
    """``stat_cauchy_check`` at each radius over the transformed prefix ``y``.

    The anchors are walked once, largest first: each deviation |y - y[N*]| is
    built once and tested at every radius that has no anchor yet, so each
    radius keeps its first passing anchor.
    """
    f.unbounded_for("the Cauchy check")
    trails: list[list] = [[] for _ in radii]
    found: list[CauchyReport | None] = [None] * len(radii)
    for anchor in checkpoints(len(y))[::-1].tolist():
        pending = [i for i, rep in enumerate(found) if rep is None]
        if not pending:
            break
        # y is finite, so the deviation is NaN-free and only overflow can make it infinite
        with np.errstate(over="ignore"):
            dev = y - y[anchor - 1]
            np.abs(dev, out=dev)
        if not math.isfinite(float(dev.max())):
            raise ValueError(f"sequence 'dev@{anchor}' contains non-finite values")
        for i in pending:
            dens, verdict = _density_verdict(exceedance_set(dev, radii[i]), len(y), f, tol)
            trails[i].append((anchor, dens.verdict, dens.value))
            if verdict == MEMBER:
                found[i] = CauchyReport(True, anchor, dens, tuple(trails[i]))
    return [rep or CauchyReport(False, None, None, tuple(trail)) for rep, trail in zip(found, trails)]

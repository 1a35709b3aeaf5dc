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

from .core import LacunaryScheme, SequencePrefix, check_tol
from .density import DensityEstimate, _exceedances, checkpoints, exceedance_set, f_density
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


def pointwise_scores(x: SequencePrefix, params: SpaceParams,
                     upto: int | None = None) -> SequencePrefix:
    """s_i = M_i(|A_i(x) - L| / rho_i) for i = 1..upto (default: full prefix)."""
    if params.limit is None:
        raise ValueError("a candidate limit L is required to compute scores")
    n = len(x) if upto is None else int(upto)
    return _scores(transform_prefix(params.matrix, x, n).values, params, x.label)


def _scores(y: np.ndarray, params: SpaceParams, label: str) -> SequencePrefix:
    """Scores of the transformed prefix ``y`` against ``params.limit``."""
    idx = np.arange(1, y.size + 1, dtype=np.int64)
    dev = np.abs(y - params.limit) / params.rho.values(idx)
    s = params.family.eval_many(idx, dev)
    return SequencePrefix(s, label=f"scores[{label}]" if label else "scores")


def block_trails(x: SequencePrefix, params: SpaceParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-block residuals t_r, exceedance ratios c_r, and raw exceedance counts."""
    scheme = params.scheme
    if scheme.k_max > len(x):
        raise TruncationError(
            f"scheme extends to {scheme.k_max}, past the sequence truncation {len(x)}")
    return _block_trails(pointwise_scores(x, params, upto=scheme.k_max).values, params)


def _block_trails(s: np.ndarray, params: SpaceParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block trails from the scores s_1..s_{k_max}."""
    scheme = params.scheme
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
    return _block_report(block_trails(x, params), params, mode, tol)


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
    s = pointwise_scores(x, params)
    dens, verdict = _density_verdict(s, params.eps, f, tol)
    t = c = counts = None
    if params.scheme.k_max <= len(x):
        t_arr, c_arr, n_arr = _block_trails(s.values[: params.scheme.k_max], params)
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


def _density_verdict(s: SequencePrefix, eps: float, f: Modulus,
                     tol: float) -> tuple[DensityEstimate, str]:
    """Density of {i : s_i > eps} under f and the membership verdict it gives."""
    dens = f_density(exceedance_set(s, eps), f, len(s), tol)
    if dens.converged and dens.value <= tol:
        return dens, MEMBER
    if dens.converged and dens.value >= 2.0 * tol:
        return dens, NON_MEMBER
    return dens, INCONCLUSIVE


def stat_limit_estimate(x: SequencePrefix, params: SpaceParams, f: Modulus,
                        tol: float = DEFAULT_TOL) -> float | None:
    """Scan histogram modes of the transformed values for a limit candidate.

    Returns the first candidate whose density-mode verdict is ``member``,
    or None when no candidate passes (e.g. an alternating sequence leaves
    exceedance density 1/2 around either value).
    """
    y = transform_prefix(params.matrix, x, len(x)).values
    return _limit_estimate(y, x.label, params, f, params.eps, tol)


def _limit_estimate(y: np.ndarray, label: str, params: SpaceParams, f: Modulus,
                    eps: float, tol: float) -> float | None:
    """``stat_limit_estimate`` over the transformed prefix ``y``."""
    if not f.unbounded:
        raise ValueError(f"bounded modulus {f.name!r}: the density mode needs an unbounded modulus")
    width = max(eps, 1e-12)
    bins = np.floor((y - float(y.min())) / width).astype(np.int64)
    uniq, cnt = np.unique(bins, return_counts=True)
    order = np.lexsort((uniq, -cnt))
    for b in uniq[order][:5]:
        candidate = float(np.median(y[bins == b]))
        s = _scores(y, replace(params, limit=candidate, eps=eps), label)
        if _density_verdict(s, eps, f, tol)[1] == MEMBER:
            return candidate
    return None


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
    return _cauchy_search(transform_prefix(params.matrix, x, len(x)).values, f, params.eps, tol)


def _cauchy_search(y: np.ndarray, f: Modulus, eps: float, tol: float) -> CauchyReport:
    """``stat_cauchy_check`` over the transformed prefix ``y``."""
    if not f.unbounded:
        raise ValueError(f"bounded modulus {f.name!r}: the Cauchy check needs an unbounded modulus")
    trail = []
    for anchor in checkpoints(len(y))[::-1]:
        anchor = int(anchor)
        dev = np.abs(y - y[anchor - 1])
        # y is finite, so the deviation is NaN-free and only overflow can make it infinite
        if not math.isfinite(float(dev.max())):
            raise ValueError(f"sequence 'dev@{anchor}' contains non-finite values")
        dens = f_density(_exceedances(dev, eps, f"dev@{anchor}"), f, len(y), tol)
        trail.append((anchor, dens.verdict, dens.value))
        if dens.converged and dens.value <= tol:
            return CauchyReport(True, anchor, dens, tuple(trail))
    return CauchyReport(False, None, None, tuple(trail))

"""Prefix-ratio density estimation and the complement inequality.

Natural density tracks |A(n)|/n at geometric checkpoints; the modulus-weighted
variant tracks f(|A(n)|)/f(n).  A density is a limit property no finite
computation can certify, so every estimate carries its raw ratio trail and a
three-valued verdict.  All functions here are pure and safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MAX_INDEX, IndexSet, check_tol
from .modulus import Modulus, make_modulus

CONVERGED = "converged"
OSCILLATING = "oscillating"
UNDETERMINED = "undetermined"

DEFAULT_TOL = 1e-2
_SLACK = 1e-12
_CHECKPOINT_FLOOR = 10
# Indices per block of the complement check, and per chunk of an exceedance
# set's count rule, whose reduceat makes an int64 copy.  A 2^13 block's arrays take
# 64 KiB each, below glibc's default 128 KiB mmap threshold, so they come from
# the heap whatever the process allocated before.  2^14 blocks were mmapped or
# faulted back in some processes and not others: a full scan at n = 1e7 took 185 ms
# or 260-316 ms (35,872 page faults), and takes about 200 ms at 2^13.
_CHUNK = 1 << 13
# The complement check certifies intervals [g, g + (g >> 8)).  t^p with
# p <= 0.9 grows by at most 0.4% across one, inside the margin of 1.5% or more
# that f(|A(g)|) + f(g - |A(g)|) leaves over f(g) on evens and arith:a,32.  The
# step is fixed, so the work does not depend on p.
_GRID_SHIFT = 8
_MARGIN = 1e-9


@dataclass(frozen=True)
class DensityEstimate:
    """Ratio trail at checkpoints plus an extrapolated limit estimate.

    ``value`` is only set when the verdict is ``converged``; it is the
    intercept of a linear fit of the last-third ratios against 1/log(n),
    clamped to [0, 1].  The trail itself is the evidence.
    """

    checkpoints: tuple[int, ...]
    ratios: tuple[float, ...]
    value: float | None
    verdict: str
    tol: float

    @property
    def converged(self) -> bool:
        return self.verdict == CONVERGED


def checkpoints(n: int) -> np.ndarray:
    """Geometric checkpoints ceil(n / 2^j), ascending, all >= _CHECKPOINT_FLOOR."""
    n, pts = int(n), []
    while (v := -(-n // 2 ** len(pts))) >= _CHECKPOINT_FLOOR:  # integer ceiling: exact, unlike float division
        pts.append(v)
    return np.asarray(pts[::-1], dtype=np.int64)  # ceil(v / 2) < v, so already distinct


def tail_window(m: int) -> int:
    """The length of the trailing third of an m-point trail, which every verdict judges."""
    return math.ceil(m / 3)


def _diagnose(ratios: np.ndarray, tol: float) -> str:
    m = len(ratios)
    w = tail_window(m)
    tail = ratios[-w:]
    spread = float(tail.max() - tail.min())
    if spread <= tol:
        return CONVERGED
    prev = ratios[max(0, m - 2 * w): m - w]
    prev_spread = float(prev.max() - prev.min()) if prev.size else 0.0
    if spread <= 0.5 * prev_spread:
        return UNDETERMINED  # still shrinking, no call yet
    if prev_spread <= tol:
        return UNDETERMINED  # late regime change, not a stable oscillation
    return OSCILLATING


def _extrapolate(ns: np.ndarray, ratios: np.ndarray) -> float:
    """Intercept of ratio ~ a + b / log(n) over the given tail, clamped to [0, 1]."""
    return float(min(1.0, max(0.0, _intercept(ns, ratios) if len(ns) >= 2 else ratios[-1])))


def _intercept(ns: np.ndarray, ratios: np.ndarray) -> float:
    """Unclamped least-squares intercept of ratio ~ a + b / log(n), in centered closed form over fsum sums."""
    u, r = (1.0 / np.log(ns.astype(float))).tolist(), ratios.tolist()
    u_bar, r_bar = math.fsum(u) / len(u), math.fsum(r) / len(r)
    du = [x - u_bar for x in u]
    return r_bar - math.fsum(d * (y - r_bar) for d, y in zip(du, r)) / math.fsum(d * d for d in du) * u_bar


def _estimate(ns: np.ndarray, raw_ratios: np.ndarray, tol: float) -> DensityEstimate:
    ratios = np.clip(raw_ratios, 0.0, 1.0)
    verdict = _diagnose(ratios, tol)
    value = None
    if verdict == CONVERGED:
        w = tail_window(len(ratios))
        value = _extrapolate(ns[-w:], ratios[-w:])
    return DensityEstimate(
        checkpoints=tuple(ns.tolist()),
        ratios=tuple(ratios.tolist()),
        value=value,
        verdict=verdict,
        tol=tol,
    )


def _validated_checkpoints(n: int) -> np.ndarray:
    if n < 100:
        raise ValueError(f"truncation must be >= 100, got {n}")
    if n > MAX_INDEX:
        raise ValueError(f"truncation must be <= 2^63 - 1, got {n}")
    ns = checkpoints(n)
    if len(ns) < 3:
        raise ValueError(f"truncation {n} too small to place >= 3 checkpoints")
    return ns


def natural_density(a: IndexSet, n: int, tol: float = DEFAULT_TOL) -> DensityEstimate:
    """Estimate lim |A(n)|/n from the prefix ratio trail: the f = id case of
    ``f_density``."""
    return f_density(a, make_modulus("id"), n, tol)


def f_density(a: IndexSet, f: Modulus, n: int, tol: float = DEFAULT_TOL) -> DensityEstimate:
    """Estimate lim f(|A(n)|)/f(n) for an unbounded modulus f.

    A bounded modulus is rejected: the limit the trail is chasing is not
    defined for it.
    """
    f.unbounded_for("a density ratio")
    check_tol(tol)
    ns = _validated_checkpoints(int(n))
    counts = a.counts(ns)
    return _estimate(ns, f(counts) / f(ns), tol)


@dataclass(frozen=True)
class ComplementCheck:
    passed: bool
    first_violation: int | None
    n_checked: int


def _grid(n: int) -> np.ndarray:
    """Starts of the complement check's certification intervals up to ``n``:
    g_0 = _CHUNK + 1 and g_(j+1) = g_j + (g_j >> 8), about 256 per e-fold."""
    pts, g = [], _CHUNK + 1
    while g <= n:
        pts.append(g)
        g += g >> _GRID_SHIFT
    return np.asarray(pts, dtype=np.int64)


def complement_inequality_check(a: IndexSet, f: Modulus, n: int) -> ComplementCheck:
    """Verify f(n) <= f(|A(n)|) + f(|complement(n)|) for every n up to the truncation.

    Subadditive moduli satisfy this exactly; the check compares with a 1e-12
    slack and reports the first violating n.  ``n`` is an integer in
    [1, 2^63 - 1], and f must be nondecreasing, as every ``Modulus`` is.

    The first 2^13 indices are scanned one by one.  Past them, a geometric
    grid of intervals [g, e] is certified by monotonicity: |A(k)| and
    k - |A(k)| never drop as k grows, so every k in [g, e] has f(k) <= f(e)
    and a right-hand side at least the one at g, and f(e) below that side
    by a 1e-9 relative margin (for gauges monotone only to a few ulps)
    clears the whole interval.  Only the intervals left uncertified are
    scanned, in blocks of 2^13, so the answer is the exhaustive scan's at a
    cost of O(256 ln n) grid points plus those stretches, and every array
    stays under 1 MB whatever the truncation.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not 1 <= n <= MAX_INDEX:
        raise ValueError(f"truncation must be an integer in [1, 2^63 - 1], got {n!r}")
    n = int(n)
    buf = np.empty(min(n, _CHUNK))

    def rhs(ns: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        counts = a.counts(ns)
        out = np.add(f(counts), f(ns - counts), out=out)
        out += _SLACK
        return out

    def first_violation(lo: int, hi: int) -> int | None:
        for at in range(lo, hi + 1, _CHUNK):
            ns = np.arange(at, min(at + _CHUNK, hi + 1), dtype=np.int64)
            viol = np.flatnonzero(f(ns) > rhs(ns, buf[:len(ns)]))
            if viol.size:
                return int(ns[viol[0]])
        return None

    v = first_violation(1, min(n, _CHUNK))
    if v is None and n > _CHUNK:
        g = _grid(n)
        e = np.append(g[1:] - 1, n)
        r = rhs(g, None)
        certified = f(e) <= r - _MARGIN * np.abs(r)
        edges = np.flatnonzero(np.diff(certified, prepend=True, append=True))
        for i, j in zip(edges[::2].tolist(), edges[1::2].tolist()):  # uncertified runs g[i:j]
            v = first_violation(int(g[i]), int(e[j - 1]))
            if v is not None:
                break
    return ComplementCheck(v is None, v, n)


def exceedance_set(values: np.ndarray, eps: float) -> IndexSet:
    """The index set {i : values_i > eps} of finite ``values``, held as a
    read-only bool mask (one byte per index).  Its count rule counts the mask
    between the sorted truncation points: the points of one 2^13-index chunk
    by one ``reduceat`` from the first to the last of them, and the stretch
    before a chunk's first point by one ``count_nonzero``.  ``reduceat``
    casts what it sums to int64, so that copy stays under 64 KiB; the Python
    calls number at most the points.  Members are listed only on request."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"threshold eps must be positive and finite, got {eps}")
    mask = values > eps
    mask.flags.writeable = False

    def count(ns: np.ndarray) -> np.ndarray:
        cut = np.minimum(ns, mask.size)
        bounds = np.sort(np.append(cut, 0))
        bounds = bounds[np.append(True, bounds[1:] != bounds[:-1])]  # distinct: np.unique would import numpy.ma
        chunk = bounds // _CHUNK
        firsts = (np.flatnonzero(chunk[1:] != chunk[:-1]) + 1).tolist()  # each later chunk's first bound
        gaps = np.zeros(bounds.size, dtype=np.int64)  # members between each bound and the one before
        b = bounds.tolist()
        for i, j in zip([0] + firsts, firsts + [len(b)]):
            if i:
                gaps[i] = np.count_nonzero(mask[b[i - 1]:b[i]])
            if j - i > 1:
                gaps[i + 1:j] = np.add.reduceat(mask[b[i]:b[j - 1]], bounds[i:j - 1] - b[i], dtype=np.int64)
        return np.cumsum(gaps)[np.searchsorted(bounds, cut)]

    return IndexSet(f"exceedances(eps={eps:g})", lambda n: np.flatnonzero(mask[:n]) + 1,
                    explicit=True, count_rule=count)

"""Orlicz machinery: modulars, Luxemburg and Orlicz norms, conjugates,
doubling-growth checks, and the block-mean norm.

The modular I(x) = sum_k M_k(|x_k|) is the gauge behind both norms.  The
Luxemburg norm is found by bisection on the scale parameter (the modular is
monotone in it, which is what makes bisection correct); the Orlicz norm
minimizes (1 + I(k x))/k by golden-section over a doubling bracket, and may
legitimately be approached at the bracket edge rather than attained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import LacunaryScheme, SequencePrefix, check_tol, parse_kv, read_floats
from .errors import SpecError, TruncationError, UnboundedNormError
from .modulus import (AxiomCheck, AxiomReport, Modulus, _axiom_grid, _monotone,
                      _pairwise, _vanishes_at_zero)

_SLACK = 1e-12
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0

DEFAULT_ORLICZ_GRID = np.logspace(-6.0, 2.0, 33)


# An Orlicz function is a convex gauge: continuous, nondecreasing, M(0) = 0,
# M(t) -> infinity.  It shares the gauge type with the moduli; only the
# axioms checked on it (``check_orlicz_axioms``) differ.
OrliczFn = Modulus


def make_orlicz(spec: str) -> OrliczFn:
    """Build an Orlicz function from an orlicz-spec string.

    Forms: ``linear`` (t), ``poly:p`` (t^p with p >= 1), ``explog`` (e^t - 1).
    """
    spec = spec.strip()
    if spec == "linear":
        return OrliczFn("linear", lambda t: t)
    if spec.startswith("poly:"):
        try:
            p = float(spec[len("poly:"):])
        except ValueError:
            raise SpecError(f"malformed poly spec {spec!r}") from None
        if p < 1.0:
            raise SpecError(f"poly Orlicz function needs p >= 1 (convexity fails otherwise), got {p}")
        return OrliczFn(spec, lambda t, _p=p: np.power(t, _p))
    if spec == "explog":
        return OrliczFn("explog", np.expm1)
    raise SpecError(f"unknown orlicz spec {spec!r}")


class OrliczFamily:
    """An indexed family i -> M_i with a vectorized batch evaluator."""

    __slots__ = ("kind", "name", "_at", "_eval_many")

    def __init__(self, kind: str, name: str, at: Callable[[int], OrliczFn],
                 eval_many: Callable[[np.ndarray, np.ndarray], np.ndarray]):
        self.kind = kind
        self.name = name
        self._at = at
        self._eval_many = eval_many

    def at(self, i: int) -> OrliczFn:
        return self._at(int(i))

    def eval_many(self, idx: np.ndarray, t: np.ndarray) -> np.ndarray:
        """M_idx[j](t[j]) for aligned index/value arrays."""
        return np.asarray(self._eval_many(np.asarray(idx, dtype=np.int64),
                                          np.asarray(t, dtype=float)), dtype=float)

    def __repr__(self) -> str:
        return f"OrliczFamily({self.name!r})"


def uniform_family(base: OrliczFn) -> OrliczFamily:
    return OrliczFamily("uniform", base.name, lambda i: base, lambda idx, t: base.fn(t))


def weighted_family(base: OrliczFn, weight: Callable[[np.ndarray], np.ndarray],
                    name: str | None = None) -> OrliczFamily:
    """M_i(t) = w_i * base(t) with w_i > 0; ``weight`` must accept index arrays."""

    def at(i: int) -> OrliczFn:
        w = float(weight(np.asarray([i], dtype=np.int64))[0])
        if w <= 0:
            raise SpecError(f"family weight at index {i} must be positive, got {w}")
        return OrliczFn(f"{w:g}*{base.name}", lambda t, _w=w: _w * base.fn(np.asarray(t, dtype=float)))

    return OrliczFamily(
        "weighted",
        name or f"weighted({base.name})",
        at,
        lambda idx, t: weight(idx) * base.fn(t),
    )


def table_family(fns: Sequence[OrliczFn], name: str = "table") -> OrliczFamily:
    fns = list(fns)

    def at(i: int) -> OrliczFn:
        if not 1 <= i <= len(fns):
            raise TruncationError(f"family table covers indices 1..{len(fns)}, got {i}")
        return fns[i - 1]

    def eval_many(idx: np.ndarray, t: np.ndarray) -> np.ndarray:
        return np.asarray([at(int(i))(float(v)) for i, v in zip(idx, t)])

    return OrliczFamily("table", name, at, eval_many)


def make_family(spec: str) -> OrliczFamily:
    """Family from a spec string: any orlicz-spec (uniform family), or
    ``weighted:base=SPEC,weights=file:PATH`` (one positive weight per line)."""
    spec = spec.strip()
    if spec.startswith("weighted:"):
        parts = parse_kv(spec[len("weighted:"):], "weighted")
        if "base" not in parts or "weights" not in parts:
            raise SpecError(f"weighted spec needs base= and weights=, got {spec!r}")
        base = make_orlicz(parts["base"])
        wspec = parts["weights"]
        if not wspec.startswith("file:"):
            raise SpecError(f"weights must come from file:PATH, got {wspec!r}")
        path = wspec[len("file:"):]
        w = read_floats(path, "weight")
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise SpecError(f"weights in {path} must be positive and finite")

        def weight(idx: np.ndarray, _w=w) -> np.ndarray:
            if idx.size and int(idx.max()) > _w.size:
                raise TruncationError(f"weight table covers 1..{_w.size}, index {int(idx.max())} requested")
            return _w[idx - 1]

        return weighted_family(base, weight, name=spec)
    return uniform_family(make_orlicz(spec))


@dataclass(frozen=True)
class RhoSchedule:
    """Per-index positive scale rho^(i): constant or an explicit table."""

    kind: str
    constant: float | None = None
    table: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "const":
            if self.constant is None or self.constant <= 0 or not math.isfinite(self.constant):
                raise SpecError(f"rho constant must be positive and finite, got {self.constant}")
        elif self.kind == "table":
            t = np.asarray(self.table, dtype=float)
            if t.ndim != 1 or t.size == 0 or np.any(t <= 0) or not np.all(np.isfinite(t)):
                raise SpecError("rho table must be a nonempty list of positive finite reals")
            t = t.copy()
            t.flags.writeable = False
            object.__setattr__(self, "table", t)
        else:
            raise SpecError(f"unknown rho kind {self.kind!r}")

    def at(self, i: int) -> float:
        if self.kind == "const":
            return self.constant
        if not 1 <= i <= self.table.size:
            raise TruncationError(f"rho table covers 1..{self.table.size}, got {i}")
        return float(self.table[i - 1])

    def values(self, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        if self.kind == "const":
            return np.full(idx.shape, self.constant)
        if idx.size and int(idx.max()) > self.table.size:
            raise TruncationError(f"rho table covers 1..{self.table.size}, index {int(idx.max())} requested")
        return self.table[idx - 1]


def const_rho(c: float = 1.0) -> RhoSchedule:
    return RhoSchedule("const", constant=float(c))


def make_rho(spec: str) -> RhoSchedule:
    """Rho-spec forms: ``const:c``, ``file:PATH`` (one positive value per line)."""
    spec = spec.strip()
    if spec.startswith("const:"):
        try:
            return const_rho(float(spec[len("const:"):]))
        except ValueError:
            raise SpecError(f"malformed rho spec {spec!r}") from None
    if spec.startswith("file:"):
        return RhoSchedule("table", table=read_floats(spec[len("file:"):], "rho"))
    raise SpecError(f"unknown rho spec {spec!r}")


@dataclass(frozen=True)
class ModularValue:
    value: float
    overflow_index: int | None


def _modular_arrays(family: OrliczFamily, idx: np.ndarray, absvals: np.ndarray) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        terms = family.eval_many(idx, absvals)
    total = float(np.sum(terms))
    return total if math.isfinite(total) else math.inf


def modular_report(family: OrliczFamily, x: SequencePrefix) -> ModularValue:
    """The modular sum_k M_k(|x_k|), with the first overflowing index if any."""
    idx = np.arange(1, len(x) + 1, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = family.eval_many(idx, np.abs(x.values))
    bad = np.flatnonzero(~np.isfinite(terms))
    if bad.size:
        return ModularValue(math.inf, int(bad[0]) + 1)
    total = float(np.sum(terms))
    if not math.isfinite(total):
        return ModularValue(math.inf, None)
    return ModularValue(total, None)


def modular(family: OrliczFamily, x: SequencePrefix) -> float:
    return modular_report(family, x).value


def luxemburg_norm(family: OrliczFamily, x: SequencePrefix, tol: float = 1e-8) -> float:
    """inf{k > 0 : modular(x / k) <= 1}, located by bisection.

    The bracket is found by doubling k upward until the modular drops to 1
    and halving downward until it rises above 1; monotonicity of the modular
    in k guarantees a bracket whenever the norm is finite.  Raises
    UnboundedNormError if doubling escapes its 2^50 growth cap.
    """
    check_tol(tol)
    a = np.abs(x.values)
    if not a.any():
        return 0.0
    idx = np.arange(1, len(x) + 1, dtype=np.int64)

    def mval(k: float) -> float:
        return _modular_arrays(family, idx, a / k)

    hi = max(1.0, float(a.max()))
    cap = hi * 2.0 ** 50
    while mval(hi) > 1.0:
        hi *= 2.0
        if hi > cap:
            raise UnboundedNormError(
                f"modular of {x.label or 'x'} never drops to 1 within scale {cap:g}")
    while hi > 1e-300 and mval(hi / 2.0) <= 1.0:
        hi /= 2.0
    lo = hi / 2.0
    for _ in range(200):
        if hi - lo <= tol * min(1.0, lo):
            break
        mid = 0.5 * (lo + hi)
        if mval(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class OrliczNormResult:
    """Estimate of inf_k (1 + modular(k x)) / k.

    ``attained`` is "interior" when the minimum sat inside the sampled
    bracket and "edge" when the objective was still descending at the largest
    sampled scale (the infimum is approached as k -> infinity, e.g. for a
    linear gauge).
    """

    value: float
    scale: float | None
    attained: str
    iterations: int


def _golden_min(fn: Callable[[float], float], a: float, b: float,
                xtol: float, max_iter: int = 400) -> tuple[float, int]:
    h = b - a
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc = fn(c)
    yd = fn(d)
    evals = 2
    while h > xtol and evals < max_iter:
        if yc < yd:
            b, d, yd = d, c, yc
            h = _INV_PHI * h
            c = a + _INV_PHI2 * h
            yc = fn(c)
        else:
            a, c, yc = c, d, yd
            h = _INV_PHI * h
            d = a + _INV_PHI * h
            yd = fn(d)
        evals += 1
    return 0.5 * (a + b), evals


def orlicz_norm(family: OrliczFamily, x: SequencePrefix, tol: float = 1e-6) -> OrliczNormResult:
    check_tol(tol)
    a = np.abs(x.values)
    if not a.any():
        return OrliczNormResult(0.0, None, "edge", 0)
    idx = np.arange(1, len(x) + 1, dtype=np.int64)

    def g(k: float) -> float:
        return (1.0 + _modular_arrays(family, idx, k * a)) / k

    scales = 2.0 ** np.arange(-40, 41, dtype=float)
    gs = np.asarray([g(k) for k in scales])
    j = int(np.argmin(gs))
    evals = scales.size
    if j == scales.size - 1:
        return OrliczNormResult(float(gs[-1]), float(scales[-1]), "edge", evals)
    left = scales[j - 1] if j > 0 else scales[0] / 4.0
    xtol = max(1e-13, 1e-3 * tol * float(scales[j]))
    k_opt, iters = _golden_min(g, float(left), float(scales[j + 1]), xtol)
    return OrliczNormResult(float(g(k_opt)), float(k_opt), "interior", evals + iters + 1)


@dataclass(frozen=True)
class ComplementaryValue:
    value: float
    maximizer: float
    diverged: bool


def complementary(family: OrliczFamily, i: int, v: float, u_max: float,
                  grid: int = 2000) -> ComplementaryValue:
    """Conjugate value sup_{0 <= u <= u_max} (|v| u - M_i(u)) by grid + refinement.

    Grid search plus local zooming keeps nonsmooth gauges supported.  When the
    maximizer sits at u_max with the objective still rising, the supremum is
    flagged divergent rather than trusted.
    """
    if u_max <= 0:
        raise ValueError("u_max must be positive")
    if grid < 1000:
        raise ValueError("grid must have at least 1000 points")
    m = family.at(i)
    av = abs(float(v))

    def objective(us: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return av * us - np.asarray(m.fn(us), dtype=float)

    us = np.linspace(0.0, float(u_max), grid)
    obj = objective(us)
    j = int(np.nanargmax(obj))
    diverged = j == grid - 1 and obj[-1] > obj[-2]
    best_u, best = float(us[j]), float(obj[j])
    if not diverged:
        lo = float(us[max(j - 1, 0)])
        hi = float(us[min(j + 1, grid - 1)])
        for _ in range(3):
            us = np.linspace(lo, hi, grid)
            obj = objective(us)
            j = int(np.nanargmax(obj))
            if obj[j] > best:
                best, best_u = float(obj[j]), float(us[j])
            lo = float(us[max(j - 1, 0)])
            hi = float(us[min(j + 1, grid - 1)])
    return ComplementaryValue(max(best, 0.0), best_u, bool(diverged))


@dataclass(frozen=True)
class Delta2Report:
    passed: bool
    witness: tuple | None  # (k, u, lhs, rhs)
    c_sum: float
    pairs_checked: int


def delta2_check(family: OrliczFamily, a: float, big_k: float, c,
                 ks: Sequence[int], us: Sequence[float]) -> Delta2Report:
    """Sampled doubling check: M_k(2u) <= K M_k(u) + c_k whenever M_k(u) <= a.

    A pass means no counterexample was found on the (k, u) sample.  ``c`` is a
    constant or a callable k -> c_k >= 0; the reported c_sum totals c_k over
    k = 1..max(ks).
    """
    if a <= 0 or big_k <= 0:
        raise ValueError("thresholds a and K must be positive")
    c_at = (lambda k: float(c)) if np.isscalar(c) else c
    ks = [int(k) for k in ks]
    us_arr = np.asarray(list(us), dtype=float)
    if us_arr.size == 0 or np.any(us_arr < 0):
        raise ValueError("u sample must be nonnegative and nonempty")
    pairs = 0
    for k in ks:
        ck = float(c_at(k))
        if ck < 0:
            raise ValueError(f"c_{k} must be >= 0, got {ck}")
        idx = np.full(us_arr.shape, k, dtype=np.int64)
        with np.errstate(over="ignore", invalid="ignore"):
            m_u = family.eval_many(idx, us_arr)
            m_2u = family.eval_many(idx, 2.0 * us_arr)
        mask = m_u <= a
        pairs += int(np.count_nonzero(mask))
        viol = np.flatnonzero(mask & (m_2u > big_k * m_u + ck + _SLACK))
        if viol.size:
            j = int(viol[0])
            return Delta2Report(
                False,
                witness=(k, float(us_arr[j]), float(m_2u[j]), float(big_k * m_u[j] + ck)),
                c_sum=math.fsum(float(c_at(i)) for i in range(1, max(ks) + 1)),
                pairs_checked=pairs,
            )
    return Delta2Report(
        True, None,
        c_sum=math.fsum(float(c_at(i)) for i in range(1, max(ks) + 1)),
        pairs_checked=pairs,
    )


def block_mean_norm(x: SequencePrefix, scheme: LacunaryScheme) -> float:
    """sup over blocks of the block mean of |x|: max_r h_r^{-1} sum_{k in J_r} |x_k|."""
    if scheme.k_max > len(x):
        raise TruncationError(
            f"scheme extends to {scheme.k_max}, past truncation {len(x)}")
    a = np.abs(x.values[: scheme.k_max])
    sums = np.add.reduceat(a, scheme.cuts_array[:-1])
    return float(np.max(sums / scheme.h))


@dataclass(frozen=True)
class OrliczAxiomReport(AxiomReport):
    vanishes_at_zero: AxiomCheck
    positive: AxiomCheck
    monotone: AxiomCheck
    midpoint_convex: AxiomCheck
    grows_unbounded: AxiomCheck


def check_orlicz_axioms(m: OrliczFn, grid=None) -> OrliczAxiomReport:
    """Sampled Orlicz-function checks: M(0)=0, positivity, monotonicity,
    midpoint convexity over grid pairs (0 included), and growth of M(10^k).

    The default grid covers 1e-6..1e2; pass a custom grid for wider ranges.
    """
    g = _axiom_grid(grid, DEFAULT_ORLICZ_GRID)
    mg = m(g)
    bad = np.flatnonzero(mg <= 0)
    positive = (AxiomCheck(False, witness=(float(g[int(bad[0])]), float(mg[int(bad[0])])),
                           note="M(t) must be positive for t > 0")
                if bad.size else AxiomCheck(True))

    g0 = np.concatenate(([0.0], g))
    mg0 = m(g0)
    gx, gy = np.meshgrid(g0, g0, indexing="ij")
    with np.errstate(over="ignore", invalid="ignore"):
        mid = m((gx + gy) / 2.0)
    convex = _pairwise(g0, mid, (mg0[:, None] + mg0[None, :]) / 2.0, "M(mid)", "(M(s)+M(t))/2")

    # convexity with M(0)=0 forces M(t) >= t * M(1) for t >= 1, so a genuine
    # gauge gains far more than 10x over 1..1e8; saturation fails this
    with np.errstate(over="ignore", invalid="ignore"):
        growth_vals = m(10.0 ** np.arange(0, 9, dtype=float))
    finite = np.isfinite(growth_vals)
    prefix = growth_vals[: int(np.argmin(finite))] if not finite.all() else growth_vals
    overflowed = not finite.all()
    increasing = prefix.size >= 2 and bool(np.all(np.diff(prefix) > 0))
    gained = prefix.size >= 2 and float(prefix[-1]) >= 10.0 * max(float(prefix[0]), 1e-300)
    if (increasing and (gained or overflowed)) or (prefix.size < 2 and overflowed):
        grows = AxiomCheck(True, note="overflow treated as unbounded growth" if overflowed else "")
    elif not increasing and prefix.size >= 2:
        bad = np.flatnonzero(np.diff(prefix) <= 0)
        i = int(bad[0]) if bad.size else 0
        grows = AxiomCheck(False, witness=(10.0 ** i, 10.0 ** (i + 1)),
                           note="M(10^k) fails to increase in k")
    else:
        grows = AxiomCheck(False, witness=(float(prefix[0]), float(prefix[-1])),
                           note="M(10^k) gains less than 10x over 1..1e8; looks bounded")
    return OrliczAxiomReport(_vanishes_at_zero(m), positive, _monotone(g, mg, "M"), convex, grows)

"""Orlicz machinery: modulars, Luxemburg and Orlicz norms, conjugates,
doubling-growth checks, and the block-mean norm.

The modular I(x) = sum_k M_k(|x_k|) is the gauge behind both norms, and each
norm costs a handful of modular passes at any scale of x.  The Luxemburg norm
is the root of I(x / k) = 1: convexity brackets it from one pass at
k = max|x|, and Illinois regula falsi on (log k, log I) narrows the bracket to
a relative width of ``tol``.  The Orlicz (Amemiya) norm minimizes
(1 + I(k x)) / k by Brent's method in log k from a bracket a loose Luxemburg
norm fixes; the infimum may legitimately be approached as k -> infinity
rather than attained, which the result reports as an edge.
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


# Doubling or halving a scale more than 2^50 times past max|x| gives up.
_SCALE_CAP = 2.0 ** 50
_MAX_STEPS = 200
# Loose Luxemburg tolerance behind the Orlicz norm's start: it need only be
# an upper bound within a small factor of the norm.
_LOOSE_TOL = 0.5
_EPS = float(np.finfo(float).eps)


class _Modular:
    """s -> sum_i M_i(s |x_i| / unit) with unit = max|x|, counting the passes
    it makes over x.

    Both norms are solved for x / unit and scaled back: the change of
    variable k -> k / unit is exact for any family and keeps every scale the
    solvers visit near 1, whatever the magnitude of x.
    """

    __slots__ = ("family", "idx", "a", "unit", "label", "passes")

    def __init__(self, family: OrliczFamily, x: SequencePrefix):
        a = np.abs(x.values)
        self.family = family
        self.unit = float(a.max())
        self.a = a / self.unit
        self.idx = np.arange(1, a.size + 1, dtype=np.int64)
        self.label = x.label or "x"
        self.passes = 0

    def __call__(self, s: float) -> float:
        self.passes += 1
        return _modular_arrays(self.family, self.idx, self.a * s)

    def scale_back(self, norm: float) -> float:
        """unit * norm, the norm of x; past the float range it is an OverflowError."""
        if not math.isfinite(self.unit * norm):
            raise OverflowError(f"norm of {self.label} overflows the float range: {self.unit:g} * {norm:g}")
        return self.unit * norm


def _luxemburg(mod: _Modular, tol: float) -> tuple[float, float]:
    """The Luxemburg norm of x / unit and an upper bound hi on it with
    modular(x / (unit hi)) <= 1, to relative tolerance ``tol``.

    rho(k) = modular(x / (unit k)) is nonincreasing in k.  One pass at
    k = 1 brackets the root by convexity; Illinois regula falsi on
    (log k, log rho) then narrows [lo, hi] (rho(lo) > 1 >= rho(hi)) until
    hi - lo <= tol * lo.
    """
    lo = hi = None  # (k, rho(k))
    k, jump = 1.0, True
    while True:
        r = mod(1.0 / k)
        if r > 1.0:
            lo = (k, r)
        else:
            hi = (k, r)
        if lo is not None and hi is not None:
            break
        if jump and 0.0 < r < math.inf:
            # M convex with M(0) = 0 gives M(t / c) <= M(t) / c for c >= 1, so the
            # root lies between k and k * r; the pad keeps it strictly inside
            k *= r * (1.0 + tol / 2.0 if r > 1.0 else 1.0 - tol / 2.0)
            jump = False
        elif hi is None:
            k *= 2.0
            if k > _SCALE_CAP:
                raise UnboundedNormError(
                    f"modular of {mod.label} never drops to 1 within scale {mod.unit * _SCALE_CAP:g}")
        else:
            k /= 2.0
            if k < 1.0 / _SCALE_CAP:
                raise UnboundedNormError(
                    f"modular of {mod.label} never rises above 1 down to scale {mod.unit / _SCALE_CAP:g}")
    (k_lo, r_lo), (k_hi, r_hi) = lo, hi
    u_lo, u_hi = math.log(k_lo), math.log(k_hi)
    f_lo, f_hi = math.log(r_lo), (math.log(r_hi) if r_hi > 0.0 else -math.inf)
    # Illinois weights; each secant aims a quarter tolerance past rho = 1 on the
    # side that moved least recently, so it lands there whatever the rounding
    w_lo, w_hi = f_lo, f_hi
    last_lo = r > 1.0
    aim_lo, aim_hi = math.log1p(tol / 4.0), math.log1p(-tol / 4.0)
    for _ in range(_MAX_STEPS):
        if k_hi - k_lo <= tol * k_lo:
            break
        u = math.nan
        if math.isfinite(w_lo) and math.isfinite(w_hi):
            aim = aim_hi if last_lo else aim_lo
            u = u_lo + (w_lo - aim) / (w_lo - w_hi) * (u_hi - u_lo)
        if not u_lo < u < u_hi:
            u = 0.5 * (u_lo + u_hi)
            if not u_lo < u < u_hi:
                break
        k = math.exp(u)
        r = mod(1.0 / k)
        f = math.log(r) if r > 0.0 else -math.inf
        if r > 1.0:
            k_lo, u_lo, f_lo, w_lo = k, u, f, f
            if last_lo:
                w_hi /= 2.0
            last_lo = True
        else:
            k_hi, u_hi, f_hi, w_hi = k, u, f, f
            if not last_lo:
                w_lo /= 2.0
            last_lo = False
    if not (math.isfinite(f_lo) and math.isfinite(f_hi)):
        return k_hi, k_hi
    # the interpolated root of log rho = 0 costs no further pass
    u = u_lo + f_lo / (f_lo - f_hi) * (u_hi - u_lo)
    return min(max(math.exp(u), k_lo), k_hi), k_hi


def luxemburg_norm(family: OrliczFamily, x: SequencePrefix, tol: float = 1e-8) -> float:
    """inf{k > 0 : modular(x / k) <= 1}, to relative tolerance ``tol``.

    The result k satisfies k* / (1 + tol) <= k <= k* (1 + tol) for the true
    norm k*, at every scale of x (a tol finer than float resolution stops at
    adjacent floats).  One modular pass at k0 = max|x| brackets
    k* by convexity; Illinois regula falsi on (log k, log modular), exact in
    one step for ``poly:p`` and ``linear``, narrows the bracket until its
    width is at most tol times its lower end.  Doubling or halving takes over
    where the modular underflows, overflows or the gauge is not convex, and
    raises UnboundedNormError past 2^50 times max|x| either way.
    """
    check_tol(tol)
    if not np.any(x.values):
        return 0.0
    mod = _Modular(family, x)
    return mod.scale_back(_luxemburg(mod, tol)[0])


@dataclass(frozen=True)
class OrliczNormResult:
    """Estimate of inf_k (1 + modular(k x)) / k.

    ``scale`` is the minimizing k, or None when x = 0 or k lies past the
    float range.  ``attained`` is "interior" when a minimizing scale was
    bracketed and "edge" when the objective was still falling at a scale k
    where 1/k is below its float resolution: the infimum is approached as
    k -> infinity, as for a linear gauge.  ``iterations`` counts modular passes.
    """

    value: float
    scale: float | None
    attained: str
    iterations: int


def _brent_min(fn: Callable[[float], float], a: float, b: float, x: float, fx: float,
               xtol: float) -> tuple[float, float]:
    """Brent's safeguarded parabolic minimization of a unimodal ``fn`` on
    [a, b] from an interior x with fn(x) = fx no larger than at either end;
    stops once the bracket around the best point is within 2 xtol on each side.
    Returns the best point and its value."""
    golden = (3.0 - math.sqrt(5.0)) / 2.0
    w = v = x
    fw = fv = fx
    d = e = 0.0
    for _ in range(_MAX_STEPS):
        m = 0.5 * (a + b)
        if max(x - a, b - x) <= 2.0 * xtol:
            break
        parabolic = False
        if abs(e) > xtol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            prev, e = e, d
            if abs(p) < abs(0.5 * q * prev) and q * (a - x) < p < q * (b - x):
                d = p / q
                parabolic = True
                if x + d - a < 2.0 * xtol or b - (x + d) < 2.0 * xtol:
                    d = math.copysign(xtol, m - x)
        if not parabolic:
            e = (a - x) if x >= m else (b - x)
            d = golden * e
        u = x + (d if abs(d) >= xtol else math.copysign(xtol, d))
        fu = fn(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v in (x, w):
                v, fv = u, fu
    return x, fx


def orlicz_norm(family: OrliczFamily, x: SequencePrefix, tol: float = 1e-6) -> OrliczNormResult:
    """The Orlicz (Amemiya) norm inf_{k > 0} (1 + modular(k x)) / k.

    g(k) = (1 + modular(k x)) / k is unimodal.  A loose Luxemburg bound hi
    starts the search: g(k) >= 1/k and g(1/hi) <= 2 hi, so no k below
    1 / g(1/hi) can win.  Scales step up from 1/hi by factors 2, 4, 16, ...
    until g rises, and Brent's method in log k then stops at a relative k
    width near 0.1 sqrt(tol); the value error is quadratic in that width and
    stays far inside ``tol``.  When g is still falling at a k with 1/k below
    its float resolution, the result is that g(k) with ``attained="edge"``.
    """
    check_tol(tol)
    if not np.any(x.values):
        return OrliczNormResult(0.0, None, "edge", 0)
    mod = _Modular(family, x)
    _, hi = _luxemburg(mod, _LOOSE_TOL)

    def g(u: float) -> float:
        k = math.exp(u)
        return (1.0 + mod(k)) / k

    x_u = -math.log(hi)
    fx = g(x_u)
    a_u = -math.log(fx)  # every k <= 1 / g(1/hi) has g(k) >= 1/k >= g(1/hi)
    step = math.log(2.0)
    attained = "edge"
    while True:
        u = x_u + step
        fu = g(u)
        if fu > fx:
            u, fu = _brent_min(g, a_u, u, x_u, fx, 0.025 * math.sqrt(tol))
            attained = "interior"
            break
        if math.exp(-u) <= _EPS * fu:
            break
        a_u, x_u, fx = x_u, u, fu
        step *= 2.0
    scale = math.exp(u) / mod.unit
    return OrliczNormResult(mod.scale_back(fu), scale if math.isfinite(scale) else None, attained, mod.passes)


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

"""Orlicz machinery: modulars, Luxemburg and Orlicz norms, doubling-growth
checks, and the block-mean norm.

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

from .core import (LacunaryScheme, SequencePrefix, check_tol, parse_kv, parse_spec, read_numbers,
                   spec_number)
from .errors import SpecError, TruncationError, UnboundedNormError
from .modulus import (AxiomCheck, AxiomReport, Modulus, _axiom_grid, _monotone,
                      _pairwise, _power, _vanishes_at_zero)

_SLACK = 1e-12

DEFAULT_ORLICZ_GRID = np.logspace(-6.0, 2.0, 33)


# An Orlicz function is a convex gauge: continuous, nondecreasing, M(0) = 0,
# M(t) -> infinity.  It shares the gauge type with the moduli; only the
# axioms checked on it (``check_orlicz_axioms``) differ.
OrliczFn = Modulus


_ORLICZ_FORMS = {
    "linear": lambda spec, body: OrliczFn("linear", lambda t: t),
    "poly:": lambda spec, body: _power(spec, spec_number(spec, "p", body, lo=1.0, why="convexity")),
    "explog": lambda spec, body: OrliczFn("explog", np.expm1),
}


def make_orlicz(spec: str) -> OrliczFn:
    """Build an Orlicz function from an orlicz-spec string.

    Forms: ``linear`` (t), ``poly:p`` (t^p with p >= 1), ``explog`` (e^t - 1).
    """
    return parse_spec(spec, "orlicz", _ORLICZ_FORMS)


class OrliczFamily:
    """An indexed family i -> M_i, evaluated in batches by ``eval_many``."""

    __slots__ = ("name", "_eval_many")

    def __init__(self, name: str, eval_many: Callable[[np.ndarray, np.ndarray], np.ndarray]):
        self.name = name
        self._eval_many = eval_many

    def eval_many(self, idx: np.ndarray, t: np.ndarray) -> np.ndarray:
        """M_idx[j](t[j]) for aligned index/value arrays."""
        return np.asarray(self._eval_many(np.asarray(idx, dtype=np.int64),
                                          np.asarray(t, dtype=float)), dtype=float)

    def __repr__(self) -> str:
        return f"OrliczFamily({self.name!r})"


def uniform_family(base: OrliczFn) -> OrliczFamily:
    return OrliczFamily(base.name, lambda idx, t: base.fn(t))


def weighted_family(base: OrliczFn, weight: Callable[[np.ndarray], np.ndarray],
                    name: str | None = None) -> OrliczFamily:
    """M_i(t) = w_i * base(t) with w_i > 0; ``weight`` must accept index arrays."""
    return OrliczFamily(name or f"weighted({base.name})",
                        lambda idx, t: weight(idx) * base.fn(t))


def _weighted(spec: str, body: str) -> OrliczFamily:
    parts = parse_kv(body, "weighted")
    if "base" not in parts or "weights" not in parts:
        raise SpecError(f"weighted spec needs base= and weights=, got {spec!r}")
    base = make_orlicz(parts["base"])
    path, w = parse_spec(parts["weights"], "weights",
                         {"file:": lambda _, path: (path, read_numbers(path, "weight"))})
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise SpecError(f"weights in {path} must be positive and finite")

    def weight(idx: np.ndarray) -> np.ndarray:
        if idx.size and int(idx.max()) > w.size:
            raise TruncationError(f"weight table covers 1..{w.size}, index {int(idx.max())} requested")
        return w[idx - 1]

    return weighted_family(base, weight, name=spec)


_FAMILY_FORMS = {head: lambda spec, body, _build=build: uniform_family(_build(spec, body))
                 for head, build in _ORLICZ_FORMS.items()}
_FAMILY_FORMS["weighted:"] = _weighted


def make_family(spec: str) -> OrliczFamily:
    """Family from a spec string: any orlicz-spec (uniform family), or
    ``weighted:base=SPEC,weights=file:PATH`` (one positive weight per line)."""
    return parse_spec(spec, "orlicz", _FAMILY_FORMS)


@dataclass(frozen=True)
class RhoSchedule:
    """Per-index positive scale rho^(i): the ``constant``, if set, else the
    explicit ``table``."""

    constant: float | None = None
    table: np.ndarray | None = None

    def __post_init__(self):
        if self.constant is not None:
            if self.constant <= 0 or not math.isfinite(self.constant):
                raise SpecError(f"rho constant must be positive and finite, got {self.constant}")
        else:
            t = np.asarray(self.table, dtype=float)
            if t.ndim != 1 or t.size == 0 or np.any(t <= 0) or not np.all(np.isfinite(t)):
                raise SpecError("rho table must be a nonempty list of positive finite reals")
            t = t.copy()
            t.flags.writeable = False
            object.__setattr__(self, "table", t)

    def values(self, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        if self.constant is not None:
            return np.full(idx.shape, self.constant)
        if idx.size and int(idx.max()) > self.table.size:
            raise TruncationError(f"rho table covers 1..{self.table.size}, index {int(idx.max())} requested")
        return self.table[idx - 1]


def const_rho(c: float = 1.0) -> RhoSchedule:
    return RhoSchedule(constant=float(c))


_RHO_FORMS = {
    "const:": lambda spec, body: const_rho(spec_number(spec, "c", body, lo=0.0, open_lo=True)),
    "file:": lambda spec, path: RhoSchedule(table=read_numbers(path, "rho")),
}


def make_rho(spec: str) -> RhoSchedule:
    """Rho-spec forms: ``const:c`` with c > 0, ``file:PATH`` (one positive value per line)."""
    return parse_spec(spec, "rho", _RHO_FORMS)


def _modular_arrays(family: OrliczFamily, idx: np.ndarray, absvals: np.ndarray) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        terms = family.eval_many(idx, absvals)
    total = float(np.sum(terms))
    return total if math.isfinite(total) else math.inf


def modular(family: OrliczFamily, x: SequencePrefix) -> float:
    """The modular sum_k M_k(|x_k|); inf when a term or the sum overflows."""
    return _modular_arrays(family, np.arange(1, len(x) + 1, dtype=np.int64), np.abs(x.values))


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
    norm k*, at every scale of x, but only to the float grid: a tol finer than
    float resolution stops at adjacent floats, and a subnormal k is off by up
    to half its ulp (k* = 1.44 ulp(0) returns 1 ulp(0)).  One modular pass
    at k0 = max|x| brackets k* by convexity; Illinois regula falsi on
    (log k, log modular), exact in one step for ``poly:p`` and ``linear``,
    narrows the bracket until its width is at most tol times its lower end.
    Doubling or halving takes over where the modular underflows, overflows or
    the gauge is not convex, and raises UnboundedNormError past 2^50 times
    max|x| either way.
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
    Like the Luxemburg norm it holds at every scale only to the float grid:
    a subnormal value is off by up to half its ulp, so the order
    Luxemburg <= Orlicz <= 2 Luxemburg can fail between the returned floats.
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
    for name, v in (("a", a), ("big_k", big_k)):
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be positive and finite, got {v}")
    c_at = (lambda k: float(c)) if np.isscalar(c) else c
    ks = [int(k) for k in ks]
    if not ks or min(ks) < 1:
        raise ValueError(f"ks must be nonempty with every k >= 1, got smallest {min(ks, default=None)}")
    us_arr = np.asarray(list(us), dtype=float)
    if us_arr.size == 0 or np.any(us_arr < 0):
        raise ValueError("u sample must be nonnegative and nonempty")
    pairs, witness = 0, None
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
            witness = (k, float(us_arr[j]), float(m_2u[j]), float(big_k * m_u[j] + ck))
            break
    return Delta2Report(
        witness is None, witness,
        c_sum=math.fsum(float(c_at(i)) for i in range(1, max(ks) + 1)),
        pairs_checked=pairs,
    )


def block_mean_norm(x: SequencePrefix, scheme: LacunaryScheme) -> float:
    """sup over blocks of the block mean of |x|: max_r h_r^{-1} sum_{k in J_r} |x_k|."""
    if scheme.k_max > len(x):
        raise TruncationError(
            f"scheme extends to {scheme.k_max}, past truncation {len(x)}")
    a = np.abs(x.values[: scheme.k_max])
    # scaled by 2^-e, e the exponent of max|x|, no block sum overflows; exact for normal floats
    e = int(np.frexp(a.max())[1])
    means = np.ldexp(np.add.reduceat(np.ldexp(a, -e), scheme.cuts_array[:-1]) / scheme.h, e)
    # a mean that underflows rounds up, not to 0: the norm vanishes on x = 0 alone
    return max(float(np.max(means)), math.ulp(0.0) if a.any() else 0.0)


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

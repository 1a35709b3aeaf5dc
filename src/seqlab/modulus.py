"""Gauge functions, moduli among them, and sampled axiom checks.

A modulus vanishes exactly at 0, is subadditive and increasing, and is
right-continuous at 0.  The axioms are analytic, so they are verified by
sampling; a pass means "no counterexample found on the grid".  The grid
validation and the zero, monotone and pairwise checks here are shared with
the Orlicz-function axioms in ``seqlab.orlicz``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .core import parse_spec, spec_number

DEFAULT_GRID = np.logspace(-6.0, 6.0, 49)
_SLACK = 1e-12


@dataclass(frozen=True)
class Modulus:
    """A gauge: a name plus a vectorized nondecreasing map with M(0) = 0.

    Moduli and Orlicz functions (``seqlab.orlicz.OrliczFn`` is this class)
    share the type; only the axioms checked on them differ.  ``unbounded``
    matters to moduli only: density ratios need an unbounded one.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    unbounded: bool = True

    # perfbench/tracing.py wraps this method on the class, so it stays here.
    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        out = self.fn(arr)
        if arr.ndim == 0:
            return float(out)
        return np.asarray(out, dtype=float)

    def unbounded_for(self, use: str) -> "Modulus":
        """This modulus, which ``use`` needs unbounded: a bounded one raises ValueError."""
        if not self.unbounded:
            raise ValueError(f"bounded modulus {self.name!r}: {use} needs an unbounded modulus")
        return self


def _power(name: str, p: float) -> Modulus:
    """The gauge t^p, named ``name``: a modulus for p <= 1, an Orlicz function for p >= 1."""
    return Modulus(name, lambda t: np.power(t, p))


_MODULUS_FORMS = {
    "id": lambda spec, body: Modulus("id", lambda t: t),
    "log1p": lambda spec, body: Modulus("log1p", np.log1p),
    "pow:": lambda spec, body: _power(
        spec, spec_number(spec, "p", body, lo=0.0, hi=1.0, open_lo=True, why="subadditivity")),
    "bounded": lambda spec, body: Modulus("bounded", lambda t: t / (1.0 + t), unbounded=False),
}


def make_modulus(spec: str) -> Modulus:
    """Build a modulus from a modulus-spec string.

    Forms: ``id``, ``log1p``, ``pow:p`` with 0 < p <= 1, ``bounded``
    (x / (1 + x), the only built-in with unbounded=False).
    """
    return parse_spec(spec, "modulus", _MODULUS_FORMS)


@dataclass(frozen=True)
class AxiomCheck:
    passed: bool
    witness: tuple | None = None
    note: str = ""


@dataclass(frozen=True)
class AxiomReport:
    """Base of the sampled axiom reports: each field is one AxiomCheck."""

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks().values())

    def checks(self) -> dict[str, AxiomCheck]:
        return {fld.name: getattr(self, fld.name) for fld in fields(self)}


@dataclass(frozen=True)
class ModulusAxiomReport(AxiomReport):
    vanishes_at_zero: AxiomCheck
    subadditive: AxiomCheck
    monotone: AxiomCheck
    right_continuous_at_zero: AxiomCheck


def _axiom_grid(grid, default: np.ndarray) -> np.ndarray:
    """The sorted distinct grid points; they must be positive and finite."""
    g = np.sort(np.asarray(default if grid is None else grid, dtype=float), axis=None)
    if g.size == 0:
        raise ValueError("axiom grid must be nonempty")
    g = g[np.append(True, g[1:] != g[:-1])]  # distinct: np.unique would import numpy.ma
    if np.any(g <= 0) or not np.all(np.isfinite(g)):
        raise ValueError("axiom grid values must be positive and finite")
    return g


def _vanishes_at_zero(f: Modulus) -> AxiomCheck:
    v0 = float(f(0.0))
    return AxiomCheck(v0 == 0.0, witness=None if v0 == 0.0 else (0.0, v0))


def _monotone(g: np.ndarray, fg: np.ndarray, sym: str) -> AxiomCheck:
    """The sampled values ``fg`` on the sorted grid ``g`` never drop."""
    bad = np.flatnonzero(np.diff(fg) < -_SLACK)
    if not bad.size:
        return AxiomCheck(True)
    i = int(bad[0])
    return AxiomCheck(False, witness=(float(g[i]), float(g[i + 1])),
                      note=f"{sym} drops from {float(fg[i]):.6g} to {float(fg[i + 1]):.6g}")


def _pairwise(g: np.ndarray, lhs: np.ndarray, rhs: np.ndarray,
              lhs_name: str, rhs_name: str) -> AxiomCheck:
    """lhs[i, j] <= rhs[i, j] over all grid pairs (g[i], g[j]); a failure
    names the first violating pair."""
    viol = lhs > rhs + _SLACK
    if not np.any(viol):
        return AxiomCheck(True)
    i, j = map(int, np.argwhere(viol)[0])
    return AxiomCheck(False, witness=(float(g[i]), float(g[j])),
                      note=f"{lhs_name}={float(lhs[i, j]):.6g} > {rhs_name}={float(rhs[i, j]):.6g}")


def check_modulus_axioms(f: Modulus, grid=None) -> ModulusAxiomReport:
    """Sampled verification of the four modulus axioms.

    Subadditivity is checked over all grid pairs, monotonicity over the sorted
    grid, f(0) = 0 exactly, and right-continuity at 0 via f(10^-k) <= 1e-6 for
    some k <= 300 (all normal doubles).  So ``pow:p`` passes for p >= 0.02;
    a smaller exponent still fails, a sampled false negative.  Failures carry
    the witnessing inputs.
    """
    g = _axiom_grid(grid, DEFAULT_GRID)
    fg = f(g)
    gx, gy = np.meshgrid(g, g, indexing="ij")
    sub = _pairwise(g, f(gx + gy), fg[:, None] + fg[None, :], "f(x+y)", "f(x)+f(y)")

    eps_tail = 10.0 ** -np.arange(1, 301, dtype=float)
    tail_vals = f(eps_tail)
    ok = bool(np.any(tail_vals <= 1e-6))
    rc = AxiomCheck(
        ok,
        witness=None if ok else (float(eps_tail[-1]), float(tail_vals[-1])),
        note="" if ok else "f(10^-k) stays above 1e-6 down to k=300",
    )

    return ModulusAxiomReport(_vanishes_at_zero(f), sub, _monotone(g, fg, "f"), rc)

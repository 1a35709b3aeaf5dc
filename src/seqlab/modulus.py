"""Modulus functions and sampled axiom checks.

A modulus vanishes exactly at 0, is subadditive and increasing, and is
right-continuous at 0.  The axioms are analytic, so they are verified by
sampling; a pass means "no counterexample found on the grid".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SpecError

DEFAULT_GRID = np.logspace(-6.0, 6.0, 49)
_SLACK = 1e-12


@dataclass(frozen=True)
class Modulus:
    """A modulus function with a vectorized evaluator and an unboundedness flag."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    unbounded: bool = True

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        out = self.fn(arr)
        if arr.ndim == 0:
            return float(out)
        return np.asarray(out, dtype=float)


def make_modulus(spec: str) -> Modulus:
    """Build a modulus from a modulus-spec string.

    Forms: ``id``, ``log1p``, ``pow:p`` with 0 < p <= 1, ``bounded``
    (x / (1 + x), the only built-in with unbounded=False).
    """
    spec = spec.strip()
    if spec == "id":
        return Modulus("id", lambda t: t)
    if spec == "log1p":
        return Modulus("log1p", np.log1p)
    if spec.startswith("pow:"):
        try:
            p = float(spec[len("pow:"):])
        except ValueError:
            raise SpecError(f"malformed pow spec {spec!r}") from None
        if not 0.0 < p <= 1.0:
            raise SpecError(f"pow modulus needs 0 < p <= 1 (subadditivity fails otherwise), got {p}")
        return Modulus(spec, lambda t, _p=p: np.power(t, _p))
    if spec == "bounded":
        return Modulus("bounded", lambda t: t / (1.0 + t), unbounded=False)
    raise SpecError(f"unknown modulus spec {spec!r}")


@dataclass(frozen=True)
class AxiomCheck:
    passed: bool
    witness: tuple | None = None
    note: str = ""


@dataclass(frozen=True)
class ModulusAxiomReport:
    vanishes_at_zero: AxiomCheck
    subadditive: AxiomCheck
    monotone: AxiomCheck
    right_continuous_at_zero: AxiomCheck

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks().values())

    def checks(self) -> dict[str, AxiomCheck]:
        return {
            "vanishes_at_zero": self.vanishes_at_zero,
            "subadditive": self.subadditive,
            "monotone": self.monotone,
            "right_continuous_at_zero": self.right_continuous_at_zero,
        }


def check_modulus_axioms(f: Modulus, grid=None) -> ModulusAxiomReport:
    """Sampled verification of the four modulus axioms.

    Subadditivity is checked over all grid pairs, monotonicity over the sorted
    grid, f(0) = 0 exactly, and right-continuity at 0 via f(10^-k) <= 1e-6 for
    some k <= 300 (all normal doubles).  So ``pow:p`` passes for p >= 0.02;
    a smaller exponent still fails, a sampled false negative.  Failures carry
    the witnessing inputs.
    """
    g = np.sort(np.unique(np.asarray(DEFAULT_GRID if grid is None else grid, dtype=float)))
    if g.size == 0:
        raise ValueError("axiom grid must be nonempty")
    if np.any(g <= 0) or not np.all(np.isfinite(g)):
        raise ValueError("axiom grid values must be positive and finite")

    v0 = float(f(0.0))
    zero = AxiomCheck(v0 == 0.0, witness=None if v0 == 0.0 else (0.0, v0))

    fg = f(g)
    gx, gy = np.meshgrid(g, g, indexing="ij")
    lhs = f(gx + gy)
    rhs = fg[:, None] + fg[None, :]
    viol = lhs > rhs + _SLACK
    if np.any(viol):
        i, j = map(int, np.argwhere(viol)[0])
        sub = AxiomCheck(
            False,
            witness=(float(g[i]), float(g[j])),
            note=f"f(x+y)={float(lhs[i, j]):.6g} > f(x)+f(y)={float(rhs[i, j]):.6g}",
        )
    else:
        sub = AxiomCheck(True)

    diffs = np.diff(fg)
    bad = np.flatnonzero(diffs < -_SLACK)
    if bad.size:
        i = int(bad[0])
        mono = AxiomCheck(
            False,
            witness=(float(g[i]), float(g[i + 1])),
            note=f"f drops from {float(fg[i]):.6g} to {float(fg[i + 1]):.6g}",
        )
    else:
        mono = AxiomCheck(True)

    eps_tail = 10.0 ** -np.arange(1, 301, dtype=float)
    tail_vals = f(eps_tail)
    ok = bool(np.any(tail_vals <= 1e-6))
    rc = AxiomCheck(
        ok,
        witness=None if ok else (float(eps_tail[-1]), float(tail_vals[-1])),
        note="" if ok else "f(10^-k) stays above 1e-6 down to k=300",
    )

    return ModulusAxiomReport(zero, sub, mono, rc)

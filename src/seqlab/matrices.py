"""Summability matrices and the row transform feeding every membership test.

A row whose support reaches past the truncation is an error, never a silent
partial sum: silent truncation would corrupt membership verdicts downstream.
Single-row sums use math.fsum (exact accumulation); bulk transforms use
cumulative sums, which are deterministic regardless of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SequencePrefix, read_floats, read_lines
from .errors import SpecError, TruncationError


@dataclass(frozen=True)
class SummabilityMatrix:
    """One of: identity, Cesaro (row i averages x_1..x_i), Riesz (weighted
    averages), or an explicit row-major table."""

    kind: str
    weights: np.ndarray | None = None
    entries: dict | None = None  # row -> (col array, coef array), explicit only

    def __post_init__(self):
        if self.kind not in ("identity", "cesaro", "riesz", "explicit"):
            raise SpecError(f"unknown matrix kind {self.kind!r}")
        if self.kind == "riesz":
            w = np.asarray(self.weights, dtype=float)
            if w.ndim != 1 or w.size == 0 or not np.all(np.isfinite(w)) or np.any(w <= 0):
                raise SpecError("riesz weights must be a nonempty list of positive finite reals")
            w = w.copy()
            w.flags.writeable = False
            object.__setattr__(self, "weights", w)
        if self.kind == "explicit" and not self.entries:
            raise SpecError("explicit matrix has no entries")


def make_matrix(spec: str) -> SummabilityMatrix:
    """Build a matrix from a matrix-spec string.

    Forms: ``identity``, ``cesaro``, ``riesz:file=PATH`` (one positive weight
    per line), ``file:PATH`` (CSV with header ``i,k,a``).
    """
    spec = spec.strip()
    if spec == "identity":
        return SummabilityMatrix("identity")
    if spec == "cesaro":
        return SummabilityMatrix("cesaro")
    if spec.startswith("riesz:"):
        body = spec[len("riesz:"):]
        if not body.startswith("file="):
            raise SpecError(f"riesz spec must be riesz:file=PATH, got {spec!r}")
        return SummabilityMatrix("riesz", weights=read_floats(body[len("file="):], "riesz weight"))
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        lines = read_lines(path, "matrix")
        if [t.strip() for t in lines[0].split(",")] != ["i", "k", "a"]:
            raise SpecError(f"matrix file {path} must start with header 'i,k,a'")
        rows: dict[int, list[tuple[int, float]]] = {}
        for ln in lines[1:]:
            try:
                i_str, k_str, a_str = ln.split(",")
                i, k, a = int(i_str), int(k_str), float(a_str)
            except ValueError:
                raise SpecError(f"malformed matrix row {ln!r} in {path}") from None
            if i < 1 or k < 1 or not math.isfinite(a):
                raise SpecError(f"invalid matrix entry {ln!r} in {path}")
            rows.setdefault(i, []).append((k, a))
        entries = {}
        for i, pairs in rows.items():
            pairs.sort()
            cols = np.asarray([k for k, _ in pairs], dtype=np.int64)
            if np.unique(cols).size != cols.size:
                raise SpecError(f"duplicate entry for row {i} in {path}")
            coefs = np.asarray([a for _, a in pairs], dtype=float)
            entries[i] = (cols, coefs)
        return SummabilityMatrix("explicit", entries=entries)
    raise SpecError(f"unknown matrix spec {spec!r}")


def _check_row(matrix: SummabilityMatrix, i: int, n: int) -> None:
    if i < 1:
        raise ValueError(f"row index must be >= 1, got {i}")
    if matrix.kind in ("identity", "cesaro"):
        if i > n:
            raise TruncationError(f"row {i} needs x_{i} past truncation {n}")
    elif matrix.kind == "riesz":
        if i > n:
            raise TruncationError(f"row {i} needs x_{i} past truncation {n}")
        if i > matrix.weights.size:
            raise TruncationError(f"riesz weights cover only {matrix.weights.size} rows, row {i} requested")
    else:
        if i not in matrix.entries:
            raise TruncationError(f"explicit matrix defines no row {i}")
        cols, _ = matrix.entries[i]
        if cols[-1] > n:
            raise TruncationError(f"row {i} needs column {int(cols[-1])} past truncation {n}")


def apply_row(matrix: SummabilityMatrix, x: SequencePrefix, i: int) -> float:
    """The transform value at row i: sum_k a_ik x_k over the row's support."""
    n = len(x)
    i = int(i)
    _check_row(matrix, i, n)
    v = x.values
    if matrix.kind == "identity":
        out = float(v[i - 1])
    elif matrix.kind == "cesaro":
        out = math.fsum(v[:i]) / i
    elif matrix.kind == "riesz":
        w = matrix.weights[:i]
        out = math.fsum(w * v[:i]) / math.fsum(w)
    else:
        cols, coefs = matrix.entries[i]
        out = math.fsum(coefs * v[cols - 1])
    if not math.isfinite(out):
        raise ArithmeticError(f"non-finite accumulation at row {i}")
    return out


def transform_prefix(matrix: SummabilityMatrix, x: SequencePrefix, upto: int) -> SequencePrefix:
    """The prefix (A_1(x), ..., A_upto(x)); label records the matrix kind."""
    upto = int(upto)
    if upto < 1:
        raise ValueError(f"row count must be >= 1, got {upto}")
    label = f"{matrix.kind}:{x.label}" if x.label else matrix.kind
    if matrix.kind == "identity":
        _check_row(matrix, upto, len(x))
        return SequencePrefix(x.values[:upto], label=label)
    if matrix.kind == "cesaro":
        _check_row(matrix, upto, len(x))
        out = np.cumsum(x.values[:upto]) / np.arange(1, upto + 1)
        return SequencePrefix(out, label=label)
    if matrix.kind == "riesz":
        _check_row(matrix, upto, len(x))
        w = matrix.weights[:upto]
        out = np.cumsum(w * x.values[:upto]) / np.cumsum(w)
        return SequencePrefix(out, label=label)
    return SequencePrefix([apply_row(matrix, x, i) for i in range(1, upto + 1)], label=label)


@dataclass(frozen=True)
class RegularityReport:
    """Advisory Silverman-Toeplitz style diagnostics at truncation."""

    upto: int
    sup_abs_row_sum: float
    max_rowsum_dev_tail: float
    row_sums_tail: tuple[float, ...]
    columns: dict  # sampled column k -> (peak |a_ik|, |a_{upto,k}|)
    rows_sum_to_one: bool
    columns_vanish: bool


def _column_profile(matrix: SummabilityMatrix, k: int, upto: int) -> tuple[float, float]:
    if matrix.kind == "identity":
        peak = 1.0 if k <= upto else 0.0
        final = 1.0 if k == upto else 0.0
        return peak, final
    if matrix.kind == "cesaro":
        return (1.0 / k if k <= upto else 0.0), (1.0 / upto if k <= upto else 0.0)
    if matrix.kind == "riesz":
        p = np.cumsum(matrix.weights[:upto])
        if k > upto:
            return 0.0, 0.0
        wk = float(matrix.weights[k - 1])
        return wk / float(p[k - 1]), wk / float(p[-1])
    peak = 0.0
    final = 0.0
    for i in range(1, upto + 1):
        if i not in matrix.entries:
            continue
        cols, coefs = matrix.entries[i]
        pos = np.searchsorted(cols, k)
        if pos < cols.size and cols[pos] == k:
            val = abs(float(coefs[pos]))
            peak = max(peak, val)
            if i == upto:
                final = val
    return peak, final


def regularity_check(matrix: SummabilityMatrix, upto: int) -> RegularityReport:
    """Report sup_i sum_k |a_ik|, the row-sum -> 1 trend, and sampled column decay."""
    upto = int(upto)
    if upto < 1:
        raise ValueError("upto must be >= 1")
    if matrix.kind in ("identity", "cesaro", "riesz"):
        # normalized by construction: each row's coefficients sum to exactly 1
        if matrix.kind == "riesz" and upto > matrix.weights.size:
            raise TruncationError(f"riesz weights cover only {matrix.weights.size} rows")
        abs_sums = np.ones(upto)
        row_sums = np.ones(upto)
    else:
        abs_sums = np.empty(upto)
        row_sums = np.empty(upto)
        for i in range(1, upto + 1):
            if i not in matrix.entries:
                raise TruncationError(f"explicit matrix defines no row {i}")
            _, coefs = matrix.entries[i]
            abs_sums[i - 1] = math.fsum(np.abs(coefs))
            row_sums[i - 1] = math.fsum(coefs)
    w = max(1, math.ceil(upto / 3))
    tail = row_sums[-w:]
    max_dev = float(np.max(np.abs(tail - 1.0)))
    # sample columns well below the truncation so the decay trend is visible
    ks = sorted({1, 2, 4, 8, 16} & set(range(1, max(1, upto // 10) + 1)))
    columns = {k: _column_profile(matrix, k, upto) for k in ks}
    vanish = all(final <= max(0.1 * peak, 1e-12) for peak, final in columns.values())
    return RegularityReport(
        upto=upto,
        sup_abs_row_sum=float(np.max(abs_sums)),
        max_rowsum_dev_tail=max_dev,
        row_sums_tail=tuple(float(v) for v in row_sums[-min(5, upto):]),
        columns=columns,
        rows_sum_to_one=max_dev <= 1e-9,
        columns_vanish=vanish,
    )

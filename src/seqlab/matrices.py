"""Summability matrices and the row transform feeding every membership test.

A row whose support reaches past the truncation is an error, never a silent
partial sum: silent truncation would corrupt membership verdicts downstream.
Each family has one array form: Cesaro is Riesz with unit weights, and an
explicit table is CSR (row i holds entries indptr[i-1]:indptr[i], columns
ascending; an empty row is undefined).  Single rows use math.fsum (exact
accumulation); bulk transforms check every row first, then use cumulative or
per-row array sums, which may differ from math.fsum in the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MAX_INDEX, SequencePrefix, parse_spec, read_lines, read_numbers, read_table
from .errors import SpecError, TruncationError


@dataclass(frozen=True)
class SummabilityMatrix:
    """One of: identity, Cesaro (row i averages x_1..x_i), Riesz (weighted
    averages), or an explicit table in CSR form (``indptr``, integer ``cols``
    >= 1 and finite ``coefs``)."""

    kind: str
    weights: np.ndarray | None = None
    indptr: np.ndarray | None = None
    cols: np.ndarray | None = None
    coefs: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("identity", "cesaro", "riesz", "explicit"):
            raise SpecError(f"unknown matrix kind {self.kind!r}")
        arrays = {}
        if self.kind == "riesz":
            w = arrays["weights"] = np.array(self.weights, dtype=float)
            if w.ndim != 1 or w.size == 0 or not np.all(np.isfinite(w)) or np.any(w <= 0):
                raise SpecError("riesz weights must be a nonempty list of positive finite reals")
        if self.kind == "explicit":
            if self.cols is None or np.size(self.cols) == 0:
                raise SpecError("explicit matrix has no entries")
            ptr = arrays["indptr"] = np.array(self.indptr, dtype=np.int64)
            cols = arrays["cols"] = np.array(self.cols, dtype=np.int64)
            coefs = arrays["coefs"] = np.array(self.coefs, dtype=float)
            if (ptr.ndim != 1 or ptr.size < 2 or ptr[0] != 0 or ptr[-1] != cols.size
                    or np.any(np.diff(ptr) < 0) or cols.ndim != 1 or coefs.shape != cols.shape):
                raise SpecError("explicit matrix needs a CSR indptr rising from 0 to len(cols)")
            if np.any(cols < 1) or not np.all(np.isfinite(coefs)):
                raise SpecError("explicit matrix needs columns >= 1 and finite coefficients")
            rows = np.repeat(np.arange(1, ptr.size), np.diff(ptr))
            bad = np.flatnonzero((rows[1:] == rows[:-1]) & (cols[1:] <= cols[:-1]))
            if bad.size:
                j = int(bad[0])
                raise SpecError(f"duplicate entry for row {rows[j]}" if cols[j] == cols[j + 1]
                                else f"explicit matrix columns must ascend in row {rows[j]}")
        for name, a in arrays.items():  # private copies, read-only
            a.flags.writeable = False
            object.__setattr__(self, name, a)


def _riesz(spec: str, body: str) -> SummabilityMatrix:
    if not body.startswith("file="):
        raise SpecError(f"riesz spec must be riesz:file=PATH, got {spec!r}")
    return SummabilityMatrix("riesz", weights=read_numbers(body[len("file="):], "riesz weight"))


def _table(spec: str, path: str) -> SummabilityMatrix:
    def per_line():
        lines = read_lines(path, "matrix")
        if [t.strip() for t in lines[0].split(",")] != ["i", "k", "a"]:
            raise SpecError(f"matrix file {path} must start with header 'i,k,a'")
        rows, cols, coefs = [], [], []
        for ln in lines[1:]:
            try:
                i_str, k_str, a_str = ln.split(",")
                i, k, a = int(i_str), int(k_str), float(a_str)
            except ValueError:
                raise SpecError(f"malformed matrix row {ln!r} in {path}") from None
            if not (1 <= i < len(lines) and 1 <= k <= MAX_INDEX and math.isfinite(a)):
                raise SpecError(f"invalid matrix entry {ln!r} in {path}")
            rows.append(i)
            cols.append(k)
            coefs.append(a)
        return rows, cols, coefs

    rows, cols, coefs = read_table(path, {"i": np.int64, "k": np.int64, "a": np.float64}, per_line,
                                   lambda i, k, a: 1 <= i.min() and i.max() <= i.size
                                   and k.min() >= 1 and np.isfinite(a).all())
    order = np.lexsort((cols, rows))
    try:
        return SummabilityMatrix("explicit", indptr=np.cumsum(np.bincount(rows)),
                                 cols=np.asarray(cols)[order], coefs=np.asarray(coefs)[order])
    except SpecError as exc:  # every line passed, so: no entries, or a duplicate
        raise SpecError(f"{exc} in {path}") from None


_MATRIX_FORMS = {
    "identity": lambda spec, body: SummabilityMatrix("identity"),
    "cesaro": lambda spec, body: SummabilityMatrix("cesaro"),
    "riesz:": _riesz,
    "file:": _table,
}


def make_matrix(spec: str) -> SummabilityMatrix:
    """Build a matrix from a matrix-spec string.

    Forms: ``identity``, ``cesaro``, ``riesz:file=PATH`` (one positive weight
    per line), ``file:PATH`` (CSV with header ``i,k,a``; rows up to the entry
    count, as a higher row leaves some row empty; columns up to core.MAX_INDEX).
    """
    return parse_spec(spec, "matrix", _MATRIX_FORMS)


def _check_rows(matrix: SummabilityMatrix, first: int, last: int, n: int) -> None:
    """Raise for the first row in first..last that x_1..x_n cannot feed."""
    if first < 1:
        raise ValueError(f"row index must be >= 1, got {first}")
    if matrix.kind != "explicit":
        # both limits grow with the row, so row `last` fails whenever any row does
        if last > n:
            raise TruncationError(f"row {last} needs x_{last} past truncation {n}")
        if matrix.kind == "riesz" and last > matrix.weights.size:
            raise TruncationError(f"riesz weights cover only {matrix.weights.size} rows, row {last} requested")
        return
    ptr, cols = matrix.indptr, matrix.cols
    top = min(last, ptr.size - 1)  # rows past it are undefined
    # an empty row is undefined; a row's last column is its largest
    ends = ptr[first:top + 1]
    bad = np.flatnonzero((ends == ptr[first - 1:top]) | (cols[ends - 1] > n))
    i = first + int(bad[0]) if bad.size else max(first, top + 1)
    if i <= last:
        if i > top or ptr[i] == ptr[i - 1]:
            raise TruncationError(f"explicit matrix defines no row {i}")
        raise TruncationError(f"row {i} needs column {int(cols[ptr[i] - 1])} past truncation {n}")


def _weights(matrix: SummabilityMatrix, upto: int) -> tuple[np.ndarray, np.ndarray]:
    """(w_1..w_upto, running sums P_i) of a weighted mean; Cesaro has w = 1, so P_i = i exactly."""
    if matrix.kind == "cesaro":
        return np.ones(upto), np.arange(1.0, upto + 1)
    return matrix.weights[:upto], np.cumsum(matrix.weights[:upto])


def apply_row(matrix: SummabilityMatrix, x: SequencePrefix, i: int) -> float:
    """The transform value at row i: sum_k a_ik x_k over the row's support."""
    i = int(i)
    _check_rows(matrix, i, i, len(x))
    if matrix.kind == "identity":
        out = float(x.values[i - 1])
    elif matrix.kind == "explicit":
        row = slice(matrix.indptr[i - 1], matrix.indptr[i])
        out = math.fsum(matrix.coefs[row] * x.values[matrix.cols[row] - 1])
    else:
        w = _weights(matrix, i)[0]
        out = math.fsum(w * x.values[:i]) / math.fsum(w)
    if not math.isfinite(out):
        raise ArithmeticError(f"non-finite accumulation at row {i}")
    return out


def transform_prefix(matrix: SummabilityMatrix, x: SequencePrefix, upto: int) -> np.ndarray:
    """The read-only array (A_1(x), ..., A_upto(x)); for the identity, a view of ``x.values``."""
    upto = int(upto)
    if upto < 1:
        raise ValueError(f"row count must be >= 1, got {upto}")
    _check_rows(matrix, 1, upto, len(x))
    if matrix.kind == "identity":
        return x.values[:upto]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite row raises below
        if matrix.kind == "explicit":
            end = matrix.indptr[upto]
            out = np.add.reduceat(matrix.coefs[:end] * x.values[matrix.cols[:end] - 1], matrix.indptr[:upto])
        else:
            w, p = _weights(matrix, upto)
            out = np.cumsum(w * x.values[:upto]) / p
    if not np.all(np.isfinite(out)):
        raise ArithmeticError(f"non-finite accumulation at row {int(np.argmin(np.isfinite(out))) + 1}")
    out.flags.writeable = False
    return out


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


def regularity_check(matrix: SummabilityMatrix, upto: int) -> RegularityReport:
    """Report sup_i sum_k |a_ik|, the row-sum -> 1 trend, and sampled column decay."""
    upto = int(upto)
    if upto < 1:
        raise ValueError("upto must be >= 1")
    # sample columns well below the truncation so the decay trend is visible
    ks = [k for k in (1, 2, 4, 8, 16) if k <= max(1, upto // 10)]
    if matrix.kind == "explicit":
        _check_rows(matrix, 1, upto, MAX_INDEX)
        starts, end = matrix.indptr[:upto], matrix.indptr[upto]
        cols, coefs = matrix.cols[:end], matrix.coefs[:end]
        row_sums, abs_sums = np.add.reduceat(np.stack([coefs, np.abs(coefs)]), starts, axis=1)
        on_last = np.arange(end) >= starts[-1]
        columns = {k: (float(np.max(np.abs(coefs[cols == k]), initial=0.0)),
                       float(np.max(np.abs(coefs[(cols == k) & on_last]), initial=0.0))) for k in ks}
    else:
        if matrix.kind == "riesz" and upto > matrix.weights.size:
            raise TruncationError(f"riesz weights cover only {matrix.weights.size} rows")
        # normalized by construction: each row's coefficients sum to exactly 1
        abs_sums = row_sums = np.ones(upto)
        if matrix.kind == "identity":
            columns = {k: (1.0, float(k == upto)) for k in ks}
        else:  # a_ik = w_k / P_i with P_i = w_1 + ... + w_i
            wts, p = _weights(matrix, upto)
            columns = {k: (float(wts[k - 1] / p[k - 1]), float(wts[k - 1] / p[-1])) for k in ks}
    w = max(1, math.ceil(upto / 3))
    max_dev = float(np.max(np.abs(row_sums[-w:] - 1.0)))
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

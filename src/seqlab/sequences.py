"""Sequence generators and the seq-spec / CSV ingestion used by the CLI."""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .core import IndexSet, SequencePrefix, make_index_set, parse_kv
from .errors import SpecError, TruncationError


def const_sequence(n: int, c: float) -> SequencePrefix:
    return SequencePrefix(np.full(int(n), float(c)), label=f"const:{c:g}")


def spike_sequence(n: int, positions: IndexSet, base: float = 0.0,
                   delta: float = 1.0) -> SequencePrefix:
    """x_i = base + delta at the given positions, base elsewhere."""
    n = int(n)
    values = np.full(n, float(base))
    members = positions.members_upto(n)
    values[members - 1] = base + delta
    return SequencePrefix(values, label=f"spike({positions.name};base={base:g},delta={delta:g})")


def alternating_sequence(n: int, first: float = 1.0, second: float = 0.0) -> SequencePrefix:
    """first, second, first, second, ... starting at index 1."""
    values = np.empty(int(n))
    values[0::2] = first
    values[1::2] = second
    return SequencePrefix(values, label=f"alt:{first:g},{second:g}")


def harmonic_sequence(n: int, level: float = 0.0) -> SequencePrefix:
    """x_i = level + 1/i."""
    values = level + 1.0 / np.arange(1, int(n) + 1, dtype=float)
    return SequencePrefix(values, label=f"harmonic:{level:g}")


def read_sequence_csv(path) -> SequencePrefix:
    """Ingest a CSV with header ``i,value``: 1-indexed, gaps forbidden."""
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(f"cannot read sequence file {path}: {exc}") from None
    rows = [row for row in rows if row and any(cell.strip() for cell in row)]
    if not rows or [c.strip().lower() for c in rows[0]] != ["i", "value"]:
        raise SpecError(f"sequence file {path} must start with header 'i,value'")
    if len(rows) == 1:
        raise SpecError(f"sequence file {path} has no data rows")
    values = []
    for pos, row in enumerate(rows[1:], start=1):
        try:
            i, v = int(row[0]), float(row[1])
        except (ValueError, IndexError):
            raise SpecError(f"malformed row {row!r} in {path}") from None
        if i != pos:
            raise SpecError(f"sequence file {path} has a gap: expected index {pos}, got {i}")
        if not math.isfinite(v):
            raise SpecError(f"non-finite value at index {i} in {path}")
        values.append(v)
    return SequencePrefix(np.asarray(values), label=f"file:{path}")


def make_sequence(spec: str, n: int | None = None) -> SequencePrefix:
    """Build a SequencePrefix from a seq-spec string.

    Forms: ``const:c``, ``spike:set=SETSPEC,base=b,delta=d``, ``alt`` or
    ``alt:a,b``, ``harmonic:L``, ``list:v1,v2,...``, ``file:PATH`` (CSV with
    header ``i,value``).  ``n`` sets the generated length; for list/file data
    it may truncate but not extend.
    """
    spec = spec.strip()
    if spec.startswith("const:"):
        if n is None:
            raise SpecError("const sequence needs a truncation length")
        try:
            return const_sequence(n, float(spec[len("const:"):]))
        except ValueError:
            raise SpecError(f"malformed const spec {spec!r}") from None
    if spec.startswith("spike:"):
        if n is None:
            raise SpecError("spike sequence needs a truncation length")
        parts = parse_kv(spec[len("spike:"):], "spike")
        if "set" not in parts:
            raise SpecError(f"spike spec needs set=, got {spec!r}")
        positions = make_index_set(parts["set"])
        try:
            base = float(parts.get("base", "0"))
            delta = float(parts.get("delta", "1"))
        except ValueError:
            raise SpecError(f"malformed spike spec {spec!r}") from None
        return spike_sequence(n, positions, base, delta)
    if spec == "alt" or spec.startswith("alt:"):
        if n is None:
            raise SpecError("alternating sequence needs a truncation length")
        if spec == "alt":
            return alternating_sequence(n)
        try:
            a_str, b_str = spec[len("alt:"):].split(",")
            return alternating_sequence(n, float(a_str), float(b_str))
        except ValueError:
            raise SpecError(f"malformed alt spec {spec!r}") from None
    if spec.startswith("harmonic:"):
        if n is None:
            raise SpecError("harmonic sequence needs a truncation length")
        try:
            return harmonic_sequence(n, float(spec[len("harmonic:"):]))
        except ValueError:
            raise SpecError(f"malformed harmonic spec {spec!r}") from None
    if spec.startswith("list:"):
        body = spec[len("list:"):]
        try:
            values = [float(tok) for tok in body.split(",") if tok.strip()]
        except ValueError:
            raise SpecError(f"malformed list spec {spec!r}") from None
        if not values:
            raise SpecError(f"empty list spec {spec!r}")
        seq = SequencePrefix(np.asarray(values), label=spec)
        return _fit_length(seq, n)
    if spec.startswith("file:"):
        seq = read_sequence_csv(spec[len("file:"):])
        return _fit_length(seq, n)
    raise SpecError(f"unknown sequence spec {spec!r}")


def _fit_length(seq: SequencePrefix, n: int | None) -> SequencePrefix:
    if n is None or n == len(seq):
        return seq
    if n > len(seq):
        raise TruncationError(f"sequence {seq.label!r} has {len(seq)} values, {n} requested")
    return seq.prefix(n)

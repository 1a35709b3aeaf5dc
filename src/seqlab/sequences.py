"""Sequence generators and the seq-spec / CSV ingestion used by the CLI."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .core import (MATERIALIZE_CAP, IndexSet, SequencePrefix, make_index_set, parse_kv, parse_spec,
                   read_table, spec_items, spec_number)
from .errors import SpecError


def const_sequence(n: int, c: float) -> SequencePrefix:
    return SequencePrefix._adopt(np.full(int(n), float(c)), f"const:{c:g}")


def spike_sequence(n: int, positions: IndexSet, base: float = 0.0,
                   delta: float = 1.0) -> SequencePrefix:
    """x_i = base + delta at the given positions, base elsewhere."""
    n = int(n)
    values = np.full(n, float(base))
    members = positions.members_upto(n)
    values[members - 1] = base + delta
    return SequencePrefix._adopt(values, f"spike({positions.name};base={base:g},delta={delta:g})")


def alternating_sequence(n: int, first: float = 1.0, second: float = 0.0) -> SequencePrefix:
    """first, second, first, second, ... starting at index 1."""
    values = np.empty(int(n))
    values[0::2] = first
    values[1::2] = second
    return SequencePrefix._adopt(values, f"alt:{first:g},{second:g}")


def harmonic_sequence(n: int, level: float = 0.0) -> SequencePrefix:
    """x_i = level + 1/i, made in place in one array."""
    values = np.arange(1.0, int(n) + 1)
    np.divide(1.0, values, out=values)
    values += level
    return SequencePrefix._adopt(values, f"harmonic:{level:g}")


def read_sequence_csv(path) -> SequencePrefix:
    """Ingest a CSV with header ``i,value``: 1-indexed, gaps forbidden."""
    path = Path(path)

    def per_line():
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
            values.append(v)
        return None, values

    _, values = read_table(path, {"i": np.int64, "value": np.float64}, per_line,
                           lambda i, v: np.array_equal(i, np.arange(1, i.size + 1)))
    return SequencePrefix(values, label=f"file:{path}")


def _spike(spec: str, body: str, n: int) -> SequencePrefix:
    parts = parse_kv(body, "spike")
    if "set" not in parts:
        raise SpecError(f"spike spec needs set=, got {spec!r}")
    return spike_sequence(n, make_index_set(parts["set"]), spec_number(spec, "base", parts.get("base", "0")),
                          spec_number(spec, "delta", parts.get("delta", "1")))


def _generated(build):
    """The builder of a sequence generated to length n, which it needs."""
    def generate(spec: str, body: str, n: int | None) -> SequencePrefix:
        if n is None:
            raise SpecError(f"sequence spec {spec!r} needs a truncation length n")
        return build(spec, body, n)
    return generate


# data of its own length, which n may truncate but not extend
_DATA_FORMS = {
    "list:": lambda spec, body, n: _fit_length(SequencePrefix(np.asarray(spec_items(spec, body, "value")),
                                                              label=spec), n),
    "file:": lambda spec, path, n: _fit_length(read_sequence_csv(path), n),
}
_SEQUENCE_FORMS = {
    "const:": _generated(lambda spec, body, n: const_sequence(n, spec_number(spec, "c", body))),
    "spike:": _generated(_spike),
    "alt": _generated(lambda spec, body, n: alternating_sequence(n)),
    "alt:": _generated(lambda spec, body, n: alternating_sequence(
        n, *(spec_number(spec, name, tok) for name, tok in zip("ab", body.partition(",")[::2])))),
    "harmonic:": _generated(lambda spec, body, n: harmonic_sequence(n, spec_number(spec, "L", body))),
    **_DATA_FORMS,
}


def make_sequence(spec: str, n: int | None = None) -> SequencePrefix:
    """Build a SequencePrefix from a seq-spec string.

    Forms: ``const:c``, ``spike:set=SETSPEC,base=b,delta=d``, ``alt`` or
    ``alt:a,b``, ``harmonic:L``, ``list:v1,v2,...``, ``file:PATH`` (CSV with
    header ``i,value``).  ``n``, if set, is 1..core.MATERIALIZE_CAP: it sets
    the generated length, and for list/file data it may truncate but not extend.
    """
    return parse_spec(spec, "sequence", _SEQUENCE_FORMS,
                      n if n is None else spec_number(spec, "n", n, int, 1, MATERIALIZE_CAP))


def is_generated(spec: str) -> bool:
    """Whether ``spec`` generates its sequence to a length n, where list and file data have their own."""
    head, colon, _ = spec.strip().partition(":")
    return head + colon not in _DATA_FORMS


def _fit_length(seq: SequencePrefix, n: int | None) -> SequencePrefix:
    return seq if n is None else seq.prefix(n)

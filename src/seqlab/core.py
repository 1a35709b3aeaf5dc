"""Truncated sequences, index sets, and lacunary block schemes.

Everything is 1-indexed: a prefix holds x_1..x_N and an index set is a subset
of {1, 2, 3, ...}. Objects are immutable once built and safe to share across
threads.  Spec files are parsed one at a time under a lock, and a warning that
another thread raises meanwhile is captured rather than shown.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .errors import SpecError, TruncationError

# Upper bound on how far a rule-backed set will enumerate.
MATERIALIZE_CAP = 50_000_000
# Largest truncation point that int64 counting holds.
MAX_INDEX = 2 ** 63 - 1


def check_tol(tol: float) -> None:
    """Reject a tolerance that is not positive and finite (NaN included)."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")


def read_lines(path: str | Path, what: str) -> list[str]:
    """The stripped nonblank lines of a spec file holding ``what`` values.

    An unreadable (or not UTF-8) or empty file is a SpecError naming the file.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(f"cannot read {what} file {path}: {exc}") from None
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise SpecError(f"empty {what} file {path}")
    return lines


# The ASCII line breaks of str.splitlines that numpy's reader takes for spaces.
_SPLITLINES_ONLY = b"\x0b\x0c\x1c\x1d\x1e"
# Held while numpy parses, for warnings are caught process-wide.
_PARSE_LOCK = threading.Lock()


def _loadable(path: str | Path, columns: dict) -> str | None:
    """``path`` made absolute, if numpy's loader opens it as itself (a regular
    file, no URL or compression suffix: else numpy fetches it, decompresses it
    or reads a compressed sibling) and, for several columns, the file is ASCII,
    starts with a header line naming them and holds no line break that splits
    a row for str.splitlines but not for numpy.  (In one column such a break
    splits a token, which numpy rejects, or sits at its edge, where both
    readers drop it.)"""
    path = os.path.abspath(path)
    if not os.path.isfile(path) or path.endswith((".gz", ".bz2", ".xz", ".lzma")):
        return None
    if len(columns) == 1:
        return path
    data = Path(path).read_bytes()
    head = ",".join(columns).encode()
    return path if (data.startswith((head + b"\n", head + b"\r\n")) and data.isascii()
                    and not any(brk in data for brk in _SPLITLINES_ONLY)) else None


def read_table(path: str | Path, columns: dict, per_line: Callable[[], tuple],
               valid: Callable[..., bool] = lambda *cols: True) -> tuple:
    """The columns of a comma-separated numeric spec file, by numpy's C parser.

    ``columns`` maps names to dtypes; a file of several starts with a header
    line naming them.  Unless the whole file parses into exactly those
    columns, with no error or warning, and ``valid`` accepts them, this is
    ``per_line()``: the line-by-line reader, which words every error.  The C
    parser takes a subset of what int() and float() take, to the same values.
    """
    try:
        file = _loadable(path, columns)
        if file:
            with _PARSE_LOCK, warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                table = np.loadtxt(file, dtype=list(columns.items()), delimiter=",", comments=None,
                                   quotechar=None, encoding="utf-8", ndmin=1, skiprows=int(len(columns) > 1))
            cols = tuple(table[name] for name in columns)
            if not caught and valid(*cols):
                return cols
    except (OSError, ValueError, ArithmeticError):
        pass
    return per_line()


def read_numbers(path: str | Path, what: str, kind: type = float) -> np.ndarray:
    """A spec file of one number of ``kind`` (float or int) per line, as an
    array; a line ``kind`` rejects, or an int past int64, is a SpecError."""

    def per_line():
        lines = read_lines(path, what)
        try:
            values = [kind(ln) for ln in lines]
        except ValueError:
            raise SpecError(f"non-{'numeric' if kind is float else 'integer'} {what} value"
                            f" in {path}") from None
        if kind is int and any(abs(v) > MAX_INDEX for v in values):
            raise SpecError(f"{what} value in {path} lies outside [-(2^63 - 1), 2^63 - 1]")
        return values,

    return np.asarray(read_table(path, {"value": np.float64 if kind is float else np.int64}, per_line)[0])


def parse_kv(body: str, what: str) -> dict[str, str]:
    """Split ``key=value,key=value`` into a dict.

    A comma token without ``=`` continues the previous value, so nested
    specs such as ``set=arith:3,5`` keep their commas.
    """
    parts: dict[str, str] = {}
    current = None
    for tok in body.split(","):
        if "=" in tok:
            key, val = tok.split("=", 1)
            parts[key.strip()] = val
            current = key.strip()
        elif current is not None:
            parts[current] += "," + tok
        else:
            raise SpecError(f"malformed {what} spec {body!r}")
    return parts


def parse_spec(spec: str, what: str, forms: dict, *context):
    """The one grammar of every spec family: ``head:body`` goes to the builder
    ``forms["head:"]`` and a bare ``head`` to ``forms["head"]``, called as
    ``build(spec, body, *context)`` with the stripped spec, which labels what it builds."""
    spec = spec.strip()
    head, colon, body = spec.partition(":")
    if head + colon not in forms:
        raise SpecError(f"unknown {what} spec {spec!r}")
    return forms[head + colon](spec, body, *context)


def spec_number(spec: str, name: str, token, kind: type = float, lo: float = -math.inf,
                hi: float = math.inf, open_lo: bool = False, why: str = ""):
    """Field ``name`` of ``spec``: ``token`` as a finite float or an int in
    [lo, hi], or (lo, hi] when ``open_lo``; an int's range ends at MAX_INDEX
    or below.  Anything else is one SpecError naming the field, the range
    (and ``why`` it holds), the token and the spec."""
    hi = min(hi, MAX_INDEX) if kind is int else hi
    try:
        v = kind(token)
        ok = (kind is int or math.isfinite(v)) and (lo < v or v == lo and not open_lo) and v <= hi
    except (TypeError, ValueError, OverflowError):
        ok = False
    if ok:
        return v
    top = "2^63 - 1]" if hi == MAX_INDEX else f"{hi:.15g}{']' if hi < math.inf else ')'}"
    rng = "" if lo == -math.inf else f" in {'(' if open_lo else '['}{lo:.15g}, {top}"
    kind_name = "an integer" if kind is int else "a finite number"
    raise SpecError(f"{name} must be {kind_name}{rng}{why and ' for ' + why}, got {token!r} in spec {spec!r}")


def spec_items(spec: str, body: str, name: str, kind: type = float, lo: float = -math.inf) -> list:
    """The nonblank comma-separated items of a list body, each read as the
    field ``name``; there must be one."""
    items = [spec_number(spec, name, tok, kind, lo) for tok in body.split(",") if tok.strip()]
    if not items:
        raise SpecError(f"no {name} in spec {spec!r}")
    return items


class IndexSet:
    """A set of positive integers with fast prefix counting |A(n)|.

    Backed either by an explicit sorted member array or by an enumeration rule
    listing all members <= n, and always by ``count_rule``, an exact
    vectorized |A(n)| for an int64 array of n >= 0: O(1) per truncation point
    for a rule set, a binary search for an explicit one, and never capped.
    """

    __slots__ = ("name", "_rule", "_explicit", "_count")

    def __init__(self, name: str, rule: Callable[[int], np.ndarray],
                 count_rule: Callable[[np.ndarray], np.ndarray], explicit: bool = False):
        self.name = name
        self._rule = rule
        self._explicit = explicit
        self._count = count_rule

    @classmethod
    def from_members(cls, name: str, members: Iterable[int]) -> "IndexSet":
        """An explicit set holding ``members`` (any iterable of integers >= 1).

        Sorted-input contract: a strictly increasing input, such as the
        output of ``np.flatnonzero``, is kept in its given order after one
        O(n) comparison; any other input (unsorted, duplicated) is sorted and
        deduplicated by comparing neighbours.  An ndarray is never turned
        into a Python list.  Either way the set owns a read-only copy, so
        later changes to the caller's array do not reach it.
        """
        if not isinstance(members, np.ndarray):
            members = list(members)
        arr = np.array(members, dtype=np.int64).reshape(-1)
        if arr.size > 1 and not np.all(arr[1:] > arr[:-1]):
            arr.sort()
            arr = arr[np.append(True, arr[1:] != arr[:-1])]  # distinct: np.unique would import numpy.ma
        if arr.size and arr[0] < 1:
            raise SpecError(f"index set {name!r} contains indices < 1")
        arr.flags.writeable = False

        return cls(name, lambda n: arr[: int(np.searchsorted(arr, n, side="right"))],
                   lambda ns: np.searchsorted(arr, ns, side="right"), explicit=True)

    def members_upto(self, n: int) -> np.ndarray:
        """All members <= n, sorted ascending."""
        n = int(n)
        if n < 0:
            raise ValueError(f"negative truncation {n}")
        if self._explicit:
            return self._rule(n)
        if n > MATERIALIZE_CAP:
            raise TruncationError(f"cannot materialize {self.name!r} past {MATERIALIZE_CAP}")
        return np.asarray(self._rule(n), dtype=np.int64)

    def counts(self, ns) -> np.ndarray:
        """Vectorized |A(n)| for an array of truncation points."""
        ns = np.asarray(ns, dtype=np.int64)
        return np.asarray(self._count(np.maximum(ns, 0)), dtype=np.int64)

    def __repr__(self) -> str:
        return f"IndexSet({self.name!r})"


def _isqrt(ns: np.ndarray) -> np.ndarray:
    """Exact floor(sqrt(n)) for an int64 array of n >= 0, up to 2^63 - 1.

    The float root is off by at most one either way.  The two corrections
    compare r against n // r rather than r*r against n, so no product can
    overflow int64.
    """
    r = np.sqrt(ns.astype(np.float64)).astype(np.int64)
    r -= r > ns // np.maximum(r, 1)
    r += r + 1 <= ns // (r + 1)
    return r


def _arith(spec: str, body: str) -> IndexSet:
    a, d = (spec_number(spec, name, tok, int, 1) for name, tok in zip("ad", body.partition(",")[::2]))
    return IndexSet(spec, lambda n: np.arange(a, n + 1, d, dtype=np.int64),
                    count_rule=lambda ns: np.maximum(0, (ns - a) // d + 1))


_SET_FORMS = {
    "evens": lambda spec, body: IndexSet("evens", lambda n: np.arange(2, n + 1, 2, dtype=np.int64),
                                         count_rule=lambda ns: ns // 2),
    # ns - ns // 2 is (ns + 1) // 2 without overflow at 2^63 - 1
    "odds": lambda spec, body: IndexSet("odds", lambda n: np.arange(1, n + 1, 2, dtype=np.int64),
                                        count_rule=lambda ns: ns - ns // 2),
    "squares": lambda spec, body: IndexSet(
        "squares", lambda n: np.arange(1, math.isqrt(max(n, 0)) + 1, dtype=np.int64) ** 2, count_rule=_isqrt),
    "arith:": _arith,
    "list:": lambda spec, body: IndexSet.from_members(spec, spec_items(spec, body, "index", int, 1)),
    "file:": lambda spec, path: IndexSet.from_members(spec, read_numbers(path, "index", int)),
}


def make_index_set(spec: str) -> IndexSet:
    """Build an IndexSet from a set-spec string.

    Forms: ``evens``, ``odds``, ``squares``, ``arith:a,d``, ``list:1,4,9``,
    ``file:PATH`` (one index per line, ASCII decimal).
    """
    return parse_spec(spec, "set", _SET_FORMS)


@dataclass(frozen=True)
class LacunaryScheme:
    """Cut points k_0 = 0 < k_1 < ... < k_R with blocks J_r = (k_{r-1}, k_r].

    Derived per block: length h_r = k_r - k_{r-1}, and for r >= 2 the ratio
    phi_r = k_r / k_{r-1}.  The blocks partition (0, k_R].
    """

    cuts: tuple[int, ...]

    def __post_init__(self):
        if len(self.cuts) < 2:
            raise SpecError("a lacunary scheme needs at least one block")
        if self.cuts[0] != 0:
            raise SpecError(f"first cut must be 0, got {self.cuts[0]}")
        diffs = np.diff(np.asarray(self.cuts, dtype=np.int64))
        if np.any(diffs <= 0):
            raise SpecError(f"cuts must be strictly increasing, got {self.cuts}")

    @cached_property
    def cuts_array(self) -> np.ndarray:
        arr = np.asarray(self.cuts, dtype=np.int64)
        arr.flags.writeable = False
        return arr

    @cached_property
    def h(self) -> np.ndarray:
        arr = np.diff(self.cuts_array)
        arr.flags.writeable = False
        return arr

    @property
    def blocks(self) -> int:
        return len(self.cuts) - 1

    @property
    def k_max(self) -> int:
        return self.cuts[-1]

    def block(self, r: int) -> tuple[int, int]:
        """The half-open integer interval (lo, hi] of block r (1-indexed)."""
        if not 1 <= r <= self.blocks:
            raise ValueError(f"block {r} out of range 1..{self.blocks}")
        return self.cuts[r - 1], self.cuts[r]


def _block_count(spec: str, blocks, hi: float = math.inf) -> int:
    """``blocks`` in [1, hi], the count a theta generated block by block needs."""
    if blocks is None:
        raise SpecError(f"theta spec {spec!r} needs --blocks, its block count")
    return spec_number(spec, "blocks", blocks, int, 1, hi)


def _geometric(spec: str, body: str, blocks) -> LacunaryScheme:
    q = spec_number(spec, "q", body, lo=1.0, hi=1e18, open_lo=True)
    cuts = [0]
    for r in range(1, _block_count(spec, blocks) + 1):
        cuts.append(max(cuts[-1] + 1, math.ceil(q ** r)))
        if cuts[-1] > MAX_INDEX:  # refused as a field past the last block that fits
            spec_number(spec, "blocks", blocks, int, 1, r - 1)
    return LacunaryScheme(tuple(cuts))


def _given_cuts(spec: str, cuts, blocks) -> LacunaryScheme:
    """Listed cuts (a leading 0 optional) as a scheme of ``blocks`` blocks, or all."""
    cuts = [0] * (int(cuts[0]) != 0) + [int(c) for c in cuts]
    last = len(cuts) - 1 if blocks is None else spec_number(spec, "blocks", blocks, int, 1, len(cuts) - 1)
    return LacunaryScheme(tuple(cuts[: last + 1]))


_THETA_FORMS = {
    "powers2": lambda spec, body, blocks: LacunaryScheme(
        (0,) + tuple(2 ** r for r in range(1, _block_count(spec, blocks, 62) + 1))),
    "geometric:": _geometric,
    "explicit:": lambda spec, body, blocks: _given_cuts(spec, spec_items(spec, body, "cut", int, 0), blocks),
    "file:": lambda spec, path, blocks: _given_cuts(spec, read_numbers(path, "theta", int), blocks),
}


def make_lacunary(spec: str, blocks: int | None = None) -> LacunaryScheme:
    """Build a LacunaryScheme from a theta-spec string.

    Forms: ``powers2`` (k_r = 2^r), ``geometric:q`` with q > 1
    (k_r = max(k_{r-1}+1, ceil(q^r)), so small q still yields a valid scheme),
    ``explicit:k1,k2,...``, ``file:PATH`` (one cut per line).  ``blocks`` is
    required for the generative forms, whose cuts must stay within MAX_INDEX,
    and optionally truncates explicit ones.
    """
    return parse_spec(spec, "theta", _THETA_FORMS, blocks)


@dataclass(frozen=True)
class SequencePrefix:
    """The first N terms of a real sequence (x_1..x_N) plus a provenance label,
    held as a read-only float64 copy of the values given."""

    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        self._hold(np.array(self.values, dtype=float))

    @classmethod
    def _adopt(cls, values: np.ndarray, label: str) -> "SequencePrefix":
        """A prefix over the float64 array ``values`` itself, uncopied: one its
        maker has just built and no longer writes, or a view of a prefix."""
        x = object.__new__(cls)
        object.__setattr__(x, "label", label)
        x._hold(values)
        return x

    def _hold(self, arr: np.ndarray) -> None:
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("a sequence prefix needs at least one value")
        # a NaN makes min and max NaN and an infinity one of them infinite, with no mask made
        if not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
            raise ValueError(f"sequence {self.label!r} contains non-finite values")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)

    def prefix(self, n: int) -> "SequencePrefix":
        """The first ``n`` terms, as a view of this prefix's read-only values."""
        if not 1 <= n <= len(self):
            raise TruncationError(f"prefix length {n} of {self.label!r} outside 1..{len(self)}")
        return SequencePrefix._adopt(self.values[:n], self.label)

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


def read_numbers(path: str | Path, what: str, error: str, kind: type = float):
    """The numbers of a spec file of one ``kind`` (float or int) per line, as
    an array or, line by line, a list; a line ``kind`` rejects is ``error``."""

    def per_line():
        lines = read_lines(path, what)
        try:
            return [kind(ln) for ln in lines],
        except ValueError:
            raise SpecError(error) from None

    return read_table(path, {"value": np.float64 if kind is float else np.int64}, per_line)[0]


def read_floats(path: str | Path, what: str) -> np.ndarray:
    """A spec file of one real number per line, as a float array."""
    return np.asarray(read_numbers(path, what, f"non-numeric {what} value in {path}"))


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


class IndexSet:
    """A set of positive integers with fast prefix counting |A(n)|.

    Backed either by an explicit sorted member array or by an enumeration rule
    listing all members <= n.  A rule set may also carry ``count_rule``, an
    exact vectorized |A(n)| for an int64 array of n >= 0; counts then cost
    O(1) per truncation point and are not capped.  Without one, count(n) is a
    binary search into the enumerated members, which agrees with direct
    enumeration by construction.
    """

    __slots__ = ("name", "_rule", "_explicit", "_count")

    def __init__(self, name: str, rule: Callable[[int], np.ndarray], explicit: bool = False,
                 count_rule: Callable[[np.ndarray], np.ndarray] | None = None):
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
        deduplicated with ``np.unique``.  An ndarray is never turned into a
        Python list.  Either way the set owns a read-only copy, so later
        changes to the caller's array do not reach it.
        """
        if not isinstance(members, np.ndarray):
            members = list(members)
        arr = np.array(members, dtype=np.int64).reshape(-1)
        if arr.size > 1 and not np.all(arr[1:] > arr[:-1]):
            arr = np.unique(arr)
        if arr.size and arr[0] < 1:
            raise SpecError(f"index set {name!r} contains indices < 1")
        arr.flags.writeable = False

        def rule(n: int, _arr: np.ndarray = arr) -> np.ndarray:
            return _arr[: int(np.searchsorted(_arr, n, side="right"))]

        return cls(name, rule, explicit=True)

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
        if ns.size == 0:
            return np.empty(0, dtype=np.int64)
        if self._count is not None:
            return np.asarray(self._count(np.maximum(ns, 0)), dtype=np.int64)
        members = self.members_upto(int(ns.max()))
        return np.searchsorted(members, ns, side="right").astype(np.int64)

    def count(self, n: int) -> int:
        return int(self.counts(np.asarray([n]))[0])

    def complement_count(self, n: int) -> int:
        return int(n) - self.count(n)

    def contains(self, i: int) -> bool:
        before, upto = self.counts(np.asarray([int(i) - 1, int(i)]))
        return bool(upto - before == 1)

    def __repr__(self) -> str:
        return f"IndexSet({self.name!r})"


def complement(a: IndexSet) -> IndexSet:
    """The complement of ``a`` within the positive integers."""

    def rule(n: int) -> np.ndarray:
        full = np.arange(1, n + 1, dtype=np.int64)
        return np.setdiff1d(full, a.members_upto(n), assume_unique=True)

    return IndexSet(f"complement({a.name})", rule, count_rule=lambda ns: ns - a.counts(ns))


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


def make_index_set(spec: str) -> IndexSet:
    """Build an IndexSet from a set-spec string.

    Forms: ``evens``, ``odds``, ``squares``, ``arith:a,d``, ``list:1,4,9``,
    ``file:PATH`` (one index per line, ASCII decimal).
    """
    spec = spec.strip()
    if spec == "evens":
        return IndexSet("evens", lambda n: np.arange(2, n + 1, 2, dtype=np.int64),
                        count_rule=lambda ns: ns // 2)
    if spec == "odds":
        # ns - ns // 2 is (ns + 1) // 2 without overflow at 2^63 - 1
        return IndexSet("odds", lambda n: np.arange(1, n + 1, 2, dtype=np.int64),
                        count_rule=lambda ns: ns - ns // 2)
    if spec == "squares":
        return IndexSet(
            "squares",
            lambda n: np.arange(1, math.isqrt(max(n, 0)) + 1, dtype=np.int64) ** 2,
            count_rule=_isqrt,
        )
    if spec.startswith("arith:"):
        body = spec[len("arith:"):]
        try:
            a_str, d_str = body.split(",")
            a, d = int(a_str), int(d_str)
        except ValueError:
            raise SpecError(f"malformed arith spec {spec!r}: expected arith:a,d") from None
        if not (1 <= a <= MAX_INDEX and 1 <= d <= MAX_INDEX):
            raise SpecError(f"arith spec {spec!r} needs 1 <= a, d <= 2^63 - 1")
        return IndexSet(spec, lambda n, _a=a, _d=d: np.arange(_a, n + 1, _d, dtype=np.int64),
                        count_rule=lambda ns, _a=a, _d=d: np.maximum(0, (ns - _a) // _d + 1))
    if spec.startswith("list:"):
        body = spec[len("list:"):]
        try:
            items = [int(tok) for tok in body.split(",") if tok.strip()]
        except ValueError:
            raise SpecError(f"malformed list spec {spec!r}") from None
        if not items:
            raise SpecError(f"empty list spec {spec!r}")
        return IndexSet.from_members(spec, items)
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        return IndexSet.from_members(spec, read_numbers(path, "index",
                                                        f"non-integer entry in index file {path}", int))
    raise SpecError(f"unknown set spec {spec!r}")


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

    @cached_property
    def ratios(self) -> np.ndarray:
        """phi_r = k_r / k_{r-1} for r = 2..R."""
        arr = self.cuts_array[2:] / self.cuts_array[1:-1]
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

    def block_indices(self, r: int) -> np.ndarray:
        lo, hi = self.block(r)
        return np.arange(lo + 1, hi + 1, dtype=np.int64)


def block_of(scheme: LacunaryScheme, i: int) -> int:
    """Return the unique r with i in J_r = (k_{r-1}, k_r]."""
    i = int(i)
    if not 0 < i <= scheme.k_max:
        raise TruncationError(f"index {i} outside the covered range (0, {scheme.k_max}]")
    return int(np.searchsorted(scheme.cuts_array, i, side="left"))


def make_lacunary(spec: str, blocks: int | None = None) -> LacunaryScheme:
    """Build a LacunaryScheme from a theta-spec string.

    Forms: ``powers2`` (k_r = 2^r), ``geometric:q`` with q > 1
    (k_r = max(k_{r-1}+1, ceil(q^r)), so small q still yields a valid scheme),
    ``explicit:k1,k2,...``, ``file:PATH`` (one cut per line).  ``blocks`` is
    required for the generative forms and optionally truncates explicit ones.
    """
    spec = spec.strip()
    if spec == "powers2":
        if blocks is None or blocks < 1:
            raise SpecError("powers2 scheme needs a block count >= 1")
        return LacunaryScheme((0,) + tuple(2 ** r for r in range(1, blocks + 1)))
    if spec.startswith("geometric:"):
        try:
            q = float(spec[len("geometric:"):])
        except ValueError:
            raise SpecError(f"malformed geometric spec {spec!r}") from None
        if q <= 1.0:
            raise SpecError(f"geometric ratio must be > 1, got {q}")
        if blocks is None or blocks < 1:
            raise SpecError("geometric scheme needs a block count >= 1")
        cuts = [0]
        for r in range(1, blocks + 1):
            cuts.append(max(cuts[-1] + 1, math.ceil(q ** r)))
        return LacunaryScheme(tuple(cuts))
    if spec.startswith("explicit:") or spec.startswith("file:"):
        if spec.startswith("explicit:"):
            body = spec[len("explicit:"):]
            tokens = [tok for tok in body.split(",") if tok.strip()]
        else:
            path = spec[len("file:"):]
            tokens = list(read_numbers(path, "theta", f"non-integer cut in theta spec {spec!r}", int))
        if not tokens:
            raise SpecError(f"no cuts in theta spec {spec!r}")
        try:
            cuts = [int(tok) for tok in tokens]
        except ValueError:
            raise SpecError(f"non-integer cut in theta spec {spec!r}") from None
        if cuts[0] != 0:
            cuts = [0] + cuts
        if blocks is not None:
            if blocks < 1 or blocks > len(cuts) - 1:
                raise SpecError(f"theta spec {spec!r} provides {len(cuts) - 1} blocks, requested {blocks}")
            cuts = cuts[: blocks + 1]
        return LacunaryScheme(tuple(cuts))
    raise SpecError(f"unknown theta spec {spec!r}")


@dataclass(frozen=True)
class SequencePrefix:
    """The first N terms of a real sequence (x_1..x_N) plus a provenance label."""

    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("a sequence prefix needs at least one value")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"sequence {self.label!r} contains non-finite values")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)

    def prefix(self, n: int) -> "SequencePrefix":
        if not 1 <= n <= len(self):
            raise TruncationError(f"prefix length {n} outside 1..{len(self)}")
        return SequencePrefix(self.values[:n], label=self.label)

"""Set operations on ``seqlab.core.IndexSet`` that only the tests use."""

import numpy as np

from seqlab.core import IndexSet


def complement(a: IndexSet) -> IndexSet:
    """The complement of ``a`` within the positive integers."""

    def rule(n: int) -> np.ndarray:
        full = np.arange(1, n + 1, dtype=np.int64)
        return np.setdiff1d(full, a.members_upto(n), assume_unique=True)

    return IndexSet(f"complement({a.name})", rule, lambda ns: ns - a.counts(ns))

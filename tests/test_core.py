import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlab.core import (IndexSet, SequencePrefix, block_of, complement,
                         make_index_set, make_lacunary)
from seqlab.errors import SpecError, TruncationError


def brute_count(members, n):
    return sum(1 for m in members if m <= n)


class TestMakeIndexSet:
    def test_evens(self):
        a = make_index_set("evens")
        assert a.count(10) == 5
        assert list(a.members_upto(10)) == [2, 4, 6, 8, 10]

    def test_squares(self):
        a = make_index_set("squares")
        assert a.count(100) == 10
        assert list(a.members_upto(10)) == [1, 4, 9]

    def test_arith(self):
        a = make_index_set("arith:3,5")
        # direct enumeration: 3, 8, 13, 18
        assert a.count(20) == 4
        assert list(a.members_upto(20)) == [3, 8, 13, 18]

    def test_odds(self):
        assert make_index_set("odds").count(10) == 5

    def test_list(self):
        a = make_index_set("list:1,4,9")
        assert a.count(5) == 2
        assert a.count(100) == 3

    def test_file(self, tmp_path):
        p = tmp_path / "idx.txt"
        p.write_text("9\n1\n4\n")
        a = make_index_set(f"file:{p}")
        assert list(a.members_upto(100)) == [1, 4, 9]

    def test_unknown_name(self):
        with pytest.raises(SpecError):
            make_index_set("primes")

    def test_malformed_arith(self):
        with pytest.raises(SpecError):
            make_index_set("arith:3")
        with pytest.raises(SpecError):
            make_index_set("arith:0,5")
        with pytest.raises(SpecError):
            make_index_set("arith:a,b")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("")
        with pytest.raises(SpecError):
            make_index_set(f"file:{p}")

    @pytest.mark.parametrize("spec", ["evens", "odds", "squares", "arith:3,5", "arith:1,1"])
    def test_count_matches_brute_enumeration(self, spec):
        a = make_index_set(spec)
        members = set(a.members_upto(200).tolist())
        for n in range(1, 201):
            assert a.count(n) == brute_count(members, n)

    def test_counts_monotone_and_bounded(self):
        a = make_index_set("squares")
        ns = np.arange(1, 500)
        counts = a.counts(ns)
        assert np.all(np.diff(counts) >= 0)
        assert np.all(counts <= ns)

    @given(n=st.integers(min_value=1, max_value=5000))
    def test_complement_partition(self, n):
        a = make_index_set("arith:3,5")
        assert a.count(n) + a.complement_count(n) == n

    def test_complement_set(self):
        a = make_index_set("squares")
        c = complement(a)
        got = set(c.members_upto(30).tolist())
        assert got == set(range(1, 31)) - {1, 4, 9, 16, 25}

    def test_contains(self):
        a = make_index_set("squares")
        assert a.contains(16)
        assert not a.contains(15)


class TestLacunary:
    def test_powers2(self):
        s = make_lacunary("powers2", 4)
        assert s.cuts == (0, 2, 4, 8, 16)
        assert list(s.h) == [2, 2, 4, 8]

    def test_geometric_small_ratio(self):
        # k_r = max(k_{r-1}+1, ceil(1.5^r)): 2, 3, 4
        s = make_lacunary("geometric:1.5", 3)
        assert s.cuts == (0, 2, 3, 4)
        assert np.all(s.h >= 1)

    def test_geometric_matches_recurrence(self):
        import math
        q, r_count = 2.5, 8
        s = make_lacunary(f"geometric:{q}", r_count)
        cuts = [0]
        for r in range(1, r_count + 1):
            cuts.append(max(cuts[-1] + 1, math.ceil(q ** r)))
        assert list(s.cuts) == cuts

    def test_explicit(self):
        s = make_lacunary("explicit:0,3,7,20")
        assert list(s.h) == [3, 4, 13]
        assert s.ratios[0] == pytest.approx(7 / 3)

    def test_explicit_without_leading_zero(self):
        s = make_lacunary("explicit:3,7,20")
        assert s.cuts == (0, 3, 7, 20)

    def test_file(self, tmp_path):
        p = tmp_path / "theta.txt"
        p.write_text("0\n3\n7\n20\n")
        assert make_lacunary(f"file:{p}").cuts == (0, 3, 7, 20)

    def test_bad_ratio(self):
        with pytest.raises(SpecError):
            make_lacunary("geometric:1.0", 3)

    def test_non_increasing_cuts(self):
        with pytest.raises(SpecError):
            make_lacunary("explicit:0,3,3,7")

    def test_growth_of_builtin(self):
        s = make_lacunary("powers2", 8)
        assert np.all(np.diff(s.h) >= 0)
        assert s.h[-1] > s.h[0]

    @pytest.mark.parametrize("spec,r", [("powers2", 6), ("geometric:3", 5), ("explicit:0,3,7,20", None)])
    def test_block_lengths_partition(self, spec, r):
        s = make_lacunary(spec, r)
        assert int(s.h.sum()) == s.k_max

    def test_block_of_examples(self):
        s = make_lacunary("powers2", 4)
        assert block_of(s, 3) == 2
        assert block_of(s, 2) == 1   # right-closed interval
        assert block_of(s, 16) == 4  # boundary included

    def test_block_of_inverse(self):
        s = make_lacunary("explicit:0,3,7,20")
        for r in range(1, s.blocks + 1):
            for i in s.block_indices(r):
                assert block_of(s, int(i)) == r

    def test_block_of_out_of_range(self):
        s = make_lacunary("powers2", 3)
        with pytest.raises(TruncationError):
            block_of(s, 0)
        with pytest.raises(TruncationError):
            block_of(s, 9)


class TestSequencePrefix:
    def test_basic(self):
        x = SequencePrefix([1.0, 2.0], label="toy")
        assert len(x) == 2
        assert x.values[1] == 2.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            SequencePrefix([1.0, float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            SequencePrefix([float("inf")])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SequencePrefix([])

    def test_values_read_only(self):
        x = SequencePrefix([1.0, 2.0])
        with pytest.raises(ValueError):
            x.values[0] = 5.0

    def test_prefix(self):
        x = SequencePrefix([1.0, 2.0, 3.0])
        assert list(x.prefix(2).values) == [1.0, 2.0]
        with pytest.raises(TruncationError):
            x.prefix(4)


@settings(max_examples=50)
@given(members=st.lists(st.integers(min_value=1, max_value=1000), min_size=0, max_size=50),
       n=st.integers(min_value=1, max_value=1000))
def test_explicit_set_count_matches_brute(members, n):
    a = IndexSet.from_members("case", members)
    assert a.count(n) == brute_count(set(members), n)


member_lists = st.lists(st.integers(min_value=1, max_value=10_000), max_size=60)


def _as_input(kind, members):
    if kind == "list":
        return list(members)
    if kind == "generator":
        return (m for m in members)
    return np.asarray(members, dtype=np.int64)


class TestFromMembers:
    @settings(max_examples=60)
    @given(members=member_lists, order=st.sampled_from(["given", "sorted", "unique"]),
           kind=st.sampled_from(["list", "generator", "array"]))
    def test_matches_np_unique(self, members, order, kind):
        if order == "sorted":
            members = sorted(members)
        elif order == "unique":
            members = sorted(set(members))
        expected = np.unique(np.asarray(members, dtype=np.int64))
        a = IndexSet.from_members("case", _as_input(kind, members))
        top = int(expected[-1]) if expected.size else 1
        assert np.array_equal(a.members_upto(top), expected)

    @settings(max_examples=40)
    @given(members=member_lists, bad=st.integers(min_value=-5, max_value=0),
           sort=st.booleans(), kind=st.sampled_from(["list", "array"]))
    def test_index_below_one_rejected(self, members, bad, sort, kind):
        members = sorted(set(members) | {bad}) if sort else members + [bad]
        with pytest.raises(SpecError):
            IndexSet.from_members("case", _as_input(kind, members))

    @pytest.mark.parametrize("members", [[1, 3, 7], [7, 3, 1, 3]])
    def test_input_array_not_aliased(self, members):
        arr = np.asarray(members, dtype=np.int64)
        a = IndexSet.from_members("case", arr)
        before = a.members_upto(10).copy()
        arr[:] = 9
        assert np.array_equal(a.members_upto(10), before)
        with pytest.raises(ValueError):
            a.members_upto(10)[0] = 2

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlab.core import (MATERIALIZE_CAP, MAX_INDEX, IndexSet, SequencePrefix,
                         make_index_set, make_lacunary, read_numbers)
from seqlab.errors import SpecError, TruncationError
from setops import complement


def brute_count(members, n):
    return sum(1 for m in members if m <= n)


def per_line_floats(text):
    return [float(ln.strip()) for ln in text.splitlines() if ln.strip()]


class TestReadFloats:
    @pytest.mark.parametrize("text", [
        "1\n2.5\n", "1\r\n2\r\n-3e-2", "1_000\ninf\n-0\nnan\n", "\u0661\u0662\n",
        "  1\n\n 2 \n", "1\t\n\x0c2\n", "\n\n7\n\n",
    ])
    def test_matches_per_line_parse(self, tmp_path, text):
        path = tmp_path / "v.txt"
        path.write_text(text, newline="")
        got = read_numbers(path, "weight")
        np.testing.assert_array_equal(got, per_line_floats(text))
        assert got.dtype == np.float64

    @settings(max_examples=40)
    @given(vals=st.lists(st.floats(allow_nan=False), min_size=1, max_size=20),
           pads=st.lists(st.sampled_from(["", " ", "\t", "\n", "\r\n"]), min_size=20, max_size=20))
    def test_any_padding_matches_per_line_parse(self, tmp_path_factory, vals, pads):
        text = "".join(f"{p}{v!r}\n" for p, v in zip(pads, vals))
        path = tmp_path_factory.mktemp("floats") / "v.txt"
        path.write_text(text, newline="")
        assert read_numbers(path, "weight").tolist() == per_line_floats(text)

    @pytest.mark.parametrize("text", ["1\ntwo\n", "1 2\n", "1\n0x10\n", "1\x002\n"])
    def test_non_numeric_names_the_path_as_given(self, tmp_path, monkeypatch, text):
        (tmp_path / "v.txt").write_text(text)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SpecError, match=r"^non-numeric rho value in \./v\.txt$"):
            read_numbers("./v.txt", "rho")

    def test_empty(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text(" \n\n")
        with pytest.raises(SpecError, match=f"^empty rho file {path}$"):
            read_numbers(path, "rho")


class TestMakeIndexSet:
    def test_evens(self):
        a = make_index_set("evens")
        assert a.counts([10])[0] == 5
        assert list(a.members_upto(10)) == [2, 4, 6, 8, 10]

    def test_squares(self):
        a = make_index_set("squares")
        assert a.counts([100])[0] == 10
        assert list(a.members_upto(10)) == [1, 4, 9]

    def test_arith(self):
        a = make_index_set("arith:3,5")
        # direct enumeration: 3, 8, 13, 18
        assert a.counts([20])[0] == 4
        assert list(a.members_upto(20)) == [3, 8, 13, 18]

    def test_odds(self):
        assert make_index_set("odds").counts([10])[0] == 5

    def test_list(self):
        a = make_index_set("list:1,4,9")
        assert a.counts([5])[0] == 2
        assert a.counts([100])[0] == 3

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
            assert a.counts([n])[0] == brute_count(members, n)

    def test_counts_monotone_and_bounded(self):
        a = make_index_set("squares")
        ns = np.arange(1, 500)
        counts = a.counts(ns)
        assert np.all(np.diff(counts) >= 0)
        assert np.all(counts <= ns)

    @given(n=st.integers(min_value=1, max_value=5000))
    def test_complement_partition(self, n):
        a = make_index_set("arith:3,5")
        assert a.counts([n])[0] + complement(a).counts([n])[0] == n

    def test_complement_set(self):
        a = make_index_set("squares")
        c = complement(a)
        got = set(c.members_upto(30).tolist())
        assert got == set(range(1, 31)) - {1, 4, 9, 16, 25}

    def test_contains(self):
        a = make_index_set("squares")
        assert np.diff(a.counts([15, 16])).tolist() == [1]  # 16 is a member
        assert np.diff(a.counts([14, 15])).tolist() == [0]  # 15 is not


rule_specs = st.one_of(
    st.sampled_from(["evens", "odds", "squares"]),
    st.builds("arith:{},{}".format, st.integers(1, 1000), st.integers(1, 1000)))


class TestCountRules:
    @settings(max_examples=60, deadline=None)
    @given(spec=rule_specs, take_complement=st.booleans(),
           ns=st.lists(st.integers(min_value=0, max_value=10 ** 7), min_size=1, max_size=20))
    def test_counts_match_enumeration(self, spec, take_complement, ns):
        a = make_index_set(spec)
        if take_complement:
            a = complement(a)
        ns = np.asarray(ns, dtype=np.int64)
        members = a.members_upto(int(ns.max()))
        expected = np.searchsorted(members, ns, side="right")
        assert np.array_equal(a.counts(ns), expected)

    @settings(max_examples=200)
    @given(ks=st.lists(st.integers(min_value=1, max_value=math.isqrt(MAX_INDEX)),
                       min_size=1, max_size=30))
    def test_squares_exact_around_every_square(self, ks):
        ns = [n for k in ks for n in (k * k - 1, k * k, k * k + 1)]
        got = make_index_set("squares").counts(ns)
        assert got.tolist() == [math.isqrt(n) for n in ns]

    def test_squares_exact_at_the_int64_edge(self):
        k = math.isqrt(MAX_INDEX)
        ns = [k * k - 1, k * k, k * k + 1, MAX_INDEX - 1, MAX_INDEX]
        got = make_index_set("squares").counts(ns)
        assert got.tolist() == [k - 1, k, k, k, k]

    @pytest.mark.parametrize("spec,expected", [
        ("evens", MAX_INDEX // 2), ("odds", (MAX_INDEX + 1) // 2),
        ("arith:1,1", MAX_INDEX), ("arith:7,3", (MAX_INDEX - 7) // 3 + 1),
        (f"arith:{MAX_INDEX},1", 1)])
    def test_counts_do_not_overflow(self, spec, expected):
        a = make_index_set(spec)
        assert a.counts([MAX_INDEX])[0] == expected
        assert complement(a).counts([MAX_INDEX])[0] == MAX_INDEX - expected

    def test_counts_past_the_cap_without_materializing(self):
        a = make_index_set("evens")
        assert a.counts([10 ** 15])[0] == 5 * 10 ** 14
        assert np.diff(a.counts([10 ** 15 - 1, 10 ** 15, 10 ** 15 + 1])).tolist() == [1, 0]
        with pytest.raises(TruncationError, match="cannot materialize"):
            a.members_upto(MATERIALIZE_CAP + 1)

    def test_counts_at_zero_and_below(self):
        for spec in ("evens", "odds", "squares", "arith:3,5"):
            assert make_index_set(spec).counts([-3, 0]).tolist() == [0, 0]

    def test_contains_on_complement(self):
        c = complement(make_index_set("squares"))
        assert (np.flatnonzero(np.diff(c.counts(np.arange(20)))) + 1).tolist() == [
            2, 3, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15, 17, 18, 19]

    def test_arith_spec_past_int64_rejected(self):
        with pytest.raises(SpecError, match="2\\^63 - 1"):
            make_index_set(f"arith:{MAX_INDEX + 1},1")


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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_non_finite_refused_with_its_label(self, bad, at):
        values = [1.0, -2.0, 3.0]
        values[at] = bad
        with pytest.raises(ValueError, match="^sequence 'toy' contains non-finite values$"):
            SequencePrefix(values, label="toy")
        with pytest.raises(ValueError, match="^sequence 'toy' contains non-finite values$"):
            SequencePrefix(np.array(values), label="toy")

    def test_callers_array_not_aliased(self):
        given = np.array([1.0, 2.0, 3.0])
        x = SequencePrefix(given)
        given[0] = 9.0
        assert list(x.values) == [1.0, 2.0, 3.0]
        assert given.flags.writeable and not np.shares_memory(given, x.values)

    def test_prefix(self):
        x = SequencePrefix([1.0, 2.0, 3.0])
        assert list(x.prefix(2).values) == [1.0, 2.0]
        with pytest.raises(TruncationError):
            x.prefix(4)

    def test_prefix_is_a_read_only_view(self):
        x = SequencePrefix([1.0, 2.0, 3.0], label="toy")
        head = x.prefix(2)
        assert np.shares_memory(head.values, x.values) and head.label == "toy"
        with pytest.raises(ValueError):
            head.values[0] = 5.0


@settings(max_examples=50)
@given(members=st.lists(st.integers(min_value=1, max_value=1000), min_size=0, max_size=50),
       n=st.integers(min_value=1, max_value=1000))
def test_explicit_set_count_matches_brute(members, n):
    a = IndexSet.from_members("case", members)
    assert a.counts([n])[0] == brute_count(set(members), n)


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

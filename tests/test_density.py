import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlab.core import IndexSet, SequencePrefix, complement, make_index_set
from seqlab.density import (checkpoints, complement_inequality_check,
                            exceedance_set, f_density, natural_density)
from seqlab.modulus import Modulus, make_modulus


class TestCheckpoints:
    def test_geometric_and_ascending(self):
        cps = checkpoints(1000)
        assert cps[-1] == 1000
        assert np.all(np.diff(cps) > 0)
        assert cps[0] >= 10

    def test_too_small(self):
        with pytest.raises(ValueError):
            natural_density(make_index_set("evens"), 50)


class TestNaturalDensity:
    def test_evens(self):
        d = natural_density(make_index_set("evens"), 10 ** 5, tol=1e-2)
        assert d.converged
        assert d.value == pytest.approx(0.5, abs=1e-3)

    def test_squares_extrapolates_to_zero(self):
        d = natural_density(make_index_set("squares"), 10 ** 6, tol=1e-2)
        assert d.converged
        assert d.value == 0.0
        assert d.final_ratio == pytest.approx(1e-3)

    def test_full_set(self):
        d = natural_density(make_index_set("arith:1,1"), 1000)
        assert d.converged
        assert d.value == 1.0

    def test_oscillating_stripes(self):
        # members fill dyadic stripes (2^{2j}, 2^{2j+1}]; the prefix ratio
        # swings between ~1/3 and ~2/3 forever
        def rule(n):
            parts = []
            j = 0
            while 4 ** j < n:
                lo = 4 ** j
                hi = min(2 * 4 ** j, n)
                parts.append(np.arange(lo + 1, hi + 1, dtype=np.int64))
                j += 1
            return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

        stripes = IndexSet("stripes", rule)
        d = natural_density(stripes, 4 ** 10, tol=1e-2)
        assert not d.converged
        assert d.value is None

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            natural_density(make_index_set("evens"), 1000, tol=0.0)


class TestFDensity:
    def test_identity_matches_natural_exactly(self):
        for spec in ("evens", "squares", "arith:3,5"):
            a = make_index_set(spec)
            nat = natural_density(a, 10 ** 5)
            fid = f_density(a, make_modulus("id"), 10 ** 5)
            assert fid.ratios == nat.ratios

    def test_squares_log1p_half(self):
        d = f_density(make_index_set("squares"), make_modulus("log1p"), 10 ** 6, tol=0.02)
        assert d.converged
        assert d.value == pytest.approx(0.5, abs=0.02)

    def test_evens_log1p_one(self):
        d = f_density(make_index_set("evens"), make_modulus("log1p"), 10 ** 6, tol=0.02)
        assert d.converged
        assert d.value == pytest.approx(1.0, abs=0.02)

    def test_evens_pow_half(self):
        d = f_density(make_index_set("evens"), make_modulus("pow:0.5"), 10 ** 6, tol=0.02)
        assert d.converged
        assert d.value == pytest.approx(1.0 / math.sqrt(2.0), abs=0.02)

    def test_bounded_rejected(self):
        with pytest.raises(ValueError, match="bounded modulus"):
            f_density(make_index_set("squares"), make_modulus("bounded"), 1000)

    def test_ratios_clamped(self):
        d = f_density(make_index_set("arith:1,1"), make_modulus("log1p"), 10 ** 4)
        assert all(0.0 <= r <= 1.0 for r in d.ratios)

    def test_complement_direction(self):
        # f-density 0 for the set forces f-density 1 for its complement
        a = make_index_set("squares")
        f = make_modulus("id")
        da = f_density(a, f, 10 ** 5, tol=1e-2)
        dc = f_density(complement(a), f, 10 ** 5, tol=1e-2)
        assert da.converged and da.value <= 1e-2
        assert dc.converged and abs(dc.value - 1.0) <= 2e-2

    def test_monotone_prefix_property(self):
        a = make_index_set("arith:3,5")
        ns = np.arange(1, 2000)
        counts = a.counts(ns)
        for spec in ("id", "log1p", "pow:0.5"):
            f = make_modulus(spec)
            assert np.all(np.diff(f(counts)) >= -1e-12)


class TestComplementInequality:
    @pytest.mark.parametrize("set_spec", ["evens", "squares"])
    @pytest.mark.parametrize("mod_spec", ["id", "log1p"])
    def test_builtin_pass(self, set_spec, mod_spec):
        res = complement_inequality_check(make_index_set(set_spec), make_modulus(mod_spec), 10 ** 4)
        assert res.passed
        assert res.first_violation is None

    def test_square_fn_fails_with_first_violation(self):
        a = make_index_set("squares")
        sq = Modulus("square", lambda t: t * t)
        res = complement_inequality_check(a, sq, 10 ** 3)
        assert not res.passed
        # oracle: scan directly
        expected = None
        for n in range(1, 10 ** 3 + 1):
            c = a.count(n)
            if n * n > c * c + (n - c) ** 2 + 1e-12:
                expected = n
                break
        assert res.first_violation == expected


class TestExceedance:
    def test_zero_scores(self):
        s = SequencePrefix(np.zeros(100), label="zeros")
        assert exceedance_set(s, 0.1).count(100) == 0

    def test_indicator_of_squares(self):
        n = 400
        vals = np.zeros(n)
        squares = make_index_set("squares").members_upto(n)
        vals[squares - 1] = 1.0
        e = exceedance_set(SequencePrefix(vals), 0.5)
        assert list(e.members_upto(n)) == list(squares)

    def test_harmonic_threshold(self):
        # 1/i > 0.01 iff i < 100
        vals = 1.0 / np.arange(1, 201, dtype=float)
        e = exceedance_set(SequencePrefix(vals), 0.01)
        assert list(e.members_upto(200)) == list(range(1, 100))

    def test_strictness(self):
        s = SequencePrefix(np.asarray([0.5, 0.6]))
        assert list(exceedance_set(s, 0.5).members_upto(2)) == [2]

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            exceedance_set(SequencePrefix([1.0]), 0.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -0.5])
    def test_eps_must_be_positive_and_finite(self, eps):
        with pytest.raises(ValueError, match="positive and finite"):
            exceedance_set(SequencePrefix([1.0]), eps)


@settings(max_examples=60)
@given(vals=st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=80),
       eps=st.floats(min_value=1e-3, max_value=2.0))
def test_exceedance_set_matches_brute_force(vals, eps):
    e = exceedance_set(SequencePrefix(vals), eps)
    brute = [i for i, v in enumerate(vals, start=1) if v > eps]
    assert list(e.members_upto(len(vals))) == brute
    assert list(e.counts(np.arange(1, len(vals) + 1))) == [
        sum(1 for i in brute if i <= n) for n in range(1, len(vals) + 1)]

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlab.core import MAX_INDEX, IndexSet, make_index_set
from seqlab.density import (_CHUNK, ComplementCheck, _extrapolate, _grid, _intercept, checkpoints,
                            complement_inequality_check, exceedance_set, f_density, natural_density,
                            tail_window)
from seqlab.modulus import Modulus, make_modulus
from setops import complement


class TestCheckpoints:
    def test_geometric_and_ascending(self):
        cps = checkpoints(1000)
        assert cps[-1] == 1000
        assert np.all(np.diff(cps) > 0)
        assert cps[0] >= 10

    def test_too_small(self):
        with pytest.raises(ValueError):
            natural_density(make_index_set("evens"), 50)

    @settings(max_examples=200)
    @given(n=st.integers(min_value=10, max_value=2 ** 53))
    def test_same_as_float_ceiling_up_to_2_pow_53(self, n):
        pts = [math.ceil(n / 2 ** j) for j in range(60) if math.ceil(n / 2 ** j) >= 10]
        assert checkpoints(n).tolist() == sorted(pts)

    @settings(max_examples=300)
    @given(n=st.one_of(st.integers(min_value=0, max_value=MAX_INDEX), st.integers(min_value=0, max_value=100)))
    def test_same_array_as_sorted_unique(self, n):
        pts = [-(-n // 2 ** j) for j in range(64)]
        want = np.unique(np.asarray([v for v in pts if v >= 10], dtype=np.int64))
        got = checkpoints(n)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [10 ** 16 + 1, 2 ** 62 + 3, MAX_INDEX])
    def test_exact_past_2_pow_53(self, n):
        cps = checkpoints(n).tolist()
        assert cps[-1] == n
        assert cps == sorted(-(-n // 2 ** j) for j in range(len(cps)))

    @pytest.mark.parametrize("n", [MAX_INDEX + 1, 10 ** 23])
    def test_truncation_past_int64_rejected(self, n):
        with pytest.raises(ValueError, match="truncation must be <= 2\\^63 - 1"):
            natural_density(make_index_set("evens"), n)


class TestNaturalDensity:
    def test_evens(self):
        d = natural_density(make_index_set("evens"), 10 ** 5, tol=1e-2)
        assert d.converged
        assert d.value == pytest.approx(0.5, abs=1e-3)

    def test_squares_extrapolates_to_zero(self):
        d = natural_density(make_index_set("squares"), 10 ** 6, tol=1e-2)
        assert d.converged
        assert d.value == 0.0
        assert d.ratios[-1] == pytest.approx(1e-3)

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

        stripes = IndexSet.from_members("stripes", rule(4 ** 10))
        d = natural_density(stripes, 4 ** 10, tol=1e-2)
        assert not d.converged
        assert d.value is None

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            natural_density(make_index_set("evens"), 1000, tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_non_finite_tol_rejected(self, tol):
        a = make_index_set("evens")
        with pytest.raises(ValueError, match="positive and finite"):
            natural_density(a, 1000, tol=tol)
        with pytest.raises(ValueError, match="positive and finite"):
            f_density(a, make_modulus("id"), 1000, tol=tol)


def _exact_intercept(u, r):
    """The least-squares intercept of r ~ a + b u in exact rational arithmetic over the float inputs."""
    u, r = [Fraction(x) for x in u], [Fraction(y) for y in r]
    u_bar, r_bar = sum(u) / len(u), sum(r) / len(r)
    slope = sum((x - u_bar) * (y - r_bar) for x, y in zip(u, r)) / sum((x - u_bar) ** 2 for x in u)
    return r_bar - slope * u_bar


@given(st.integers(100, MAX_INDEX), st.floats(0, 1), st.floats(-2, 2),
       st.lists(st.floats(-1e-3, 1e-3), min_size=21, max_size=21))
def test_tail_fit_is_as_exact_as_polyfit(n, limit, b, noise):
    # a tail as _estimate fits it: the last third of the checkpoints, ratios in [0, 1] near limit + b / log n
    ns = checkpoints(n)[-tail_window(len(checkpoints(n))):]
    u = 1.0 / np.log(ns.astype(float))
    r = np.clip(limit + b * u + np.array(noise[:len(ns)]), 0.0, 1.0)
    exact, fit = _exact_intercept(u.tolist(), r.tolist()), _intercept(ns, r)
    fitted = float(np.polyfit(u, r, 1)[1])
    scale = float(np.max(np.abs(r)))
    assert abs(Fraction(fit) - exact) <= abs(Fraction(fitted) - exact) + 4 * Fraction(math.ulp(scale))
    assert math.isclose(fit, fitted, rel_tol=1e-12, abs_tol=1e-12 * scale)
    assert _extrapolate(ns, r) == min(1.0, max(0.0, fit))


def _closed_form(spec, cp):
    if spec == "evens":
        return cp // 2
    if spec == "odds":
        return (cp + 1) // 2
    if spec == "squares":
        return math.isqrt(cp)
    a, d = (int(v) for v in spec[len("arith:"):].split(","))
    return max(0, (cp - a) // d + 1)


class TestLargeTruncation:
    """Rule sets are counted in closed form, so trails reach n = 10^15."""

    @pytest.mark.parametrize("spec", ["evens", "odds", "squares", "arith:3,5", "arith:1000,7"])
    @pytest.mark.parametrize("take_complement", [False, True])
    def test_trail_equals_closed_form_at_1e15(self, spec, take_complement):
        n = 10 ** 15
        a = make_index_set(spec)
        if take_complement:
            a = complement(a)
        d = natural_density(a, n)
        counts = [_closed_form(spec, cp) for cp in d.checkpoints]
        if take_complement:
            counts = [cp - c for cp, c in zip(d.checkpoints, counts)]
        assert d.checkpoints[-1] == n
        assert d.ratios == tuple(c / cp for c, cp in zip(counts, d.checkpoints))


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
            c = a.counts([n])[0]
            if n * n > c * c + (n - c) ** 2 + 1e-12:
                expected = n
                break
        assert res.first_violation == expected


def _unchunked_complement_check(a, f, n):
    ns = np.arange(1, n + 1, dtype=np.int64)
    counts = a.counts(ns)
    viol = np.flatnonzero(f(ns) > f(counts) + f(ns - counts) + 1e-12)
    if viol.size:
        return ComplementCheck(False, int(ns[viol[0]]), n)
    return ComplementCheck(True, None, n)


def _recording_evens(sizes):
    """The evens, appending the length of every ``counts`` call to ``sizes``."""
    class Recording(IndexSet):
        def counts(self, ns):
            sizes.append(len(ns))
            return super().counts(ns)

    return Recording("evens", lambda n: np.arange(2, n + 1, 2, dtype=np.int64), count_rule=lambda ns: ns // 2)


SQUARE_FN = Modulus("sq", lambda t: t ** 2)
POW_1_7 = Modulus("pow1.7", lambda t: np.power(t, 1.7))


class TestChunkedComplementCheck:
    N = 2 ** 21 + 3  # full blocks and a ragged last one

    @pytest.mark.parametrize("set_spec,f", [
        ("arith:2000000,1", SQUARE_FN),
        ("squares", SQUARE_FN),
        ("list:1500000,2000000", SQUARE_FN),
        ("evens", make_modulus("pow:0.5")),
        ("arith:7,32", make_modulus("log1p")),
    ])
    def test_equals_unchunked_reference(self, set_spec, f):
        a = make_index_set(set_spec)
        assert complement_inequality_check(a, f, self.N) == _unchunked_complement_check(a, f, self.N)

    def test_violation_past_the_first_block(self):
        res = complement_inequality_check(make_index_set("arith:2000000,1"), SQUARE_FN, self.N)
        assert res == ComplementCheck(False, 2000000, self.N)

    def test_scans_in_blocks(self):
        sizes = []
        evens = _recording_evens(sizes)
        n = 32 * _CHUNK + 3
        res = complement_inequality_check(evens, make_modulus("id"), n)
        assert res.passed and res.n_checked == n
        # f = id leaves no margin, so the one grid call certifies nothing and
        # every index past the first block is scanned
        expected = [_CHUNK] * 32 + [3]
        expected.insert(1, len(_grid(n)))
        assert sizes == expected

    @pytest.mark.parametrize("m", [_CHUNK - 1, _CHUNK, _CHUNK + 1,
                                   2 * _CHUNK - 1, 2 * _CHUNK, 2 * _CHUNK + 1, 4 * _CHUNK + 1])
    def test_first_violation_at_block_edges(self, m):
        # A = {m, m+1, ...}: below m the two sides are equal, and at m the
        # superadditive t^1.7 gives m^1.7 > 1 + (m-1)^1.7
        res = complement_inequality_check(make_index_set(f"arith:{m},1"), POW_1_7, 5 * _CHUNK)
        assert res == ComplementCheck(False, m, 5 * _CHUNK)

    @settings(max_examples=120, deadline=None)
    @given(set_spec=st.one_of(
               st.lists(st.integers(1, 3 * _CHUNK), min_size=1, max_size=40).map(
                   lambda xs: "list:" + ",".join(map(str, xs))),
               st.lists(st.integers(1, 2 ** 21), min_size=1, max_size=40).map(
                   lambda xs: "list:" + ",".join(map(str, xs))),
               st.sampled_from(["evens", "odds", "squares"]),
               st.builds("arith:{},{}".format, st.integers(1, 3 * _CHUNK), st.integers(1, 50)),
               st.builds("arith:{},{}".format, st.integers(1, 2 ** 21), st.integers(1, 2 ** 12))),
           f=st.sampled_from([make_modulus("id"), make_modulus("log1p"), make_modulus("pow:0.5"),
                              SQUARE_FN, POW_1_7]),
           n=st.one_of(st.integers(1, 3 * _CHUNK + 2),
                       st.sampled_from([_CHUNK - 1, _CHUNK, _CHUNK + 1, _CHUNK + 2,
                                        2 * _CHUNK, 2 * _CHUNK + 1]),
                       st.integers(1, 2 ** 21),
                       # the first and last index of a certification interval, and one past it
                       st.builds(int.__add__, st.sampled_from(_grid(2 ** 21).tolist()),
                                 st.sampled_from([-1, 0, 1]))))
    def test_random_sets_equal_unchunked_reference(self, set_spec, f, n):
        a = make_index_set(set_spec)
        assert complement_inequality_check(a, f, n) == _unchunked_complement_check(a, f, n)

    @pytest.mark.parametrize("scale", [1.0, 1e-9])
    def test_violation_after_certified_intervals(self, scale):
        # nondecreasing, subadditive on evens below 10^6 and superadditive
        # just past it: the grid certifies the intervals up to there and the
        # scan finds the first violation in the stretch it could not certify.
        # Scaled by 1e-9, f grows by less than 1 across every interval, so a
        # certificate with an absolute margin would pass over the violation
        f = Modulus("sqrt-then-square", lambda t: scale * (np.sqrt(t) + np.maximum(0.0, t - 1e6) ** 2))
        points = []
        evens = _recording_evens(points)
        n = 2 ** 21
        res = complement_inequality_check(evens, f, n)
        assert res == _unchunked_complement_check(make_index_set("evens"), f, n)
        assert not res.passed and 10 ** 6 < res.first_violation < 10 ** 6 + 100
        assert points == [_CHUNK, len(_grid(n)), _CHUNK]  # the first block, the grid, one scanned block

    def test_pow_half_on_evens_at_the_int64_limit(self):
        points = []
        evens = _recording_evens(points)
        res = complement_inequality_check(evens, make_modulus("pow:0.5"), MAX_INDEX)
        assert res == ComplementCheck(True, None, MAX_INDEX)
        assert points == [_CHUNK, len(_grid(MAX_INDEX))]
        assert sum(points) <= 20_000

    def test_read_only_gauge_output(self):
        def sqrt_read_only(t):
            out = np.sqrt(t)
            out.flags.writeable = False
            return out

        f = Modulus("sqrt-ro", sqrt_read_only)
        for spec in ("squares", "list:5,70000"):
            a = make_index_set(spec)
            assert complement_inequality_check(a, f, self.N) == _unchunked_complement_check(a, f, self.N)

    def test_peak_memory_bounded_by_block(self):
        a, f = make_index_set("evens"), make_modulus("pow:0.5")
        tracemalloc.start()
        try:
            res = complement_inequality_check(a, f, 2 ** 20 + 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.passed
        assert peak <= 1.5e6, f"one scan peaked at {peak / 1e6:.2f} MB"


class TestComplementCheckTruncation:
    @pytest.mark.parametrize("n", [-5, 0, 2.7, 2.0, True, False, math.nan, math.inf, -math.inf,
                                   MAX_INDEX + 1, "10", None])
    def test_rejected(self, n):
        with pytest.raises(ValueError, match=r"^truncation must be an integer in \[1, 2\^63 - 1\], got "):
            complement_inequality_check(make_index_set("evens"), make_modulus("id"), n)

    @pytest.mark.parametrize("n", [1, np.int64(7), np.uint8(200)])
    def test_accepted(self, n):
        res = complement_inequality_check(make_index_set("evens"), make_modulus("id"), n)
        assert res == ComplementCheck(True, None, int(n))


class TestExceedance:
    def test_zero_scores(self):
        assert exceedance_set(np.zeros(100), 0.1).counts([100])[0] == 0

    def test_indicator_of_squares(self):
        n = 400
        vals = np.zeros(n)
        squares = make_index_set("squares").members_upto(n)
        vals[squares - 1] = 1.0
        e = exceedance_set(vals, 0.5)
        assert list(e.members_upto(n)) == list(squares)

    def test_harmonic_threshold(self):
        # 1/i > 0.01 iff i < 100
        vals = 1.0 / np.arange(1, 201, dtype=float)
        e = exceedance_set(vals, 0.01)
        assert list(e.members_upto(200)) == list(range(1, 100))

    def test_strictness(self):
        assert list(exceedance_set(np.asarray([0.5, 0.6]), 0.5).members_upto(2)) == [2]

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            exceedance_set(np.ones(1), 0.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -0.5])
    def test_eps_must_be_positive_and_finite(self, eps):
        with pytest.raises(ValueError, match="positive and finite"):
            exceedance_set(np.ones(1), eps)


@settings(max_examples=60)
@given(vals=st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=80),
       eps=st.floats(min_value=1e-3, max_value=2.0))
def test_exceedance_set_matches_brute_force(vals, eps):
    e = exceedance_set(np.asarray(vals), eps)
    brute = [i for i, v in enumerate(vals, start=1) if v > eps]
    assert list(e.members_upto(len(vals))) == brute
    assert list(e.counts(np.arange(1, len(vals) + 1))) == [
        sum(1 for i in brute if i <= n) for n in range(1, len(vals) + 1)]


@settings(max_examples=60, deadline=None)
@given(size=st.integers(1, 100_000), cuts=st.integers(1, 20_000), seed=st.integers(0, 2 ** 32 - 1),
       eps=st.floats(min_value=1e-3, max_value=1.0))
def test_exceedance_counts_match_cumsum(size, cuts, seed, eps):
    # many cuts per 2^13-index chunk, repeated and unsorted, some past the end
    rng = np.random.default_rng(seed)
    values = rng.random(size)
    ns = rng.integers(0, int(rng.integers(1, size + 3)), cuts)
    want = np.concatenate(([0], np.cumsum(values > eps)))[np.minimum(ns, size)]
    got = exceedance_set(values, eps).counts(ns)
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist()


@settings(max_examples=100)
@given(vals=st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=0, max_size=80),
       eps=st.floats(min_value=1e-3, max_value=2.0),
       ns=st.lists(st.integers(min_value=0, max_value=200), max_size=12))
def test_exceedance_counts_match_member_search(vals, eps, ns):
    # unsorted and repeated points, 0 and points past the end of the values
    v = np.asarray(vals, dtype=float)
    ns = np.asarray(ns + [0, len(vals), len(vals) + 1, len(vals) + 1], dtype=np.int64)
    want = np.searchsorted(np.flatnonzero(v > eps) + 1, ns, side="right")
    got = exceedance_set(v, eps).counts(ns)
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist()

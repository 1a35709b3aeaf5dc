import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlab import membership
from seqlab.core import SequencePrefix, make_index_set, make_lacunary
from seqlab.density import checkpoints, exceedance_set
from seqlab.errors import TruncationError
from seqlab.matrices import make_matrix, transform_prefix
from seqlab.membership import (_CHUNK, INCONCLUSIVE, MEMBER, NON_MEMBER, SpaceParams,
                               block_membership, block_trails,
                               density_membership, pointwise_scores,
                               stat_cauchy_check, stat_limit_estimate)
from seqlab.modulus import make_modulus
from seqlab.orlicz import const_rho, make_family, make_orlicz, make_rho, uniform_family
from seqlab.sequences import (alternating_sequence, const_sequence,
                              harmonic_sequence, spike_sequence)

IDENTITY = make_matrix("identity")
LINEAR = uniform_family(make_orlicz("linear"))
SQUARED = uniform_family(make_orlicz("poly:2"))
ID_MOD = make_modulus("id")
LOG_MOD = make_modulus("log1p")


def scores(x, params, matrix=IDENTITY):
    return pointwise_scores(transform_prefix(matrix, x, len(x)), params)


def reduction_params(blocks=6, limit=0.0, eps=0.1):
    # alpha=1, theta=(2^r), linear gauge, rho=1, identity transform
    return SpaceParams(LINEAR, make_lacunary("powers2", blocks),
                       alpha=1.0, rho=const_rho(1.0), limit=limit, eps=eps)


class TestPointwiseScores:
    def test_constant_sequence_zero_scores(self):
        p = reduction_params(limit=3.0)
        s = scores(const_sequence(64, 3.0), p)
        assert np.all(s == 0.0)

    def test_reduction_is_bit_for_bit(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            vals = rng.normal(size=64)
            limit = float(rng.normal())
            x = SequencePrefix(vals)
            s = scores(x, reduction_params(limit=limit))
            assert np.array_equal(s, np.abs(vals - limit))

    def test_squared_gauge_on_square_spikes(self):
        n = 64
        x = spike_sequence(n, make_index_set("squares"), base=2.0, delta=1.0)
        p = SpaceParams(SQUARED, make_lacunary("powers2", 6), limit=2.0)
        s = scores(x, p)
        squares = make_index_set("squares").members_upto(n)
        expected = np.zeros(n)
        expected[squares - 1] = 1.0
        assert np.array_equal(s, expected)

    def test_limit_required(self):
        with pytest.raises(ValueError):
            scores(const_sequence(64, 1.0), reduction_params(limit=None))

    def test_read_only(self):
        assert not scores(const_sequence(64, 3.0), reduction_params(limit=1.0)).flags.writeable

    def test_non_finite_score_names_index(self):
        x = SequencePrefix(np.asarray([1.0, 1e300, 1.0]))
        p = SpaceParams(SQUARED, make_lacunary("powers2", 6), limit=0.0)
        with pytest.raises(ValueError, match="^non-finite score at index 2$"):
            scores(x, p)


def unchunked_scores(y, params):
    """The scores from n-length index, rho and deviation arrays."""
    idx = np.arange(1, y.size + 1, dtype=np.int64)
    dev = np.abs(y - params.limit)
    dev /= params.rho.values(idx)
    return params.family.eval_many(idx, dev)


def weighted_params(tmp_path, table_size, limit=0.25):
    """A weighted poly:2 family and a rho table, each of ``table_size`` entries."""
    i = np.arange(1, table_size + 1)
    np.savetxt(tmp_path / "w.txt", 1.0 + 1.0 / i, fmt="%.17g")
    np.savetxt(tmp_path / "rho.txt", 0.5 + (i % 7) / 4.0, fmt="%.17g")
    return SpaceParams(make_family(f"weighted:base=poly:2,weights=file:{tmp_path / 'w.txt'}"),
                       make_lacunary("powers2", 6), rho=make_rho(f"file:{tmp_path / 'rho.txt'}"), limit=limit)


class TestChunkedScores:
    @pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
    def test_equal_to_unchunked(self, tmp_path, n):
        y = np.sin(np.arange(n, dtype=float))
        params = weighted_params(tmp_path, n)
        assert np.array_equal(pointwise_scores(y, params), unchunked_scores(y, params))

    @pytest.mark.parametrize("table", ["rho", "weight"])
    def test_short_table_names_index_n(self, tmp_path, table):
        # the table ends inside the first block, yet the error names n, as an unchunked pass does
        n, covered = 2 * _CHUNK + 1, _CHUNK // 2
        params = weighted_params(tmp_path, covered)
        if table == "weight":
            params = replace(params, rho=const_rho(1.0))
        else:
            params = replace(params, family=LINEAR)
        with pytest.raises(TruncationError, match=f"^{table} table covers 1..{covered}, index {n} requested$"):
            pointwise_scores(np.zeros(n), params)

    def test_first_non_finite_score_past_one_block(self):
        y = np.zeros(3 * _CHUNK)
        y[[_CHUNK + 5, 2 * _CHUNK + 1]] = 1e300
        p = SpaceParams(SQUARED, make_lacunary("powers2", 6), limit=0.0)
        with pytest.raises(ValueError, match=f"^non-finite score at index {_CHUNK + 6}$"):
            pointwise_scores(y, p)


class TestBlockTrails:
    def test_zero_for_constant(self):
        p = reduction_params(limit=5.0)
        t, c, counts = block_trails(scores(const_sequence(64, 5.0), p), p)
        assert np.all(t == 0.0) and np.all(c == 0.0) and np.all(counts == 0)

    def test_markov_bound(self):
        rng = np.random.default_rng(3)
        p = reduction_params(limit=0.0, eps=0.25)
        for _ in range(20):
            x = SequencePrefix(rng.normal(size=64))
            t, c, _ = block_trails(scores(x, p), p)
            assert np.all(t >= p.eps * c - 1e-12)

    def test_eps_monotonicity(self):
        rng = np.random.default_rng(4)
        x = SequencePrefix(rng.normal(size=64))
        p1 = reduction_params(eps=0.1)
        p2 = reduction_params(eps=0.5)
        _, c1, _ = block_trails(scores(x, p1), p1)
        _, c2, _ = block_trails(scores(x, p2), p2)
        assert np.all(c1 >= c2)

    def test_counts_match_brute_force(self):
        rng = np.random.default_rng(5)
        p = reduction_params(eps=0.3)
        x = SequencePrefix(rng.normal(size=64))
        s = np.abs(x.values)
        _, _, counts = block_trails(scores(x, p), p)
        for r in range(1, 7):
            lo, hi = p.scheme.block(r)
            brute = sum(1 for i in range(lo + 1, hi + 1) if s[i - 1] > p.eps)
            assert counts[r - 1] == brute

    @pytest.mark.parametrize("theta, blocks, extra", [
        ("powers2", 10, 0), ("powers2", 17, 5), ("geometric:1.01", 40, 3), ("explicit:1,2,3,50,51,4096", None, 7),
    ])
    def test_counts_match_int64_reduceat(self, theta, blocks, extra):
        # scores at eps and one ulp on either side of it, past k_max too: s > eps counts only the one above
        eps = 0.3
        scheme = make_lacunary(theta, blocks)
        values = np.array([eps, np.nextafter(eps, 0.0), np.nextafter(eps, 1.0), 0.0, 2 * eps])
        s = np.random.default_rng(6).choice(values, size=scheme.k_max + extra)
        p = replace(reduction_params(eps=eps), scheme=scheme)
        t, c, counts = block_trails(s, p)
        starts = scheme.cuts_array[:-1]
        want = np.add.reduceat((s[:scheme.k_max] > eps).astype(np.int64), starts)
        halpha = scheme.h.astype(float) ** p.alpha
        assert counts.dtype == np.int64 and np.array_equal(counts, want)
        assert np.array_equal(c, want / halpha)
        assert np.array_equal(t, np.add.reduceat(s[:scheme.k_max], starts) / halpha)

    @settings(max_examples=60, deadline=None)
    @given(eps=st.floats(1e-6, 1e6), picks=st.lists(st.integers(0, 4), min_size=100, max_size=300),
           theta=st.sampled_from(["powers2", "geometric:1.3", "explicit:1,2,3,50,51,99"]))
    def test_one_exceedance_rule_in_count_and_density_modes(self, eps, picks, theta):
        # scores at eps and one ulp on either side of it: only s > eps is an exceedance, in every mode
        values = np.array([eps, np.nextafter(eps, 0.0), np.nextafter(eps, np.inf), 0.0, 2 * eps])
        s = values[picks]
        scheme = make_lacunary(theta, 6 if theta.startswith(("powers2", "geometric")) else None)
        p = replace(reduction_params(eps=eps), scheme=scheme)
        count = block_membership(s, p, "count")
        dens = density_membership(s, p, ID_MOD)
        above = s > eps
        brute = tuple(int(np.count_nonzero(above[a:b])) for a, b in zip(scheme.cuts, scheme.cuts[1:]))
        cut_counts = np.diff(exceedance_set(s, eps).counts(scheme.cuts_array))
        assert count.exceedance_counts == dens.exceedance_counts == tuple(cut_counts.tolist()) == brute
        cps = checkpoints(s.size)
        assert dens.density.ratios == tuple((np.cumsum(above)[cps - 1] / cps).tolist())

    def test_density_mode_makes_one_exceedance_set(self, monkeypatch):
        # the trails count in the set the density verdict was judged on, with no second mask over s[:k_max]
        made = []
        monkeypatch.setattr(membership, "exceedance_set", lambda s, eps: made.append(s.size) or exceedance_set(s, eps))
        p = reduction_params(blocks=6)
        s = np.linspace(0.0, 1.0, 200)
        rep = density_membership(s, p, ID_MOD)
        assert made == [200]
        assert rep.exceedance_counts == block_membership(s, p, "count").exceedance_counts

    def test_scheme_past_truncation(self):
        with pytest.raises(TruncationError):
            block_trails(np.zeros(32), reduction_params(blocks=6))
        p = reduction_params(blocks=6)
        s = scores(const_sequence(32, 0.0), p)
        with pytest.raises(TruncationError, match="^scheme extends to 64, past the sequence truncation 32$"):
            block_membership(s, p, "mean")


class TestVerdicts:
    def test_constant_member_everywhere(self):
        x = const_sequence(64, 3.0)
        p = reduction_params(limit=3.0)
        assert block_membership(scores(x, p), p, "mean").verdict == MEMBER
        assert block_membership(scores(x, p), p, "count").verdict == MEMBER
        p = reduction_params(blocks=6, limit=3.0)
        assert density_membership(scores(const_sequence(200, 3.0), p), p, ID_MOD).verdict == MEMBER

    def test_too_few_blocks(self):
        x = const_sequence(16, 0.0)
        p = reduction_params(blocks=4)
        with pytest.raises(ValueError, match="blocks"):
            block_membership(scores(x, p), p, "mean")

    def test_nonmember_needs_level_and_trend(self):
        # residuals pinned at 1: non-member
        p = reduction_params(blocks=8, limit=0.0)
        ones = const_sequence(256, 1.0)
        assert block_membership(scores(ones, p), p, "mean", tol=1e-2).verdict == NON_MEMBER

    def test_inconclusive_between_levels(self):
        p = reduction_params(blocks=8, limit=0.0)
        x = const_sequence(256, 1.0)
        # tol chosen so the trail sits between tol and 2 tol
        assert block_membership(scores(x, p), p, "mean", tol=0.9).verdict == INCONCLUSIVE

    def test_verdict_ignores_values_past_last_cut(self):
        rng = np.random.default_rng(6)
        vals = rng.normal(size=64)
        p = reduction_params(limit=0.0)
        base = block_membership(scores(SequencePrefix(vals), p), p, "mean")
        extended = SequencePrefix(np.concatenate([vals, [99.0, -99.0]]))
        extended = block_membership(scores(extended, p), p, "mean")
        assert base.verdict == extended.verdict
        assert base.block_residuals == extended.block_residuals

    def test_unknown_block_mode_rejected(self):
        p = reduction_params()
        with pytest.raises(ValueError, match="block mode"):
            block_membership(scores(const_sequence(64, 0.0), p), p, "density")

    @pytest.mark.parametrize("mode", ["mean", "count"])
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_tol_must_be_positive_and_finite(self, mode, tol):
        p = reduction_params()
        with pytest.raises(ValueError, match="positive and finite"):
            block_membership(scores(const_sequence(64, 0.0), p), p, mode, tol)


class TestSpaceParams:
    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), 0.0, -1.0])
    def test_eps_must_be_positive_and_finite(self, eps):
        with pytest.raises(ValueError, match="positive and finite"):
            reduction_params(eps=eps)

    @pytest.mark.parametrize("limit", [float("nan"), float("inf"), float("-inf")])
    def test_limit_must_be_finite(self, limit):
        with pytest.raises(ValueError, match="limit must be finite"):
            reduction_params(limit=limit)


class TestDensityMode:
    @pytest.mark.parametrize("matrix", ["identity", "cesaro"])
    def test_block_trails_equal_standalone_ones(self, matrix):
        x = spike_sequence(5000, make_index_set("squares"), base=2.0, delta=1.0)
        p = SpaceParams(SQUARED, make_lacunary("powers2", 10), limit=2.0)
        s = scores(x, p, make_matrix(matrix))
        rep = density_membership(s, p, ID_MOD)
        t, c, counts = block_trails(s, p)
        assert rep.block_residuals == tuple(float(v) for v in t)
        assert rep.exceedance_ratios == tuple(float(v) for v in c)
        assert rep.exceedance_counts == tuple(int(v) for v in counts)

    def test_spike_on_squares_id_member(self):
        n = 100_000
        x = spike_sequence(n, make_index_set("squares"), base=2.0, delta=1.0)
        p = SpaceParams(LINEAR, make_lacunary("powers2", 16), limit=2.0)
        rep = density_membership(scores(x, p), p, ID_MOD)
        assert rep.verdict == MEMBER
        assert rep.density.converged

    def test_spike_on_squares_log1p_non_member(self):
        n = 100_000
        x = spike_sequence(n, make_index_set("squares"), base=2.0, delta=1.0)
        p = SpaceParams(LINEAR, make_lacunary("powers2", 16), limit=2.0)
        rep = density_membership(scores(x, p), p, LOG_MOD)
        assert rep.verdict == NON_MEMBER
        assert rep.density.value == pytest.approx(0.5, abs=0.05)

    def test_bounded_modulus_rejected(self):
        p = reduction_params()
        with pytest.raises(ValueError, match="bounded"):
            density_membership(scores(const_sequence(200, 0.0), p), p, make_modulus("bounded"))

    def test_peak_memory(self):
        # transform, scores and route: the identity transform is a view of x,
        # and the scores divide in place
        x = alternating_sequence(2 ** 20, 1.0, 2.0)
        p = SpaceParams(LINEAR, make_lacunary("powers2", 10), limit=1.0)
        tracemalloc.start()
        try:
            density_membership(scores(x, p), p, ID_MOD)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * x.values.nbytes

    def test_peak_memory_cesaro(self):
        # transform, scores and route: the Cesaro transform divides the running
        # sums in place, with no weight array
        x = alternating_sequence(2 ** 20, 1.0, 2.0)
        p = SpaceParams(LINEAR, make_lacunary("powers2", 10), limit=1.5)
        tracemalloc.start()
        try:
            density_membership(scores(x, p, make_matrix("cesaro")), p, ID_MOD)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * x.values.nbytes


def estimate(values, params, f=ID_MOD):
    """The limit estimate of ``values`` under the one modulus ``f``."""
    return stat_limit_estimate(np.asarray(values, dtype=float), params, [f])[0][0]


class TestLimitEstimate:
    def test_constant(self):
        p = reduction_params(limit=None)
        assert estimate(const_sequence(1000, 3.0).values, p) == 3.0

    def test_spike_on_squares(self):
        n = 100_000
        x = spike_sequence(n, make_index_set("squares"), base=2.0, delta=1.0)
        p = SpaceParams(LINEAR, make_lacunary("powers2", 16), limit=None)
        assert estimate(x.values, p) == 2.0

    def test_alternating_has_no_limit(self):
        p = reduction_params(limit=None)
        assert estimate(alternating_sequence(1000).values, p) is None

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="positive and finite"):
            estimate(const_sequence(1000, 3.0).values, reduction_params(limit=None, eps=eps))

    def test_returns_the_winners_scores(self):
        p = reduction_params(limit=None)
        (limit,), s = stat_limit_estimate(const_sequence(1000, 3.0).values, p, [ID_MOD])
        assert limit == 3.0 and np.all(s == 0.0)

    def test_bins_past_int64(self):
        # 1e19 / eps = 1e20 bin widths, which an int64 cast would overflow
        values = np.where(np.arange(1000) % 2 == 0, 0.0, 1e19)
        assert estimate(values, reduction_params(limit=None)) is None

    def test_median_of_huge_values(self):
        # the mean of two middle values of 1e308 overflows unless halved first
        assert estimate(np.full(1000, 1e308), reduction_params(limit=None)) == 1e308

    def test_median_of_subnormal_values(self):
        assert estimate(np.full(1000, 5e-324), reduction_params(limit=None)) == 5e-324

    def test_spread_past_the_float_range(self):
        values = np.where(np.arange(1000) % 2 == 0, 1.5e308, -1.5e308)
        with pytest.raises(ValueError, match="^the transformed values spread past the float range; supply --limit$"):
            estimate(values, reduction_params(limit=None))


_MEDIAN_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 5e-324, -5e-324, 1e308, 1.7e308, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300)
@given(values=st.lists(_MEDIAN_VALUES, min_size=1, max_size=12), pad=st.integers(0, 3))
def test_run_median_equal_to_numpy(values, pad):
    # signed zeros, subnormals, and middle pairs whose sum overflows, which the
    # run median halves and doubles as the reference does with np.median; the run
    # sits inside a longer sorted array.  np.sort and np.partition may order -0.0
    # and 0.0 differently, so the medians compare with ==, which takes -0.0 == 0.0
    x = np.asarray(values, dtype=float)
    for v in (x, x / 2.0):
        ys = np.concatenate([np.full(pad, -np.inf), np.sort(v), np.full(pad, np.inf)])
        with np.errstate(over="ignore"):
            want = np.median(v)
            if not np.isfinite(want):
                want = 2.0 * np.median(v / 2.0)
        got = membership._run_median(ys, pad, v.size)
        assert type(got) is float
        assert got == want


class TestCauchy:
    def test_convergent(self):
        rep = stat_cauchy_check(harmonic_sequence(10_000).values, 0.1, ID_MOD)
        assert rep.cauchy
        assert rep.anchor is not None

    def test_spike_on_squares_uses_clean_anchor(self):
        n = 10_000
        x = spike_sequence(n, make_index_set("squares"), base=2.0, delta=1.0)
        rep = stat_cauchy_check(x.values, 0.1, ID_MOD, tol=0.02)
        assert rep.cauchy
        assert np.diff(make_index_set("squares").counts([rep.anchor - 1, rep.anchor]))[0] == 0

    def test_alternating_not_cauchy(self):
        rep = stat_cauchy_check(alternating_sequence(1000).values, 0.5, ID_MOD)
        assert not rep.cauchy
        assert rep.anchor is None

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="positive and finite"):
            stat_cauchy_check(harmonic_sequence(1000).values, eps, ID_MOD)

    def test_overflowing_deviation_rejected(self):
        y = np.where(np.arange(1000) % 2 == 0, 1.5e308, -1.5e308)
        with pytest.raises(ValueError, match="non-finite"):
            stat_cauchy_check(y, 0.1, ID_MOD)

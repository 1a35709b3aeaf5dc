import tracemalloc

import numpy as np
import pytest

from seqlab.core import SequencePrefix, make_index_set, make_lacunary
from seqlab.errors import TruncationError
from seqlab.matrices import make_matrix, transform_prefix
from seqlab.membership import (INCONCLUSIVE, MEMBER, NON_MEMBER, SpaceParams,
                               block_membership, block_trails,
                               density_membership, pointwise_scores,
                               stat_cauchy_check, stat_limit_estimate)
from seqlab.modulus import make_modulus
from seqlab.orlicz import const_rho, make_orlicz, uniform_family
from seqlab.sequences import (alternating_sequence, const_sequence,
                              harmonic_sequence, spike_sequence)

IDENTITY = make_matrix("identity")
LINEAR = uniform_family(make_orlicz("linear"))
SQUARED = uniform_family(make_orlicz("poly:2"))
ID_MOD = make_modulus("id")
LOG_MOD = make_modulus("log1p")


def scores(x, params):
    return pointwise_scores(transform_prefix(params.matrix, x, len(x)), params)


def reduction_params(blocks=6, limit=0.0, eps=0.1):
    # alpha=1, theta=(2^r), linear gauge, rho=1, identity transform
    return SpaceParams(IDENTITY, LINEAR, make_lacunary("powers2", blocks),
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
        p = SpaceParams(IDENTITY, SQUARED, make_lacunary("powers2", 6), limit=2.0)
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
        p = SpaceParams(IDENTITY, SQUARED, make_lacunary("powers2", 6), limit=0.0)
        with pytest.raises(ValueError, match="^non-finite score at index 2$"):
            scores(x, p)


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
            brute = sum(1 for i in range(lo + 1, hi + 1) if s[i - 1] >= p.eps)
            assert counts[r - 1] == brute

    def test_scheme_past_truncation(self):
        with pytest.raises(TruncationError):
            block_trails(np.zeros(32), reduction_params(blocks=6))
        with pytest.raises(TruncationError, match="^scheme extends to 64, past the sequence truncation 32$"):
            block_membership(const_sequence(32, 0.0), reduction_params(blocks=6), "mean")


class TestVerdicts:
    def test_constant_member_everywhere(self):
        x = const_sequence(64, 3.0)
        p = reduction_params(limit=3.0)
        assert block_membership(x, p, "mean").verdict == MEMBER
        assert block_membership(x, p, "count").verdict == MEMBER
        assert density_membership(const_sequence(200, 3.0), reduction_params(blocks=6, limit=3.0),
                                  ID_MOD).verdict == MEMBER

    def test_too_few_blocks(self):
        x = const_sequence(16, 0.0)
        p = reduction_params(blocks=4)
        with pytest.raises(ValueError, match="blocks"):
            block_membership(x, p, "mean")

    def test_nonmember_needs_level_and_trend(self):
        # residuals pinned at 1: non-member
        p = reduction_params(blocks=8, limit=0.0)
        ones = const_sequence(256, 1.0)
        assert block_membership(ones, p, "mean", tol=1e-2).verdict == NON_MEMBER

    def test_inconclusive_between_levels(self):
        p = reduction_params(blocks=8, limit=0.0)
        x = const_sequence(256, 1.0)
        # tol chosen so the trail sits between tol and 2 tol
        assert block_membership(x, p, "mean", tol=0.9).verdict == INCONCLUSIVE

    def test_verdict_ignores_values_past_last_cut(self):
        rng = np.random.default_rng(6)
        vals = rng.normal(size=64)
        p = reduction_params(limit=0.0)
        base = block_membership(SequencePrefix(vals), p, "mean")
        extended = block_membership(SequencePrefix(np.concatenate([vals, [99.0, -99.0]])), p, "mean")
        assert base.verdict == extended.verdict
        assert base.block_residuals == extended.block_residuals

    def test_unknown_block_mode_rejected(self):
        with pytest.raises(ValueError, match="block mode"):
            block_membership(const_sequence(64, 0.0), reduction_params(), "density")

    @pytest.mark.parametrize("mode", ["mean", "count"])
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_tol_must_be_positive_and_finite(self, mode, tol):
        with pytest.raises(ValueError, match="positive and finite"):
            block_membership(const_sequence(64, 0.0), reduction_params(), mode, tol)


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
        p = SpaceParams(make_matrix(matrix), SQUARED, make_lacunary("powers2", 10), limit=2.0)
        rep = density_membership(x, p, ID_MOD)
        t, c, counts = block_trails(scores(x, p), p)
        assert rep.block_residuals == tuple(float(v) for v in t)
        assert rep.exceedance_ratios == tuple(float(v) for v in c)
        assert rep.exceedance_counts == tuple(int(v) for v in counts)

    def test_spike_on_squares_id_member(self):
        n = 100_000
        x = spike_sequence(n, make_index_set("squares"), base=2.0, delta=1.0)
        p = SpaceParams(IDENTITY, LINEAR, make_lacunary("powers2", 16), limit=2.0)
        rep = density_membership(x, p, ID_MOD)
        assert rep.verdict == MEMBER
        assert rep.density.converged

    def test_spike_on_squares_log1p_non_member(self):
        n = 100_000
        x = spike_sequence(n, make_index_set("squares"), base=2.0, delta=1.0)
        p = SpaceParams(IDENTITY, LINEAR, make_lacunary("powers2", 16), limit=2.0)
        rep = density_membership(x, p, LOG_MOD)
        assert rep.verdict == NON_MEMBER
        assert rep.density.value == pytest.approx(0.5, abs=0.05)

    def test_bounded_modulus_rejected(self):
        x = const_sequence(200, 0.0)
        with pytest.raises(ValueError, match="bounded"):
            density_membership(x, reduction_params(), make_modulus("bounded"))

    def test_peak_memory(self):
        # the identity transform is a view of x, and the scores divide in place
        x = alternating_sequence(2 ** 20, 1.0, 2.0)
        p = SpaceParams(IDENTITY, LINEAR, make_lacunary("powers2", 10), limit=1.0)
        tracemalloc.start()
        try:
            density_membership(x, p, ID_MOD)
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
        p = SpaceParams(IDENTITY, LINEAR, make_lacunary("powers2", 16), limit=None)
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


class TestCauchy:
    def test_convergent(self):
        rep = stat_cauchy_check(harmonic_sequence(10_000), reduction_params(limit=None), ID_MOD)
        assert rep.cauchy
        assert rep.anchor is not None

    def test_spike_on_squares_uses_clean_anchor(self):
        n = 10_000
        x = spike_sequence(n, make_index_set("squares"), base=2.0, delta=1.0)
        p = SpaceParams(IDENTITY, LINEAR, make_lacunary("powers2", 13), limit=None)
        rep = stat_cauchy_check(x, p, ID_MOD, tol=0.02)
        assert rep.cauchy
        assert np.diff(make_index_set("squares").counts([rep.anchor - 1, rep.anchor]))[0] == 0

    def test_alternating_not_cauchy(self):
        rep = stat_cauchy_check(alternating_sequence(1000), reduction_params(limit=None, eps=0.5),
                                ID_MOD)
        assert not rep.cauchy
        assert rep.anchor is None

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="positive and finite"):
            stat_cauchy_check(harmonic_sequence(1000), reduction_params(limit=None, eps=eps),
                              ID_MOD)

    def test_overflowing_deviation_rejected(self):
        x = SequencePrefix(np.where(np.arange(1000) % 2 == 0, 1.5e308, -1.5e308))
        with pytest.raises(ValueError, match="non-finite"):
            stat_cauchy_check(x, reduction_params(limit=None), ID_MOD)

import math

import numpy as np
import pytest

from seqlab.core import make_index_set, make_lacunary
from seqlab.errors import (CauchyConstructionError, GenerationError,
                           WitnessExtractionError)
from seqlab.matrices import make_matrix, transform_prefix
from seqlab.membership import MEMBER, NON_MEMBER, SpaceParams, block_trails, pointwise_scores
from seqlab.modulus import make_modulus
from seqlab.orlicz import OrliczFn, make_orlicz, uniform_family
from seqlab.sequences import (alternating_sequence, const_sequence,
                              harmonic_sequence, spike_sequence)
from seqlab.witnesses import (block_spike_report, cauchy_limit_construction,
                              converge_off_witness, extract_witness_set,
                              gen_block_spike_instance, gen_half_plateau_instance,
                              half_plateau_report, multi_modulus_probe)

IDENTITY = make_matrix("identity")
LINEAR = uniform_family(make_orlicz("linear"))
ID_MOD = make_modulus("id")
LOG_MOD = make_modulus("log1p")


def scores(x, params):
    return pointwise_scores(transform_prefix(IDENTITY, x, len(x)), params)


def identity_params(blocks, limit, n=None):
    return SpaceParams(LINEAR, make_lacunary("powers2", blocks), limit=limit)


def spike_instance(n=100_000, base=2.0, delta=1.0):
    x = spike_sequence(n, make_index_set("squares"), base=base, delta=delta)
    blocks = int(math.log2(n))
    return x, identity_params(blocks, limit=base)


class TestHalfPlateau:
    def test_cut_recurrence(self):
        x, p = gen_half_plateau_instance(2.0, 0.5, 8)
        ratio = 4.0
        cuts = [0]
        for r in range(1, 9):
            cuts.append(max(cuts[-1] + 2, math.ceil(ratio * 2.0 ** r)))
        assert list(p.scheme.cuts) == cuts

    def test_residual_bound_and_ratio_half(self):
        x, p = gen_half_plateau_instance(1.0, 1.0, 10)
        t, c, _ = block_trails(scores(x, p), p)
        bounds = 2.0 ** -np.arange(1, 11, dtype=float)
        assert np.all(t <= bounds + 1e-12)
        assert np.all(np.abs(c - 0.5) <= 1e-12)

    def test_residuals_match_direct_summation(self):
        nu, rho = 1.0, 1.0
        x, p = gen_half_plateau_instance(nu, rho, 8)
        t, _, _ = block_trails(scores(x, p), p)
        for r in range(1, 9):
            lo, hi = p.scheme.block(r)
            expected = sum((nu / rho) / i for i in range(lo + 1, hi + 1) if x.values[i - 1] != 0.0)
            expected /= (hi - lo)
            assert t[r - 1] == pytest.approx(expected, rel=1e-12)

    def test_membership_split(self):
        x, p = gen_half_plateau_instance(1.0, 1.0, 10)
        rep = half_plateau_report(x, p)
        assert rep.mean_report.verdict == MEMBER
        assert rep.count_report.verdict == NON_MEMBER
        assert rep.checks["bound_satisfied"]
        assert rep.matches_expected

    def test_degenerate_zero_height(self):
        x, p = gen_half_plateau_instance(0.0, 1.0, 8)
        assert np.all(x.values == 0.0)
        rep = half_plateau_report(x, p)
        assert rep.mean_report.verdict == MEMBER
        assert rep.count_report.verdict == MEMBER

    def test_budget_guard(self):
        with pytest.raises(GenerationError):
            gen_half_plateau_instance(1e6, 1.0, 10)

    def test_needs_six_blocks(self):
        with pytest.raises(ValueError):
            gen_half_plateau_instance(1.0, 1.0, 4)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["nu", "rho"])
    def test_non_finite_parameter_named(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            gen_half_plateau_instance(**{"nu": 1.0, "rho": 1.0, name: bad})


@pytest.mark.parametrize("report", ["half-plateau", "block-spike"])
def test_both_block_verdicts_from_one_scoring(monkeypatch, report):
    import seqlab.witnesses as witnesses_mod

    calls = []
    score = witnesses_mod.pointwise_scores
    monkeypatch.setattr(witnesses_mod, "pointwise_scores",
                        lambda *args: calls.append(args) or score(*args))
    if report == "half-plateau":
        half_plateau_report(*gen_half_plateau_instance(1.0, 1.0, 10))
    else:
        block_spike_report(*gen_block_spike_instance(make_orlicz("linear"),
                                                     make_lacunary("powers2", 12))[:2])
    assert len(calls) == 1


class TestBlockSpike:
    def test_linear_heights_equal_block_lengths(self):
        _, p, heights = gen_block_spike_instance(make_orlicz("linear"), make_lacunary("powers2", 12))
        np.testing.assert_allclose(heights, p.scheme.h, rtol=1e-9)

    def test_quadratic_heights_are_square_roots(self):
        rho = 2.0
        _, p, heights = gen_block_spike_instance(make_orlicz("poly:2"), make_lacunary("powers2", 10), rho=rho)
        expected = rho * np.sqrt(p.scheme.h.astype(float))
        np.testing.assert_allclose(heights, expected, rtol=1e-9)

    def test_trails(self):
        x, p, _ = gen_block_spike_instance(make_orlicz("linear"), make_lacunary("powers2", 12))
        rep = block_spike_report(x, p)
        assert rep.checks["residuals_at_least_one"]
        assert rep.checks["one_spike_per_block"]
        h = p.scheme.h.astype(float)
        assert rep.mean_report.exceedance_ratios == tuple(1.0 / h)
        assert rep.count_report.verdict == MEMBER
        assert rep.mean_report.verdict == NON_MEMBER
        assert rep.matches_expected

    def test_bounded_gauge_rejected(self):
        sat = OrliczFn("sat", lambda t: t / (1.0 + t))
        with pytest.raises(GenerationError):
            gen_block_spike_instance(sat, make_lacunary("powers2", 8))

    def test_alpha_refused_before_the_heights(self):
        # a bounded gauge would fail the height search: alpha is checked first
        sat = OrliczFn("sat", lambda t: t / (1.0 + t))
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\], got 1.5$") as exc:
            gen_block_spike_instance(sat, make_lacunary("powers2", 8), alpha=1.5)
        assert not isinstance(exc.value, GenerationError)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rho_named(self, bad):
        with pytest.raises(ValueError, match=f"^rho constant must be positive and finite, got {bad}$"):
            gen_block_spike_instance(make_orlicz("linear"), make_lacunary("powers2", 8), rho=bad)


class TestWitnessExtraction:
    def test_spike_on_squares(self):
        x, p = spike_instance(100_000)
        ws = extract_witness_set(scores(x, p), ID_MOD, depth=5)
        members = ws.members.members_upto(len(x))
        squares = make_index_set("squares").members_upto(len(x))
        assert np.all(np.isin(members, squares))
        assert all(a < b for a, b in zip(ws.thresholds, ws.thresholds[1:]))
        assert ws.off_tail_sup <= 1.0 / 5
        assert ws.density.converged and ws.density.value <= 0.01

    def test_round_trip(self):
        x, p = spike_instance(100_000)
        s = scores(x, p)
        ws = extract_witness_set(s, ID_MOD, depth=5)
        off = converge_off_witness(s, ws.members, p.eps, tol=1.0 / 5)
        assert off.passed
        # index 1 is a square the construction never reaches (thresholds start past it)
        assert off.i0 == 1

    def test_norm_convergent_gives_small_witness(self):
        x = harmonic_sequence(10_000, level=2.0)
        p = identity_params(13, limit=2.0)
        ws = extract_witness_set(scores(x, p), ID_MOD, depth=5)
        members = ws.members.members_upto(len(x))
        # every score above 1/5 lives below index 5
        assert members.size <= 5
        assert ws.density.converged and ws.density.value <= 0.01

    def test_alternating_stuck_at_level_two(self):
        x = alternating_sequence(10_000)  # 1, 0, 1, 0, ...
        p = identity_params(13, limit=0.0)
        with pytest.raises(WitnessExtractionError) as err:
            extract_witness_set(scores(x, p), ID_MOD, depth=5)
        assert err.value.stuck_level == 2

    def test_level_counts_match_brute_force(self):
        x, p = spike_instance(10_000, delta=0.3)
        ws = extract_witness_set(scores(x, p), ID_MOD, depth=4)
        s = np.abs(x.values - 2.0)
        for j, trail in ws.level_counts.items():
            for cp, count in trail:
                assert count == int(np.sum(s[:cp] > 1.0 / j)), (j, cp)

    def test_depth_floor(self):
        x, p = spike_instance(10_000)
        with pytest.raises(ValueError):
            extract_witness_set(scores(x, p), ID_MOD, depth=1)


class TestOffWitness:
    def test_explicit_squares_cover_exactly(self):
        x, p = spike_instance(10_000)
        off = converge_off_witness(scores(x, p), make_index_set("squares"), p.eps, tol=0.2)
        assert off.passed
        assert off.i0 == 0

    def test_empty_witness_on_convergent(self):
        from seqlab.core import IndexSet
        x = harmonic_sequence(10_000, level=0.0)
        p = identity_params(13, limit=0.0)
        off = converge_off_witness(scores(x, p), IndexSet.from_members("empty", []), p.eps, tol=0.2)
        assert off.passed
        assert off.n_off == 10_000

    def test_evens_carry_all_deviation(self):
        x = alternating_sequence(10_000, first=0.0, second=1.0)  # ones on evens
        p = identity_params(13, limit=0.0)
        off = converge_off_witness(scores(x, p), make_index_set("evens"), p.eps, tol=1e-9)
        assert off.passed
        assert off.i0 == 0


class TestCauchyConstruction:
    def test_harmonic(self):
        nested = cauchy_limit_construction(harmonic_sequence(10_000).values, ID_MOD, depth=10)
        assert abs(nested.value) <= 0.2
        assert nested.width <= 2.0 / 10 + 1e-12

    def test_constant_collapses_exactly(self):
        nested = cauchy_limit_construction(const_sequence(1000, 4.25).values, ID_MOD, depth=10)
        assert nested.value == 4.25
        assert nested.width <= 2.0 / 10 + 1e-12

    def test_spike_on_squares_near_base(self):
        # square spikes thin out like sqrt(n)/n, so the density trail needs a
        # deep truncation before its trailing spread drops below the tolerance
        x, _ = spike_instance(2 ** 17)
        nested = cauchy_limit_construction(x.values, ID_MOD, depth=10)
        assert abs(nested.value - 2.0) <= 2.0 / 10

    def test_alternating_fails(self):
        with pytest.raises(CauchyConstructionError):
            cauchy_limit_construction(alternating_sequence(1000).values, ID_MOD, depth=5)

    def test_overflowing_deviation_rejected(self):
        y = np.where(np.arange(1000) % 2 == 0, 1.5e308, -1.5e308)
        with pytest.raises(ValueError, match=r"^sequence 'dev@1000' contains non-finite values$"):
            cauchy_limit_construction(y, ID_MOD, depth=5)


class TestMultiModulusProbe:
    def test_constant_all_agree(self):
        x = const_sequence(1000, 3.0)
        p = identity_params(9, limit=None)
        rep = multi_modulus_probe(x.values, p, [ID_MOD, LOG_MOD, make_modulus("pow:0.5")])
        assert rep.all_agree
        assert rep.reference == 3.0
        assert rep.norm_convergence

    def test_repeated_modulus_agrees(self):
        rep = multi_modulus_probe(const_sequence(1000, 3.0).values, identity_params(9, limit=None),
                                  [ID_MOD, ID_MOD])
        assert rep.limits == {"id": 3.0}
        assert rep.all_agree

    def test_spike_on_squares_disagreement(self):
        x, p = spike_instance(100_000)
        rep = multi_modulus_probe(x.values, p, [ID_MOD, LOG_MOD])
        assert rep.limits["id"] == 2.0
        assert rep.limits["log1p"] is None
        assert not rep.all_agree
        assert not rep.norm_convergence

    def test_harmonic_agrees_and_converges(self):
        # the exceedance set is finite, but its pow:0.5 trail decays like
        # 1/sqrt(n); a coarser tolerance lets it settle at this truncation
        x = harmonic_sequence(10_000, level=1.0)
        p = identity_params(13, limit=None)
        rep = multi_modulus_probe(x.values, p, [ID_MOD, make_modulus("pow:0.5")], tol=0.1)
        assert rep.all_agree
        assert rep.reference == pytest.approx(1.0, abs=0.01)
        assert rep.norm_convergence

    def test_bounded_modulus_rejected(self):
        x = const_sequence(1000, 0.0)
        p = identity_params(9, limit=None)
        with pytest.raises(ValueError):
            multi_modulus_probe(x.values, p, [make_modulus("bounded")])

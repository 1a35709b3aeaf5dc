import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlab import orlicz as orlicz_mod
from seqlab.core import SequencePrefix, make_lacunary
from seqlab.errors import SpecError, TruncationError, UnboundedNormError
from seqlab.orlicz import (OrliczFn, block_mean_norm, check_orlicz_axioms,
                           complementary, const_rho, delta2_check,
                           luxemburg_norm, make_family, make_orlicz, make_rho,
                           modular, modular_report, orlicz_norm, table_family,
                           uniform_family, weighted_family)
from seqlab.sequences import make_sequence

POLY2 = uniform_family(make_orlicz("poly:2"))
LINEAR = uniform_family(make_orlicz("linear"))
EXPLOG = uniform_family(make_orlicz("explog"))

small_vec = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=12,
)


class TestMakers:
    def test_poly_requires_convex_exponent(self):
        with pytest.raises(SpecError):
            make_orlicz("poly:0.5")

    def test_unknown(self):
        with pytest.raises(SpecError):
            make_orlicz("sinh")

    def test_weighted_family_file(self, tmp_path):
        p = tmp_path / "w.txt"
        p.write_text("1.0\n0.5\n0.25\n")
        fam = make_family(f"weighted:base=linear,weights=file:{p}")
        assert fam.at(2)(4.0) == pytest.approx(2.0)
        got = fam.eval_many(np.asarray([1, 2, 3]), np.asarray([4.0, 4.0, 4.0]))
        np.testing.assert_allclose(got, [4.0, 2.0, 1.0])

    def test_rho_specs(self):
        assert make_rho("const:2").at(5) == 2.0
        with pytest.raises(SpecError):
            make_rho("const:-1")

    def test_rho_table_bounds(self, tmp_path):
        p = tmp_path / "rho.txt"
        p.write_text("1.0\n2.0\n")
        rho = make_rho(f"file:{p}")
        assert rho.at(2) == 2.0
        with pytest.raises(TruncationError):
            rho.at(3)


class TestModular:
    def test_geometric_series(self):
        # sum of (2^{1-k})^2 = sum 4^{1-k} -> 4/3
        n = 30
        x = SequencePrefix(2.0 ** (1.0 - np.arange(1, n + 1, dtype=float)))
        expected = (4.0 / 3.0) * (1.0 - 4.0 ** (-n))
        assert modular(POLY2, x) == pytest.approx(expected, abs=1e-12)
        assert abs(modular(POLY2, x) - 4.0 / 3.0) <= 1e-6

    def test_zero(self):
        assert modular(POLY2, SequencePrefix(np.zeros(5))) == 0.0

    def test_linear(self):
        assert modular(LINEAR, SequencePrefix(np.asarray([3.0, 4.0]))) == 7.0

    def test_overflow_reported(self):
        rep = modular_report(EXPLOG, SequencePrefix(np.asarray([1.0, 1e6, 2.0])))
        assert rep.value == math.inf
        assert rep.overflow_index == 2


class TestLuxemburg:
    def test_poly2_analytic_root(self):
        # solve 9/k^2 + 16/k^2 = 1  =>  k = 5
        x = SequencePrefix(np.asarray([3.0, 4.0]))
        assert luxemburg_norm(POLY2, x, tol=1e-8) == pytest.approx(5.0, abs=1e-8)

    def test_zero_vector(self):
        assert luxemburg_norm(POLY2, SequencePrefix(np.zeros(3))) == 0.0

    def test_modular_bounded_below_hits_growth_cap(self):
        shifted = uniform_family(OrliczFn("1+t", lambda t: 1.0 + t))
        with pytest.raises(UnboundedNormError, match="never drops to 1 within scale 4.5036e"):
            luxemburg_norm(shifted, SequencePrefix(np.asarray([3.0, 4.0])))

    def test_linear_is_absolute_sum(self):
        x = SequencePrefix(np.asarray([1.0, 2.0, 3.0]))
        assert luxemburg_norm(LINEAR, x, tol=1e-8) == pytest.approx(6.0, abs=1e-8)

    @settings(max_examples=40)
    @given(vals=small_vec)
    def test_bracket_certificate(self, vals):
        x = SequencePrefix(np.asarray(vals))
        if not np.any(x.values):
            return
        tol = 1e-8
        k = luxemburg_norm(POLY2, x, tol=tol)
        scaled = SequencePrefix(x.values / (k * (1.0 + 10.0 * tol)))
        assert modular(POLY2, scaled) <= 1.0

    @settings(max_examples=30)
    @given(vals=small_vec, alpha=st.floats(min_value=0.01, max_value=20.0))
    def test_homogeneity(self, vals, alpha):
        x = SequencePrefix(np.asarray(vals))
        if not np.any(x.values):
            return
        base = luxemburg_norm(POLY2, x, tol=1e-10)
        scaled = luxemburg_norm(POLY2, SequencePrefix(alpha * x.values), tol=1e-10)
        assert scaled == pytest.approx(alpha * base, rel=1e-6, abs=1e-8)

    @settings(max_examples=30)
    @given(vals=small_vec, k1=st.floats(min_value=0.1, max_value=10.0),
           factor=st.floats(min_value=1.01, max_value=10.0))
    def test_modular_monotone_in_scale(self, vals, k1, factor):
        x = SequencePrefix(np.asarray(vals))
        k2 = k1 * factor
        m1 = modular(POLY2, SequencePrefix(x.values / k1))
        m2 = modular(POLY2, SequencePrefix(x.values / k2))
        assert m1 >= m2 - 1e-12


class TestOrliczNorm:
    def test_poly2_calculus_minimum(self):
        # g(k) = 1/k + 25 k, minimized at k = 1/5 with value 10
        res = orlicz_norm(POLY2, SequencePrefix(np.asarray([3.0, 4.0])), tol=1e-6)
        assert res.value == pytest.approx(10.0, abs=1e-6)
        assert res.attained == "interior"
        assert res.scale == pytest.approx(0.2, abs=1e-4)

    @pytest.mark.parametrize("s", [1e-15, 1e15, 1e-200, 1e200])
    def test_poly2_closed_form_far_from_one(self, s):
        res = orlicz_norm(POLY2, SequencePrefix(np.asarray([3.0 * s, 4.0 * s])))
        assert res.value == pytest.approx(10.0 * s, rel=1e-12)
        assert res.attained == "interior"
        assert res.scale == pytest.approx(0.2 / s, rel=1e-4)

    def test_zero_vector_edge(self):
        res = orlicz_norm(POLY2, SequencePrefix(np.zeros(4)))
        assert res.value == 0.0
        assert res.attained == "edge"

    def test_linear_edge_limit(self):
        res = orlicz_norm(LINEAR, SequencePrefix(np.asarray([3.0, 4.0])), tol=1e-6)
        assert res.value == pytest.approx(7.0, abs=1e-6)
        assert res.attained == "edge"

    @settings(max_examples=25)
    @given(vals=small_vec)
    def test_order_against_luxemburg(self, vals):
        x = SequencePrefix(np.asarray(vals))
        if not np.any(x.values):
            return
        tol = 1e-8
        lux = luxemburg_norm(POLY2, x, tol=tol)
        orl = orlicz_norm(POLY2, x, tol=tol)
        assert lux <= orl.value + tol


GAUGES = {"poly:2": POLY2, "explog": EXPLOG, "linear": LINEAR}


def norm_value(kind, family, x):
    if kind == "luxemburg":
        return luxemburg_norm(family, x)
    return orlicz_norm(family, x).value


class TestScaleFree:
    @settings(max_examples=60, deadline=None)
    @given(vals=small_vec, exponent=st.floats(min_value=-200.0, max_value=200.0),
           negative=st.booleans())
    @pytest.mark.parametrize("kind", ["luxemburg", "orlicz"])
    @pytest.mark.parametrize("gauge", sorted(GAUGES))
    def test_homogeneity_at_every_scale(self, gauge, kind, vals, exponent, negative):
        x = np.asarray(vals)
        if not np.any(x):
            return
        c = (-1.0 if negative else 1.0) * 10.0 ** exponent
        base = norm_value(kind, GAUGES[gauge], SequencePrefix(x))
        scaled = norm_value(kind, GAUGES[gauge], SequencePrefix(c * x))
        assert scaled == pytest.approx(abs(c) * base, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(vals=small_vec)
    @pytest.mark.parametrize("gauge", sorted(GAUGES))
    def test_luxemburg_orlicz_order(self, gauge, vals):
        x = SequencePrefix(np.asarray(vals))
        if not np.any(x.values):
            return
        lux = luxemburg_norm(GAUGES[gauge], x, tol=1e-8)
        orl = orlicz_norm(GAUGES[gauge], x, tol=1e-6).value
        assert lux * (1.0 - 1e-8) <= orl <= 2.0 * lux * (1.0 + 1e-6)

    @pytest.mark.parametrize("vals, gauge, lux, orl", [
        ([1e-300, 2e-300], "linear", 3e-300, 3e-300),
        ([5e-324], "poly:2", 5e-324, 1e-323),
        ([1e300, -1e300], "poly:2", math.sqrt(2.0) * 1e300, 2.0 * math.sqrt(2.0) * 1e300),
    ])
    def test_closed_forms_at_float_extremes(self, vals, gauge, lux, orl):
        x = SequencePrefix(np.asarray(vals))
        assert luxemburg_norm(GAUGES[gauge], x) == pytest.approx(lux, rel=1e-12)
        assert orlicz_norm(GAUGES[gauge], x).value == pytest.approx(orl, rel=1e-12)

    def test_norm_past_the_float_range_raises(self):
        x = SequencePrefix(np.asarray([1.7e308]))  # the Luxemburg norm is 1.7e308 / ln 2
        with pytest.raises(OverflowError, match="^norm of x overflows the float range: 1.7e"):
            luxemburg_norm(EXPLOG, x)
        with pytest.raises(OverflowError, match="overflows the float range"):
            orlicz_norm(POLY2, SequencePrefix(np.asarray([1e308])))  # 2e308

    def test_scale_past_the_float_range_is_none(self):
        res = orlicz_norm(POLY2, SequencePrefix(np.asarray([5e-324])))  # k* = 1 / 5e-324
        assert res.value == 1e-323
        assert res.scale is None and res.attained == "interior"
        assert orlicz_norm(POLY2, SequencePrefix(np.asarray([0.0]))).scale is None

    def test_linear_edge_at_scale(self):
        x = make_sequence("alt:1,-2", 100_000)
        res = orlicz_norm(LINEAR, x)
        assert res.attained == "edge"
        assert res.value == pytest.approx(150_000.0, rel=1e-12)

    def test_weighted_poly2_closed_form(self):
        w = np.linspace(0.5, 2.0, 1000)
        family = weighted_family(make_orlicz("poly:2"), lambda idx: w[idx - 1])
        x = make_sequence("alt:1.5,-0.25", 1000)
        want = math.sqrt(math.fsum(w * x.values ** 2))
        assert orlicz_norm(family, x).value == pytest.approx(2.0 * want, rel=1e-9)
        assert luxemburg_norm(family, x) == pytest.approx(want, rel=1e-12)


class TestPassCounts:
    """Modular passes per norm stay few and do not depend on the values, so
    runs over drawn values repeat the same work."""

    @pytest.fixture
    def passes(self, monkeypatch):
        count = [0]
        eval_many = orlicz_mod.OrliczFamily.eval_many

        def counted(self, idx, t):
            count[0] += 1
            return eval_many(self, idx, t)

        monkeypatch.setattr(orlicz_mod.OrliczFamily, "eval_many", counted)

        def run(kind, family, x):
            count[0] = 0
            norm_value(kind, family, x)
            return count[0]

        return run

    @pytest.mark.parametrize("kind, limit", [("luxemburg", 8), ("orlicz", 25)])
    @pytest.mark.parametrize("gauge", sorted(GAUGES))
    def test_alt_values(self, passes, gauge, kind, limit):
        rng = np.random.default_rng(7)
        draws = [(1.0, -2.0), (1.01, -2.02), (1.0, -2.02), (1.01, -2.0)]
        draws += [(round(rng.uniform(1.0, 1.01), 5), round(rng.uniform(-2.02, -2.0), 5))
                  for _ in range(4)]
        counts = {passes(kind, GAUGES[gauge], make_sequence(f"alt:{a},{b}", 100_000))
                  for a, b in draws}
        assert len(counts) == 1 and counts.pop() <= limit

    @pytest.mark.parametrize("kind, limit", [("luxemburg", 8), ("orlicz", 25)])
    def test_ladder(self, passes, kind, limit):
        rng = np.random.default_rng(8)
        counts = set()
        for s in (1e-200, 1e-15, 1e-6, 1.0, 1e6, 1e15, 1e200):
            for u in [1.0, 1.05] + [round(rng.uniform(1.0, 1.05), 4) for _ in range(3)]:
                x = SequencePrefix(np.asarray([float(f"{3 * u * s:.12g}"), float(f"{4 * u * s:.12g}")]))
                counts.add(passes(kind, POLY2, x))
        assert len(counts) == 1 and counts.pop() <= limit


class TestComplementary:
    def test_legendre_pair(self):
        half_square = uniform_family(OrliczFn("halfsq", lambda t: t * t / 2.0))
        res = complementary(half_square, 1, 3.0, u_max=10.0, grid=2000)
        assert res.value == pytest.approx(4.5, abs=1e-4)
        assert not res.diverged

    def test_zero_argument(self):
        res = complementary(POLY2, 3, 0.0, u_max=5.0, grid=1000)
        assert res.value == 0.0

    def test_linear_divergence(self):
        res = complementary(LINEAR, 1, 2.0, u_max=10.0, grid=1000)
        assert res.diverged

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            complementary(POLY2, 1, 1.0, u_max=1.0, grid=10)


class TestDelta2:
    def test_poly2_exact_doubling(self):
        rep = delta2_check(POLY2, a=1.0, big_k=4.0, c=0.0,
                           ks=range(1, 9), us=np.linspace(0.0, 2.0, 101))
        assert rep.passed

    def test_linear(self):
        rep = delta2_check(LINEAR, a=1.0, big_k=2.0, c=0.0,
                           ks=range(1, 9), us=np.linspace(0.0, 2.0, 101))
        assert rep.passed

    def test_power_tower_family_fails(self):
        fam = table_family([OrliczFn(f"t^{k}", lambda t, _k=k: np.power(t, _k))
                            for k in range(1, 9)])
        rep = delta2_check(fam, a=1.0, big_k=4.0, c=0.0,
                           ks=range(1, 9), us=np.linspace(0.0, 1.0, 101))
        assert not rep.passed
        k, u, lhs, rhs = rep.witness
        assert k >= 3
        # recompute the witness inequality directly
        assert 2.0 ** k * u ** k > 4.0 * u ** k
        assert lhs > rhs

    def test_c_schedule_reported(self):
        rep = delta2_check(POLY2, a=1.0, big_k=4.0, c=lambda k: 1.0 / k ** 2,
                           ks=[1, 2, 4], us=[0.1, 0.5])
        assert rep.c_sum == pytest.approx(1.0 + 0.25 + 1.0 / 9.0 + 1.0 / 16.0)


TABLE = table_family([make_orlicz("linear"), make_orlicz("poly:2"), make_orlicz("explog"),
                      make_orlicz("poly:3.5"), OrliczFn("t^3", lambda t: np.power(t, 3))])


class TestTableFamily:
    @pytest.mark.parametrize("idx, named", [([2, 9, 0], 9), ([2, 0, 9], 0), ([6], 6)])
    def test_out_of_range_names_first_in_array_order(self, idx, named):
        with pytest.raises(TruncationError, match=rf"covers indices 1\.\.5, got {named}$"):
            TABLE.eval_many(np.asarray(idx), np.ones(len(idx)))


class TestBlockMeanNorm:
    def test_ones(self):
        for spec, r in (("powers2", 4), ("explicit:0,3,7,20", None)):
            scheme = make_lacunary(spec, r)
            x = SequencePrefix(np.ones(scheme.k_max))
            assert block_mean_norm(x, scheme) == 1.0

    def test_first_position_indicators(self):
        scheme = make_lacunary("powers2", 4)
        vals = np.zeros(scheme.k_max)
        for r in range(1, 5):
            lo, _ = scheme.block(r)
            vals[lo] = 1.0
        assert block_mean_norm(SequencePrefix(vals), scheme) == 0.5  # 1/h_1

    def test_zero(self):
        scheme = make_lacunary("powers2", 3)
        assert block_mean_norm(SequencePrefix(np.zeros(8)), scheme) == 0.0

    def test_truncation_error(self):
        scheme = make_lacunary("powers2", 4)
        with pytest.raises(TruncationError):
            block_mean_norm(SequencePrefix(np.zeros(8)), scheme)

    @settings(max_examples=30)
    @given(vals=st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=8, max_size=8))
    def test_zero_iff_zero_on_covered_range(self, vals):
        scheme = make_lacunary("powers2", 3)
        x = SequencePrefix(np.asarray(vals))
        norm = block_mean_norm(x, scheme)
        if np.any(x.values[:8] != 0.0):
            assert norm > 0.0
        else:
            assert norm == 0.0


class TestOrliczAxioms:
    @pytest.mark.parametrize("spec", ["linear", "poly:2", "poly:1.5", "explog"])
    def test_builtins_pass(self, spec):
        rep = check_orlicz_axioms(make_orlicz(spec))
        assert rep.passed, (spec, rep)

    def test_sqrt_fails_convexity(self):
        rep = check_orlicz_axioms(OrliczFn("sqrt", np.sqrt))
        assert not rep.midpoint_convex.passed
        s, t = rep.midpoint_convex.witness
        assert math.sqrt((s + t) / 2.0) > (math.sqrt(s) + math.sqrt(t)) / 2.0 + 1e-12

    def test_bounded_fails_growth(self):
        rep = check_orlicz_axioms(OrliczFn("sat", lambda t: t / (1.0 + t)))
        assert not rep.grows_unbounded.passed

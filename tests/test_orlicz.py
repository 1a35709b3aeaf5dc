import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqlab import orlicz as orlicz_mod
from seqlab.core import SequencePrefix, make_lacunary
from seqlab.membership import SpaceParams, pointwise_scores
from seqlab.errors import SpecError, TruncationError, UnboundedNormError
from seqlab.orlicz import (OrliczFamily, OrliczFn, block_mean_norm,
                           check_orlicz_axioms, delta2_check, luxemburg_norm,
                           make_family, make_orlicz, make_rho, modular,
                           orlicz_norm, uniform_family, weighted_family)
from seqlab.sequences import make_sequence
from seqlab.witnesses import gen_half_plateau_instance

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
        got = fam.eval_many(np.asarray([1, 2, 3]), np.asarray([4.0, 4.0, 4.0]))
        np.testing.assert_allclose(got, [4.0, 2.0, 1.0])

    def test_rho_specs(self):
        np.testing.assert_array_equal(make_rho("const:2").values(np.asarray([5])), [2.0])
        with pytest.raises(SpecError):
            make_rho("const:-1")

    def test_rho_table_bounds(self, tmp_path):
        p = tmp_path / "rho.txt"
        p.write_text("1.0\n2.0\n")
        rho = make_rho(f"file:{p}")
        np.testing.assert_array_equal(rho.values(np.asarray([2])), [2.0])
        with pytest.raises(TruncationError, match=r"covers 1\.\.2, index 3 requested$"):
            rho.values(np.asarray([3]))


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
        assert modular(EXPLOG, SequencePrefix(np.asarray([1.0, 1e6, 2.0]))) == math.inf


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

    def test_scale_halves_to_a_root_below_one(self):
        # M(t) = sqrt(t)/2 leaves the modular of x = (1) under 1 at k = 1, so the bracket
        # halves k until it passes the root sqrt(1/k)/2 = 1, at k = 1/4
        family = OrliczFamily("halfsqrt", lambda i, t: 0.5 * np.sqrt(t))
        assert luxemburg_norm(family, SequencePrefix([1.0])) == 0.25

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


def rounding_interval(v):
    """The reals that round to the float v, v -/+ ulp(v) / 2, as exact fractions.

    Below the normal range that half ulp is a large share of v: two correctly
    rounded norms can break an order their true values keep.
    """
    half = Fraction(math.ulp(v)) / 2
    return Fraction(v) - half, Fraction(v) + half


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
    @example(vals=[5e-324])  # explog: true norms 1.44 and 2.72 units round to 1 and 3
    @pytest.mark.parametrize("gauge", sorted(GAUGES) + ["poly:1.5"])
    def test_luxemburg_orlicz_order(self, gauge, vals):
        x = SequencePrefix(np.asarray(vals))
        if not np.any(x.values):
            return
        family = uniform_family(make_orlicz(gauge))
        lux_lo, lux_hi = rounding_interval(luxemburg_norm(family, x, tol=1e-8))
        orl_lo, orl_hi = rounding_interval(orlicz_norm(family, x, tol=1e-6).value)
        assert lux_lo * (1 - Fraction(1, 10 ** 8)) <= orl_hi
        assert orl_lo <= 2 * lux_hi * (1 + Fraction(1, 10 ** 6))

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
        call = orlicz_mod._Modular.__call__

        def counted(self, s):
            count[0] += 1
            return call(self, s)

        monkeypatch.setattr(orlicz_mod._Modular, "__call__", counted)

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


def one_sum(family, idx, t):
    """The modular as it was before blocking: every index and term in one
    n-length array, summed by one ``np.sum``.  The blocked passes must return
    the same bits."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(np.sum(family.eval_many(idx, t)))
    return total if math.isfinite(total) else math.inf


class ReferenceModular:
    """``_Modular`` as it was before blocking, its passes made by ``one_sum``."""

    def __init__(self, family, x):
        a = np.abs(x.values)
        self.family = family
        self.unit = float(a.max())
        self.a = a / self.unit
        self.idx = np.arange(1, a.size + 1, dtype=np.int64)
        self.label = x.label or "x"
        self.passes = 0

    def __call__(self, s):
        self.passes += 1
        return one_sum(self.family, self.idx, self.a * s)

    scale_back = orlicz_mod._Modular.scale_back


B = orlicz_mod._BLOCK
BITWISE_NS = [1, 7, B - 1, B, B + 1, 3 * B + 5, 2 ** 20 + 3]
BITWISE_SCALES = (1e-3, 0.37, 1.0, 2.5, 30.0, 700.0, 1e3, 1e6)
BITWISE_W = np.random.default_rng(11).uniform(0.01, 100.0, BITWISE_NS[-1])
BITWISE_FAMILIES = {**GAUGES,
                    "weighted": weighted_family(make_orlicz("explog"), lambda idx: BITWISE_W[idx - 1])}


def bitwise_prefix(n):
    # magnitudes spread over six decades, so every partial sum rounds
    rng = np.random.default_rng(n)
    return SequencePrefix(rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0, n))


class TestBlockedModular:
    @pytest.mark.parametrize("n", BITWISE_NS)
    @pytest.mark.parametrize("gauge", sorted(BITWISE_FAMILIES))
    def test_pass_equals_one_sum(self, gauge, n):
        family, x = BITWISE_FAMILIES[gauge], bitwise_prefix(n)
        mod, ref = orlicz_mod._Modular(family, x), ReferenceModular(family, x)
        assert mod.unit == ref.unit and np.array_equal(mod.a, ref.a)
        # explog overflows to inf from s = 710 on, at the index of max|x|
        for s in BITWISE_SCALES:
            assert mod(s) == ref(s), s
        if gauge == "explog":
            assert mod(1e3) == math.inf
        assert modular(family, x) == one_sum(family, ref.idx, np.abs(x.values))

    @pytest.mark.parametrize("gauge", sorted(BITWISE_FAMILIES))
    def test_norms_equal_one_sum_norms(self, monkeypatch, gauge):
        family, x = BITWISE_FAMILIES[gauge], bitwise_prefix(BITWISE_NS[-1])
        blocked = luxemburg_norm(family, x), orlicz_norm(family, x)
        monkeypatch.setattr(orlicz_mod, "_Modular", ReferenceModular)
        assert blocked == (luxemburg_norm(family, x), orlicz_norm(family, x))

    @pytest.mark.parametrize("size", [3 * B + 4, 3])
    @pytest.mark.parametrize("kind", ["luxemburg", "orlicz"])
    def test_short_weight_table_names_index_n(self, tmp_path, kind, size):
        # the block holding index n goes first, as in pointwise_scores
        n = 3 * B + 5
        path = tmp_path / "w.txt"
        path.write_text("1.5\n" * size)
        family = make_family(f"weighted:base=poly:2,weights=file:{path}")
        with pytest.raises(TruncationError, match=rf"covers 1\.\.{size}, index {n} requested$"):
            norm_value(kind, family, make_sequence("alt:1,-2", n))


class TestBlockPlan:
    @staticmethod
    def assert_plan(n):
        blocks, adds = orlicz_mod._block_plan(n)
        assert [lo for lo, _ in sorted(blocks)] == [0] + [hi for _, hi in sorted(blocks)][:-1]
        assert max(hi for _, hi in blocks) == n
        assert all(0 < hi - lo <= B for lo, hi in blocks)
        assert blocks[0][1] == n  # so a weight table short of n names index n
        # each addition reads two earlier entries, and every entry but the total is read once
        assert all(max(pair) < len(blocks) + m for m, pair in enumerate(adds))
        assert sorted(i for pair in adds for i in pair) == list(range(len(blocks) + len(adds) - 1))

    @pytest.mark.parametrize("n", BITWISE_NS)
    def test_blocks_partition_and_index_n_goes_first(self, n):
        self.assert_plan(n)

    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(min_value=1, max_value=2 ** 20 + 3), gauge=st.sampled_from(sorted(BITWISE_FAMILIES)))
    @example(n=2 ** 19 + 3 * B + 1, gauge="weighted")
    def test_planned_pass_equals_one_sum(self, n, gauge):
        self.assert_plan(n)
        family, x = BITWISE_FAMILIES[gauge], bitwise_prefix(n)
        mod, ref = orlicz_mod._Modular(family, x), ReferenceModular(family, x)
        for s in BITWISE_SCALES:
            assert mod(s) == ref(s), s


POWER_TOWER = OrliczFamily("t^k", lambda idx, t: np.power(t, idx))


class TestEvalBlock:
    @pytest.fixture(scope="class")
    def families(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("weights") / "w.txt"
        np.savetxt(path, 1.0 + np.arange(5 * B + 300) % 7 / 4.0, fmt="%.17g")
        return {**GAUGES, "file-weighted": make_family(f"weighted:base=poly:2,weights=file:{path}"),
                "t/i": gen_half_plateau_instance()[1].family, "t^k": POWER_TOWER}

    @pytest.mark.parametrize("lo", [0, 1, B - 1, 5 * B])
    @pytest.mark.parametrize("name", sorted(GAUGES) + ["file-weighted", "t/i", "t^k"])
    def test_equals_eval_many_bit_for_bit(self, families, name, lo):
        t = np.random.default_rng(lo).uniform(0.0, 3.0, 300)
        with np.errstate(over="ignore", under="ignore"):
            got = families[name].eval_block(lo, t)
            want = families[name].eval_many(np.arange(lo + 1, lo + t.size + 1), t)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_uniform_families_make_no_eval_many_call(self, monkeypatch):
        calls = []
        eval_many = OrliczFamily.eval_many

        def spy(self, idx, t):
            calls.append(self.name)
            return eval_many(self, idx, t)

        monkeypatch.setattr(OrliczFamily, "eval_many", spy)
        x = bitwise_prefix(3 * B + 5)
        params = SpaceParams(POLY2, make_lacunary("powers2", 6), rho=make_rho("const:2"), limit=0.0)
        luxemburg_norm(POLY2, x), orlicz_norm(POLY2, x), pointwise_scores(x.values, params)
        assert calls == []
        # while a family that reads its indices goes through eval_many on every block
        luxemburg_norm(BITWISE_FAMILIES["weighted"], x)
        assert calls and set(calls) == {BITWISE_FAMILIES["weighted"].name}


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
        fam = OrliczFamily("t^k", lambda idx, t: np.power(t, idx))
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

    @pytest.mark.parametrize("name, kwargs", [
        ("a", {"a": math.nan}), ("a", {"a": math.inf}), ("a", {"a": 0.0}), ("a", {"a": -1.0}),
        ("big_k", {"big_k": math.nan}), ("big_k", {"big_k": math.inf}), ("big_k", {"big_k": 0.0}),
        ("ks", {"ks": []}), ("ks", {"ks": [0]}), ("ks", {"ks": [3, -1, 2]}),
    ])
    def test_bad_parameter_named(self, name, kwargs):
        # a = nan once passed with no pair checked, ks = [] raised a bare
        # max() error and ks = [0] read index 0 of a family indexed from 1
        args = {"a": 1.0, "big_k": 4.0, "c": 0.0, "ks": range(1, 9), "us": [0.1, 0.5], **kwargs}
        with pytest.raises(ValueError, match=f"^{name} must be "):
            delta2_check(POLY2, **args)


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

    def test_decreasing_gauge_fails_growth_at_its_first_drop(self):
        # t e^-t falls from M(1) to M(10), so the growth check names that pair
        rep = check_orlicz_axioms(OrliczFn("texp", lambda t: t * np.exp(-t)))
        assert (rep.grows_unbounded.passed, rep.grows_unbounded.witness, rep.grows_unbounded.note) == (
            False, (1.0, 10.0), "M(10^k) fails to increase in k")

    def test_bounded_fails_growth(self):
        rep = check_orlicz_axioms(OrliczFn("sat", lambda t: t / (1.0 + t)))
        assert not rep.grows_unbounded.passed

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqlab.errors import SpecError
from seqlab.modulus import Modulus, check_modulus_axioms, make_modulus

BUILTINS = ["id", "log1p", "pow:0.5", "bounded", "pow:0.1", "pow:0.25", "pow:0.4"]
UNBOUNDED = ["id", "log1p", "pow:0.5", "pow:0.25"]

positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)


def test_id():
    f = make_modulus("id")
    assert f(3.0) == 3.0
    assert f.unbounded


def test_log1p():
    f = make_modulus("log1p")
    assert f(0.0) == 0.0
    assert f(np.e - 1) == pytest.approx(1.0)


def test_pow_half():
    assert make_modulus("pow:0.5")(4.0) == pytest.approx(2.0)


def test_bounded_flag_and_cap():
    f = make_modulus("bounded")
    assert not f.unbounded
    ts = 10.0 ** np.arange(0, 13)
    assert np.all(f(ts) < 1.0)


@pytest.mark.parametrize("bad", ["pow:0", "pow:-1", "pow:1.5", "pow:x", "exp"])
def test_bad_specs(bad):
    with pytest.raises(SpecError):
        make_modulus(bad)


def test_unbounded_growth_in_k():
    for spec in UNBOUNDED:
        f = make_modulus(spec)
        vals = f(10.0 ** np.arange(0, 13))
        assert np.all(np.diff(vals) > 0), spec


class TestAxiomChecker:
    def test_id_passes_small_grid(self):
        rep = check_modulus_axioms(make_modulus("id"), grid=[1.0, 2.0, 3.0])
        assert rep.passed

    @pytest.mark.parametrize("spec", BUILTINS)
    def test_builtins_pass_default_grid(self, spec):
        rep = check_modulus_axioms(make_modulus(spec))
        assert rep.passed, (spec, rep)

    def test_square_fails_subadditivity_with_witness(self):
        sq = Modulus("square", lambda t: t * t)
        rep = check_modulus_axioms(sq, grid=[1.0, 2.0, 3.0])
        assert not rep.subadditive.passed
        # f(1+1) = 4 > f(1) + f(1) = 2
        assert rep.subadditive.witness == (1.0, 1.0)
        assert not rep.passed

    def test_pow_half_passes_spec_grid(self):
        rep = check_modulus_axioms(make_modulus("pow:0.5"), grid=[0.1, 1.0, 10.0])
        assert rep.passed

    def test_decreasing_fails_monotone(self):
        f = Modulus("anti", lambda t: 1.0 / (1.0 + t))
        rep = check_modulus_axioms(f, grid=[1.0, 2.0])
        assert not rep.monotone.passed
        assert rep.monotone.witness == (1.0, 2.0)

    def test_jump_at_zero_fails_right_continuity(self):
        f = Modulus("jump", lambda t: np.where(np.asarray(t) > 0, 1.0 + t, 0.0))
        rep = check_modulus_axioms(f, grid=[1.0, 2.0])
        assert rep.vanishes_at_zero.passed
        assert not rep.right_continuous_at_zero.passed

    def test_tiny_power_is_a_sampled_false_negative(self):
        # f(10^-300) = 10^-3 > 1e-6: the sampled check cannot see pow:0.01 reach 0
        rep = check_modulus_axioms(make_modulus("pow:0.01"))
        assert not rep.right_continuous_at_zero.passed
        assert rep.right_continuous_at_zero.witness[0] == 1e-300

    def test_nonzero_at_zero(self):
        f = Modulus("shift", lambda t: t + 1.0)
        rep = check_modulus_axioms(f, grid=[1.0])
        assert not rep.vanishes_at_zero.passed

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            check_modulus_axioms(make_modulus("id"), grid=[])
        with pytest.raises(ValueError):
            check_modulus_axioms(make_modulus("id"), grid=[-1.0, 2.0])


@pytest.mark.parametrize("spec", BUILTINS)
@given(x=positive, y=positive)
def test_subadditive_property(spec, x, y):
    f = make_modulus(spec)
    assert f(x + y) <= f(x) + f(y) + 1e-12


@pytest.mark.parametrize("spec", BUILTINS)
@given(x=positive, y=positive)
def test_monotone_property(spec, x, y):
    f = make_modulus(spec)
    lo, hi = min(x, y), max(x, y)
    assert f(lo) <= f(hi) + 1e-12

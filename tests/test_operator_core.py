import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plapext import (DomainError, NonConvergenceError, OperatorSpec,
                     make_spec, phi_eval, phi_inverse, phi_inverse_array,
                     phi_inverse_bracket, unit_ball_volume,
                     validate_conditions)
from plapext.operator_core import phi_prime


def test_plap_phi_is_power():
    spec = make_spec(3.0, 2)
    t = np.array([0.0, 0.5, 1.0, 4.0])
    assert np.allclose(phi_eval(spec, t), t ** 2)
    assert phi_eval(spec, 3.0) == pytest.approx(9.0)


def test_constant_coefficient_scales_phi():
    spec = make_spec(2.0, 2, "const:2.5")
    assert phi_eval(spec, 4.0) == pytest.approx(10.0)
    assert spec.delta == spec.L_up == 2.5


def test_alpha_exponent():
    assert make_spec(3.0, 2).alpha == pytest.approx(0.5)
    assert make_spec(4.0, 3).alpha == pytest.approx(1.0 / 3.0)


def test_bracket_contains_inverse():
    spec = make_spec(2.7, 2, "smooth-bump")
    for s in (1e-6, 0.3, 1.0, 7.0, 1e5):
        lo, hi = phi_inverse_bracket(spec, s)
        t = phi_inverse(spec, s)
        assert lo <= t <= hi
        assert phi_eval(spec, t) == pytest.approx(s, rel=1e-10)


def test_inverse_array_matches_scalar():
    spec = make_spec(1.6, 2, "smooth-bump")
    s = np.geomspace(1e-4, 1e4, 25)
    t = phi_inverse_array(spec, s)
    for si, ti in zip(s, t):
        assert ti == pytest.approx(phi_inverse(spec, si), rel=1e-11)


def test_inverse_without_a_root_raises():
    # A jumps from 1 to 2 at t = 1, so phi skips (1, 2): no t meets the
    # residual target for s = 1.5, and the iteration must say so
    spec = OperatorSpec(p=3.0, n=2, A=lambda t: np.where(t < 1.0, 1.0, 2.0),
                        delta=1.0, L_up=2.0)
    assert phi_inverse_array(spec, np.array([0.5, 4.0])) == pytest.approx(
        [np.sqrt(0.5), np.sqrt(2.0)], rel=1e-12)
    with pytest.raises(NonConvergenceError):
        phi_inverse_array(spec, np.array([0.5, 1.5, 4.0]))


@settings(max_examples=40, deadline=None)
@given(coeff=st.sampled_from(["smooth-bump", "expr:1 + 0.5*exp(-t)"]),
       p=st.floats(1.5, 4.0),
       exponents=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=40))
def test_inverse_array_elements_do_not_depend_on_the_batch(coeff, p,
                                                            exponents):
    # each element stops at its own first point meeting the target, so a
    # batch gives bitwise the values of one-element calls
    spec = make_spec(p, 2, coeff)
    s = 10.0 ** np.asarray(exponents)
    t = phi_inverse_array(spec, s)
    alone = np.array([phi_inverse_array(spec, s[i:i + 1])[0]
                      for i in range(len(s))])
    assert np.array_equal(t, alone)
    assert np.all(np.abs(phi_eval(spec, t) - s) <= 1e-12 * s)


def test_inverse_takes_a_bracket_end_that_meets_the_target():
    # for t > 8, smooth-bump's A(t) rounds to its lower bound 1, so the
    # upper bracket end (s/delta)^(1/(p-1)) is the root to rounding
    spec = make_spec(3.0, 2, "smooth-bump")
    s = np.geomspace(1e2, 1e40, 30)
    assert np.array_equal(phi_inverse_array(spec, s),
                          phi_inverse_bracket(spec, s)[1])


def test_inverse_at_zero():
    spec = make_spec(3.0, 2)
    assert phi_inverse(spec, 0.0) == 0.0


def test_phi_prime_constant_coefficient():
    spec = make_spec(3.0, 2)
    # phi(t) = t^2 so phi'(t) = 2t exactly on the closed-form branch
    assert phi_prime(spec, 1.7) == pytest.approx(3.4)


def test_phi_prime_finite_difference_branch():
    spec = make_spec(3.0, 2, "smooth-bump")
    t = 0.8
    h = 1e-6 * t
    oracle = (phi_eval(spec, t + h) - phi_eval(spec, t - h)) / (2 * h)
    assert phi_prime(spec, t) == pytest.approx(oracle, rel=1e-12)


def test_validate_conditions_plap():
    report = validate_conditions(make_spec(3.0, 2))
    assert report.all_passed


def test_validate_conditions_smooth_bump():
    report = validate_conditions(make_spec(3.0, 2, "smooth-bump"))
    assert report.all_passed


@pytest.mark.parametrize("p", [1.2, 1.3])
def test_non_monotone_phi_rejected(p):
    # smooth-bump's phi decreases on part of (1, 3) for p <= 1.3
    with pytest.raises(DomainError, match=r"\(iii\) phi strictly increasing"):
        make_spec(p, 2, "smooth-bump")


def test_monotone_phi_from_p_1_4_builds():
    spec = make_spec(1.4, 2, "smooth-bump")
    assert validate_conditions(spec).all_passed


def test_bad_spec_rejected():
    with pytest.raises(DomainError):
        make_spec(1.0, 2)
    with pytest.raises(DomainError):
        make_spec(3.0, 1)
    with pytest.raises(DomainError):
        make_spec(3.0, 2, "const:-1")


def test_unit_ball_volume():
    assert unit_ball_volume(2) == pytest.approx(np.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * np.pi / 3.0)


def test_phi_rejects_negative_argument():
    with pytest.raises(DomainError):
        phi_eval(make_spec(3.0, 2), -1.0)

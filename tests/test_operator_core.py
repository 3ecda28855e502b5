import dataclasses
import warnings

import mpmath
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


def test_phi_is_the_formula_and_zero_at_zero():
    # bitwise t^(p-1) A(t) for t > 0, and 0 at t = 0, for every catalog kind
    t = np.array([0.0, 1e-300, 0.3, 1.0, 7.5])
    for spec in (make_spec(1.5, 2), make_spec(3.7, 3, "const:2.5"),
                 make_spec(1.5, 2, "smooth-bump"),
                 make_spec(2.5, 2, "expr:1 + 1/(1 + t)")):
        general = np.where(t > 0, t, 1.0) ** (spec.p - 1.0) * spec.coeff(t)
        assert np.array_equal(phi_eval(spec, t),
                              np.where(t > 0, general, 0.0))


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
                        dA=np.zeros_like, delta=1.0, L_up=2.0)
    assert phi_inverse_array(spec, np.array([0.5, 4.0])) == pytest.approx(
        [np.sqrt(0.5), np.sqrt(2.0)], rel=1e-12)
    with pytest.raises(NonConvergenceError):
        phi_inverse_array(spec, np.array([0.5, 1.5, 4.0]))


def test_inverse_failures_name_their_cause():
    # A below its declared window: the root lies above the bracket
    low = OperatorSpec(p=3.0, n=2, A=lambda t: 0.5 + 0.1 * np.exp(-t),
                       dA=lambda t: -0.1 * np.exp(-t), delta=1.0, L_up=2.0)
    with pytest.raises(NonConvergenceError, match="window does not bound A"):
        phi_inverse_array(low, np.array([0.3]))
    # phi^{-1}(s) ~ s^2 at p = 1.5 is below the smallest normal double; the
    # iteration meets phi(t) = 0 on the way and must say so without warnings
    bump = make_spec(1.5, 2, "smooth-bump")
    for s in (1e-160, 1e-200):
        with warnings.catch_warnings(), \
                pytest.raises(NonConvergenceError, match="smallest normal"):
            warnings.simplefilter("error")
            phi_inverse_array(bump, np.array([s]))


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


def _mp_phi_prime(A, p, t):
    return mpmath.diff(lambda x: x ** (p - 1) * A(x), mpmath.mpf(t))


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_phi_prime_smooth_bump_is_exact(p):
    # phi' from the closed-form A' = -0.5 (t-1) exp(-(t-1)^2), against a
    # 30-digit derivative of phi itself
    spec = make_spec(p, 2, "smooth-bump")
    t = np.concatenate((np.geomspace(1e-3, 1e3, 19), [0.5, 1.0, 1.7, 2.5]))
    with mpmath.workdps(30):
        ref = [_mp_phi_prime(lambda x: 1 + mpmath.exp(-(x - 1) ** 2) / 4,
                             mpmath.mpf(p), ti) for ti in t]
    assert phi_prime(spec, t) == pytest.approx(np.array(ref, dtype=float),
                                               rel=1e-13)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_phi_prime_of_an_expression_coefficient_is_exact(p):
    spec = make_spec(p, 2, "expr:1 + 0.5*exp(-t) + 0.1*sin(t)/(1 + t^2)")
    t = np.geomspace(1e-2, 1e2, 13)
    with mpmath.workdps(30):
        ref = [_mp_phi_prime(lambda x: 1 + mpmath.exp(-x) / 2
                             + mpmath.sin(x) / (10 * (1 + x ** 2)),
                             mpmath.mpf(p), ti) for ti in t]
    assert phi_prime(spec, t) == pytest.approx(np.array(ref, dtype=float),
                                               rel=1e-13)


@pytest.mark.parametrize("coeff", ["plap", "const:2.5"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.7])
def test_phi_prime_constant_coefficient_keeps_its_closed_form(coeff, p):
    spec = make_spec(p, 2, coeff)
    t = np.concatenate((np.geomspace(1e-8, 1e8, 33), [0.3, 1.7]))
    assert np.array_equal(phi_prime(spec, t),
                          spec.const_value * (p - 1.0) * t ** (p - 2.0))


def test_a_coefficient_without_its_derivative_is_rejected():
    with pytest.raises(DomainError, match="derivative"):
        OperatorSpec(p=3.0, n=2, A=lambda t: np.ones_like(t))


# coefficient evaluations and evaluated elements of one phi_inverse_array
# call on 61 values s = 1e-30 ... 1e30: the start, the check of t0, then
# one per Newton iteration, over the elements still iterating
INVERSE_BUDGET = {1.5: (5, 131), 2.5: (4, 142), 3.0: (4, 149), 4.0: (4, 161)}


@pytest.mark.parametrize("p", sorted(INVERSE_BUDGET))
def test_inverse_coefficient_evaluations_stay_within_the_budget(p):
    spec = make_spec(p, 2, "smooth-bump")
    sizes = []

    def counted(t):
        sizes.append(np.size(t))
        return spec.A(t)
    s = np.geomspace(1e-30, 1e30, 61)
    t = phi_inverse_array(dataclasses.replace(spec, A=counted), s)
    assert np.array_equal(t, phi_inverse_array(spec, s))
    assert (len(sizes), sum(sizes)) == INVERSE_BUDGET[p]


def test_inverse_of_zero_is_zero_without_warnings():
    spec = make_spec(3.0, 2, "smooth-bump")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(phi_inverse_array(spec, np.zeros(3)),
                              np.zeros(3))
        t = phi_inverse_array(spec, np.array([0.0, 2.0, 0.0]))
        assert phi_inverse_array(spec, np.zeros((0, 3))).shape == (0, 3)
    assert t[0] == t[2] == 0.0
    assert phi_eval(spec, t[1]) == pytest.approx(2.0, rel=1e-12)


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

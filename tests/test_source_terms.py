import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plapext import (DomainError, check_decay, check_part_b_conditions,
                     annulus_norm, counterexample_residual,
                     counterexample_source, counterexample_u, exterior_norm,
                     harnack_K, make_spec, power_decay_source,
                     source_from_name, zero_source)
from plapext.quadrature import DivergenceError, integrate, tail_panel_sums


def test_zero_source():
    f = zero_source()
    assert np.all(f(np.geomspace(0.1, 100, 9)) == 0.0)
    # tagged with C_f = 0 so envelope formulas degenerate to the pure
    # maximum principle
    assert f.decay_tagged and f.C_f == 0.0


def test_power_decay_values():
    spec = make_spec(3.0, 2)
    f = power_decay_source(spec, C_f=2.0, eps=1.0)
    assert f(0.5) == pytest.approx(2.0)          # constant inside the unit ball
    assert f(4.0) == pytest.approx(2.0 * 4.0 ** -4.0)
    assert f.decay_tagged and f.C_f == 2.0 and f.eps == 1.0


def _density(f, n):
    return lambda s: f(s) * s ** (n - 1.0)


@settings(max_examples=60, deadline=None)
@given(C_f=st.floats(-3.0, 3.0), eps=st.floats(0.05, 3.0),
       p=st.floats(1.1, 8.0), n=st.sampled_from([2, 3, 4]),
       a=st.floats(0.01, 0.99), b=st.floats(1.01, 100.0))
def test_density_integral_across_r_1_matches_quadrature(C_f, eps, p, n, a, b):
    f = power_decay_source(make_spec(p, n), C_f, eps)
    got = f.density_integral(np.array([a, a, 1.0]), np.array([b, 1.0, b]), n)
    for value, (lo, hi) in zip(got, [(a, b), (a, 1.0), (1.0, b)]):
        ref = integrate(_density(f, n), lo, hi, breakpoints=(1.0,))
        assert value == pytest.approx(ref, rel=1e-12, abs=1e-300)


@settings(max_examples=60, deadline=None)
@given(C_f=st.floats(0.1, 3.0), eps=st.floats(0.05, 3.0),
       p=st.floats(1.1, 8.0), n=st.sampled_from([2, 3, 4]),
       a=st.floats(0.1, 20.0))
def test_density_tail_matches_the_doubling_panel_sum(C_f, eps, p, n, a):
    # a density decaying at least like s^(-1.5), whose doubling panels
    # settle well inside the 1e-12 asked of the closed form; they start
    # at 1 at the latest, since one across the kink is good to 1e-11 only
    assume(p + eps >= n + 0.5)
    f = power_decay_source(make_spec(p, n), C_f, eps)
    kink = max(a, 1.0)
    ref = integrate(_density(f, n), a, kink) \
        + float(np.sum(tail_panel_sums(_density(f, n), kink)[1]))
    assert float(f.density_integral(a, np.inf, n)) == pytest.approx(
        ref, rel=1e-12)


@pytest.mark.parametrize("p,n,C_f,eps,a,b", [
    (3.0, 2, 1.0, 1.0, 0.25, np.inf), (2.5, 3, 1.3, 0.8, 0.5, 7.0),
    (4.0, 4, 0.7, 0.5, 1.6, np.inf), (6.0, 3, 2.0, 0.1, 1.0 + 1e-9, 1.0 + 2e-9),
    (1.5, 4, -0.4, 3.0, 0.001, 0.002)])
def test_density_integral_matches_30_digit_mpmath(p, n, C_f, eps, a, b):
    q = mpmath.mpf(p) + mpmath.mpf(eps)
    with mpmath.workdps(30):
        g = lambda s: C_f * s ** (n - 1) * (1 if s <= 1 else s ** -q)
        ends = [mpmath.mpf(a)] + ([mpmath.mpf(1)] if a < 1 < b else []) \
            + [mpmath.inf if np.isinf(b) else mpmath.mpf(b)]
        ref = float(mpmath.quad(g, ends))
    f = power_decay_source(make_spec(p, n), C_f, eps)
    assert float(f.density_integral(a, b, n)) == pytest.approx(ref, rel=1e-14)


@settings(max_examples=30, deadline=None)
@given(C_f=st.floats(0.1, 3.0), p=st.floats(1.1, 1.9),
       n=st.sampled_from([2, 3, 4]), share=st.floats(0.01, 1.0),
       a=st.floats(0.1, 20.0))
def test_divergent_density_tail_raises(C_f, p, n, share, a):
    # p + eps <= n: the tail is reported, while finite intervals stay finite
    f = power_decay_source(make_spec(p, n), C_f, share * (n - p))
    with pytest.raises(DivergenceError):
        f.density_integral(np.array([a, 2.0 * a]), np.inf, n)
    assert np.isfinite(f.density_integral(a, 2.0 * a, n))


def test_zero_source_density_integral_is_zero():
    got = zero_source().density_integral(np.array([[0.5, 2.0]]), np.inf, 3)
    assert got.shape == (1, 2) and np.all(got == 0.0)


def test_source_from_name_grammar():
    spec = make_spec(3.0, 2)
    f = source_from_name("powerdecay:0.5:2.0", spec)
    assert f.C_f == 0.5 and f.eps == 2.0
    assert source_from_name("zero", spec)(3.0) == 0.0
    g = source_from_name("expr:1/(1+r^2)", spec)
    assert g(2.0) == pytest.approx(0.2)
    with pytest.raises(DomainError):
        source_from_name("nope", spec)


def test_check_decay_confirms_tag():
    spec = make_spec(3.0, 2)
    f = power_decay_source(spec, 1.0, 1.0)
    passed, worst = check_decay(f, spec)
    assert passed
    assert worst <= f.C_f * (1 + 1e-9)
    # the profile of C_f = 2 tagged with C_f = 1
    mistagged = dataclasses.replace(power_decay_source(spec, 2.0, 1.0),
                                    C_f=1.0)
    passed, worst = check_decay(mistagged, spec)
    assert not passed
    assert worst > mistagged.C_f


def test_counterexample_u_exact_points():
    # log log r = 1 at r = e^e; = k*pi at r = e^(e^(k*pi))
    assert counterexample_u(np.e ** np.e) == pytest.approx(np.cos(1.0))
    assert counterexample_u(np.exp(np.exp(np.pi))) == pytest.approx(-1.0)


def test_counterexample_residual_matches_divided_difference():
    # oracle: (phi(|u'|) sgn(u') r^(n-1))' / r^(n-1) with -f convention,
    # by central differencing the exact flux
    p, n = 3.0, 2
    for r in (5.0, 50.0, 2000.0):
        h = r * 1e-6

        def flux(t):
            w = np.log(np.log(t))
            up = -np.sin(w) / (t * np.log(t))
            return np.abs(up) ** (p - 2.0) * up * t ** (n - 1.0)

        oracle = -(flux(r + h) - flux(r - h)) / (2 * h) / r ** (n - 1.0)
        assert counterexample_residual(r, p, n) == pytest.approx(oracle, rel=1e-5)


def test_counterexample_source_extends_inward():
    f = counterexample_source(3.0, 2)
    assert f(1.5) == pytest.approx(f(2.0))


def test_annulus_norm_closed_form():
    # f = r^-3 on 1 <= r <= 2 in the plane: int 2 pi r^-3 r dr = pi
    f = power_decay_source(make_spec(2.0, 2), 1.0, 1.0)
    val = annulus_norm(f, n=2, q=1.0, R_in=1.0, R_out=2.0)
    assert val == pytest.approx(np.pi, rel=1e-10)


def test_exterior_norm_closed_form():
    # int_1^inf 2 pi r^-3 r dr = 2 pi
    f = power_decay_source(make_spec(2.0, 2), 1.0, 1.0)
    val = exterior_norm(f, n=2, q=1.0, R=1.0)
    assert val == pytest.approx(2.0 * np.pi, rel=1e-9)


def test_harnack_K_closed_form_ball_branch():
    # p > n: K = (R^(p-n) ||f||_L1(B_R))^(1/(p-1)); for f = min(1, r^-4)
    # in the plane the ball mass is pi (2 - R^-2)
    spec = make_spec(3.0, 2)
    f = power_decay_source(spec, 1.0, 1.0)
    for R in (4.0, 64.0):
        oracle = np.sqrt(R * np.pi * (2.0 - R ** -2.0))
        assert harnack_K(f, spec, R) == pytest.approx(oracle, rel=1e-9)


def test_harnack_K_exterior_branch_vanishes():
    spec = make_spec(2.0, 3)
    f = power_decay_source(spec, 1.0, 1.0)
    ks = [harnack_K(f, spec, R, theta=0.5) for R in (4.0, 64.0, 1024.0)]
    assert ks[0] > ks[1] > ks[2]
    assert ks[2] < 0.2 * ks[0]


def test_part_b_requires_p_below_n():
    spec = make_spec(3.0, 2)
    with pytest.raises(DomainError):
        check_part_b_conditions(power_decay_source(spec, 1.0, 1.0), spec,
                                r_exp=1.2, theta=0.5)


def test_part_b_power_decay_passes():
    spec = make_spec(2.0, 3)
    f = power_decay_source(spec, 1.0, 1.0)
    rep = check_part_b_conditions(f, spec, r_exp=1.2, theta=0.5, k_max=25)
    assert rep.all_passed


def test_part_b_counterexample_fails_radial_integrability():
    spec = make_spec(2.0, 3)
    f = counterexample_source(2.0, 3)
    rep = check_part_b_conditions(f, spec, r_exp=1.2, theta=0.5, k_max=25)
    assert not rep.flag_Lr
    assert rep.flag_Ltheta and rep.flag_Kgoes0

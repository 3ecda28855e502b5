import numpy as np
import pytest

from plapext import (DomainError, lemma2_C0, lemma2prime_C0, make_lemma1,
                     make_lemma1_prime, make_lemma2, make_lemma2_prime,
                     make_spec, power_decay_source, residual_check,
                     zero_source)
from plapext.quadrature import integrate


def test_constants_reference_values():
    # p=3, n=2, eps=1, C_f=delta=1: C0 = 4 and C0' = sqrt(2)
    spec = make_spec(3.0, 2)
    assert lemma2_C0(spec, 1.0, 1.0) == pytest.approx(4.0, rel=1e-13)
    assert lemma2prime_C0(spec, 1.0, 1.0) == pytest.approx(np.sqrt(2.0),
                                                          rel=1e-13)


def test_ball_barrier_closed_form():
    # A == 1, p=3, n=2, f=0, a=1: v(r) = int_0^r t^(-1/2) dt = 2 sqrt(r)
    spec = make_spec(3.0, 2)
    b = make_lemma1(spec, R=10.0, f_sup=0.0, a=1.0)
    for r in (0.04, 1.0, 7.3, 10.0):
        assert b.value(r) == pytest.approx(2.0 * np.sqrt(r), rel=1e-10)


def test_ball_barrier_vanishes_at_origin():
    spec = make_spec(3.0, 2)
    b = make_lemma1(spec, R=2.0, f_sup=1.0, a=0.5)
    assert b.value(0.0) == 0.0


def test_families_require_supercritical_p():
    spec = make_spec(2.0, 3)
    f = power_decay_source(spec, 1.0, 1.0)
    with pytest.raises(DomainError):
        make_lemma1(spec, 1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        make_lemma2(spec, f, 0.0)
    with pytest.raises(DomainError):
        make_lemma1_prime(spec, 4.0, f, 0.0)
    with pytest.raises(DomainError):
        make_lemma2_prime(spec, 4.0, f, 0.0)


def test_global_barrier_bounded_by_C0():
    spec = make_spec(3.0, 2, "smooth-bump")
    f = power_decay_source(spec, 2.0, 0.5)
    b = make_lemma2(spec, f, a=0.0)
    c0 = lemma2_C0(spec, 2.0, 0.5)
    radii = np.geomspace(0.1, 1e4, 25)
    vals = b.values(radii)
    assert np.all(np.diff(vals[np.argsort(radii)]) >= 0)
    assert np.all(vals <= c0 + 1e-9)


def test_exterior_barrier_vanishes_at_inner_radius():
    spec = make_spec(3.0, 2)
    f = power_decay_source(spec, 1.0, 1.0)
    b = make_lemma2_prime(spec, R=4.0, f=f, a=0.0)
    assert b.value(4.0) == 0.0
    up = lemma2prime_C0(spec, 1.0, 1.0) * (4.0 ** -0.5)
    assert b.value(1e6) <= up + 1e-9


def test_residual_small_and_majorant_dominates():
    spec = make_spec(3.0, 2, "smooth-bump")
    f = power_decay_source(spec, 1.0, 1.0)
    b = make_lemma2(spec, f, a=0.3)
    res, dominates = residual_check(b, f, np.geomspace(0.2, 50.0, 16))
    assert res < 1e-8
    assert dominates


def test_bounds_bracket_values_all_families():
    spec = make_spec(3.5, 2, "smooth-bump")
    f = power_decay_source(spec, 1.3, 0.8)
    barriers = [
        make_lemma1(spec, R=5.0, f_sup=1.3, a=0.7),
        make_lemma2(spec, f, a=0.0),
        make_lemma1_prime(spec, R=8.0, f=f, a=0.4),
        make_lemma2_prime(spec, R=3.0, f=f, a=0.0),
    ]
    for b in barriers:
        lo_dom, hi_dom = b.R_in, b.R_out
        lo_r = max(lo_dom, 0.05)
        hi_r = min(hi_dom, 200.0)
        radii = np.geomspace(lo_r + 1e-9, hi_r, 20)
        vals = b.values(radii)
        lower, upper = b.bounds(radii)
        assert np.all(vals >= lower - 1e-9)
        assert np.all(vals <= upper + 1e-9)


def test_barrier_monotone_in_slope_parameter():
    spec = make_spec(3.0, 2)
    b0 = make_lemma1(spec, R=4.0, f_sup=0.5, a=0.0)
    b1 = make_lemma1(spec, R=4.0, f_sup=0.5, a=1.0)
    for r in (0.5, 2.0, 4.0):
        assert b0.value(r) < b1.value(r)


@pytest.mark.parametrize("family", ["lemma1", "lemma2", "lemma2_prime"])
def test_eval_many_matches_a_per_radius_loop(family):
    # unsorted and repeated radii; lemma2's radii straddle its kink at 1
    spec = make_spec(3.0, 2, "smooth-bump")
    f = power_decay_source(spec, 1.5, 0.8)
    b, radii = {
        "lemma1": (make_lemma1(spec, 5.0, 0.7, 0.5),
                   [3.0, 0.01, 5.0, 0.4, 3.0]),
        "lemma2": (make_lemma2(spec, f, 0.3),
                   [2.5, 0.2, 0.9, 40.0, 0.9, 1.1]),
        "lemma2_prime": (make_lemma2_prime(spec, 2.0, f, 0.0),
                         [50.0, 2.0, 3.0, 1e4, 3.0]),
    }[family]
    left = b.R_in
    singular = family != "lemma2_prime"
    ref = [integrate(b.u_prime, left, r, rel_tol=1e-12,
                     singular_left=singular, breakpoints=(1.0,))
           for r in radii]
    got = b.values(radii)
    assert got == pytest.approx(ref, rel=1e-13, abs=0.0)
    assert b.value(radii[0]) == pytest.approx(ref[0], rel=1e-13, abs=0.0)
    with pytest.raises(DomainError):
        b.values([radii[0], left - 1.0])

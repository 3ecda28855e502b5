import numpy as np
import pytest

from plapext import (DomainError, NonConvergenceError, exterior_limit,
                     flux_residual, make_spec, power_decay_source,
                     solve_exterior_radial, solve_radial_bvp, zero_source)
from plapext.operator_core import phi_inverse_signed
from plapext.quadrature import integrate
from plapext.radial_solver import _source_density, _uprime_tail


def test_harmonic_annulus_log_profile():
    # p = n = 2, f = 0: u = log(r/1) / log(2/1)
    spec = make_spec(2.0, 2)
    sol = solve_radial_bvp(spec, zero_source(), 1.0, 2.0, 0.0, 1.0)
    for r in (1.0, 1.3, 1.8, 2.0):
        assert sol.value(r) == pytest.approx(np.log(r) / np.log(2.0),
                                             abs=1e-10)


def test_p_harmonic_power_profile():
    # p=3, n=2, f=0: u = c1 + c2 r^alpha with alpha = 1/2
    spec = make_spec(3.0, 2)
    sol = solve_radial_bvp(spec, zero_source(), 1.0, 4.0, 2.0, 5.0)
    c2 = 3.0 / (2.0 - 1.0)          # (u_out - u_in)/(R_out^a - R_in^a)
    for r in (1.0, 2.5, 4.0):
        assert sol.value(r) == pytest.approx(2.0 + c2 * (np.sqrt(r) - 1.0),
                                             abs=1e-9)


def test_boundary_values_matched():
    spec = make_spec(1.5, 3)
    f = power_decay_source(spec, 0.7, 1.0)
    sol = solve_radial_bvp(spec, f, 1.0, 3.0, -1.0, 2.0)
    assert sol.value(1.0) == pytest.approx(-1.0, abs=1e-12)
    assert sol.value(3.0) == pytest.approx(2.0, abs=1e-9)


def test_flux_residual_small():
    spec = make_spec(3.0, 2, "smooth-bump")
    f = power_decay_source(spec, 1.0, 1.0)
    sol = solve_radial_bvp(spec, f, 1.0, 8.0, 0.0, 1.0)
    res = flux_residual(sol, np.geomspace(1.0, 8.0, 17))
    assert res < 1e-8


def test_bad_interval_rejected():
    spec = make_spec(2.0, 2)
    with pytest.raises(DomainError):
        solve_radial_bvp(spec, zero_source(), 2.0, 1.0, 0.0, 1.0)


def test_exterior_zero_source_is_constant():
    spec = make_spec(3.0, 2)
    sol = solve_exterior_radial(spec, zero_source(), u_in=1.5, R_in=1.0)
    assert exterior_limit(sol) == pytest.approx(1.5, abs=1e-12)
    assert sol.value(100.0) == pytest.approx(1.5, abs=1e-12)


def test_exterior_saturating_tail_closed_form():
    # p=3, n=2, f = min(1, r^(-4)): the flux constant is C = 1 (density
    # integrals 1/2 + 1/2), so u'(r)^2 r = r^(-2)/2 for r >= 1, i.e.
    # u' = r^(-3/2)/sqrt(2) and ell - u(R) = sqrt(2) R^(-1/2) exactly
    spec = make_spec(3.0, 2)
    f = power_decay_source(spec, 1.0, 1.0)
    sol = solve_exterior_radial(spec, f, u_in=0.0, R_in=1.0)
    ell = exterior_limit(sol)
    for R in (1.0, 4.0, 64.0, 1024.0):
        gap = np.sqrt(2.0) * R ** -0.5
        assert ell - sol.value(R) == pytest.approx(gap, abs=1e-8)


def test_exterior_limit_scales_with_source():
    spec = make_spec(3.0, 2)
    ells = []
    for c in (0.5, 1.0, 2.0):
        f = power_decay_source(spec, c, 1.0)
        ells.append(exterior_limit(solve_exterior_radial(spec, f, 0.0)))
    assert ells[0] < ells[1] < ells[2]


def _uprime_tail_by_node(spec, g, far, n, rel_tol=1e-12, max_panels=400):
    # reference: the in-panel source remainder rebuilt one node at a time
    x8, w8 = np.polynomial.legendre.leggauss(8)
    x16, w16 = np.polynomial.legendre.leggauss(16)
    edges = far * 2.0 ** np.arange(max_panels + 1)
    lo, hi = edges[:-1], edges[1:]
    nodes = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * x8
    panel_g = 0.5 * (hi - lo) * (g(nodes.ravel()).reshape(nodes.shape) @ w8)
    T_edges = np.concatenate((np.cumsum(panel_g[::-1])[::-1], [0.0]))
    total, quiet = 0.0, 0
    for k in range(len(lo)):
        a, b = lo[k], hi[k]
        pts = 0.5 * (a + b) + 0.5 * (b - a) * x16
        rem = [0.5 * (b - s) * float(g(0.5 * (s + b) + 0.5 * (b - s) * x8)
                                     @ w8) for s in pts]
        up = phi_inverse_signed(spec, (T_edges[k + 1] + np.asarray(rem))
                                / pts ** (n - 1.0))
        contrib = 0.5 * (b - a) * float(up @ w16)
        total += contrib
        quiet = quiet + 1 if abs(contrib) <= rel_tol * abs(total) else 0
        if quiet >= 3:
            return total


@pytest.mark.parametrize("coeff", ["plap", "smooth-bump"])
def test_uprime_tail_matches_node_by_node_remainders(coeff):
    spec = make_spec(3.0, 2, coeff)
    g = _source_density(power_decay_source(spec, 1.0, 1.0), 2)
    got = _uprime_tail(spec, g, 64.0, 2)
    assert got == pytest.approx(_uprime_tail_by_node(spec, g, 64.0, 2),
                                rel=1e-14)


def test_uprime_tail_out_of_panels_raises():
    spec = make_spec(3.0, 2)
    g = _source_density(power_decay_source(spec, 1.0, 1.0), 2)
    with pytest.raises(NonConvergenceError):
        _uprime_tail(spec, g, 64.0, 2, max_panels=5)


@pytest.mark.parametrize("coeff", ["plap", "smooth-bump"])
def test_values_match_a_per_radius_loop(coeff):
    # unsorted and repeated radii, R_in itself and the far end included
    spec = make_spec(3.0, 2, coeff)
    f = power_decay_source(spec, 1.0, 1.0)
    radii = np.array([7.5, 1.2, 300.0, 1.2, 1.0, 42.0, 7.5, 2.0])
    for sol in (solve_radial_bvp(spec, f, 1.0, 300.0, 0.5, 2.0),
                solve_exterior_radial(spec, f, 0.5, R_in=1.0)):
        got = sol.values(radii)
        # the same increments, one integrate per gap between sorted radii
        value, prev = {1.0: sol.u_in}, 1.0
        for r in sorted(set(radii) - {1.0}):
            value[r] = value[prev] + integrate(sol.u_prime, prev, r,
                                               rel_tol=1e-12)
            prev = r
        assert got == pytest.approx([value[r] for r in radii], rel=1e-13,
                                    abs=0.0)
        # each radius by its own integral from R_in: u' comes from a C^1
        # spline, on which one G10/K21 estimate at 1e-12 is good to a
        # few 1e-12 only
        whole = [sol.u_in + integrate(sol.u_prime, 1.0, r, rel_tol=1e-12)
                 for r in radii]
        assert got == pytest.approx(whole, rel=1e-11, abs=0.0)
        assert sol.value(radii[2]) == pytest.approx(whole[2], rel=1e-15,
                                                    abs=0.0)


def test_values_outside_the_domain_raise():
    spec = make_spec(3.0, 2)
    sol = solve_radial_bvp(spec, zero_source(), 1.0, 2.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        sol.values([1.5, 2.5])
    with pytest.raises(DomainError):
        sol.value(0.5)


def test_exterior_limit_below_the_critical_exponent():
    # p = 2.5 <= n = 3, f = r^(-p-1) beyond R_in = 1: T(r) = r^(n-p-eps) /
    # (p-n+eps), u' = K r^(-1-eps/(p-1)) with K = (1/(p-n+eps))^(1/(p-1)),
    # so the limit is u_in + K (p-1)/eps; far reaches 1e28, where one
    # bisected panel from R_in missed the tolerance at the depth cap
    spec = make_spec(2.5, 3)
    f = power_decay_source(spec, 1.0, 1.0)
    sol = solve_exterior_radial(spec, f, 1.0, R_in=1.0)
    exact = 1.0 + (1.0 / 0.5) ** (1.0 / 1.5) * 1.5
    assert exterior_limit(sol) == pytest.approx(exact, rel=1e-8)

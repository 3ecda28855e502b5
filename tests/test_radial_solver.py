import numpy as np
import pytest

from plapext import (DomainError, NonConvergenceError, exterior_limit,
                     flux_residual, make_spec, power_decay_source,
                     solve_exterior_radial, solve_radial_bvp,
                     source_from_name, zero_source)
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


def _nodes16(edges):
    # the 16-point Gauss nodes of each doubling panel, a row per panel
    x16 = np.polynomial.legendre.leggauss(16)[0]
    lo, hi = edges[:-1, None], edges[1:, None]
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * x16


def _remainder_tail(g, edges):
    # reference: the source tail T at the 16-point nodes of each doubling
    # panel, the sum of the 8-point panel sums beyond the panel plus the
    # in-panel remainder rebuilt one node at a time
    x8, w8 = np.polynomial.legendre.leggauss(8)
    lo, hi = edges[:-1], edges[1:]
    nodes = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * x8
    panel_g = 0.5 * (hi - lo) * (g(nodes.ravel()).reshape(nodes.shape) @ w8)
    T_edges = np.concatenate((np.cumsum(panel_g[::-1])[::-1], [0.0]))
    pts = _nodes16(edges)
    T_nodes = [[T_edges[k + 1] + 0.5 * (hi[k] - s) * float(
        g(0.5 * (s + hi[k]) + 0.5 * (hi[k] - s) * x8) @ w8) for s in row]
        for k, row in enumerate(pts)]
    return pts, np.asarray(T_nodes)


def _uprime_sum(spec, edges, T_nodes):
    # reference: the u' tail summed panel by panel from T at the nodes of
    # `_nodes16`, with the three-quiet stop
    w16 = np.polynomial.legendre.leggauss(16)[1]
    total, quiet = 0.0, 0
    for k, (x, T) in enumerate(zip(_nodes16(edges), T_nodes)):
        up = phi_inverse_signed(spec, T / x ** (spec.n - 1.0))
        contrib = 0.5 * (edges[k + 1] - edges[k]) * float(up @ w16)
        total += contrib
        quiet = quiet + 1 if abs(contrib) <= 1e-12 * abs(total) else 0
        if quiet >= 3:
            return total
    return None


@pytest.mark.parametrize("coeff", ["plap", "smooth-bump"])
def test_flux_num_beyond_far_is_the_closed_form_tail(coeff):
    # p = 3, n = 2, f = r^(-4) beyond R_in = 1: T(r) = r^(-2)/2
    spec = make_spec(3.0, 2, coeff)
    f = power_decay_source(spec, 1.0, 1.0)
    sol = solve_exterior_radial(spec, f, 0.0, R_in=1.0)
    edges = sol.tail_edges
    assert edges[0] == sol.far_edge and np.all(edges[1:] == 2.0 * edges[:-1])
    pts = _nodes16(edges)
    assert sol.flux_num(pts) == pytest.approx(0.5 * pts ** -2.0, rel=1e-14,
                                              abs=0.0)
    assert _uprime_tail(sol, 0.0) == pytest.approx(
        _uprime_sum(spec, edges, 0.5 * pts ** -2.0), rel=1e-14)


@pytest.mark.parametrize("coeff", ["plap", "smooth-bump"])
def test_spline_tail_beyond_far_matches_node_by_node_remainders(coeff):
    # an `expr:` source has no closed form: T is the 4097-knot spline up
    # to far and the doubling-panel sums beyond
    spec = make_spec(3.0, 2, coeff)
    f = source_from_name("expr:r^(-4)", spec)
    sol = solve_exterior_radial(spec, f, 0.0, R_in=1.0)
    edges = sol.tail_edges
    assert edges[0] == sol.far_edge and np.all(edges[1:] == 2.0 * edges[:-1])
    pts, T_nodes = _remainder_tail(_source_density(f, 2), edges)
    assert sol.flux_num(pts) == pytest.approx(T_nodes, rel=1e-14, abs=0.0)
    assert _uprime_tail(sol, 0.0) == pytest.approx(
        _uprime_sum(spec, edges, T_nodes), rel=1e-14)
    # the spline and the doubling panels meet at far
    assert float(sol.flux_num(edges[0])) == pytest.approx(
        float(sol.flux_num(np.nextafter(edges[0], np.inf))), rel=1e-12)


def _closed_form(p, n, C_f, eps, R_in):
    # plap, f = C_f r^(-p-eps) beyond R_in >= 1: T(r) = C_f r^(n-p-eps) /
    # (p+eps-n), so u' = K r^(-a) with a = (p+eps-1)/(p-1) and K =
    # (C_f/(p+eps-n))^(1/(p-1)); returns K, a and the limit for u_in = 0
    a = (p + eps - 1.0) / (p - 1.0)
    K = (C_f / (p + eps - n)) ** (1.0 / (p - 1.0))
    return K, a, K * R_in ** (1.0 - a) / (a - 1.0)


@pytest.mark.parametrize("C_f,eps,R_in", [(1.0, 1.0, 1.0), (0.5, 2.0, 1.6),
                                          (2.0, 1.5, 3.0)])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [3.0, 4.0, 5.0])
def test_exterior_limit_matches_the_closed_form(p, n, C_f, eps, R_in):
    spec = make_spec(p, n)
    sol = solve_exterior_radial(spec, power_decay_source(spec, C_f, eps),
                                0.0, R_in=R_in)
    exact = _closed_form(p, n, C_f, eps, R_in)[2]
    assert exterior_limit(sol) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("p,n,C_f,eps", [(2.5, 3, 1.0, 0.8),
                                         (2.5, 3, 1.3, 0.8),
                                         (4.0, 4, 1.0, 0.5)])
def test_exterior_limit_where_r_to_the_n_minus_1_overflows(p, n, C_f, eps):
    # far is 2.3e45 and 1.6e28: a tail sweep out to 1.3e154 overflows
    # r^(n-1) into 0 * inf = NaN.  At n = 4 the density underflows near
    # 7e71 while the u' panels are still 3e-9 of the tail, but below 1e-13
    # of the limit
    spec = make_spec(p, n)
    sol = solve_exterior_radial(spec, power_decay_source(spec, C_f, eps),
                                0.0, R_in=1.6)
    assert sol.tail_edges[-1] ** (n - 1) <= 1e290
    exact = _closed_form(p, n, C_f, eps, 1.6)[2]
    assert exterior_limit(sol) == pytest.approx(exact, rel=5e-12)


def test_uprime_beyond_far_matches_the_closed_form():
    spec = make_spec(3.0, 2)
    sol = solve_exterior_radial(spec, power_decay_source(spec, 1.0, 1.0),
                                0.0, R_in=1.0)
    K, a, ell = _closed_form(3.0, 2, 1.0, 1.0, 1.0)
    for r in (4.0 * sol.far_edge, 64.0 * sol.far_edge):
        assert float(sol.u_prime(r)) == pytest.approx(K * r ** -a, rel=1e-10)
        assert sol.value(r) == pytest.approx(
            ell - K * r ** (1.0 - a) / (a - 1.0), abs=1e-10)


@pytest.mark.parametrize("p,n,eps", [(10.0, 2, 0.5), (6.0, 2, 1.0)])
def test_limit_raises_where_the_source_tail_vanishes_first(p, n, eps):
    # where f underflows (4e30 and 9e45) the u' panels are still 8e-4 and
    # 1e-10 of the limit: the sums up to there are 2% and 7.8e-10 short of
    # the closed forms 13.825 and 3.2988
    spec = make_spec(p, n)
    sol = solve_exterior_radial(spec, power_decay_source(spec, 1.0, eps),
                                0.0, R_in=1.6)
    with pytest.raises(NonConvergenceError, match="source tail vanishes"):
        exterior_limit(sol)


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
        # each radius by its own integral from R_in: u' comes from the
        # closed-form source integral, smooth beyond r = 1, on which one
        # G10/K21 estimate at 1e-12 is good to a few ulps
        whole = [sol.u_in + integrate(sol.u_prime, 1.0, r, rel_tol=1e-12)
                 for r in radii]
        assert got == pytest.approx(whole, rel=1e-13, abs=0.0)
        assert sol.value(radii[2]) == pytest.approx(whole[2], rel=1e-15,
                                                    abs=0.0)


@pytest.mark.parametrize("coeff", ["plap", "smooth-bump"])
def test_bvp_read_back_through_gaps_meets_u_out(coeff):
    # u(R_out) as the sum of 63 gap integrals, not the one integral the
    # shooting matched; a spline-built F left it 4.6e-12 away
    spec = make_spec(3.0, 2, coeff)
    sol = solve_radial_bvp(spec, power_decay_source(spec, 1.0, 1.0),
                           1.0, 300.0, 0.5, 2.0)
    u = sol.values(np.geomspace(1.0, 300.0, 64))
    assert u[-1] == pytest.approx(2.0, rel=0.0, abs=1e-13)


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

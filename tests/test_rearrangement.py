import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plapext import (GridFunction, full_talenti_profile, make_spec,
                     phi_inverse_array, power_decay_source, radial_mesh,
                     rearrange, rearrange_samples, solve_dirichlet,
                     talenti_bound, unit_ball_volume)
from plapext.quadrature import G3_K7, G10_K21, integrate
from plapext.rearrangement import _source_rearrangement
from plapext.source_terms import SourceTerm


def _const_source(c):
    return SourceTerm(profile=lambda r: np.full_like(np.asarray(r, float), c),
                      name=f"const:{c}")


def test_three_sample_rearrangement():
    data = rearrange_samples([3.0, 1.0, 2.0], [1.0, 1.0, 1.0], n=2)
    assert list(data.values) == [3.0, 2.0, 1.0]
    assert data.total_measure == pytest.approx(3.0)


def test_decreasing_is_right_continuous_step():
    data = rearrange_samples([2.0, 1.0], [1.0, 2.0], n=2)
    assert data.decreasing(0.5) == 2.0
    assert data.decreasing(1.5) == 1.0
    assert data.decreasing(2.9) == 1.0


def test_equimeasurability():
    rng = np.random.default_rng(7)
    vals = rng.normal(size=60)
    meas = rng.uniform(0.1, 1.0, size=60)
    data = rearrange_samples(np.abs(vals), meas, n=2)
    for t in (0.0, 0.4, 1.1):
        direct = np.sum(meas[np.abs(vals) > t])
        assert data.distribution(t) == pytest.approx(direct, rel=1e-12)


def test_outer_radius_from_total_measure():
    data = rearrange_samples([1.0], [np.pi * 4.0], n=2)
    assert data.outer_radius == pytest.approx(2.0)


def test_rearrangement_of_grid_function_uses_node_measures():
    mesh = radial_mesh(2, 1.0, 2.0, 32)
    u = GridFunction(mesh=mesh, values=-mesh.radii)   # |u| = r, increasing
    data = rearrange(u)
    assert data.values[0] == pytest.approx(2.0)
    assert data.total_measure == pytest.approx(np.sum(mesh.node_measures()))


def test_talenti_bound_constant_source_closed_form():
    # f == c on a ball of radius rho: the kernel is (c/(delta n))^e rho^e
    # with e = 1/(p-1), so the center bound is g + (c/(dn))^e rho^(e+1)/(e+1)
    spec = make_spec(3.0, 2)
    c, rho, g = 2.0, 1.5, 0.3
    measure = unit_ball_volume(2) * rho ** 2
    e = 0.5
    oracle = g + (c / 2.0) ** e * rho ** (e + 1.0) / (e + 1.0)
    got = talenti_bound(g, _const_source(c), spec, measure)
    assert got == pytest.approx(oracle, rel=1e-6)


def test_talenti_bound_monotone_in_source():
    spec = make_spec(3.0, 2)
    measure = unit_ball_volume(2) * 4.0
    bounds = [talenti_bound(0.0, _const_source(c), spec, measure)
              for c in (0.5, 1.0, 2.0)]
    assert bounds[0] < bounds[1] < bounds[2]


def test_full_profile_matches_power_bound_for_plap():
    # for A == 1 the exact phi-inverse equals the delta-power kernel, so the
    # center value of the full profile equals talenti_bound
    spec = make_spec(3.0, 2)
    measure = unit_ball_volume(2) * 2.25
    f = _const_source(1.0)
    bound = talenti_bound(0.4, f, spec, measure)
    center = full_talenti_profile(0.4, f, spec, measure, 0.0)
    assert center == pytest.approx(bound, rel=1e-6)


def test_full_profile_boundary_value():
    spec = make_spec(3.0, 2)
    measure = unit_ball_volume(2) * 2.25
    rho_max = 1.5
    val = full_talenti_profile(0.4, _const_source(1.0), spec, measure, rho_max)
    assert val == pytest.approx(0.4, abs=1e-10)


def test_symmetrized_solution_below_talenti_bound():
    spec = make_spec(3.0, 2)
    f = power_decay_source(spec, 1.0, 1.0)
    mesh = radial_mesh(2, 1.0, 2.0, 96)
    u, _ = solve_dirichlet(mesh, spec, f, {"inner": 0.2, "outer": 0.1})
    data = rearrange(u)
    measure = np.sum(mesh.node_measures())
    bound = talenti_bound(0.2, f, spec, measure, R_in=1.0, R_out=2.0)
    assert np.max(data.values) <= bound + 1e-9


def test_cached_cumulative_matches_fresh_cumsum():
    rng = np.random.default_rng(3)
    data = rearrange_samples(rng.uniform(0, 2, 500), rng.uniform(0, 1, 500),
                             n=3)
    rho = np.linspace(0.0, 1.1 * data.outer_radius, 1001)
    meas = np.minimum(unit_ball_volume(3) * rho ** 3, data.total_measure)
    cum_int = np.concatenate(([0.0], np.cumsum(data.values * data.measures)))
    idx = np.minimum(np.searchsorted(data.cum_measure, meas, side="left"),
                     len(data.values) - 1)
    prev = np.concatenate(([0.0], data.cum_measure))[idx]
    fresh = cum_int[idx] + data.values[idx] * (meas - prev)
    assert np.array_equal(data.cumulative(rho), fresh)


@pytest.mark.parametrize("p,n", [(3.0, 2), (2.5, 3)])
def test_talenti_bound_two_step_source_exact(p, n):
    # f# = 2 on the ball of measure m1, 0.5 on the shell of measure m2
    spec = make_spec(p, n)
    m1, m2, g = 1.3, 2.1, 0.25
    data = rearrange_samples([0.5, 2.0], [m2, m1], n)
    got = talenti_bound(g, data, spec, m1 + m2)
    with mpmath.workdps(30):
        w = mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2 + 1)
        r1 = (m1 / w) ** (mpmath.mpf(1) / n)
        rmax = ((m1 + m2) / w) ** (mpmath.mpf(1) / n)

        def kernel(rho):
            F = 2 * w * rho ** n if rho <= r1 \
                else 2 * m1 + mpmath.mpf(0.5) * (w * rho ** n - m1)
            return (F / (n * w * rho ** (n - 1))) ** (1 / mpmath.mpf(p - 1))

        exact = g + mpmath.quad(kernel, [0, r1, rmax])
    assert got == pytest.approx(float(exact), rel=1e-13)


def _talenti_per_node(u_sup, fs, spec, measure, x_radius=None, rule=G3_K7):
    """talenti_bound (x_radius None) or full_talenti_profile with the
    rearrangement piece of every quadrature node looked up on its own, on
    panels of the given Gauss-Kronrod pair."""
    n, p = spec.n, spec.p
    rho_max = (measure / unit_ball_volume(n)) ** (1.0 / n)
    nwn = n * unit_ball_volume(n)
    if x_radius is not None and x_radius >= rho_max:
        return float(u_sup)

    def bound_kernel(s):
        F = np.abs(fs.cumulative(np.ravel(s))).reshape(np.shape(s))
        return (F / (spec.delta * nwn
                     * np.maximum(s, 1e-300) ** (n - 1))) ** (1.0 / (p - 1.0))

    def profile_kernel(s):
        F = np.abs(fs.cumulative(np.ravel(s))).reshape(np.shape(s))
        return phi_inverse_array(
            spec, F / (nwn * np.maximum(s, 1e-300) ** (n - 1)))

    a = 0.0 if x_radius is None else float(x_radius)
    kernel = bound_kernel if x_radius is None else profile_kernel
    return float(u_sup) + float(integrate(
        kernel, a, rho_max, rel_tol=1e-10, singular_left=(a == 0.0),
        breakpoints=fs.radii[:-1], rule=rule))


@settings(max_examples=20, deadline=None)
@given(p=st.floats(2.0, 4.0), n=st.sampled_from([2, 3]),
       coeff=st.sampled_from(["plap", "smooth-bump"]),
       C_f=st.floats(0.5, 2.0), eps=st.floats(0.5, 1.5),
       R_out=st.floats(1.5, 2.5), samples=st.sampled_from([64, 512, 4096]),
       where=st.sampled_from(["zero", "share", "radius"]),
       share=st.floats(0.0, 1.0))
def test_talenti_rows_match_a_per_node_lookup_bitwise(p, n, coeff, C_f, eps,
                                                      R_out, samples, where,
                                                      share):
    spec = make_spec(p, n, coeff)
    f = power_decay_source(spec, C_f, eps)
    measure = unit_ball_volume(n) * (R_out ** n - 1.0)
    fs = _source_rearrangement(f, n, measure, 1.0, R_out, samples)
    rho_max = (measure / unit_ball_volume(n)) ** (1.0 / n)
    x_radius = {"zero": 0.0, "share": share * rho_max,
                "radius": fs.radii[int(share * (samples - 1))]}[where]
    assert talenti_bound(0.3, fs, spec, measure) \
        == _talenti_per_node(0.3, fs, spec, measure)
    assert full_talenti_profile(0.3, fs, spec, measure, x_radius) \
        == _talenti_per_node(0.3, fs, spec, measure, x_radius)


@pytest.mark.parametrize("samples", [64, 512, 4096])
@pytest.mark.parametrize("coeff, p, n", [("plap", 3.0, 2), ("plap", 2.2, 3),
                                         ("plap", 4.0, 2),
                                         ("smooth-bump", 2.5, 2),
                                         ("smooth-bump", 3.5, 3),
                                         ("smooth-bump", 4.0, 3)])
@pytest.mark.parametrize("where", ["zero", "share", "radius"])
def test_talenti_kernels_on_g3_k7_match_g10_k21(samples, coeff, p, n, where):
    # the Talenti kernels run on the G3/K7 pair; the G10/K21 pair of every
    # other integral gives the same bound and profile to 1e-14
    spec = make_spec(p, n, coeff)
    f = power_decay_source(spec, 1.3, 0.8)
    measure = unit_ball_volume(n) * (2.0 ** n - 1.0)
    fs = _source_rearrangement(f, n, measure, 1.0, 2.0, samples)
    rho_max = fs.outer_radius
    x_radius = {"zero": 0.0, "share": 0.37 * rho_max,
                "radius": fs.radii[samples // 3]}[where]
    assert talenti_bound(0.3, fs, spec, measure) == pytest.approx(
        _talenti_per_node(0.3, fs, spec, measure, rule=G10_K21),
        rel=1e-14, abs=0.0)
    assert full_talenti_profile(0.3, fs, spec, measure, x_radius) \
        == pytest.approx(_talenti_per_node(0.3, fs, spec, measure, x_radius,
                                           rule=G10_K21), rel=1e-14, abs=0.0)

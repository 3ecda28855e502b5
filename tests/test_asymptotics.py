import math

import numpy as np
import pytest

from plapext import (GridFunction, SphereStats, counterexample_suite,
                     decay_fit, envelope_check, harnack_sphere_check,
                     lemma2prime_C0, make_lemma2, make_spec, osc_prediction,
                     polar_mesh, power_decay_source, solve_exterior_radial,
                     sphere_stats, zero_source)
from plapext.operator_core import DomainError


def _radial_exterior():
    spec = make_spec(3.0, 2)
    f = power_decay_source(spec, 1.0, 1.0)
    return spec, f, solve_exterior_radial(spec, f, 0.0)


def test_sphere_stats_radial_has_zero_osc():
    spec, f, sol = _radial_exterior()
    st = sphere_stats(sol, 8.0)
    assert st.osc == 0.0
    assert st.minimum == st.maximum == pytest.approx(sol.value(8.0))


def test_sphere_stats_angular_oscillation():
    # u = cos(theta) rho(r) on a polar grid: osc_R = 2 |rho(R)|
    mesh = polar_mesh(1.0, 4.0, 24, 48)
    rho = 1.0 / mesh.radii
    vals = np.outer(rho, np.cos(mesh.theta))
    u = GridFunction(mesh=mesh, values=vals)
    st = sphere_stats(u, 2.0)
    assert st.osc == pytest.approx(1.0, rel=1e-6)


def test_sphere_stats_accepts_radius_list():
    spec, f, sol = _radial_exterior()
    out = sphere_stats(sol, [2.0, 4.0, 8.0])
    assert len(out) == 3 and all(isinstance(s, SphereStats) for s in out)


def test_osc_prediction_reference_arithmetic():
    # delta = L: lambda = 1/2 regardless of p, n; p=3, n=2 gives l = 13 and
    # c = (1 - 2^(-1/2))^13
    spec = make_spec(3.0, 2)
    f = power_decay_source(spec, 1.0, 1.0)
    pred = osc_prediction(spec, f)
    assert pred.lam == pytest.approx(0.5)
    assert pred.l == 13
    assert pred.c == pytest.approx((1.0 - 2.0 ** -0.5) ** 13, rel=1e-12)
    assert pred.C == pytest.approx(1.0 - pred.c, rel=1e-12)
    assert pred.C < 1.0


def test_osc_prediction_needs_supercritical_p():
    spec = make_spec(2.0, 3)
    with pytest.raises(DomainError):
        osc_prediction(spec, power_decay_source(spec, 1.0, 1.0))


@pytest.mark.parametrize("beta0", [0.1, 0.5, 1.0, 2.0])
def test_decay_fit_recovers_synthetic_exponent(beta0):
    radii = 2.0 ** np.arange(2, 11)
    mids = 3.0 + 0.8 * radii ** -beta0
    stats = [SphereStats(R=r, minimum=m, maximum=m, mean=m) for r, m in
             zip(radii, mids)]
    fit = decay_fit(stats, limit=3.0)
    assert fit.beta == pytest.approx(beta0, rel=0.05)
    assert fit.limit == pytest.approx(3.0)


def test_decay_fit_constant_data():
    stats = [SphereStats(R=2.0 ** k, minimum=1.25, maximum=1.25, mean=1.25)
             for k in range(6)]
    fit = decay_fit(stats, limit=None)
    assert fit.beta == np.inf
    assert fit.limit == pytest.approx(1.25)


def test_decay_fit_needs_enough_radii():
    stats = [SphereStats(R=2.0, minimum=0.0, maximum=1.0, mean=0.5)]
    with pytest.raises(DomainError):
        decay_fit(stats)


def test_harnack_constant_positive_function():
    spec, f, sol = _radial_exterior()
    shift = 1.0

    class Shifted:
        # the radial solution shifted positive, same evaluation protocol
        def value(self, r):
            return sol.value(r) + shift
        R_in, R_out = sol.R_in, sol.R_out

    sweep = harnack_sphere_check(Shifted(), f, spec, [4.0, 8.0, 16.0, 32.0])
    assert sweep.all_passed
    assert sweep.C_fit > 0.0
    for e in sweep.entries:
        assert e.sup <= e.bound_rhs + 1e-9


def test_harnack_rejects_negative_data():
    spec = make_spec(3.0, 2)
    f = power_decay_source(spec, 1.0, 1.0)
    neg = solve_exterior_radial(spec, f, u_in=-1.0)   # negative near S_1
    with pytest.raises(DomainError):
        harnack_sphere_check(neg, f, spec, [2.0, 4.0])


def test_envelope_pure_maximum_principle_for_zero_source():
    spec = make_spec(3.0, 2)
    sol = solve_exterior_radial(spec, zero_source(), u_in=1.0)
    worst = envelope_check(sol, zero_source(), spec, [2.0, 4.0, 8.0])
    assert worst >= -1e-12


def test_envelope_slack_nonnegative_for_decaying_source():
    spec, f, sol = _radial_exterior()
    worst = envelope_check(sol, f, spec, 2.0 ** np.arange(1, 7))
    assert worst >= -1e-9


def test_envelope_in_one_pass_matches_radius_by_radius():
    # the radial solution is evaluated at all 6 x 48 radii in one pass; a
    # wrapper that only has `value` is evaluated one radius at a time
    spec, f, sol = _radial_exterior()

    class OneByOne:
        def value(self, r):
            return sol.value(r)
        far_edge = sol.far_edge

    radii = 2.0 ** np.arange(1, 7)
    worst = envelope_check(sol, f, spec, radii)
    assert worst == pytest.approx(envelope_check(OneByOne(), f, spec, radii),
                                  abs=1e-11)
    # reference: the envelope of each R against its own 48 samples
    C0 = lemma2prime_C0(spec, f.C_f, f.eps)
    ref = math.inf
    for R in radii:
        m = sol.value(R)
        half = C0 * R ** (-f.eps / (spec.p - 1.0))
        v = sol.values(np.geomspace(R, sol.far_edge, 48))
        ref = min(ref, np.min(v) - (m - half), (m + half) - np.max(v))
    assert worst == pytest.approx(ref, abs=1e-11)
    batch = sphere_stats(sol, radii)
    for s, R in zip(batch, radii):
        assert s.R == R
        assert s.mean == pytest.approx(sol.value(R), abs=1e-11)


def test_sphere_stats_and_envelope_accept_a_barrier():
    # a barrier is a radial profile: its spheres are read through `values`,
    # and lemma2's domain (0, inf) has no outer edge
    spec, f, _ = _radial_exterior()
    b = make_lemma2(spec, f, 0.3)
    radii = [1.0, 2.0, 4.0]
    stats = sphere_stats(b, radii)
    assert [s.mean for s in stats] == list(b.values(radii))
    assert all(s.osc == 0.0 for s in stats)
    C0 = lemma2prime_C0(spec, f.C_f, f.eps)
    ref = math.inf
    for R in radii:
        m = b.value(R)
        half = C0 * R ** (-f.eps / (spec.p - 1.0))
        v = b.values(np.geomspace(R, 16.0, 48))
        ref = min(ref, np.min(v) - (m - half), (m + half) - np.max(v))
    assert envelope_check(b, f, spec, radii) == pytest.approx(ref, abs=1e-11)


def test_counterexample_exact_extrema():
    rep = counterexample_suite(3.0, n=2, k_max=4)
    # k = 0..4: cos(k pi) alternates starting at +1
    assert list(rep.extrema_values) == [1.0, -1.0, 1.0, -1.0, 1.0]
    assert (rep.limsup, rep.liminf) == (1.0, -1.0)
    assert not rep.has_limit
    # a single extremum shows no oscillation
    assert counterexample_suite(3.0, n=2, k_max=0).has_limit


def test_counterexample_ratio_bounded():
    rep = counterexample_suite(2.0, n=3)
    assert rep.ratio_variation < 10.0
    assert np.isfinite(rep.ratio_max)

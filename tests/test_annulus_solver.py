import dataclasses
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import solve_banded as scipy_solve_banded
from scipy.special import roots_jacobi
from scipy.sparse.linalg import spsolve as sparse_spsolve

from plapext import annulus_solver
from plapext import (AnnularMesh, GridFunction, comparison_check,
                     discrete_energy, exhaust_exterior, holder_modulus,
                     make_spec, polar_mesh, power_decay_source, radial_mesh,
                     solve_dirichlet, solve_radial_bvp, unit_ball_volume,
                     zero_source)
from plapext.operator_core import DomainError, NonConvergenceError


def test_radial_mesh_measures_sum_to_annulus():
    mesh = radial_mesh(2, 1.0, 3.0, 40)
    target = unit_ball_volume(2) * (3.0 ** 2 - 1.0)
    assert np.sum(mesh.cell_measures()) == pytest.approx(target, rel=1e-12)
    assert np.sum(mesh.node_measures()) == pytest.approx(target, rel=1e-12)


def test_polar_mesh_measures_sum_to_annulus():
    mesh = polar_mesh(1.0, 2.0, 12, 16)
    target = unit_ball_volume(2) * (2.0 ** 2 - 1.0)
    assert np.sum(mesh.cell_measures()) == pytest.approx(target, rel=1e-12)
    assert np.sum(mesh.node_measures()) == pytest.approx(target, rel=1e-12)


def test_mesh_rejects_bad_radii():
    with pytest.raises(DomainError):
        radial_mesh(2, 2.0, 1.0, 10)


def test_mesh_copies_and_freezes_its_arrays():
    radii = np.geomspace(1.0, 2.0, 9)
    theta = np.linspace(0.0, 2.0 * np.pi, 6, endpoint=False)
    mesh = annulus_solver.AnnularMesh(n=2, radii=radii, theta=theta)
    before = [a.copy() for a in (mesh.radii, mesh.theta,
                                 mesh.cell_measures(), mesh.node_measures())]
    radii[3] = 1.5
    theta[2] = 0.1
    after = (mesh.radii, mesh.theta, mesh.cell_measures(),
             mesh.node_measures())
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    radial = annulus_solver.AnnularMesh(n=2, radii=mesh.radii)
    assert mesh.shape == (9, 6) and radial.shape == (9,)
    # the radial steps shaped to divide cell arrays
    assert mesh.cell_dr.shape == (8, 1)
    assert np.array_equal(mesh.cell_dr[:, 0], mesh.dr)
    assert np.array_equal(radial.cell_dr, radial.dr)
    for a in after + (mesh.dr, mesh.cell_dr, mesh.rdtheta, mesh.theta_next,
                      mesh.theta_prev, radial.cell_dr):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        mesh.radii = radii


def test_1d_solve_matches_log_profile():
    spec = make_spec(2.0, 2)
    mesh = radial_mesh(2, 1.0, 2.0, 128)
    u, rep = solve_dirichlet(mesh, spec, zero_source(),
                             {"inner": 0.0, "outer": 1.0})
    assert rep.converged
    exact = np.log(mesh.radii) / np.log(2.0)
    assert np.max(np.abs(u.values - exact)) < 2e-5


def test_1d_solve_matches_shooting_oracle():
    spec = make_spec(3.0, 2)
    f = power_decay_source(spec, 1.0, 1.0)
    mesh = radial_mesh(2, 1.0, 3.0, 128)
    u, rep = solve_dirichlet(mesh, spec, f, {"inner": 1.0, "outer": 0.0})
    oracle = solve_radial_bvp(spec, f, 1.0, 3.0, 1.0, 0.0)
    assert rep.converged
    assert np.max(np.abs(u.values - oracle.values(mesh.radii))) < 5e-4


def test_2d_solve_radial_data_stays_radial():
    spec = make_spec(3.0, 2)
    f = power_decay_source(spec, 0.5, 1.0)
    mesh = polar_mesh(1.0, 2.0, 16, 16)
    u, rep = solve_dirichlet(mesh, spec, f, {"inner": 1.0, "outer": 0.0})
    assert rep.converged
    # angular oscillation of the discrete solution must vanish
    osc = np.max(u.values.max(axis=1) - u.values.min(axis=1))
    assert osc < 1e-9


def test_energy_nonincreasing_along_iterates():
    spec = make_spec(4.0, 2)
    f = power_decay_source(spec, 1.0, 1.0)
    mesh = polar_mesh(1.0, 2.0, 10, 12)
    u, rep = solve_dirichlet(mesh, spec, f,
                             {"inner": lambda th: np.cos(th), "outer": 0.0})
    assert rep.converged
    energies = np.asarray(rep.history)
    assert np.all(np.diff(energies) <= 1e-12 * np.abs(energies[:-1]) + 1e-12)


def test_comparison_principle_on_ordered_boundary_data():
    spec = make_spec(3.0, 2)
    f = power_decay_source(spec, 0.5, 1.0)
    mesh = radial_mesh(2, 1.0, 2.0, 64)
    u, _ = solve_dirichlet(mesh, spec, f, {"inner": 0.5, "outer": 0.0})
    v, _ = solve_dirichlet(mesh, spec, f, {"inner": 1.0, "outer": 0.3})
    assert comparison_check(u, v)
    assert not comparison_check(v, u)


@st.composite
def ordered_radial_problems(draw):
    """(mesh, spec, lower data, upper data) on a radial mesh of up to 32
    cells, n = 2 or 3, p in [1.5, 5], plap or smooth-bump; data are
    (source, inner, outer), with power-decay sources of ordered constants
    (0: none) and ordered traces."""
    spec = make_spec(draw(st.floats(1.5, 5.0)), draw(st.sampled_from([2, 3])),
                     draw(st.sampled_from(["plap", "smooth-bump"])))
    mesh = radial_mesh(spec.n, 1.0, draw(st.floats(1.5, 4.0)),
                       draw(st.integers(2, 32)))
    eps = draw(st.floats(0.5, 1.5))

    def ordered(lo, hi):
        return draw(st.lists(st.floats(lo, hi), min_size=2,
                             max_size=2).map(sorted))

    sources = [power_decay_source(spec, c, eps) if c else None
               for c in ordered(0.0, 2.0)]
    inner, outer = ordered(-2.0, 2.0), ordered(-2.0, 2.0)
    return mesh, spec, *zip(sources, inner, outer)


@settings(max_examples=40, deadline=None)
@given(problem=ordered_radial_problems())
def test_radial_comparison_of_ordered_data(problem):
    # ordered traces and sources order the discrete solutions node by node
    mesh, spec, low, high = problem
    u, v = (solve_dirichlet(mesh, spec, f, {"inner": a, "outer": b})[0]
            for f, a, b in (low, high))
    assert comparison_check(u, v)


def _flux_shooting_oracle(mesh, p, C_f, eps, u_in, u_out):
    """C and the nodal values of the radial discrete problem for plap and
    the source powerdecay C_f:eps, solved in 30-digit arithmetic from the
    mesh's radii: cell and node measures, the flux equations
    sum_k dr_k phi^-1((C - F_k) dr_k / |cell_k|) = u_out - u_in, and C by
    bisection."""
    with mpmath.workdps(30):
        r = [mpmath.mpf(x) for x in mesh.radii]
        n, M = mesh.n, len(r) - 1
        omega = mpmath.pi ** (n / mpmath.mpf(2)) / mpmath.gamma(n / 2 + 1)
        dr = [r[k + 1] - r[k] for k in range(M)]
        cells = [omega * (r[k + 1] ** n - r[k] ** n) for k in range(M)]
        f = [C_f if x <= 1 else C_f * x ** -(mpmath.mpf(p) + eps) for x in r]
        F = [mpmath.mpf(0)]
        for k in range(1, M):
            F.append(F[-1] + f[k] * (cells[k - 1] + cells[k]) / 2)
        e = 1 / (mpmath.mpf(p) - 1)

        def slopes(C):
            t = [(C - F[k]) * dr[k] / cells[k] for k in range(M)]
            return [mpmath.sign(x) * abs(x) ** e for x in t]

        def miss(C):
            return mpmath.fsum(d * g for d, g in zip(dr, slopes(C))) \
                - (u_out - u_in)

        lo, hi = mpmath.mpf(-1), mpmath.mpf(1)
        while miss(lo) > 0:
            lo *= 2
        while miss(hi) < 0:
            hi *= 2
        for _ in range(120):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if miss(mid) < 0 else (lo, mid)
        C = (lo + hi) / 2
        u = [mpmath.mpf(u_in)]
        for d, g in zip(dr, slopes(C)):
            u.append(u[-1] + d * g)
        return C, u


def test_radial_solve_matches_a_30_digit_flux_solve():
    p, C_f, eps, u_in, u_out = 3.0, 1.5, 1.0, 1.0, -0.5
    mesh = radial_mesh(2, 1.0, 3.0, 16)
    spec = make_spec(p, 2)
    u, rep = solve_dirichlet(mesh, spec, power_decay_source(spec, C_f, eps),
                             {"inner": u_in, "outer": u_out})
    C, exact = _flux_shooting_oracle(mesh, p, C_f, eps, u_in, u_out)
    assert rep.converged
    # the solution's flux through its first cell is C
    g0 = (u.values[1] - u.values[0]) / mesh.dr[0]
    flux = np.sign(g0) * abs(g0) ** (p - 1) * mesh.cell_measures()[0] \
        / mesh.dr[0]
    assert abs(flux - float(C)) <= 1e-12 * abs(float(C))
    assert np.max(np.abs(u.values - np.array(exact, dtype=float))) <= 1e-13


@pytest.mark.parametrize("other", ["rotated", "fewer_angles", "radial"])
def test_comparison_rejects_meshes_with_other_angles(other):
    # same radii throughout; only the angles (or their absence) differ
    mesh = polar_mesh(1.0, 2.0, 8, 12)
    theta = {"rotated": mesh.theta + 0.1,
             "fewer_angles": mesh.theta[:10], "radial": None}[other]
    second = AnnularMesh(n=2, radii=mesh.radii, theta=theta)
    u = GridFunction(mesh, np.zeros((len(mesh.radii), 12)))
    v = GridFunction(second, np.ones(second.shape))
    with pytest.raises(DomainError):
        comparison_check(u, v)
    assert comparison_check(u, GridFunction(polar_mesh(1.0, 2.0, 8, 12),
                                            np.ones_like(u.values)))


def test_discrete_energy_of_linear_profile():
    # p=2, A==1, f=0 on a 1D mesh: J = (1/2) int |u'|^2, u = r on [1, 2]
    spec = make_spec(2.0, 2)
    mesh = radial_mesh(2, 1.0, 2.0, 200)
    u = GridFunction(mesh=mesh, values=mesh.radii.copy())
    target = 0.5 * unit_ball_volume(2) * (2.0 ** 2 - 1.0)
    assert discrete_energy(u, spec) == pytest.approx(target, rel=1e-12)


@pytest.mark.parametrize("p", [3.0, 2.0, 1.5], ids=["p>n", "p=n", "p<n"])
def test_radial_mesh_rejects_boundary_data_that_is_not_a_number(p):
    spec = make_spec(p, 2)
    f = power_decay_source(spec, 1.0, 1.0)
    trace = np.ones(4)
    with pytest.raises(DomainError, match="inner data on a radial mesh "
                                          "must be a number, not ndarray"):
        solve_dirichlet(radial_mesh(2, 1.0, 2.0, 16), spec, f,
                        {"inner": trace, "outer": 0.0})
    with pytest.raises(DomainError, match="outer data .* not function"):
        solve_dirichlet(radial_mesh(2, 1.0, 2.0, 16), spec, f,
                        {"inner": 1.0, "outer": lambda r: 0.0})
    with pytest.raises(DomainError, match="inner data on a radial mesh"):
        exhaust_exterior(spec, f, trace, m_max=1)


# A flat start: zero traces and a source.  On a flat cell the Newton
# conductance phi'(1e-12) is tiny at p = 4, so the first direction is far
# too long and its line search finds no acceptable step: the solve must say
# it stagnated, not that it converged.
@pytest.mark.parametrize("dim", [2])
def test_flat_start_does_not_report_false_convergence(dim):
    spec = make_spec(4.0, 2)
    f = power_decay_source(spec, 1.0, 1.0)
    mesh = polar_mesh(1.0, 4.0, 16, 16)
    tol = 1e-10
    u, rep = solve_dirichlet(mesh, spec, f, {"inner": 0.0, "outer": 0.0},
                             tol=tol)
    # zero traces and a source of sup C_f = 1: the solver's scale is 1
    assert rep.status == "stagnated" and not rep.converged
    assert rep.scale == 1.0 and rep.grad_norm > tol
    # at p = 8 the first trial steps overflow: their non-finite bounds are
    # rejected like any other, and the iterate stays the finite start
    spec = make_spec(8.0, 2)
    with np.errstate(all="ignore"):
        u, rep = solve_dirichlet(mesh, spec, power_decay_source(spec, 1.0,
                                                                1.0),
                                 {"inner": 0.0, "outer": 0.0}, tol=tol)
    assert rep.status == "stagnated" and np.all(u.values == 0.0)


def test_radial_flat_start_converges():
    # the same flat start on a radial mesh: flux shooting has no start
    # iterate, so the flat cells cost it nothing
    mesh = radial_mesh(2, 1.0, 8.0, 48)
    tol = 1e-10
    for p in (4.0, 8.0):
        spec = make_spec(p, 2)
        u, rep = solve_dirichlet(mesh, spec, power_decay_source(spec, 1.0,
                                                                1.0),
                                 {"inner": 0.0, "outer": 0.0}, tol=tol)
        assert rep.converged and rep.scale == 1.0 and rep.grad_norm <= tol
        # a positive source lifts the solution above its zero traces
        assert np.all(u.values[1:-1] > 0.0)


@pytest.mark.parametrize("p, C_f, inner, outer", [
    (4.0, 1.0, 0.0, 0.5),     # the slope changes sign
    (8.0, 1.0, 0.0, 0.0),     # zero traces
    (8.0, 0.0, 0.0, 0.0),     # u = 0: phi'(0) = 0 in every cell
    (1.5, 1.0, 1.0, 1.0),     # equal traces
    (1.5, 0.0, 1.0, 1.0),     # u = 1: phi'(0) = inf in every cell
])
def test_radial_solve_emits_no_warning(p, C_f, inner, outer):
    spec = make_spec(p, 2)
    f = power_decay_source(spec, C_f, 1.0) if C_f else None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, rep = solve_dirichlet(radial_mesh(2, 1.0, 8.0, 48), spec, f,
                                 {"inner": inner, "outer": outer})
    assert rep.converged
    steps = np.diff(u.values)
    if C_f == 0.0:
        assert np.all(steps == 0.0)
    elif p == 4.0:
        assert steps.max() > 0.0 > steps.min()


def test_exhaustion_iterates_settle():
    spec = make_spec(3.0, 2)
    f = power_decay_source(spec, 1.0, 1.0)
    res = exhaust_exterior(spec, f, 1.0, m_max=4)
    assert len(res.solutions) == 5
    assert all(d2 <= d1 for d1, d2 in zip(res.deviations, res.deviations[1:]))
    # successive deviations shrink like the R^(-1/2) tail of the limit gap
    assert res.deviations[-1] < 0.5 * res.deviations[0]


def test_exhaustion_level_short_of_convergence_raises():
    spec = make_spec(3.0, 2)
    f = power_decay_source(spec, 1.0, 1.0)
    with pytest.raises(NonConvergenceError, match="m=0 .*status max_iter"):
        exhaust_exterior(spec, f, 1.0, R0=2.0, m_max=3, max_iter=1)


def test_holder_modulus_of_sqrt_profile():
    # u = sqrt(r): the 0.5-seminorm near r=0 is finite; on [1, 4] it is
    # bounded by the seminorm of sqrt on that interval
    mesh = radial_mesh(2, 1.0, 4.0, 256)
    u = GridFunction(mesh=mesh, values=np.sqrt(mesh.radii))
    s = holder_modulus(u, 0.5)
    assert 0.0 < s <= 1.0


def test_holder_modulus_rejects_a_region_it_cannot_use():
    radial = radial_mesh(2, 1.0, 4.0, 64)
    u = GridFunction(mesh=radial, values=np.sqrt(radial.radii))
    with pytest.raises(DomainError, match="needs a polar mesh"):
        holder_modulus(u, 0.5, region=(1.3, 0.0, 0.1))
    polar = polar_mesh(1.0, 4.0, 8, 16)
    v = GridFunction(mesh=polar, values=np.ones(polar.shape))
    assert holder_modulus(v, 0.5, region=(1.3, 0.0, 0.1)) == 0.0
    with pytest.raises(DomainError, match="holds no node"):
        holder_modulus(v, 0.5, region=(0.5, 0.0, 0.1))


def _reference_newton_direction(mesh, spec, values, grad):
    """Newton direction from a sparse assembly of B^T M B and SuperLU."""
    r, h = mesh.radii, np.diff(mesh.radii)
    rmid = 0.5 * (r[:-1] + r[1:])
    cells = mesh.cell_measures()
    gr, gt = annulus_solver._cell_gradients(mesh, values)
    mag = np.maximum(np.sqrt(gr ** 2 + gt ** 2), annulus_solver._GRAD_FLOOR)
    w = annulus_solver.phi_eval(spec, mag) / mag
    q = (annulus_solver.phi_prime(spec, mag) - w) / mag ** 2
    Mrr, Mrt, Mtt = (w + q * gr ** 2) * cells, q * gr * gt * cells, \
        (w + q * gt ** 2) * cells
    br = np.broadcast_to(1.0 / h[:, None], cells.shape)
    bt = 1.0 / (rmid[:, None] * mesh._dtheta()[None, :])
    zero = np.zeros_like(cells)
    M, T = cells.shape
    idx = np.arange((M + 1) * T).reshape(M + 1, T)
    nodes = ((idx[:-1], -br, -bt), (idx[1:], br, zero),
             (np.roll(idx[:-1], -1, axis=1), zero, bt))
    rows, cols, vals = [], [], []
    for ni, sr, st in nodes:
        for nj, tr, tt in nodes:
            rows.append(ni.ravel())
            cols.append(nj.ravel())
            vals.append((Mrr * sr * tr + Mrt * (sr * tt + st * tr)
                         + Mtt * st * tt).ravel())
    H = sparse.csr_matrix((np.concatenate(vals),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=((M + 1) * T,) * 2)
    interior = idx[1:-1].ravel()
    step = np.zeros_like(values)
    step[1:-1] = sparse_spsolve(H[interior][:, interior].tocsc(),
                                -grad[1:-1].ravel()).reshape(M - 1, T)
    return step


BAND_MESHES = [
    polar_mesh(1.0, 2.0, 48, 48),
    polar_mesh(1.0, 2.0, 16, 31, inner_layers=3, theta_center=0.3),
    polar_mesh(1.0, 2.0, 8, 3),
    polar_mesh(1.0, 2.0, 8, 4),
]
BAND_MESH_IDS = ["48x48", "uneven37", "T3", "T4"]


@pytest.mark.parametrize("mesh", BAND_MESHES, ids=BAND_MESH_IDS)
def test_band_newton_direction_matches_sparse_reference(mesh):
    spec = make_spec(2.5, 2, "smooth-bump")
    rng = np.random.default_rng(7)
    values = rng.standard_normal((len(mesh.radii), len(mesh.theta)))
    fvals = annulus_solver._source_values(
        power_decay_source(spec, 1.0, 1.0), mesh)
    grad = annulus_solver.energy_gradient(mesh, spec, values, fvals)
    grad[[0, -1]] = 0.0
    band = annulus_solver._RingBand(mesh)
    assert band.kd <= len(mesh.theta) + 2
    step = annulus_solver._newton_direction_2d(mesh, spec, values, grad, band)
    ref = _reference_newton_direction(mesh, spec, values, grad)
    assert np.all(step[[0, -1]] == 0.0)
    assert np.max(np.abs(step - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_band_solve_of_indefinite_system_raises(monkeypatch):
    # phi' = -1 makes the local Hessian w I + q g g^T indefinite
    monkeypatch.setattr(annulus_solver, "phi_prime",
                        lambda spec, t: -np.ones_like(t))
    spec = make_spec(2.0, 2)
    mesh = polar_mesh(1.0, 2.0, 8, 12)
    # a source, so that the start (the discrete solution at p = 2 without
    # one) does not already meet tol and a Newton direction is needed
    with pytest.raises(NonConvergenceError, match="9x12 polar mesh"):
        solve_dirichlet(mesh, spec, power_decay_source(spec, 1.0, 1.0),
                        {"inner": 1.0, "outer": 0.0})


@pytest.mark.parametrize("size", [1, 3, 8, 96, 200])
def test_tridiagonal_solve_matches_scipy_solve_banded_bitwise(size):
    # random SPD tridiagonal systems: conductances over six decades
    rng = np.random.default_rng(size)
    d = 10.0 ** rng.uniform(-3.0, 3.0, size + 1)
    rhs = rng.standard_normal(size)
    ab = np.zeros((3, size))
    ab[0, 1:] = -d[1:-1]
    ab[1, :] = d[:-1] + d[1:]
    ab[2, :-1] = -d[1:-1]
    mesh = radial_mesh(2, 1.0, 2.0, size + 1)
    got = annulus_solver.solve_banded(mesh, d, rhs.copy())
    assert np.array_equal(got, scipy_solve_banded((1, 1), ab, rhs))


def test_singular_tridiagonal_system_raises():
    d = np.array([0.0, 0.0, 1.0, 2.0, 1.0, 3.0, 1.0, 2.0])
    with pytest.raises(NonConvergenceError, match="9-node radial mesh"):
        annulus_solver.solve_banded(radial_mesh(2, 1.0, 2.0, 8), d,
                                    np.ones(7))
    with pytest.raises(NonConvergenceError, match="3-node radial mesh"):
        annulus_solver.solve_banded(radial_mesh(2, 1.0, 2.0, 2),
                                    np.zeros(2), np.ones(1))


def test_radial_solve_without_slopes_converges_by_bisection(monkeypatch):
    # phi' = 0 makes every slope of the flux sum infinite: each Newton step
    # on C is 0, so every step is the bracket's midpoint
    spec = make_spec(3.0, 2)
    mesh = radial_mesh(2, 1.0, 2.0, 12)
    f = power_decay_source(spec, 1.0, 1.0)
    data = {"inner": 1.0, "outer": 0.0}
    u, rep = solve_dirichlet(mesh, spec, f, data)
    monkeypatch.setattr(annulus_solver, "phi_prime",
                        lambda spec, t: np.zeros_like(t))
    v, bis = solve_dirichlet(mesh, spec, f, data)
    assert bis.converged and bis.grad_norm <= 1e-10 * bis.scale
    assert bis.iterations > 2 * rep.iterations
    assert np.max(np.abs(v.values - u.values)) < 1e-9


def _at_radius_one_by_one(u, R):
    """Linear interpolation in r at one radius, with Python's min and max."""
    r = u.mesh.radii
    i = np.clip(np.searchsorted(r, R) - 1, 0, len(r) - 2)
    t = (R - r[i]) / (r[i + 1] - r[i])
    t = min(max(t, 0.0), 1.0)
    return (1 - t) * u.values[i] + t * u.values[i + 1]


@pytest.mark.parametrize("mesh", [
    radial_mesh(2, 1.0, 3.0, 17),
    polar_mesh(1.0, 2.0, 12, 16, inner_layers=3, theta_center=0.3),
], ids=["radial", "graded_polar"])
def test_at_radius_of_an_array_matches_the_scalar_loop(mesh):
    rng = np.random.default_rng(5)
    u = GridFunction(mesh=mesh, values=rng.standard_normal(mesh.shape))
    r = mesh.radii
    radii = np.concatenate((
        [r[0], r[-1], r[0] - 5e-13, r[-1] + 5e-13],
        r, 0.5 * (r[:-1] + r[1:]), rng.uniform(r[0], r[-1], 40)))
    got = u.at_radius(radii)
    assert got.shape == (len(radii),) + mesh.shape[1:]
    for R, row in zip(radii, got):
        assert np.array_equal(row, u.at_radius(float(R)))
        assert np.array_equal(row, _at_radius_one_by_one(u, float(R)))
    for outside in (r[0] - 1e-9, r[-1] + 1e-9, np.nan):
        with pytest.raises(DomainError, match="outside mesh range"):
            u.at_radius(outside)
        with pytest.raises(DomainError, match=f"radius {outside} outside"):
            u.at_radius(np.array([r[0], outside, r[-1]]))


def test_energy_density_uses_the_24_point_rule():
    spec = make_spec(2.5, 2, "smooth-bump")
    s = np.geomspace(1e-3, 10.0, 50)
    x, w = np.polynomial.legendre.leggauss(24)
    nodes = 0.5 * s[:, None] * (x + 1.0)
    ref = 0.5 * s * (annulus_solver.phi_eval(spec, nodes) @ w)
    assert np.array_equal(annulus_solver._Phi(spec, s), ref)


@pytest.mark.parametrize("mesh", BAND_MESHES, ids=BAND_MESH_IDS)
def test_cached_geometry_matches_per_call_formulas(mesh):
    # reference: the measures and angular differences computed directly,
    # the angular neighbours by np.roll
    r, th = mesh.radii, mesh.theta
    dth = np.diff(np.concatenate((th, [th[0] + 2.0 * np.pi])))
    shells = unit_ball_volume(2) * (r[1:] ** 2 - r[:-1] ** 2)
    cells = shells[:, None] * dth[None, :] / (2.0 * np.pi)
    M, T = cells.shape
    nodes = np.zeros((M + 1, T))
    quarter = 0.25 * cells
    for di in (0, 1):
        nodes[di:M + di, :] += quarter
        nodes[di:M + di, :] += np.roll(quarter, 1, axis=1)
    assert np.array_equal(mesh.cell_measures(), cells)
    assert np.array_equal(mesh.node_measures(), nodes)
    assert np.array_equal(mesh.dr, np.diff(r))
    assert np.array_equal(mesh.rdtheta,
                          0.5 * (r[:-1] + r[1:])[:, None] * dth[None, :])
    values = np.random.default_rng(5).standard_normal((M + 1, T))
    assert np.array_equal(values[:, mesh.theta_next],
                          np.roll(values, -1, axis=1))
    assert np.array_equal(values[:, mesh.theta_prev],
                          np.roll(values, 1, axis=1))


@pytest.mark.parametrize("method", ["newton"])
@pytest.mark.parametrize("dim", [1, 2])
def test_one_gradient_per_iterate(monkeypatch, method, dim):
    calls, energies = [], []
    gradient = annulus_solver.energy_gradient
    energy = annulus_solver.discrete_energy

    def counted(*args):
        calls.append(1)
        return gradient(*args)

    def counted_energy(*args):
        energies.append(1)
        return energy(*args)

    monkeypatch.setattr(annulus_solver, "energy_gradient", counted)
    monkeypatch.setattr(annulus_solver, "discrete_energy", counted_energy)
    spec = make_spec(2.5, 2)
    f = power_decay_source(spec, 1.0, 1.0)
    sources = []

    def counted_f(r):
        sources.append(1)
        return f(r)

    if dim == 1:
        mesh, inner = radial_mesh(2, 1.0, 2.0, 32), 1.0
    else:
        mesh, inner = polar_mesh(1.0, 2.0, 8, 12), lambda th: np.cos(th)
    u, rep = solve_dirichlet(mesh, spec, counted_f,
                             {"inner": inner, "outer": 0.0},
                             method=method, tol=1e-8, max_iter=25)
    assert rep.iterations >= 2 and rep.converged
    if dim == 1:
        # flux shooting: iterations counts flux sums; one gradient and one
        # energy, both of the solution
        assert (rep.iterations, len(calls), len(energies)) == (3, 1, 1)
        assert rep.history == [rep.energy]
    else:
        # one at the start, one at each step's end (the next iteration's),
        # and one at the midpoint of each step whose end gradient alone
        # does not bound the decrease; this data never backtracks
        assert rep.iterations + 1 <= len(calls) <= 2 * rep.iterations + 1
        assert (rep.iterations, len(calls)) == (4, 7)
        assert len(rep.history) == len(energies) == rep.iterations + 1
    # the energies reuse the solve's source values
    assert len(sources) == 1
    grad = gradient(mesh, spec, u.values, annulus_solver._source_values(
        f, mesh))
    assert rep.grad_norm == float(np.max(np.abs(grad[1:-1])))


@pytest.mark.parametrize("coeff, domain", [("plap", 2), ("smooth-bump", 2),
                                           ("plap", 1),
                                           ("smooth-bump", "2-cos")])
def test_newton_reaches_tol_at_p_below_2(coeff, domain):
    # cases whose fallback used to be a damped Picard iteration; "2-cos" is
    # the case where a line search on energy differences stopped at
    # gradient 2e-6 and reported convergence
    spec = make_spec(1.5, 2, coeff)
    f = power_decay_source(spec, 1.0, 1.0)
    if domain == 1:
        mesh, inner = radial_mesh(2, 1.0, 2.0, 64), 1.0
    elif domain == 2:
        mesh = polar_mesh(1.0, 2.0, 64, 64)
        inner = lambda th: 1.0 + 0.3 * np.cos(th)
    else:
        mesh, inner = polar_mesh(1.0, 4.0, 32, 32), np.cos
    tol = 1e-10
    u, rep = solve_dirichlet(mesh, spec, f, {"inner": inner, "outer": 0.0},
                             tol=tol)
    assert rep.converged and rep.grad_norm <= tol * rep.scale
    # the scale: the largest of 1, |f| <= C_f = 1 and the traces
    assert rep.scale == (1.3 if domain == 2 else 1.0)


def test_radial_solve_meets_tol_with_large_smooth_bump_fluxes():
    # steep data at p = 4.85: the iterative phi^-1 meets only 1e-12
    # relative, which such fluxes turn into a gradient of 4 tol * scale
    # unless each slope takes one more Newton step
    spec = make_spec(4.85, 2, "smooth-bump")
    u, rep = solve_dirichlet(radial_mesh(2, 1.0, 2.15, 93), spec,
                             power_decay_source(spec, 2.0, 1.0),
                             {"inner": 1.7, "outer": -2.0})
    assert rep.converged and rep.grad_norm <= 1e-10 * rep.scale


def _jacobi_Phi(spec, s):
    """Phi(s) = (s/2)^p int_{-1}^{1} (1 + x)^(p-1) A(s (1 + x)/2) dx by
    80-point Gauss-Jacobi: within 1e-15 of 30-digit mpmath for smooth-bump
    up to s = 20, where the solver's 24-point Legendre rule is up to 2e-5
    off at p = 1.5 (the t^(p-1) endpoint)."""
    s = np.asarray(s, dtype=float)
    x, w = roots_jacobi(80, 0.0, spec.p - 1.0)
    return (0.5 * s) ** spec.p * (spec.A(0.5 * s[..., None] * (1.0 + x)) @ w)


@st.composite
def dirichlet_problems(draw):
    """(mesh, spec, f, inner, outer): radial meshes of up to 32 cells, polar
    ones up to 12x12, p in [1.5, 5], plap or smooth-bump, a power-decay
    source or none, random traces, or zero traces (a flat start)."""
    spec = make_spec(draw(st.floats(1.5, 5.0)), 2,
                     draw(st.sampled_from(["plap", "smooth-bump"])))
    C_f = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    f = power_decay_source(spec, C_f, 1.0) if C_f else None
    R_out = draw(st.floats(1.5, 4.0))
    if draw(st.booleans()):
        mesh = radial_mesh(2, 1.0, R_out, draw(st.integers(2, 32)))
        trace = st.floats(-2.0, 2.0)
    else:
        mesh = polar_mesh(1.0, R_out, draw(st.integers(2, 12)),
                          draw(st.integers(3, 12)))
        trace = st.lists(st.floats(-2.0, 2.0), min_size=len(mesh.theta),
                         max_size=len(mesh.theta)).map(np.array)
    if draw(st.booleans()):
        return mesh, spec, f, 0.0, 0.0
    return mesh, spec, f, draw(trace), draw(st.floats(-2.0, 2.0))


_BUMP = make_spec(1.5, 2, "smooth-bump")


@settings(max_examples=30, deadline=None)
@given(problem=dirichlet_problems())
# Simpson's rule for the integrated gradient accepted a first step that
# raised this energy by 1%: at p = 1.5 the directional derivative has
# square-root cusps where a cell gradient passes through 0
@example(problem=(polar_mesh(1.0, 1.875, 4, 4), _BUMP,
                  power_decay_source(_BUMP, 2.0, 1.0),
                  np.array([0.0, 0.0, 0.0, -2.0]), 0.3125))
def test_solve_status_contract(problem):
    mesh, spec, f, inner, outer = problem
    tol = 1e-10
    # the history is recomputed with an accurate Phi: the solver's own
    # 24-point rule lets a smooth-bump history rise by its quadrature
    # error, up to 2e-11 relative at p near 1.5; the iterates are the same,
    # since no decision of the solve reads the energy
    with mock.patch.object(annulus_solver, "_Phi", _jacobi_Phi):
        u, rep = solve_dirichlet(mesh, spec, f,
                                 {"inner": inner, "outer": outer}, tol=tol)
    assert rep.status in ("converged", "stagnated", "max_iter")
    assert rep.converged == (rep.grad_norm <= tol * rep.scale)
    history = np.array(rep.history)
    if mesh.is_2d:
        # the start and every accepted iterate; a stagnated iteration adds
        # none
        assert len(history) == rep.iterations + (rep.status != "stagnated")
    else:
        # flux shooting: the one energy of the solution
        assert len(history) == 1
    assert history[-1] == rep.energy
    rounding = 1e-13 * max(1.0, float(np.max(np.abs(history))))
    assert np.all(np.diff(history) <= rounding)


def test_unknown_method_raises():
    spec = make_spec(2.0, 2)
    mesh = radial_mesh(2, 1.0, 2.0, 16)
    with pytest.raises(DomainError, match="unknown method 'picard'"):
        solve_dirichlet(mesh, spec, zero_source(),
                        {"inner": 1.0, "outer": 0.0}, method="picard")

"""Discrete Dirichlet solver on annuli and the exterior exhaustion driver.

The discrete problem minimizes the variational energy

    J(u) = sum_cells Phi(|grad u|) |cell| - sum_nodes f u |node|,

with Phi the antiderivative of phi, over nodal values with fixed Dirichlet
traces.  Phi is c s^p / p for a constant A = c, and otherwise
s^p int_0^1 y^(p-1) A(s y) dy by the 24-point Gauss rule for the weight
y^(p-1), built once per p from its Jacobi matrix (Golub & Welsch): the
t^(p-1) factor is integrated exactly, so only the smooth A is
approximated.  Meshes are geometrically graded in radius (solutions vary on
power/log scales); 2D polar meshes use one-sided differences in radius and
forward differences in angle per cell.  A solve reports "converged"
exactly when the max norm of its interior gradient is at most
tol * scale, and otherwise "stagnated" or "max_iter".

On a radial mesh the discrete problem is solved exactly by flux shooting,
the discrete twin of the radial formula u' = phi^-1((C - int f s^(n-1))
/ r^(n-1)): the gradient vanishes where the flux of every cell equals
C - F_k, F_k the source summed over the nodes up to k, so one increasing
scalar equation in C, whose bracket is known in closed form, gives every
slope; `operator_core.bracketed_newton` solves it.

On a polar mesh the solve is a damped Newton method from the radial
solve of the angular means of the traces plus an extension of the rest:
ring-constant values have the same energy on both meshes, and on uniform
angles the polar minimizer of radial data is ring-constant, so such a
solve may take no Newton step.  The local Hessian w I + q g g^T of
Phi(|g|) per cell is SPD; its w = phi(|g|)/|g| and the cell gradients
come from the gradient evaluation of the same iterate.  Armijo
backtracking tests the decrease of J along a step as the integral of the
gradient, bounded from above by a two-panel sum (J is convex along the
line), since a difference of two energies cancels once steps are small
(Hager & Zhang, SIAM J. Optim. 16 (2005); Nocedal & Wright, Numerical
Optimization, 2006, section 3.1).  The linear systems are solved by a
banded Cholesky factorization with the interior nodes ordered ring by ring
and the angles of each ring folded (0, T-1, 1, T-2, ...), which keeps the
bandwidth at T + 2.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg import cho_solve_banded, cholesky_banded, get_lapack_funcs

from .operator_core import (DomainError, NonConvergenceError,
                            bracketed_newton, phi_eval, phi_inverse_signed,
                            phi_prime, phi_signed, unit_ball_volume)

_GRAD_FLOOR = 1e-12
_PHI_NODES = 24        # nodes of the Gauss-Jacobi rule of _Phi
_EXHAUST_RHO = 4.0     # exhaust_exterior compares levels on [1, rho]
_COMPARISON_TOL = 1e-9   # comparison_check: u <= v up to this
# holder_modulus takes every node pair up to this many, else this many
# draws from a generator with this seed
_HOLDER_MAX_PAIRS = 400_000
_HOLDER_SEED = 0
_GTSV, = get_lapack_funcs(("gtsv",), (np.empty(0),))


# ---------------------------------------------------------------------------
# meshes and grid functions

@dataclass(frozen=True, eq=False)
class AnnularMesh:
    """Radial (1D) or polar (2D) annular mesh.

    Nodal arrays have `shape`: (radii,) on a radial mesh, (radii, angles)
    on a polar one; cell arrays have one radius less.  The radii and angles
    are copied and read-only, and so is the geometry built from them once
    per mesh: cell and node measures, the radial steps dr, the same steps
    cell_dr shaped to divide cell arrays (a column on a polar mesh), the
    angular steps rdtheta = r_mid * dtheta of the cells, the index arrays
    theta_next and theta_prev of each angle's angular neighbours.
    """
    n: int
    radii: np.ndarray
    theta: np.ndarray | None = None      # angular nodes (2D, periodic), n == 2

    def __post_init__(self):
        radii = np.array(self.radii, dtype=float)
        if np.any(np.diff(radii) <= 0):
            raise DomainError("radii must be strictly increasing")
        if np.any(radii[1:] / radii[:-1] > 2.0 + 1e-12):
            raise DomainError("geometric grading ratio must stay within [1, 2]")
        self._freeze("radii", radii)
        self._freeze("dr", np.diff(radii))
        omega = unit_ball_volume(self.n)
        shells = omega * (radii[1:] ** self.n - radii[:-1] ** self.n)
        if self.theta is None:
            self._freeze("cell_dr", self.dr)
            self._freeze("_cells", shells)
            mu = np.zeros(len(radii))
            mu[:-1] += 0.5 * shells
            mu[1:] += 0.5 * shells
            self._freeze("_nodes", mu)
            return
        if self.n != 2:
            raise DomainError("angular meshes are 2D only")
        self._freeze("theta", np.array(self.theta, dtype=float))
        self._freeze("cell_dr", self.dr[:, None])
        T = len(self.theta)
        self._freeze("theta_next", (np.arange(T) + 1) % T)
        self._freeze("theta_prev", (np.arange(T) - 1) % T)
        dth = self._dtheta()
        rmid = 0.5 * (radii[:-1] + radii[1:])
        self._freeze("rdtheta", rmid[:, None] * dth[None, :])
        cells = shells[:, None] * dth[None, :] / (2.0 * np.pi)
        self._freeze("_cells", cells)
        M = len(radii) - 1
        mu = np.zeros((M + 1, T))
        quarter = 0.25 * cells
        for di in (0, 1):
            mu[di:M + di, :] += quarter
            mu[di:M + di, :] += quarter[:, self.theta_prev]
        self._freeze("_nodes", mu)

    def _freeze(self, name, array):
        array.setflags(write=False)
        object.__setattr__(self, name, array)

    @property
    def is_2d(self):
        return self.theta is not None

    @property
    def shape(self):
        """Shape of nodal arrays."""
        return self._nodes.shape

    @property
    def R_in(self):
        return float(self.radii[0])

    @property
    def R_out(self):
        return float(self.radii[-1])

    def cell_measures(self):
        """Measure of the radial shells (1D) or polar cells (2D), read-only."""
        return self._cells

    def node_measures(self):
        """Control measures per node (cell measures split over corners),
        read-only."""
        return self._nodes

    def _dtheta(self):
        th = self.theta
        return np.diff(np.concatenate((th, [th[0] + 2.0 * np.pi])))

    def points(self):
        """Cartesian node coordinates: radii (1D) or (x, y) pairs (2D)."""
        if not self.is_2d:
            return self.radii[:, None]
        r = self.radii[:, None]
        return np.stack((r * np.cos(self.theta)[None, :],
                         r * np.sin(self.theta)[None, :]), axis=-1)


def radial_mesh(n, R_in, R_out, num_cells):
    return AnnularMesh(n=n, radii=np.geomspace(R_in, R_out, num_cells + 1))


def polar_mesh(R_in, R_out, num_radial, num_angular, inner_layers=0,
               layer_ratio=0.5, theta_center=None):
    """2D polar mesh; optional graded layers toward the inner circle and,
    when theta_center is given, toward that angle (singularity resolution)."""
    radii = np.geomspace(R_in, R_out, num_radial + 1)
    if inner_layers:
        h0 = radii[1] - radii[0]
        extra = R_in + h0 * layer_ratio ** np.arange(1, inner_layers + 1)
        radii = np.unique(np.concatenate((radii, extra)))
    theta = np.linspace(0.0, 2.0 * np.pi, num_angular, endpoint=False)
    if theta_center is not None and inner_layers:
        dth = 2.0 * np.pi / num_angular
        extra = theta_center \
            + np.outer([-1.0, 1.0],
                       dth * layer_ratio ** np.arange(1, inner_layers + 1))
        theta = np.unique(np.concatenate((theta, extra.ravel())) % (2 * np.pi))
    return AnnularMesh(n=2, radii=radii, theta=theta)


@dataclass
class GridFunction:
    mesh: AnnularMesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise DomainError("grid function values must be finite")
        if self.values.shape != self.mesh.shape:
            raise DomainError(
                f"values shape {self.values.shape} != {self.mesh.shape}")

    def at_radius(self, R):
        """Values on the sphere of radius R (linear interpolation in r): a
        number on a 1D mesh, a row over the angles on a 2D one.  An array
        of radii gives one such value or row per radius, elementwise."""
        r = self.mesh.radii
        R = np.asarray(R, dtype=float)
        inside = (r[0] - 1e-12 <= R) & (R <= r[-1] + 1e-12)
        if not np.all(inside):
            raise DomainError(f"radius {R[~inside][0]} outside mesh range")
        i = np.clip(np.searchsorted(r, R) - 1, 0, len(r) - 2)
        t = np.clip((R - r[i]) / (r[i + 1] - r[i]), 0.0, 1.0)
        if self.mesh.is_2d:
            t = t[..., None]
        return (1 - t) * self.values[i] + t * self.values[i + 1]


# ---------------------------------------------------------------------------
# energy and its gradient

@functools.lru_cache(maxsize=32)
def _jacobi_rule(p):
    """Nodes y and weights w of the 24-point Gauss rule on [0, 1] for the
    weight y^(p-1), read-only: sum_j w_j g(y_j) = int_0^1 y^(p-1) g(y) dy
    for every polynomial g of degree at most 47.

    Golub-Welsch (Math. Comp. 23 (1969)): the nodes are the eigenvalues of
    the Jacobi matrix of the Jacobi polynomials of weight
    (1 - x)^0 (1 + x)^(p-1), shifted to [0, 1] by y = (1 + x)/2, and w_j is
    the total weight 1/p times the squared first component of the j-th
    unit eigenvector.
    """
    # the three-term recurrence on [-1, 1] (Abramowitz & Stegun 22.7.1),
    # monic and symmetrized; y = (1 + x)/2 halves its coefficients and
    # shifts the diagonal by 1/2
    b = p - 1.0
    k = np.arange(1, _PHI_NODES)
    s = 2.0 * k + b
    diag = 0.5 + 0.5 * np.concatenate(([b / (b + 2.0)],
                                       b * b / (s * (s + 2.0))))
    off = k * (k + b) / (s * np.sqrt(s * s - 1.0))
    y, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    w = v[0] ** 2 / p
    y.setflags(write=False)
    w.setflags(write=False)
    return y, w


def _Phi(spec, s):
    """Antiderivative Phi(s) = int_0^s phi of phi (vectorized, s >= 0).

    Constant A = c: c s^p / p.  Otherwise
    Phi(s) = s^p int_0^1 y^(p-1) A(s y) dy by the 24-point Gauss-Jacobi
    rule of `_jacobi_rule`, which integrates the t^(p-1) factor exactly and
    evaluates A alone: for smooth-bump within 4e-15 relative of 30-digit
    mpmath at p in [1.5, 6] and s <= 6, and within 2e-12 at s = 10.
    """
    s = np.asarray(s, dtype=float)
    if spec.const_value is not None:
        return spec.const_value * s ** spec.p / spec.p
    y, w = _jacobi_rule(spec.p)
    return s ** spec.p * (spec.coeff(s[..., None] * y) @ w)


def _source_values(f, mesh):
    """The radial source f (None: zero) at the nodes, read-only; on a polar
    mesh its radial profile is broadcast over the angles."""
    vals = 0.0 if f is None else np.asarray(f(mesh.radii), dtype=float)
    return np.broadcast_to(vals, mesh.shape[::-1]).T


def _cell_gradients(mesh, values):
    """Radial differences of every cell, then, on a polar mesh, angular."""
    du_r = np.diff(values, axis=0) / mesh.cell_dr
    if not mesh.is_2d:
        return (du_r,)
    du_t = (values[:-1, mesh.theta_next] - values[:-1]) / mesh.rdtheta
    return du_r, du_t


def discrete_energy(u, spec, fvals=None):
    """J(u) = sum Phi(|grad u|) |cell| - sum f u |node|.

    Phi is `_Phi`: exact for constant A, and otherwise the 24-point
    Gauss-Jacobi rule in t^(p-1), within rounding of the exact Phi for
    smooth-bump (4e-15 relative at cell gradients up to 6).

    fvals: the source at the nodes, shaped as u.values (`solve_dirichlet`
    builds it once per solve); None for no source.
    """
    mesh = u.mesh
    cells = mesh.cell_measures()
    grads = _cell_gradients(mesh, u.values)
    mag = np.sqrt(sum(g ** 2 for g in grads))
    if fvals is None:
        fvals = _source_values(None, mesh)
    return float(np.sum(_Phi(spec, mag) * cells)
                 - np.sum(fvals * u.values * mesh.node_measures()))


def energy_gradient(mesh, spec, values, fvals):
    """(dJ/du, terms) at values.

    dJ/du is given at every node (boundary rows included; mask them
    outside).  terms are the cell quantities it is built from, which the
    Newton direction of the same values reuses: the cell gradients (a tuple
    of the radial and, on a polar mesh, the angular differences), |g|
    floored at _GRAD_FLOOR and w = phi(|g|)/|g| at the floored |g|.  The
    fluxes take the exact phi(|g|)/|g| in the cells below the floor.
    """
    cells = mesh.cell_measures()
    grads = _cell_gradients(mesh, values)
    mag = np.sqrt(sum(g ** 2 for g in grads))
    mag_f = np.maximum(mag, _GRAD_FLOOR)
    w = phi_eval(spec, mag_f) / mag_f          # phi(|g|)/|g|, floored
    w_flux = w
    tiny = (mag > 0) & (mag < _GRAD_FLOOR)
    if np.any(tiny):
        w_flux = w.copy()
        w_flux[tiny] = phi_eval(spec, mag[tiny]) / mag[tiny]
    grad = -fvals * mesh.node_measures()
    flux_r = w_flux * grads[0] * cells / mesh.cell_dr
    grad[:-1] -= flux_r
    grad[1:] += flux_r
    if mesh.is_2d:
        flux_t = w_flux * grads[1] * cells / mesh.rdtheta
        grad[:-1] -= flux_t
        grad[:-1] += flux_t[:, mesh.theta_prev]
    return grad, (grads, mag_f, w)


@dataclass
class EnergyReport:
    """How a solve stopped: status "converged", "stagnated" or "max_iter",
    grad_norm the max norm of the interior energy gradient, scale the
    factor of tol in the stopping test, energy the energy of the solution
    and the last entry of history.  `solve_dirichlet` defines the status,
    and what iterations and history count on each kind of mesh."""
    energy: float
    grad_norm: float
    iterations: int
    status: str
    scale: float
    history: list = field(default_factory=list)

    @property
    def converged(self):
        return self.status == "converged"


# ---------------------------------------------------------------------------
# nonlinear solves

def _apply_boundary(mesh, values, boundary_data):
    """Write the inner and outer traces into the first and last rows of
    values.  A trace is a number; on a polar mesh it may also be an array
    over the angles or a callable of the angle."""
    for row, side in ((0, "inner"), (-1, "outer")):
        data = boundary_data[side]
        if not mesh.is_2d and not isinstance(data, numbers.Real):
            raise DomainError(f"{side} data on a radial mesh must be a "
                              f"number, not {type(data).__name__}")
        values[row] = data(mesh.theta) if callable(data) else data


# ---------------------------------------------------------------------------
# the SPD band solve of the 2D systems

def spsolve(ab, b):
    """Solve A x = b for a symmetric positive definite band matrix A.

    This is the package's own SPD band solve: LAPACK banded Cholesky
    (pbtrf, then pbtrs) through scipy.linalg.  ab holds the lower triangle
    of A in band storage, ab[i - j, j] = A[i, j] for 0 <= i - j <= kd; it
    is overwritten by the Cholesky factor, and b by the solution.  Raises
    numpy.linalg.LinAlgError if A is not positive definite.
    """
    factor = cholesky_banded(ab, lower=True, overwrite_ab=True,
                             check_finite=False)
    return cho_solve_banded((factor, True), b, overwrite_b=True,
                            check_finite=False)


def _cell_couplings(mesh, Mrr, Mrt, Mtt):
    """Entries aa, bb, cc, ab, ac, bc of B^T M B per cell, stacked (6, M, T).

    Cell (i, j) differences its nodes a = (i, j), b = (i+1, j) and
    c = (i, j+1) by the rows of B: a -> (-br, -bt), b -> (br, 0),
    c -> (0, bt); M = [[Mrr, Mrt], [Mrt, Mtt]] is the cell's local Hessian
    of Phi(|g|), w I + q g g^T, times the cell measure.
    """
    br = 1.0 / mesh.cell_dr
    bt = 1.0 / mesh.rdtheta
    rr, rt, tt = Mrr * br ** 2, Mrt * br * bt, Mtt * bt ** 2
    return np.stack((rr + 2.0 * rt + tt, rr, tt, -rr - rt, -rt - tt, rt))


class _RingBand:
    """Band layout of the interior unknowns of a polar mesh.

    Interior nodes go ring by ring.  Within a ring the angles are folded,
    0, T-1, 1, T-2, ..., so every coupling of a cell, the periodic seam
    and the diagonal (i+1, j)-(i, j+1) link included, lies within T + 2
    positions (George & Liu, Computer Solution of Large Sparse Positive
    Definite Systems, 1981, ch. 4).  The index arrays are built once per
    mesh; `solve` then fills the band storage from the six cell couplings
    of `_cell_couplings` with one bincount.
    """

    def __init__(self, mesh):
        M, T = len(mesh.radii) - 1, len(mesh.theta)
        self.rings, self.T = M - 1, T
        self.order = (M - 1) * T
        # fold[k] is the angle at position k of a ring
        self.fold = np.empty(T, dtype=np.intp)
        self.fold[0::2] = np.arange((T + 1) // 2)
        self.fold[1::2] = np.arange(T - 1, (T - 1) // 2, -1)
        place = np.empty(T, dtype=np.intp)
        place[self.fold] = np.arange(T)
        # band position of every node, -1 on the two Dirichlet circles
        pos = np.full((M + 1, T), -1)
        pos[1:-1, :] = np.arange(M - 1)[:, None] * T + place[None, :]
        # the nodes a = (i, j), b = (i+1, j), c = (i, j+1) of each cell
        na, nb = pos[:-1], pos[1:]
        nc = na[:, mesh.theta_next]
        x = np.stack((na, nb, nc, na, na, nb)).ravel()
        y = np.stack((na, nb, nc, nb, nc, nc)).ravel()
        # entries of the interior block, stored once per symmetric pair
        self.inner = np.flatnonzero((x >= 0) & (y >= 0))
        lo = np.minimum(x, y)[self.inner]
        off = np.abs(x - y)[self.inner]
        self.kd = int(off.max(initial=0))
        self.band_index = lo * (self.kd + 1) + off   # column-major storage

    def solve(self, couplings, rhs):
        """Solve the interior system for an interior-grid right-hand side."""
        n = self.order
        ab = np.bincount(self.band_index,
                         weights=couplings.ravel()[self.inner],
                         minlength=(self.kd + 1) * n)
        try:
            x = spsolve(ab.reshape(n, self.kd + 1).T,
                        rhs[:, self.fold].ravel())
        except LinAlgError as exc:
            raise NonConvergenceError(
                f"{self.rings + 2}x{self.T} polar mesh: the linear system is "
                f"not positive definite ({exc})") from exc
        out = np.empty_like(rhs)
        out[:, self.fold] = x.reshape(self.rings, self.T)
        return out


def solve_banded(mesh, d, rhs):
    """Solve the tridiagonal interior system of a radial mesh.

    No solve of the package calls it since radial meshes are solved by
    flux shooting; it stays because perfbench's tracer binds its name.
    LAPACK gtsv (Gaussian elimination with partial pivoting), the routine
    scipy.linalg's solve_banded calls for one band on each side, without
    its checks and copies.  d holds the conductances of the mesh's M
    cells: the system has diagonal d[:-1] + d[1:] and off-diagonals
    -d[1:-1] over the M - 1 interior nodes.  rhs may be overwritten by the
    solution.  Raises NonConvergenceError if the system is singular.
    """
    # (one interior node: the wrapper takes no empty off-diagonals)
    off = d[1:-1] if len(d) > 2 else np.zeros(1)
    *_, x, info = _GTSV(-off, d[:-1] + d[1:], -off, rhs,
                        True, True, True, True)
    if info > 0:
        raise NonConvergenceError(
            f"{len(mesh.radii)}-node radial mesh on [{mesh.R_in}, "
            f"{mesh.R_out}]: the tridiagonal system is singular (gtsv "
            f"info {info})")
    return x


def _newton_direction_2d(mesh, spec, terms, grad, band):
    """Newton step for the interior gradient grad; terms are the cell
    terms of the same values from `energy_gradient`."""
    cells = mesh.cell_measures()
    (gr, gt), mag, w = terms
    q = (phi_prime(spec, mag) - w) / mag ** 2
    # local Hessian of Phi(|g|): M = w I + q g g^T, SPD since phi' > 0
    H = _cell_couplings(mesh, (w + q * gr ** 2) * cells, q * gr * gt * cells,
                        (w + q * gt ** 2) * cells)
    step = np.zeros_like(grad)
    step[1:-1, :] = band.solve(H, -grad[1:-1, :])
    return step


def _interior_gradient(mesh, spec, values, fvals):
    """energy_gradient with the two boundary rows of dJ/du set to 0."""
    g, terms = energy_gradient(mesh, spec, values, fvals)
    g[[0, -1]] = 0.0
    return g, terms


def _shoot_flux(mesh, spec, fvals, u_in, u_out, gtol, max_iter):
    """Flux shooting on C on a radial mesh, stopped once the interior
    gradient is at most gtol.  Returns (values, interior gradient,
    evaluations of the flux sum, status)."""
    dr = mesh.dr
    ratio = dr / mesh.cell_measures()
    weights = dr * ratio                       # dr^2 / |cell|
    # the flux through cell k at a critical point is C - F_k
    F = np.concatenate(([0.0],
                        np.cumsum((fvals * mesh.node_measures())[1:-1])))
    # at C_k, cell k has the mean slope: the root lies between the C_k
    mean = phi_signed(spec, (u_out - u_in) / (mesh.R_out - mesh.R_in))
    C_k = F + mean / ratio
    lo, hi = float(np.min(C_k)), float(np.max(C_k))
    start = min(max(float(np.sum(weights * C_k) / np.sum(weights)), lo), hi)
    last = {}
    # below this flux a slope may lie under the smallest normal double
    # (p < 2 and tiny data), where phi_inverse_array raises: such a cell
    # is flat
    flat = spec.L_up * float(np.finfo(float).tiny) ** (spec.p - 1.0)

    def flux_sum(C):
        target = (C - F) * ratio
        g = phi_inverse_signed(spec, np.where(np.abs(target) < flat, 0.0,
                                              target))
        # phi'(0) is 0 for p > 2 (an infinite slope) and inf for p < 2 (a
        # cell without slope)
        with np.errstate(divide="ignore", invalid="ignore"):
            dphi = phi_prime(spec, np.abs(g))
            if spec.const_value is None:
                # one more Newton step on phi(g) = target: the iterative
                # inverse meets only 1e-12 relative, which a large flux
                # turns into a gradient above tol
                fix = (phi_signed(spec, g) - target) / dphi
                g = g - np.where(np.isfinite(fix), fix, 0.0)
            # dr_k dg_k/dC, whose sum is the slope of the flux sum
            terms = weights / dphi
            slope = float(np.sum(terms))
            steps = dr * g
            miss = float(u_in + np.sum(steps) - u_out)
            # Newton's correction -miss/slope of C, applied to the steps to
            # first order: each gives up its share terms/slope of the miss,
            # so every flux moves by the same amount and the gradient only
            # to second order.  Without a finite positive slope the cell of
            # the largest term takes the miss.
            if 0.0 < slope < np.inf:
                steps -= miss / slope * terms
            else:
                steps[np.argmax(terms)] -= miss
            values = np.cumsum(np.concatenate(([u_in], steps)))
            values[-1] = u_out
            last.update(values=values,
                        correction=abs(miss) / slope if slope else np.inf)
            return miss, slope

    def done(C, miss):
        if not last["correction"] <= gtol:
            return False
        last["grad"], _ = _interior_gradient(mesh, spec, last["values"],
                                             fvals)
        last["checked"] = last["values"]
        return np.max(np.abs(last["grad"])) <= gtol

    _, evals, status = bracketed_newton(flux_sum, lo, hi, start, done,
                                        max_iter)
    values = last["values"]
    if last.get("checked") is not values:
        last["grad"], _ = _interior_gradient(mesh, spec, values, fvals)
    if np.max(np.abs(last["grad"])) <= gtol:
        status = "converged"
    return values, last["grad"], evals, status


def _polar_start(mesh, spec, fvals, traces, gtol, max_iter):
    """Start of the polar Newton solve: the flux-shooting solve of the
    angular means of the traces, with the radial source profile, on the
    radial mesh of the same radii, plus an extension of what the traces
    leave around their means.  traces holds the two traces in its first and
    last rows; so does the start."""
    inner, outer = traces[0], traces[-1]
    dth = mesh._dtheta()
    weights = dth / (2.0 * np.pi)
    m_in, m_out = float(inner @ weights), float(outer @ weights)
    radial, *_ = _shoot_flux(AnnularMesh(n=2, radii=mesh.radii), spec,
                             fvals[:, 0], m_in, m_out, gtol, max_iter)
    r = mesh.radii[:, None]
    if np.ptp(dth) <= 1e-12 * 2.0 * np.pi:
        # uniform angles: every Fourier mode k >= 1 of a trace decays into
        # the annulus as the harmonic r^k, r^-k pair that is 1 on its own
        # circle and 0 on the other (each power at most 1: no overflow)
        k = np.arange(1, len(dth) // 2 + 1)
        with np.errstate(under="ignore"):
            rho = (mesh.R_in / mesh.R_out) ** (2 * k)
            h_in = (mesh.R_in / r) ** k * (1.0 - (r / mesh.R_out) ** (2 * k))
            h_out = (r / mesh.R_out) ** k * (1.0 - (mesh.R_in / r) ** (2 * k))
        modes = np.zeros((len(r), len(k) + 1), dtype=complex)
        modes[:, 1:] = (h_in * np.fft.rfft(inner)[1:]
                        + h_out * np.fft.rfft(outer)[1:]) / (1.0 - rho)
        rest = np.fft.irfft(modes, n=len(dth), axis=1)
    else:
        # graded angles: interpolate the rest linearly in log r
        t = (np.log(r) - np.log(mesh.R_in)) \
            / (np.log(mesh.R_out) - np.log(mesh.R_in))
        rest = (1 - t) * (inner - m_in) + t * (outer - m_out)
    values = radial[:, None] + rest
    values[[0, -1]] = traces[[0, -1]]
    return values


def solve_dirichlet(mesh, spec, f, boundary_data, method="newton",
                    tol=1e-10, max_iter=400):
    """Discrete energy minimizer with Dirichlet data on both circles.

    boundary_data maps "inner" and "outer" to the traces: numbers, or on a
    polar mesh also arrays over the angles or callables of the angle; other
    data on a radial mesh raises DomainError.  `method` accepts "newton"
    alone and raises DomainError for anything else.  It stays a keyword
    because the benchmark's polar2d workload and the `[solver] method` key
    of `solve-annulus` pass it.

    The report's status is "converged" exactly when grad_norm, the max norm
    of the interior energy gradient of the returned values, is at most
    tol * scale, with the report's scale the largest of 1, |f| at the nodes
    and |traces|.

    Radial mesh: flux shooting.  The gradient vanishes at interior node k
    exactly when the flux phi(g_k) |cell_k| / dr_k of every cell k (g_k
    its slope, phi odd) equals C - F_k, F_k = sum_{i=1..k} f_i |node_i|,
    for one constant C; the traces then ask sum_k dr_k g_k = u_out - u_in,
    a sum increasing in C.  With s = phi((u_out - u_in) / (R_out - R_in)),
    cell k has the mean slope at C_k = F_k + s |cell_k| / dr_k, so the root
    lies between the smallest and the largest C_k.  `bracketed_newton`
    solves for C from the mean of the C_k weighted by dr_k^2 / |cell_k|,
    with the slope sum_k dr_k^2 / (|cell_k| phi'(|g_k|)).  Each evaluation
    takes the slopes from one phi_inverse_array batch (plus one Newton
    step on phi(g_k) when A is not constant, as that inverse meets only
    1e-12 relative).  It applies Newton's next correction of C to the
    steps dr g to first order, each step giving up the share of the missed
    outer trace that its slope term has in the sum, which moves every flux
    by the same amount; the values are u_in plus the cumulative sum of the
    steps, with u_out pinned.  The stop is decided on the gradient of
    those values: energy_gradient is computed once the correction of C is
    within tol * scale.  "stagnated" when the bracket of C collapses,
    "max_iter" after max_iter evaluations (at least one is made).
    iterations counts the evaluations of the flux sum, and history holds
    the one energy of the solution.

    Polar mesh: damped Newton.  The start is the flux-shooting solve above
    (at the same tol * scale and max_iter, whatever its status) on the
    radial mesh of the same radii, with the radial source profile and the
    means of the traces over the angles, weighted by dtheta / 2 pi, plus an
    extension of the traces less their means.  On uniform angles each
    Fourier mode k >= 1 of a trace is extended by the p = 2 harmonic
    factor, (R_in/r)^k (1 - (r/R_out)^2k) / (1 - (R_in/R_out)^2k) from the
    inner circle and (r/R_out)^k (1 - (R_in/r)^2k) / (1 - (R_in/R_out)^2k)
    from the outer one; on graded angles the rest is interpolated linearly
    in log r.  The polar energy of ring-constant values is the radial
    energy (the cells of a ring add up to its shell, and so do the
    nodes), and on uniform angles the minimizer of radial data is
    ring-constant (J is strictly convex and invariant under a rotation by
    one angle step): the start is then the solution, and iterations is 0.
    Each iteration backtracks from the full Newton step d, halving down to
    1e-12, and accepts the first step a with
    (a/2) (grad J(u + a d/2) + grad J(u + a d)) . d <= 1e-4 a grad J(u) . d.
    The left side bounds Delta J(a) = J(u + a d) - J(u), the integral of
    grad J(u + t d) . d over [0, a], from above, because J is convex along
    the line; so an accepted step lowers J by at least the Armijo share,
    without a difference of two energies.  (The looser a grad J(u + a d) . d
    is tried first and spares the midpoint gradient when it passes.)  The
    gradient is checked at the start and after every accepted step;
    "stagnated" when, before it meets tol * scale, d is not a descent
    direction or no step down to 1e-12 is accepted; "max_iter" after
    max_iter accepted steps.  iterations counts the Newton directions
    taken, the one that stagnated included, and history holds the energy
    of the start and of every accepted iterate.

    Returns (GridFunction, EnergyReport).  Deterministic for fixed inputs.
    """
    if method != "newton":
        raise DomainError(f"unknown method {method!r}")
    fvals = _source_values(f, mesh)
    values = np.zeros(mesh.shape)
    _apply_boundary(mesh, values, boundary_data)
    scale = max(1.0, float(np.max(np.abs(fvals))),
                float(np.max(np.abs(values))))
    if not mesh.is_2d:
        values, g, evals, status = _shoot_flux(
            mesh, spec, fvals, float(values[0]), float(values[-1]),
            tol * scale, max_iter)
        energy = discrete_energy(GridFunction(mesh, values), spec, fvals)
        report = EnergyReport(energy=energy,
                              grad_norm=float(np.max(np.abs(g))),
                              iterations=evals, status=status, scale=scale,
                              history=[energy])
        return GridFunction(mesh, values), report
    values = _polar_start(mesh, spec, fvals, values, tol * scale, max_iter)

    def J(v):
        return discrete_energy(GridFunction(mesh, v), spec, fvals)

    band = _RingBand(mesh)
    energy = J(values)
    history = [energy]
    # the gradient at the current iterate: the stopping test reads it, the
    # direction of the next iteration reuses it with its cell terms
    g, terms = _interior_gradient(mesh, spec, values, fvals)
    status, it = "max_iter", 0
    while True:
        if np.max(np.abs(g)) <= tol * scale:
            status = "converged"
            break
        if it == max_iter:
            break
        it += 1
        d = _newton_direction_2d(mesh, spec, terms, g, band)
        gdot = float(np.sum(g * d))
        if not gdot < 0.0:                 # not a descent direction
            status = "stagnated"
            break
        # Armijo on an upper bound of Delta J(step), the integral of
        # grad J(u + t d) . d over [0, step]: J is convex along the line, so
        # the integrand does not decrease and the right-endpoint sum of two
        # panels bounds it from above.  The one-panel sum, a looser bound,
        # is tried first, so the midpoint gradient is computed only when it
        # decides; a halved step ends at the old midpoint, whose gradient is
        # reused, and the accepted step's end gradient is the next g.
        step, new = 1.0, values + d
        g_new, t_new = _interior_gradient(mesh, spec, new, fvals)
        while True:
            share = 1e-4 * step * gdot
            end = float(np.sum(g_new * d))
            accepted = step * end <= share
            if not accepted:
                mid = values + 0.5 * step * d
                g_mid, t_mid = _interior_gradient(mesh, spec, mid, fvals)
                accepted = 0.5 * step * (float(np.sum(g_mid * d)) + end) \
                    <= share
            if accepted or step <= 1e-12:
                break
            step, new, g_new, t_new = 0.5 * step, mid, g_mid, t_mid
        if not accepted:                   # (a NaN bound is not accepted)
            status = "stagnated"
            break
        values, g, terms = new, g_new, t_new
        energy = J(values)
        history.append(energy)

    report = EnergyReport(energy=energy, grad_norm=float(np.max(np.abs(g))),
                          iterations=it, status=status, scale=scale,
                          history=history)
    return GridFunction(mesh, values), report


# ---------------------------------------------------------------------------
# exhaustion, Holder modulus, comparison

@dataclass
class ExhaustionResult:
    radii_schedule: list
    solutions: list
    sups: list
    deviations: list          # max over B_rho \ B_1 of |u_{m+1} - u_m|
    final: GridFunction


def exhaust_exterior(spec, f, inner_boundary_data, R0=2.0, m_max=8,
                     cells_per_doubling=16, tol=1e-10, max_iter=400):
    """Truncated-domain sweep: solve on B_(R_m) minus the unit ball with the
    given inner trace (a number) and zero outer trace, for R_m = R0 2^m.
    Raises NonConvergenceError if the solve of some level does not
    converge."""
    sols, sups, devs, schedule = [], [], [], []
    compare_radii = np.geomspace(1.0, _EXHAUST_RHO, 33)
    prev = None
    for m in range(m_max + 1):
        Rm = R0 * 2.0 ** m
        schedule.append(Rm)
        num = int(np.ceil(cells_per_doubling * np.log2(Rm)))
        mesh = radial_mesh(spec.n, 1.0, Rm, max(num, 8))
        u, rep = solve_dirichlet(mesh, spec, f,
                                 {"inner": inner_boundary_data, "outer": 0.0},
                                 tol=tol, max_iter=max_iter)
        if not rep.converged:
            raise NonConvergenceError(
                f"exhaustion level m={m} (R_m={Rm:g}) did not converge, "
                f"status {rep.status}: gradient {rep.grad_norm:.3e} after "
                f"{rep.iterations} iterations")
        sols.append(u)
        sups.append(float(np.max(u.values)))
        if prev is not None:
            top = min(_EXHAUST_RHO, prev.mesh.R_out)
            radii = compare_radii[compare_radii <= top]
            devs.append(float(np.max(np.abs(u.at_radius(radii)
                                            - prev.at_radius(radii)))))
        prev = u
    return ExhaustionResult(radii_schedule=schedule, solutions=sols,
                            sups=sups, deviations=devs, final=prev)


def holder_modulus(u, alpha, region=None):
    """Sampled Holder seminorm estimate: max |u(x)-u(y)| / |x-y|^alpha over
    node pairs with |x-y| <= diam/4.

    region: optional (r_max, theta_center, theta_halfwidth) restriction of
    a polar mesh; pairs then have both endpoints within the region.  A
    region on a radial mesh, or one that holds no node, raises DomainError.
    """
    if not (0 < alpha <= 1):
        raise DomainError("alpha must lie in (0, 1]")
    mesh = u.mesh
    pts = mesh.points()
    pts = pts.reshape(-1, pts.shape[-1])
    vals = u.values.ravel()
    if region is not None:
        if not mesh.is_2d:
            raise DomainError("holder_modulus: a region needs a polar mesh")
        r_max, th_c, th_h = region
        rr = np.repeat(mesh.radii, len(mesh.theta))
        tt = np.tile(mesh.theta, len(mesh.radii))
        ang = np.abs((tt - th_c + np.pi) % (2 * np.pi) - np.pi)
        mask = (rr <= r_max) & (ang <= th_h)
        if not mask.any():
            raise DomainError(f"holder_modulus: the region {tuple(region)} "
                              f"holds no node of the mesh")
        pts, vals = pts[mask], vals[mask]
    N = len(vals)
    diam = float(np.max(np.linalg.norm(pts - pts.mean(axis=0), axis=1))) * 2.0
    cutoff = diam / 4.0
    best = 0.0
    if N * (N - 1) // 2 <= _HOLDER_MAX_PAIRS:
        ii, jj = np.triu_indices(N, k=1)
    else:
        rng = np.random.default_rng(_HOLDER_SEED)
        ii = rng.integers(0, N, size=_HOLDER_MAX_PAIRS)
        jj = rng.integers(0, N, size=_HOLDER_MAX_PAIRS)
        keep = ii != jj
        ii, jj = ii[keep], jj[keep]
    dist = np.linalg.norm(pts[ii] - pts[jj], axis=1)
    ok = (dist > 0) & (dist <= cutoff)
    if np.any(ok):
        best = float(np.max(np.abs(vals[ii[ok]] - vals[jj[ok]])
                            / dist[ok] ** alpha))
    return best


def comparison_check(u, v):
    """True iff u <= v + 1e-9 at every node (same radii and angles
    required).

    The caller is responsible for the ordering hypotheses (boundary traces
    and sources); this routine verifies the nodal conclusion.  On a radial
    mesh the discrete solutions of ordered data are ordered.  The polar
    scheme keeps comparison at p = 2, and at p > 2 only as the mesh is
    refined: the mixed second derivative of J between the two off-corner
    nodes of a cell is q g_r g_t |cell| / (dr r dtheta), with q > 0 for
    p > 2, positive wherever g_r g_t > 0, so J is not submodular there, and
    on a coarse mesh the solution u of the lower data may exceed the
    solution v of the upper data at some nodes.
    """
    a, b = u.mesh, v.mesh
    if not (np.array_equal(a.radii, b.radii) and
            np.array_equal(a.theta, b.theta)):
        raise DomainError("comparison requires a common mesh")
    return bool(np.all(u.values <= v.values + _COMPARISON_TOL))

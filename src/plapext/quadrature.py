"""Adaptive panel quadrature for smooth and endpoint-singular radial integrands.

The integrands in this package are power-like: smooth away from panel
boundaries, possibly unbounded (but integrable) at the left endpoint, with
possible kinks at known breakpoints.  `integrate` refines level by level
over arrays of panels:

  * level 0 is every piece between consecutive breakpoints, the first
    piece graded geometrically toward a singular left endpoint;
  * each level evaluates a nested Gauss-Kronrod pair on all its panels
    together, calling the integrand with a (panels, k) array of the k
    Kronrod nodes, one row per panel, no row crossing a breakpoint; a call
    holds at most `_NODES_PER_CALL` nodes, which bounds the size of the
    arrays the integrand builds;
  * a panel is accepted, at its Kronrod value, when the Gauss and Kronrod
    values agree to the absolute tolerance shared out over the level-0
    panels; the others are bisected and form the next level.

The pair is data, `(nodes, weights)`.  `G10_K21`, the 10-point Gauss rule
and its 21-point Kronrod extension, is the default and serves every
integral but the Talenti kernels of `rearrangement`: those pass `G3_K7`,
the 3-point Gauss rule and its 7-point extension, with which all but a few
of their pieces near the centre still pass at level 0, at a third of the
nodes.

A panel still failing at `max_depth` raises NonConvergenceError, as does an
integrand that is not finite at the nodes.  `integrate_pieces` runs the same
refinement for many intervals at once, each with its own tolerance;
`cumulative_integral` builds on it a profile at many radii in one pass of
levels, not one per radius, and `tail_panel_sums` uses it for blocks of
doubling panels.  `gauss_rule(k)` is the one cached k-point Gauss-Legendre
rule of the package, for the fixed-rule sums of other modules.
References: Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner, QUADPACK
(1983), routine qk21; Laurie, Calculation of Gauss-Kronrod quadrature
rules, Math. Comp. 66 (1997); Davis & Rabinowitz, Methods of Numerical
Integration, ch. 6.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .operator_core import NonConvergenceError


class DivergenceError(ArithmeticError):
    """An improper integral failed its tail-convergence test."""


# integrand calls carry at most this many nodes (365 K21 panels, or 1097
# K7 panels of the Talenti kernels): all panels of a level in one call
# raise peak memory for several thousand panels, while every call costs
# the integrand a fixed overhead (phi_inverse_array's dominates the Talenti
# kernels), so a block is sized in nodes, not panels
_NODES_PER_CALL = 7680
# doubling panels of a tail sweep integrated per integrate_pieces call
_DOUBLINGS_PER_CALL = 16
# tail_panel_sums: relative tolerance of each panel, the share of the sum
# below which a panel counts as settled, and the most panels swept
_TAIL_REL_TOL = 1e-12
_TAIL_SETTLE_TOL = 1e-14
_TAIL_MAX_PANELS = 1000

# QUADPACK qk21: the nonnegative nodes of the 21-point Kronrod rule on
# [-1, 1], decreasing (xgk; every second one, from the second, is a node of
# the 10-point Gauss rule), their weights (wgk), and the Gauss weights of
# those five nodes (wg)
_XGK21 = (0.995657163025808080735527280689003,
          0.973906528517171720077964012084452,
          0.930157491355708226001207180059508,
          0.865063366688984510732096688423493,
          0.780817726586416897063717578345042,
          0.679409568299024406234327365114874,
          0.562757134668604683339000099272694,
          0.433395394129247190799265943165784,
          0.294392862701460198131126603103866,
          0.148874338981631210884826001129720,
          0.0)
_WGK21 = (0.011694638867371874278064396062192,
          0.032558162307964727478818972459390,
          0.054755896574351996031381300244580,
          0.075039674810919952767043140916190,
          0.093125454583697605535065465083366,
          0.109387158802297641899210590325805,
          0.123491976262065851077958109831074,
          0.134709217311473325928054001771707,
          0.142775938577060080797094273138717,
          0.147739104901338491374841515972068,
          0.149445554002916905664936468389821)
_WG10 = (0.066671344308688137593568809893332,
         0.149451349150580593145776339657697,
         0.219086362515982043995534934228163,
         0.269266719309996355091226921569469,
         0.295524224714752870173892994651338)
# the same for the 7-point Kronrod extension of the 3-point Gauss rule,
# whose nonnegative nodes are sqrt(3/5) and 0
_XGK7 = (0.960491268708020283423507092629080,
         0.774596669241483377035853079956480,
         0.434243749346802558002071502844628,
         0.0)
_WGK7 = (0.104656226026467265193823857192073,
         0.268488089868333440728569280666710,
         0.401397414775962222905051818618432,
         0.450916538658474142345110087045571)
_WG3 = (0.555555555555555555555555555555556,
        0.888888888888888888888888888888889)


def _nested_pair(xgk, wgk, wg):
    """A nested Gauss-Kronrod pair from its QUADPACK-style tables (the
    nonnegative Kronrod nodes, decreasing, every second one from the second
    a Gauss node; their Kronrod weights; the Gauss weights of those Gauss
    nodes): the Kronrod nodes on [-1, 1], ascending, and their weights as
    a (nodes, 2) array, the Gauss rule's (zero at the nodes the Kronrod
    rule adds), then the Kronrod rule's.  Read-only."""
    xgk = np.array(xgk)
    half = np.zeros((len(xgk), 2))     # weights at the nonnegative nodes
    half[1::2, 0] = wg
    half[:, 1] = wgk
    nodes = np.concatenate((-xgk[:-1], xgk[::-1]))
    weights = np.concatenate((half[:-1], half[::-1]))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


G10_K21 = _nested_pair(_XGK21, _WGK21, _WG10)
G3_K7 = _nested_pair(_XGK7, _WGK7, _WG3)


@lru_cache(maxsize=None)
def gauss_rule(k):
    """Nodes and weights of the k-point Gauss-Legendre rule on [-1, 1]
    (read-only arrays, built once per k)."""
    x, w = np.polynomial.legendre.leggauss(k)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _panel_rules(g, lo, hi, rule):
    """Gauss and Kronrod values of g on the panels [lo, hi].

    rule: the nested pair (nodes, weights), as `G10_K21`.  g is called with
    the nodes of a block of panels as one 2D array, a row per panel holding
    its Kronrod nodes, of which the Gauss rule uses every second one; a
    block holds at most `_NODES_PER_CALL` nodes.
    """
    nodes, weights = rule
    per_call = _NODES_PER_CALL // len(nodes)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    sums = np.empty((len(lo), 2))
    for start in range(0, len(lo), per_call):
        blk = slice(start, start + per_call)
        x = mid[blk, None] + half[blk, None] * nodes
        vals = np.asarray(g(x), dtype=float).reshape(x.shape)
        sums[blk] = half[blk, None] * (vals @ weights)
    return sums[:, 0], sums[:, 1]


def _refine(g, lo, hi, coarse, fine, piece, tol, piece_lo, piece_hi,
            max_depth, rule):
    """Refine the level-0 panels [lo, hi] of the pieces [piece_lo, piece_hi].

    coarse, fine: the panels' Gauss and Kronrod values under rule; piece[j]
    is the piece of panel j and tol[i] the absolute tolerance of each panel
    of piece i.  Returns the pieces and the Kronrod values of the accepted
    panels, level by level in panel order.
    """
    kept_piece, kept_value = [], []
    for depth in range(max_depth + 1):
        bad = ~np.isfinite(fine)
        if bad.any():
            i = piece[np.argmax(bad)]
            raise NonConvergenceError(
                f"integrand is not finite on [{piece_lo[i]}, {piece_hi[i]}]")
        ok = np.abs(fine - coarse) <= tol[piece]
        kept_piece.append(piece[ok])
        kept_value.append(fine[ok])
        if ok.all():
            return np.concatenate(kept_piece), np.concatenate(kept_value)
        lo, hi, piece = lo[~ok], hi[~ok], piece[~ok]
        if depth == max_depth:
            i = piece[0]
            raise NonConvergenceError(
                f"{len(lo)} panels (first [{lo[0]}, {hi[0]}]) missed the "
                f"tolerance after {max_depth} bisections on "
                f"[{piece_lo[i]}, {piece_hi[i]}]")
        mid = 0.5 * (lo + hi)
        lo = np.column_stack((lo, mid)).ravel()
        hi = np.column_stack((mid, hi)).ravel()
        piece = np.repeat(piece, 2)
        coarse, fine = _panel_rules(g, lo, hi, rule)


def integrate(g, a, b, rel_tol=1e-12, singular_left=False, breakpoints=(),
              max_depth=48, rule=G10_K21):
    """Integrate the vectorized function g over [a, b].

    singular_left: grade the first piece geometrically toward a (integrable
    algebraic singularity expected there).  breakpoints: kink locations;
    those inside (a, b) become panel edges.  rule: the nested Gauss-Kronrod
    pair of every panel.  Raises NonConvergenceError when a panel bisected
    max_depth times still misses its tolerance.

    g is called with 2D arrays of nodes and returns its values in the same
    shape.  Each row holds the nodes of one panel, and no panel crosses a
    breakpoint or a, b: not at level 0, not after any bisection, and not
    among the graded panels of a singular-left piece.  So an integrand may
    do its per-piece work once per row (the Talenti kernels look up their
    rearrangement piece so); an elementwise one works unchanged.
    """
    if b <= a:
        return 0.0
    inner = np.unique(np.asarray(breakpoints, dtype=float))
    edges = np.concatenate(([a], inner[(inner > a) & (inner < b)], [b]))
    if singular_left:
        # 60 panels shrinking by 4 toward a; the innermost sliver as-is
        graded = a + (edges[1] - a) * 0.25 ** np.arange(60, 0, -1.0)
        edges = np.concatenate(([a], graded, edges[1:]))
    lo, hi = edges[:-1], edges[1:]
    coarse, fine = _panel_rules(g, lo, hi, rule)
    tol = rel_tol * max(abs(float(np.sum(coarse))), 1e-300) / len(lo)
    _, values = _refine(g, lo, hi, coarse, fine,
                        np.zeros(len(lo), dtype=np.intp), np.array([tol]),
                        [a], [b], max_depth, rule)
    return float(np.sum(values))


def integrate_pieces(g, lo, hi, rel_tol=1e-12, max_depth=48):
    """Integrals of the vectorized function g over each [lo[i], hi[i]].

    Each piece is refined exactly as `integrate(g, lo[i], hi[i], rel_tol,
    max_depth=max_depth)` refines it (one level-0 panel of the default
    G10/K21 pair, tolerance rel_tol times its G10 value), but every level
    evaluates the panels of all pieces together.  g gets rows of panel
    nodes, as from `integrate`, and no row crosses the ends of its piece.
    Pieces with hi <= lo integrate to 0.  Raises NonConvergenceError as
    `integrate` does.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    out = np.zeros(len(lo))
    live = np.flatnonzero(hi > lo)
    if len(live) == 0:
        return out
    lo, hi = lo[live], hi[live]
    coarse, fine = _panel_rules(g, lo, hi, G10_K21)
    tol = rel_tol * np.maximum(np.abs(coarse), 1e-300)
    piece, values = _refine(g, lo, hi, coarse, fine, np.arange(len(live)),
                            tol, lo, hi, max_depth, G10_K21)
    out[live] = np.bincount(piece, weights=values, minlength=len(live))
    return out


def cumulative_integral(g, a, radii, rel_tol=1e-12, singular_left=False,
                        breakpoints=(), start=0.0):
    """start plus the integral of g from a to each radius, in one pass.

    The unique radii (those below a count as a) are sorted together with a
    and the breakpoints among them; the first gap is integrated by
    `integrate` (graded toward a when singular_left), the others together
    by `integrate_pieces`, and the increments summed from start.
    """
    radii = np.maximum(np.asarray(radii, dtype=float), a)
    kinks = np.asarray(breakpoints, dtype=float)
    kinks = kinks[(kinks > a) & (kinks < np.max(radii, initial=a))]
    grid, where = np.unique(np.concatenate(([a], radii, kinks)),
                            return_inverse=True)
    first = 0.0
    if len(grid) > 1:
        first = integrate(g, a, grid[1], rel_tol=rel_tol,
                          singular_left=singular_left)
    rest = integrate_pieces(g, grid[1:-1], grid[2:], rel_tol=rel_tol)
    cum = np.cumsum(np.concatenate(([start, first], rest)))
    return cum[where[1:len(radii) + 1]]


def tail_panel_sums(g, a):
    """Integrate g over [a, inf) by doubling panels [a 2^k, a 2^(k+1)].

    Returns (edges, panel_integrals) where the tail beyond the last edge is
    negligible.  Convergence is declared once three successive panels each
    contribute less than _TAIL_SETTLE_TOL of the accumulated integral; raises
    DivergenceError otherwise.  The panels are integrated
    `_DOUBLINGS_PER_CALL` at a time by `integrate_pieces`, then tested in
    order, so up to that many panels past the stopping point are evaluated.
    """
    if a <= 0:
        raise ValueError("tail integration requires a > 0")
    edges = [a]
    sums = []
    acc = 0.0
    settled = 0
    growing = 0
    prev = None
    for start in range(0, _TAIL_MAX_PANELS, _DOUBLINGS_PER_CALL):
        stop = min(start + _DOUBLINGS_PER_CALL, _TAIL_MAX_PANELS)
        k = np.arange(start, stop)
        lo = a * 2.0 ** k
        # the sweep ends before the first panel starting beyond 1e290
        lo = lo[(k == 0) | (lo <= 1e290)]
        for hi, val in zip(2.0 * lo, integrate_pieces(g, lo, 2.0 * lo,
                                                       rel_tol=_TAIL_REL_TOL)):
            val = float(val)
            edges.append(float(hi))
            sums.append(val)
            acc += val
            if abs(val) <= _TAIL_SETTLE_TOL * max(abs(acc), 1e-300):
                settled += 1
                if settled >= 3:
                    return np.asarray(edges), np.asarray(sums)
            else:
                settled = 0
            # steadily growing dyadic panels mean polynomial-or-worse
            # divergence; catch it before the integrand underflows and
            # fakes convergence
            if prev is not None and abs(val) > abs(prev) * 1.001:
                growing += 1
                if growing >= 12:
                    raise DivergenceError(
                        f"tail integral from {a} has growing dyadic panels")
            else:
                growing = 0
            prev = val
        if len(lo) < len(k):
            break
    raise DivergenceError(
        f"tail integral from {a} failed the convergence test")

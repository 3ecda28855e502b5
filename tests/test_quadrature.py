import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plapext import (NonConvergenceError, make_lemma1, make_spec,
                     power_decay_source, quadrature, rearrangement)
from plapext.quadrature import (G3_K7, G10_K21, DivergenceError,
                                cumulative_integral, gauss_rule, integrate,
                                integrate_pieces, tail_panel_sums)

ROW = len(G10_K21[0])     # integrand nodes per panel of the default pair


def _tail_sum(g, a):
    """The improper integral of g over [a, inf): the doubling panels' sum."""
    return float(np.sum(tail_panel_sums(g, a)[1]))


def test_polynomial_exact():
    val = integrate(lambda x: 3.0 * x ** 2, 0.0, 2.0)
    assert val == pytest.approx(8.0, rel=1e-13)


def test_empty_interval():
    assert integrate(np.sin, 1.0, 1.0) == 0.0


def test_endpoint_singularity():
    # integrable algebraic singularity at the left endpoint
    val = integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, singular_left=True)
    assert val == pytest.approx(2.0, rel=1e-10)


def test_breakpoint_kink():
    val = integrate(lambda x: np.abs(x - 0.5), 0.0, 1.0, breakpoints=(0.5,))
    assert val == pytest.approx(0.25, rel=1e-13)


def test_tail_integral_power():
    # int_1^inf r^-2 dr = 1; int_2^inf r^-3 dr = 1/8
    assert _tail_sum(lambda r: r ** -2.0, 1.0) == pytest.approx(1.0, rel=1e-11)
    assert _tail_sum(lambda r: r ** -3.0, 2.0) == pytest.approx(0.125, rel=1e-11)


def test_tail_integral_exponential():
    val = _tail_sum(lambda r: np.exp(-r), 1.0)
    assert val == pytest.approx(np.exp(-1.0), rel=1e-11)


def test_tail_divergence_detected():
    with pytest.raises(DivergenceError):
        _tail_sum(lambda r: 1.0 / r, 1.0)
    with pytest.raises(DivergenceError):
        _tail_sum(lambda r: np.ones_like(r), 1.0)


def test_tail_divergence_with_underflowing_integrand():
    # 1/(r log^0.9 r) diverges although the integrand underflows far out;
    # the growing-panel test must catch it before settling on zeros
    with pytest.raises(DivergenceError):
        _tail_sum(lambda r: 1.0 / (r * np.log(r) ** 0.9), 2.0)


def test_singular_left_against_mpmath():
    got = integrate(lambda x: x ** -0.5, 0.0, 0.7, singular_left=True)
    with mpmath.workdps(30):
        ref = mpmath.quad(lambda x: x ** -0.5, [0, 0.7])
    assert got == pytest.approx(float(ref), rel=1e-12)


def test_kink_at_breakpoint_against_mpmath():
    got = integrate(lambda x: np.abs(x - 0.5), 0.1, 1.3, breakpoints=(0.5,))
    with mpmath.workdps(30):
        ref = mpmath.quad(lambda x: abs(x - 0.5), [0.1, 0.5, 1.3])
    assert got == pytest.approx(float(ref), rel=1e-13)


def test_lemma1_barrier_against_mpmath():
    # p=3, n=2, a=1, no source: phi(v') r = 1, so v' = r^(-1/2), v = 2 sqrt(r)
    b = make_lemma1(make_spec(3.0, 2), R=4.0, f_sup=0.0, a=1.0)
    for r in (0.01, 1.0, 3.5):
        got = integrate(b.u_prime, 0.0, r, rel_tol=1e-12,
                        singular_left=True)
        with mpmath.workdps(30):
            ref = mpmath.quad(lambda t: 1 / mpmath.sqrt(t), [0, r])
        assert got == pytest.approx(float(ref), rel=1e-11)
        assert b.value(r) == pytest.approx(2.0 * np.sqrt(r), rel=1e-11)


@settings(max_examples=40, deadline=None)
@given(a=st.floats(0.0, 2.0), width=st.floats(0.05, 5.0),
       share=st.floats(0.01, 0.99))
def test_splitting_at_a_breakpoint_keeps_the_integral(a, width, share):
    def g(x):
        return np.exp(-x) * np.cos(3.0 * x) + x ** 1.5

    b = a + width
    c = a + share * width
    whole = integrate(g, a, b)
    scale = integrate(lambda x: np.abs(g(x)), a, b)
    tol = 1e-11 * scale
    assert integrate(g, a, b, breakpoints=(c,)) == pytest.approx(whole,
                                                                 abs=tol)
    assert integrate(g, a, c) + integrate(g, c, b) == pytest.approx(
        whole, abs=tol)


def test_depth_cap_raises():
    # a jump away from every breakpoint fails the G10/K21 test at each level
    step = lambda x: (x > 1.0 / 3.0).astype(float)
    with pytest.raises(NonConvergenceError):
        integrate(step, 0.0, 1.0, max_depth=5)
    assert integrate(step, 0.0, 1.0, breakpoints=(1.0 / 3.0,),
                     max_depth=5) == pytest.approx(2.0 / 3.0, rel=1e-13)


def test_non_finite_integrand_raises():
    with pytest.raises(NonConvergenceError):
        integrate(lambda x: np.full_like(x, np.nan), 0.0, 1.0)


def test_gauss_rule_is_leggauss_read_only():
    for k in (8, 16, 20, 24, 40):
        x, w = gauss_rule(k)
        ref_x, ref_w = np.polynomial.legendre.leggauss(k)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
        assert not x.flags.writeable and not w.flags.writeable
        assert gauss_rule(k)[0] is x


def _check_exact_for_polynomials(rule, gauss_degree, kronrod_degree):
    # each rule of the pair integrates x^k exactly on [-1, 1] up to its
    # degree, against mpmath, and is not exact one even degree beyond
    x, weights = rule
    for col, degree in ((1, kronrod_degree), (0, gauss_degree)):
        w = weights[:, col]
        for k in range(degree + 1):
            with mpmath.workdps(30):
                ref = float(mpmath.quad(lambda t: t ** k, [-1, 1]))
            assert x ** k @ w == pytest.approx(ref, rel=1e-15, abs=1e-15)
        assert abs(x ** (degree + 1) @ w - 2.0 / (degree + 2)) > 1e-13


def test_kronrod_pair_is_exact_for_polynomials_against_mpmath():
    _check_exact_for_polynomials(G10_K21, 19, 31)


def test_g3_k7_is_exact_for_polynomials_against_mpmath():
    _check_exact_for_polynomials(G3_K7, 5, 11)


def _check_embedded_gauss_rule(rule, k):
    x, w = gauss_rule(k)
    nodes, weights = rule
    gauss = weights[:, 0]
    assert len(nodes) == 2 * k + 1
    assert np.array_equal(nodes[1::2], x)
    assert np.all(gauss[0::2] == 0.0)
    # leggauss's weights carry a few ulps of rounding; the tabulated ones
    # are rounded once from 33 digits
    assert gauss[1::2] == pytest.approx(w, rel=2e-15, abs=0.0)
    assert not nodes.flags.writeable and not weights.flags.writeable


def test_embedded_g10_is_the_10_point_gauss_rule():
    _check_embedded_gauss_rule(G10_K21, 10)


def test_embedded_g3_is_the_3_point_gauss_rule():
    _check_embedded_gauss_rule(G3_K7, 3)


def _kronrod_by_mpmath(k):
    """Nodes (ascending) and weights of the (2k+1)-point Kronrod extension
    of the k-point Gauss rule, at 40 digits: the added nodes are the zeros
    of the Stieltjes polynomial E, monic of degree k + 1 with
    int P_k E x^j dx = 0 for j <= k, and the weights make the rule exact
    for 1, x, ..., x^(2k)."""
    with mpmath.workdps(40):
        def moment(j):         # int_{-1}^{1} P_k(x) x^j dx
            return mpmath.quad(lambda t: mpmath.legendre(k, t) * t ** j,
                               [-1, 1])
        # E(x) = x^(k+1) + sum_i c_i x^i; k+1 conditions on c_0..c_k
        A = mpmath.matrix(k + 1, k + 1)
        rhs = mpmath.matrix(k + 1, 1)
        for j in range(k + 1):
            for i in range(k + 1):
                A[j, i] = moment(i + j)
            rhs[j] = -moment(k + 1 + j)
        c = mpmath.lu_solve(A, rhs)
        stieltjes = mpmath.polyroots([1] + [c[i] for i in range(k, -1, -1)],
                                     maxsteps=200, extraprec=200)
        gauss = mpmath.polyroots(mpmath.taylor(
            lambda t: mpmath.legendre(k, t), 0, k)[::-1], maxsteps=200,
            extraprec=200)
        nodes = sorted([mpmath.re(t) for t in stieltjes]
                       + [mpmath.re(t) for t in gauss])
        V = mpmath.matrix([[t ** j for t in nodes]
                           for j in range(2 * k + 1)])
        moments = mpmath.matrix([mpmath.mpf(2) / (j + 1) if j % 2 == 0
                                 else 0 for j in range(2 * k + 1)])
        weights = mpmath.lu_solve(V, moments)
        return ([float(t) for t in nodes],
                [float(weights[i]) for i in range(2 * k + 1)])


def test_g3_k7_matches_a_40_digit_construction():
    nodes, weights = _kronrod_by_mpmath(3)
    assert np.array_equal(G3_K7[0], nodes)
    assert np.array_equal(G3_K7[1][:, 1], weights)
    assert np.array_equal(G3_K7[1][1::2, 0], [5 / 9, 8 / 9, 5 / 9])


def _record_talenti_kernel_calls(monkeypatch):
    calls = []

    def recording_integrate(g, *args, **kwargs):
        def rec(x):
            calls.append(np.array(x))
            return g(x)
        return integrate(rec, *args, **kwargs)

    monkeypatch.setattr(rearrangement, "integrate", recording_integrate)
    return calls


def test_talenti_kernel_calls_stay_within_the_node_budget(monkeypatch):
    # at level 0 the kernel sees the 4095 pieces between the 4096
    # rearrangement radii of the source, plus the first piece's 60 graded
    # panels and its innermost sliver, once each, in rows of the 7 G3/K7
    # nodes and calls of at most _NODES_PER_CALL nodes.  Near the centre
    # the kernel grows like sqrt(rho), which G3 misses on the top graded
    # panels and the three pieces after them by up to 2.6e6 times the
    # tolerance, so those are bisected: only panels below the fourth
    # radius, in no more than the 80 rows they take now
    calls = _record_talenti_kernel_calls(monkeypatch)
    spec = make_spec(3.0, 2)
    f = power_decay_source(spec, 1.0, 1.0)
    rearrangement.talenti_bound(0.0, f, spec, 3.0 * np.pi, R_in=1.0,
                                R_out=2.0)
    assert rearrangement._SOURCE_SAMPLES == 4096
    per_call = quadrature._NODES_PER_CALL // 7
    rows = [len(x) for x in calls]
    assert all(x.shape[1] == len(G3_K7[0]) == 7 for x in calls)
    assert rows[:4] == [per_call] * 3 + [4156 - 3 * per_call]
    fs = rearrangement._source_rearrangement(f, 2, 3.0 * np.pi, 1.0, 2.0)
    assert all(np.max(x) < fs.radii[3] for x in calls[4:])
    assert sum(rows[4:]) <= 80


def test_talenti_profile_pieces_pass_at_level_0(monkeypatch):
    # away from the centre every piece between rearrangement radii passes
    # its G3/K7 test unrefined: the profile at 0.2 rho_max sees each piece
    # above x_radius once, and nothing more
    calls = _record_talenti_kernel_calls(monkeypatch)
    spec = make_spec(3.0, 2)
    f = power_decay_source(spec, 1.0, 1.0)
    fs = rearrangement._source_rearrangement(f, 2, 3.0 * np.pi, 1.0, 2.0)
    x_radius = 0.2 * fs.outer_radius
    rearrangement.full_talenti_profile(0.0, f, spec, 3.0 * np.pi, x_radius,
                                       R_in=1.0, R_out=2.0)
    pieces = np.count_nonzero(fs.radii[:-1] > x_radius) + 1
    per_call = quadrature._NODES_PER_CALL // 7
    assert sum(len(x) for x in calls) == pieces
    assert len(calls) == -(-pieces // per_call)


def test_pieces_match_separate_integrals():
    # a power-law integrand over pieces of very different widths (some
    # refined several levels), a zero-length piece and a reversed one
    g = lambda x: x ** -0.75 + np.exp(-x)
    lo = np.array([1e-6, 0.5, 2.0, 2.0, 3.0, 1e3, 7.0])
    hi = np.array([0.5, 2.0, 2.0, 1e3, 1e5, 1e3, 5.0])
    got = integrate_pieces(g, lo, hi, rel_tol=1e-12)
    for a, b, v in zip(lo, hi, got):
        ref = integrate(g, a, b, rel_tol=1e-12)
        assert v == pytest.approx(ref, rel=1e-15, abs=0.0)
    assert got[2] == got[5] == got[6] == 0.0
    assert len(integrate_pieces(g, [], [])) == 0


def test_pieces_raise_like_integrate():
    step = lambda x: (x > 1.0 / 3.0).astype(float)
    with pytest.raises(NonConvergenceError, match="0.0, 1.0"):
        integrate_pieces(step, [-1.0, 0.0], [0.0, 1.0], max_depth=5)
    nan_right = lambda x: np.where(x > 2.0, np.nan, 1.0)
    with pytest.raises(NonConvergenceError, match="not finite on .3.0"):
        integrate_pieces(nan_right, [0.0, 3.0], [1.0, 4.0])


def _tail_panel_sums_one_by_one(g, a, rel_tol=1e-12, settle_tol=1e-14):
    # reference: one integrate per doubling panel, tested as it comes
    edges, sums, acc, settled = [a], [], 0.0, 0
    lo = a
    while True:
        val = integrate(g, lo, 2.0 * lo, rel_tol=rel_tol)
        edges.append(2.0 * lo)
        sums.append(val)
        acc += val
        settled = settled + 1 if abs(val) <= settle_tol * abs(acc) else 0
        if settled >= 3:
            return np.asarray(edges), np.asarray(sums)
        lo *= 2.0


@pytest.mark.parametrize("g, a", [
    (lambda r: r ** -3.0, 2.0),
    (lambda r: np.exp(-r), 1.0),
    (lambda r: np.minimum(1.0, r ** -4.0) * r, 0.3),
])
def test_tail_panels_in_blocks_match_one_by_one(g, a):
    edges, sums = tail_panel_sums(g, a)
    ref_edges, ref_sums = _tail_panel_sums_one_by_one(g, a)
    assert np.array_equal(edges, ref_edges)
    assert sums == pytest.approx(ref_sums, rel=1e-15, abs=0.0)


def _recorded(g):
    """g, and the list of the node arrays it is called with."""
    calls = []

    def rec(x):
        calls.append(np.array(x))
        return g(x)
    return rec, calls


def _rows_within_pieces(calls, edges):
    # every call is a 2D array of nodes, and every row lies inside one piece
    # (edges[k-1], edges[k])
    for x in calls:
        assert x.ndim == 2 and x.shape[1] == ROW
        first = np.searchsorted(edges, x.min(axis=1), side="right")
        last = np.searchsorted(edges, x.max(axis=1), side="left")
        assert np.array_equal(first, last)
        assert np.all((first > 0) & (first < len(edges)))


def test_integrand_rows_are_panels_at_level_0():
    g, calls = _recorded(np.exp)
    integrate(g, 0.0, 1.0, breakpoints=(0.3, 0.7, 1.5))
    assert len(calls) == 1 and calls[0].shape == (3, ROW)
    _rows_within_pieces(calls, [0.0, 0.3, 0.7, 1.0])


def test_integrand_rows_stay_inside_pieces_after_bisection():
    # the kink at 1/3 is no breakpoint, so its panel is bisected many times
    g, calls = _recorded(lambda x: np.abs(x - 1.0 / 3.0))
    integrate(g, 0.0, 1.0, breakpoints=(0.25, 0.5))
    assert len(calls) > 5
    assert all(len(x) == 2 for x in calls[1:])
    _rows_within_pieces(calls, [0.0, 0.25, 0.5, 1.0])


def test_integrand_rows_of_the_graded_singular_piece():
    g, calls = _recorded(lambda x: x ** -0.5)
    integrate(g, 0.0, 0.7, singular_left=True, breakpoints=(0.2, 0.5))
    # the innermost sliver and the 60 graded panels of [0, 0.2], then the
    # two other pieces; no row crosses a graded edge either
    assert calls[0].shape == (63, ROW)
    graded = 0.2 * 0.25 ** np.arange(60, -1, -1.0)
    _rows_within_pieces(calls, np.concatenate(([0.0], graded, [0.5, 0.7])))


def test_integrand_rows_of_pieces_and_cumulative_profiles():
    kink = lambda x: np.abs(x - 1.3) + x ** 1.5
    g, calls = _recorded(kink)
    integrate_pieces(g, [0.0, 1.0, 2.5], [1.0, 2.0, 4.0])
    assert len(calls) > 1
    _rows_within_pieces(calls, [0.0, 1.0, 2.0, 2.5, 4.0])
    g, calls = _recorded(kink)
    cumulative_integral(g, 0.5, [3.0, 1.0, 2.0], breakpoints=(1.5, 2.5))
    _rows_within_pieces(calls, [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])

"""Acceptance gate: one pass/fail line per criterion, asserted at the
stated tolerances.  Each test is independent and prints

    ACCEPTANCE <k>: PASS/FAIL (detail)

so a full `pytest -s tests/test_acceptance.py` reads as a checklist.
"""

import time

import conftest
import numpy as np

from plapext import (cli, decay_fit, envelope_check,
                     exhaust_exterior, exterior_limit, holder_modulus,
                     lemma2_C0, make_lemma1,
                     make_lemma1_prime, make_lemma2, make_lemma2_prime,
                     make_spec, osc_prediction, phi_eval, phi_inverse_array,
                     phi_inverse_bracket, polar_mesh, power_decay_source,
                     radial_mesh, rearrange, solve_dirichlet,
                     solve_exterior_radial, solve_radial_bvp, sphere_stats,
                     talenti_bound, zero_source, counterexample_suite,
                     check_part_b_conditions, counterexample_source)


def report(k, ok, detail):
    line = f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    # the conftest echoes collected lines in the terminal summary, so the
    # checklist is visible even when pytest captures per-test output
    conftest.acceptance_lines.append(line)
    assert ok, f"acceptance criterion {k}: {detail}"


def test_acceptance_01_barrier_closed_form():
    # ball barrier with A == 1, p=3, n=2, f=0, a=1 must equal 2 sqrt(r)
    t0 = time.time()
    spec = make_spec(3.0, 2)
    b = make_lemma1(spec, R=10.0, f_sup=0.0, a=1.0)
    radii = np.linspace(0.1, 10.0, 100)
    vals = b.values(radii)
    rel = np.max(np.abs(vals - 2.0 * np.sqrt(radii)) / (2.0 * np.sqrt(radii)))
    dt = time.time() - t0
    report(1, rel < 1e-8 and dt < 1.0,
           f"max rel err {rel:.2e} at 100 radii in {dt:.2f}s")


def test_acceptance_02_bracket_suite():
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst_rt = 0.0
    checked = 0
    for _ in range(50):
        p = rng.uniform(1.1, 6.0)
        n = int(rng.integers(2, 4))
        coeff = rng.choice(["plap", "smooth-bump",
                            f"const:{rng.uniform(0.2, 5.0):.6f}"])
        spec = make_spec(p, n, str(coeff))
        s = 10.0 ** rng.uniform(-8, 8, size=200)
        t = phi_inverse_array(spec, s)
        lo, hi = phi_inverse_bracket(spec, s)
        assert np.all(t >= lo * (1 - 1e-12)) and np.all(t <= hi * (1 + 1e-12))
        rt = np.max(np.abs(phi_eval(spec, t) - s) / s)
        worst_rt = max(worst_rt, float(rt))
        checked += len(s)
    dt = time.time() - t0
    report(2, checked == 10_000 and worst_rt < 1e-10 and dt < 5.0,
           f"{checked} pairs, worst round-trip {worst_rt:.2e}, {dt:.2f}s")


def test_acceptance_03_barrier_bound_suite():
    t0 = time.time()
    rng = np.random.default_rng(1)
    violations = 0
    total = 0
    for trial in range(10):
        n = int(rng.integers(2, 4))
        p = n + float(rng.uniform(0.3, 2.5))
        coeff = "smooth-bump" if trial == 0 else \
            f"const:{rng.uniform(0.3, 3.0):.6f}"
        spec = make_spec(p, n, coeff)
        C_f = float(rng.uniform(0.2, 3.0))
        eps = float(rng.uniform(0.3, 2.0))
        f = power_decay_source(spec, C_f, eps)
        a = float(rng.uniform(0.1, 2.0))
        R1 = float(rng.uniform(1.0, 10.0))
        R2 = float(rng.uniform(1.5, 10.0))
        if trial == 0:
            # the non-constant coefficient exercises the bisection inverse;
            # one member per family keeps it inside the time budget
            barriers = [
                make_lemma1(spec, R1, C_f, a),
                make_lemma2(spec, f, 0.0),
                make_lemma1_prime(spec, R2, f, a),
                make_lemma2_prime(spec, R2, f, 0.0),
            ]
        else:
            barriers = [
                make_lemma1(spec, R1, C_f, 0.0),
                make_lemma1(spec, R1, C_f, a),
                make_lemma2(spec, f, 0.0),
                make_lemma2(spec, f, a),
                make_lemma1_prime(spec, R2, f, a),
                make_lemma2_prime(spec, R2, f, 0.0),
                make_lemma2_prime(spec, R2, f, a),
            ]
        for b in barriers:
            lo_dom, hi_dom = b.R_in, b.R_out
            lo_r = lo_dom if lo_dom > 0 else 1e-2
            hi_r = min(hi_dom, 50.0 * max(R1, R2))
            radii = np.geomspace(lo_r * (1 + 1e-12), hi_r, 50)
            vals = b.values(radii)
            lower, upper = b.bounds(radii)
            slack = 1e-9 * np.maximum(1.0, np.abs(vals))
            violations += int(np.sum(vals < lower - slack))
            violations += int(np.sum(vals > upper + slack))
            total += len(radii)
    dt = time.time() - t0
    report(3, violations == 0 and dt < 30.0,
           f"{violations} violations in {total} bound checks, {dt:.1f}s")


def test_acceptance_04_radial_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(2)
    configs = [(p, n) for p in (1.5, 2.0, 3.0, 4.0) for n in (2, 3)]
    configs += [(2.5, 2), (3.5, 3)]
    worst_fine = 0.0
    worst_order = np.inf
    for p, n in configs:
        spec = make_spec(float(p), n)
        f = power_decay_source(spec, float(rng.uniform(0.0, 1.0)),
                               float(rng.uniform(0.5, 2.0)))
        u_in = float(rng.uniform(-1.0, 1.0))
        u_out = float(rng.uniform(-1.0, 1.0))
        oracle = solve_radial_bvp(spec, f, 1.0, 2.5, u_in, u_out)
        scale = max(1.0, abs(u_in), abs(u_out))
        errs = []
        for cells in (32, 64, 128):
            mesh = radial_mesh(n, 1.0, 2.5, cells)
            u, rep = solve_dirichlet(mesh, spec, f,
                                     {"inner": u_in, "outer": u_out},
                                     tol=1e-11)
            assert rep.converged
            errs.append(np.max(np.abs(u.values - oracle.values(mesh.radii)))
                        / scale)
        order = np.log2(errs[0] / errs[2]) / 2.0
        worst_order = min(worst_order, order)
        worst_fine = max(worst_fine, errs[2])
    dt = time.time() - t0
    report(4, worst_order >= 1.0 and worst_fine <= 1e-3 and dt < 120.0,
           f"min order {worst_order:.2f}, max fine-mesh rel err "
           f"{worst_fine:.2e}, {dt:.1f}s")


def test_acceptance_05_exhaustion_uniform_bound():
    t0 = time.time()
    spec = make_spec(3.0, 2)
    f = power_decay_source(spec, 1.0, 1.0)
    res = exhaust_exterior(spec, f, 1.0, R0=2.0, m_max=8)
    bound = lemma2_C0(spec, 1.0, 1.0) + 1.0     # C0 + sup of boundary data
    sup_ok = all(s <= bound + 1e-9 for s in res.sups)
    mono = all(d2 <= d1 + 1e-12
               for d1, d2 in zip(res.deviations, res.deviations[1:]))
    dt = time.time() - t0
    report(5, sup_ok and mono and dt < 300.0,
           f"max sup {max(res.sups):.3f} <= {bound:.1f}, deviations "
           f"monotone={mono}, {dt:.1f}s")


def _holder_seminorms(layers, alpha):
    spec = make_spec(3.0, 2)
    cusp = np.pi

    def g(th):
        wrapped = np.abs((th - cusp + np.pi) % (2 * np.pi) - np.pi)
        return wrapped ** 0.5

    mesh = polar_mesh(1.0, 2.0, 16, 32, inner_layers=layers,
                      layer_ratio=0.5, theta_center=cusp)
    u, rep = solve_dirichlet(mesh, spec, zero_source(),
                             {"inner": g, "outer": 0.0})
    assert rep.converged
    return holder_modulus(u, alpha, region=(1.3, cusp, 0.6))


def test_acceptance_06_holder_exponent():
    t0 = time.time()
    alpha = 0.5                       # (p - n)/(p - 1) for p=3, n=2
    s_alpha = [_holder_seminorms(k, alpha) for k in (0, 6, 12)]
    s_prime = [_holder_seminorms(k, alpha + 0.2) for k in (0, 6, 12)]
    drift = max(abs(b - a) / a for a, b in zip(s_alpha, s_alpha[1:]))
    growth = min(b / a for a, b in zip(s_prime, s_prime[1:]))
    dt = time.time() - t0
    report(6, drift < 0.10 and growth >= 2.0,
           f"alpha-seminorm drift {100 * drift:.1f}%, alpha' growth "
           f"{growth:.2f}x per refinement, {dt:.1f}s")


def test_acceptance_07_talenti_suite():
    t0 = time.time()
    rng = np.random.default_rng(3)
    worst_slack = np.inf
    for _ in range(25):
        n = int(rng.integers(2, 4))
        p = float(rng.choice([1.5, 2.0, 2.5, 3.0, 4.0]))
        spec = make_spec(p, n)
        f = power_decay_source(spec, float(rng.uniform(0.1, 2.0)),
                               float(rng.uniform(0.5, 2.0)))
        R_out = float(rng.uniform(1.5, 3.0))
        u_in = float(rng.uniform(-1.0, 1.0))
        u_out = float(rng.uniform(-1.0, 1.0))
        mesh = radial_mesh(n, 1.0, R_out, 96)
        u, rep = solve_dirichlet(mesh, spec, f,
                                 {"inner": u_in, "outer": u_out})
        assert rep.converged
        data = rearrange(u)
        bound = talenti_bound(max(abs(u_in), abs(u_out)), f, spec,
                              float(np.sum(mesh.node_measures())),
                              R_in=1.0, R_out=R_out)
        worst_slack = min(worst_slack, bound - float(np.max(data.values)))
    dt = time.time() - t0
    report(7, worst_slack >= -1e-6 and dt < 180.0,
           f"25 solves, worst slack {worst_slack:.2e}, {dt:.1f}s")


def test_acceptance_08_envelope_exact_constant():
    t0 = time.time()
    worst = np.inf
    for (p, n, eps, C_f, u_in) in [(3.0, 2, 1.0, 1.0, 0.0),
                                   (3.0, 2, 0.5, 2.0, -1.0),
                                   (4.0, 3, 1.5, 0.7, 0.5),
                                   (3.5, 2, 1.0, 1.3, 1.0)]:
        spec = make_spec(p, n)
        f = power_decay_source(spec, C_f, eps)
        sol = solve_exterior_radial(spec, f, u_in)
        slack = envelope_check(sol, f, spec, 2.0 ** np.arange(0, 11))
        worst = min(worst, slack)
    dt = time.time() - t0
    report(8, worst >= -1e-9,
           f"worst envelope slack {worst:.2e} at dyadic R <= 2^10, {dt:.1f}s")


def test_acceptance_09_decay_rate():
    spec = make_spec(3.0, 2)
    f = power_decay_source(spec, 1.0, 1.0)
    sol = solve_exterior_radial(spec, f, 0.0)
    stats = sphere_stats(sol, list(2.0 ** np.arange(0, 11)))
    fit = decay_fit(stats, spec, f, limit=exterior_limit(sol))
    pred = osc_prediction(spec, f)
    # ell - u(R) = sqrt(2) R^{-1/2} exactly, so the slope must be 1/2
    ok = fit.beta >= 0.9 * (1.0 / 2.0) and pred.C < 1.0
    report(9, ok, f"measured beta {fit.beta:.4f} >= 0.45, "
                  f"C_pred {pred.C:.8f} < 1")


def test_acceptance_10_counterexample_sharpness():
    t0 = time.time()
    ok = True
    details = []
    for p, n in [(2.0, 3), (3.0, 2)]:
        rep = counterexample_suite(float(p), n, k_max=4)
        var = rep.ratio_variation
        alternating = list(rep.extrema_values) == [1.0, -1.0, 1.0, -1.0, 1.0]
        ok = ok and var < 10.0 and alternating and not rep.has_limit
        details.append(f"p={p},n={n}: variation {var:.2f}")
    dt = time.time() - t0
    report(10, ok and dt < 10.0, "; ".join(details) + f", {dt:.1f}s")


def test_acceptance_11_part_b_conditions():
    spec = make_spec(2.0, 3)        # p/(p-1) = 2 < n = 3
    f_ce = counterexample_source(2.0, 3)
    f_ok = power_decay_source(spec, 1.0, 1.0)
    r_grid = np.linspace(1.0, 1.45, 5)      # Lebesgue exponents below n/p = 1.5
    ce_ok = True
    for r_exp in r_grid:
        rep = check_part_b_conditions(f_ce, spec, float(r_exp), 0.5, k_max=25)
        ce_ok = ce_ok and (not rep.flag_Lr) and rep.flag_Ltheta \
            and rep.flag_Kgoes0
    rep_ok = check_part_b_conditions(f_ok, spec, 1.2, 0.5, k_max=25)
    report(11, ce_ok and rep_ok.all_passed,
           "counterexample residual fails the radial integrability at 5 "
           "exponents, passes the angular-norm conditions; power decay "
           "passes all three")


def test_acceptance_12_suite_determinism(tmp_path):
    (tmp_path / "barrier.cfg").write_text("""\
[operator]
p = 3
n = 2

[source]
name = zero

[barrier]
family = lemma1
R = 10
a = 1
f_sup = 0

[radii]
r_min = 0.1
r_max = 10
count = 50
spacing = geom
""")
    (tmp_path / "counter.cfg").write_text("""\
[counterexample]
p = 3
n = 2
samples = 120
""")
    (tmp_path / "suite.cfg").write_text("""\
[suite]
experiments = bar1, ce1

[bar1]
subcommand = barrier
config = barrier.cfg

[ce1]
subcommand = counterexample
config = counter.cfg
""")
    outs = []
    for run_dir in ("o1", "o2"):
        out = tmp_path / run_dir
        assert cli.run("suite", tmp_path / "suite.cfg", out,
                       quiet=True) == 0
        outs.append(out)
    mismatches = []
    files = sorted(f.relative_to(outs[0]) for f in outs[0].rglob("*")
                   if f.is_file())
    for rel in files:
        if (outs[0] / rel).read_bytes() != (outs[1] / rel).read_bytes():
            mismatches.append(str(rel))
    report(12, len(files) > 0 and not mismatches,
           f"{len(files)} artifacts byte-identical across reruns"
           + (f"; mismatched: {mismatches}" if mismatches else ""))

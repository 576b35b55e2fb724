"""The ten headline checks, one test each, with a printed PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criterion 10 checks the near-radius ratios on the rank-2 free group against
the tree closed forms in ``oracles``.  On the {0.90, 0.95, 0.98}*R grid each
I1 and I2 must match them to 1e-6 relative and the I2/I1^3 band must match
the closed-form band (2.143) to 1e-5; the ratio tends to 1/72 only as r -> R,
so no finite grid this far out has a narrow band.  At {0.999, 0.9995,
0.9998}*R both I1 routes and I2, read off the first-passage system's
least solution and its jet, must match the closed forms to 1e-10, and
inside R's bar, where the jet's I - J is singular, ``ratio_report`` must
refuse.
"""

import math
import time
from fractions import Fraction

import pytest

from freewalk.algebraic import perron_root
from freewalk.audit import ancona_audit, llt_fit, ratio_report
from freewalk.automaton import Automaton
from freewalk.errors import NonConvergenceError
from freewalk.green import GreenEvaluator
from freewalk.parabolic import degeneracy_test, first_return_kernel, induced_green
from freewalk.thermo import build_transfer, pressure, sphere_identity_check
from freewalk.walks import detect_period

from oracles import (
    F2_RADIUS,
    bfs_relative_spheres,
    f2_i1,
    f2_i2,
    f2_return_probability,
    kernel_rho_at_radius,
    spectral_radius_estimate,
    synthetic_log_probs,
    z2z2z2_radius,
    z_log_return_probs,
)
from exact import convolve_powers, exact_returns
from test_path_operator import mass


def _line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status} - {detail}")
    return ok


@pytest.fixture(scope="module")
def ev(f2_srw):
    return GreenEvaluator(f2_srw)


def test_criterion_01_exact_kinematics(f2_srw):
    started = time.perf_counter()
    values = exact_returns(f2_srw, 12)
    ok = values[2] == Fraction(1, 4)
    ok &= values[4] == Fraction(7, 64)
    for n in range(13):
        ok &= values[n] == f2_return_probability(n)
    ok &= mass(convolve_powers(f2_srw, 4)[-1], ()) == Fraction(7, 64)
    elapsed = time.perf_counter() - started
    ok &= elapsed < 10.0
    assert _line(1, ok, f"exact p_n equality for n<=12 in {elapsed:.2f}s")


def test_criterion_02_spectral_radius(f2_srw, z2cubed_srw):
    started = time.perf_counter()
    rho_f2 = spectral_radius_estimate(f2_srw.route.return_log_probs(4000))[1]
    err_f2 = abs(rho_f2 - math.sqrt(3.0) / 2.0)
    rho_z2 = spectral_radius_estimate(z2cubed_srw.route.return_log_probs(4000))[1]
    err_z2 = abs(rho_z2 - 2.0 * math.sqrt(2.0) / 3.0)
    elapsed = time.perf_counter() - started
    ok = err_f2 < 1e-3 and err_z2 < 2e-3 and elapsed < 30.0
    assert _line(
        2, ok, f"radius errors {err_f2:.1e} (tree), {err_z2:.1e} (involutions), {elapsed:.2f}s"
    )


def test_criterion_03_local_limit_exponent(f2_srw, z2cubed_srw):
    alphas = {}
    for name, mu in (("tree", f2_srw), ("involutions", z2cubed_srw)):
        logs = mu.route.return_log_probs(5000)
        rho_hat = spectral_radius_estimate(logs)[1]
        fit = llt_fit(logs, detect_period(logs), (500, 5000), 1.0 / rho_hat)
        alphas[name] = fit.alpha
    control = llt_fit(z_log_return_probs(5000), 2, (500, 5000), 1.0)
    synth = llt_fit(
        synthetic_log_probs(1.5, 1.2, 5000, period=2), 2, (500, 5000), 1.2
    )
    ok = all(abs(a - 1.5) < 0.10 for a in alphas.values())
    ok &= abs(control.alpha - 0.5) < 0.02
    ok &= abs(synth.alpha - 1.5) < 1e-3
    assert _line(
        3,
        ok,
        "alpha tree {tree:.3f}, involutions {involutions:.3f}, line {c:.4f}, "
        "synthetic recovery {s:.5f}".format(c=control.alpha, s=synth.alpha, **alphas),
    )


def test_criterion_04_derivative_identity(ev):
    worst = 0.0
    for frac in (0.5, 0.8, 0.9):
        r = frac * ev.R_hat
        g, dg = ev.system.green_jet(r, 1)
        jet = g + r * dg
        ident = ev.i_sums(r).i1
        worst = max(worst, abs(jet - ident) / jet)
    ok = worst <= 1e-3
    assert _line(4, ok, f"derivative routes agree to {worst:.1e}")


def test_criterion_05_first_return_kernel(f2_srw, f2, ev):
    kern = first_return_kernel(f2_srw, 0, Fraction(1), max_len=20)
    ok = kern.row[(1,)] == Fraction(1, 4) and kern.row[(-1,)] == Fraction(1, 4)
    # certified geometric tail on the open entry: exact increments shrink by
    # < 3/4 per length step, and the long vectorized run confirms the limit
    k22 = first_return_kernel(f2_srw, 0, Fraction(1), max_len=22)
    inc = k22.row[(0,)] - kern.row[(0,)]
    ok &= Fraction(1, 6) - kern.row[(0,)] <= 4 * inc
    k_long = first_return_kernel(
        f2_srw, 0, 1.0, max_len=140, ball_radius=11, exact=False
    )
    gap = abs(1.0 / 6.0 - k_long.row[(0,)])
    ok &= gap < 1e-6
    worst = 0.0
    kern_f = first_return_kernel(f2_srw, 0, 1.0, 60, 10, exact=False)
    for target in ((), ((0, (1,)),), ((0, (2,)),), ((0, (-2,)),)):
        got = induced_green(kern_f, f2, (), target, 1.0, factor_ball=80)
        want = ev.green((), target, 1.0)
        worst = max(worst, abs(got - want) / want)
    ok &= worst < 1e-2
    assert _line(
        5, ok, f"row exact at L=20, tail gap {gap:.1e}, cross-identity to {worst:.1e}"
    )


def test_criterion_06_degeneracy_verdict(f2_srw, z2z3_srw, ev):
    rep = degeneracy_test(f2_srw, ev.R_hat)
    ok = rep.verdict == "non-degenerate"
    rhos = [v.rho_hat for v in rep.factors]
    ok &= len(rhos) == 2 and all(r < 0.95 for r in rhos)
    ev23 = GreenEvaluator(z2z3_srw)
    rep23 = degeneracy_test(z2z3_srw, ev23.R_hat)
    ok &= rep23.verdict == "non-degenerate"
    worst = max(
        abs(v.rho_hat / kernel_rho_at_radius(name, v.factor_id) - 1)
        for name, report in (("f2_srw", rep), ("z2z3", rep23))
        for v in report.factors
    )
    ok &= worst < 1e-13
    assert _line(
        6,
        ok,
        f"tree rho_hat {max(rhos):.3f} < 0.95 both factors; finite factors "
        f"{rep23.verdict}; closed forms to {worst:.1e}",
    )


def test_criterion_07_coding_bijection(f2, z2z3):
    ok = True
    for group in (f2, z2z3):
        for cap in (1, 2):
            auto = Automaton(group, cap)
            symbols = auto.symbols()
            spheres = bfs_relative_spheres(group, 5, cap=cap)
            for n in range(6):
                elems = [tuple(symbols[i] for i in row) for row in auto.sphere_rows(n).tolist()]
                ok &= len(elems) == len(set(elems))
                ok &= set(elems) == set(spheres[n])
                ok &= auto.sphere_size(n) == len(spheres[n])
    assert _line(7, ok, "path<->element bijection exhaustive for n<=5, D<=2")


def test_criterion_08_thermodynamic_layer(ev):
    rows = sphere_identity_check(ev, 0.9 * ev.R_hat, cap=3, n_max=4)
    worst_rel = max(rel for _, _, _, rel in rows)
    ok = worst_rel < 0.02
    inside = pressure(ev.measure, 0.9 * ev.R_hat)
    ok &= inside.pressure < 0.0
    at_radius = pressure(ev.measure, ev.R_hat)
    ok &= -0.05 < at_radius.pressure <= 0.01
    ok &= abs(at_radius.pressure) <= 1e-13  # P(R) = 0
    # the cap-D truncations at R, each below the untruncated P(R)
    rungs = [math.log(perron_root(build_transfer(ev, ev.R_hat, cap)[0]))
             for cap in (2, 3, 4)]
    ok &= all(p <= at_radius.pressure for p in rungs)
    rung_values = [abs(p) for p in rungs]
    ok &= rung_values[-1] <= rung_values[0]  # ladder trends toward 0
    prods = []
    for f in (0.90, 0.95, 0.98):
        r = f * ev.R_hat
        p = pressure(ev.measure, r).pressure
        prods.append(abs(p) * ev.i_sums(r).i1)
    band = max(prods) / min(prods)
    ok &= band < 4.0
    assert _line(
        8,
        ok,
        f"identity to {worst_rel:.1e}, P(R)={at_radius.pressure:.1e}, |P|*I1 band {band:.2f}x",
    )


def test_criterion_09_ancona_audit(ev, z2z3_srw):
    (rep,) = ancona_audit(ev, [0.9 * ev.R_hat], n_triples=200, seed=0)
    dev = max(abs(rep.ratio_min - 1.0), abs(rep.ratio_max - 1.0))
    ok = rep.lower_bound_fraction == 1.0 and dev < 1e-9
    ev23 = GreenEvaluator(z2z3_srw)
    (rep23,) = ancona_audit(
        ev23, [0.9 * ev23.R_hat], n_triples=60, max_rel_dist=4, seed=0
    )
    ok &= rep23.lower_bound_fraction == 1.0
    ok &= rep23.strong_rho < 1.0
    assert _line(
        9,
        ok,
        f"lower bound on 100% of triples, tree deviation {dev:.1e}, "
        f"strong-form rho {rep23.strong_rho:.3f} < 1",
    )


def test_criterion_10_asymptotic_ratio_bands(ev):
    grid = [f * ev.R_hat for f in (0.90, 0.95, 0.98)]
    rep = ratio_report(ev, grid)
    i1_factor = 1.0 + rep.band_i1_scaled
    ok = i1_factor < 3.0
    worst = 0.0
    for row in rep.rows:
        for got, want in ((row.i1, f2_i1(row.r)), (row.i2, f2_i2(row.r))):
            worst = max(worst, abs(got - want) / want)
    ok &= worst < 1e-6
    closed = [f2_i2(row.r) / f2_i1(row.r) ** 3 for row in rep.rows]
    closed_band = (max(closed) - min(closed)) / min(closed)
    ok &= abs(rep.band_i2_over_i1_cubed - closed_band) < 1e-5
    # within 0.1% of R the jet and the relative spheres still match the
    # closed forms; at R itself the jet's I - J is singular and is refused
    near = ratio_report(ev, [f * F2_RADIUS for f in (0.999, 0.9995, 0.9998)])
    worst_near = 0.0
    for row in near.rows:
        for got, want in ((row.i1, f2_i1(row.r)), (row.dgreen, f2_i1(row.r)),
                          (row.i2, f2_i2(row.r))):
            worst_near = max(worst_near, abs(got - want) / want)
    ok &= len(near.rows) == 3 and worst_near < 1e-10
    try:
        ratio_report(ev, [ev.R_hat])
        refused = False
    except NonConvergenceError as exc:
        refused = exc.diagnostics["r"] == ev.R_hat
    ok &= refused
    assert _line(
        10,
        ok,
        f"I1*sqrt(R-r) band {i1_factor:.2f}x (<3 ok), I2/I1^3 band "
        f"{rep.band_i2_over_i1_cubed:.5f} vs closed form {closed_band:.5f}, rows to "
        f"{worst:.1e}; near R to {worst_near:.1e}; refused at R: {refused}",
    )

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from freewalk import walks
from freewalk.algebraic import SCOPE, monomial
from freewalk.audit import ancona_audit, ratio_report, syllable_choices
from freewalk.errors import DivergenceError, GroupSpecError, NonConvergenceError
from freewalk.green import (
    RHO_LOWER_HORIZON,
    GreenEvaluator,
    _rho_lower,
    _sphere_sum,
    sphere_sizes,
)
from freewalk.groups import FreeProduct, LatticeFactor, cyclic_factor
from freewalk.parabolic import degeneracy_test
from freewalk.thermo import pressure
from freewalk.walks import is_radial

from oracles import (
    F2_RADIUS,
    even_terms,
    f2_first_passage,
    f2_green,
    f2_i1,
    f2_i2,
    spectral_radius_estimate,
    tree_i1,
    tree_i2,
    z2z2z2_radius,
    z2z3_green,
    z2z3_i1,
    z2z3_i2,
    z2z3_radius,
)
from test_path_operator import _measure, _single_syllable_measures, routed

NEAR_RADIUS = (0.999, 0.9995, 0.9998)


@pytest.fixture(scope="module")
def ev(f2_srw):
    return GreenEvaluator(f2_srw)


class TestSpectralRadius:
    # the estimate from the return sequence alone (``oracles``), the
    # reference the first-passage system's R is held to
    def test_f2_radius(self, f2_srw):
        logs = f2_srw.route.return_log_probs(4000)
        rho_lower, rho_hat = spectral_radius_estimate(logs)
        assert abs(rho_hat - 1.0 / F2_RADIUS) < 1e-3
        assert rho_lower <= rho_hat
        assert 1.0 / rho_hat > 1.0  # the group is non-amenable

    def test_z2cubed_radius(self, z2cubed_srw):
        logs = z2cubed_srw.route.return_log_probs(4000)
        rho_hat = spectral_radius_estimate(logs)[1]
        assert abs(rho_hat - 1.0 / z2z2z2_radius()) < 2e-3

    def test_lower_bound_is_monotone(self, f2_srw):
        short, long = (
            spectral_radius_estimate(f2_srw.route.return_log_probs(n))[0]
            for n in (400, 2000))
        assert long >= short - 1e-12

    def test_lower_bound_gap_covers_the_error(self, f2_srw):
        # one-sided bar from rho_hat down to the rigorous lower bound
        logs = f2_srw.route.return_log_probs(4000)
        rho_lower, rho_hat = spectral_radius_estimate(logs)
        assert abs(rho_hat - 1.0 / F2_RADIUS) <= rho_hat - rho_lower < 0.01

    @pytest.mark.parametrize("walk", ["f2_srw", "z2cubed_srw"])
    def test_system_radius_is_in_the_estimate_bar(self, walk, request):
        # R of the first-passage system against the estimate from its own
        # return sequence: 1/R lies between the lower bound and rho_hat
        # plus its gap
        measure = request.getfixturevalue(walk)
        est = GreenEvaluator(measure).radius_estimate
        rho_lower, rho_hat = spectral_radius_estimate(measure.route.return_log_probs(4000))
        assert rho_lower == est.rho_lower_bound
        assert rho_lower <= est.rho_hat <= 2 * rho_hat - rho_lower


def _rho_lower_loop(logs):
    """The reference for ``_rho_lower``: exp of every log p_n / n."""
    return max(math.exp(l / n) for n, l in even_terms(logs))


class TestRhoLower:
    @pytest.mark.parametrize("walk", ["f2_srw", "z2z3_srw", "z2cubed_srw", "f2_lazy"])
    def test_equals_the_loop_on_the_return_logs(self, walk, request):
        measure = _measure("f2_lazy") if walk == "f2_lazy" else request.getfixturevalue(walk)
        logs = measure.first_passage_system.return_log_probs(4000)
        assert _rho_lower(logs).hex() == _rho_lower_loop(logs).hex()

    @given(
        rate=st.floats(-5.0, 0.0),
        spread=st.lists(st.integers(-40, 40), min_size=1, max_size=60),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_loop_where_the_rates_nearly_tie(self, rate, spread, data):
        # log p_n / n a few ulps apart, some p_n zero (never p_2): exp is
        # taken of every rate that could round to the largest exp, so the
        # max is the loop's
        logs = np.full(2 * len(spread) + 2, -math.inf)
        logs[0] = 0.0
        for i, k in enumerate(spread):
            n = 2 * (i + 1)
            if i == 0 or data.draw(st.booleans()):
                logs[n] = n * (rate + k * math.ulp(rate or 1.0))
        assert _rho_lower(logs).hex() == _rho_lower_loop(logs).hex()


class TestClosedForms:
    def test_green_at_one(self, ev):
        g = ev.green((), (), 1.0)
        assert math.isclose(g, 1.5, rel_tol=1e-9)
        assert math.isclose(g, f2_green(1.0), rel_tol=1e-9)

    def test_first_passage_at_one(self, ev):
        a = ((0, (1,)),)
        fp = ev.first_passage((), a, 1.0)
        assert math.isclose(fp, 1.0 / 3.0, rel_tol=1e-9)
        assert math.isclose(fp, f2_first_passage(1.0), rel_tol=1e-9)

    def test_green_off_diagonal(self, ev):
        a = ((0, (1,)),)
        g = ev.green((), a, 1.0)
        assert math.isclose(g, 0.5, rel_tol=1e-9)

    def test_factored_crosses_cut_vertex(self, ev, f2):
        # F(a^-1, b | 1) factors through e: (1/3)^2, and G(e,e|1) = 3/2
        ainv = ((0, (-1,)),)
        b = ((1, (1,)),)
        g = ev.green(ainv, b, 1.0)
        assert math.isclose(g, 1.5 * f2_first_passage(1.0) ** 2, rel_tol=1e-9)
        assert math.isclose(g, 1.0 / 6.0, rel_tol=1e-9)
        fp1 = ev.first_passage(ainv, (), 1.0)
        fp2 = ev.first_passage((), b, 1.0)
        assert math.isclose(fp1 * fp2, 1.0 / 9.0, rel_tol=1e-8)

    def test_lattice_powers_are_powers(self, ev):
        for frac in (0.9, 0.99):
            r = frac * ev.R_hat
            f = f2_first_passage(r)
            for k in range(1, 31):
                for fid, sign in ((0, 1), (0, -1), (1, 1), (1, -1)):
                    got = ev.first_passage((), ((fid, (sign * k,)),), r)
                    assert abs(got - f**k) / f**k < 1e-12, (r, fid, sign * k)

    def test_closed_form_across_grid(self, ev):
        for frac in (0.3, 0.6, 0.9, 0.99):
            r = frac * ev.R_hat
            assert math.isclose(
                ev.green((), (), r), f2_green(r), rel_tol=1e-6
            )

    def test_divergence_beyond_radius(self, ev):
        with pytest.raises(DivergenceError):
            ev.green((), (), ev.R_hat * 1.1)

    def test_off_diagonal_at_zero(self, z2z3_srw):
        # every term of G(e, gamma | 0) vanishes when gamma != e
        ev23 = GreenEvaluator(z2z3_srw)
        assert ev23.green((), ((1, 2),), 0.0) == 0.0
        assert ev23.first_passage((), ((1, 2),), 0.0) == 0.0


class TestDerivative:
    def test_series_vs_identity(self, ev):
        # d/dr (r G) from the system's jet against the relative-sphere sum
        for frac in (0.5, 0.8, 0.9):
            r = frac * ev.R_hat
            g, dg = ev.system.green_jet(r, 1)
            ident = ev.i_sums(r)
            assert abs(g + r * dg - ident.i1) / (g + r * dg) < 1e-13

    def test_derivative_positive_and_increasing(self, ev):
        vals = [
            ev.i_sums(f * ev.R_hat).i1_derivative
            for f in (0.3, 0.6, 0.9)
        ]
        assert all(v > 0 for v in vals)
        assert vals == sorted(vals)


class TestISums:
    def test_i1_matches_closed_form(self, ev):
        # I1 = sum over gamma of G(e,gamma)^2; in the tree every gamma at
        # word distance m contributes (G f^m)^2 and |S_m| = 4*3^(m-1)
        r = 0.9 * ev.R_hat
        f = f2_first_passage(r)
        g = f2_green(r)
        expected = g * g * (1 + sum(4 * 3 ** (m - 1) * f ** (2 * m) for m in range(1, 400)))
        s = ev.i_sums(r)
        assert math.isclose(s.i1, expected, rel_tol=1e-4)

    def test_i2_matches_derivative_composition(self, ev):
        # I2 = sum_gamma G(e,gamma) * d/dr(r G(gamma,e)) via the identity
        # applied twice; evaluated sphere by sphere in the tree
        r = 0.9 * ev.R_hat
        f = f2_first_passage(r)
        g = f2_green(r)
        eps = 1e-7
        def d_rg(m):
            lo, hi = r - eps, r + eps
            return (
                hi * f2_green(hi) * f2_first_passage(hi) ** m
                - lo * f2_green(lo) * f2_first_passage(lo) ** m
            ) / (2 * eps)
        expected = g * d_rg(0)
        for m in range(1, 400):
            expected += 4 * 3 ** (m - 1) * (g * f**m) * d_rg(m)
        s = ev.i_sums(r)
        assert math.isclose(s.i2, expected, rel_tol=1e-4)

    @pytest.mark.parametrize("measure, degree", [("f2_srw", 4), ("z2cubed_srw", 3)])
    def test_i2_matches_tree_closed_form(self, request, measure, degree):
        # both walks are simple random walk on a d-regular tree; I2 comes
        # from the first-passage system's jet
        tree_ev = GreenEvaluator(request.getfixturevalue(measure))
        for frac in (0.90, 0.95, 0.98):
            r = frac * tree_ev.R_hat
            s = tree_ev.i_sums(r)
            want = tree_i2(degree, r)
            assert abs(s.i2 - want) / want < 1e-12

    def test_z2z3_oracle_is_consistent(self, z2z3_srw):
        # the first-passage system reproduces the package's G(e,e|r), and
        # the oracle's exact second derivative agrees
        # with a second difference of r^2 G
        ev23 = GreenEvaluator(z2z3_srw)
        r = 0.5 * ev23.R_hat
        assert math.isclose(ev23.green((), (), r), z2z3_green(r), rel_tol=1e-12)
        h = 1e-4
        for r in (0.5, 0.9):
            r2g = [(r + k * h) ** 2 * z2z3_green(r + k * h) for k in (-1, 0, 1)]
            second = (r2g[0] - 2 * r2g[1] + r2g[2]) / (2 * h * h)
            assert math.isclose(second, z2z3_i2(r), rel_tol=1e-5)

    def test_i2_matches_first_passage_system_on_z2z3(self, z2z3_srw):
        # read off the system's jet, with no truncation
        ev23 = GreenEvaluator(z2z3_srw)
        for frac in (0.90, 0.95):
            r = frac * ev23.R_hat
            s = ev23.i_sums(r)
            assert abs(s.i2 - z2z3_i2(r)) / z2z3_i2(r) < 1e-10

    @pytest.mark.parametrize(
        "measure, i1, i2",
        [
            ("f2_srw", f2_i1, f2_i2),
            ("z2cubed_srw", lambda r: tree_i1(3, r), lambda r: tree_i2(3, r)),
        ],
        ids=["f2_srw", "z2cubed_srw"],
    )
    def test_near_radius_matches_tree_closed_forms(self, request, measure, i1, i2):
        # the jet holds up to the branch point: both I1 routes and I2 match
        # the closed forms to 1e-10 (I1 3.2e-13, I2 8.5e-13 at 0.9998*R)
        tree_ev = GreenEvaluator(request.getfixturevalue(measure))
        radius = F2_RADIUS if measure == "f2_srw" else z2z2z2_radius()
        for frac in (0.99, 0.995, 0.997, *NEAR_RADIUS):
            r = frac * radius
            s = tree_ev.i_sums(r)
            for got in (s.i1, s.i1_derivative):
                assert abs(got - i1(r)) / i1(r) < 1e-10, (frac, got)
            assert abs(s.i2 - i2(r)) / i2(r) < 1e-10, frac

    def test_near_radius_matches_z2z3_closed_forms(self, z2z3_srw):
        # not a tree walk: I1 and I2 from the oracle's exact jets of the
        # quadratic for F_t, through i_sums and ratio_report
        ev23 = GreenEvaluator(z2z3_srw)
        grid = [frac * z2z3_radius() for frac in NEAR_RADIUS]
        for row in ratio_report(ev23, grid).rows:
            r = row.r
            for got in (row.i1, row.dgreen):
                assert abs(got - z2z3_i1(r)) / z2z3_i1(r) < 1e-10
            assert abs(row.i2 - z2z3_i2(r)) / z2z3_i2(r) < 1e-10
            assert abs(ev23.green((), (), r) / z2z3_green(r) - 1) < 1e-12

    @pytest.mark.parametrize("measure, degree", [("f2_srw", 4), ("z2cubed_srw", 3)])
    def test_i1_sums_every_sphere(self, request, measure, degree):
        # the relative spheres are summed in closed form, none dropped
        tree_ev = GreenEvaluator(request.getfixturevalue(measure))
        for frac in (0.90, 0.95, 0.98):
            r = frac * tree_ev.R_hat
            s = tree_ev.i_sums(r)
            want = tree_i1(degree, r)
            assert abs(s.i1 - want) / want < 1e-12
            assert abs(s.i1 - s.i1_derivative) / want < 1e-12

    def test_one_newton_solve_per_r(self):
        # G, every first passage, the jet, the untruncated factor weights,
        # the pressure and the degeneracy verdict share the one least
        # solution at r, solved from 0; F(e, a^k) is F(e, a)^k, so no
        # other value is asked of the system
        mu = _measure("f2")
        fresh = GreenEvaluator(mu)
        system, solves = mu.first_passage_system, []
        newton = system._newton
        system._newton = lambda r, x: solves.append((r, x.tolist())) or newton(r, x)
        r = 0.9 * fresh.R_hat
        fresh.i_sums(r)
        fresh.green_batch(fresh.syllable_ids([((0, (3,)), (1, (-2,)))]), r)
        pressure(mu, r), degeneracy_test(mu, r)
        assert solves == [(r, [0.0] * 4)]

    def test_reads_no_coefficient(self):
        # the evaluator's radius estimate is built on first read, so
        # i_sums and the Ancona audit extend no coefficient; read, its
        # rho_lower_bound is sup p_n^(1/n) over the even n <= 4000
        mu = _measure("f2")
        fresh, system = GreenEvaluator(mu), mu.first_passage_system
        fresh.i_sums(0.9 * fresh.R_hat)
        ancona_audit(fresh, [0.9 * fresh.R_hat], n_triples=20)
        assert len(system._g) == 1
        logs = system.return_log_probs(4000)
        want = max(math.exp(logs[n] / n) for n in range(2, 4001, 2))
        assert fresh.radius_estimate.rho_lower_bound == want
        assert fresh.R_hat == system.radius == fresh.radius_estimate.R_hat

    def test_route_check_refuses_a_perturbed_jet(self, monkeypatch):
        # on the system both I1 routes read the least solution, so they
        # must agree to 1e-10: G' scaled by 1 + 1e-8 is refused
        mu = _measure("f2")
        fresh, system = GreenEvaluator(mu), mu.first_passage_system
        r, jet = 0.9 * fresh.R_hat, system.green_jet
        s = fresh.i_sums(r)
        assert abs(s.i1 - s.i1_derivative) / s.i1 < 1e-13

        def perturbed(r, order=2):
            out = jet(r, order)
            if order:  # G'; a point value G reads order 0, which has none
                out[1] *= 1 + 1e-8
            return out

        monkeypatch.setattr(system, "green_jet", perturbed)
        with pytest.raises(NonConvergenceError, match="I1 routes disagree") as err:
            fresh.i_sums(r)
        assert 1e-10 < err.value.diagnostics["rel_gap"] < 1e-8

    @settings(max_examples=30, deadline=None)
    @given(mu=_single_syllable_measures())
    def test_routes_agree_on_random_measures(self, mu):
        # the 1e-10 route check holds up to 0.9999 R on measures in the
        # system's scope (3.2e-14 at most over 279 drawn measures); where
        # the route refuses a draw (``routed``), the evaluator reads the
        # first-passage system itself
        system = mu.first_passage_system
        assume(system is not None)
        past_the_gate = SimpleNamespace(group=mu.group, route=system)
        rand_ev = GreenEvaluator(mu if routed(mu) else past_the_gate)
        for frac in (0.5, 0.9, 0.999, 0.9999):
            s = rand_ev.i_sums(frac * rand_ev.R_hat)
            assert abs(s.i1 - s.i1_derivative) / s.i1 < 1e-12

    def test_refuses_only_at_the_radius(self, ev):
        # near R the jet and the relative spheres agree with each other and
        # with the closed forms; inside R's bar I - J is singular, so the
        # jet, and with it i_sums and ratio_report, refuses
        for frac in NEAR_RADIUS:
            r = frac * F2_RADIUS
            (row,) = ratio_report(ev, [r]).rows
            for got, want in ((row.i1, f2_i1(r)), (row.dgreen, f2_i1(r)), (row.i2, f2_i2(r))):
                assert abs(got - want) / want < 1e-10, (frac, got, want)
        for r in (*ev.system.bracket, ev.R_hat):
            with pytest.raises(NonConvergenceError, match="I - J") as err:
                ev.i_sums(r)
            assert err.value.diagnostics["r"] == r
            with pytest.raises(NonConvergenceError):
                ratio_report(ev, [0.9 * r, r])
        # G(e,e|R) itself is finite: no derivative is taken
        assert abs(ev.green((), (), ev.R_hat) / f2_green(F2_RADIUS) - 1) < 1e-7

    def test_requires_single_syllable_support(self, f2):
        from fractions import Fraction
        from freewalk.walks import StepMeasure

        ab = ((0, (1,)), (1, (1,)))
        ba = ((1, (-1,)), (0, (-1,)))
        a = ((0, (1,)),)
        ai = ((0, (-1,)),)
        mu = StepMeasure(
            f2,
            {ab: Fraction(1, 4), ba: Fraction(1, 4), a: Fraction(1, 4), ai: Fraction(1, 4)},
        )
        with pytest.raises(GroupSpecError, match="needs the first-passage system"):
            GreenEvaluator(mu)

    def test_sphere_sum_refuses_a_singular_matrix(self):
        # t = (1, 1) gives M = [[0, 1], [1, 0]]: I - M is singular, and the
        # relative-sphere series diverges
        with pytest.raises(NonConvergenceError, match="relative-sphere sums diverge") as err:
            _sphere_sum(np.array([1.0, 1.0]), 0.5)
        assert err.value.diagnostics == {"r": 0.5, "syllable_weights": [1.0, 1.0]}


def _sphere(group, n):
    """The elements at word distance exactly n from e, canonically ordered."""
    return [g for g in group.ball(n) if group.word_length(g) == n]


@pytest.fixture(scope="module", params=["f2", "z2z3"])
def single_syllable_ev(request):
    return GreenEvaluator(_measure(request.param))


def _left_to_right(ev, gamma, r, value):
    """``value`` times F(e,u|r)^k over gamma's syllables, left to right,
    with (u, k) the syllable's unknown and power on the system."""
    for fid, p in gamma:
        u, k = monomial(ev.group, fid, p)
        value *= ev.first_passage((), (u,), r) ** k
    return value


def _draw_element(data, choices, max_syllables):
    """A normal form of at most ``max_syllables`` syllables from ``choices``."""
    g, last = [], None
    for _ in range(data.draw(st.integers(0, max_syllables))):
        fid = data.draw(st.sampled_from([k for k in range(len(choices)) if k != last]))
        g.append((fid, data.draw(st.sampled_from(choices[fid]))))
        last = fid
    return tuple(g)


class TestSyllableTable:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_values_are_left_to_right_products(self, single_syllable_ev, data):
        ev = single_syllable_ev
        group = ev.group
        g = _draw_element(data, syllable_choices(group), 6)
        r = data.draw(st.sampled_from((0.3, 0.8, 0.95, 1.0))) * ev.R_hat
        gee = ev.green((), (), r)
        assert ev.green((), g, r) == _left_to_right(ev, g, r, gee)
        assert ev.green(g, (), r) == _left_to_right(ev, group.invert(g), r, gee)
        assert ev.first_passage((), g, r) == _left_to_right(ev, g, r, 1.0)


@pytest.fixture(scope="module")
def twin_ev(single_syllable_ev):
    """A second evaluator of the same measure, with caches of its own."""
    return GreenEvaluator(single_syllable_ev.measure)


class TestLeftInvariance:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_values_depend_on_the_displacement_only(self, single_syllable_ev,
                                                    twin_ev, data):
        # G(x, xg) = G(e, g) and F(x, xg) = F(e, g), bit for bit: the
        # Ancona audit reads every value at its displacement.  The twin is
        # asked only from x, so no cache carries a value from e over.
        ev = single_syllable_ev
        group = ev.group
        choices = syllable_choices(group)
        x = _draw_element(data, choices, 3)
        g = _draw_element(data, choices, 5)
        xg = group.multiply(x, g)
        r = data.draw(st.sampled_from((0.3, 0.8, 0.95, 1.0))) * ev.R_hat
        assert twin_ev.green(x, xg, r) == ev.green((), g, r)
        assert twin_ev.first_passage(x, xg, r) == ev.first_passage((), g, r)


def syllable_weight(ev, syl, r):
    """F(e,u|r)^k of one syllable, (u, k) its unknown and power on the
    system: one entry of the evaluator's weight table, computed on its own."""
    u, k = monomial(ev.group, *syl)
    return ev.first_passage((), (u,), r) ** k


def reference_green(ev, gamma, r):
    """G(e,gamma|r) by the scalar loop the evaluator ran before its batch:
    G(e,e) times gamma's syllable weights, one syllable at a time."""
    value = ev.green((), (), r)
    for syl in gamma:
        value *= syllable_weight(ev, syl, r)
    return value


@pytest.fixture(scope="module", params=["f2", "z2z3", "z2z2z2", "f2_asym", "f2_lazy"])
def batch_ev(request):
    # the shipped groups, a skewed and a lazy walk on f2: all on the system
    return GreenEvaluator(_measure(request.param))


class TestGreenBatch:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_batch_equals_the_scalar_path(self, batch_ev, data):
        # lattice powers up to a^5, finite syllables, and the empty word
        ev = batch_ev
        choices = syllable_choices(ev.group, cap=5)
        n_words = data.draw(st.integers(1, 6))
        words = [_draw_element(data, choices, 6) for _ in range(n_words)]
        words.insert(data.draw(st.integers(0, len(words))), ())
        r = data.draw(st.sampled_from((0.9, 0.98))) * ev.R_hat
        values = ev.green_batch(ev.syllable_ids(words), r)
        assert values.dtype == np.float64
        for w, v in zip(words, values.tolist()):
            g, ref = ev.green((), w, r), reference_green(ev, w, r)
            assert v.hex() == g.hex() == ref.hex()
            assert type(g) is float  # a point value of the least solution

    def test_empty_word_reads_g_ee(self, batch_ev):
        ev = batch_ev
        r = 0.9 * ev.R_hat
        values = ev.green_batch(ev.syllable_ids([(), ()]), r)
        gee = ev.green((), (), r)
        assert values.tolist() == [gee] * 2 and type(gee) is float

    def test_weight_tables_are_arrays_by_syllable_id(self, f2_srw):
        ev = GreenEvaluator(f2_srw)
        r = 0.9 * ev.R_hat
        ids = ev.syllable_ids([((0, (2,)), (1, (-1,))), ((1, (-1,)),), ()])
        assert ids.tolist() == [[1, 2], [2, 0], [0, 0]]
        w = ev.syllable_weights(r)
        assert w[0] == 1.0
        for i, syl in ((1, (0, (2,))), (2, (1, (-1,)))):
            assert w[i] == syllable_weight(ev, syl, r)


class TestTables:
    """Point values come from the first-passage system wherever it covers
    the measure, radial walks included; every other measure is refused."""

    @pytest.mark.parametrize(
        "measure, radius",
        [
            ("f2", F2_RADIUS),
            ("z2z2z2", z2z2z2_radius()),
            # holding 1/3 at e maps the spectral radius sqrt(3)/2 of the
            # simple walk to 1/3 + (2/3)(sqrt(3)/2)
            ("f2_lazy", 3.0 / (1.0 + math.sqrt(3.0))),
        ],
        ids=["f2", "z2z2z2", "f2_lazy"],
    )
    def test_radial_measures_read_the_first_passage_system(self, measure, radius):
        mu = _measure(measure)
        assert is_radial(mu) is not None
        ev_m = GreenEvaluator(mu)
        assert ev_m.system is mu.first_passage_system
        assert ev_m.R_hat == mu.first_passage_system.radius
        assert abs(ev_m.R_hat - radius) < 1e-12

    @pytest.mark.parametrize("measure", ["f2", "z2z2z2"])
    def test_radial_coefficients_match_the_distance_chain(self, measure):
        # two engines that share no code: on these walks p_n(e, gamma)
        # depends on |gamma| alone, and the distance chain gives it as the
        # sphere mass over the sphere size; G(e, gamma|r) is the sum of
        # those over n, and the evaluator forms it as G(e,e) F(e, gamma)
        mu = _measure(measure)
        ev_m = GreenEvaluator(mu)
        masses, logscales = is_radial(mu).float_masses(600)
        sizes = sphere_sizes(mu.group, 8)
        n = np.arange(601)
        for frac in (0.5, 0.9):
            r = frac * ev_m.R_hat
            for m in range(9):
                with np.errstate(divide="ignore"):
                    logs = np.log(masses[:, m]) + logscales - math.log(sizes[m])
                want = float(np.exp(logs + n * math.log(r)).sum())
                sphere = _sphere(mu.group, m)
                for gamma in {sphere[0], sphere[len(sphere) // 2], sphere[-1]}:
                    got = ev_m.green((), gamma, r)
                    assert abs(got - want) / want < 1e-12, (r, gamma, got, want)

    def test_z2z3_reads_the_first_passage_system(self, z2z3_srw):
        ev23 = GreenEvaluator(z2z3_srw)
        assert ev23.system is z2z3_srw.first_passage_system
        assert ev23.radius_estimate.rho_lower_bound == _rho_lower(
            z2z3_srw.first_passage_system.return_log_probs(RHO_LOWER_HORIZON))
        assert ev23.R_hat == z2z3_srw.first_passage_system.radius
        assert abs(ev23.R_hat - z2z3_radius()) / z2z3_radius() < 1e-12
        assert ev23.radius_estimate.uncertainty < 1e-15
        assert ev23.radius_estimate.rho_lower_bound <= ev23.radius_estimate.rho_hat

    def test_system_radius_is_a_hard_limit(self, z2z3_srw):
        # past the system's branch point the evaluator refuses, and
        # r = R itself is allowed
        ev23 = GreenEvaluator(z2z3_srw)
        with pytest.raises(DivergenceError):
            ev23.green((), (), 1.001 * ev23.R_hat)
        with pytest.raises(DivergenceError):
            ev23.first_passage((), ((0, 1),), 1.001 * ev23.R_hat)
        at_r = ev23.green((), (), ev23.R_hat)
        assert type(at_r) is float and math.isfinite(at_r)
        # the bound is the top of R's bar, as for ``point_passages`` (and
        # so the pressure and the verdict): hi is allowed, the next float not
        hi = z2z3_srw.first_passage_system.bracket[1]
        assert hi > ev23.R_hat
        for value in (ev23.green((), (), hi), ev23.first_passage((), ((0, 1),), hi)):
            assert math.isfinite(value)
        past = math.nextafter(hi, 2.0)
        with pytest.raises(DivergenceError, match="past the radius"):
            ev23.green((), (), past)
        with pytest.raises(DivergenceError, match="past the radius"):
            ev23.first_passage((), ((0, 1),), past)

    def test_the_empty_word_is_refused_past_the_bar(self, f2_srw):
        # F(e,e|r) = 1 is a product of no syllable weights, yet every value
        # reads the least solution first: past R's bar, the empty word too
        ev = GreenEvaluator(f2_srw)
        hi = f2_srw.first_passage_system.bracket[1]
        for r in (math.nextafter(hi, 2.0), 2.0 * ev.R_hat):
            for value in (ev.first_passage, ev.green):
                with pytest.raises(DivergenceError, match="past the radius"):
                    value((), (), r)
        assert ev.first_passage((), (), hi) == 1.0

    @pytest.mark.parametrize("name", ["f2_two_letter", "z2sq_z2"])
    def test_uncovered_measures_are_refused(self, name, monkeypatch):
        # a two-letter step, or a rank-2 lattice factor, is outside the
        # system: the evaluator is refused as it is built, with the one
        # scope message, before any path is stepped
        def refuse(*args, **kwargs):
            raise AssertionError("the evaluator stepped a path operator")

        mu = _measure(name)
        monkeypatch.setattr(walks.PathOperator, "steps", refuse)
        with pytest.raises(GroupSpecError) as err:
            GreenEvaluator(mu)
        assert str(err.value) == SCOPE


class TestSphereSizes:
    def test_f2_word_spheres(self, f2):
        sizes = sphere_sizes(f2, 20)
        assert sizes[0] == 1
        for n in range(1, 21):
            assert sizes[n] == 4 * 3 ** (n - 1)

    def test_z2z3_spheres_match_direct(self, z2z3):
        sizes = sphere_sizes(z2z3, 15)
        for n in range(8):
            assert sizes[n] == len(_sphere(z2z3, n))

    def test_three_finite_factors_match_direct(self):
        # order-4 recurrence, beyond the reach of a fitted short one
        group = FreeProduct([cyclic_factor(2), cyclic_factor(3), cyclic_factor(5)])
        sizes = sphere_sizes(group, 8)
        assert sizes == [1, 5, 18, 64, 226, 804, 2848, 10108, 35848]
        for n in range(9):
            assert sizes[n] == len(_sphere(group, n))

    def test_rank_two_lattice_factor_matches_direct(self):
        group = FreeProduct([LatticeFactor(2), cyclic_factor(2)])
        sizes = sphere_sizes(group, 7)
        for n in range(8):
            assert sizes[n] == len(_sphere(group, n))

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from freewalk.algebraic import monomial
from freewalk.audit import ancona_audit, ratio_report, syllable_choices
from freewalk.errors import DivergenceError, GroupSpecError, NonConvergenceError
from freewalk.green import (
    ConvolutionGreenTable,
    GreenEvaluator,
    GreenValue,
    _binomial_weighted,
    _eval_series,
    _sphere_sum,
    sphere_sizes,
    spectral_radius,
)
from freewalk.groups import FreeProduct, LatticeFactor, cyclic_factor
from freewalk.parabolic import degeneracy_test
from freewalk.thermo import pressure
from freewalk.walks import is_radial, return_probabilities

from oracles import (
    F2_RADIUS,
    f2_first_passage,
    f2_green,
    f2_i1,
    f2_i2,
    tree_i1,
    tree_i2,
    z2z2z2_radius,
    z2z3_green,
    z2z3_i1,
    z2z3_i2,
    z2z3_radius,
)
from test_path_operator import _measure, _single_syllable_measures

NEAR_RADIUS = (0.999, 0.9995, 0.9998)


@pytest.fixture(scope="module")
def ev(f2_srw):
    return GreenEvaluator(f2_srw)


class TestSpectralRadius:
    def test_f2_radius(self, f2_srw):
        seq = return_probabilities(f2_srw, 4000, method="algebraic")
        est = spectral_radius(seq)
        assert abs(est.rho_hat - 1.0 / F2_RADIUS) < 1e-3
        assert est.rho_lower <= est.rho_hat
        assert est.R_hat > 1.0  # the group is non-amenable

    def test_z2cubed_radius(self, z2cubed_srw):
        seq = return_probabilities(z2cubed_srw, 4000, method="algebraic")
        est = spectral_radius(seq)
        assert abs(est.rho_hat - 1.0 / z2z2z2_radius()) < 2e-3

    def test_lower_bound_is_monotone(self, f2_srw):
        short = spectral_radius(return_probabilities(f2_srw, 400, method="algebraic"))
        long = spectral_radius(return_probabilities(f2_srw, 2000, method="algebraic"))
        assert long.rho_lower >= short.rho_lower - 1e-12

    def test_uncertainty_covers_the_error(self, f2_srw):
        # one-sided bar from rho_hat down to the rigorous lower bound
        seq = return_probabilities(f2_srw, 4000, method="algebraic")
        est = spectral_radius(seq)
        assert est.uncertainty() == est.rho_hat - est.rho_lower
        assert abs(est.rho_hat - 1.0 / F2_RADIUS) <= est.uncertainty() < 0.01


class TestClosedForms:
    def test_green_at_one(self, ev):
        g = ev.green((), (), 1.0)
        assert math.isclose(g.value, 1.5, rel_tol=1e-9)
        assert math.isclose(g.value, f2_green(1.0), rel_tol=1e-9)

    def test_first_passage_at_one(self, ev):
        a = ((0, (1,)),)
        fp = ev.first_passage((), a, 1.0)
        assert math.isclose(fp.value, 1.0 / 3.0, rel_tol=1e-9)
        assert math.isclose(fp.value, f2_first_passage(1.0), rel_tol=1e-9)

    def test_green_off_diagonal(self, ev):
        a = ((0, (1,)),)
        g = ev.green((), a, 1.0)
        assert math.isclose(g.value, 0.5, rel_tol=1e-9)

    def test_factored_crosses_cut_vertex(self, ev, f2):
        # F(a^-1, b | 1) factors through e: (1/3)^2, and G(e,e|1) = 3/2
        ainv = ((0, (-1,)),)
        b = ((1, (1,)),)
        g = ev.green(ainv, b, 1.0)
        assert math.isclose(g.value, 1.5 * f2_first_passage(1.0) ** 2, rel_tol=1e-9)
        assert math.isclose(g.value, 1.0 / 6.0, rel_tol=1e-9)
        fp1 = ev.first_passage(ainv, (), 1.0)
        fp2 = ev.first_passage((), b, 1.0)
        assert math.isclose(fp1.value * fp2.value, 1.0 / 9.0, rel_tol=1e-8)

    def test_lattice_powers_are_powers(self, ev):
        for frac in (0.9, 0.99):
            r = frac * ev.R_hat
            f = f2_first_passage(r)
            for k in range(1, 31):
                for fid, sign in ((0, 1), (0, -1), (1, 1), (1, -1)):
                    got = ev.first_passage((), ((fid, (sign * k,)),), r).value
                    assert abs(got - f**k) / f**k < 1e-12, (r, fid, sign * k)

    def test_closed_form_across_grid(self, ev):
        for frac in (0.3, 0.6, 0.9, 0.99):
            r = frac * ev.R_hat
            assert math.isclose(
                ev.green((), (), r).value, f2_green(r), rel_tol=1e-6
            )

    def test_divergence_beyond_radius(self, ev):
        with pytest.raises(DivergenceError):
            ev.green((), (), ev.R_hat * 1.1)


class TestDerivative:
    def test_series_vs_identity(self, ev):
        # the system's jet against the relative-sphere sum, both exact
        for frac in (0.5, 0.8, 0.9):
            r = frac * ev.R_hat
            jet = ev.green_derivative(r)
            ident = ev.i_sums(r).i1
            assert abs(jet.value - ident) / jet.value < 1e-13
            assert (jet.tail, jet.method) == (0.0, "point/jet")

    def test_derivative_only_at_identity(self, ev):
        # d/dr (r G) is offered at (e, e) alone: it takes r and nothing else
        with pytest.raises(TypeError):
            ev.green_derivative((), ((0, (1,)),), 0.5)

    def test_derivative_positive_and_increasing(self, ev):
        vals = [
            ev.green_derivative(f * ev.R_hat).value
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
            assert s.i2_method == "point/jet"

    def test_z2z3_oracle_is_consistent(self, z2z3_srw):
        # the first-passage system reproduces the package's G(e,e|r), and
        # the oracle's exact second derivative agrees
        # with a second difference of r^2 G
        ev23 = GreenEvaluator(z2z3_srw)
        r = 0.5 * ev23.R_hat
        assert math.isclose(ev23.green((), (), r).value, z2z3_green(r), rel_tol=1e-12)
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
            assert abs(ev23.green((), (), r).value / z2z3_green(r) - 1) < 1e-12

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
        assert fresh.radius_estimate.rho_lower == want
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
        # system's scope (3.2e-14 at most over 279 drawn measures)
        assume(mu.first_passage_system is not None)
        rand_ev = GreenEvaluator(mu)
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
        assert abs(ev.green((), (), ev.R_hat).value / f2_green(F2_RADIUS) - 1) < 1e-7

    @pytest.mark.parametrize("frac, reason", [(0.9, "I1 routes disagree"),
                                              (0.98, "I2 series")])
    def test_convolution_route_refuses(self, frac, reason):
        # off the system (Z^2 * Z2, horizon 30, ball 6) the series keep
        # both refusals: the relative spheres against the derivative
        # series, and the I2 series where it would close its tail with the
        # power-law model, which is checked first.  The sphere sum asks
        # the lattice syllables up to the table's visit radius 7 only
        ev_conv = GreenEvaluator(_measure("z2sq_z2"), horizon=30, ball_bound=6)
        with pytest.raises(NonConvergenceError, match=reason) as err:
            ev_conv.i_sums(frac * ev_conv.R_hat)
        assert err.value.diagnostics["r"] == frac * ev_conv.R_hat

    def test_first_visits_stop_one_step_past_the_ball(self):
        # the target absorbs, so a syllable has a first visit only within
        # one step of the ball: F is positive at the visit radius and
        # exactly 0 one past it, so the sphere sum drops nothing there
        ev_conv = GreenEvaluator(_measure("z2sq_z2"), horizon=30, ball_bound=6)
        cap, r = ev_conv.table.visit_radius, 0.5 * ev_conv.R_hat
        assert cap == 7
        for payload in ((cap, 0), (3, cap - 3), (0, -cap)):
            assert ev_conv.first_passage((), ((0, payload),), r).value > 0.0
        for payload in ((cap + 1, 0), (4, cap - 3), (0, -cap - 1)):
            assert ev_conv.first_passage((), ((0, payload),), r).value == 0.0

    def test_requires_single_syllable_support(self, f2):
        from fractions import Fraction
        from freewalk.walks import StepMeasure

        ab = ((0, (1,)), (1, (1,)))
        ba = ((1, (-1,)), (0, (-1,)))
        a = ((0, (1,)),)
        ai = ((0, (-1,)),)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # reach warning is expected here
            mu = StepMeasure(
                f2,
                {ab: Fraction(1, 4), ba: Fraction(1, 4), a: Fraction(1, 4), ai: Fraction(1, 4)},
            )
        ev2 = GreenEvaluator(mu, horizon=40, ball_bound=8)
        with pytest.raises(GroupSpecError):
            ev2.i_sums(1.0)

    def test_sphere_sum_refuses_a_singular_matrix(self):
        # t = (1, 1) gives M = [[0, 1], [1, 0]]: I - M is singular, and the
        # relative-sphere series diverges
        with pytest.raises(NonConvergenceError, match="relative-sphere sums diverge") as err:
            _sphere_sum(np.array([1.0, 1.0]), 0.5)
        assert err.value.diagnostics == {"r": 0.5, "syllable_weights": [1.0, 1.0]}


def _sphere(group, n):
    """The elements at word distance exactly n from e, canonically ordered."""
    return [g for g in group.ball(n) if group.word_length(g) == n]


@pytest.fixture(scope="module", params=["f2", "z2z3", "z2sq_z2"])
def single_syllable_ev(request):
    # f2 and z2z3 run on the first-passage system; Z^2 * Z2 on the
    # convolution table, where each syllable is its own base
    if request.param == "z2sq_z2":
        return GreenEvaluator(_measure("z2sq_z2"), horizon=30, ball_bound=6)
    return GreenEvaluator(_measure(request.param))


def _left_to_right(ev, gamma, r, value):
    """``value`` times F(e,u|r)^k over gamma's syllables, left to right,
    with (u, k) the syllable's unknown and power on the system."""
    for fid, p in gamma:
        u, k = monomial(ev.group, fid, p) if ev.system else ((fid, p), 1)
        value *= ev.first_passage((), (u,), r).value ** k
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
        gee = ev.green((), (), r).value
        assert ev.green((), g, r).value == _left_to_right(ev, g, r, gee)
        assert ev.green(g, (), r).value == _left_to_right(ev, group.invert(g), r, gee)
        assert ev.first_passage((), g, r).value == _left_to_right(ev, g, r, 1.0)


@pytest.fixture(scope="module")
def twin_ev(single_syllable_ev):
    """A second evaluator of the same measure, with caches of its own."""
    ev = single_syllable_ev
    if ev.system is None:
        return GreenEvaluator(ev.measure, horizon=ev.horizon,
                              ball_bound=ev.table.ball_bound)
    return GreenEvaluator(ev.measure)


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
    """(F(e,u|r)^k, k * relative tail) of one syllable, (u, k) its unknown
    and power on the system: one entry of the evaluator's weight table,
    computed on its own."""
    u, k = monomial(ev.group, *syl) if ev.system else (syl, 1)
    f = ev.first_passage((), (u,), r)
    return f.value**k, (k * f.tail / f.value if f.value else 0.0)


def reference_green(ev, gamma, r):
    """G(e,gamma|r) by the scalar loop the evaluator ran before its batch:
    G(e,e) times gamma's syllable weights, one syllable at a time, the
    relative tails added in the same order.  Off single-syllable support,
    or at gamma = e, the evaluator's series value."""
    gee = ev.green((), (), r)
    if not gamma or not ev.single_syllable_support:
        return ev.green((), gamma, r)
    value, rel_tail = gee.value, gee.tail / gee.value
    for syl in gamma:
        w, rel = syllable_weight(ev, syl, r)
        value *= w
        rel_tail += rel
    return GreenValue(value, abs(value) * rel_tail, "factored")


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
        values, tails = ev.green_batch(ev.syllable_ids(words), r)
        assert values.dtype == tails.dtype == np.float64
        for w, v, t in zip(words, values.tolist(), tails.tolist()):
            g, ref = ev.green((), w, r), reference_green(ev, w, r)
            assert (v.hex(), t.hex()) == (g.value.hex(), g.tail.hex())
            assert (g.value.hex(), g.tail.hex()) == (ref.value.hex(), ref.tail.hex())

    def test_empty_word_keeps_its_own_tail(self, batch_ev):
        ev = batch_ev
        r = 0.9 * ev.R_hat
        values, tails = ev.green_batch(ev.syllable_ids([(), ()]), r)
        gee = ev.green((), (), r)
        assert values.tolist() == [gee.value] * 2 and tails.tolist() == [gee.tail] * 2

    def test_multi_syllable_measures_fall_back_to_green(self):
        # off single syllables the batch asks the scalar path word by word
        ev = GreenEvaluator(_measure("f2_two_letter"), horizon=30, ball_bound=6)
        assert not ev.single_syllable_support
        r = 0.9 * ev.R_hat
        words = [(), ((0, (1,)),), ((1, (1,)), (0, (1,))),
                 ((0, (-1,)), (1, (-1,)), (0, (2,))), ((1, (2,)),)]
        values, tails = ev.green_batch(ev.syllable_ids(words), r)
        want = [ev.green((), w, r) for w in words]
        assert values.tolist() == [g.value for g in want]
        assert tails.tolist() == [g.tail for g in want]

    def test_weight_tables_are_arrays_by_syllable_id(self, f2_srw):
        ev = GreenEvaluator(f2_srw)
        r = 0.9 * ev.R_hat
        ids = ev.syllable_ids([((0, (2,)), (1, (-1,))), ((1, (-1,)),), ()])
        assert ids.tolist() == [[1, 2], [2, 0], [0, 0]]
        w, rel = ev.syllable_weights(r)
        assert (w[0], rel[0]) == (1.0, 0.0)
        for i, syl in ((1, (0, (2,))), (2, (1, (-1,)))):
            assert (w[i], rel[i]) == syllable_weight(ev, syl, r)
            assert rel[i] == 0.0  # point values have no tail


def _eval_series_loop(logs, r):
    """The term-by-term loop ``_eval_series`` replaced, kept as its reference."""
    logr = math.log(r) if r > 0 else -math.inf
    terms = [(n, lc + n * logr if n else lc) for n, lc in enumerate(logs) if lc > -math.inf]
    if not terms:
        return 0.0, 0.0, "empty"
    peak = max(lt for _, lt in terms)
    value = math.exp(peak) * sum(math.exp(lt - peak) for _, lt in terms)
    finite = [(n, lt) for n, lt in terms if lt > -math.inf]
    if len(finite) < 4:
        return value, 0.0, "none"
    (n1, l1), (n2, l2) = finite[-2], finite[-1]
    q, last = math.exp(l2 - l1), math.exp(l2)
    if q < 0.995:
        tail, method = last * q / (1.0 - q), "geometric"
    else:
        qt_p = min(q * (n2 / n1) ** 1.5, 1.0)
        j = np.arange(1, 200001)
        tail = float((last * qt_p**j * (n2 / (n2 + (n2 - n1) * j)) ** 1.5).sum())
        method = "power-law"
    return value + tail, tail, method


class TestEvalSeries:
    def test_matches_the_term_loop(self, z2z3_srw):
        # same terms, same left-to-right order; only the exponentials move
        # from libm to numpy, so the values agree to a few ulps.  The long
        # series are the first-passage system's 4000 return coefficients
        system = z2z3_srw.first_passage_system
        r_hat, returns = system.radius, system.return_log_probs(4000)
        conv = GreenEvaluator(_measure("f2_two_letter"), horizon=30, ball_bound=6)
        cases = [
            (returns, (0.0, 0.5 * r_hat, 0.9 * r_hat, r_hat)),
            (_binomial_weighted(returns, 2), (0.95 * r_hat,)),
            (conv.table.log_coefficients(((0, (1,)),)), (0.5, 0.9 * conv.R_hat)),
            (conv.table.first_visit_logs(((0, (1,)),)), (0.3, 0.99 * conv.R_hat)),
        ]
        for logs, grid in cases:
            for r in grid:
                got, want = _eval_series(logs, r), _eval_series_loop(logs, r)
                assert got[2:] == want[2:], (r, got, want)
                assert math.isclose(got[0], want[0], rel_tol=1e-14, abs_tol=1e-300)
                assert math.isclose(got[1], want[1], rel_tol=1e-14, abs_tol=1e-300)

    def test_off_diagonal_at_zero(self, z2z3_srw):
        # every term of G(e, gamma | 0) vanishes when gamma != e
        ev23 = GreenEvaluator(z2z3_srw)
        assert ev23.green((), ((1, 2),), 0.0).value == 0.0
        assert ev23.first_passage((), ((1, 2),), 0.0).value == 0.0


class TestTables:
    """No table wherever the first-passage system covers the measure,
    radial walks included: point values come from the system.  The
    convolution table elsewhere."""

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
        assert ev_m.table is None and ev_m.system is mu.first_passage_system
        assert ev_m.R_hat == mu.first_passage_system.radius
        assert abs(ev_m.R_hat - radius) < 1e-12

    @pytest.mark.parametrize("measure", ["f2", "z2z2z2"])
    def test_radial_coefficients_match_the_distance_chain(self, measure):
        # two engines that share no code: on these walks p_n(e, gamma)
        # depends on |gamma| alone, and the distance chain gives it as the
        # sphere mass over the sphere size; G(e, gamma|r) is the sum of
        # those over n, and the evaluator forms it as G(e,e) F(e, gamma)
        mu = _measure(measure)
        ev_m = GreenEvaluator(mu, horizon=600)
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
                    got = ev_m.green((), gamma, r).value
                    assert abs(got - want) / want < 1e-12, (r, gamma, got, want)

    def test_z2z3_reads_the_first_passage_system(self, z2z3_srw):
        ev23 = GreenEvaluator(z2z3_srw)
        assert ev23.table is None and ev23.system is z2z3_srw.first_passage_system
        assert ev23.horizon == 4000
        assert ev23.R_hat == z2z3_srw.first_passage_system.radius
        assert abs(ev23.R_hat - z2z3_radius()) / z2z3_radius() < 1e-12
        assert ev23.radius_estimate.uncertainty() < 1e-15
        assert ev23.radius_estimate.rho_lower <= ev23.radius_estimate.rho_hat

    def test_system_radius_is_a_hard_limit(self, z2z3_srw):
        # past the system's branch point the evaluator refuses, and
        # r = R itself is allowed
        ev23 = GreenEvaluator(z2z3_srw)
        with pytest.raises(DivergenceError):
            ev23.green((), (), 1.001 * ev23.R_hat)
        with pytest.raises(DivergenceError):
            ev23.first_passage((), ((0, 1),), 1.001 * ev23.R_hat)
        at_r = ev23.green((), (), ev23.R_hat)
        assert (at_r.tail, at_r.method) == (0.0, "point/newton") and math.isfinite(at_r.value)
        # the bound is the top of R's bar, as for ``point_passages`` (and
        # so the pressure and the verdict): hi is allowed, the next float not
        hi = z2z3_srw.first_passage_system.bracket[1]
        assert hi > ev23.R_hat
        for value in (ev23.green((), (), hi), ev23.first_passage((), ((0, 1),), hi)):
            assert math.isfinite(value.value)
        past = math.nextafter(hi, 2.0)
        with pytest.raises(DivergenceError, match="past the radius"):
            ev23.green((), (), past)
        with pytest.raises(DivergenceError, match="past the radius"):
            ev23.first_passage((), ((0, 1),), past)

    # float.hex of R_hat and of G(e,e|0.9 R_hat) with horizon 30 and ball
    # bound 6, frozen from the convolution table before the algebraic one
    # existed: the measures it does not cover must keep their numbers
    CONVOLUTION_FROZEN = {
        "z2sq_z2": ("0x1.2b59b9ae4240ep+0", "0x1.891eda0929637p+0"),
        "f2_two_letter": ("0x1.40db8598c4335p+0", "0x1.f8002ec629bb6p+0"),
    }

    @pytest.mark.parametrize("name", sorted(CONVOLUTION_FROZEN))
    def test_uncovered_measures_keep_the_convolution_table(self, name):
        ev_m = GreenEvaluator(_measure(name), horizon=30, ball_bound=6)
        assert isinstance(ev_m.table, ConvolutionGreenTable) and ev_m.system is None
        r_hat, gee = self.CONVOLUTION_FROZEN[name]
        assert ev_m.R_hat.hex() == r_hat
        assert ev_m.green((), (), 0.9 * ev_m.R_hat).value.hex() == gee


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

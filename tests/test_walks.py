import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freewalk.errors import DegenerateInputError, GroupSpecError
from freewalk.groups import FreeProduct, cyclic_factor
from freewalk.walks import (
    INADMISSIBLE,
    StepMeasure,
    convolve_powers,
    detect_period,
    is_radial,
    uniform_on_generators,
)

from exact import exact_returns, reaches_ball, reflected
from oracles import f2_return_probability
from test_path_operator import _measure, first_visits, mass


class TestStepMeasure:
    def test_weights_must_sum_to_one(self, f2):
        a = ((0, (1,)),)
        with pytest.raises(GroupSpecError):
            StepMeasure(f2, {a: Fraction(1, 2)})

    def test_rejects_nonpositive_weight(self, f2):
        a = ((0, (1,)),)
        ai = ((0, (-1,)),)
        with pytest.raises(GroupSpecError):
            StepMeasure(f2, {a: Fraction(3, 2), ai: Fraction(-1, 2)})

    def test_rejects_unreduced_support(self, f2):
        bad = ((0, (1,)), (0, (1,)))
        with pytest.raises(GroupSpecError):
            StepMeasure(f2, {bad: 1})

    def test_uniform_is_symmetric(self, f2_srw):
        assert reflected(f2_srw).weights == f2_srw.weights
        assert f2_srw.common_denominator() == 4

    def test_a_support_that_misses_a_factor_is_refused(self, f2):
        # a and a^-1 never reach b: the measure builds silently (any
        # warning fails the suite), and the route refuses it as not
        # admissible, while it grants the uniform measure
        a, ai = ((0, (1,)),), ((0, (-1,)),)
        mu = StepMeasure(f2, {a: Fraction(1, 2), ai: Fraction(1, 2)})
        with pytest.raises(GroupSpecError) as err:
            mu.route
        assert str(err.value) == INADMISSIBLE
        srw = uniform_on_generators(f2)
        assert srw.route is srw.first_passage_system

    def test_a_generating_support_does_not_warn(self):
        # t alone generates Z7, but t^-1 = t^6 is 6 steps away, past the
        # horizon of the reach check, which misses the radius-3 ball; the
        # measure is admissible, so the route grants it, and its system
        # has a fold at R = 1.14434
        group = FreeProduct([cyclic_factor(7), cyclic_factor(3)])
        t, u, ui = ((0, 1),), ((1, 1),), ((1, 2),)
        mu = StepMeasure(group, {t: Fraction(1, 2), u: Fraction(1, 4), ui: Fraction(1, 4)})
        assert not reaches_ball(mu)
        assert abs(mu.route.radius - 1.14434) < 1e-5

    def test_two_letter_steps_reach_the_ball(self):
        # ba, a^-1 b^-1, a, a^-1 reach a^-2 b and a^-1 b^2 of the 3-ball
        # only through 4-letter elements, so the reach check steps inside
        # the 4-ball
        assert reaches_ball(_measure("f2_two_letter"))

    def test_off_the_system_nothing_warns(self, f2):
        # two-syllable steps ab and (ab)^-1 never reach a alone, but every
        # value refuses a measure off the system, so it builds silently
        ab = ((0, (1,)), (1, (1,)))
        mu = StepMeasure(f2, {ab: Fraction(1, 2), f2.invert(ab): Fraction(1, 2)})
        assert not reaches_ball(mu)
        with pytest.raises(GroupSpecError, match="needs the first-passage system"):
            mu.route

    def test_lazy_variant(self, f2):
        mu = uniform_on_generators(f2, lazy=Fraction(1, 3))
        assert mu.weights[()] == Fraction(1, 3)
        assert sum(w for _, w in mu.support) == 1


class TestConvolution:
    def test_known_small_values(self, f2_srw):
        assert mass(convolve_powers(f2_srw, 2)[-1], ()) == Fraction(1, 4)
        assert mass(convolve_powers(f2_srw, 4)[-1], ()) == Fraction(7, 64)

    def test_against_path_counting(self, f2_srw):
        for n in range(0, 9):
            assert mass(convolve_powers(f2_srw, n)[-1], ()) == f2_return_probability(n)

    def test_total_mass_with_escape(self, f2_srw):
        dist = convolve_powers(f2_srw, 8, ball_bound=3)[-1]
        escaped = Fraction(dist.escaped_numerator, dist.denominator)
        assert escaped > 0
        total = Fraction(sum(dist.numerators.values()), dist.denominator)
        assert total + escaped == 1
        assert all(f2_srw.group.word_length(g) <= 3 for g in dist.numerators)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(min_value=0, max_value=8))
    def test_mass_conservation(self, z2z3_srw, n):
        dist = convolve_powers(z2z3_srw, n)[-1]
        assert Fraction(sum(dist.numerators.values()), dist.denominator) == 1

    def test_convolve_powers_consistent(self, z2z3_srw):
        seq = convolve_powers(z2z3_srw, 6)
        for n, dist in enumerate(seq):
            assert mass(dist, ()) == mass(convolve_powers(z2z3_srw, n)[-1], ())

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_exact_returns_meet_in_the_middle(self, z2z3, z2z3_srw, symmetric):
        # odd and even horizons pair the powers (k, k-1) and (k, k); the
        # non-symmetric walk pairs mu with its reflection by element
        s, t, ti = ((0, 1),), ((1, 1),), ((1, 2),)
        mu = z2z3_srw if symmetric else StepMeasure(
            z2z3, {s: Fraction(1, 2), t: Fraction(1, 3), ti: Fraction(1, 6)}
        )
        assert (reflected(mu).weights == mu.weights) == symmetric
        powers = convolve_powers(mu, 13)
        for horizon in range(14):
            assert exact_returns(mu, horizon) == [mass(d, ()) for d in powers[: horizon + 1]]

    def test_exact_returns_pair_by_element(self, z2z3):
        # the support {s, t} is not closed under inversion, so mu and its
        # reflection {s, t^-1} reach the same elements in another order
        s, t = ((0, 1),), ((1, 1),)
        mu = StepMeasure(z2z3, {s: Fraction(1, 2), t: Fraction(1, 2)})
        powers = convolve_powers(mu, 13)
        values = exact_returns(mu, 13)
        assert values == [mass(d, ()) for d in powers]
        assert values[3] > 0


class TestFirstVisits:
    def test_first_visits_factor_over_syllables(self, z2z3_srw, z2z3):
        # each syllable prefix of gamma is a cut vertex, so F(e, gamma) is
        # the product of its syllables' F(e, s): the first visits of gamma
        # are the Cauchy product of its syllables', all over 3^n
        n_max = 14
        visits = {}
        for gamma in z2z3.ball(3):
            if not gamma:
                continue
            denom, hits = first_visits(z2z3_srw, gamma, n_max)
            assert denom == 3
            want = [1] + [0] * n_max  # the coefficients of F at r^0..r^n_max
            for syl in gamma:
                if syl not in visits:
                    visits[syl] = [0] + first_visits(z2z3_srw, (syl,), n_max)[1]
                f = visits[syl]
                want = [sum(want[j] * f[n - j] for j in range(n + 1)) for n in range(n_max + 1)]
            assert hits == want[1:]


class TestRadial:
    def test_f2_srw_is_radial(self, f2_srw):
        chain = is_radial(f2_srw)
        assert chain is not None
        # from distance 1: back with 1/4, out with 3/4
        assert chain.row(1) == (Fraction(1, 4), 0, Fraction(3, 4))

    def test_z2cubed_rows(self, z2cubed_srw):
        chain = is_radial(z2cubed_srw)
        assert chain is not None
        assert chain.row(1) == (Fraction(1, 3), 0, Fraction(2, 3))

    def test_z2z3_is_not_radial(self, z2z3_srw):
        assert is_radial(z2z3_srw) is None

    def test_radial_matches_exact(self, f2_srw):
        exact = exact_returns(f2_srw, 12)
        radial = is_radial(f2_srw).return_log_probs(12)
        for n in range(13):
            ev = exact[n]
            lv = radial[n]
            if ev == 0:
                assert lv == -math.inf
            else:
                assert math.isclose(math.log(ev), lv, rel_tol=1e-10)


class TestPeriod:
    def test_bipartite_walk_has_period_two(self, f2_srw):
        logs = f2_srw.route.return_log_probs(10)
        assert detect_period(logs) == 2

    def test_lazy_walk_is_aperiodic(self, f2):
        mu = uniform_on_generators(f2, lazy=Fraction(1, 5))
        logs = mu.route.return_log_probs(10)
        assert detect_period(logs) == 1

    def test_z2z3_period(self, z2z3_srw):
        # t + t + t = e gives an odd return, so the walk is aperiodic
        logs = z2z3_srw.route.return_log_probs(12)
        assert logs[3] > -math.inf
        assert detect_period(logs) == 1

    @given(st.lists(st.booleans(), min_size=1, max_size=60), st.integers(1, 6))
    def test_equals_the_gcd_loop(self, returns, step):
        # positive p_n at step * (index + 1) where ``returns`` holds, as the
        # loop over n >= 1 found them
        horizon = step * len(returns)
        logs = np.full(horizon + 1, -math.inf)
        logs[0] = 0.0
        for i, positive in enumerate(returns):
            if positive:
                logs[step * (i + 1)] = -1.0
        p = 0
        for n in range(1, horizon + 1):
            if logs[n] > -math.inf:
                p = math.gcd(p, n)
        if p == 0:
            with pytest.raises(DegenerateInputError):
                detect_period(logs)
        else:
            assert detect_period(logs) == p

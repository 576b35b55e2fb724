import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freewalk.errors import DegenerateInputError, GroupSpecError
from freewalk.groups import FreeProduct, cyclic_factor
from freewalk.walks import (
    ReturnSequence,
    StepMeasure,
    convolve_powers,
    detect_period,
    is_radial,
    return_probabilities,
    uniform_on_generators,
)

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
        assert f2_srw.is_symmetric()
        assert f2_srw.common_denominator() == 4

    def test_warns_when_support_misses_the_ball(self, f2):
        a, ai = ((0, (1,)),), ((0, (-1,)),)
        with pytest.warns(UserWarning, match="admissible"):
            StepMeasure(f2, {a: Fraction(1, 2), ai: Fraction(1, 2)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            uniform_on_generators(f2)

    def test_a_generating_support_does_not_warn(self):
        # t alone generates Z7, but t^-1 = t^6 is 6 steps away, past the
        # horizon of the reach walk, which misses the radius-3 ball; the
        # measure is admissible, and its system has a fold at R = 1.14434
        group = FreeProduct([cyclic_factor(7), cyclic_factor(3)])
        t, u, ui = ((0, 1),), ((1, 1),), ((1, 2),)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mu = StepMeasure(group, {t: Fraction(1, 2), u: Fraction(1, 4), ui: Fraction(1, 4)})
        assert not mu._reaches_ball()
        assert abs(mu.first_passage_system.radius - 1.14434) < 1e-5

    def test_two_letter_steps_reach_the_ball(self):
        # ba, a^-1 b^-1, a, a^-1 reach a^-2 b and a^-1 b^2 of the 3-ball
        # only through 4-letter elements, so the reach walk steps inside
        # the 4-ball
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mu = _measure("f2_two_letter")
        assert mu._reaches_ball()

    def test_off_the_system_the_reach_walk_warns(self, f2):
        # two-syllable steps ab and (ab)^-1 never reach a alone
        ab = ((0, (1,)), (1, (1,)))
        with pytest.warns(UserWarning, match="admissible"):
            StepMeasure(f2, {ab: Fraction(1, 2), f2.invert(ab): Fraction(1, 2)})

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
        assert mu.is_symmetric() == symmetric
        powers = convolve_powers(mu, 13)
        for horizon in range(14):
            seq = return_probabilities(mu, horizon, method="exact")
            assert seq.values == [mass(d, ()) for d in powers[: horizon + 1]]

    def test_exact_returns_pair_by_element(self, z2z3):
        # the support {s, t} is not closed under inversion, so mu and its
        # reflection {s, t^-1} reach the same elements in another order
        s, t = ((0, 1),), ((1, 1),)
        mu = StepMeasure(z2z3, {s: Fraction(1, 2), t: Fraction(1, 2)})
        powers = convolve_powers(mu, 13)
        seq = return_probabilities(mu, 13, method="exact")
        assert seq.values == [mass(d, ()) for d in powers]
        assert seq.values[3] > 0


class TestFirstVisits:
    def test_renewal_identity_in_integers(self, z2z3_srw, z2z3):
        # p_n(e,g) = sum_{k=1..n} f_k(e,g) p_{n-k}(e,e), all over 3^n; the
        # ball holds every path of 20 steps, so nothing is truncated
        n_max = 20
        dists = convolve_powers(z2z3_srw, n_max, ball_bound=n_max)
        returns = [d.numerators.get((), 0) for d in dists]
        for gamma in z2z3.ball(3):
            denom, hits = first_visits(z2z3_srw, gamma, n_max, ball_bound=n_max)
            assert denom == 3
            hits += [0] * (n_max - len(hits))
            for n in range(1, n_max + 1):
                renewal = sum(hits[k - 1] * returns[n - k] for k in range(1, n + 1))
                assert dists[n].numerators.get(gamma, 0) == renewal


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
        exact = return_probabilities(f2_srw, 12, method="exact")
        radial = is_radial(f2_srw).return_log_probs(12)
        for n in range(13):
            ev = exact.values[n]
            lv = radial[n]
            if ev == 0:
                assert lv == -math.inf
            else:
                assert math.isclose(math.log(ev), lv, rel_tol=1e-10)


class TestPeriod:
    def test_bipartite_walk_has_period_two(self, f2_srw):
        seq = return_probabilities(f2_srw, 10)
        assert detect_period(seq) == 2

    def test_lazy_walk_is_aperiodic(self, f2):
        mu = uniform_on_generators(f2, lazy=Fraction(1, 5))
        seq = return_probabilities(mu, 10)
        assert detect_period(seq) == 1

    def test_z2z3_period(self, z2z3_srw):
        # t + t + t = e gives an odd return, so the walk is aperiodic
        seq = return_probabilities(z2z3_srw, 12)
        assert seq.values[3] > 0
        assert detect_period(seq) == 1

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
        seq = ReturnSequence(horizon=horizon, method="algebraic", log_values=logs)
        p = 0
        for n in range(1, horizon + 1):
            if logs[n] > -math.inf:
                p = math.gcd(p, n)
        if p == 0:
            with pytest.raises(DegenerateInputError):
                detect_period(seq)
        else:
            assert detect_period(seq) == p

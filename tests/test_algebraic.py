"""The first-passage system: its scope, its radius and its coefficients;
and the M-matrix solve its Newton steps take.

The references are independent of the system: exact return probabilities
and first visits from the path operator for the coefficients, and the
zeros of closed-form discriminants in ``oracles`` for the radius.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings

from freewalk import algebraic
from freewalk.algebraic import B as BLOCK, m_matrix_solve, perron_root
from freewalk.errors import GroupSpecError
from freewalk.groups import FreeProduct, cyclic_factor
from freewalk.walks import StepMeasure, uniform_on_generators

from exact import convolve_powers, exact_returns, is_radial, reaches_ball
from oracles import (
    F2_RADIUS,
    f2_first_passage,
    f2_green,
    radius_in_bracket,
    tree_return_probabilities,
    tree_return_probability,
    z2z2z2_radius,
    z2z3_first_passages,
    z2z3_green,
    z2z3_radius,
)
from test_path_operator import (
    LONG_DOUBLE, _admissible, _cyclic_measures, _f2, _measure, _single_syllable_measures,
    first_visits, mass, routed,
)

A, AI, B, BI = ((0, (1,)),), ((0, (-1,)),), ((1, (1,)),), ((1, (-1,)),)

# scaled_green(63) and scaled_first_passage(system, ., 63), as hex floats taken from
# the coefficient-at-a-time recurrence that the first block still runs, in
# the integer weights and in long double, each rounded to float once
# (``test_first_block_is_rounded_once`` bounds their distance to the exact values)
FIRST_BLOCK = json.loads((Path(__file__).parent / "first_block_hex.json").read_text())


def _skewed_f2():
    # unequal weights on a and a^-1: not radial, and the two directions of
    # the Z factor are separate unknowns, with F_{a^2} = F_a^2
    return StepMeasure(_f2(), {A: Fraction(3, 8), AI: Fraction(1, 8),
                               B: Fraction(1, 4), BI: Fraction(1, 4)})


def _system(name):
    mu = _skewed_f2() if name == "f2_skewed" else _measure(name)
    return mu.first_passage_system


def scaled_first_passage(system, unknown, horizon):
    """[r^n] F(e, (unknown,) | r) R^n for n = 0..horizon, the row of the
    unknown's cell."""
    system.scaled_green(horizon)  # extends every scaled series
    return system._y[system._cell[system.unknowns.index(unknown)], : horizon + 1]


def _series(system, horizon):
    """Bytes of every scaled series the system holds, up to ``horizon``."""
    out = [system.scaled_green(horizon).tobytes()]
    for unknown in system.unknowns:
        out.append(scaled_first_passage(system, unknown, horizon).tobytes())
    return out


def _assert_returns_match_exact(mu, horizon, tol):
    # through the route where it grants mu, else off the system itself
    exact = exact_returns(mu, horizon)
    logs = (mu.route.return_log_probs(horizon) if routed(mu)
            else mu.first_passage_system.return_log_probs(horizon))
    for n, p in enumerate(exact):
        if p == 0:
            assert logs[n] == -math.inf, n
        else:
            assert abs(math.exp(logs[n]) - float(p)) / float(p) < tol, n


class TestScope:
    @pytest.mark.parametrize("name", ["z2z3", "z2z2z2", "f2", "f2_lazy"])
    def test_covers_single_syllable_measures(self, name):
        assert _measure(name).first_passage_system is not None

    @pytest.mark.parametrize("name", ["z2sq_z2", "f2_two_letter"])
    def test_none_outside_its_scope(self, name):
        mu = _measure(name)
        assert mu.first_passage_system is None
        with pytest.raises(GroupSpecError, match="needs the first-passage system"):
            mu.route.return_log_probs(10)

    def test_lattice_steps_must_be_unit_steps(self):
        a2 = ((0, (2,)),)
        mu = StepMeasure(_f2(), {a2: Fraction(1, 2), B: Fraction(1, 4), BI: Fraction(1, 4)})
        assert mu.first_passage_system is None

    def test_built_once_per_measure(self):
        mu = _measure("z2z3")
        assert mu.first_passage_system is mu.first_passage_system


class TestRadius:
    def test_z2z3_matches_the_discriminant(self):
        # the fold's R lies within an ulp of the discriminant's zero, inside
        # its bar of 2 ulps or the last Newton r-step on each side
        system = _measure("z2z3").first_passage_system
        assert abs(system.radius - z2z3_radius()) <= math.ulp(system.radius)
        lo, hi = system.bracket
        assert lo < system.radius < hi
        assert hi - system.radius == system.radius - lo >= 2 * math.ulp(system.radius)

    @pytest.mark.parametrize("name", ["f2", "z2z2z2", "z2z3"])
    def test_bracket_holds_the_true_radius(self, name):
        lo, hi = _measure(name).first_passage_system.bracket
        assert radius_in_bracket(name, lo, hi)

    @pytest.mark.parametrize("name, radius", [("f2", F2_RADIUS), ("z2z2z2", z2z2z2_radius())])
    def test_tree_radii(self, name, radius):
        system = _measure(name).first_passage_system
        assert abs(system.radius - radius) / radius < 1e-12

    def test_least_solution_matches_the_tree_closed_form(self):
        # F2 is the 4-regular tree: every F is the closed form, and
        # G = 1/(1 - U) with U = r (sum of the four F) / 4
        system = _measure("f2").first_passage_system
        r = 0.9999 * F2_RADIUS
        x = system.least_solution(r)
        for f in x:
            assert abs(f - f2_first_passage(r)) / f2_first_passage(r) < 1e-12
        gee = 1.0 / (1.0 - r * x.sum() / 4)
        assert abs(gee - f2_green(r)) / f2_green(r) < 1e-12

    def test_least_solution_from_zero_is_sharp(self, monkeypatch):
        # Newton from 0, with no warm start and no bar on R to answer for
        # it, still tells the two sides of R apart at a relative distance
        # of 1e-12; the fold's checks and the bisection rely on it
        system = _measure("z2z3").first_passage_system
        monkeypatch.setattr(system, "bracket", None)
        assert system.least_solution(system.radius * (1 - 1e-12)) is not None
        assert system.least_solution(system.radius * (1 + 1e-12)) is None


    @pytest.mark.parametrize("name", ["f2", "z2z3", "z2z2z2"])
    def test_least_solution_at_the_radius_starts_from_the_search(self, name, monkeypatch):
        # the search for R, Newton on the fold system, ends holding x(R);
        # anywhere in R's bar that is the least solution, with no Newton
        # step, and one float past the bar there is none.  Just below the
        # bar Newton from 0 converges only linearly, and stops at its
        # square-root floor near the same x
        system = _measure(name).first_passage_system
        solves = []

        def counted(a, b):
            solves.append(a)
            return m_matrix_solve(a, b)

        monkeypatch.setattr(algebraic, "m_matrix_solve", counted)
        lo, hi = system.bracket
        for r in (lo, system.radius, hi):
            assert np.array_equal(system.least_solution(r), system._at_radius)
        assert system.least_solution(math.nextafter(hi, 2.0)) is None
        assert solves == []
        cold = system.least_solution(math.nextafter(lo, 0.0))
        assert len(solves) > 10
        assert np.allclose(system._at_radius, cold, rtol=1e-7, atol=0.0)

    def test_z2z2_takes_the_bisection(self):
        # Z2 * Z2 is recurrent: U reaches 1 at R = 1, where G = 1/sqrt(1 - r^2)
        # diverges, so the fold is refused and R is bisected to adjacent
        # floats
        mu = uniform_on_generators(FreeProduct([cyclic_factor(2)] * 2))
        system = mu.first_passage_system
        assert system._fold() is None
        lo, hi = system.bracket
        assert system.radius == lo and hi == math.nextafter(lo, 2.0)
        assert abs(lo - 1.0) < 1e-14


def _m_matrix_solve_by_eye(a, b):
    """The reference for ``m_matrix_solve``: I - a and [b, 1] built with
    ``np.eye`` and ``np.column_stack``."""
    n = len(a)
    try:
        sol, z = np.linalg.solve(np.eye(n) - a, np.column_stack([b, np.ones(n)])).T
    except np.linalg.LinAlgError:
        return None
    return sol if np.all(z > 0.0) else None


class TestMMatrixSolve:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_eye_formula_bit_for_bit(self, seed):
        # non-negative matrices with zeros, their Perron roots on both
        # sides of 1, in both memory orders, as Newton and the kernels pass
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 13))
        a = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
        a *= rng.uniform(0.5, 1.5) / max(perron_root(a), 1e-3)
        if seed % 2:
            a = a.T
        b = rng.random(n) * 10.0 ** rng.integers(-3, 4)
        got, want = m_matrix_solve(a, b), _m_matrix_solve_by_eye(a, b)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("a", [
        [[1.0, 0.0], [0.0, 0.5]],  # I - a has a zero row
        [[1.0, 0.25, 0.0], [0.0, 1.0, 0.25], [0.0, 0.0, 1.0]],  # I - a nilpotent
    ])
    def test_singular_matrices_give_none_as_the_eye_formula(self, a):
        a = np.array(a)
        b = np.arange(1.0, len(a) + 1)
        assert _m_matrix_solve_by_eye(a, b) is None
        assert m_matrix_solve(a, b) is None

    def test_solves_below_perron_root_one(self):
        a = np.array([[0.2, 0.3], [0.1, 0.4]])
        b = np.array([1.0, 2.0])
        want = np.linalg.solve(np.eye(2) - a, b)
        assert np.allclose(m_matrix_solve(a, b), want, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("root", [1.0, 1.5])
    def test_none_from_perron_root_one(self, root):
        a = root * np.array([[0.5, 0.5], [0.5, 0.5]])
        assert perron_root(a) == pytest.approx(root, rel=1e-15)
        assert m_matrix_solve(a, np.ones(2)) is None


class TestCoefficients:
    def test_z2z3_matches_exact_returns_and_convolution(self):
        mu = _measure("z2z3")
        exact = exact_returns(mu, 40)
        powers = convolve_powers(mu, 40, ball_bound=20)  # enough to return
        logs = mu.route.return_log_probs(40)
        for n, p in enumerate(exact):
            assert p == mass(powers[n], ())
            if p:
                assert abs(math.exp(logs[n]) - float(p)) / float(p) < 1e-13
            else:
                assert logs[n] == -math.inf

    def test_z2z3_first_passages_match_the_path_operator(self):
        mu = _measure("z2z3")
        system = mu.first_passage_system
        for syl in ((0, 1), (1, 1), (1, 2)):
            denom, hits = first_visits(mu, (syl,), 20)
            logs = system.unscaled_logs(scaled_first_passage(system, syl, 20))
            for n, hit in enumerate(hits, 1):
                if hit:
                    want = Fraction(hit, denom**n)
                    assert abs(math.exp(logs[n]) - float(want)) / float(want) < 1e-13
                else:
                    assert logs[n] == -math.inf

    @pytest.mark.parametrize("name, horizon", [("z2z3", 16), ("f2_skewed", 8), ("f2_lazy", 8)])
    def test_integer_coefficients_are_the_first_visits(self, name, horizon):
        # N_n / d^n = [r^n] F_s exactly, against the first visits of the
        # exact convolution; the sums at x = 7/8 are theirs in integers
        # (``passage_tops``), and in floats within 1e-14
        mu = _skewed_f2() if name == "f2_skewed" else _measure(name)
        system, d, x = mu.first_passage_system, mu.common_denominator(), Fraction(7, 8)
        nums = system.integer_coefficients(horizon)
        tops, q = system.passage_tops(x, horizon)
        float_sums = system.first_passage_sums(float(x), horizon)
        for i, syl in enumerate(system.unknowns):
            denom, hits = first_visits(mu, (syl,), horizon)
            want = [Fraction(hit, denom**n) for n, hit in enumerate(hits, 1)]
            cell = system._cell[i]
            assert [Fraction(int(N[cell]), d**n) for n, N in enumerate(nums[1:], 1)] == want
            total = sum(w * x**n for n, w in enumerate(want, 1))
            assert Fraction(tops[cell], q**horizon) == total
            assert abs(float_sums[syl] - float(total)) <= 1e-14 * float(total)

    @pytest.mark.parametrize("name", ["f2", "z2z2z2"])
    def test_tree_configs_match_the_radial_chain(self, name):
        # two float engines that share no code; past n = 4000 the radial
        # chain's unscaled p_n on f2 runs into subnormal floats
        mu = _measure(name)
        alg = mu.route.return_log_probs(4000)
        rad = is_radial(mu).return_log_probs(4000)
        assert list(alg == -math.inf) == list(rad == -math.inf)
        live = rad > -math.inf
        assert abs(alg[live] - rad[live]).max() < 1e-11

    def test_extension_equals_one_pass(self):
        # coefficients asked for in two steps equal those asked for at once,
        # bit for bit, on both sides of the first block's end and across
        # the later blocks' bounds
        assert BLOCK == 64
        for name in ["z2z3", "f2", "z2z2z2", "f2_skewed"]:
            whole = _series(_system(name), 5000)
            for first, second in [(10, 63), (63, 64), (64, 65), (65, 200), (4000, 5000)]:
                system = _system(name)
                system.scaled_green(first)
                want = [b[: 8 * (second + 1)] for b in whole]
                assert _series(system, second) == want, (name, first, second)

    @pytest.mark.parametrize("name", ["f2", "z2z3", "z2z2z2"])
    def test_growth_path_leaves_every_series_unchanged(self, name, monkeypatch):
        # the shipped configs' systems grown to 100, then 4000, then 5000
        # (the report's old path, through the evaluator's 4000) hold every
        # series bit for bit as grown to 5000 at once, and build the block
        # inverse once, with the first block
        whole, stepped, inverses = _system(name), _system(name), []
        whole._extend(5000)
        block_inverse = algebraic._block_inverse
        monkeypatch.setattr(algebraic, "_block_inverse",
                            lambda *a: inverses.append(1) or block_inverse(*a))
        for n in (100, 4000, 5000):
            stepped._extend(n)
        assert len(inverses) == 1
        for key in ("_y", "_w", "_u", "_g"):
            got, want = getattr(stepped, key), getattr(whole, key)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), key

    @LONG_DOUBLE
    @pytest.mark.parametrize("name", ["z2z3", "f2"])
    def test_first_block_frozen(self, name):
        system, want = _system(name), FIRST_BLOCK[name]
        assert [float.hex(float(v)) for v in system.scaled_green(63)] == want["green"]
        for unknown in system.unknowns:
            got = scaled_first_passage(system, unknown, 63)
            assert [float.hex(float(v)) for v in got] == want["first_passage"][repr(unknown)]

    @LONG_DOUBLE
    @pytest.mark.parametrize("name", ["z2z3", "f2"])
    def test_first_block_is_rounded_once(self, name):
        # each frozen value lies within 1/2 ulp + 2^-10 ulp of the exact
        # coefficient times the float R^n, in Fractions: the long double
        # keeps 11 bits past the float.  All but one are correctly rounded;
        # f2's [r^59] F R^59 is exact to 6.6e-4 ulp of a midpoint and
        # lies 0.50066 ulp off
        system, want = _system(name), FIRST_BLOCK[name]
        d, radius = system._d, Fraction(system.radius)
        if name == "f2":
            green = [tree_return_probability(3, n) for n in range(BLOCK)]
        else:
            green = exact_returns(_measure(name), BLOCK - 1)
        nums = system.integer_coefficients(BLOCK - 1)
        for n in range(BLOCK):
            pairs = [(want["green"][n], green[n])] + [
                (want["first_passage"][repr(u)][n], Fraction(int(nums[n][cell]), d**n))
                for u, cell in zip(system.unknowns, system._cell)]
            for got, exact in pairs:
                exact *= radius**n
                ulp = math.ulp(float(exact))
                assert abs(Fraction.from_float(float.fromhex(got)) - exact) <= (
                    Fraction(1, 2) + Fraction(1, 2**10)) * Fraction(ulp), (n, got)

    @pytest.mark.parametrize("name, q", [("f2", 3), ("z2z2z2", 2)])
    def test_tree_returns_match_path_counts_across_blocks(self, name, q):
        # n <= 300 crosses four block bounds; the largest distance measured
        # is 9.0e-15 on f2 and 3.2e-14 on z2z2z2, most of it from the
        # n log R of the unscaled logs
        exact = tree_return_probabilities(q, 300)
        logs = _measure(name).route.return_log_probs(300)
        for n, p in enumerate(exact):
            if p:
                assert abs(math.exp(logs[n]) - float(p)) / float(p) < 1e-13, n
            else:
                assert logs[n] == -math.inf, n

    def test_z2z3_series_match_the_closed_form_across_blocks(self):
        # the tree walks have no linear part (A = 0); z2z3 has one, from the
        # steps inside Z3.  At 0.98 R the coefficients from the second block
        # on carry 0.13 of G(e,e), and the sums to 5000 lie within 8.6e-16
        # of the closed forms
        system = _system("z2z3")
        powers = 0.98 ** np.arange(5001)
        r = 0.98 * system.radius
        fs, ft = z2z3_first_passages(r)
        want = {(0, 1): fs, (1, 1): ft, (1, 2): ft}
        got = math.fsum(system.scaled_green(5000) * powers)
        assert abs(got - z2z3_green(r)) / z2z3_green(r) < 1e-14
        for unknown in system.unknowns:
            got = math.fsum(scaled_first_passage(system, unknown, 5000) * powers)
            assert abs(got - want[unknown]) / want[unknown] < 1e-14

    def test_float_weights_overflow_the_integer_block(self):
        # weights read from binary floats have a common denominator near
        # 2^56, whose 63rd power overflows a float: the first block then
        # runs in the scaled weights
        fourth = 1 - Fraction(0.1) - Fraction(0.4) - Fraction(0.3)
        mu = StepMeasure(_f2(), {A: Fraction(0.1), AI: Fraction(0.4),
                                 B: Fraction(0.3), BI: fourth})
        assert mu.common_denominator() ** (BLOCK - 1) > 2**1024  # past the floats
        _assert_returns_match_exact(mu, 12, 1e-13)
        logs = mu.route.return_log_probs(300)
        assert np.all(np.isfinite(logs[::2])) and np.all(logs[1::2] == -math.inf)

    def test_skewed_f2_covers_the_lattice_unknowns(self):
        mu = _skewed_f2()
        assert is_radial(mu) is None
        _assert_returns_match_exact(mu, 20, 1e-13)


def _unreduced_coefficients(system, scaled_to, exact_to):
    """(g, y, nums) from the whole system, one coefficient at a time: the
    recurrence the quotient replaced, kept as the reference.  g[k] and
    y[s, k] are [r^k] G(e,e) R^k and [r^k] F_s R^k, k <= scaled_to, grown in
    long double from the integer weights and rounded to float once;
    nums[k][s] is d^k [r^k] F_s in Python integers, k <= exact_to."""
    d, R = system._d, system.radius
    ints = [np.rint(v * d).astype(int).astype(object)
            for v in (system._c, system._a, system._cross, system._back)]
    assert all(np.array_equal(i / d, v) for i, v in zip(
        ints, (system._c, system._a, system._cross, system._back)))
    # the scaled weights R w / d in long double, as ``_first_block`` has them
    ld = np.longdouble
    scale = ld(R) / ld(d)
    c, a, cross, back = (np.array(v, ld) * scale for v in ints)
    m = len(c)
    y, w = np.zeros((m, scaled_to + 1), ld), np.zeros((m, scaled_to + 1), ld)
    u, g = np.zeros(scaled_to + 1, ld), np.ones(scaled_to + 1, ld)
    for k in range(1, scaled_to + 1):
        pairs = [y[:, j] * w[:, k - 1 - j] for j in range(1, k - 1)]
        y[:, k] = (c if k == 1 else 0.0) + a @ y[:, k - 1] + sum(pairs, np.zeros(m, ld))
        w[:, k] = cross @ y[:, k]
        u[k] = (ld(system._lazyi) * scale if k == 1 else 0.0) + back @ y[:, k - 1]
        g[k] = u[1 : k + 1] @ g[k - 1 :: -1]
    g, y = g.astype(float), y.astype(float)
    nums, crossed = [np.zeros(m, object), ints[0]], [np.zeros(m, object), ints[2] @ ints[0]]
    for k in range(2, exact_to + 1):
        nums.append(ints[1] @ nums[k - 1] + sum(
            (nums[j] * crossed[k - 1 - j] for j in range(1, k - 1)), nums[0]))
        crossed.append(ints[2] @ nums[k])
    return g, y, nums


class TestQuotient:
    @pytest.mark.parametrize("name, cells", [
        ("f2", [0, 0, 0, 0]), ("z2z2z2", [0, 0, 0]), ("z2z3", [0, 1, 1]),
        # b and b^-1 weigh 1/4 each, a and a^-1 3/8 and 1/8
        ("f2_skewed", [0, 1, 2, 2]),
    ])
    def test_exchangeable_unknowns_share_a_cell(self, name, cells):
        system = _system(name)
        assert system._cell.tolist() == cells
        assert len(system._y) == len(system._ci) == max(cells) + 1

    def test_nothing_exchangeable_is_the_trivial_partition(self):
        system = _measure("f2_asym").first_passage_system  # four distinct weights
        assert system._cell.tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize("name", ["f2", "z2z2z2", "z2z3", "f2_skewed"])
    def test_a_cell_reads_one_value(self, name):
        # the unknowns of one cell read bitwise the same rows and sums
        system = _system(name)
        rows = [scaled_first_passage(system, u, 300).tobytes() for u in system.unknowns]
        sums = system.first_passage_sums(0.9 * system.radius, 40)
        for i, cell in enumerate(system._cell):
            first = system._cell.tolist().index(cell)
            assert rows[i] == rows[first]
            u, v = system.unknowns[i], system.unknowns[first]
            assert sums[u] == sums[v] and type(sums[u]) is float


@settings(max_examples=30, deadline=None)
@given(mu=_single_syllable_measures())
def test_quotient_matches_the_whole_system(mu):
    # the quotient's scaled coefficients lie within 1e-13 of the whole
    # system's to n = 300, and its integer coefficients lift to the whole
    # system's exactly
    system = mu.first_passage_system
    assume(system is not None)
    g, y, nums = _unreduced_coefficients(system, 300, 30)
    assert np.allclose(system.scaled_green(300), g, rtol=1e-13, atol=0.0)
    for s, unknown in enumerate(system.unknowns):
        assert np.allclose(scaled_first_passage(system, unknown, 300), y[s], rtol=1e-13, atol=0.0)
    lifted = [row[system._cell] for row in system.integer_coefficients(30)]
    assert all(np.array_equal(a, b) for a, b in zip(lifted, nums))


@settings(max_examples=30, deadline=None)
@given(mu=_cyclic_measures())
def test_returns_match_exact_on_random_cyclic_measures(mu):
    # n <= 30, less where the exact engine's ceil(n/2) steps of s
    # non-identity moves could reach more than 2e5 elements
    s = sum(1 for g, _ in mu.support if g)
    horizon = 30
    while s > 1 and s ** (horizon // 2) > 2 * 10**5:
        horizon -= 2
    _assert_returns_match_exact(mu, horizon, 1e-13)


@settings(max_examples=40, deadline=None)
@given(mu=_single_syllable_measures())
def test_the_support_decides_admissibility_in_scope(mu):
    # every draw is in scope: the route refuses it with the admissibility
    # or the elementary reason exactly where ``_admissible`` says no, and
    # never with the scope's (``routed``); where the support does not
    # generate the group, the reach check misses the radius-3 ball too
    assert routed(mu) == _admissible(mu)
    if not mu._support_generates():
        assert not reaches_ball(mu)


@settings(max_examples=40, deadline=None)
@given(mu=_single_syllable_measures())
def test_fold_matches_the_bisection_on_admissible_measures(mu):
    assume(_admissible(mu))
    system = mu.first_passage_system
    fold = system._fold()
    assert fold is not None
    assert abs(fold[0] - system._bisect()[0]) <= 1e-14 * fold[0]

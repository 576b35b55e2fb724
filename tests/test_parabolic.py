import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from freewalk.errors import NonConvergenceError
from freewalk.green import GreenEvaluator
from freewalk.parabolic import (
    degeneracy_test,
    first_return_kernel,
    induced_green,
    kernel_matrix,
    kernel_spectral_radius,
)
from freewalk.walks import PathOperator, StepMeasure

from oracles import F2_RADIUS, f2_first_passage


@pytest.fixture(scope="module")
def ev(f2_srw):
    return GreenEvaluator(f2_srw)


class TestExactKernel:
    def test_tree_row_exact_entries(self, f2_srw):
        kern = first_return_kernel(f2_srw, 0, Fraction(1), max_len=20)
        assert kern.row[(1,)] == Fraction(1, 4)
        assert kern.row[(-1,)] == Fraction(1, 4)
        assert set(kern.row) == {(1,), (-1,), (0,)}

    def test_identity_entry_tail_certified(self, f2_srw):
        # the only open entry is at e; its exact limit is
        # 2 * (1/4) * F(b,e|1) = 1/6.  Per-length excursion weights are
        # Catalan numbers times (3/16)^m, so consecutive length increments
        # shrink by strictly less than 3/4; the geometric bound
        # tail(L) <= 4 * (row(L+2) - row(L)) is then certified by exact
        # increments, and a long vectorized run lands inside it.
        rows = {
            L: first_return_kernel(f2_srw, 0, Fraction(1), max_len=L).row[(0,)]
            for L in (16, 18, 20, 22)
        }
        incs = [rows[18] - rows[16], rows[20] - rows[18], rows[22] - rows[20]]
        assert all(i > 0 for i in incs)
        for a, b in zip(incs, incs[1:]):
            assert b / a < Fraction(3, 4)
        gap20 = Fraction(1, 6) - rows[20]
        assert gap20 <= 4 * (rows[22] - rows[20])
        k_long = first_return_kernel(
            f2_srw, 0, 1.0, max_len=140, ball_radius=11, exact=False
        )
        assert abs(1.0 / 6.0 - k_long.row[(0,)]) < 1e-6

    def test_prune_is_lossless(self, f2_srw):
        pruned = first_return_kernel(f2_srw, 0, Fraction(1), max_len=14)
        wide = first_return_kernel(
            f2_srw, 0, Fraction(1), max_len=14, ball_radius=14
        )
        assert pruned.row == wide.row

    @pytest.mark.parametrize("factor_id", [0, 1])
    def test_prune_with_multi_letter_steps(self, f2, factor_id):
        # a two-letter step moves two units closer to H_k, so the prune
        # must allow twice the steps left; with one unit per step it lost
        # 1/64 of the row to factor a and 9/256 to factor b
        a, ai = ((0, (1,)),), ((0, (-1,)),)
        ba, aibi = ((1, (1,)), (0, (1,))), ((0, (-1,)), (1, (-1,)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the reach check is heuristic
            mu = StepMeasure(f2, {ba: Fraction(1, 4), aibi: Fraction(1, 4),
                                  a: Fraction(1, 4), ai: Fraction(1, 4)})
        assert mu.max_step_length == 2
        exact = first_return_kernel(mu, factor_id, Fraction(1), 4, 10)
        flt = first_return_kernel(mu, factor_id, 1.0, 4, 10, exact=False)
        assert set(exact.row) == set(flt.row)
        for payload, w in exact.row.items():
            assert abs(float(w) - flt.row[payload]) < 1e-12
        assert abs(float(exact.returned_mass) - flt.returned_mass) < 1e-12

    @pytest.mark.parametrize("walk, factor_id", [("f2_srw", 0), ("z2z3_srw", 1)])
    def test_exact_and_float_rows_agree(self, walk, factor_id, request):
        # both kernels step the level chain here, so the reference is the
        # exact state chain
        measure = request.getfixturevalue(walk)
        exact = first_return_kernel(measure, factor_id, Fraction(1), 12, 6)
        flt = first_return_kernel(measure, factor_id, 1.0, 12, 6, exact=False)
        state = PathOperator(measure, 6, Fraction(1), factor=factor_id).exact_absorb(12)
        assert exact.exact and not flt.exact
        assert exact.row == state[0]
        assert set(state[0]) == set(flt.row)
        for payload, w in state[0].items():
            assert isinstance(w, Fraction)
            assert math.isclose(flt.row[payload], float(w), rel_tol=1e-12)

    def test_symmetric_row(self, z2z3_srw):
        kern = first_return_kernel(z2z3_srw, 1, Fraction(1), max_len=16)
        # row from e over Z/3 payloads: entries at 1 and 2 agree by symmetry
        assert kern.row[1] == kern.row[2]


class TestKernelMatrix:
    def test_translation_invariance(self, f2_srw, f2):
        kern = first_return_kernel(f2_srw, 0, Fraction(1), max_len=12)
        states, mat = kernel_matrix(kern, f2, factor_ball=5)
        idx = {p: i for i, p in enumerate(states)}
        # M[(1,), (2,)] should equal the row value at (1,)
        assert mat[idx[(1,)], idx[(2,)]] == float(kern.row[(1,)])
        assert mat[idx[(3,)], idx[(3,)]] == float(kern.row[(0,)])

    def test_finite_factor_matrix_shape(self, z2z3_srw, z2z3):
        kern = first_return_kernel(z2z3_srw, 1, Fraction(1), max_len=12)
        states, mat = kernel_matrix(kern, z2z3, factor_ball=10)
        assert mat.shape == (3, 3)


class TestSpectralRadius:
    def test_f2_kernel_radius_below_one(self, f2_srw, f2, ev):
        kern = first_return_kernel(f2_srw, 0, ev.R_hat, 40, 9, exact=False)
        rho = kernel_spectral_radius(kern, f2, factor_ball=30)
        assert 0.8 < rho < 0.95
        # the full kernel mass at R is (R/2)(1 + f(R)) with f(R) = 1/sqrt(3);
        # evaluate at the exact radius since R_hat may overshoot by ~1e-6
        full = (F2_RADIUS / 2.0) * (1.0 + f2_first_passage(F2_RADIUS))
        assert rho < full < 1.0

    def test_radius_grows_with_truncation(self, f2_srw, f2, ev):
        rhos = []
        for L, B in ((10, 5), (20, 7), (30, 9)):
            kern = first_return_kernel(f2_srw, 0, ev.R_hat, L, B, exact=False)
            rhos.append(kernel_spectral_radius(kern, f2, factor_ball=20))
        assert rhos == sorted(rhos)

    def test_degeneracy_rungs_match_the_symmetric_eigenvalues(self, f2_srw, f2, ev):
        # the f2 kernel row lives on a^-1, e and a, with one weight on a^-1
        # and a, so its matrix over the 61 payloads |j| <= 30 is symmetric
        # tridiagonal Toeplitz, with largest eigenvalue w0 + 2 w1 cos(pi/62)
        for v in degeneracy_test(f2_srw, ev.R_hat).per_factor:
            for L, B, rho in v.ladder:
                kern = first_return_kernel(f2_srw, v.factor_id, ev.R_hat, L, B, exact=False)
                assert set(kern.row) == {(-1,), (0,), (1,)}
                w0, w1 = kern.row[(0,)], kern.row[(1,)]
                assert kern.row[(-1,)] == w1
                assert abs(rho - (w0 + 2 * w1 * math.cos(math.pi / 62))) < 1e-15


class TestInducedGreen:
    def test_matches_green_at_one(self, f2_srw, f2, ev):
        kern = first_return_kernel(f2_srw, 0, 1.0, max_len=60, ball_radius=10, exact=False)
        for payload, target in (((0,), ()), ((1,), ((0, (1,)),)), ((2,), ((0, (2,)),))):
            got = induced_green(kern, f2, (), target, 1.0, factor_ball=80)
            want = ev.green((), target, 1.0).value
            assert abs(got - want) / want < 1e-2

    def test_matches_green_below_radius(self, f2_srw, f2, ev):
        r = 0.9 * ev.R_hat
        kern = first_return_kernel(f2_srw, 0, r, max_len=60, ball_radius=10, exact=False)
        a2 = ((0, (2,)),)
        got = induced_green(kern, f2, (), a2, 1.0, factor_ball=80)
        want = ev.green((), a2, r).value
        assert abs(got - want) / want < 1e-2

    def test_one_solve_up_to_the_kernel_radius(self, f2_srw, f2):
        # an entry of (I - t K)^-1 right up to t = 1/rho(K), and a refusal
        # past it, where the Neumann series diverges
        kern = first_return_kernel(f2_srw, 0, 1.0, 60, 10, exact=False)
        states, mat = kernel_matrix(kern, f2, factor_ball=40)
        rho = kernel_spectral_radius(kern, f2, factor_ball=40)
        i, j = states.index((0,)), states.index((2,))
        a2 = ((0, (2,)),)
        for frac in (0.95, 0.999):
            t = frac / rho
            want = np.linalg.solve(np.eye(len(states)) - t * mat, np.eye(len(states)))[i, j]
            assert abs(induced_green(kern, f2, (), a2, t) - want) / want < 1e-12
        with pytest.raises(NonConvergenceError):
            induced_green(kern, f2, (), a2, 1.05 / rho)


class TestDegeneracy:
    def test_f2_verdict(self, f2_srw, ev):
        report = degeneracy_test(f2_srw, ev.R_hat)
        assert report.verdict == "non-degenerate"
        for v in report.per_factor:
            assert v.stabilized
            assert v.rho_hat < 0.95
            assert v.rho_extrapolated < 1.0

    def test_finite_factor_verdict(self, z2z3_srw, z2z3_srw_ev=None):
        ev23 = GreenEvaluator(z2z3_srw)
        report = degeneracy_test(
            z2z3_srw, ev23.R_hat, ladder=((30, 8), (45, 9), (60, 10))
        )
        assert report.verdict == "non-degenerate"

    def test_one_rung_ladder_is_refused(self, f2_srw, ev):
        with pytest.raises(ValueError, match="two rungs"):
            degeneracy_test(f2_srw, ev.R_hat, ladder=((20, 6),))

    def test_short_ladder_is_inconclusive(self, f2_srw, ev):
        report = degeneracy_test(
            f2_srw, ev.R_hat, ladder=((4, 4), (6, 5)), stab_tol=1e-4
        )
        assert report.verdict == "inconclusive"

import json
import math
import sys
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from freewalk import algebraic, parabolic
from freewalk.algebraic import m_matrix_solve, monomial, perron_root, point_passages
from freewalk.errors import DivergenceError, GroupSpecError, NonConvergenceError
from freewalk.green import GreenEvaluator
from freewalk.groups import FreeProduct, LatticeFactor, _lattice_ball, cyclic_factor
from freewalk.parabolic import (
    ReturnKernel,
    degeneracy_test,
    first_return_kernel,
    induced_green,
    kernel_matrix,
    kernel_spectral_radius,
)
from freewalk.walks import StepMeasure

from exact import StateChain, max_step_length
from oracles import F2_RADIUS, f2_first_passage, kernel_rho_at_radius
from test_path_operator import KERNEL_CASES, _exact_kernel, _float_kernel, _measure


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
        # the state chain's pruned row equals the unpruned one, over every
        # state 10 steps reach, and the first-passage series gives it too
        pruned = StateChain(f2_srw, None, Fraction(1), 0).absorb(10)[0]
        assert pruned == _exact_kernel(f2_srw, 0, 1, 10, None)[0]
        assert pruned == first_return_kernel(f2_srw, 0, Fraction(1), max_len=10).row

    @pytest.mark.parametrize("factor_id", [0, 1])
    def test_prune_with_multi_letter_steps(self, f2, factor_id):
        # a two-letter step moves two units closer to H_k, so the prune
        # must allow twice the steps left; with one unit per step it lost
        # 1/64 of the row to factor a and 9/256 to factor b
        a, ai = ((0, (1,)),), ((0, (-1,)),)
        ba, aibi = ((1, (1,)), (0, (1,))), ((0, (-1,)), (1, (-1,)))
        mu = StepMeasure(f2, {ba: Fraction(1, 4), aibi: Fraction(1, 4),
                              a: Fraction(1, 4), ai: Fraction(1, 4)})
        assert max_step_length(mu) == 2
        exact, exact_returned = StateChain(mu, 10, Fraction(1), factor_id).absorb(4)[:2]
        flt, flt_returned = StateChain(mu, 10, 1.0, factor_id).absorb(4, exact=False)[:2]
        assert set(exact) == set(flt)
        for payload, w in exact.items():
            assert abs(float(w) - flt[payload]) < 1e-12
        assert abs(float(exact_returned) - flt_returned) < 1e-12

    @pytest.mark.parametrize("walk, factor_id", [("f2_srw", 0), ("z2z3_srw", 1)])
    def test_exact_and_float_rows_agree(self, walk, factor_id, request):
        # both kernels read the first-passage series here, so the reference
        # is the exact state chain, whose ball of radius 6 holds every state
        # its prune keeps at L = 12
        measure = request.getfixturevalue(walk)
        exact = first_return_kernel(measure, factor_id, Fraction(1), 12, 6)
        flt = first_return_kernel(measure, factor_id, 1.0, 12, 6, exact=False)
        state = StateChain(measure, 6, Fraction(1), factor_id).absorb(12)
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

    @pytest.mark.parametrize("name", ["z2sq_z2", "f2_two_letter"])
    @pytest.mark.parametrize("r", [Fraction(1), 1.0])
    def test_outside_the_system_is_refused(self, name, r):
        # every kernel reads the first-passage system: a measure outside
        # it is refused with the one scope message, before any path sum
        measure = _measure(name)
        with pytest.raises(GroupSpecError) as err:
            first_return_kernel(measure, 0, r, 140, 11, exact=isinstance(r, Fraction))
        assert str(err.value) == algebraic.SCOPE


def _kernel_row_by_fraction(measure, k, r, passages):
    """The reference for float rows of ``_kernel_row``: each r mu(s) is
    the Fraction product, rounded once by ``float``."""
    group = measure.group
    home, steps, out = [], {}, []
    for g, w in measure.support:
        rw = float(Fraction(r) * w)
        if not g:
            home.append(rw)
        elif g[0][0] == k:
            steps[g[0][1]] = rw
        else:
            (f, p), = g
            back = monomial(group, f, group.factors[f].inv(p))[0]
            home.append(rw * passages[back])
            out.append((w, back))
    row = {group.factors[k].identity: math.fsum(home)} | steps
    return {p: v for p, v in row.items() if v}, out


def _z5_skew():
    """Z5 * Z2 stepping +1 and +2 in Z5 but never back: a finite factor
    whose first-return row is not symmetric."""
    group = FreeProduct([cyclic_factor(5), cyclic_factor(2)])
    return StepMeasure(group, {((0, 1),): Fraction(1, 2), ((0, 2),): Fraction(1, 4),
                               ((1, 1),): Fraction(1, 4)})


class TestFloatRow:
    @given(
        r=st.one_of(st.sampled_from([1.0, 5e-324, 2.2250738585072014e-308, 1e300]),
                    st.floats(allow_nan=False, allow_infinity=False)),
        w=st.fractions(min_value=0, max_value=1, max_denominator=10**30),
    )
    @settings(max_examples=400, deadline=None)
    def test_the_integer_division_is_the_rounded_fraction(self, r, w):
        assert parabolic._times(r, w).hex() == float(Fraction(r) * w).hex()

    @pytest.mark.parametrize("name", ["f2", "f2_asym", "f2_lazy", "z2z3", "z2z2z2", "z5_skew"])
    def test_rows_match_the_fraction_products(self, name):
        measure = _z5_skew() if name == "z5_skew" else _measure(name)
        system = measure.first_passage_system
        for r in (1.0, 1.0 / 3.0, 0.9 * system.radius, system.radius):
            passages = point_passages(measure, r)
            for k in range(len(measure.group.factors)):
                got = parabolic._kernel_row(measure, k, parabolic._scaled(measure, r), passages)
                want = _kernel_row_by_fraction(measure, k, r, passages)
                assert got[1] == want[1]
                assert {p: v.hex() for p, v in got[0].items()} == {
                    p: v.hex() for p, v in want[0].items()}


def _kernel_row_by_fraction_products(measure, k, r, passages):
    """The reference for exact series rows: the row of ``_kernel_row`` in
    Fraction products, one Fraction per unknown, added one by one."""
    group = measure.group
    home, steps = [], {}
    for g, w in measure.support:
        rw = r * w
        if not g:
            home.append(rw)
        elif g[0][0] == k:
            steps[g[0][1]] = rw
        else:
            (f, p), = g
            back = monomial(group, f, group.factors[f].inv(p))[0]
            home.append(rw * passages[back])
    row = {group.factors[k].identity: sum(home, Fraction(0))} | steps
    return {p: v for p, v in row.items() if v}


class TestExactRow:
    @pytest.mark.parametrize("name", ["f2", "f2_asym", "f2_lazy", "z2z3", "z2z2z2", "z5_skew"])
    def test_rows_equal_the_fraction_products(self, name):
        # the row over one integer denominator is the row of Fraction
        # products over the first passages summed term by term, entry for
        # entry and in the same key order, and its mass is their sum
        measure = _z5_skew() if name == "z5_skew" else _measure(name)
        system = measure.first_passage_system
        d = measure.common_denominator()
        for r in (Fraction(1), Fraction(1, 3), Fraction(7, 8)):
            for L in (0, 1, 2, 20):
                nums = system.integer_coefficients(max(L - 1, 0))
                passages = {s: sum((Fraction(int(nums[m][c]), d**m) * r**m for m in range(1, L)),
                                   Fraction(0))
                            for s, c in system.cell_of.items()}
                for k in range(len(measure.group.factors)):
                    kern = first_return_kernel(measure, k, r, L)
                    want = _kernel_row_by_fraction_products(measure, k, r, passages) if L else {}
                    assert kern.row == want
                    assert list(kern.row) == list(want)
                    assert all(type(v) is Fraction for v in kern.row.values())
                    assert kern.returned_mass == sum(want.values(), Fraction(0))
                    assert type(kern.returned_mass) is Fraction
                    assert kern.in_flight_mass == (0 if L else 1)


# a lattice row reaching payload length 2, wider than {a^-1, e, a}
_WIDE_ROW = {(-2,): 0.05, (-1,): 0.2, (0,): 0.15, (1,): 0.3, (2,): 0.1}


def _kernel_matrix_by_entry(kernel, group, factor_ball):
    """The reference for a kernel's matrix over a factor ball: M[i, j] set
    entry by entry, for each state and each payload of the row."""
    factor = group.factors[kernel.factor_id]
    if factor.kind == "lattice":
        states = list(_lattice_ball(factor.rank, factor_ball))
    else:
        states = list(range(factor.order))
    index = {p: i for i, p in enumerate(states)}
    mat = np.zeros((len(states), len(states)))
    for i, p in enumerate(states):
        for q, w in kernel.row.items():
            j = index.get(factor.mul(p, q))
            if j is not None:
                mat[i, j] = float(w)
    return states, mat


def _toeplitz(kernel, group, n):
    """The tridiagonal Toeplitz matrix over n payloads of the weights
    (w_-, w_0, w_+) that ``parabolic._tridiagonal`` reads off a lattice
    kernel, in place of its matrix."""
    w_minus, w0, w_plus = parabolic._tridiagonal(kernel, group)
    return w0 * np.eye(n) + w_plus * np.eye(n, k=1) + w_minus * np.eye(n, k=-1)


class TestKernelMatrix:
    """A finite factor's matrix is gathered from the row; a lattice kernel
    has none, and the sweep and the Perron root read its tridiagonal
    weights.  Both are held to the matrix set entry by entry."""

    @pytest.mark.parametrize("factor_ball", [5, 30, 40])
    @pytest.mark.parametrize("exact", [True, False])
    def test_gather_matches_the_entry_loop_rank_one(self, f2_srw, f2, exact, factor_ball):
        if exact:
            kern = first_return_kernel(f2_srw, 0, Fraction(1), 20)
        else:
            kern = first_return_kernel(f2_srw, 0, 1.0, 140, 11, exact=False)
        self._assert_matches(kern, f2, factor_ball)

    @pytest.mark.parametrize("factor_ball", [0, 1, 6])
    @pytest.mark.parametrize("case", ["f2_asym", "f2_two_letter_b"])
    def test_gather_matches_the_entry_loop_on_other_kernels(self, case, factor_ball):
        # a row that is not symmetric, and the row of a measure with
        # two-letter steps (the state chain's, which lies on
        # {a^-1, e, a}); over the 0-ball only the row's entry at e counts
        name, fid, r, L, _ = KERNEL_CASES[case]
        row, returned, in_flight, _ = _float_kernel(case)
        kern = ReturnKernel(fid, r, L, row, returned, in_flight, False, 0)
        self._assert_matches(kern, _measure(name).group, factor_ball)

    @pytest.mark.parametrize("factor_id", [0, 1])
    def test_gather_matches_the_entry_loop_finite(self, z2z3_srw, z2z3, factor_id):
        kern = first_return_kernel(z2z3_srw, factor_id, Fraction(1), 12)
        self._assert_matches(kern, z2z3, 10)

    def test_gather_matches_the_entry_loop_on_a_skew_finite_row(self):
        measure = _z5_skew()
        kern = first_return_kernel(measure, 0, 1.0, 30, exact=False)
        assert set(kern.row) == {0, 1, 2}  # no entry at 1^-1 = 4 or 2^-1 = 3
        self._assert_matches(kern, measure.group, 3)

    def test_a_lattice_kernel_off_the_nearest_payloads_is_refused(self, f2):
        # no measure in the system's scope has one: a row wider than
        # {a^-1, e, a} or on a rank-2 factor is refused, not read in part,
        # and no lattice kernel has a kernel matrix
        rank_two = FreeProduct([LatticeFactor(2), LatticeFactor(2)])
        for row, group in ((_WIDE_ROW, f2), ({(0, 1): 0.25, (0, 0): 0.5}, rank_two)):
            kern = ReturnKernel(0, 1.0, 0, row, math.fsum(row.values()), 0.0, False, 0)
            with pytest.raises(ValueError, match="rank-1"):
                kernel_spectral_radius(kern, group, 2)
            with pytest.raises(ValueError, match="rank-1"):
                induced_green(kern, group, (), (), 0.5, 2)
            with pytest.raises(ValueError, match="tridiagonal"):
                kernel_matrix(kern, group)

    @staticmethod
    def _assert_matches(kern, group, factor_ball):
        ref_states, ref = _kernel_matrix_by_entry(kern, group, factor_ball)
        if group.factors[kern.factor_id].kind == "lattice":
            states, mat = ref_states, _toeplitz(kern, group, len(ref_states))
            assert ref_states == [(j,) for j in range(-factor_ball, factor_ball + 1)]
        else:
            states, mat = kernel_matrix(kern, group)
        assert states == ref_states
        assert mat.dtype == ref.dtype and mat.shape == ref.shape
        assert mat.tobytes() == ref.tobytes()

    def test_translation_invariance(self, f2_srw, f2):
        kern = first_return_kernel(f2_srw, 0, Fraction(1), max_len=12)
        states, mat = [(j,) for j in range(-5, 6)], _toeplitz(kern, f2, 11)
        idx = {p: i for i, p in enumerate(states)}
        # M[(1,), (2,)] should equal the row value at (1,)
        assert mat[idx[(1,)], idx[(2,)]] == float(kern.row[(1,)])
        assert mat[idx[(3,)], idx[(3,)]] == float(kern.row[(0,)])

    def test_finite_factor_matrix_shape(self, z2z3_srw, z2z3):
        kern = first_return_kernel(z2z3_srw, 1, Fraction(1), max_len=12)
        states, mat = kernel_matrix(kern, z2z3)
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

    @pytest.mark.parametrize(
        "walk, name",
        [("f2_srw", "f2_srw"), ("z2cubed_srw", "z2z2z2"), ("z2z3_srw", "z2z3")],
        ids=["f2_srw", "z2z2z2", "z2z3"],
    )
    def test_truncated_rungs_rise_below_the_closed_form(self, walk, name, request):
        # the L-truncated kernels at R sum ever more non-negative path
        # weights, so the Perron roots of their matrices rise with L and
        # stay below rho_k(R), which degeneracy_test reports.  A rank-1
        # lattice row lives on a^-1, e and a, with one weight on a^-1 and
        # a, so its matrix over the 61 payloads |j| <= 30 is symmetric
        # tridiagonal Toeplitz, with largest eigenvalue w0 + 2 w1 cos(pi/62)
        measure = request.getfixturevalue(walk)
        group = measure.group
        r = measure.first_passage_system.radius
        for v in degeneracy_test(measure, r).factors:
            want = kernel_rho_at_radius(name, v.factor_id)
            assert abs(v.rho_hat / want - 1) < 1e-13
            rungs = []
            for L, B in ((20, 6), (30, 8), (40, 9), (60, 10)):
                kern = first_return_kernel(measure, v.factor_id, r, L, B, exact=False)
                rho = kernel_spectral_radius(kern, group, factor_ball=30)
                if group.factors[v.factor_id].kind == "lattice":
                    assert set(kern.row) == {(-1,), (0,), (1,)}
                    w0, w1 = kern.row[(0,)], kern.row[(1,)]
                    assert kern.row[(-1,)] == w1
                    assert abs(rho - (w0 + 2 * w1 * math.cos(math.pi / 62))) < 1e-15
                rungs.append(rho)
            assert rungs == sorted(set(rungs))
            assert rungs[-1] < want

    @pytest.mark.parametrize("walk", ["z2z3_srw", "z2cubed_srw"])
    def test_a_finite_factor_radius_is_the_row_mass(self, walk, request):
        # a kernel on a finite factor is a convolution operator on H_k, so
        # every row of its matrix sums to the row mass, its Perron root
        measure = request.getfixturevalue(walk)
        group = measure.group
        for r in (0.5, 1.0, measure.first_passage_system.radius):
            for k in range(len(group.factors)):
                kern = first_return_kernel(measure, k, r, 40, exact=False)
                rho = kernel_spectral_radius(kern, group, 30)
                assert rho == math.fsum(kern.row.values())
                assert abs(rho - perron_root(kernel_matrix(kern, group)[1])) < 1e-13


def _induced_green_per_call(kernel, group, h, h_prime, t):
    """The reference for ``induced_green`` on a finite factor: a new kernel
    matrix (on a copy of the kernel, which keeps nothing) and a new solve
    for each entry."""
    states, mat = kernel_matrix(replace(kernel), group)
    index = {p: i for i, p in enumerate(states)}
    unit = np.zeros(len(states))
    unit[index[h]] = 1.0
    row = m_matrix_solve(t * mat.T, unit)
    return float(row[index[h_prime]])


def _count_calls(monkeypatch, name):
    """The list that each later call of ``parabolic.<name>`` appends to."""
    calls, fn = [], getattr(parabolic, name)
    monkeypatch.setattr(parabolic, name, lambda *a: calls.append(1) or fn(*a))
    return calls


def _exact_solve(kernel, group, t, factor_ball, h):
    """(x, max z) in Fractions with A x = e_h and A z = 1, for
    A = (I - t K)^T and K the kernel's float matrix over the ball, read
    exactly; None unless every leading principal minor of A is positive,
    as on a non-singular M-matrix.

    K is tridiagonal Toeplitz, so A is too, with a on its diagonal, -u
    above and -l below.  Its leading minors follow theta_k = a theta_{k-1}
    - u l theta_{k-2}, and (Usmani 1994) A^-1 has (j, k) entry
    u^(k-j) theta_j theta_(n-1-k) / theta_n for j <= k and
    l^(j-k) theta_k theta_(n-1-j) / theta_n for j >= k.  The entries are
    dyadic, so everything but the last divisions is in Python ints.
    """
    states, mat = _kernel_matrix_by_entry(kernel, group, factor_ball)
    n, t = len(states), Fraction(t)
    w0, w_plus, w_minus = (float(mat[i, j]) if max(i, j) < n else 0.0
                           for i, j in ((0, 0), (0, 1), (1, 0)))
    assert np.array_equal(mat, w0 * np.eye(n) + w_plus * np.eye(n, k=1) + w_minus * np.eye(n, k=-1))
    a, u, l = 1 - t * Fraction(w0), t * Fraction(w_minus), t * Fraction(w_plus)
    scale = max(v.denominator for v in (a, u, l))  # a power of two
    a, u, l = (int(v * scale) for v in (a, u, l))
    theta = [1, a]
    for _ in range(n - 1):
        theta.append(a * theta[-1] - u * l * theta[-2])
    if min(theta) <= 0:
        return None
    hi = states.index(h)
    # x_j and z_j times theta_n / scale; z_j = theta_j after[j] +
    # theta_(n-1-j) before[j], with after[j] = sum_{k>=j} u^(k-j) theta_(n-1-k)
    # and before[j] = sum_{k<j} l^(j-k) theta_k
    x = [u ** (hi - j) * theta[j] * theta[n - 1 - hi] if j <= hi else
         l ** (j - hi) * theta[hi] * theta[n - 1 - j] for j in range(n)]
    after, before = [0] * (n + 1), [0] * n
    for j in range(n - 1, -1, -1):
        after[j] = theta[n - 1 - j] + u * after[j + 1]
    for j in range(1, n):
        before[j] = l * (before[j - 1] + theta[j - 1])
    z_top = max(theta[j] * after[j] + theta[n - 1 - j] * before[j] for j in range(n))
    den = Fraction(theta[n], scale)
    return {p: v / den for p, v in zip(states, x)}, z_top / den


class TestInducedGreen:
    @pytest.mark.parametrize("r, L, B", [(Fraction(1), 20, None), (1.0, 140, 11)])
    def test_one_sweep_per_row_within_an_ulp(self, f2_srw, f2, monkeypatch, r, L, B):
        # the four entries of row e that the kernels benchmark reads, from
        # one elimination sweep, with no matrix and no dense solve, each
        # within an ulp of the exact solve of the same 81-state system
        kern = first_return_kernel(f2_srw, 0, r, L, B, exact=isinstance(r, Fraction))
        payloads = [(j,) for j in range(4)]
        want = _exact_solve(kern, f2, 1.0, 40, (0,))[0]
        builds = _count_calls(monkeypatch, "_kernel_matrix")
        solves = _count_calls(monkeypatch, "m_matrix_solve")
        sweeps = _count_calls(monkeypatch, "_sweep")
        got = [induced_green(kern, f2, (), ((0, p),) if any(p) else (), 1.0) for p in payloads]
        assert all(abs(Fraction(v) - want[p]) <= math.ulp(float(want[p]))
                   for v, p in zip(got, payloads))
        assert (len(sweeps), len(builds), len(solves)) == (1, 0, 0)
        # the Perron root is a closed form, without the matrix
        kernel_spectral_radius(kern, f2, 40)
        assert (len(builds), len(solves)) == (0, 0)

    @pytest.mark.parametrize("case", ["z2z3_Z3", "z5_skew"])
    def test_one_matrix_and_one_solve_per_row(self, monkeypatch, case):
        # finite factors, with a symmetric and a skew row: the dense path,
        # each entry as the per-call code gives it bit for bit, from one
        # build and one solve
        if case == "z2z3_Z3":
            group, fid = _measure("z2z3").group, 1
            kern = first_return_kernel(_measure("z2z3"), fid, Fraction(1), 12)
            payloads = [0, 1, 2]
        else:
            group, fid = _z5_skew().group, 0
            kern = first_return_kernel(_z5_skew(), fid, 1.0, 30, exact=False)
            payloads = [0, 1, 2, 3, 4]
        identity = group.factors[fid].identity
        want = [_induced_green_per_call(kern, group, identity, p, 1.0) for p in payloads]
        builds = _count_calls(monkeypatch, "_kernel_matrix")
        solves = _count_calls(monkeypatch, "m_matrix_solve")
        sweeps = _count_calls(monkeypatch, "_sweep")
        got = [induced_green(kern, group, (), ((fid, p),) if p != identity else (), 1.0)
               for p in payloads]
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert (len(builds), len(solves), len(sweeps)) == (1, 1, 0)
        # the Perron root is the row mass, without another matrix
        kernel_spectral_radius(kern, group, 40)
        assert len(builds) == 1

    def test_past_the_kernel_radius_every_call_is_refused(self, f2_srw, f2, monkeypatch):
        kern = first_return_kernel(f2_srw, 0, 1.0, 60, 10, exact=False)
        t = 1.05 / kernel_spectral_radius(kern, f2, factor_ball=40)
        sweeps = _count_calls(monkeypatch, "_sweep")
        for _ in range(2):
            for g in ((), ((0, (1,)),), ((0, (2,)),)):
                with pytest.raises(NonConvergenceError):
                    induced_green(kern, f2, (), g, t)
        assert len(sweeps) == 1

    def test_the_stored_matrix_is_read_only(self, z2z3_srw, z2z3):
        kern = first_return_kernel(z2z3_srw, 1, 1.0, 60, exact=False)
        states, mat = kernel_matrix(kern, z2z3)
        assert kernel_matrix(kern, z2z3)[1] is mat
        assert not mat.flags.writeable
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0
        # a copy of the kernel keeps nothing, and equals the original
        copy = replace(kern)
        assert copy == kern
        assert kernel_matrix(copy, z2z3)[1] is not mat

    def test_matches_green_at_one(self, f2_srw, f2, ev):
        kern = first_return_kernel(f2_srw, 0, 1.0, max_len=60, ball_radius=10, exact=False)
        for payload, target in (((0,), ()), ((1,), ((0, (1,)),)), ((2,), ((0, (2,)),))):
            got = induced_green(kern, f2, (), target, 1.0, factor_ball=80)
            want = ev.green((), target, 1.0)
            assert abs(got - want) / want < 1e-2

    def test_matches_green_below_radius(self, f2_srw, f2, ev):
        r = 0.9 * ev.R_hat
        kern = first_return_kernel(f2_srw, 0, r, max_len=60, ball_radius=10, exact=False)
        a2 = ((0, (2,)),)
        got = induced_green(kern, f2, (), a2, 1.0, factor_ball=80)
        want = ev.green((), a2, r)
        assert abs(got - want) / want < 1e-2

    def test_one_solve_up_to_the_kernel_radius(self, f2_srw, f2):
        # an entry of (I - t K)^-1 right up to t = 1/rho(K), and a refusal
        # past it, where the Neumann series diverges
        kern = first_return_kernel(f2_srw, 0, 1.0, 60, 10, exact=False)
        states, mat = _kernel_matrix_by_entry(kern, f2, 40)
        rho = kernel_spectral_radius(kern, f2, factor_ball=40)
        i, j = states.index((0,)), states.index((2,))
        a2 = ((0, (2,)),)
        for frac in (0.95, 0.999):
            t = frac / rho
            want = np.linalg.solve(np.eye(len(states)) - t * mat, np.eye(len(states)))[i, j]
            assert abs(induced_green(kern, f2, (), a2, t) - want) / want < 1e-12
        with pytest.raises(NonConvergenceError):
            induced_green(kern, f2, (), a2, 1.05 / rho)


_Z_TWICE = FreeProduct([LatticeFactor(1), LatticeFactor(1)])


def _on_z(payload):
    return ((0, payload),) if any(payload) else ()


def _sweep_by_loop(lower, diag, upper, n, h):
    """The reference for ``parabolic._sweep``: every step of the forward
    elimination and of the back substitution taken, one index at a time."""
    lu = lower * upper
    pivots, ys = [], []
    p, y = diag, 1.0
    for i in range(n):
        if i:
            y = 1.0 + lower * y / p
            p = diag - lu / p
        if not 0.0 < p < math.inf:
            return None
        pivots.append(p)
        ys.append(y)
    z = 0.0
    for y, p in zip(reversed(ys), reversed(pivots)):
        z = (y + upper * z) / p
        if not 0.0 < z < math.inf:
            return None
    gamma = diag - (lu / pivots[h - 1] if h else 0.0) - (lu / pivots[n - 2 - h] if h < n - 1 else 0.0)
    if not 0.0 < gamma < math.inf:
        return None
    x = [1.0 / gamma]
    for p in reversed(pivots[:h]):
        x.append(x[-1] * upper / p)
    x.reverse()
    for p in reversed(pivots[: n - 1 - h]):
        x.append(x[-1] * lower / p)
    return x if max(x) < math.inf else None


def _assert_sweep_is_the_loop(kern, group, h, t, ball):
    """The sweep ``induced_green`` runs for row h, bit for bit the loop's,
    refusals included."""
    w_minus, w0, w_plus = parabolic._tridiagonal(kern, group)
    args = (t * w_plus, parabolic._one_minus(t, w0), t * w_minus, 2 * ball + 1, h[0] + ball)
    got, want = parabolic._sweep(*args), _sweep_by_loop(*args)
    assert (got is None) == (want is None)
    if got is not None:
        assert [v.hex() for v in got] == [v.hex() for v in want]


class TestSweep:
    """Kernels on {a^-1, e, a}: ``induced_green`` by the elimination sweep
    and the Perron root in closed form, against the step-by-step loop,
    exact Fraction solves and the dense path."""

    @given(
        w_minus=st.floats(0.0, 1.0, exclude_min=True),
        w0=st.floats(0.0, 1.0),
        w_plus=st.floats(0.0, 1.0, exclude_min=True),
        ball=st.integers(0, 20),
        at=st.integers(0, 40),
    )
    # 1.0 - t * w0 rounded twice is 1.03e-12 off at t rho = 0.999 here
    @example(w_minus=1.0, w0=0.75, w_plus=1e-9, ball=16, at=19)
    @settings(max_examples=100, deadline=None)
    def test_rows_and_refusals_match_the_exact_and_dense_solves(
            self, w_minus, w0, w_plus, ball, at):
        h = (at % (2 * ball + 1) - ball,)
        row = {q: w for q, w in (((-1,), w_minus), ((0,), w0), ((1,), w_plus)) if w}
        kern = ReturnKernel(0, 1.0, 0, row, math.fsum(row.values()), 0.0, False, 0)
        states, mat = _kernel_matrix_by_entry(kern, _Z_TWICE, ball)
        n = len(states)
        rho = kernel_spectral_radius(kern, _Z_TWICE, ball)
        # t = c / rho below carries rho's relative precision, which a
        # subnormal rho has not
        assume(rho == 0.0 or rho >= sys.float_info.min)
        # K is similar to the symmetric tridiagonal matrix with sqrt(w+ w-)
        # beside the diagonal, whose Perron root eigh finds to rounding
        side = math.sqrt(w_plus) * math.sqrt(w_minus) * (np.eye(n, k=1) + np.eye(n, k=-1))
        assert abs(rho - perron_root(np.diag(np.full(n, w0)) + side)) < 1e-13
        if w_plus == w_minus:
            assert abs(rho - perron_root(mat)) < 1e-13
        # each entry within 1e-12 of the exact solve (entries below 2^-1000
        # within 2^-1000) up to t rho = 0.999; a refusal below t rho = 1
        # only where z = (I - t K^T)^-1 1 leaves the floats, where the exact
        # answer is not a float either.  z grows with t, so it is largest at
        # t rho = 1 - 1e-6
        for c in (0.5, 0.9, 0.99, 0.999, 1 - 1e-6):
            t = c / rho if rho else c
            _assert_sweep_is_the_loop(kern, _Z_TWICE, h, t, ball)
            x, z_max = _exact_solve(kern, _Z_TWICE, t, ball, h)
            in_range = z_max < 2**1000
            try:
                got = {p: induced_green(kern, _Z_TWICE, _on_z(h), _on_z(p), t, ball)
                       for p in states}
            except NonConvergenceError:
                assert not in_range
                continue
            if c <= 0.999:
                for p in states:
                    assert abs(Fraction(got[p]) - x[p]) <= x[p] / 10**12 + Fraction(1, 2**1000)
        # the refusals are the dense path's, and within the floats the truth's
        unit = np.zeros(n)
        unit[states.index(h)] = 1.0
        for c in (1 - 1e-6, 1 + 1e-6, 1.5):
            t = c / rho if rho else c
            _assert_sweep_is_the_loop(kern, _Z_TWICE, h, t, ball)
            try:
                induced_green(kern, _Z_TWICE, _on_z(h), (), t, ball)
                refused = False
            except NonConvergenceError:
                refused = True
            assert refused == (m_matrix_solve(t * mat.T, unit) is None)
            if in_range:
                assert refused == (c > 1 and rho > 0)

    @given(
        w_minus=st.floats(0.0, 1.0),
        w0=st.floats(0.0, 1.0),
        ball=st.integers(0, 20),
        t=st.floats(0.0, allow_nan=False),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_one_sided_rows_refuse_or_stay_finite(self, w_minus, w0, ball, t, data):
        h = (data.draw(st.integers(-ball, ball)),)
        row = {q: w for q, w in (((-1,), w_minus), ((0,), w0)) if w}
        kern = ReturnKernel(0, 1.0, 0, row, math.fsum(row.values()), 0.0, False, 0)
        _assert_sweep_is_the_loop(kern, _Z_TWICE, h, t, ball)
        for p in _lattice_ball(1, ball):
            try:
                got = induced_green(kern, _Z_TWICE, _on_z(h), _on_z(p), t, ball)
            except NonConvergenceError:
                continue
            assert math.isfinite(got) and got >= 0.0


    @pytest.mark.parametrize("r, L, B", [(Fraction(1), 20, None), (1.0, 140, 11)])
    @pytest.mark.parametrize("at", [-40, -39, -1, 0, 1, 39, 40])
    def test_the_benchmark_rows_past_the_fixed_point_are_the_loop(self, f2_srw, f2, r, L, B, at):
        # over the 81 payloads of the 40-ball the pivots of these kernels
        # repeat bit for bit from about step 18 on, so the elimination stops
        # there; each row, up to the kernel radius, is still the loop's
        kern = first_return_kernel(f2_srw, 0, r, L, B, exact=isinstance(r, Fraction))
        rho = kernel_spectral_radius(kern, f2, 40)
        for t in (0.5, 1.0, 0.999 / rho, 1 / rho, 1.001 / rho):
            _assert_sweep_is_the_loop(kern, f2, (at,), t, 40)

    @pytest.mark.parametrize("w_minus, w0, w_plus, n", [
        (1.0, 0.0, 1e-3, 231), (1.0, 0.25, 1e-3, 231), (1.0, 0.0, 0.05, 401)])
    def test_the_refusal_boundary_is_the_loops(self, w_minus, w0, w_plus, n):
        # t bisected to the two adjacent floats where the loop starts to
        # refuse: z first overflows ahead of the pivots' fixed point (the
        # first two cases) or a pivot stops being positive (the last); the
        # sweep accepts the one with the loop's row and refuses the other
        rho = w0 + 2 * math.sqrt(w_minus * w_plus) * math.cos(math.pi / (n + 1))

        def args(t):
            return t * w_plus, parabolic._one_minus(t, w0), t * w_minus, n, n // 2

        lo, hi = 0.5 / rho, 1 / rho
        assert _sweep_by_loop(*args(lo)) is not None and _sweep_by_loop(*args(hi)) is None
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if _sweep_by_loop(*args(mid)) is None:
                hi = mid
            else:
                lo = mid
        assert parabolic._sweep(*args(lo)) == _sweep_by_loop(*args(lo))
        assert parabolic._sweep(*args(hi)) is None

    def test_an_overflowing_z_is_refused_by_both_paths(self):
        # z = (I - t K^T)^-1 1 passes the float range here, below the kernel
        # radius: the dense LU once returned a row with entries near 1.2e161
        row = {(-1,): 1.0, (0,): 1.19e-7, (1,): 1.49e-68}
        kern = ReturnKernel(0, 1.0, 0, row, math.fsum(row.values()), 0.0, False, 0)
        states, mat = _kernel_matrix_by_entry(kern, _Z_TWICE, 12)
        t = (1 - 1e-6) / kernel_spectral_radius(kern, _Z_TWICE, 12)
        assert _exact_solve(kern, _Z_TWICE, t, 12, (0,))[1] > sys.float_info.max
        unit = np.zeros(len(states))
        unit[states.index((0,))] = 1.0
        assert m_matrix_solve(t * mat.T, unit) is None
        with pytest.raises(NonConvergenceError):
            induced_green(kern, _Z_TWICE, (), (), t, 12)

    def test_an_endpoint_outside_the_ball_is_refused(self, f2_srw, f2):
        kern = first_return_kernel(f2_srw, 0, 1.0, 140, 11, exact=False)
        for h, hq in (((0, (41,)),), ()), ((), ((0, (-41,)),)):
            with pytest.raises(ValueError, match="outside the factor ball"):
                induced_green(kern, f2, h, hq, 1.0)


class TestDegeneracy:
    def test_f2_verdict(self, f2_srw, ev):
        report = degeneracy_test(f2_srw, ev.R_hat)
        assert report.verdict == "non-degenerate"
        assert report.r == ev.R_hat
        for v in report.factors:
            assert v.rho_hat < 0.95
            assert v.margin == 1.0 - v.rho_hat
            assert v.rho_hat == v.row_mass  # the row is symmetric
            assert abs(v.rho_hat / kernel_rho_at_radius("f2_srw", v.factor_id) - 1) < 1e-13

    def test_finite_factor_verdict(self, z2z3_srw):
        report = degeneracy_test(z2z3_srw, GreenEvaluator(z2z3_srw).R_hat)
        assert report.verdict == "non-degenerate"
        for v in report.factors:
            assert v.rho_hat == v.row_mass  # the row sums of a finite factor
            assert abs(v.rho_hat / kernel_rho_at_radius("z2z3", v.factor_id) - 1) < 1e-13

    def test_a_drift_takes_the_lattice_radius_below_the_row_mass(self):
        # f2_asym steps a with 3/10 and a^-1 with 1/10: on Z the kernel's
        # spectral radius is w0 + 2 sqrt(w+ w-), below its row mass.  Below
        # R the L-truncated row converges geometrically to the untruncated
        # one, and over the 61 payloads |j| <= 30 its tridiagonal Toeplitz
        # matrix has largest eigenvalue w0 + 2 sqrt(w+ w-) cos(pi/62)
        measure = _measure("f2_asym")
        assert measure.first_passage_system.radius > 1.0
        for v in degeneracy_test(measure, 1.0).factors:
            kern = first_return_kernel(measure, v.factor_id, 1.0, 400, exact=False)
            w0, wp, wm = kern.row[(0,)], kern.row[(1,)], kern.row[(-1,)]
            assert math.isclose(v.row_mass, w0 + wp + wm, rel_tol=1e-12)
            assert math.isclose(v.rho_hat, w0 + 2 * math.sqrt(wp * wm), rel_tol=1e-12)
            assert v.rho_hat < v.row_mass
            rho_ball = kernel_spectral_radius(kern, measure.group, factor_ball=30)
            want = w0 + 2 * math.sqrt(wp * wm) * math.cos(math.pi / 62)
            assert abs(rho_ball - want) < 1e-12

    @pytest.mark.parametrize("walk", ["f2_srw", "z2cubed_srw"])
    def test_exchangeable_factors_get_one_verdict(self, walk, request):
        # swapping two equal factors fixes the simple random walk and
        # permutes the terms of each kernel row, which add up the same
        measure = request.getfixturevalue(walk)
        report = degeneracy_test(measure, measure.first_passage_system.radius)
        first = report.factors[0]
        for k, v in enumerate(report.factors):
            assert v == replace(first, factor_id=k)

    @pytest.mark.parametrize("name", ["z2sq_z2", "f2_two_letter"])
    def test_outside_the_system_is_refused(self, name):
        measure = _measure(name)
        assert measure.first_passage_system is None
        with pytest.raises(GroupSpecError, match="first-passage system"):
            degeneracy_test(measure, 1.0)

    @pytest.mark.parametrize("walk", ["f2_srw", "z2z3_srw"])
    def test_json_is_compact_and_the_former_payload(self, walk, request):
        # the compact string parses to the payload of the former indented
        # one, key for key and in order
        measure = request.getfixturevalue(walk)
        report = degeneracy_test(measure, measure.first_passage_system.radius)
        former = json.dumps({"r": report.r, "verdict": report.verdict,
                             "factors": [asdict(v) for v in report.factors]}, indent=2)
        assert "\n" not in report.to_json()
        assert json.dumps(json.loads(report.to_json())) == json.dumps(json.loads(former))

    def test_past_the_radius_is_refused(self, f2_srw):
        # anywhere in R's bar (lo, hi) the verdict reads x(R); one float
        # past the bar it is refused
        lo, hi = f2_srw.first_passage_system.bracket
        for r in (lo, hi):
            assert degeneracy_test(f2_srw, r).verdict == "non-degenerate"
        with pytest.raises(DivergenceError, match="past the radius"):
            degeneracy_test(f2_srw, math.nextafter(hi, 2.0))

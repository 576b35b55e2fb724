"""The first-passage system of a single-syllable measure, solved as algebra.

In a free product every factor element is a cut vertex between its own
factor and the rest of the Cayley graph (Woess 2000, on free products).
So for a measure supported on the factors (with e allowed) the
first-passage functions F_s(r) = F(e, s | r) close under one first step:

    F_s = r mu(s) + r mu(e) F_s + r sum_{t in H(s), t != e, s} mu(t) F_{t^-1 s}
          + r sum_{t not in H(s)} mu(t) F_{t^-1} F_s.

There is one unknown per nontrivial element of each finite factor and one
per direction of each rank-1 lattice factor that steps by +-1, where
F_{a^k} = F_a^k.  The return function is
U(r) = r mu(e) + r sum_t mu(t) F_{t^-1}, and G(e,e|r) = 1 / (1 - U).

The system is polynomial with non-negative coefficients, so Newton's
method from below the least solution increases monotonically to it
wherever it exists (Etessami and Yannakakis, J. ACM 2009).  The radius R
is the largest r at which it exists with I - J a non-singular M-matrix
(Perron root of the Jacobian J below 1) and U below 1; for an admissible
walk it is a square-root branch point (Lalley 1993).  Every point value
at r (G, the first passages, ``factor_weights``, and G' and G'' from two
solves with I - J in ``green_jet``) reads the one least solution there.
The coefficients, for the return sequence and the kernels, come from the
same equations read coefficientwise, in the variable r/R:
c_n R^n decays like n^(-3/2) where c_n itself underflows.  Each [r^n]
takes only the ones below it, and the quadratic terms pair an early
coefficient with a late one, so a block of B coefficients is linear in
its own unknowns once the ones before the block are known (a relaxed
recurrence): the first block is stepped one coefficient at a time, and
every later block is one correlation per unknown and one product with a
lower-triangular matrix built once from the first block.  The weights are
integers over the measure's common denominator d, so the same equations
read in Python integers give the exact coefficients d^n [r^n] F_s, which
the first-return kernels of ``parabolic`` take for rational r.

The coefficients run on the quotient by the coarsest equitable partition
of the unknowns (``_quotient``), one unknown per cell.  The first block
and the in-block matrices are built in long double and rounded once: their
rounding enters every later block.  Point values stay on the whole system,
whose rounding keeps the I-sums closer to their closed forms.
"""

import math
import sys
from fractions import Fraction

import numpy as np

from .errors import DivergenceError, NonConvergenceError

# the one refusal of a measure outside the system (``StepMeasure.route``)
SCOPE = ("this value needs the first-passage system: one-syllable steps on "
         "finite and rank-1 lattice factors, lattice steps +-1")
# Newton steps allowed for one solve; even at R(1 - 1e-16) the linear
# phase halves the error per step
NEWTON_STEPS = 200
FOLD_STEPS, FOLD_CHECK = 20, 2.0**-20  # fold Newton steps; its checks' distance from R
EPS = sys.float_info.epsilon
# coefficients per block of the relaxed recurrence (``_extend``)
B = 64


class FirstPassageSystem:
    """F_s(r) for every unknown s, and G(e,e|r), of one measure.

    ``unknowns`` lists the (factor id, payload) of each unknown.  The right
    side of the system is Phi(r, x) = r (c + A x + x * (C x)): the only
    products are F_s times a first passage back to e (C[s, j] sums mu(t)
    over the steps t out of H(s) with t^-1 the unknown j) and, on a
    lattice factor, F_s^2 = F_{s^2} (C[s, s] is the weight of the opposite
    step).  U(r, x) = r (mu(e) + b.x).  The weights of c, A, C, mu(e)
    and b are integers over the measure's common denominator d, and the
    float arrays are those integers divided by d.  ``radius`` is R, found
    with x(R) on the fold system (``_fold``, else ``_bisect``), and
    ``bracket`` its bar (lo, hi).  Coefficients are kept scaled by R^n,
    and exactly as integers over d^n, one row per cell of the quotient
    (``cell_of`` maps each unknown to its cell), each extended on demand, so
    every caller shares one computation to the largest horizon asked for.
    """

    def __init__(self, group, unknowns, denominator, const, lin, cross, lazy, back):
        self.group = group
        self.unknowns = unknowns
        self._d, self._lazy, self._lazyi = denominator, lazy / denominator, lazy
        self._c, self._a, self._cross, self._back = (
            (x / denominator).astype(float) for x in (const, lin, cross, back)
        )
        self._cell, self._ci, self._ai, self._crossi, self._backi = _quotient(
            const, lin, cross, back)
        self.cell_of = dict(zip(unknowns, self._cell.tolist()))
        self.bracket = None  # no bar on R yet: every r is solved by Newton
        self._solutions = {}  # r -> least solution, each from 0
        self.radius, self.bracket, self._at_radius = self._fold() or self._bisect()
        m = len(self._ci)
        self._y = np.zeros((m, 1))  # scaled [r^n] F_s of each cell; F_s(0) = 0
        self._w = np.zeros((m, 1))  # the same of R C F
        self._u = np.zeros(1)  # scaled [r^n] U
        self._g = np.ones(1)  # scaled [r^n] G(e,e)
        self._nums = [np.zeros(m, object)]  # d^n [r^n] F_s, as Python ints
        self._crossed = [np.zeros(m, object)]  # the same of d C F

    # -- the radius ----------------------------------------------------------

    def _phi(self, r, x):
        """Phi(r, x) and its Jacobian in x."""
        cx = self._cross @ x
        phi = r * (self._c + self._a @ x + x * cx)
        jac = r * (self._a + np.diag(cx) + x[:, None] * self._cross)
        return phi, jac

    def _u_of(self, r, x):
        """U(r, x); G(e,e|r) = 1 / (1 - U) at the least solution."""
        return r * (self._lazy + self._back @ x)

    def least_solution(self, r):
        """The least solution of x = Phi(r, x), or None past the radius.

        Inside R's bar ``bracket`` it is x(R), found with R.  Below it,
        Newton from 0 (``_newton``), solved once per r and kept read-only:
        every caller at r shares one solve, whatever the order of calls.
        """
        if self.bracket is not None and r >= self.bracket[0]:
            x = self._at_radius if r <= self.bracket[1] else None
        else:
            if r not in self._solutions:
                self._solutions[r] = self._newton(r, np.zeros(len(self.unknowns)))
            x = self._solutions[r]
        if x is not None:
            x.flags.writeable = False
        return x

    def _newton(self, r, x):
        """Newton from ``x``, below the least solution, until the residual
        Phi(x) - x and the step are at rounding level; None past R, where
        the iterates leave the non-singular M-matrices (``m_matrix_solve``).
        Near R, where the convergence is linear and the step carries
        rounding noise amplified by 1/(1 - rho(J)), a residual that stops
        falling at a small floor counts as converged.
        """
        best, stalled = math.inf, 0
        for _ in range(NEWTON_STEPS):
            phi, jac = self._phi(r, x)
            if not np.all(np.isfinite(phi)) or self._u_of(r, x) >= 1.0:
                return None  # past the pole of G = 1/(1 - U)
            residual = phi - x
            step = m_matrix_solve(jac, residual)
            if step is None:
                return None
            size, scale = float(np.max(np.abs(residual))), float(np.max(phi))
            if max(size, float(np.max(np.abs(step)))) <= 8 * EPS * scale:
                return x
            if size < best:
                best, stalled = size, 0
            else:
                stalled += 1
                if stalled >= 3 and size <= 1e-9 * scale:
                    return x  # the rounding floor
            x = x + step
        return None

    def _solved(self, r):
        """The least solution at r; past R's bar, DivergenceError."""
        x = self.least_solution(r)
        if x is None:
            raise DivergenceError(f"r = {r!r} lies past the radius R = {self.radius!r}")
        return x

    def green_jet(self, r, order=2):
        """[G, G', G''][: order + 1] of G(e,e|r) = 1 / (1 - U), as floats.

        x = Phi(r, x) differentiated in r gives two solves with the one
        matrix I - J: (I - J) x' = c + A x + x * (C x), which is x / r, and
        (I - J) x'' = 2 (A x' + x' * (C x) + x * (C x') + r x' * (C x')).
        Then U' = mu(e) + b.x + r b.x', U'' = 2 b.x' + r b.x'', G' = U' G^2
        and G'' = (U'' + 2 U'^2 G) G^2.  The derivatives are refused
        (NonConvergenceError) where a solve fails and inside R's bar, whose
        least solution is the fold x(R), where I - J is singular.
        """
        x = self._solved(r)
        g = float(1.0 / (1.0 - self._u_of(r, x)))
        if order == 0:
            return [g]
        jac, cx, d1, d2 = self._phi(r, x)[1], self._cross @ x, None, None
        if r < self.bracket[0]:
            d1 = m_matrix_solve(jac, self._c + self._a @ x + x * cx)
        if d1 is not None:
            cd = self._cross @ d1
            d2 = m_matrix_solve(jac, 2.0 * (self._a @ d1 + d1 * cx + x * cd + r * d1 * cd))
        if d2 is None:
            raise NonConvergenceError(
                f"the r-derivatives of the first passages diverge at r = {r:.10g}: "
                f"I - J is not a non-singular M-matrix there",
                diagnostics={"r": float(r)},
            )
        du = self._lazy + self._back @ x + r * (self._back @ d1)
        ddu = 2.0 * (self._back @ d1) + r * (self._back @ d2)
        return [g, float(du * g * g), float((ddu + 2.0 * du * du * g) * g * g)][: order + 1]

    def _fold(self):
        """(R, (lo, hi), x(R)) by Newton on the fold system, or None.

        At R the least solution is a simple fold (Lalley 1993), so the system
        x = Phi(r, x), (I - J) v = 0, sum(v) = 1 in (x, v, r) is regular and
        Newton converges quadratically (Moore and Spence 1980): from r = 1
        and the z = (I - J)^-1 1 of the M-matrix test, along J's Perron
        vector, to the least residual.  None unless Newton from 0 solves
        below x(R) at R(1 - 2^-20) and fails at R(1 + 2^-20), with G(R)
        below 2^20: an inadmissible measure, or U = 1 at R (Z2 * Z2).
        """
        m, r, x = len(self.unknowns), 1.0, self.least_solution(1.0)
        if x is None:
            return None
        v = m_matrix_solve(self._phi(r, x)[1], np.ones(m))  # least_solution passed this test
        v, eye, ones, best = v / v.sum(), np.eye(m), np.ones((1, m)), (math.inf, r, x, 0.0)
        for _ in range(FOLD_STEPS):
            phi, jac = self._phi(r, x)
            residual = np.concatenate([x - phi, v - jac @ v, [1 - v.sum()]])
            size, tol = float(np.max(np.abs(residual))), 8 * EPS * max(1.0, np.max(x))
            if best[0] <= tol and not size < best[0]:
                break  # converged, and the residual no longer falls
            dfold = r * (v[:, None] * self._cross + np.diag(self._cross @ v))  # d(Jv)/dx
            outer = np.block([[jac - eye, 0 * jac, phi[:, None] / r],
                              [dfold, jac - eye, (jac @ v)[:, None] / r],
                              [0 * ones, ones, np.zeros((1, 1))]])
            try:
                step = np.linalg.solve(outer, residual)
            except np.linalg.LinAlgError:
                return None
            if size < best[0]:  # the bar: 2 ulps, or the r-step if larger
                best = (size, r, x, max(2 * math.ulp(r), abs(float(step[-1]))))
            x, v, r = x + step[:m], v + step[m : 2 * m], float(r + step[-1])
        size, r, x, pad = best
        below = self.least_solution(r * (1 - FOLD_CHECK)) if size <= tol else None
        ok = (below is not None and np.all(below <= x)
              and self.least_solution(r * (1 + FOLD_CHECK)) is None
              and self._u_of(r, x) < 1 - FOLD_CHECK)
        return (r, (r - pad, r + pad), x) if ok else None

    def _bisect(self):
        """(lo, (lo, hi), x) where ``_fold`` fails: the largest float r with
        a least solution, the next float, and the least solution at lo, by
        bisection on (0, 2^20), each Newton run from the last solution,
        which lies below the next.  (inf, None, None) if the walk never returns.
        """
        lo, x_lo, hi = 0.0, np.zeros(len(self.unknowns)), 2.0**20
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            x = self._newton(mid, x_lo)
            if x is None:
                hi = mid
            else:
                lo, x_lo = mid, x
        return (lo, (lo, hi), x_lo) if hi < 2.0**20 else (math.inf, None, None)

    # -- coefficients ----------------------------------------------------------

    def _extend(self, n):
        """Scaled coefficients c_k R^k of every F_s, U and G(e,e), k <= n.

        [r^k] Phi takes the unknowns' coefficients below k only, because
        every term of Phi carries a factor r and F_s(0) = 0: the product
        x * (C x) is one row-wise sum over the splits j + (k-1-j), and G
        follows U by the renewal g_k = sum_j u_j g_{k-j}.  The first block
        (k < B) is stepped one coefficient at a time.  Each later block
        [K, K+B) is linear in its own unknowns once the splits with both
        indices below K are summed (one ``np.correlate`` per unknown):
        Y_d = known_d + sum_{e<d} L_{d-1-e} Y_e, with L_0 = A and
        L_d = diag(w_d) + diag(y_d) C read from the first block, so one
        lower-triangular matrix, the inverse of I - T, solves every block.
        G follows by the same blocked renewal; its in-block inverse is the
        Toeplitz matrix of the coefficients of 1 / (1 - sum_{d<B} u_d r^d),
        which are g_0..g_{B-1}.  ``_first_block`` builds both matrices, once
        per system.  Blocks always end at a multiple of B, so the
        coefficients do not depend on how the horizon was reached.
        """
        if len(self._g) == 1:
            self._first_block()
        have = len(self._g)  # a multiple of B
        if n < have:
            return
        m, top = len(self._y), (n // B + 1) * B
        a, cross, back = self._weights
        y, w = np.zeros((m, top)), np.zeros((m, top))
        u, g = np.zeros(top), np.zeros(top)
        y[:, :have], w[:, :have] = self._y, self._w
        u[:have], g[:have] = self._u, self._g
        for k in range(have, top, B):
            # known[d, s] = sum_{j<k, k+d-1-j<k} y_j w_{k+d-1-j}; w is 0 from k
            known = np.empty((B, m))
            for s in range(m):
                known[:, s] = np.correlate(w[s, : k + B - 1], y[s, k - 1 :: -1])
            known[0] += a @ y[:, k - 1]
            y[:, k : k + B] = (self._solve @ known.ravel()).reshape(B, m).T
            w[:, k : k + B] = cross @ y[:, k : k + B]
        # u_k = back . y_{k-1}, summed row by row so that each u_k has one
        # rounding whatever the range it was computed in
        u[have:] = sum(b * row for b, row in zip(back, y[:, have - 1 : -1]))
        for k in range(have, top, B):
            g[k : k + B] = self._renewal @ np.correlate(u[1 : k + B], g[k - 1 :: -1])
        self._y, self._w, self._u, self._g = y, w, u, g

    def _first_block(self):
        """Coefficients 1..B-1, each from the ones below it, in the integer
        weights: d^k [r^k] of F_s, U and G, exact below 2^64 and free of R,
        then scaled by (R/d)^k.  Where d^(B-1) overflows, in the scaled weights.
        Then the two lower-triangular matrices that solve every later block,
        built once per system.  All in long double, each rounded to float once.
        """
        ld, m, n = np.longdouble, len(self._ci), B - 1
        d, R = ld(self._d), ld(self.radius)
        z = d if self._d**n < 2**1000 else R
        c, a, cross, back, lazy = (np.array(v, ld) * (z / d) for v in (
            self._ci, self._ai, self._crossi, self._backi, self._lazyi))
        y, w = np.zeros((m, n + 1), ld), np.zeros((m, n + 1), ld)
        u, g = np.zeros(n + 1, ld), np.zeros(n + 1, ld)
        g[0] = 1.0
        wr, gr = w[:, ::-1].copy(), g[::-1].copy()  # wr[:, n - k] = w[:, k]
        for k in range(1, n + 1):
            prev = y[:, k - 1]
            yk = a @ prev
            uk = back @ prev
            if k == 1:
                yk += c
                uk += lazy
            elif k >= 3:
                yk += np.einsum("ij,ij->i", y[:, 1 : k - 1], wr[:, n - k + 2 : n])
            y[:, k] = yk
            w[:, k] = wr[:, n - k] = cross @ yk
            u[k] = uk
            g[k] = gr[n - k] = u[1 : k + 1] @ gr[n - k + 1 :]
        self._powers = z ** np.arange(B)
        self._block_green = g  # p_n times z^n
        y, u, g = (v * (R ** np.arange(B) / self._powers) for v in (y, u, g))
        a, cross, back = (v * (R / z) for v in (a, cross, back))  # R times the weights
        w = cross @ y
        self._y, self._w, self._u, self._g = (v.astype(float) for v in (y, w, u, g))
        self._weights = tuple(v.astype(float) for v in (a, cross, back))
        # the in-block inverses of every later block (``_extend``)
        self._solve = _lower_toeplitz(_block_inverse(a, cross, y, w)).astype(float)
        self._renewal = _lower_toeplitz(g[:, None, None]).astype(float)

    def scaled_green(self, horizon):
        """[r^n] G(e,e|r) R^n for n = 0..horizon."""
        self._extend(horizon)
        return self._g[: horizon + 1]

    def integer_coefficients(self, n):
        """N_0..N_n, with [r^m] F_s = N_m[i] / d^m for each unknown s of cell i.

        The quotient read coefficientwise over its integer weights:
        N_1 = c and N_m = A N_{m-1} + sum_{j=1}^{m-2} N_j * (C N_{m-1-j}),
        in Python integers, so the coefficients are exact.
        """
        nums, crossed = self._nums, self._crossed
        while len(nums) <= n:
            k = len(nums)
            top = self._ci if k == 1 else self._ai @ nums[-1] + sum(
                (nums[j] * crossed[k - 1 - j] for j in range(1, k - 1)), nums[0]
            )
            nums.append(top)
            crossed.append(self._crossi @ top)
        return nums[: n + 1]

    def passage_tops(self, x, n):
        """(tops, q) with sum_{m=1}^{n} [r^m] F_s x^m = tops[i] / q^n for
        each unknown s of cell i (``cell_of``), for a Fraction x = p/q'.

        With q = q' d, each cell's top sum_m N_m p^m q^(n-m) is taken by
        Horner over its column of the rows N_1..N_n of
        ``integer_coefficients``, in Python ints.
        """
        p, q, m = x.numerator, x.denominator * self._d, len(self._ci)
        flat = [c for row in self.integer_coefficients(n)[1:] for c in row.tolist()]
        tops = []
        for cell in range(m):
            top, power = 0, 1
            for c in flat[cell::m]:  # N_1..N_n of the cell
                power *= p
                top = top * q + c * power
            tops.append(top)
        return tops, q

    def first_passage_sums(self, x, n):
        """{s: sum_{m=1}^{n} [r^m] F_s x^m} over the unknowns s.

        A Fraction x gives Fractions, one per cell of the quotient, each
        its ``passage_tops`` top over q^n.  A float x gives floats, each
        the sum of the scaled coefficients of its cell times (x/R)^m in
        long double, rounded once.
        """
        if isinstance(x, Fraction):
            tops, q = self.passage_tops(x, n)
            cells = [Fraction(top, q**n) for top in tops]
            return {s: cells[c] for s, c in self.cell_of.items()}
        self._extend(n)
        # the ufunc itself: np.cumprod's Python dispatch costs more than the products
        powers = np.multiply.accumulate(np.full(n, np.longdouble(x) / self.radius))
        sums = (self._y[:, 1 : n + 1] @ powers)[self._cell].astype(float).tolist()
        return dict(zip(self.unknowns, sums))

    def unscaled_logs(self, scaled):
        """log c_n from the scaled c_n R^n (minus infinity where zero)."""
        with np.errstate(divide="ignore"):
            return np.log(scaled) - np.arange(len(scaled)) * math.log(self.radius)

    def return_probs(self, horizon):
        """p_n(e,e) for n = 0..horizon, each rounded to float once: below B
        d^n p_n / d^n, from B on c_n R^n times R^-n in long double, where
        R^-(jB + i) = R^-(jB) R^-i takes about horizon/B + B powers."""
        self._extend(horizon)
        R = np.longdouble(self.radius)
        p = self._g * np.outer(R ** -np.arange(0, len(self._g), B), R ** -np.arange(B)).ravel()
        p[:B] = self._block_green / self._powers
        return p[: horizon + 1].astype(float)

    def return_log_probs(self, horizon):
        """log p_n(e,e) for n = 0..horizon; below B from d^n p_n, free of R."""
        logs = self.unscaled_logs(self.scaled_green(horizon))
        with np.errstate(divide="ignore"):
            logs[:B] = np.log(self._block_green / self._powers)[: horizon + 1]
        return logs


def _block_inverse(a, cross, y, w):
    """M_0..M_{B-1}, the blocks of (I - T)^-1 for the in-block operator T.

    M_0 = I and M_d = sum_{e=1..d} L_{e-1} M_{d-e}, with L_0 = A and
    L_d = diag(w_d) + diag(y_d) C from the first block's coefficients.
    """
    m = len(a)
    lin = np.empty((B - 1, m, m), a.dtype)
    lin[0] = a
    ys, ws = y[:, 1 : B - 1].T[:, :, None], w[:, 1 : B - 1].T[:, :, None]
    lin[1:] = ys * cross + ws * np.eye(m)
    inv = np.empty((B, m, m), a.dtype)
    inv[0] = np.eye(m)
    for d in range(1, B):
        inv[d] = np.tensordot(lin[:d], inv[d - 1 :: -1], axes=([0, 2], [0, 1]))
    return inv


def _lower_toeplitz(blocks):
    """The (mB x mB) lower-triangular matrix whose (m x m) block (d, e) is
    ``blocks[d - e]``, for vectors ordered block offset first."""
    lag = np.subtract.outer(np.arange(B), np.arange(B))  # d - e
    full = np.where((lag >= 0)[:, :, None, None], blocks[np.maximum(lag, 0)], 0.0)
    m = blocks.shape[1]
    return full.transpose(0, 2, 1, 3).reshape(B * m, B * m)


def _quotient(const, lin, cross, back):
    """(cell, c, A, C, b) of the quotient by the coarsest equitable
    partition of the unknowns, by colour refinement from (c_s, b_s) (McKay
    1981; Godsil and Royle 2001, ch. 9): c and b are constant on each cell,
    and the rows of A and C in a cell have equal sums into each cell, so
    every coefficient is constant on the cells.  A cell keeps its first
    unknown's rows, with columns summed over each cell, and b is summed."""
    keys, count = list(zip(const.tolist(), back.tolist())), 0
    while True:
        ids = {}
        cell = np.array([ids.setdefault(key, len(ids)) for key in keys])
        if len(ids) == count:
            break
        count = len(ids)
        onehot = (cell[:, None] == np.arange(count)).astype(int).astype(object)
        lumped = lin @ onehot, cross @ onehot
        keys = [(i, *a, *c) for i, a, c in zip(cell.tolist(), *(x.tolist() for x in lumped))]
    first = np.unique(cell, return_index=True)[1]
    return cell, const[first], lumped[0][first], lumped[1][first], back @ onehot


def perron_root(a):
    """The Perron root of a non-negative square matrix: its spectral radius.

    An exactly symmetric matrix has it as its largest eigenvalue.  The
    Rayleigh quotient of that eigenvector (``np.linalg.eigh``), taken in
    extended precision (``np.longdouble``), rounds to the nearest float of
    the root wherever the top eigenvalue is well separated.
    """
    if np.array_equal(a, a.T):
        v = np.linalg.eigh(a)[1][:, -1].astype(np.longdouble)
        return float(v @ (a @ v) / (v @ v))
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def m_matrix_solve(a, b):
    """(I - a)^-1 b for a non-negative matrix ``a``, or None unless I - a is
    a non-singular M-matrix.

    The same factorisation solves (I - a) z = 1, and z > 0 exactly when the
    Perron root of ``a`` is below 1 (Collatz-Wielandt: a z = z - 1 < z);
    then (I - a)^-1 is the convergent Neumann series sum_k a^k.  A z that
    is not finite and positive (NaN, or past the float range) refuses, as
    the rows it bounds are not floats either.
    """
    lhs = 0.0 - a
    lhs.flat[:: len(a) + 1] += 1.0  # 1 - a_ii, bit for bit
    rhs = np.ones((len(a), 2))
    rhs[:, 0] = b
    try:
        sol, z = np.linalg.solve(lhs, rhs).T
    except np.linalg.LinAlgError:  # I - a is singular
        return None
    return sol if np.all((z > 0.0) & (z < np.inf)) else None


def monomial(group, fid, payload):
    """(unknown, power) with F_{(fid, payload)} = F_unknown ** power."""
    if group.factors[fid].kind == "lattice":
        k = payload[0]
        return (fid, (1 if k > 0 else -1,)), abs(k)
    return (fid, payload), 1


def in_scope(measure):
    """Whether the system's scope covers the support of ``measure``: every
    step is e or one syllable, and every factor is finite or a rank-1
    lattice whose steps are +-1."""
    if any(len(g) > 1 for g, _ in measure.support):
        return False
    for fid, factor in enumerate(measure.group.factors):
        if factor.kind == "lattice":
            steps = {g[0][1] for g, _ in measure.support if g and g[0][0] == fid}
            if factor.rank != 1 or not steps <= {(1,), (-1,)}:
                return False
    return True


def first_passage_system(measure):
    """The system of ``measure``, or None outside its scope.

    In scope: ``in_scope`` holds, and the walk can return to e.
    """
    group = measure.group
    if not in_scope(measure):
        return None
    unknowns = []
    for fid, factor in enumerate(group.factors):
        if factor.kind == "lattice":
            unknowns += [(fid, (1,)), (fid, (-1,))]
        else:
            unknowns += [(fid, p) for p in factor.nontrivial_elements()]
    index = {u: i for i, u in enumerate(unknowns)}
    m, d = len(unknowns), measure.common_denominator()
    const, back = np.zeros(m, object), np.zeros(m, object)
    lin, cross = np.zeros((m, m), object), np.zeros((m, m), object)
    lazy = 0
    for g, w in measure.support:
        w = int(w * d)
        if not g:
            lazy = w
            lin[np.diag_indices(m)] += w
            continue
        (tf, tp), = g
        factor = group.factors[tf]
        home = index[monomial(group, tf, factor.inv(tp))[0]]  # F_{t^-1}
        back[home] += w
        for s, (sf, sp) in enumerate(unknowns):
            if sf != tf:
                cross[s, home] += w  # out of H(s), back through e, then to s
                continue
            rest = factor.mul(factor.inv(tp), sp)  # t^-1 s
            if factor.is_identity(rest):
                const[s] += w
                continue
            u, power = monomial(group, sf, rest)
            if power == 1:
                lin[s, index[u]] += w
            else:  # s^2 on a lattice factor: u is s itself
                cross[s, s] += w
    system = FirstPassageSystem(group, unknowns, d, const, lin, cross, lazy, back)
    return system if system.bracket is not None else None


def point_passages(measure, r):
    """{unknown: F_u(r)} from the least solution of ``measure``'s system,
    x(R) inside R's bar.  Refuses a measure outside the system
    (``StepMeasure.route``) and an r past the bar (DivergenceError)."""
    system = measure.route
    return dict(zip(system.unknowns, system._solved(float(r)).tolist()))


def factor_weights(group, passages):
    """t[k] = sum of F(e,s) F(s,e) over every syllable s of factor k, the
    weights of ``automaton.factor_matrix``, untruncated, from ``passages``
    ({unknown: F_u}, as ``point_passages`` gives them): F_u F_{u^-1} over
    a finite factor's unknowns, and on a rank-1 lattice factor, where
    F_{a^k} = F_a^k, the geometric series 2y / (1 - y) with y = F_+ F_-.
    """
    t = []
    for k, factor in enumerate(group.factors):
        if factor.kind == "lattice":
            y = passages[k, (1,)] * passages[k, (-1,)]
            t.append(2.0 * y / (1.0 - y))
        else:
            t.append(math.fsum(
                passages[k, p] * passages[k, factor.inv(p)]
                for p in factor.nontrivial_elements()
            ))
    return np.array(t)

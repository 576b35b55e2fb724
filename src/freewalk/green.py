"""Green functions G(x,y|r), the spectral radius, and I-sums.

Every value is read off the least solution at r of the first-passage
system of ``algebraic`` (single-syllable steps on finite and rank-1
lattice factors): G(e,e|r) = 1 / (1 - U), each unknown's first passage
x_u, and the r-derivatives of G from its jet
(``FirstPassageSystem.green_jet``).  R is the system's branch point,
always with its bar (``radius_estimate``), and no value carries a tail.
A measure outside the system is refused when its evaluator is built.
Every syllable prefix is a cut vertex of a free product's Cayley graph,
so G(e,gamma) = G(e,e) F(e,gamma), F(e,gamma) is the product of its
syllables' first passages, and F(e,a^k) = F(e,a)^k on a lattice factor
stepping by +-1.  The evaluator keeps one array per r of
syllable weights F(e,u)^k, by syllable id, and multiplies them left to
right, a batch of words (rows of ids) in one array pass
(``green_batch``).  The two routes to I1 (relative spheres and
d/dr (r G)) are compared on every I-sum, and a disagreement is an error.
"""

import itertools
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DivergenceError, NonConvergenceError
from .algebraic import factor_weights, m_matrix_solve, monomial, point_passages
from .automaton import factor_matrix

# largest relative gap allowed between the relative-sphere I1 and d/dr (r G),
# which equals I1 by the derivative identity: both read the least solution
I1_TOL = 1e-10
# return coefficients over which ``radius_estimate`` takes sup p_2n^(1/2n)
RHO_LOWER_HORIZON = 4000


# ---------------------------------------------------------------------------
# sphere sizes from the growth series

def sphere_sizes(group, n_max):
    """|S_m| for m = 0..n_max, from the growth series of the free product.

    Each factor's growth series S_i is a ratio A_i/B_i of integer
    polynomials: its length counts over 1 for a finite factor, and
    ((1+z)/(1-z))^d for Z^d.  The free product's series satisfies
    1/S = sum_i 1/S_i - (N-1) (Woess 2000, on free products).  Summed as
    one fraction p/q, that is 1 at z = 0, so S = q/p gives the sizes by an
    integer linear recurrence.  No Green engine reads it: it turns the
    radial distance chain's sphere masses into p_n(e, gamma), the
    reference the tests hold the first-passage system to.
    """
    p = np.array([1 - len(group.factors)], dtype=object)
    q = np.array([1], dtype=object)
    for factor in group.factors:
        if factor.kind == "lattice":
            a = np.array([math.comb(factor.rank, i) for i in range(factor.rank + 1)])
            b = a * (-1) ** np.arange(factor.rank + 1)
        else:
            a, b = np.bincount(factor.lengths), np.array([1])
        qb = np.convolve(q, b)
        p, q = np.convolve(p, a), np.convolve(q, a)
        p[: len(qb)] += qb  # p/q + b/a, and deg(q b) <= deg(p a)
    p, q, sizes = p.tolist(), q.tolist(), []
    for n in range(n_max + 1):
        s = q[n] if n < len(q) else 0
        for k in range(1, min(n, len(p) - 1) + 1):
            s -= p[k] * sizes[n - k]
        sizes.append(s)
    return sizes


def accumulate(op, start, columns):
    """``start`` op each row of ``columns``, applied left to right by a
    ufunc's accumulate: the rounding of a loop over the columns."""
    first = np.full((len(columns), 1), start)
    return op.accumulate(np.hstack([first, columns]), axis=1)[:, -1]


@dataclass(frozen=True)
class GreenValue:
    value: float
    tail: float  # 0.0: a point value of the least solution; green.csv's column
    method: str


_PADDING = np.ones(1)  # syllable_weights of id 0


# ---------------------------------------------------------------------------
# spectral radius

@dataclass
class SpectralRadiusEstimate:
    rho_lower: float  # rigorous: sup_n p_{2n}^{1/2n}
    rho_hat: float  # 1/R
    R_hat: float
    rho_bracket: tuple  # (rho_lo, rho_hi) from R's bar

    def uncertainty(self):
        """Width of the bar on rho_hat."""
        return self.rho_bracket[1] - self.rho_bracket[0]


def _rho_lower(logs):
    """sup_n p_{2n}^{1/2n} over the even n >= 2 where p_n > 0, from the
    log p_n of ``logs``: a rigorous lower bound on rho, as p_{2n}(e,e) is
    supermultiplicative.  log p_n / n is formed in numpy, and ``math.exp``
    is taken only where it lies within 8 eps of the largest: exp errs by
    at most an ulp and is monotone, so no value below that window can
    round to the largest exp (over the normal floats, where rho is).
    """
    n = np.arange(2, len(logs), 2)
    even = logs[2::2]
    positive = even > -math.inf
    rates = even[positive] / n[positive]
    near = rates[rates >= rates.max() - 8 * sys.float_info.epsilon]
    return max(math.exp(v) for v in near.tolist())


# ---------------------------------------------------------------------------
# I-sums

@dataclass
class ISums:
    r: float
    i1: float
    i1_derivative: float  # d/dr (r G(e,e|r)), checked against i1
    i2: float
    i2_method: str


# ---------------------------------------------------------------------------
# the evaluator facade

class GreenEvaluator:
    """Green functions of one measure, read off its first-passage system.

    The measure's ``route`` is taken at once, so a measure outside the
    system is refused (``algebraic.SCOPE``) before any work.
    """

    # every measure on the route steps by single syllables; the benchmark's
    # tracer reads this when it mirrors the value cache
    single_syllable_support = True

    def __init__(self, measure):
        self.measure = measure
        self.group = measure.group
        self.system = measure.route
        self._val_cache = {}
        self._syllable_index = {}  # syllable -> id >= 1; id 0 pads a word
        self._syllable_tables = {}  # r -> syllable_weights(r)

    @cached_property
    def radius_estimate(self):
        """R, its bracket, and sup p_2n^(1/2n) over the system's first
        ``RHO_LOWER_HORIZON`` return coefficients, built on first read."""
        (lo, hi), R = self.system.bracket, self.system.radius
        return SpectralRadiusEstimate(
            rho_lower=_rho_lower(self.system.return_log_probs(RHO_LOWER_HORIZON)),
            rho_hat=1.0 / R, R_hat=R, rho_bracket=(1.0 / hi, 1.0 / lo),
        )

    @property
    def R_hat(self):
        return self.system.radius

    def _check_r(self, r):
        # the top of R's bar, as in ``point_passages``
        if r > self.system.bracket[1]:
            raise DivergenceError(f"r = {r!r} lies past the radius R = {self.R_hat!r}")

    # -- Green function and first passage -----------------------------------

    def green(self, x, y, r):
        """G(x,y|r): 1 / (1 - U) at the least solution for x = y, else
        G(e,e|r) times gamma's syllable weights."""
        self._check_r(r)
        gamma = self.group.multiply(self.group.invert(x), y) if x else tuple(y)
        key = ("G", gamma, r)
        cached = self._val_cache.get(key)
        if cached is not None:
            return cached
        if gamma:
            out = self._factored(self.green((), (), r).value, gamma, r)
        else:
            out = GreenValue(self.system.green_jet(r, 0)[0], 0.0, "point/newton")
        self._val_cache[key] = out
        return out

    def first_passage(self, x, y, r):
        """F(x,y|r); satisfies G(x,y|r)=F(x,y|r)G(e,e|r).  The product of
        gamma's syllable weights, unless gamma is its own base (``_base``):
        then x_u at the least solution."""
        self._check_r(r)
        gamma = self.group.multiply(self.group.invert(x), y) if x else tuple(y)
        key = ("F", gamma, r)
        cached = self._val_cache.get(key)
        if cached is not None:
            return cached
        if not gamma or self._base(gamma[0]) != (gamma, 1):
            out = self._factored(1.0, gamma, r)
        else:
            out = GreenValue(point_passages(self.measure, r)[gamma[0]], 0.0, "point/newton")
        self._val_cache[key] = out
        return out

    def _base(self, syl):
        """(base, power) with F(e, (syl,)) = F(e, base) ** power: a power
        of one unknown of the system (F_{a^k} = F_a^k)."""
        u, k = monomial(self.group, *syl)
        return (u,), k

    def syllable_ids(self, words):
        """The words as rows of syllable ids, 0-padded to the longest: the
        batch form of ``green_batch``.  New syllables take the next ids."""
        index, width = self._syllable_index, max(map(len, words), default=0)
        rows = [[index.setdefault(s, len(index) + 1) for s in w] for w in words]
        return np.array([row + [0] * (width - len(row)) for row in rows],
                        dtype=np.intp).reshape(len(words), width)

    def syllable_weights(self, r):
        """F(e,u|r)^k by syllable id, (u, k) the syllable's ``_base``, and
        1.0 at the padding id 0: one array per r, extended to each
        syllable as it is seen."""
        table = self._syllable_tables.get(r, _PADDING)
        if len(table) <= len(self._syllable_index):
            new = []
            for syl in itertools.islice(self._syllable_index, len(table) - 1, None):
                base, k = self._base(syl)
                new.append(self.first_passage((), base, r).value ** k)
            table = self._syllable_tables[r] = np.concatenate([table, new])
        return table

    def syllable_pair_weights(self, syllables, r):
        """(F(e,s|r), F(s,e|r)) arrays: the weights of s and of s^-1."""
        inverses = [[(fid, self.group.factors[fid].inv(p))] for fid, p in syllables]
        ids = self.syllable_ids([[s] for s in syllables] + inverses)[:, 0]
        w = self.syllable_weights(r)[ids]
        return w[: len(syllables)], w[len(syllables):]

    def _products(self, start, ids, r):
        """``start`` times each word's syllable weights, left to right: cut
        vertices make F(e, gamma) their product."""
        return accumulate(np.multiply, start, self.syllable_weights(r)[ids])

    def _factored(self, start, gamma, r):
        value = self._products(start, self.syllable_ids([gamma]), r)[0]
        return GreenValue(float(value), 0.0, "factored")

    def green_batch(self, ids, r):
        """G(e, w|r) over the words w of ``ids`` in one array pass, bit for
        bit what ``green`` returns."""
        return self._products(self.green((), (), r).value, ids, r)

    def h_value(self, gamma, r):
        """H(e,gamma|r) = G(e,gamma|r) G(gamma,e|r)."""
        return self.green((), gamma, r).value * self.green(gamma, (), r).value

    # -- I sums --------------------------------------------------------------

    def i_sums(self, r):
        """I1 = sum_gamma H(e,gamma|r) and the 3-fold Green sum I2.

        Across cut vertices H(e, gamma) is h_ee times the product of its
        syllables' weights F(e,s|r) F(s,e|r), so the relative spheres
        form a geometric matrix series and I1 = h_ee (1 + 1^T (I - M)^-1 t)
        (``_sphere_sum``), t untruncated (``algebraic.factor_weights``).
        I1 also equals d/dr (r G(e,e|r)) = G + r G', read off the system's
        jet; ``NonConvergenceError`` is raised when the two differ by more
        than ``I1_TOL`` relative.  I2 = (1/2) d^2/dr^2 (r^2 G(e,e|r)) =
        G + 2 r G' + r^2 G'' / 2 from the same jet, which refuses inside
        R's bar.
        """
        self._check_r(r)
        g, dg, ddg = self.system.green_jet(r)
        i1, i2 = g + r * dg, g + 2.0 * r * dg + 0.5 * r * r * ddg
        t = factor_weights(self.group, point_passages(self.measure, r))
        total = self.h_value((), r) * (1.0 + _sphere_sum(t, r))
        rel_gap = abs(total - i1) / i1
        if rel_gap > I1_TOL:
            raise NonConvergenceError(
                f"I1 routes disagree at r = {r:.10g}: relative spheres give "
                f"{total:.8g}, d/dr(rG) gives {i1:.8g}, relative gap "
                f"{rel_gap:.2e} > {I1_TOL:g}",
                diagnostics={"r": float(r), "i1_spheres": total,
                             "i1_derivative": i1, "rel_gap": rel_gap},
            )
        return ISums(r=r, i1=total, i1_derivative=i1, i2=i2, i2_method="point/jet")


def _sphere_sum(t, r):
    """1^T (I - M)^-1 t = sum_{m >= 1} 1^T M^(m-1) t, M = factor_matrix(t).

    M^(m-1) t sums the m-syllable words by the factor of their first
    syllable, weighted by their syllables' t.  Raises unless I - M is a
    non-singular M-matrix.
    """
    rest = m_matrix_solve(factor_matrix(t), t)
    if rest is None:
        raise NonConvergenceError(
            f"relative-sphere sums diverge at r = {r:.10g}: I - M is not a "
            f"non-singular M-matrix",
            diagnostics={"r": float(r), "syllable_weights": t.tolist()},
        )
    return float(rest.sum())

"""Green functions G(x,y|r), spectral radius, and I-sums.

Where the first-passage system of ``algebraic`` covers the measure
(single-syllable steps on finite and rank-1 lattice factors), every value
is read off its least solution at r: G(e,e|r) = 1 / (1 - U), each
unknown's first passage x_u, and the r-derivatives of G from its jet
(``FirstPassageSystem.green_jet``); tails are 0, and R is the system's
branch point.  Other measures (Z^d factors with d >= 2, multi-syllable
steps) sum series over a convolution table, the powers mu^{*n} of the
truncated-ball path operator of ``walks``, each with its tail, closed
geometrically away from the radius and by a power-law model near it.
Every syllable prefix is a cut vertex of a free product's Cayley graph,
so on single syllables G(e,gamma) = G(e,e) F(e,gamma), F(e,gamma) is the
product of its syllables' first passages, and F(e,a^k) = F(e,a)^k on a
lattice factor stepping by +-1.  The evaluator keeps one table per r of
syllable weights (F(e,u)^k and relative tail), arrays by syllable id,
and multiplies them left to right, a batch of words (rows of ids) in one
array pass (``green_batch``).  Every value carries a tail and a method
tag.  The two routes to I1 (relative spheres and d/dr (r G)) are
compared on every I-sum, and a disagreement is an error.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateInputError,
    DivergenceError,
    GroupSpecError,
    NonConvergenceError,
)
from . import walks
from .algebraic import factor_weights, m_matrix_solve, monomial, point_passages
from .automaton import factor_matrix

NEG_INF = -math.inf
# largest relative gap allowed between the relative-sphere I1 and d/dr (r G),
# which equals I1 by the derivative identity: from the jet, where both routes
# read the least solution, and from the return series off the system
I1_POINT_TOL, I1_ROUTE_TOL = 1e-10, 1e-3


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


# ---------------------------------------------------------------------------
# tail closure

def _close_tail(ns, log_terms):
    """(tail, method) for a positive series from its trailing log-terms.

    log_terms: log of the nonzero terms c_n r^n at the indices ``ns``, on
    the lattice n = n0 + j*p.  Geometric closure when the measured step
    ratio is safely below 1; a q^n * n^(-3/2) model otherwise (ratio -> 1
    polynomially at the radius).
    """
    finite = log_terms > NEG_INF
    ns, log_terms = ns[finite], log_terms[finite]
    if len(ns) < 4:
        return 0.0, "none"
    n1, n2 = int(ns[-2]), int(ns[-1])
    l1, l2 = float(log_terms[-2]), float(log_terms[-1])
    p = n2 - n1
    q = math.exp(l2 - l1)
    last = math.exp(l2)
    if q < 0.995:
        return last * q / (1.0 - q), "geometric"
    qt_p = min(q * (n2 / n1) ** 1.5, 1.0)  # q-tilde^p of the power-law model
    j = np.arange(1, 200001)
    terms = last * qt_p**j * (n2 / (n2 + p * j)) ** 1.5
    return float(terms.sum()), "power-law"


def accumulate(op, start, columns):
    """``start`` op each row of ``columns``, applied left to right by a
    ufunc's accumulate: the rounding of a loop over the columns."""
    first = np.full((len(columns), 1), start)
    return op.accumulate(np.hstack([first, columns]), axis=1)[:, -1]


@dataclass(frozen=True)
class GreenValue:
    value: float
    tail: float
    method: str


_PADDING = (np.ones(1), np.zeros(1))  # syllable_weights of id 0


# ---------------------------------------------------------------------------
# coefficient tables

class ConvolutionGreenTable:
    """log p_n(e, gamma) from one truncated exact convolution pass."""

    def __init__(self, measure, horizon, ball_bound):
        self.measure = measure
        self.horizon = horizon
        self.ball_bound = ball_bound
        self.dists = walks.convolve_powers(measure, horizon, ball_bound=ball_bound)
        self._cache = {}

    @property
    def visit_radius(self):
        """Largest word length with a first visit: one step past the ball."""
        return self.ball_bound + self.measure.max_step_length

    def log_coefficients(self, gamma):
        if gamma not in self._cache:
            logs = np.full(self.horizon + 1, NEG_INF)
            for n, dist in enumerate(self.dists):
                num = dist.numerators.get(gamma, 0)
                if num:
                    logs[n] = math.log(num) - math.log(dist.denominator)
            self._cache[gamma] = logs
        return self._cache[gamma]

    def first_visit_logs(self, gamma):
        """log first-visit masses f_n(e, gamma), on the table's ball."""
        logs = np.full(self.horizon + 1, NEG_INF)
        denom, hits = walks.first_visits(
            self.measure, gamma, self.horizon, self.ball_bound
        )
        for n, hit in enumerate(hits, 1):
            if hit:
                logs[n] = math.log(hit) - math.log(denom**n)
        return logs


def _binomial_weighted(logs, k):
    """log of C(n+k, k) c_n from log c_n: the coefficients of
    (1/k!) d^k/dr^k (r^k sum_n c_n r^n)."""
    return [
        lc + math.log(math.comb(n + k, k)) if lc > NEG_INF else NEG_INF
        for n, lc in enumerate(logs)
    ]


def _eval_series(logs, r):
    """(value, tail, method) for sum_n c_n r^n from log c_n.

    The terms are summed left to right (a cumulative sum, not numpy's
    pairwise sum), so the value does not depend on how the sum is split.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    logr = math.log(r) if r > 0 else NEG_INF
    logs = np.asarray(logs, dtype=float)
    ns = np.flatnonzero(logs > NEG_INF)
    if not len(ns):
        return 0.0, 0.0, "empty"
    with np.errstate(invalid="ignore"):  # 0 * log 0 at n = 0, not taken
        log_terms = np.where(ns > 0, logs[ns] + ns * logr, logs[ns])
    peak = float(log_terms.max())
    if peak == NEG_INF:  # r = 0 and c_0 = 0
        return 0.0, 0.0, "none"
    value = math.exp(peak) * float(np.cumsum(np.exp(log_terms - peak))[-1])
    tail, method = _close_tail(ns, log_terms)
    return value + tail, tail, method


# ---------------------------------------------------------------------------
# spectral radius

@dataclass
class SpectralRadiusEstimate:
    rho_lower: float  # rigorous: sup_n p_{2n}^{1/2n}
    rho_hat: float  # extrapolated 1/R
    R_hat: float
    rho_bracket: tuple = None  # (rho_lo, rho_hi) from the first-passage system

    def uncertainty(self):
        """Width of a bar on rho_hat: the bracket, else the one-sided gap
        down to the rigorous lower bound (rho_hat >= rho_lower by
        construction)."""
        if self.rho_bracket is not None:
            return self.rho_bracket[1] - self.rho_bracket[0]
        return self.rho_hat - self.rho_lower


def _even_terms(logs):
    """(n, log p_n) at the even n >= 2 where p_n > 0."""
    return [(n, logs[n]) for n in range(2, len(logs), 2) if logs[n] > NEG_INF]


def _rho_lower(even):
    """sup_n p_{2n}^{1/2n} over ``_even_terms``: a rigorous lower bound on
    rho, as p_{2n}(e,e) is supermultiplicative."""
    return max(math.exp(l / n) for n, l in even)


def spectral_radius(seq):
    """Estimate rho = 1/R from a return sequence.

    Rigorous lower bound from supermultiplicativity of p_{2n}(e,e); the point
    estimate extrapolates the even-step ratio with one n^{-1} Richardson
    stage, which removes the leading correction of a C R^{-2n} n^{-alpha}
    tail.
    """
    even = _even_terms(seq.log_values)
    if len(even) < 10:
        raise DegenerateInputError(
            "spectral radius estimation needs at least 10 nonzero even terms"
        )
    rho_lower = _rho_lower(even)
    ratios = []
    for (n1, l1), (n2, l2) in zip(even, even[1:]):
        ratios.append((n1 // 2, math.exp((l2 - l1) / (n2 - n1) * 2)))
    # Richardson on x_k = p_{2k+2}/p_{2k}: y_k = (k+1) x_{k+1} - k x_k
    rich = []
    for (k1, x1), (k2, x2) in zip(ratios, ratios[1:]):
        rich.append(k2 * x2 - k1 * x1)
    window = rich[-10:]
    rho_sq = sum(window) / len(window)
    rho_hat = math.sqrt(max(rho_sq, rho_lower**2))
    return SpectralRadiusEstimate(
        rho_lower=rho_lower, rho_hat=rho_hat, R_hat=1.0 / rho_hat
    )


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
    """Green functions for one (group, measure) pair at a fixed horizon."""

    def __init__(self, measure, horizon=None, ball_bound=None):
        self.measure = measure
        self.group = measure.group
        self.system = measure.first_passage_system
        if self.system is not None:
            # no table: R is the system's branch point, in its bar (lo, hi)
            self.horizon, self.table = horizon or 4000, None
            self._r_max = self.system.bracket[1]
        else:
            self.horizon = horizon or 80
            if ball_bound is None:
                ball_bound = max(12, (self.horizon // 4) * measure.max_step_length)
            self.table = ConvolutionGreenTable(measure, self.horizon, ball_bound)
            self._return_logs = self.table.log_coefficients(self.group.identity)
            self._r_max = self.R_hat
        self.single_syllable_support = all(
            len(g) <= 1 for g, _ in measure.support
        )
        self._fp_cache = {}
        self._val_cache = {}
        self._syllable_index = {}  # syllable -> id >= 1; id 0 pads a word
        self._syllable_tables = {}  # r -> syllable_weights(r)

    @cached_property
    def radius_estimate(self):
        """R_hat and its bar, built on first read.  On the system: R, its
        bracket, and sup p_2n^(1/2n) over its first ``horizon`` return
        coefficients.  Else from the first 61 powers of the table; beyond
        n = 2*ball_bound/max_step the returns are slightly undercounted,
        which can only nudge R_hat upward."""
        if self.system is not None:
            (lo, hi), R = self.system.bracket, self.system.radius
            return SpectralRadiusEstimate(
                rho_lower=_rho_lower(_even_terms(self.system.return_log_probs(self.horizon))),
                rho_hat=1.0 / R, R_hat=R, rho_bracket=(1.0 / hi, 1.0 / lo),
            )
        seq_h = min(self.horizon, 60)
        return spectral_radius(walks.ReturnSequence(
            horizon=seq_h, method="exact",
            values=[d.mass(self.group.identity) for d in self.table.dists[: seq_h + 1]],
        ))

    @property
    def R_hat(self):
        return self.radius_estimate.R_hat if self.system is None else self.system.radius

    def _check_r(self, r):
        # the top of R's bar on the system, as in ``point_passages``; else
        # R_hat itself, as in ExperimentConfig.resolve_r_grid
        if r > self._r_max:
            raise DivergenceError(f"r = {r!r} lies past the radius R = {self.R_hat!r}")

    # -- Green function and first passage -----------------------------------

    def green(self, x, y, r):
        """G(x,y|r) with tail estimate: G(e,e|r) times gamma's syllable
        weights for a single-syllable measure, else 1 / (1 - U) at the
        least solution on the system, else the table's series for gamma."""
        self._check_r(r)
        gamma = self.group.multiply(self.group.invert(x), y) if x else tuple(y)
        key = ("G", gamma, r)
        cached = self._val_cache.get(key)
        if cached is not None:
            return cached
        if gamma and self.single_syllable_support:
            out = self._factored(self.green((), (), r), gamma, r)
        elif self.system is not None:
            out = GreenValue(self.system.green_jet(r, 0)[0], 0.0, "point/newton")
        else:
            v, tail, tag = _eval_series(self.table.log_coefficients(gamma), r)
            out = GreenValue(v, tail, f"series/{tag}")
        self._val_cache[key] = out
        return out

    def first_passage(self, x, y, r):
        """F(x,y|r); satisfies G(x,y|r)=F(x,y|r)G(e,e|r).  The product of
        gamma's syllable weights, unless gamma is its own base (``_base``)
        or the measure is not on single syllables: then x_u at the least
        solution on the system, else the table's first-visit series."""
        self._check_r(r)
        gamma = self.group.multiply(self.group.invert(x), y) if x else tuple(y)
        key = ("F", gamma, r)
        cached = self._val_cache.get(key)
        if cached is not None:
            return cached
        if not gamma or (
            self.single_syllable_support and self._base(gamma[0]) != (gamma, 1)
        ):
            out = self._factored(GreenValue(1.0, 0.0, "unit"), gamma, r)
        elif self.system is not None:
            out = GreenValue(point_passages(self.measure, r)[gamma[0]], 0.0, "point/newton")
        else:
            if gamma not in self._fp_cache:
                self._fp_cache[gamma] = self.table.first_visit_logs(gamma)
            v, tail, tag = _eval_series(self._fp_cache[gamma], r)
            out = GreenValue(v, tail, f"first-visit/{tag}")
        self._val_cache[key] = out
        return out

    def _base(self, syl):
        """(base, power) with F(e, (syl,)) = F(e, base) ** power: on the
        first-passage system a power of one unknown (F_{a^k} = F_a^k),
        else the syllable itself."""
        if self.system is None:
            return (syl,), 1
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
        """(F(e,u|r)^k, k * relative tail) arrays by syllable id, (u, k)
        the syllable's ``_base``, and (1.0, 0.0) at the padding id 0: one
        table per r, extended to each syllable as it is seen."""
        table = self._syllable_tables.get(r, _PADDING)
        if len(table[0]) <= len(self._syllable_index):
            rows = []
            for syl in itertools.islice(self._syllable_index, len(table[0]) - 1, None):
                base, k = self._base(syl)
                f = self.first_passage((), base, r)
                rows.append((f.value**k, k * f.tail / f.value if f.value else 0.0))
            table = self._syllable_tables[r] = tuple(
                np.concatenate([old, new]) for old, new in zip(table, zip(*rows)))
        return table

    def syllable_pair_weights(self, syllables, r):
        """(F(e,s|r), F(s,e|r)) arrays: the weights of s and of s^-1."""
        inverses = [[(fid, self.group.factors[fid].inv(p))] for fid, p in syllables]
        ids = self.syllable_ids([[s] for s in syllables] + inverses)[:, 0]
        w = self.syllable_weights(r)[0][ids]
        return w[: len(syllables)], w[len(syllables):]

    def factor_sums(self, payloads, r):
        """t[k] = sum of F(e,s|r) F(s,e|r) over the syllables s = (k, p),
        p in ``payloads[k]``, added in sequence as a loop adds: the factor
        weights of ``automaton.factor_matrix``.  Off single-syllable support
        no cut vertex factors the sums, and ``GroupSpecError`` is raised."""
        if not self.single_syllable_support:
            raise GroupSpecError(
                "factor weights require single-syllable support, where every "
                "syllable prefix is a cut vertex"
            )
        t = []
        for fid, ps in enumerate(payloads):
            fwd, back = self.syllable_pair_weights([(fid, p) for p in ps], r)
            t.append(sum((fwd * back).tolist()))
        return np.array(t)

    def _products(self, start, ids, r):
        """(values, tails) of the GreenValue ``start`` times each word's
        syllable weights (cut vertices make F(e, gamma) their product),
        left to right; the relative tails add, to first order, and an
        empty word keeps ``start``'s tail."""
        w, rel = self.syllable_weights(r)
        values = accumulate(np.multiply, start.value, w[ids])
        rels = accumulate(np.add, start.tail / start.value, rel[ids])
        return values, np.where(ids.any(axis=1), np.abs(values) * rels, start.tail)

    def _factored(self, start, gamma, r):
        values, tails = self._products(start, self.syllable_ids([gamma]), r)
        return GreenValue(float(values[0]), float(tails[0]), "factored")

    def green_batch(self, ids, r):
        """(values, tails) of G(e, w|r) over the words w of ``ids`` in one
        array pass, bit for bit what ``green`` returns; one ``green`` per
        word off single-syllable support."""
        gee = self.green((), (), r)
        if self.single_syllable_support:
            return self._products(gee, ids, r)
        syllables = [None, *self._syllable_index]
        out = [self.green((), tuple(syllables[i] for i in row if i), r)
               for row in ids.tolist()]
        return np.array([g.value for g in out]), np.array([g.tail for g in out])

    def h_value(self, gamma, r):
        """H(e,gamma|r) = G(e,gamma|r) G(gamma,e|r)."""
        return self.green((), gamma, r).value * self.green(gamma, (), r).value

    # -- derivative ----------------------------------------------------------

    def green_derivative(self, r):
        """d/dr ( r G(e,e|r) ) = G + r G': the system's jet, else the return
        series.  The relative-sphere route to the same value is
        ``i_sums(r).i1``."""
        self._check_r(r)
        if self.system is not None:
            g, dg = self.system.green_jet(r, 1)
            return GreenValue(g + r * dg, 0.0, "point/jet")
        v, tail, tag = _eval_series(_binomial_weighted(self._return_logs, 1), r)
        return GreenValue(v, tail, f"derivative-series/{tag}")

    # -- I sums --------------------------------------------------------------

    def i_sums(self, r):
        """I1 = sum_gamma H(e,gamma|r) and the 3-fold Green sum I2.

        Across cut vertices H(e, gamma) is h_ee times the product of its
        syllables' weights F(e,s|r) F(s,e|r), so the relative spheres
        form a geometric matrix series and I1 = h_ee (1 + 1^T (I - M)^-1 t)
        (``_sphere_sum``), t untruncated on the system
        (``algebraic.factor_weights``) and, off it, over the lattice
        syllables the table's first visits reach (``visit_radius``): every
        other one has F = 0.  I1 also equals d/dr (r G(e,e|r))
        (``green_derivative``); ``NonConvergenceError`` is raised when the
        two differ by more than ``I1_POINT_TOL`` relative on the system,
        ``I1_ROUTE_TOL`` off it.

        I2 = (1/2) d^2/dr^2 (r^2 G(e,e|r)) = G + 2 r G' + r^2 G'' / 2 from
        the system's jet, which refuses inside R's bar; off the system the
        series sum_n C(n+2, 2) p_n(e,e) r^n, refused where it would close
        its tail with the power-law model.
        """
        self._check_r(r)
        if self.system is not None:
            g, dg, ddg = self.system.green_jet(r)
            i1, i2, method = g + r * dg, g + 2.0 * r * dg + 0.5 * r * r * ddg, "point/jet"
            tol = I1_POINT_TOL
            t = factor_weights(self.group, point_passages(self.measure, r))
        else:
            i2, tail, tag = _eval_series(_binomial_weighted(self._return_logs, 2), r)
            if tag == "power-law":
                raise NonConvergenceError(
                    f"I2 series at r = {r:.10g} does not decay geometrically within "
                    f"the table's horizon {self.horizon}: the power-law tail model "
                    f"would set {tail / i2:.1%} of the value",
                    diagnostics={"r": float(r), "i2": i2, "i2_tail": tail},
                )
            i1, method, tol = self.green_derivative(r).value, f"series/{tag}", I1_ROUTE_TOL
            t = self.factor_sums([
                f.nontrivial_elements(self.table.visit_radius if f.kind == "lattice" else None)
                for f in self.group.factors
            ], r)
        total = self.h_value((), r) * (1.0 + _sphere_sum(t, r))
        rel_gap = abs(total - i1) / i1
        if rel_gap > tol:
            raise NonConvergenceError(
                f"I1 routes disagree at r = {r:.10g}: relative spheres give "
                f"{total:.8g}, d/dr(rG) gives {i1:.8g}, relative gap "
                f"{rel_gap:.2e} > {tol:g}",
                diagnostics={"r": float(r), "i1_spheres": total,
                             "i1_derivative": i1, "rel_gap": rel_gap},
            )
        return ISums(r=r, i1=total, i1_derivative=i1, i2=i2, i2_method=method)


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

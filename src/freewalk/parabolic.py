"""First-return kernels to parabolic factors and the spectral-degeneracy test.

The kernel p_{k,r}(h,h') sums r^n mu(h^-1 g_1) ... mu(g_{n-1}^-1 h') over
paths whose intermediate points avoid H_k.  Translation invariance reduces it
to the single row from e, truncated at path length L.  For a measure whose
steps are single syllables, e is a cut vertex between H_k and the cone of
every step out of H_k (Woess 2000), so the row needs no path enumeration:
a step inside H_k returns at once, and a step t out of it returns first at
e, through a first passage from t back to e.  Where the first-passage
system of ``algebraic`` covers the measure, the row is read off its
coefficients, exactly (integer coefficients, for rational r) or in floats,
and no ball truncates it.  Every other measure (multi-syllable steps, Z^d
factors with d >= 2) runs ``walks.PathOperator`` with H_k as its absorbing
set over the states of a word ball: its exact propagator (integer
numerators, rational r folded into the steps) additionally prunes by
remaining steps (a state farther from H_k than the steps left cannot
contribute, so the prune is lossless), and its float propagator needs an
explicit ball.  ``chain_size`` records the unknowns of the system, or the
states (exact) or blocks and sinks (float) of the state chain.

Over a factor ball the kernel is a finite non-negative matrix K.  Its
Perron root is read off the eigenvalues of K (by a Rayleigh quotient
where K is symmetric), and an induced Green
function is one entry of (I - t K)^-1, one M-matrix solve that refuses
where the Neumann series diverges (``algebraic.perron_root`` and
``algebraic.m_matrix_solve``).

Factors j < k are exchangeable when they are the same factor group (same
rank, or the same table and generators) and swapping j and k in every step
of the support maps mu onto itself.  The swap is then an automorphism of
the free product that fixes mu, preserves word length and carries H_j onto
H_k, so it carries each truncated kernel to H_j onto the one to H_k, and
``degeneracy_test`` builds one ladder per orbit of exchangeable factors.

Truncation only ever removes non-negative path weights, so every reported
spectral-radius estimate is a lower bound and the (L, B) ladder increases
monotonically toward the true value (B bounds the state chain only).  A
verdict of "degenerate" is therefore rigorous, while "non-degenerate"
additionally requires ladder stabilization.
"""

import json
import math
from dataclasses import asdict, dataclass, replace
from fractions import Fraction

import numpy as np

from .algebraic import m_matrix_solve, monomial, perron_root
from .errors import NonConvergenceError
from .groups import _lattice_ball
from .walks import PathOperator


def _in_factor(group, elem, factor_id):
    """Payload of elem inside H_k, or None if elem is outside the factor."""
    if elem == ():
        return group.factors[factor_id].identity
    if len(elem) == 1 and elem[0][0] == factor_id:
        return elem[0][1]
    return None


@dataclass
class ReturnKernel:
    factor_id: int
    r: object  # Fraction or float
    max_len: int  # L: maximal path length
    ball_radius: int  # B: word-ball cap on the state chain's states; -1 without
    row: dict  # factor payload -> weight (row from e)
    returned_mass: object  # sum of the row
    in_flight_mass: object  # weight still outside H_k at step L
    escaped_mass: object  # weight dropped at the ball boundary
    exact: bool
    chain_size: int  # unknowns of the first-passage system, else states or blocks


def first_return_kernel(measure, factor_id, r, max_len, ball_radius=None, exact=None):
    """The row p_{k,r}(e, .) of the first-return kernel to factor ``factor_id``.

    Where the first-passage system covers the measure, the row is read off
    its coefficients (``_series_kernel``) and ``ball_radius`` is not used.
    Otherwise the path operator runs with H_k as its absorbing set over
    the states of the word ball of radius ``ball_radius``.  Exact mode
    (rational r, or ``exact=True``) returns Fraction rows; on the state
    chain it propagates integer numerators with the lossless
    remaining-steps prune, and float mode there needs an explicit ball.
    """
    if exact is None:
        exact = isinstance(r, (int, Fraction))
    r = Fraction(r) if exact else float(r)
    system = measure.first_passage_system
    if system is not None:
        ball_radius = None  # the series needs no ball
        result = _series_kernel(measure, system, factor_id, r, max_len)
    else:
        if not exact and ball_radius is None:
            raise ValueError("float mode needs an explicit ball_radius")
        op = PathOperator(measure, ball_radius, r, factor=factor_id)
        result = (op.exact_absorb if exact else op.float_absorb)(max_len)
    row, returned, in_flight, escaped, chain_size = result
    return ReturnKernel(
        factor_id=factor_id,
        r=r,
        max_len=max_len,
        ball_radius=ball_radius if ball_radius is not None else -1,
        row=row,
        returned_mass=returned,
        in_flight_mass=in_flight,
        escaped_mass=escaped,
        exact=exact,
        chain_size=chain_size,
    )


def _series_kernel(measure, system, k, r, n):
    """(row, returned, in_flight, escaped, unknowns) of the paths of length
    at most n, from the first-passage series of a single-syllable measure.

    A first step u in H_k returns at once, with weight r mu(u).  A first
    step t out of H_k enters t's cone, and e is a cut vertex between that
    cone and H_k, so the path returns first at e, with weight
    r mu(t) sum_{m<n} f_m(t^-1) r^m, f_m = [z^m] F(e, t^-1 | z).  The row
    is the unit first, then H_k's steps in support order.  Exact rows
    (Fraction r) match the pruned state chain, which holds no mass in
    flight after a step.  Float rows add each sum with ``math.fsum``, so
    the order of its terms does not matter (a swap of exchangeable
    factors permutes them), and count in flight the mass of the paths out
    of H_k that have not returned by step n.  Nothing escapes.
    """
    exact = isinstance(r, Fraction)
    zero = Fraction(0) if exact else 0.0
    if n == 0:
        return {}, zero, zero + 1, zero, len(system.unknowns)
    group = measure.group
    sums = system.first_passage_sums(r, n - 1)
    home, steps, out = [], {}, []  # unit terms, H_k's steps, (mu(t), unknown t^-1)
    for g, w in measure.support:
        rw = Fraction(r) * w if exact else float(Fraction(r) * w)
        if not g:
            home.append(rw)
        elif g[0][0] == k:
            steps[g[0][1]] = rw
        else:
            (f, p), = g
            back = monomial(group, f, group.factors[f].inv(p))[0]
            home.append(rw * sums[back])
            out.append((w, back))
    unit = sum(home, zero) if exact else math.fsum(home)
    row = {group.factors[k].identity: unit} | steps
    row = {p: v for p, v in row.items() if v}
    if exact:
        return row, sum(row.values(), zero), zero, zero, len(sums)
    tails = system.first_passage_sums(1.0, n - 1)
    in_flight = r**n * math.fsum(float(w) * (1.0 - tails[u]) for w, u in out)
    return row, math.fsum(row.values()), in_flight, zero, len(sums)


def kernel_matrix(kernel, group, factor_ball):
    """(states, matrix): the kernel as a matrix over a factor ball.

    states are factor payloads with factor word length <= factor_ball;
    M[i, j] = p(states[i], states[j]) = row(states[i]^-1 states[j]).  Every
    pair's states[i]^-1 states[j] gets an integer code in one array step,
    and M is one sorted lookup of those codes among the row's.
    """
    factor = group.factors[kernel.factor_id]
    if factor.kind == "lattice":
        # a difference of two states has every coordinate in [-2B, 2B], so
        # it is one balanced digit per coordinate in base 4B + 1
        span = 2 * factor_ball
        if (2 * span + 1) ** factor.rank > 2**62:
            raise ValueError(
                f"a rank-{factor.rank} lattice over a factor ball of radius "
                f"{factor_ball} has differences past 64-bit codes"
            )
        states = list(_lattice_ball(factor.rank, factor_ball))
        place = [(2 * span + 1) ** c for c in range(factor.rank)]
        pos = np.array(states) @ place
        codes = pos[None, :] - pos[:, None]
        entries = {
            sum(a * b for a, b in zip(q, place)): w
            for q, w in kernel.row.items()
            if max(map(abs, q)) <= span
        }
    else:
        states = list(range(factor.order))
        codes = np.array(factor.mult)[list(factor.inv_table)]
        entries = kernel.row
    # the last key is a code no pair has, so every lookup lands on a key
    found = sorted(entries)
    keys = np.array(found + [np.iinfo(np.int64).max])
    weights = np.array([float(entries[c]) for c in found] + [0.0])
    at = np.searchsorted(keys, codes)
    return states, np.where(keys[at] == codes, weights[at], 0.0)


def kernel_spectral_radius(kernel, group, factor_ball):
    """The Perron root of the kernel matrix over the factor ball."""
    return perron_root(kernel_matrix(kernel, group, factor_ball)[1])


def induced_green(kernel, group, h, h_prime, t, factor_ball=40):
    """G_{k,r}(h,h'|t), the (h, h') entry of (I - t K)^-1 over the truncated
    kernel matrix K.

    Raises NonConvergenceError where the Neumann series sum_n t^n K^n
    diverges, i.e. unless the Perron root of t K is below 1.
    """
    states, mat = kernel_matrix(kernel, group, factor_ball)
    index = {p: i for i, p in enumerate(states)}
    hp = _in_factor(group, h, kernel.factor_id)
    hq = _in_factor(group, h_prime, kernel.factor_id)
    if hp is None or hq is None:
        raise ValueError("induced Green endpoints must lie in the factor")
    unit = np.zeros(len(states))
    unit[index[hp]] = 1.0
    row = m_matrix_solve(t * mat.T, unit)  # row h of (I - t K)^-1
    if row is None:
        raise NonConvergenceError(
            "Neumann series for the induced Green function diverges: "
            "I - t K is not a non-singular M-matrix",
            diagnostics={"t": t, "factor_ball": factor_ball},
        )
    return float(row[index[hq]])


@dataclass
class FactorVerdict:
    factor_id: int
    ladder: list  # [(L, B, rho_hat)]
    rho_hat: float  # certified lower bound (last rung)
    rho_extrapolated: float  # sqrt-law extrapolation of the ladder
    row_mass: float  # sum of the last rung's row from e; Fourier value at 0 for lattices
    slack: float
    stabilized: bool
    verdict: str  # non-degenerate | degenerate | inconclusive
    margin: float


@dataclass
class DegeneracyReport:
    r: float
    per_factor: list
    verdict: str

    def to_json(self):
        return json.dumps(
            {
                "r": self.r,
                "verdict": self.verdict,
                "factors": [asdict(v) for v in self.per_factor],
            },
            indent=2,
        )


DEFAULT_LADDER = ((20, 6), (30, 8), (40, 9))
# factor word length of the ball over which each rung's kernel matrix is taken
FACTOR_BALL = 30


def _exchangeable(measure, j, k):
    """Whether swapping factors j and k in every step of the support, with
    payloads unchanged, maps the measure onto itself between equal factors."""
    fj, fk = measure.group.factors[j], measure.group.factors[k]
    if fj.kind != fk.kind:
        return False
    if fj.kind == "lattice":
        if fj.rank != fk.rank:
            return False
    elif fj.mult != fk.mult or fj.generators != fk.generators:
        return False
    swap = {j: k, k: j}
    return all(
        measure.weights.get(tuple((swap.get(fid, fid), p) for fid, p in g)) == w
        for g, w in measure.support
    )


def _orbit_representatives(measure):
    """Per factor, the least factor exchangeable with it (itself if none).

    Exchangeability is an equivalence (a transposition conjugated by another
    is a third), so comparing with each orbit's least factor suffices.
    """
    reps = []
    for k in range(len(measure.group.factors)):
        reps.append(next(
            (j for j in range(k) if reps[j] == j and _exchangeable(measure, j, k)),
            k,
        ))
    return reps


def _factor_verdict(measure, k, r, ladder, stab_tol):
    """The ladder and verdict of factor k on its own."""
    rungs = []
    for L, B in ladder:
        kern = first_return_kernel(measure, k, r, L, B, exact=False)
        rungs.append((L, B, kernel_spectral_radius(kern, measure.group, FACTOR_BALL)))
    rho = rungs[-1][2]
    (l1, _, r1), (l2, _, r2) = rungs[-2], rungs[-1]
    delta = abs(r2 - r1)
    denom = 1.0 / math.sqrt(l1) - 1.0 / math.sqrt(l2)
    gap = ((r2 - r1) / denom) / math.sqrt(l2) if denom > 0 else 0.0
    slack = max(3.0 * delta, gap)
    stabilized = delta < stab_tol
    if rho >= 1.0:
        verdict = "degenerate"  # rigorous: truncation underestimates rho
    elif stabilized and rho + slack < 1.0:
        verdict = "non-degenerate"
    else:
        verdict = "inconclusive"
    return FactorVerdict(
        factor_id=k,
        ladder=rungs,
        rho_hat=rho,
        rho_extrapolated=rho + slack,
        row_mass=float(kern.returned_mass),
        slack=slack,
        stabilized=stabilized,
        verdict=verdict,
        margin=1.0 - (rho + slack),
    )


def degeneracy_test(measure, r, ladder=DEFAULT_LADDER, stab_tol=0.02):
    """Per-factor spectral-degeneracy verdicts at parameter r (usually R_hat).

    rho estimates increase along the (L, B) ladder.  Truncated partial sums
    of the kernel approach their limits like 1/sqrt(L) (the series
    coefficients decay like n^{-3/2}), so the remaining gap is estimated by
    fitting rho(L) = rho_inf - c/sqrt(L) to the last two rungs; the slack is
    the larger of that extrapolated gap and three times the last increment.
    A ladder of fewer than two rungs has no increment, and is refused.

    The ladder is built for the least factor of each orbit of exchangeable
    factors only.  Another factor of the orbit is its image under a swap
    that fixes the measure and preserves word length, so each of its
    truncated kernels is the image of the least factor's, with the same
    matrix over the factor ball; it takes that factor's verdict, with its
    own ``factor_id``.
    """
    if len(ladder) < 2:
        raise ValueError("the degeneracy ladder needs at least two rungs")
    verdicts = []
    for k, j in enumerate(_orbit_representatives(measure)):
        if j < k:
            verdicts.append(
                replace(verdicts[j], factor_id=k, ladder=list(verdicts[j].ladder))
            )
        else:
            verdicts.append(_factor_verdict(measure, k, r, ladder, stab_tol))
    overall = "non-degenerate"
    if any(v.verdict == "degenerate" for v in verdicts):
        overall = "degenerate"
    elif any(v.verdict == "inconclusive" for v in verdicts):
        overall = "inconclusive"
    return DegeneracyReport(r=float(r), per_factor=verdicts, verdict=overall)

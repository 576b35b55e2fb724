"""First-return kernels to parabolic factors and the spectral-degeneracy test.

The kernel p_{k,r}(h,h') sums r^n mu(h^-1 g_1) ... mu(g_{n-1}^-1 h') over
paths whose intermediate points avoid H_k.  Translation invariance reduces it
to the single row from e, which is the mass ``walks.PathOperator`` absorbs
in H_k, labelled by factor payload.  Its exact
propagator (integer numerators, rational r folded into the steps) serves
rational r and additionally prunes by remaining steps (a state farther from
H_k than the steps left cannot contribute, so the prune is lossless); its
float propagator serves the rest.  States are truncated to a word ball.

Truncation only ever removes non-negative path weights, so every reported
spectral-radius estimate is a lower bound and the (L, B) ladder increases
monotonically toward the true value.  A verdict of "degenerate" is therefore
rigorous, while "non-degenerate" additionally requires ladder stabilization.
"""

import json
import math
from dataclasses import dataclass, asdict
from fractions import Fraction

import numpy as np

from .errors import NonConvergenceError
from .groups import _lattice_ball
from .walks import PathOperator


def _in_factor(group, elem, factor_id):
    """Payload of elem inside H_k, or None if elem is outside the factor."""
    if elem == ():
        factor = group.factors[factor_id]
        if factor.kind == "lattice":
            return (0,) * factor.rank
        return 0
    if len(elem) == 1 and elem[0][0] == factor_id:
        return elem[0][1]
    return None


@dataclass
class ReturnKernel:
    factor_id: int
    r: object  # Fraction or float
    max_len: int  # L: maximal path length
    ball_radius: int  # B: word-ball cap on intermediate states
    row: dict  # factor payload -> weight (row from e)
    returned_mass: object  # sum of the row
    in_flight_mass: object  # weight still outside H_k at step L
    escaped_mass: object  # weight dropped at the ball boundary
    exact: bool


def first_return_kernel(measure, factor_id, r, max_len, ball_radius=None, exact=None):
    """The row p_{k,r}(e, .) of the first-return kernel to factor ``factor_id``.

    Runs the path operator with H_k as its absorbing set.  Exact mode
    (rational r, or ``exact=True``) propagates integer numerators with the
    lossless remaining-steps prune and returns Fraction rows; float mode
    expands the ball once and reuses its transition list at every step,
    which makes long horizons cheap.
    """
    if exact is None:
        exact = isinstance(r, (int, Fraction))
    if not exact and ball_radius is None:
        raise ValueError("float mode needs an explicit ball_radius")
    r = Fraction(r) if exact else float(r)
    op = PathOperator(measure, ball_radius, r, factor=factor_id)
    if exact:
        row, escaped, denom, nums = {}, Fraction(0), 1, [1]
        for ids, nums, hits, esc in op.exact_steps(max_len, prune=True):
            denom *= op.denominator
            for payload, num in hits.items():
                row[payload] = row.get(payload, 0) + Fraction(num, denom)
            escaped += Fraction(esc, denom)
            if not len(ids):
                break
        returned = sum(row.values(), Fraction(0))
        in_flight = Fraction(sum(nums), denom)
    else:
        row, returned, in_flight, escaped = op.float_absorb(max_len)
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
    )


def kernel_matrix(kernel, group, factor_ball):
    """(states, matrix): the kernel as a matrix over a factor ball.

    states are factor payloads with factor word length <= factor_ball;
    M[i, j] = p(states[i], states[j]) = row(states[i]^-1 states[j]).
    """
    factor = group.factors[kernel.factor_id]
    if factor.kind == "lattice":
        states = [
            p
            for p in _lattice_ball(factor.rank, factor_ball)
            if factor.length(p) <= factor_ball
        ]
    else:
        states = list(range(factor.order))
    index = {p: i for i, p in enumerate(states)}
    mat = np.zeros((len(states), len(states)))
    for i, p in enumerate(states):
        for q, w in kernel.row.items():
            target = factor.mul(p, q)
            j = index.get(target)
            if j is not None:
                mat[i, j] = float(w)
    return states, mat


@dataclass
class KernelRadiusEstimate:
    rho: float
    iterations: int
    converged: bool
    row_mass: float  # sum of the row from e; Fourier value at 0 for lattices


def kernel_spectral_radius(kernel, group, factor_ball, tol=1e-12, max_iter=100000):
    """Power iteration on the truncated non-negative kernel matrix."""
    _, mat = kernel_matrix(kernel, group, factor_ball)
    n = mat.shape[0]
    if n == 0 or not mat.any():
        return KernelRadiusEstimate(0.0, 0, True, float(kernel.returned_mass))
    # identity shift keeps periodic sparsity patterns from making the
    # iteration oscillate; the Perron eigenvector is unchanged
    shift = float(mat.max())
    shifted = mat + shift * np.eye(n)
    v = np.full(n, 1.0 / math.sqrt(n))
    rho = 0.0
    for it in range(1, max_iter + 1):
        w = shifted @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return KernelRadiusEstimate(0.0, it, True, float(kernel.returned_mass))
        w /= norm
        new_rho = float(w @ (shifted @ w)) / float(w @ w)
        if abs(new_rho - rho) < tol and it > 10:
            return KernelRadiusEstimate(
                new_rho - shift, it, True, float(kernel.returned_mass)
            )
        rho = new_rho
        v = w
    return KernelRadiusEstimate(rho - shift, max_iter, False, float(kernel.returned_mass))


def induced_green(kernel, group, h, h_prime, t, factor_ball=40, max_terms=2000, tol=1e-12):
    """G_{k,r}(h,h'|t) as a Neumann series over the truncated kernel.

    Raises NonConvergenceError when the partial sums fail a Cauchy test.
    """
    states, mat = kernel_matrix(kernel, group, factor_ball)
    index = {p: i for i, p in enumerate(states)}
    factor = group.factors[kernel.factor_id]
    hp = _in_factor(group, h, kernel.factor_id)
    hq = _in_factor(group, h_prime, kernel.factor_id)
    if hp is None or hq is None:
        raise ValueError("induced Green endpoints must lie in the factor")
    i, j = index[hp], index[hq]
    v = np.zeros(len(states))
    v[i] = 1.0
    total = v[j]
    prev_inc = math.inf
    growing = 0
    for n in range(1, max_terms + 1):
        v = t * (v @ mat)
        inc = v[j]
        total += inc
        if inc > prev_inc and inc > tol:
            growing += 1
            if growing > 50:
                raise NonConvergenceError(
                    "Neumann series for the induced Green function is diverging",
                    diagnostics={"t": t, "terms": n, "last_increment": float(inc)},
                )
        else:
            growing = 0
        if inc < tol * max(total, 1.0) and n > 5:
            break
        prev_inc = max(inc, tol)
    return float(total)


@dataclass
class FactorVerdict:
    factor_id: int
    ladder: list  # [(L, B, rho_hat)]
    rho_hat: float  # certified lower bound (last rung)
    rho_extrapolated: float  # sqrt-law extrapolation of the ladder
    row_mass: float
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


def degeneracy_test(
    measure,
    r,
    ladder=DEFAULT_LADDER,
    factor_ids=None,
    factor_ball=30,
    stab_tol=0.02,
):
    """Per-factor spectral-degeneracy verdicts at parameter r (usually R_hat).

    rho estimates increase along the (L, B) ladder.  Truncated partial sums
    of the kernel approach their limits like 1/sqrt(L) (the series
    coefficients decay like n^{-3/2}), so the remaining gap is estimated by
    fitting rho(L) = rho_inf - c/sqrt(L) to the last two rungs; the slack is
    the larger of that extrapolated gap and three times the last increment.
    """
    group = measure.group
    if factor_ids is None:
        factor_ids = range(len(group.factors))
    verdicts = []
    for k in factor_ids:
        rungs = []
        for L, B in ladder:
            kern = first_return_kernel(measure, k, r, L, B, exact=False)
            est = kernel_spectral_radius(kern, group, factor_ball)
            rungs.append((L, B, est.rho))
        rho = rungs[-1][2]
        if len(rungs) > 1:
            (l1, _, r1), (l2, _, r2) = rungs[-2], rungs[-1]
            delta = abs(r2 - r1)
            denom = 1.0 / math.sqrt(l1) - 1.0 / math.sqrt(l2)
            gap = ((r2 - r1) / denom) / math.sqrt(l2) if denom > 0 else 0.0
            slack = max(3.0 * delta, gap)
        else:
            delta, slack = math.inf, math.inf
        stabilized = delta < stab_tol
        if rho >= 1.0:
            verdict = "degenerate"  # rigorous: truncation underestimates rho
        elif stabilized and rho + slack < 1.0:
            verdict = "non-degenerate"
        else:
            verdict = "inconclusive"
        verdicts.append(
            FactorVerdict(
                factor_id=k,
                ladder=rungs,
                rho_hat=rho,
                rho_extrapolated=rho + (slack if math.isfinite(slack) else 0.0),
                row_mass=est.row_mass,
                slack=slack,
                stabilized=stabilized,
                verdict=verdict,
                margin=1.0 - (rho + slack),
            )
        )
    overall = "non-degenerate"
    if any(v.verdict == "degenerate" for v in verdicts):
        overall = "degenerate"
    elif any(v.verdict == "inconclusive" for v in verdicts):
        overall = "inconclusive"
    return DegeneracyReport(r=float(r), per_factor=verdicts, verdict=overall)

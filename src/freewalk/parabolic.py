"""First-return kernels to parabolic factors and the spectral-degeneracy test.

The kernel p_{k,r}(h,h') sums r^n mu(h^-1 g_1) ... mu(g_{n-1}^-1 h') over
paths whose intermediate points avoid H_k.  Translation invariance reduces it
to the single row from e.  For a measure whose steps are single syllables,
e is a cut vertex between H_k and the cone of every step out of H_k (Woess
2000), so the row needs no path enumeration: a step inside H_k returns at
once, and a step t out of it returns first at e, through a first passage
from t back to e.  So the row is read off the first-passage system of
``algebraic``, which covers exactly these measures (on finite and rank-1
lattice factors) and through ``StepMeasure.route`` refuses the rest.

``degeneracy_test`` takes the spectral radius of the untruncated row in
closed form.  ``first_return_kernel`` truncates the row at path length L,
as a reference the closed form is held to: exactly (for rational r, every
entry an integer over one denominator, ``_exact_row``) or in floats, and
no ball truncates it.  Truncation only removes non-negative path weights,
so a truncated kernel's spectral radius is a lower bound for the
untruncated one's.

Over a factor ball a kernel is a finite non-negative matrix K, and an
induced Green function is one entry of (I - t K)^-1, read off row h of it;
the row refuses where the Neumann series diverges.  A step of a rank-1
lattice factor is +-1, so a kernel there lies on {a^-1, e, a} and K is
tridiagonal Toeplitz over the 2B + 1 payloads of the ball: its Perron root
is a closed form and row h is one elimination sweep in O(B) (``_sweep``),
which stops eliminating once its pivots reach their fixed point, and
neither builds K; the row is kept as a list over the payloads -B..B.  On a
finite factor K is a convolution operator on H_k with constant row sums,
so its Perron root is the row mass; K is gathered from the row once per
kernel, read-only, and row h is one M-matrix solve
(``algebraic.m_matrix_solve``).  A kernel keeps its rows, one per
(h, t, factor ball), so every endpoint h' of a row reuses it.

Float rows round each r mu(s) once, by an integer division of the exact
product (``_times``), which is the Fraction product rounded bit for bit.
"""

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebraic import m_matrix_solve, monomial, point_passages
from .errors import NonConvergenceError


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
    row: dict  # factor payload -> weight (row from e)
    returned_mass: object  # sum of the row
    in_flight_mass: object  # weight still outside H_k at step L
    exact: bool
    chain_size: int  # unknowns of the first-passage system
    # "matrix" -> (states, K) on a finite factor; (h, t, factor ball) ->
    # row h of (I - t K)^-1, or None where the Neumann series diverges.
    # Not an argument, so a copy made with ``dataclasses.replace`` starts
    # empty.
    _solved: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def first_return_kernel(measure, factor_id, r, max_len, ball_radius=None, exact=None):
    """The row p_{k,r}(e, .) of the first-return kernel to factor ``factor_id``,
    over the paths of length at most ``max_len``.

    The row is read off the coefficients of the measure's first-passage
    system (``_series_kernel``); a measure outside it is refused
    (GroupSpecError, through ``StepMeasure.route``).  Exact mode (rational
    r, or ``exact=True``) returns Fraction rows.  ``ball_radius`` is not
    read: it stays in this position only while the benchmark's kernel task
    passes it, and leaves with the next change to the benchmark.
    """
    if exact is None:
        exact = isinstance(r, (int, Fraction))
    r = Fraction(r) if exact else float(r)
    system = measure.route
    row, returned, in_flight = _series_kernel(measure, system, factor_id, r, max_len)
    return ReturnKernel(factor_id, r, max_len, row, returned, in_flight, exact,
                        len(system.unknowns))


def _series_kernel(measure, system, k, r, n):
    """(row, returned, in_flight) of the paths of length at most n, from
    the first-passage series of a single-syllable measure.

    The row is ``_kernel_row`` over the first passages summed to m < n;
    a Fraction r takes it over one integer denominator (``_exact_row``).
    Exact rows count no mass in flight, as the pruned state chain
    (``tests/exact.py``) holds none after a step.  Float rows count in flight the mass of
    the paths out of H_k that have not returned by step n, from the sums at
    r = 1, which at r = 1 are the row's own.
    """
    exact = isinstance(r, Fraction)
    zero = Fraction(0) if exact else 0.0
    if n == 0:
        return {}, zero, zero + 1
    if exact:
        return *_exact_row(measure, system, k, r, n), zero
    sums = system.first_passage_sums(r, n - 1)
    row, out = _kernel_row(measure, k, _scaled(measure, r), sums)
    tails = sums if r == 1.0 else system.first_passage_sums(1.0, n - 1)
    in_flight = r**n * math.fsum(float(w) * (1.0 - tails[u]) for w, u in out)
    return row, math.fsum(row.values()), in_flight


def _exact_row(measure, system, k, r, n):
    """(row, returned) of ``_series_kernel`` at a Fraction r: the row of
    ``_kernel_row`` over the first passages summed to m < n, in integers.

    With the sums tops / q^(n-1) (``passage_tops``, q = q_r d for r = a/q_r
    and d the measure's common denominator), a step s of weight W/d has
    r mu(s) = a W / q, so every entry, and their sum, is an integer over
    the one denominator q^n, each normalised once.  The keys are
    ``_kernel_row``'s, in its order, without zeros.
    """
    group = measure.group
    tops, q = system.passage_tops(r, n - 1)
    a, d, scale = r.numerator, q // r.denominator, q ** (n - 1)
    unit, steps = 0, {}
    for g, w in measure.support:
        num = a * w.numerator * (d // w.denominator)  # q r mu(g)
        if not g:
            unit += num * scale
        elif g[0][0] == k:
            steps[g[0][1]] = num * scale
        else:
            (f, p), = g
            back = monomial(group, f, group.factors[f].inv(p))[0]
            unit += num * tops[system.cell_of[back]]
    nums = {group.factors[k].identity: unit} | steps
    den = q * scale
    row = {p: Fraction(v, den) for p, v in nums.items() if v}
    return row, Fraction(sum(nums.values()), den)


def _scaled(measure, r):
    """r mu(s) over the support of ``measure``, in its order, for a float r
    (``_times``)."""
    return [_times(r, w) for _, w in measure.support]


def _kernel_row(measure, k, scaled, passages):
    """(row, out) of the first-return kernel to H_k of a single-syllable
    measure at a float r, with r mu(s) from ``scaled`` (``_scaled``) and
    F(e, s | r) from ``passages`` for each unknown s.

    A first step u in H_k returns at once, with weight r mu(u).  A first
    step t out of H_k enters t's cone, and e is a cut vertex between that
    cone and H_k, so the path returns first at e, with weight
    r mu(t) F(e, t^-1 | r).  The row from e is the unit first, then H_k's
    steps in support order, without zeros; ``out`` lists (mu(t), the
    unknown of t^-1).  The unit's terms are added with ``math.fsum``, so a
    swap of exchangeable factors, which permutes them, changes nothing.
    """
    group = measure.group
    home, steps, out = [], {}, []  # unit terms, H_k's steps, (mu(t), unknown t^-1)
    for (g, w), rw in zip(measure.support, scaled):
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


def _times(r, w):
    """float(Fraction(r) * w) for a float r and a Fraction w, bit for bit:
    Python's int / int is correctly rounded, and the Fraction is not built."""
    num, den = r.as_integer_ratio()
    return num * w.numerator / (den * w.denominator)


def _one_minus(t, w):
    """1 - t w for floats t and w, rounded once where t w lies in (1/2, 2):
    there 1.0 - t * w would take the rounding of t w into the small
    difference, so the exact difference is one integer division, as in
    ``_times``.  Elsewhere the difference is at least 1/2 in size or
    negative, and rounding t w first costs at most an ulp of it."""
    tw = t * w
    if not 0.5 < tw < 2.0:
        return 1.0 - tw
    (a, b), (c, d) = t.as_integer_ratio(), w.as_integer_ratio()
    return (b * d - a * c) / (b * d)


def kernel_matrix(kernel, group):
    """(states, matrix): a kernel on a finite factor H_k as a matrix over
    its elements.

    ``induced_green`` reads it for every kernel but a lattice one, which is
    tridiagonal (``_tridiagonal``) and needs no matrix.  The states are the
    elements of H_k, and M[i, j] = p(i, j) = row(i^-1 j), one gather from
    the row tabled over H_k.  The kernel keeps both for its later calls,
    so M is read-only.
    """
    if "matrix" not in kernel._solved:
        kernel._solved["matrix"] = _kernel_matrix(kernel, group)
    return kernel._solved["matrix"]


def _kernel_matrix(kernel, group):
    factor = group.factors[kernel.factor_id]
    if factor.kind == "lattice":
        raise ValueError("a lattice kernel is tridiagonal and has no kernel matrix")
    table = np.zeros(factor.order)
    table[list(kernel.row)] = [float(w) for w in kernel.row.values()]
    mat = table[np.array(factor.mult)[list(factor.inv_table)]]
    mat.flags.writeable = False
    return list(range(factor.order)), mat


def kernel_spectral_radius(kernel, group, factor_ball):
    """The Perron root of the kernel matrix over the factor ball.

    On a finite factor the matrix is a convolution operator on H_k, whose
    rows all sum to the row mass, so that is its Perron root (with the
    constant vector).  A lattice kernel (``_tridiagonal``) is Toeplitz over
    the n = 2B + 1 payloads of the ball, with Perron root
    w_0 + 2 sqrt(w_+ w_-) cos(pi/(n+1)), and w_0 at n = 1.
    """
    tri = _tridiagonal(kernel, group)
    if tri is None:
        return math.fsum(kernel.row.values())
    w_minus, w0, w_plus = tri
    if factor_ball == 0:
        return w0
    side = math.sqrt(w_plus) * math.sqrt(w_minus)  # w_+ w_- may underflow
    return w0 + 2.0 * side * math.cos(math.pi / (2 * factor_ball + 2))


_NEAREST = {(-1,), (0,), (1,)}


def _tridiagonal(kernel, group):
    """(w_-, w_0, w_+) for a kernel on a lattice factor, None on a finite
    one.  Over a factor ball its matrix is tridiagonal Toeplitz: w_0 on the
    diagonal, w_+ above it, w_- below.  A lattice kernel off {a^-1, e, a}
    of a rank-1 factor, which no measure in the system's scope has, is
    refused (ValueError)."""
    factor = group.factors[kernel.factor_id]
    if factor.kind != "lattice":
        return None
    if factor.rank != 1 or not kernel.row.keys() <= _NEAREST:
        raise ValueError("a lattice kernel must lie on {a^-1, e, a} of a rank-1 factor")
    return tuple(float(kernel.row.get(q, 0.0)) for q in ((-1,), (0,), (1,)))


def induced_green(kernel, group, h, h_prime, t, factor_ball=40):
    """G_{k,r}(h,h'|t), the (h, h') entry of (I - t K)^-1 over the truncated
    kernel matrix K.

    The kernel solves row h of (I - t K)^-1 once per (h, t, factor_ball)
    and reads every later h' off that row.  A lattice kernel
    (``_tridiagonal``) solves it by one elimination sweep over the ball
    (``_sweep``), without K, and keeps it as a list indexed by payload + B;
    a kernel on a finite factor by one M-matrix solve over its
    ``kernel_matrix``, kept as a dict over its states.  An endpoint outside
    the factor ball raises ValueError.  Raises NonConvergenceError where
    the Neumann series sum_n t^n K^n diverges, i.e. unless the Perron root
    of t K is below 1.
    """
    hp = _in_factor(group, h, kernel.factor_id)
    hq = _in_factor(group, h_prime, kernel.factor_id)
    if hp is None or hq is None:
        raise ValueError("induced Green endpoints must lie in the factor")
    key = (hp, t, factor_ball)
    if key not in kernel._solved:
        tri = _tridiagonal(kernel, group)
        if tri is None:
            states, mat = kernel_matrix(kernel, group)
            unit = np.zeros(len(states))
            unit[states.index(hp)] = 1.0
            row = m_matrix_solve(t * mat.T, unit)  # row h of (I - t K)^-1
            row = None if row is None else dict(zip(states, row.tolist()))
        else:
            w_minus, w0, w_plus = tri
            n = 2 * factor_ball + 1
            row = _sweep(t * w_plus, _one_minus(t, w0), t * w_minus, n,
                         _payload_index(hp, factor_ball))
        kernel._solved[key] = row
    row = kernel._solved[key]
    if row is None:
        raise NonConvergenceError(
            "Neumann series for the induced Green function diverges: "
            "I - t K is not a non-singular M-matrix",
            diagnostics={"t": t, "factor_ball": factor_ball},
        )
    return row[hq] if isinstance(row, dict) else row[_payload_index(hq, factor_ball)]


def _payload_index(payload, factor_ball):
    """The index of a rank-1 payload among -B..B, the states of the factor
    ball; ValueError outside it."""
    (j,) = payload
    if not -factor_ball <= j <= factor_ball:
        raise ValueError(f"payload {payload} lies outside the factor ball of radius {factor_ball}")
    return j + factor_ball


def _sweep(lower, diag, upper, n, h):
    """Row h of (I - t K)^-1 for a tridiagonal Toeplitz K, or None unless
    I - t K is a non-singular M-matrix.

    The row is x with A x = e_h, where A = (I - t K)^T has ``diag`` on its
    diagonal, -``lower`` below and -``upper`` above.  One forward
    elimination gives the pivots p_i = diag - lower upper / p_{i-1}, and
    with one back substitution z = A^-1 1.  Each step of the elimination
    is a function of the last (p, y), so once (p, y) repeats bit for bit
    every later step repeats it: the elimination stops there and fills in
    the rest, and over that stretch the back substitution, a function of
    the last z alone, stops where z repeats.  A Z-matrix is a non-singular
    M-matrix exactly when its pivots are positive, and then z > 0
    (Collatz-Wielandt, as in ``algebraic.m_matrix_solve``): a pivot or an
    entry of z that is not a finite positive number (NaN included)
    refuses, as does a row entry past the float range.  The elimination
    from the far end has the same pivots mirrored, so x is read off the
    twisted factorisation at h: x_h = 1 / gamma_h, with gamma_h the pivot
    where both eliminations meet, and each step away from h multiplies by
    lower or upper over a pivot.  Past the pivots no term is subtracted, so
    no entry loses digits to cancellation, however small it is.
    """
    lu = lower * upper
    p, y = diag, 1.0
    if not 0.0 < p < math.inf:
        return None
    pivots, ys = [p], [y]
    for _ in range(n - 1):
        p, y, last_p, last_y = diag - lu / p, 1.0 + lower * y / p, p, y
        if p == last_p and y == last_y:
            break  # a fixed point: every later step repeats it
        if not 0.0 < p < math.inf:
            return None
        pivots.append(p)
        ys.append(y)
    # (p, y) holds from index s - 1 to the end: z steps z -> (y + upper z) / p
    # there, until z repeats too
    s = len(pivots)
    pivots += [p] * (n - s)
    z = 0.0
    for _ in range(n - s + 1):
        z, last = (y + upper * z) / p, z
        if not 0.0 < z < math.inf:
            return None
        if z == last:
            break
    for y, p in zip(reversed(ys[: s - 1]), reversed(pivots[: s - 1])):
        z = (y + upper * z) / p
        if not 0.0 < z < math.inf:
            return None
    gamma = diag - (lu / pivots[h - 1] if h else 0.0) - (lu / pivots[n - 2 - h] if h < n - 1 else 0.0)
    if not 0.0 < gamma < math.inf:
        return None
    v = mid = 1.0 / gamma
    left = [v := v * upper / p for p in reversed(pivots[:h])]  # x_{h-1}, ..., x_0
    v = mid
    right = [v := v * lower / p for p in reversed(pivots[: n - 1 - h])]  # x_{h+1}, ...
    x = left[::-1] + [mid] + right
    return x if max(x) < math.inf else None


@dataclass
class FactorVerdict:
    factor_id: int
    rho_hat: float  # spectral radius of the untruncated kernel at r
    row_mass: float  # sum of the row from e; Fourier value at 0 for lattices
    verdict: str  # non-degenerate | degenerate
    margin: float  # 1 - rho_hat


@dataclass
class DegeneracyReport:
    r: float
    per_factor: list
    verdict: str

    def to_json(self):
        """The report as one compact JSON object."""
        return json.dumps({"r": self.r, "verdict": self.verdict,
                           "factors": [vars(v) for v in self.per_factor]})


def degeneracy_test(measure, r):
    """Per-factor spectral-degeneracy verdicts at parameter r (usually R).

    Each factor's kernel row is ``_kernel_row`` over the least solution of
    the first-passage system at r, untruncated.  It is translation
    invariant on H_k, so its spectral radius is the row mass on a finite
    factor and w_0 + 2 sqrt(w_+ w_-) on a rank-1 lattice factor (the
    growth of a walk on Z); the factor is non-degenerate exactly when that
    is below 1.  A measure outside the system is refused (GroupSpecError),
    and so is an r past R (DivergenceError; ``algebraic.point_passages``).
    """
    passages = point_passages(measure, r)
    r = float(r)
    scaled = _scaled(measure, r)
    verdicts = []
    for k, factor in enumerate(measure.group.factors):
        row = _kernel_row(measure, k, scaled, passages)[0]
        mass = math.fsum(row.values())
        rho = mass
        if factor.kind == "lattice":
            rho = row.get(factor.identity, 0.0) + 2.0 * math.sqrt(
                row.get((1,), 0.0) * row.get((-1,), 0.0)
            )
        verdicts.append(FactorVerdict(
            factor_id=k,
            rho_hat=rho,
            row_mass=mass,
            verdict="non-degenerate" if rho < 1.0 else "degenerate",
            margin=1.0 - rho,
        ))
    degenerate = any(v.verdict == "degenerate" for v in verdicts)
    overall = "degenerate" if degenerate else "non-degenerate"
    return DegeneracyReport(r=r, per_factor=verdicts, verdict=overall)

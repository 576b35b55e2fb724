"""Independent oracles used to freeze expected values in the test suite.

Everything here is deliberately written against its own representations
(reduced words as strings, closed-form generating functions, plain BFS)
rather than the package's data structures, so agreement is meaningful.
"""

import math
from fractions import Fraction

# -- brute-force simple random walk on the rank-2 free group ------------------

_LETTERS = "aAbB"
_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


def _append(word, letter):
    if word and word[-1] == _INVERSE[letter]:
        return word[:-1]
    return word + letter


def _endpoint_counts(n):
    """Map reduced word -> number of length-n generator paths reaching it."""
    counts = {"": 1}
    for _ in range(n):
        nxt = {}
        for word, c in counts.items():
            for letter in _LETTERS:
                w = _append(word, letter)
                nxt[w] = nxt.get(w, 0) + c
        counts = nxt
    return counts


def f2_return_probability(n):
    """p_n(e,e) for SRW on the rank-2 free group, by path counting.

    Meet in the middle: paths of length n returning to e split into a
    length-floor(n/2) path to some word w and a length-ceil(n/2) path from w
    back, counted via inverses.
    """
    if n == 0:
        return Fraction(1)
    half = n // 2
    rest = n - half
    first = _endpoint_counts(half)
    second = _endpoint_counts(rest)
    total = 0
    for word, c in first.items():
        back = "".join(_INVERSE[ch] for ch in reversed(word))
        total += c * second.get(back, 0)
    return Fraction(total, 4**n)


# -- closed forms for SRW on the d-regular tree ---------------------------------
#
# F2 with uniform steps on a, a^-1, b, b^-1 is the 4-regular tree, and
# Z2*Z2*Z2 with uniform steps on its three involutions the 3-regular tree.


def tree_first_passage(d, r):
    """F(e,a|r): probability generating function of ever stepping one out.

    The walk steps onto a directly, or steps to one of the d-1 other
    neighbours and must then come back twice: F = r/d + ((d-1) r/d) F^2,
    solved on the branch through F(0) = 0.
    """
    return (d - math.sqrt(d * d - 4.0 * (d - 1) * r * r)) / (2.0 * (d - 1) * r)


def tree_green(d, r):
    """G(e,e|r): each step out returns with weight F, so
    G = 1 / (1 - d (r/d) F) = 1 / (1 - r F)."""
    return 1.0 / (1.0 - r * tree_first_passage(d, r))


def _tree_first_passage_derivative(d, r):
    """F'(r), by implicit differentiation of F = r/d + ((d-1) r/d) F^2."""
    f = tree_first_passage(d, r)
    return (1.0 + (d - 1) * f * f) / (d - 2.0 * (d - 1) * r * f)


def tree_i1(d, r):
    """I1(r) = sum_x G(e,x|r) G(x,e|r) on the d-regular tree.

    G(e,x) = G F^|x| and the sphere of radius k > 0 has d (d-1)^(k-1)
    points, so I1 = G^2 A with A(F) = (1 + F^2) / (1 - (d-1) F^2).
    """
    f = tree_first_passage(d, r)
    return tree_green(d, r) ** 2 * (1.0 + f * f) / (1.0 - (d - 1) * f * f)


def tree_i2(d, r):
    """I2(r) = sum_{x,y} G(e,x|r) G(x,y|r) G(y,e|r) on the d-regular tree.

    The inner sum over y is d/dr (r G(x,e|r)) = d/dr (r G F^|x|), and
    d/dr (r G) = I1.  Summing over spheres with A as in ``tree_i1`` and
    sum_k |S_k| k F^(2k-1) = A'(F)/2 = d F / (1 - (d-1) F^2)^2 gives
    I2 = G I1 A + d r G^2 F F' / (1 - (d-1) F^2)^2.

    Both I2 and I1^3 grow like (R - r)^(-3/2); on the 4-regular tree
    I2/I1^3 tends to 1/72 as r -> R.
    """
    f = tree_first_passage(d, r)
    g = tree_green(d, r)
    q = 1.0 - (d - 1) * f * f
    return (
        g * tree_i1(d, r) * (1.0 + f * f) / q
        + d * r * g * g * f * _tree_first_passage_derivative(d, r) / (q * q)
    )


F2_RADIUS = 2.0 * math.sqrt(3.0) / 3.0  # R: reciprocal of the Kesten norm


def f2_first_passage(r):
    return tree_first_passage(4, r)


def f2_green(r):
    return tree_green(4, r)


def f2_i1(r):
    return tree_i1(4, r)


def f2_i2(r):
    return tree_i2(4, r)


def z2z2z2_radius():
    """R for uniform involutions on the triple free product of order-2 groups."""
    return 3.0 / (2.0 * math.sqrt(2.0))


# -- Z2*Z3 with uniform steps on s, t, t^-1, from its first-passage system ----


class _Jet:
    """A function of r with its first two derivatives, carried through
    arithmetic, so a closed form is differentiated without a difference."""

    def __init__(self, v, d1=0.0, d2=0.0):
        self.v, self.d1, self.d2 = v, d1, d2

    @staticmethod
    def _lift(x):
        return x if isinstance(x, _Jet) else _Jet(float(x))

    def __add__(self, o):
        o = self._lift(o)
        return _Jet(self.v + o.v, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __neg__(self):
        return _Jet(-self.v, -self.d1, -self.d2)

    def __sub__(self, o):
        return self + -self._lift(o)

    def __rsub__(self, o):
        return self._lift(o) + -self

    def __mul__(self, o):
        o = self._lift(o)
        return _Jet(
            self.v * o.v,
            self.d1 * o.v + self.v * o.d1,
            self.d2 * o.v + 2.0 * self.d1 * o.d1 + self.v * o.d2,
        )

    __rmul__ = __mul__

    def reciprocal(self):
        v = self.v
        return _Jet(1.0 / v, -self.d1 / v**2, -self.d2 / v**2 + 2.0 * self.d1**2 / v**3)

    def __truediv__(self, o):
        return self * self._lift(o).reciprocal()

    def __rtruediv__(self, o):
        return self._lift(o) * self.reciprocal()

    def sqrt(self):
        s = math.sqrt(self.v)
        return _Jet(s, self.d1 / (2.0 * s), self.d2 / (2.0 * s) - self.d1**2 / (4.0 * s**3))


def _z2z3_first_passage_jets(x):
    """F_s = F(e, s) and F_t = F(e, t) as jets in x, for Z2*Z3 = <s> * <t>
    with steps s, t, t^-1.

    Every factor element is a cut vertex, so by the first step
        F_s = r/3 (1 + 2 F_t F_s)        (from t or t^-1, back through e)
        F_t = r/3 (1 + F_t + F_s F_t)    (from t^-1, t is one t^-1-step away)
    with F_t = F(e, t) = F(e, t^-1) by the automorphism t -> t^-1.
    Eliminating F_s = r / (3 - 2 r F_t) leaves a F_t^2 + b F_t + c = 0 with
    a = 2r^2 - 6r, b = r^2 - 3r + 9, c = -3r; the root through F_t(0) = 0
    is written without cancellation.
    """
    a = 2 * x * x - 6 * x
    b = x * x - 3 * x + 9
    ft = 6 * x / (b + (b * b + 12 * x * a).sqrt())
    fs = x / (3 - 2 * x * ft)
    return fs, ft


def z2z3_first_passages(r):
    """(F_s, F_t) at r, from the closed form of ``_z2z3_first_passage_jets``."""
    fs, ft = _z2z3_first_passage_jets(_Jet(r, 1.0))
    return fs.v, ft.v


def z2z3_first_passages_at_radius():
    """(F_s, F_t) at R, where the discriminant of the quadratic for F_t
    vanishes, so its root is -b / 2a = 6R / b; ``z2z3_first_passages``
    takes a square root of a rounded, possibly negative, zero there."""
    r = z2z3_radius()
    ft = 6 * r / (r * r - 3 * r + 9)
    return r / (3 - 2 * r * ft), ft


def _z2z3_green_jet(r):
    """G(e,e|r) and its r-derivatives: G = 1 / (1 - r (F_s + 2 F_t)/3)."""
    x = _Jet(r, 1.0)
    fs, ft = _z2z3_first_passage_jets(x)
    return 1 / (1 - x * (fs + 2 * ft) / 3)


def z2z3_green(r):
    return _z2z3_green_jet(r).v


def z2z3_i1(r):
    """I1 = d/dr (r G(e,e|r)), differentiated exactly."""
    return (_Jet(r, 1.0) * _z2z3_green_jet(r)).d1


def z2z3_i2(r):
    """I2 = (1/2) d^2/dr^2 (r^2 G(e,e|r)), differentiated exactly."""
    x = _Jet(r, 1.0)
    return (x * x * _z2z3_green_jet(r)).d2 / 2.0


def _z2z3_disc(r):
    """The discriminant b^2 - 4ac of the quadratic for F_t in
    ``_z2z3_first_passage_jets``, in the type of r."""
    a, b, c = 2 * r * r - 6 * r, r * r - 3 * r + 9, -3 * r
    return b * b - 4 * a * c


def z2z3_radius():
    """R: the least positive zero of ``_z2z3_disc``, where the branch
    through F_t(0) = 0 ends.  Bisection in exact rationals on [1, 3/2],
    where the discriminant changes sign once, down to adjacent floats."""
    lo, hi = Fraction(1), Fraction(3, 2)
    if not _z2z3_disc(lo) > 0 > _z2z3_disc(hi):
        raise ValueError("the bracket does not straddle a sign change")
    while float(lo) != float(hi):
        mid = (lo + hi) / 2
        if _z2z3_disc(mid) > 0:
            lo = mid
        else:
            hi = mid
    return float(lo)


def radius_in_bracket(name, lo, hi):
    """Whether the floats lo < hi hold the true R of a shipped config, in
    exact rationals: R^2 = 4/3 on f2 and 9/8 on z2z2z2 (R = d / (2 sqrt(d - 1))
    on the d-regular tree), and the sign change of ``_z2z3_disc`` on z2z3."""
    lo, hi = Fraction(lo), Fraction(hi)
    if name in ("f2", "z2z2z2"):
        square = Fraction(4, 3) if name == "f2" else Fraction(9, 8)
        return lo * lo < square < hi * hi
    if name == "z2z3":
        return _z2z3_disc(lo) > 0 > _z2z3_disc(hi)
    raise ValueError(f"no closed form for {name!r}")


# -- spectral radius of the first-return kernel to a factor, at R -------------


def kernel_rho_at_radius(name, factor_id):
    """rho_k(R) for the simple random walks of the shipped configs.

    The kernel row from e is r mu(u) at each step u inside H_k and, at e,
    the sum of r mu(t) F(e, t^-1 | r) over the steps t out of it, which
    return through e.  The steps inside the factor have equal weights, so
    the spectral radius is the row sum (on Z, w_0 + 2 sqrt(w_+ w_-) with
    w_+ = w_-).  F is taken at R exactly: F(R) = 1/sqrt(d - 1) on the
    d-regular tree (the double root of (d-1) r F^2 - d F + r = 0 at
    r = R = d / (2 sqrt(d - 1))), and ``z2z3_first_passages_at_radius``.
    """
    if name == "f2_srw":  # steps a^+-1 inside, b^+-1 out
        return F2_RADIUS / 2 * (1 + 1 / math.sqrt(3.0))
    if name == "z2z2z2":  # one involution inside, two out
        return z2z2z2_radius() / 3 * (1 + 2 / math.sqrt(2.0))
    if name == "z2z3":  # factor 0 is <s>, factor 1 is <t>
        r, (fs, ft) = z2z3_radius(), z2z3_first_passages_at_radius()
        return r / 3 * (1 + 2 * ft) if factor_id == 0 else r / 3 * (2 + fs)
    raise ValueError(f"no closed form for {name!r}")


# -- Gurevich pressure of the Green potential ---------------------------------


def pressure_closed_form(name, r=None):
    """P(r) for the simple random walks of the shipped configs; at R when r
    is None.

    P(r) is the log of the Perron root of the factor matrix with t_k off
    the diagonal of row k, t_k summing F(e,s|r) F(s,e|r) over the syllables
    s of factor k.  f2: each factor has t = sum_{k != 0} y^|k| = 2y / (1 - y)
    with y = F^2, F the first passage of the 4-regular tree, and the root
    is t.  z2z2z2: each factor has t = F^2 on the 3-regular tree, and the
    root of t (J - I) over three factors is 2t.  z2z3: t_0 = F_s^2 and
    t_1 = 2 F_t^2, and the root is sqrt(t_0 t_1).  At R, F = 1/sqrt(d - 1)
    on the d-regular tree and ``z2z3_first_passages_at_radius``, where
    P = 0.
    """
    if name == "f2_srw":
        f = 1 / math.sqrt(3.0) if r is None else f2_first_passage(r)
        y = f * f
        return math.log(2 * y / (1 - y))
    if name == "z2z2z2":
        f = 1 / math.sqrt(2.0) if r is None else tree_first_passage(3, r)
        return math.log(2 * f * f)
    if name == "z2z3":
        fs, ft = z2z3_first_passages_at_radius() if r is None else z2z3_first_passages(r)
        return math.log(math.sqrt(2.0) * fs * ft)
    raise ValueError(f"no closed form for {name!r}")


def z_log_return_probs(n_max):
    """log p_n for SRW on the integers, via the exact binomial formula."""
    out = [-math.inf] * (n_max + 1)
    out[0] = 0.0
    for n in range(2, n_max + 1, 2):
        k = n // 2
        out[n] = math.lgamma(n + 1) - 2 * math.lgamma(k + 1) - n * math.log(2)
    return out


def synthetic_log_probs(alpha, r_growth, n_max, period=1, c=1.0):
    """log(C r^{-n} n^{-alpha}) on the period lattice, for fit calibration."""
    out = [-math.inf] * (n_max + 1)
    for n in range(period, n_max + 1, period):
        out[n] = math.log(c) - n * math.log(r_growth) - alpha * math.log(n)
    return out


def even_terms(logs):
    """(n, log p_n) at the even n >= 2 where p_n > 0."""
    return [(n, logs[n]) for n in range(2, len(logs), 2) if logs[n] > -math.inf]


def spectral_radius_estimate(logs):
    """(rho_lower, rho_hat) from log p_n(e,e) alone, n = 0, 1, ...

    rho_lower = sup_n p_2n^(1/2n) is a rigorous lower bound on rho = 1/R,
    as p_2n(e,e) is supermultiplicative.  rho_hat extrapolates the
    even-step ratio x_k = p_(2k+2) / p_2k with one n^-1 Richardson stage,
    y_k = (k+1) x_(k+1) - k x_k, which removes the leading correction of a
    C R^-2n n^-alpha tail, averaged over the last ten stages.
    """
    even = even_terms(logs)
    if len(even) < 10:
        raise ValueError("spectral radius estimation needs at least 10 nonzero even terms")
    rho_lower = max(math.exp(l / n) for n, l in even)
    ratios = [(n1 // 2, math.exp((l2 - l1) / (n2 - n1) * 2))
              for (n1, l1), (n2, l2) in zip(even, even[1:])]
    rich = [k2 * x2 - k1 * x1 for (k1, x1), (k2, x2) in zip(ratios, ratios[1:])]
    window = rich[-10:]
    rho_sq = sum(window) / len(window)
    return rho_lower, math.sqrt(max(rho_sq, rho_lower**2))


def tree_return_probabilities(q, n_max):
    """Exact p_n(e,e), n = 0..n_max, for simple random walk on the
    (q+1)-regular tree, by counting paths per distance class with plain
    integers: from distance m > 0 one step leads back and q lead out, from
    e all q+1 lead out."""
    counts = [1]  # counts[m]: paths of the current length ending at distance m
    out = [Fraction(1)]
    for n in range(1, n_max + 1):
        nxt = [0] * (len(counts) + 1)
        for m, c in enumerate(counts):
            if m:
                nxt[m - 1] += c
            nxt[m + 1] += c * (q if m else q + 1)
        counts = nxt
        out.append(Fraction(counts[0], (q + 1) ** n))
    return out


def tree_return_probability(q, n):
    """Exact p_n(e,e) for simple random walk on the (q+1)-regular tree, from
    the closed form of its Green function: with x = 4 q z^2 / (q+1)^2,
    G = ((q+1) sqrt(1 - x) - (q-1)) / (2 (1 - (q+1)^2 x / (4q))), so
    p_2n = [x^n] G (4q / (q+1)^2)^n.  As [x^k] sqrt(1 - x) = -2 Cat(k-1) / 4^k
    for k >= 1, that is the finite sum of rationals
    p_2n = 1 - (q+1) sum_{k=1}^{n} Cat(k-1) q^k / (q+1)^(2k), summed in
    integers over (q+1)^(2n)."""
    if n % 2:
        return Fraction(0)
    top, cat = 1, 1  # (q+1)^(2k) p_2k; Cat(k-1)
    for k in range(1, n // 2 + 1):
        top = (q + 1) ** 2 * top - (q + 1) * cat * q**k
        cat = cat * 2 * (2 * k - 1) // (k + 1)
    return Fraction(top, (q + 1) ** n)


# -- independent relative-sphere BFS ------------------------------------------


def _syllable_length(factor, payload):
    """Word length of a syllable: the l1 norm on a lattice, the factor's
    breadth-first lengths on a finite factor."""
    if factor.kind == "lattice":
        return sum(abs(a) for a in payload)
    return factor.lengths[payload]


def bfs_relative_spheres(group, n_max, cap=None):
    """Sphere lists by plain BFS over capped syllable moves, from scratch."""
    moves = []
    for fid, factor in enumerate(group.factors):
        limit = cap if factor.kind == "lattice" else None
        for p in factor.nontrivial_elements(limit):
            moves.append(((fid, p),))
    dist = {(): 0}
    frontier = [()]
    for d in range(1, n_max + 1):
        nxt = []
        for g in frontier:
            for m in moves:
                h = group.multiply(g, m)
                if h not in dist:
                    # respect the cap on every syllable, not just the new one
                    if cap is not None and any(
                        _syllable_length(group.factors[fid], p) > cap for fid, p in h
                    ):
                        continue
                    dist[h] = d
                    nxt.append(h)
        frontier = nxt
    spheres = [[] for _ in range(n_max + 1)]
    for g, d in dist.items():
        spheres[d].append(g)
    return spheres

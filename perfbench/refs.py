"""Independent references for the benchmark's output checks.

Nothing here imports the package or its test oracles.  The tree values are
the closed forms for simple random walk on the (q+1)-regular tree (Woess,
*Random Walks on Infinite Graphs and Groups*, 2000): F2 is the 4-regular
tree (q = 3) and Z/2 * Z/2 * Z/2 the 3-regular tree (q = 2).  Return
probabilities are counted with integers on this module's own word
representation, and the radius of the Z/2 * Z/3 walk comes from its
first-passage system.
"""

import math
from fractions import Fraction


# -- simple random walk on the (q+1)-regular tree -----------------------------

def tree_radius(q):
    """R = 1/rho, with rho = 2 sqrt(q) / (q + 1) (Kesten)."""
    return (q + 1) / (2.0 * math.sqrt(q))


def _tree_disc(q, r):
    """sqrt((q+1)^2 - 4 q r^2), clamped at 0 so that r = R evaluates."""
    return math.sqrt(max((q + 1) ** 2 - 4.0 * q * r * r, 0.0))


def tree_first_passage(q, r):
    """F(e,a|r), the root of q r F^2 - (q+1) F + r = 0 through F(0) = 0."""
    return ((q + 1) - _tree_disc(q, r)) / (2.0 * q * r)


def tree_green(q, r):
    """G(e,e|r) = 1 / (1 - r F(e,a|r))."""
    return 1.0 / (1.0 - r * tree_first_passage(q, r))


def tree_i1(q, r):
    """I1 = d/dr (r G(e,e|r)) = G + r G', with G' = G^2 d(rF)/dr."""
    g = tree_green(q, r)
    return g + r * (2.0 * r / _tree_disc(q, r)) * g * g


def tree_return_probs(q, n_max):
    """Exact p_n(e,e), n = 0..n_max, by counting paths per distance class."""
    counts = [1]  # counts[m]: length-n paths from e ending at distance m
    out = [Fraction(1)]
    for n in range(1, n_max + 1):
        nxt = [0] * (len(counts) + 1)
        for m, c in enumerate(counts):
            if not c:
                continue
            if m:
                nxt[m - 1] += c
            nxt[m + 1] += c * (q if m else q + 1)
        counts = nxt
        out.append(Fraction(counts[0], (q + 1) ** n))
    return out


# generators inside one free factor: a Z factor of F2 has a and a^-1 (q = 3),
# a Z/2 factor of Z/2 * Z/2 * Z/2 has one involution (q = 2)
_FACTOR_GENS = {3: 2, 2: 1}


def tree_kernel_rho(q, r):
    """Spectral radius of the first-return kernel to one factor at r.

    A step inside the factor lands at once (weight r/(q+1) each); a step
    out of it returns to the factor only through e, with weight F(e,a|r).
    The kernel is a convolution on Z or on Z/2, so its spectral radius is
    its row sum.
    """
    k = _FACTOR_GENS[q]
    return r / (q + 1) * (k + (q + 1 - k) * tree_first_passage(q, r))


def f2_kernel_row(r):
    """Row from e of the first-return kernel to a Z factor of F2.

    p(0) = (r/2) F(e,a|r) and p(+-1) = r/4; at r = 1, p(0) = 1/6.
    """
    return {0: 0.5 * r * tree_first_passage(3, r), 1: r / 4.0, -1: r / 4.0}


def f2_induced_green(k, r):
    """G(e, a^k | r) = F^|k| G(e,e|r); at r = 1 this is 1.5 * 3^-|k|."""
    return tree_first_passage(3, r) ** abs(k) * tree_green(3, r)


# -- Z/2 * Z/3 with the uniform measure on {s, t, t^-1} ----------------------

def _z2z3_step(word, g):
    """Right-multiply a normal form over 's', 't', 'T' (T = t^-1) by g."""
    last = word[-1:] if word else ""
    if g == "s":
        return word[:-1] if last == "s" else word + "s"
    if last == g:  # t.t = T and T.T = t
        return word[:-1] + ("T" if g == "t" else "t")
    if last in ("t", "T"):  # t.T = e
        return word[:-1]
    return word + g


def z2z3_return_probs(n_max):
    """Exact p_n(e,e), n = 0..n_max, by counting generator paths."""
    counts = {"": 1}
    out = [Fraction(1)]
    for n in range(1, n_max + 1):
        nxt = {}
        for word, c in counts.items():
            for g in "stT":
                w = _z2z3_step(word, g)
                nxt[w] = nxt.get(w, 0) + c
        counts = nxt
        out.append(Fraction(counts.get("", 0), 3**n))
    return out


def _z2z3_discriminant(r):
    """Discriminant of the first-passage system reduced to F_t.

    F_s = r/3 + (2r/3) F_t F_s and F_t = r/3 + (r/3) F_t + (r/3) F_s F_t
    (using F_{t^-1} = F_t).  Eliminating F_s leaves a F_t^2 + b F_t + c = 0
    with a = -(2r/3)(1 - r/3), b = 1 - r/3 + r^2/9, c = -r/3; the branch
    through F_t(0) = 0 ends where the discriminant vanishes.
    """
    b = 1.0 - r / 3.0 + r * r / 9.0
    return b * b - (8.0 * r * r / 9.0) * (1.0 - r / 3.0)


def z2z3_radius():
    """R: the first zero of the discriminant, by bisection on [1, 1.5]."""
    lo, hi = 1.0, 1.5
    if not (_z2z3_discriminant(lo) > 0 > _z2z3_discriminant(hi)):
        raise ValueError("radius bracket does not straddle a sign change")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _z2z3_discriminant(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def rel_err(value, ref):
    return abs(value - ref) / abs(ref)

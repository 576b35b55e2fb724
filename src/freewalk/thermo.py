"""Green potential on the coded shift, transfer matrices, and pressure.

The potential of a nonempty symbol path x with element g and first syllable
g_1 is phi_r(x) = log( H(e,g|r) / H(g_1,g|r) ), with H(x,y|r) the product of
the two Green functions between x and y.  For a measure on single
syllables every syllable prefix is a cut vertex (Woess 2000), so
phi_r(x) = log F(e,g_1|r) F(g_1,e|r) depends on the first symbol alone and
the transfer operator is a matrix over the symbols; other measures are
refused.  Summing phi_r along the shift telescopes, which yields the
sphere identity

    (L_r^n 1)(empty) * H(e,e|r) = sum over the relative n-sphere of H(e,g|r)

used here both as a consistency check and as the route to the Gurevich
pressure P(r) = log of the leading transfer eigenvalue, the Perron root of
the truncated transfer matrix (``algebraic.perron_root``).  The
transfer seeds and the check's direct side both read the evaluator's
per-r syllable weight array, the direct side accumulating it along each
sphere taken as one array of symbols: the check tests the algebra of the
shift, not the Green values themselves.

The empty path is excluded from the potential's domain; iteration at the
empty word is seeded directly with the single-symbol values.
"""

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .algebraic import perron_root
from .automaton import Automaton
from .errors import GroupSpecError, NonConvergenceError
from .green import accumulate

# largest change of the pressure between the last two caps of a stabilized ladder
STAB_TOL = 5e-3


@dataclass
class TransferMatrix:
    r: float
    cap: int
    symbols: tuple
    matrix: np.ndarray  # matrix[i, j] = seed[i] if symbols[j] follows symbols[i], else 0
    seed: np.ndarray  # seed[i] = e^{phi_r((symbols[i],))}


def build_transfer(evaluator, r, cap):
    """Truncated transfer matrix over the cap-D symbol set.

    Row i is e^{phi_r(s_i)} = H(e,s_i|r) / H(e,e|r) on every symbol that
    may follow s_i and 0 elsewhere, from the syllable weights of s_i and
    s_i^-1; raises ``GroupSpecError`` off single-syllable support.
    """
    if not evaluator.single_syllable_support:
        raise GroupSpecError(
            "the transfer matrix requires single-syllable support, where the "
            "potential depends on the first symbol alone"
        )
    auto = Automaton(evaluator.group, cap)
    symbols = auto.symbols()
    gee = evaluator.green((), (), r).value
    fwd, back = evaluator.syllable_pair_weights(symbols, r)
    num = (gee * fwd) * (gee * back)  # H(e,s|r), the products green forms
    den = evaluator.h_value((), r)
    if den <= 0 or (num <= 0).any():
        raise NonConvergenceError(
            "Green function vanished in a potential ratio",
            diagnostics={"r": r},
        )
    seed = np.array([math.exp(math.log(h / den)) for h in num.tolist()])
    follows = np.array([[auto.follows(s, t) for t in symbols] for s in symbols])
    return TransferMatrix(
        r=float(r),
        cap=cap,
        symbols=symbols,
        matrix=np.where(follows, seed[:, None], 0.0),
        seed=seed,
    )


def iterate_empty(tm, n_max):
    """(L_r^k 1)(empty word) for k = 1..n_max.

    v_k[s] accumulates the Birkhoff weights of length-k paths whose first
    symbol is s; the value at the empty word is the sum over s.
    """
    out = []
    v = tm.seed.copy()
    out.append(float(v.sum()))
    for _ in range(n_max - 1):
        v = tm.matrix @ v
        out.append(float(v.sum()))
    return out


def _sphere(by_factor, n):
    """The capped relative n-sphere as an (|S_n|, n) array of symbol
    indices, in canonical order: the alternating factor sequences in
    lexicographic order, each the product of its factors' symbols
    (``by_factor``) with the last syllable varying fastest."""
    blocks = []
    for fids in itertools.product(range(len(by_factor)), repeat=n):
        if all(a != b for a, b in zip(fids, fids[1:])):
            grids = np.meshgrid(*(by_factor[k] for k in fids), indexing="ij")
            blocks.append(np.column_stack([g.ravel() for g in grids]))
    return np.concatenate(blocks)


def sphere_identity_check(evaluator, r, cap, n_max):
    """Compare (L^n 1)(empty)*H(e,e|r) against direct relative-sphere sums.

    The direct side sums G(e,g|r) G(g,e|r) over each sphere, taken as one
    array of symbols in canonical order: G(e,g) is G(e,e) times g's
    syllable weights w, accumulated left to right, and G(g,e) = G(e,g^-1)
    the same over the reversed columns of the inverse weights, the
    products ``GreenEvaluator.green`` forms.  Returns a list of
    (n, transfer_value, direct_value, rel_err).
    """
    tm = build_transfer(evaluator, r, cap)
    lhs_seq = iterate_empty(tm, n_max)
    gee = evaluator.green((), (), r).value
    hee = evaluator.h_value((), r)
    fwd, back = evaluator.syllable_pair_weights(tm.symbols, r)
    fids = np.array([fid for fid, _ in tm.symbols])
    by_factor = [np.flatnonzero(fids == k) for k in range(len(evaluator.group.factors))]
    rows = []
    for n in range(1, n_max + 1):
        sphere = _sphere(by_factor, n)
        to = accumulate(np.multiply, gee, fwd[sphere])
        from_g = accumulate(np.multiply, gee, back[sphere[:, ::-1]])
        direct = sum((to * from_g).tolist())  # in sequence, as a loop adds
        lhs = lhs_seq[n - 1] * hee
        rel = abs(lhs - direct) / direct if direct else math.inf
        rows.append((n, lhs, direct, rel))
    return rows


@dataclass
class PressureEstimate:
    r: float
    eigenvalue: float  # Perron root of the last rung's matrix
    value: float  # log eigenvalue
    cap: int
    ladder: list  # [(cap, P_hat)]
    stabilized: bool

    def to_json(self):
        out = {"pressure" if k == "value" else k: v for k, v in vars(self).items()}
        return json.dumps(out, indent=2)


def pressure(evaluator, r, ladder=(2, 3, 4)):
    """Gurevich pressure estimate with a ladder over syllable caps.

    Each rung is log of the Perron root of ``build_transfer`` at that cap,
    so multi-syllable measures are refused; the estimate is the last rung,
    and ``stabilized`` says its last two rungs differ by less than
    ``STAB_TOL``.  The symbol graph is one strongly connected component: a
    symbol can be followed by every symbol of another factor, and there
    are at least two factors.
    """
    rungs = []
    for cap in ladder:
        lam = perron_root(build_transfer(evaluator, r, cap).matrix)
        rungs.append((cap, math.log(lam) if lam > 0 else -math.inf))
    p_hat = rungs[-1][1]
    stabilized = len(rungs) > 1 and abs(rungs[-1][1] - rungs[-2][1]) < STAB_TOL
    return PressureEstimate(
        r=float(r),
        eigenvalue=lam,
        value=p_hat,
        cap=rungs[-1][0],
        ladder=rungs,
        stabilized=stabilized,
    )

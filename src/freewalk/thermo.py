"""Green potential on the coded shift, transfer matrices, and pressure.

The potential of a nonempty symbol path x with element g and first syllable
g_1 is phi_r(x) = log( H(e,g|r) / H(g_1,g|r) ), with H(x,y|r) the product of
the two Green functions between x and y.  For a measure on single
syllables every syllable prefix is a cut vertex (Woess 2000), so
phi_r(x) = log F(e,g_1|r) F(g_1,e|r) depends on the first symbol alone and
the transfer operator is a matrix over the symbols; the Green evaluator
refuses every other measure (``StepMeasure.route``) when it is built.
That matrix lumps onto the factors: it is read here as
``automaton.factor_matrix(t)``, t_k summing e^phi over factor k's symbols.
Summing phi_r along the shift telescopes, which yields the sphere identity

    (L_r^n 1)(empty) * H(e,e|r) = sum over the relative n-sphere of H(e,g|r)

checked here under a syllable cap (``build_transfer``); its direct side
accumulates the evaluator's per-r syllable weights along each sphere,
taken as one array of symbols (``Automaton.sphere_rows``): it tests the
algebra of the shift, not the Green values themselves.  The Gurevich
pressure P(r) is the log of the Perron root of the untruncated matrix.

The empty path is excluded from the potential's domain; iteration at the
empty word is seeded directly with t.
"""

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .algebraic import factor_weights, perron_root, point_passages
from .automaton import Automaton, factor_matrix
from .green import accumulate

# syllable cap of the sphere identity that ``report`` writes
IDENTITY_CAP = 3


def build_transfer(evaluator, r, cap):
    """The cap-D transfer matrix lumped onto the factors: (factor_matrix(t), t).

    The symbol matrix is diag(seed)[fid(i) != fid(j)] with seed[s] =
    e^{phi_r(s)} = F(e,s|r) F(s,e|r), and it has the nonzero spectrum of
    ``factor_matrix(t)``, t_k the sum of the seeds of factor k's cap-D
    symbols, added in sequence as a loop adds.
    """
    auto = Automaton(evaluator.group, cap)
    fwd, back = evaluator.syllable_pair_weights(auto.symbols(), r)
    seeds = iter((fwd * back).tolist())  # factor by factor, as ``symbols`` lists them
    t = np.array([sum(itertools.islice(seeds, len(ps))) for ps in auto.payloads])
    return factor_matrix(t), t


def iterate_empty(transfer, n_max):
    """(L_r^k 1)(empty word) for k = 1..n_max, from ``build_transfer``.

    v_k[j] sums the Birkhoff weights of the length-k paths whose first
    symbol comes from factor j; the value at the empty word is the sum
    over j.
    """
    matrix, v = transfer
    out = [float(v.sum())]
    for _ in range(n_max - 1):
        v = matrix @ v
        out.append(float(v.sum()))
    return out


def sphere_identity_check(evaluator, r, cap, n_max):
    """Compare (L^n 1)(empty)*H(e,e|r) against direct relative-sphere sums.

    The direct side sums G(e,g|r) G(g,e|r) over each sphere, taken as one
    array of symbols in canonical order: G(e,g) is G(e,e) times g's
    syllable weights w, accumulated left to right, and G(g,e) = G(e,g^-1)
    the same over the reversed columns of the inverse weights, the
    products ``GreenEvaluator.green`` forms, and the sphere's terms are
    summed correctly rounded (``math.fsum``).  Returns a list of
    (n, transfer_value, direct_value, rel_err).
    """
    auto = Automaton(evaluator.group, cap)
    lhs_seq = iterate_empty(build_transfer(evaluator, r, cap), n_max)
    gee = evaluator.green((), (), r).value
    hee = evaluator.h_value((), r)
    fwd, back = evaluator.syllable_pair_weights(auto.symbols(), r)
    rows = []
    for n in range(1, n_max + 1):
        sphere = auto.sphere_rows(n)
        to = accumulate(np.multiply, gee, fwd[sphere])
        from_g = accumulate(np.multiply, gee, back[sphere[:, ::-1]])
        direct = math.fsum((to * from_g).tolist())
        lhs = lhs_seq[n - 1] * hee
        rel = abs(lhs - direct) / direct if direct else math.inf
        rows.append((n, lhs, direct, rel))
    return rows


@dataclass
class PressureEstimate:
    r: float
    eigenvalue: float  # Perron root of the untruncated factor matrix
    value: float  # log eigenvalue

    def to_json(self):
        """The estimate as one compact JSON object, ``value`` as "pressure"."""
        out = {"pressure" if k == "value" else k: v for k, v in vars(self).items()}
        return json.dumps(out)


def pressure(measure, r):
    """Gurevich pressure P(r), the log of the Perron root of the untruncated
    ``factor_matrix(t)``; P(R) = 0 (Gouezel 2014).  t is
    ``algebraic.factor_weights`` at the least solution (``point_passages``,
    which refuses r past R and measures off the system)."""
    t = factor_weights(measure.group, point_passages(measure, r))
    lam = perron_root(factor_matrix(t))
    return PressureEstimate(float(r), lam, math.log(lam) if lam > 0 else -math.inf)

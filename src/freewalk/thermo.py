"""Green potential on the coded shift, transfer matrices, and pressure.

The potential of a nonempty symbol path x with element g and first syllable
g_1 is phi_r(x) = log( H(e,g|r) / H(g_1,g|r) ), with H(x,y|r) the product of
the two Green functions between x and y.  Summing phi_r along the shift
telescopes, which yields the sphere identity

    (L_r^n 1)(empty) * H(e,e|r) = sum over the relative n-sphere of H(e,g|r)

used here both as a consistency check and as the route to the Gurevich
pressure P(r) = log of the leading transfer eigenvalue, the Perron root of
the truncated transfer matrix read off its eigenvalues
(``algebraic.perron_root``).

The empty path is excluded from the potential's domain; iteration at the
empty word is seeded directly with the single-symbol values.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .algebraic import perron_root
from .automaton import build_automaton
from .errors import NonConvergenceError


def potential_eval(evaluator, path, r):
    """phi_r of a nonempty symbol path, via Green function ratios."""
    if not path:
        raise ValueError("the potential is not defined on the empty path")
    group = evaluator.group
    g = tuple(path)
    num = evaluator.h_value(g, r)
    if len(path) == 1:
        den = evaluator.h_value((), r)
    else:
        den = evaluator.h_value(g[1:], r)
    if num <= 0 or den <= 0:
        raise NonConvergenceError(
            "Green function vanished in a potential ratio",
            diagnostics={"path": path, "r": r},
        )
    return math.log(num / den)


def _representative(symbols, start, depth, follows):
    """A canonical depth-``depth`` continuation beginning with ``start``."""
    path = [start]
    while len(path) < depth:
        nxt = next(s for s in symbols if follows(path[-1], s))
        path.append(nxt)
    return tuple(path)


@dataclass
class TransferMatrix:
    r: float
    cap: int
    depth: int
    symbols: tuple
    matrix: np.ndarray  # matrix[i, j] = e^{phi_r(symbols[i] . rep(symbols[j]))}
    seed: np.ndarray  # seed[i] = e^{phi_r((symbols[i],))}


def build_transfer(evaluator, r, cap, depth=3):
    """Truncated transfer matrix over the cap-D symbol set at cylinder depth m."""
    auto = build_automaton(evaluator.group, cap)
    symbols = auto.symbols()
    n = len(symbols)
    mat = np.zeros((n, n))
    seed = np.zeros(n)
    for i, s in enumerate(symbols):
        seed[i] = math.exp(potential_eval(evaluator, (s,), r))
        for j, t in enumerate(symbols):
            if not auto.follows(s, t):
                continue
            rep = _representative(symbols, t, depth, auto.follows)
            mat[i, j] = math.exp(potential_eval(evaluator, (s,) + rep, r))
    return TransferMatrix(
        r=float(r), cap=cap, depth=depth, symbols=symbols, matrix=mat, seed=seed
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


def sphere_identity_check(evaluator, r, cap, n_max, depth=3):
    """Compare (L^n 1)(empty)*H(e,e|r) against direct relative-sphere sums.

    Returns a list of (n, transfer_value, direct_value, rel_err).
    """
    tm = build_transfer(evaluator, r, cap, depth)
    lhs_seq = iterate_empty(tm, n_max)
    hee = evaluator.h_value((), r)
    auto = build_automaton(evaluator.group, cap)
    rows = []
    for n in range(1, n_max + 1):
        direct = sum(
            evaluator.h_value(g, r) for _, g in auto.enumerate_sphere(n)
        )
        lhs = lhs_seq[n - 1] * hee
        rel = abs(lhs - direct) / direct if direct else math.inf
        rows.append((n, lhs, direct, rel))
    return rows


@dataclass
class ComponentInfo:
    size: int
    eigenvalue: float
    is_maximal: bool


@dataclass
class PressureEstimate:
    r: float
    eigenvalue: float
    value: float  # log eigenvalue
    cap: int
    depth: int
    ladder: list  # [(cap, depth, P_hat)]
    stabilized: bool
    components: list = field(default_factory=list)
    semisimple_proxy: bool = True

    def to_json(self):
        return json.dumps(
            {
                "r": self.r,
                "eigenvalue": self.eigenvalue,
                "pressure": self.value,
                "cap": self.cap,
                "depth": self.depth,
                "ladder": self.ladder,
                "stabilized": self.stabilized,
                "semisimple_proxy": self.semisimple_proxy,
                "components": [
                    {"size": c.size, "eigenvalue": c.eigenvalue, "maximal": c.is_maximal}
                    for c in self.components
                ],
            },
            indent=2,
        )


def pressure(evaluator, r, ladder=((3, 2), (3, 3), (4, 3)), stab_tol=5e-3):
    """Gurevich pressure estimate with a (cap, depth) stabilization ladder.

    The symbol graph is strongly connected: a symbol can be followed by
    every symbol of another factor, and there are at least two factors.  So
    the last rung's matrix is its one component, maximal by itself, and the
    semisimplicity proxy (no maximal component reaches another) holds.
    """
    rungs = []
    for cap, depth in ladder:
        tm = build_transfer(evaluator, r, cap, depth)
        lam = perron_root(tm.matrix)
        rungs.append((cap, depth, math.log(lam) if lam > 0 else -math.inf))
    p_hat = rungs[-1][2]
    stabilized = (
        len(rungs) > 1 and abs(rungs[-1][2] - rungs[-2][2]) < stab_tol
    )
    return PressureEstimate(
        r=float(r),
        eigenvalue=math.exp(p_hat) if p_hat > -math.inf else 0.0,
        value=p_hat,
        cap=rungs[-1][0],
        depth=rungs[-1][1],
        ladder=rungs,
        stabilized=stabilized,
        components=[
            ComponentInfo(size=len(tm.symbols), eigenvalue=lam, is_maximal=True)
        ],
        semisimple_proxy=True,
    )

"""Finitely supported measures, the one gate to the first-passage system,
and the period of a return sequence.

A measure's values are read off the first-passage system of ``algebraic``
(``StepMeasure.route``), built once per measure: its coefficients give
p_n(e,e) to any horizon (``return_log_probs``, grown once to the largest
horizon asked for and kept), and R, every Green value and the
first-return kernels.  It is the package's one engine.  ``route``, the
one gate, refuses a measure off the system (single syllables on finite
and rank-1 lattice factors), one whose support does not generate the
group, and every walk on Z2 * Z2, before the system is built: the
paper's theorem assumes an admissible walk on a non-elementary group.
No command runs on these.  The exact path sums over a word ball that the
tests hold the system to live in the tests (``tests/exact.py``).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import algebraic
from .errors import DegenerateInputError, GroupSpecError

# the refusals of a measure in the system's scope (``StepMeasure.route``),
# each naming the hypothesis of the theorem that the walk fails
INADMISSIBLE = "the measure is not admissible: its support does not generate the group"
ELEMENTARY = ("the group is elementary: Z2 * Z2 is virtually cyclic, and the "
              "theorem assumes a non-elementary group")


class StepMeasure:
    """A finitely supported exact-rational probability measure on the group."""

    def __init__(self, group, weights):
        self.group = group
        items = []
        for elem, w in weights.items():
            w = Fraction(w)
            if w <= 0:
                raise GroupSpecError("step weights must be positive")
            if not group.is_valid(elem):
                raise GroupSpecError(f"support element {elem!r} is not in normal form")
            items.append((elem, w))
        items.sort(key=lambda it: group.canonical_key(it[0]))
        if sum(w for _, w in items) != 1:
            raise GroupSpecError("step weights must sum to exactly 1")
        self.support = tuple(items)
        self.weights = dict(items)

    def _support_generates(self):
        """Whether the single-syllable steps reach every element: each
        finite factor's steps generate it under its table, and each rank-1
        lattice factor steps both +1 and -1."""
        for fid, factor in enumerate(self.group.factors):
            steps = {g[0][1] for g, _ in self.support if g and g[0][0] == fid}
            if factor.kind == "lattice":
                generated = steps == {(1,), (-1,)}
            else:
                reached = frontier = {factor.identity}
                while frontier:
                    frontier = {factor.mul(x, s) for x in frontier for s in steps} - reached
                    reached = reached | frontier
                generated = len(reached) == factor.order
            if not generated:
                return False
        return True

    @cached_property
    def first_passage_system(self):
        """The measure's ``algebraic.FirstPassageSystem``, or None outside
        its scope; built once per measure, so its coefficients are shared."""
        return algebraic.first_passage_system(self)

    @cached_property
    def route(self):
        """The first-passage system, which every value reads.  The one
        decision on whether the measure is reported on, taken before the
        system is built: GroupSpecError with ``algebraic.SCOPE`` off the
        system, ``INADMISSIBLE`` where the support does not generate the
        group, and ``ELEMENTARY`` on Z2 * Z2."""
        if not algebraic.in_scope(self):
            raise GroupSpecError(algebraic.SCOPE)
        if not self._support_generates():
            raise GroupSpecError(INADMISSIBLE)
        if not self.group.non_elementary:
            raise GroupSpecError(ELEMENTARY)
        return self.first_passage_system

    def common_denominator(self):
        return math.lcm(*(w.denominator for _, w in self.support))


def uniform_on_generators(group, lazy=None):
    """Uniform measure on the relative generating set S (optionally lazy at e)."""
    gens = [tuple(s) for s in group.generators()]
    if lazy is None:
        w = Fraction(1, len(gens))
        weights = {g: w for g in gens}
    else:
        lazy = Fraction(lazy)
        w = (1 - lazy) / len(gens)
        weights = {g: w for g in gens}
        weights[group.identity] = lazy
    return StepMeasure(group, weights)


@dataclass
class RadialChain:
    """Distance projection of an isotropic nearest-neighbor walk.

    ``rows[m]`` holds exact (down, stay, up) step probabilities at distance m;
    the final row repeats for all larger distances.  Only the tests build
    one; it stays here because the benchmark's tracer wraps two methods.
    """

    rows: list  # [(down, stay, up)] with rows[-1] reused beyond

    def row(self, m):
        return self.rows[min(m, len(self.rows) - 1)]

    def float_rows(self, max_m):
        """(down, stay, up) as float arrays over distances 0..max_m."""
        rows = [[float(p) for p in self.row(m)] for m in range(max_m + 1)]
        return np.array(rows).T.copy()  # contiguous, for the vector loops

    def _propagate(self, horizon):
        """Yield (v, logscale) for n = 0..horizon: v * exp(logscale) = p_n(0 -> .).

        Each step renormalises v to unit mass.  Rows sum to one and the
        distances 0..horizon+1 hold every walk of up to ``horizon`` steps,
        so no mass is lost and the total stays positive.
        """
        max_m = horizon + 1
        down, stay, up = self.float_rows(max_m)
        v = np.zeros(max_m + 1)
        v[0] = 1.0
        logscale = 0.0
        yield v, logscale
        for _ in range(horizon):
            nv = stay * v
            nv[:-1] += down[1:] * v[1:]
            nv[1:] += up[:-1] * v[:-1]
            total = nv.sum()
            v = nv / total
            logscale += math.log(total)
            yield v, logscale

    def return_log_probs(self, horizon):
        """log p_n(e,e) for n = 0..horizon (-inf where zero), float path."""
        logs = np.full(horizon + 1, -np.inf)
        for n, (v, logscale) in enumerate(self._propagate(horizon)):
            if v[0] > 0.0:
                logs[n] = logscale + math.log(v[0])
        return logs

    def float_masses(self, horizon):
        """(masses, logscales): masses[n, m] * exp(logscales[n]) = p_n(0 -> m)."""
        masses = np.zeros((horizon + 1, horizon + 2))
        logscales = np.zeros(horizon + 1)
        for n, (v, logscale) in enumerate(self._propagate(horizon)):
            masses[n] = v
            logscales[n] = logscale
        return masses, logscales


def detect_period(logs):
    """Period gcd{n >= 1 : p_n(e,e) > 0} over the log p_n of ``logs``
    (``FirstPassageSystem.return_log_probs``, -inf where zero)."""
    positive = np.flatnonzero(logs[1:] > -math.inf) + 1
    if not len(positive):
        raise DegenerateInputError("no positive return probability found")
    return int(np.gcd.reduce(positive))

"""Finitely supported measures, exact convolution powers, and the radial
distance chain.

A measure's values are read off the first-passage system of ``algebraic``
(``StepMeasure.route``), built once per measure: its coefficients give
p_n(e,e) to any horizon (``return_probabilities``), and R, every Green
value and the first-return kernels.  ``route``, the one gate, refuses a
measure off the system (single syllables on finite and rank-1 lattice
factors), one whose support does not generate the group, and every walk
on Z2 * Z2, before the system is built: the paper's theorem assumes an
admissible walk on a non-elementary group.  No command runs on these.

``convolve_powers`` computes the exact powers mu^{*n} in a word ball on
one ``PathOperator``, which sends steps that leave the ball to an escape
sink.  Elements are nodes of a word tree keyed by (prefix node, last
syllable code), after the cut-vertex structure of a free product (Woess
2000), and the ball is expanded one step at a time in numpy: a step is a
lookup in its syllable's merge table, and no word is multiplied, measured
or hashed.  The radial distance chain (``is_radial``) projects isotropic
nearest-neighbor walks to a birth-death chain on distances.  No command
reads either: they share no code with the first-passage system, and the
tests hold that system to them.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import algebraic
from .errors import BudgetError, DegenerateInputError, GroupSpecError

# largest number of path-operator states an exact convolution may hold
ELEMENT_BUDGET = 5 * 10**6
# radius of the word ball over which ``is_radial`` checks the projection
RADIAL_CHECK_RADIUS = 8
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
        self.max_step_length = max(
            (group.word_length(g) for g, _ in items), default=0
        )

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


class _WordTree:
    """The normal forms met so far, as a tree of (prefix node, last syllable).

    Node 0 is e; node i > 0 is node ``parent[i]`` (made before it) times
    the syllable with integer code ``code[i]``.  Code 0 is the empty
    syllable, and payloads get their codes on demand.  By the cut-vertex
    structure of a free product, an element times one syllable is its
    prefix node times a merged last syllable, or its prefix itself, or
    itself times a new syllable; so a step is one lookup in the merge
    table of its syllable, and no word is multiplied, measured or
    hashed.  A pair (p, c) stands for node p times syllable c (the root
    is (0, 0)): its length is ``length[p]`` plus the syllable's, and its
    node, if it has one, is found by the key p * 2**32 + c in a sorted
    index.
    """

    def __init__(self, group):
        self.group = group
        self.syllables = [None]  # code -> (factor id, payload)
        self.syllable_factor = np.array([-1])
        self.syllable_length = np.array([0])
        self._codes = {}
        self._merge = {}  # step syllable code -> merge table
        self.parent = np.zeros(1, np.int64)
        self.code = np.zeros(1, np.int64)
        self.length = np.zeros(1, np.int64)
        # sorted pair keys and their nodes; the last key is a sentinel
        self._keys = np.array([0, np.iinfo(np.int64).max])
        self._ids = np.array([0, -1])
        self._words = [()]

    @property
    def size(self):
        return len(self.parent)

    def code_of(self, fid, payload):
        code = self._codes.get((fid, payload))
        if code is None:
            code = self._codes[fid, payload] = len(self.syllables)
            self.syllables.append((fid, payload))
            length = self.group.factors[fid].length(payload)
            self.syllable_factor = np.append(self.syllable_factor, fid)
            self.syllable_length = np.append(self.syllable_length, length)
        return code

    def _merge_table(self, t):
        """Code of c * t for every code c so far: 0 where the product is
        the identity, -1 where c is in another factor than t."""
        table = self._merge.get(t, np.zeros(0, np.int64))
        known = len(self.syllables)  # codes made below need no entry yet
        if len(table) < known:
            fid, p = self.syllables[t]
            factor = self.group.factors[fid]
            more = []
            for c in range(len(table), known):
                f, q = self.syllables[c] or (-1, None)
                if f != fid:
                    more.append(-1)
                else:
                    m = factor.mul(q, p)
                    more.append(0 if factor.is_identity(m) else self.code_of(fid, m))
            table = self._merge[t] = np.concatenate([table, more]).astype(np.int64)
        return table

    def times(self, nodes, t):
        """The pairs (p, c) of each node times the syllable with code t."""
        merge = self._merge_table(t)
        last = self.code[nodes]
        same = self.syllable_factor[last] == self.syllables[t][0]
        par = np.where(same, self.parent[nodes], nodes)
        code = np.where(same, merge[last], t)
        pop = np.flatnonzero(same & (code == 0))  # t cancels the last syllable
        prefix = par[pop]
        par[pop], code[pop] = self.parent[prefix], self.code[prefix]
        return par, code

    def lookup(self, par, code):
        """The node of each pair, or -1."""
        keys = (par << 32) | code
        at = np.searchsorted(self._keys, keys)
        return np.where(self._keys[at] == keys, self._ids[at], -1)

    def intern(self, par, code):
        """The node of each pair, adding the pairs that have none."""
        node = self.lookup(par, code)
        miss = np.flatnonzero(node < 0)
        if len(miss):
            keys, inverse = np.unique((par[miss] << 32) | code[miss], return_inverse=True)
            ids = self.size + np.arange(len(keys))
            node[miss] = ids[inverse]
            p, c = keys >> 32, keys & 0xFFFFFFFF
            length = self.length[p] + self.syllable_length[c]
            self.length = np.concatenate([self.length, length])
            self.parent = np.concatenate([self.parent, p])
            self.code = np.concatenate([self.code, c])
            at = np.searchsorted(self._keys, keys)
            self._keys = np.insert(self._keys, at, keys)
            self._ids = np.insert(self._ids, at, ids)
        return node

    def words(self, nodes):
        """The normal-form tuples of the nodes."""
        words, syllables = self._words, self.syllables
        start = len(words)
        for p, c in zip(self.parent[start:].tolist(), self.code[start:].tolist()):
            words.append(words[p] + (syllables[c],))
        return [words[i] for i in nodes]


class PathOperator:
    """Paths of weight mu(s_1) ... mu(s_n) from e, truncated to a ball.

    States are nodes of a word tree (see ``_WordTree``), numbered in the
    order paths first reach them.  A batch of states is expanded at once,
    in row-major (state, step) order: each step is applied one syllable at
    a time to the whole batch, through prefix nodes, and the targets'
    nodes and lengths come from numpy arrays.  A target that leaves the
    word ball of radius ``ball_bound`` goes to the escape sink (-1).
    ``steps`` keeps integer numerators over ``denominator ** n``.  Element
    tuples are built only by ``elements``.
    """

    def __init__(self, measure, ball_bound):
        self.tree = _WordTree(measure.group)
        self.ball_bound = ball_bound
        self.denominator = measure.common_denominator()
        self.numerators = [int(w * self.denominator) for _, w in measure.support]
        self._moves = [[self.tree.code_of(f, p) for f, p in s] for s, _ in measure.support]
        self.node = np.zeros(1, np.int64)  # state id -> node; state 0 is e
        self._state = np.zeros(1, np.int64)  # node -> state id, or -1

    @property
    def size(self):
        return len(self.node)

    def elements(self, ids):
        """The elements of the given states, as tuples."""
        return self.tree.words(self.node[ids].tolist())

    def _grow(self):
        missing = self.tree.size - len(self._state)
        if missing:
            self._state = np.concatenate([self._state, np.full(missing, -1)])

    def _expand(self, states):
        """Targets of the steps from ``states``, shape (states, steps): a
        state id, or -1 for the escape sink.  New states are added in the
        order they first occur."""
        tree = self.tree
        src = self.node[states]
        par = np.empty((len(src), len(self._moves)), np.int64)
        code = np.empty_like(par)
        for j, move in enumerate(self._moves):
            nodes, p, c = src, tree.parent[src], tree.code[src]
            for i, t in enumerate(move):
                if i:
                    nodes = tree.intern(p, c)
                p, c = tree.times(nodes, t)
            par[:, j], code[:, j] = p, c
        par, code = par.ravel(), code.ravel()
        node = tree.lookup(par, code)
        self._grow()
        out = np.where(node >= 0, self._state[node], -1)
        new = np.flatnonzero(out < 0)
        if len(new):
            par, code, node = par[new], code[new], node[new]
            length = tree.length[par] + tree.syllable_length[code]
            kept = np.flatnonzero(length <= self.ball_bound)
            nodes = node[kept]
            miss = np.flatnonzero(nodes < 0)
            nodes[miss] = tree.intern(par[kept[miss]], code[kept[miss]])
            self._grow()
            added = nodes[np.sort(np.unique(nodes, return_index=True)[1])]
            self._state[added] = self.size + np.arange(len(added))
            self.node = np.concatenate([self.node, added])
            res = np.full(len(new), -1)
            res[kept] = self._state[nodes]
            out[new] = res
        return out.reshape(len(src), len(self._moves))

    def steps(self, n):
        """Yield (ids, nums, escaped) after each of steps 1..n.

        ``ids`` are the states the step's paths reach, in the order they
        first reach them, and ``nums`` their integer numerators (an object
        array) over ``denominator ** step``; ``escaped`` is the numerator of
        the mass that left the ball at this step.  The states new to a step
        are expanded as one batch, and the step itself is one product over
        the rows of its states and one grouped sum, by a sort.
        """
        weights = np.array(self.numerators, dtype=object)
        rows = np.zeros((0, len(weights)), np.int64)
        expanded = np.zeros(0, bool)
        ids, nums = np.zeros(1, np.int64), np.ones(1, dtype=object)
        for _ in range(n):
            grow = self.size - len(rows)
            if grow:
                rows = np.concatenate([rows, np.zeros((grow, len(weights)), np.int64)])
                expanded = np.concatenate([expanded, np.zeros(grow, bool)])
            fresh = ids[~expanded[ids]]
            if len(fresh):
                rows[fresh] = self._expand(fresh)
                expanded[fresh] = True
            targets = rows.take(ids, axis=0).ravel()
            mass = (nums[:, None] * weights).ravel()
            escaped = mass[targets == -1].sum()
            live = np.flatnonzero(targets >= 0)
            order = live[np.argsort(targets[live], kind="stable")]
            targets = targets[order]
            starts = np.flatnonzero(np.diff(targets, prepend=-1))
            sums = np.add.reduceat(mass[order], starts) if len(starts) else mass[:0]
            first = np.argsort(order[starts])
            ids, nums = targets[starts][first], sums[first]
            yield ids, nums, escaped


@dataclass
class Distribution:
    """mu^{*n} restricted to a ball, as integer numerators over denom."""

    n: int
    denominator: int
    numerators: dict  # element -> int
    escaped_numerator: int


def convolve_powers(measure, n, ball_bound=None):
    """All mu^{*k} for k = 0..n in one pass of the path operator."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if ball_bound is None:
        ball_bound = n * measure.max_step_length
    op = PathOperator(measure, ball_bound)
    denom = 1
    escaped = 0
    out = [Distribution(0, 1, {measure.group.identity: 1}, 0)]
    for step, (ids, nums, esc) in enumerate(op.steps(n), 1):
        if op.size > ELEMENT_BUDGET:
            raise BudgetError(
                "convolution exceeded element budget",
                consumed=op.size,
                budget=ELEMENT_BUDGET,
            )
        denom *= op.denominator
        escaped = escaped * op.denominator + esc
        numerators = dict(zip(op.elements(ids), nums.tolist()))
        out.append(Distribution(step, denom, numerators, escaped))
    return out


@dataclass
class RadialChain:
    """Distance projection of an isotropic nearest-neighbor walk.

    ``rows[m]`` holds exact (down, stay, up) step probabilities at distance m;
    the final row repeats for all larger distances.
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


def is_radial(measure):
    """Distance-projection chain for mu, or None if the projection fails.

    Requires single-syllable support (plus possibly e) with every step moving
    distance by at most 1, constant transition profiles on each sphere, and
    row stabilization before ``RADIAL_CHECK_RADIUS`` so the last row can be
    repeated.
    """
    group = measure.group
    for g, _ in measure.support:
        if len(g) > 1 or (len(g) == 1 and group.word_length(g) != 1):
            return None
    try:
        ball = group.ball(RADIAL_CHECK_RADIUS, budget=10**6)
    except BudgetError:
        return None
    dist = {g: group.word_length(g) for g in ball}
    profiles = {}
    for g in ball:
        m = dist[g]
        if m >= RADIAL_CHECK_RADIUS:
            continue
        down = stay = up = Fraction(0)
        for s, w in measure.support:
            h = group.multiply(g, s)
            dh = group.word_length(h)
            if dh == m - 1:
                down += w
            elif dh == m:
                stay += w
            elif dh == m + 1:
                up += w
            else:
                return None
        prof = (down, stay, up)
        if m in profiles and profiles[m] != prof:
            return None
        profiles[m] = prof
    rows = [profiles[m] for m in range(RADIAL_CHECK_RADIUS)]
    # need at least two identical trailing rows to certify the repeated tail
    if len(rows) < 3 or rows[-1] != rows[-2]:
        return None
    return RadialChain(rows=rows)


@dataclass
class ReturnSequence:
    """log p_n(e,e) for n = 0..horizon (-inf where zero), with provenance."""

    horizon: int
    method: str  # "algebraic": the coefficients of the first-passage system
    log_values: np.ndarray


def return_probabilities(measure, horizon):
    """p_n(e,e) for n = 0..horizon, from the coefficients of the
    first-passage system (through ``route``, which refuses the rest)."""
    logs = measure.route.return_log_probs(horizon)
    return ReturnSequence(horizon=horizon, method="algebraic", log_values=logs)


def detect_period(seq):
    """Period gcd{n >= 1 : p_n(e,e) > 0} over the available horizon."""
    positive = np.flatnonzero(seq.log_values[1 : seq.horizon + 1] > -math.inf) + 1
    if not len(positive):
        raise DegenerateInputError("no positive return probability found")
    return int(np.gcd.reduce(positive))

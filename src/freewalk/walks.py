"""Finitely supported measures, the truncated-ball path operator, and the
radial distance chain.

Every truncated path sum in the package runs on one ``PathOperator``: the
convolution powers mu^{*n}, and the first-return kernels and the
admissibility reach check of the measures the first-passage system does
not cover (in its scope a measure's support decides admissibility).  It sends steps that leave the word ball to an
escape sink and harvests mass that reaches an absorbing set (a factor, or
one element).  Elements are nodes of a word tree keyed by (prefix node,
last syllable code), after the cut-vertex structure of a free product
(Woess 2000), and the ball is expanded one step at a time in numpy: a
step is a lookup in its syllable's merge table, and no word is
multiplied, measured or hashed.  One stepping loop carries integer
numerators over a power denominator or float masses, and does each step
as one product and one grouped sum.

Exact return probabilities meet in the middle: p_{a+b}(e,e) pairs mu^{*a}
with the powers of the reflected measure g -> mu(g^-1) (mu itself when it
is symmetric), so a horizon n takes ceil(n/2) steps and keeps no powers.
Single-syllable measures on finite and rank-1 lattice factors have a
second route, the first-passage system of ``algebraic``, built once per
measure (``StepMeasure.first_passage_system``): its coefficients give
p_n(e,e) to any horizon in floats, and the first-return kernels exactly
or in floats, with no ball and no path sums.  The kernels and the CLI's
returns take it wherever it applies; a value only it gives (every Green
value among them) reads it through ``StepMeasure.route``, which refuses
the rest.
The radial distance chain (``is_radial``) projects isotropic
nearest-neighbor walks to a birth-death chain on distances.  No command
reads it: it shares no code with the first-passage system, and the tests
hold that system to it.
"""

import math
import warnings
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


class StepMeasure:
    """A finitely supported exact-rational probability measure on the group."""

    def __init__(self, group, weights, name=""):
        self.group = group
        self.name = name
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
        self._check_admissible()

    def _check_admissible(self):
        # In the first-passage system's scope the support decides it
        # (``_support_generates``).  Elsewhere admissibility is undecidable
        # at this layer; warn if the support's closure misses part of the
        # radius-3 ball.
        if algebraic.in_scope(self):
            admissible = self._support_generates()
        else:
            admissible = self._reaches_ball()
        if not admissible:
            warnings.warn(
                f"measure {self.name or '<unnamed>'} may not be admissible: "
                "its support does not reach the full radius-3 ball",
                stacklevel=3,
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

    def _reaches_ball(self):
        """Whether the walk reaches all of the radius-3 ball, stepping inside
        the ball of radius 3 + max_step_length - 1, so that a word of the
        3-ball may pass through an element a step longer than it; True
        where the ball is past its budget."""
        try:
            target = set(self.group.ball(3, budget=200000))
        except BudgetError:
            return True
        op = PathOperator(self, ball_bound=2 + max(1, self.max_step_length))
        for _ in op.steps(3 * max(1, self.max_step_length) + 3):
            pass
        return target <= set(op.elements())

    def is_symmetric(self):
        for g, w in self.support:
            if self.weights.get(self.group.invert(g)) != w:
                return False
        return True

    def reflected(self):
        """The measure g -> mu(g^-1) of the reversed walk."""
        weights = {self.group.invert(g): w for g, w in self.support}
        with warnings.catch_warnings():
            # it is admissible exactly when mu is, and mu was checked
            warnings.simplefilter("ignore")
            return StepMeasure(self.group, weights, name=f"{self.name}~")

    @cached_property
    def first_passage_system(self):
        """The measure's ``algebraic.FirstPassageSystem``, or None outside
        its scope; built once per measure, so its coefficients are shared."""
        return algebraic.first_passage_system(self)

    @property
    def route(self):
        """The first-passage system, which every point value reads; a
        measure outside it is refused here (GroupSpecError)."""
        if self.first_passage_system is None:
            raise GroupSpecError(algebraic.SCOPE)
        return self.first_passage_system

    def common_denominator(self):
        return math.lcm(*(w.denominator for _, w in self.support))


def uniform_on_generators(group, lazy=None, name=""):
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
    return StepMeasure(group, weights, name=name)


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
    index.  Operators that share a tree share its node ids.
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
        self.head = np.zeros(1, np.int64)  # code of the first syllable
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
            self.head = np.concatenate([self.head, np.where(p == 0, c, self.head[p])])
            self.parent = np.concatenate([self.parent, p])
            self.code = np.concatenate([self.code, c])
            at = np.searchsorted(self._keys, keys)
            self._keys = np.insert(self._keys, at, keys)
            self._ids = np.insert(self._ids, at, ids)
        return node

    def node_of(self, word):
        node = np.zeros(1, np.int64)
        for fid, payload in word:
            node = self.intern(node, np.array([self.code_of(fid, payload)]))
        return int(node[0])

    def words(self, nodes):
        """The normal-form tuples of the nodes."""
        words, syllables = self._words, self.syllables
        start = len(words)
        for p, c in zip(self.parent[start:].tolist(), self.code[start:].tolist()):
            words.append(words[p] + (syllables[c],))
        return [words[i] for i in nodes]


class PathOperator:
    """Paths of weight r^n mu(s_1) ... mu(s_n) from e, truncated to a ball.

    The absorbing set is data: the factor H_k (``factor``, labelled by
    payload) or one element (``target``, labelled by itself), or nothing.
    States are nodes of a word tree (see ``_WordTree``), numbered in the
    order paths first reach them.  A batch of states is expanded at once,
    in row-major (state, step) order: each step is applied one syllable
    at a time to the whole batch, through prefix nodes, and the targets'
    nodes, lengths, absorbing labels, ball test and distances to H_k come
    from numpy arrays.  A target that leaves the word ball of radius
    ``ball_bound`` without being absorbed goes to the escape sink (-1).
    Mass that reaches an absorbing state is harvested under its label and
    not propagated; e starts every path even when it is absorbing.

    ``steps`` is the one propagator: it keeps integer numerators over
    ``denominator ** n`` (the rational r folded into the step numerators)
    or float masses, and expands the states new at each step as one batch;
    ``absorb`` sums what it harvests.
    Element tuples are built only by ``elements``.  Operators built on one
    ``tree`` share its node ids, so their states pair by node.
    """

    def __init__(self, measure, ball_bound=None, r=1, factor=None, target=None,
                 tree=None):
        group = measure.group
        self.tree = tree if tree is not None else _WordTree(group)
        self.max_step_length = measure.max_step_length
        self.ball_bound = ball_bound
        self.factor, self.target = factor, target
        self.denominator, self.numerators = _step_numerators(measure, r)
        self.float_weights = [float(r) * float(w) for _, w in measure.support]
        self._moves = [[self.tree.code_of(f, p) for f, p in s] for s, _ in measure.support]
        self._target = None if target is None else self.tree.node_of(target)
        if factor is not None:
            self._unit = group.factors[factor].identity
        self.node = np.zeros(0, np.int64)  # state id -> node
        self._state = np.zeros(0, np.int64)  # node -> state id, or -1
        self.absorbs = np.zeros(0, bool)
        self.labels = {}  # absorbing state id -> label, in id order
        self.dist = np.zeros(0, np.int64)  # to H_k, for the prune (0 without)
        e = np.zeros(1, np.int64)
        absorbs, _, dist = self._classify(e, e, e)
        self._grow()
        self._add(e, e, absorbs, dist)

    @property
    def size(self):
        return len(self.node)

    def elements(self, ids=None):
        """The elements of the given states (all by default), as tuples."""
        nodes = self.node if ids is None else self.node[ids]
        return self.tree.words(nodes.tolist())

    def state_of(self, nodes):
        """The state id of each node, or -1."""
        self._grow()
        return self._state[nodes]

    def _grow(self):
        missing = self.tree.size - len(self._state)
        if missing:
            self._state = np.concatenate([self._state, np.full(missing, -1)])

    def _classify(self, par, code, node):
        """(absorbs, length, dist) of the pairs, whose nodes are ``node``."""
        tree = self.tree
        factor, syllable_length = tree.syllable_factor, tree.syllable_length
        length = tree.length[par] + syllable_length[code]
        if self.factor is None:
            if self._target is None:
                return np.zeros(len(node), bool), length, np.zeros_like(length)
            return node == self._target, length, np.zeros_like(length)
        k = self.factor
        absorbs = (code == 0) | ((par == 0) & (factor[code] == k))
        head = np.where(par == 0, code, tree.head[par])
        return absorbs, length, length - np.where(factor[head] == k, syllable_length[head], 0)

    def _add(self, nodes, code, absorbs, dist):
        first = self.size
        self._state[nodes] = first + np.arange(len(nodes))
        self.node = np.concatenate([self.node, nodes])
        self.absorbs = np.concatenate([self.absorbs, absorbs])
        self.dist = np.concatenate([self.dist, dist])
        for i in np.flatnonzero(absorbs).tolist():
            if self.factor is None:
                self.labels[first + i] = self.target
            else:
                c = int(code[i])
                self.labels[first + i] = self.tree.syllables[c][1] if c else self._unit

    def _expand(self, states, reach=None):
        """Targets of the steps from ``states``, shape (states, steps).

        A target is a state id, -1 for the escape sink, or -2 where it is
        farther from H_k than ``reach``; such a target is not added.  New
        states are added in the order they first occur.
        """
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
            absorbs, length, dist = self._classify(par, code, node)
            escape = np.zeros(len(new), bool)
            if self.ball_bound is not None:
                escape = ~absorbs & (length > self.ball_bound)
            keep = ~escape
            if reach is not None:
                keep &= absorbs | (dist <= reach)
            kept = np.flatnonzero(keep)
            nodes = node[kept]
            miss = np.flatnonzero(nodes < 0)
            nodes[miss] = tree.intern(par[kept[miss]], code[kept[miss]])
            self._grow()
            first = np.sort(np.unique(nodes, return_index=True)[1])
            at = kept[first]
            self._add(nodes[first], code[at], absorbs[at], dist[at])
            res = np.full(len(new), -2)
            res[escape] = -1
            res[kept] = self._state[nodes]
            out[new] = res
        return out.reshape(len(src), len(self._moves))

    def steps(self, n, prune=False, exact=True):
        """Yield (ids, nums, hits, escaped) after each of steps 1..n.

        ``ids`` are the in-flight states and ``nums`` their masses; ``hits``
        maps labels to the mass absorbed at this step, and ``escaped`` is
        the mass that left the ball at this step.  Exact mode keeps integer
        numerators (an object array) over ``denominator ** step``, with ids
        in the order the step's paths first reach them; float mode keeps
        the masses of ``float_weights``, with ids in state order and only
        where the mass is nonzero.  The states new to a step are expanded
        as one batch, and the step itself is one product over the rows of
        its states and one grouped sum: exact numerators grouped by a sort,
        float masses by one ``np.bincount`` with the escape sink in slot 0,
        which adds in (state, step) order.  With ``prune`` (exact mode
        only), a state farther from H_k than the steps left can cover (each
        step moves at most ``max_step_length``) is dropped, and not added:
        it cannot be absorbed in time, so the prune loses no absorbed mass.
        """
        weights = np.array(self.numerators if exact else self.float_weights,
                           dtype=object if exact else float)
        rows = np.zeros((0, len(weights)), np.int64)
        expanded = np.zeros(0, bool)
        ids, nums = np.zeros(1, np.int64), np.ones(1, dtype=weights.dtype)
        for step in range(1, n + 1):
            reach = (n - step) * self.max_step_length
            grow = self.size - len(rows)
            if grow:
                rows = np.concatenate([rows, np.zeros((grow, len(weights)), np.int64)])
                expanded = np.concatenate([expanded, np.zeros(grow, bool)])
            fresh = ids[~expanded[ids]]
            if len(fresh):
                rows[fresh] = self._expand(fresh, reach if prune else None)
                expanded[fresh] = True
            targets = rows.take(ids, axis=0).ravel()
            mass = (nums[:, None] * weights).ravel()
            if exact:
                escaped = mass[targets == -1].sum()
                live = np.flatnonzero(targets >= 0)
                order = live[np.argsort(targets[live], kind="stable")]
                targets = targets[order]
                starts = np.flatnonzero(np.diff(targets, prepend=-1))
                sums = np.add.reduceat(mass[order], starts) if len(starts) else mass[:0]
                targets, first = targets[starts], order[starts]
            else:
                sums = np.bincount(targets + 1, weights=mass, minlength=self.size + 1)
                escaped, sums = float(sums[0]), sums[1:]
                targets = np.flatnonzero(sums != 0)
                sums = sums[targets]
            absorbed = np.flatnonzero(self.absorbs[targets])
            hits = {
                self.labels[t]: v
                for t, v in zip(targets[absorbed].tolist(), sums[absorbed].tolist())
                if v
            }
            keep = ~self.absorbs[targets]
            if prune:
                keep &= self.dist[targets] <= reach
            keep = np.flatnonzero(keep)
            if exact:
                keep = keep[np.argsort(first[keep])]
            ids, nums = targets[keep], sums[keep]
            yield ids, nums, hits, escaped

    def absorb(self, n, exact=True):
        """(row, returned, in_flight, escaped, size) after n ``steps``.

        ``row`` maps labels to the absorbed masses, in label (state) order,
        and ``size`` counts the states interned.  Exact mode gives
        Fractions and prunes; float mode steps every state of the ball,
        and sums the returned and in-flight masses with ``math.fsum``.
        """
        zero = Fraction(0) if exact else 0.0
        row, escaped, scale = {}, zero, zero + 1  # scale: 1 / denominator**step
        nums = np.ones(1, dtype=object if exact else float)
        for _, nums, hits, esc in self.steps(n, prune=exact, exact=exact):
            if exact:
                scale /= self.denominator
            for label, v in hits.items():
                row[label] = row.get(label, zero) + v * scale
            escaped += esc * scale
            if not nums.any():
                break
        row = {label: row[label] for label in self.labels.values() if label in row}
        if exact:
            return row, sum(row.values(), zero), sum(nums) * scale, escaped, self.size
        return row, math.fsum(row.values()), math.fsum(nums), escaped, self.size


def _step_numerators(measure, r):
    """(denominator, numerators): r mu(s) is numerator / denominator for
    each step s in support order, exactly for the rational value of r."""
    rq = Fraction(r)
    denominator = measure.common_denominator() * rq.denominator
    return denominator, [int(rq * w * denominator) for _, w in measure.support]


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
    for step, (ids, nums, _, esc) in enumerate(op.steps(n), 1):
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
    """p_n(e,e) for n = 0..horizon, exact or float-log, with provenance."""

    horizon: int
    method: str  # "exact" | "algebraic"
    values: list = None  # exact Fractions, when method == "exact"
    log_values: np.ndarray = None

    def __post_init__(self):
        if self.log_values is None and self.values is not None:
            self.log_values = np.array(
                [math.log(v) if v > 0 else -math.inf for v in self.values]
            )


def return_probabilities(measure, horizon, method="exact"):
    """p_n(e,e) for n = 0..horizon: exact, or from the coefficients of the
    first-passage system (``method="algebraic"``, through ``route``)."""
    if method == "exact":
        vals = _exact_returns(measure, horizon)
        return ReturnSequence(horizon=horizon, method="exact", values=vals)
    if method == "algebraic":
        logs = measure.route.return_log_probs(horizon)
        return ReturnSequence(horizon=horizon, method="algebraic", log_values=logs)
    raise ValueError(f"unknown method {method!r}")


def _exact_returns(measure, horizon):
    """Exact p_n(e,e) for n = 0..horizon, meeting in the middle.

    p_{a+b}(e,e) = sum_g mu^{*a}(g) mu'^{*b}(g), where mu'(g) = mu(g^-1)
    is the reflected measure.  After step k of the path operator on mu,
    and of one on mu' (the same one when mu is symmetric), the pairs of
    powers (k, k-1) and (k, k) give p_{2k-1} and p_{2k} as integer sums
    over denominator**n.  So ceil(horizon/2) steps suffice and two
    in-flight levels per operator are kept.  The two operators share one
    word tree, so their states pair by node.  No ball bound is needed: k
    steps stay within k * max_step_length of e, and nothing escapes.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    k = (horizon + 1) // 2
    fwd = PathOperator(measure)
    if measure.is_symmetric():
        bwd = None
        steps = ((ids, nums, ids, nums) for ids, nums, _, _ in fwd.steps(k))
    else:
        # one word tree for both operators, so their states pair by node
        bwd = PathOperator(measure.reflected(), tree=fwd.tree)
        steps = (
            (ids, nums, ids_b, nums_b)
            for (ids, nums, _, _), (ids_b, nums_b, _, _)
            in zip(fwd.steps(k), bwd.steps(k))
        )
    vals = [Fraction(1)]
    prev_b = (np.zeros(1, np.int64), np.ones(1, dtype=object))
    for ids, nums, *cur_b in steps:
        consumed = fwd.size + (bwd.size if bwd is not None else 0)
        if consumed > ELEMENT_BUDGET:
            raise BudgetError(
                "return probabilities exceeded element budget",
                consumed=consumed,
                budget=ELEMENT_BUDGET,
            )
        if bwd is not None:
            ids = bwd.state_of(fwd.node[ids])
            nums = nums[ids >= 0]
            ids = ids[ids >= 0]
        for b_ids, b_nums in (prev_b, cur_b):
            n = len(vals)
            if n > horizon:
                break
            _, i, j = np.intersect1d(ids, b_ids, assume_unique=True, return_indices=True)
            vals.append(Fraction((nums[i] * b_nums[j]).sum(), fwd.denominator**n))
        prev_b = cur_b
    return vals


def detect_period(seq):
    """Period gcd{n >= 1 : p_n(e,e) > 0} over the available horizon."""
    positive = np.flatnonzero(seq.log_values[1 : seq.horizon + 1] > -math.inf) + 1
    if not len(positive):
        raise DegenerateInputError("no positive return probability found")
    return int(np.gcd.reduce(positive))

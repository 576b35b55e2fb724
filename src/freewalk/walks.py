"""Finitely supported measures, the truncated-ball path operator, and the
radial fast path.

Every truncated path sum in the package runs on one ``PathOperator``: the
convolution powers mu^{*n}, the first visits to an element, the first-return
kernels to a factor, and the reach check of a step measure.  It sends steps
that leave the word ball to an escape sink and harvests mass that reaches
an absorbing set (a factor, or one element).  Elements are nodes of a word
tree keyed by (prefix node, last syllable code), after the cut-vertex
structure of a free product (Woess 2000), and the ball is expanded one
level at a time in numpy: a step is a lookup in its syllable's merge
table, and no word is multiplied, measured or hashed.  The exact
propagator keeps integer numerators over a power denominator and does
each step as one product and one grouped sum over object arrays; the
float propagator applies the ball's weighted transition list once per
step.

Exact return probabilities meet in the middle: p_{a+b}(e,e) pairs mu^{*a}
with the powers of the reflected measure g -> mu(g^-1) (mu itself when it
is symmetric), so a horizon n takes ceil(n/2) steps and keeps no powers.
The radial path projects isotropic nearest-neighbor walks to a birth-death
chain on distances, checked once per measure; it is validated against the
full walk on an overlap window and runs in log-scaled floats for large
horizons.
"""

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    BudgetError,
    DegenerateInputError,
    GroupSpecError,
    NonRadialError,
)


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
        self._check_admissible_reach()

    def _check_admissible_reach(self):
        # Admissibility is undecidable in general at this layer; warn if the
        # support's closure misses part of the radius-3 ball.
        try:
            target = set(self.group.ball(3, metric="word", budget=200000))
        except BudgetError:
            return
        op = PathOperator(self, ball_bound=3)
        for _ in op.exact_steps(3 * max(1, self.max_step_length) + 3):
            pass
        if not target <= set(op.elements()):
            warnings.warn(
                f"measure {self.name or '<unnamed>'} may not be admissible: "
                "its support does not reach the full radius-3 ball",
                stacklevel=3,
            )

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
    def radial_chain(self):
        """``is_radial(self)``, checked once per measure."""
        return is_radial(self)

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

    ``exact_steps`` keeps integer numerators over ``denominator ** n``,
    with the rational r folded into the step numerators, and expands the
    states new at each step as one batch.  ``float_absorb`` expands the
    ball one level at a time and applies its transition list per step.
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
        rq = Fraction(r)
        self.denominator = measure.common_denominator() * rq.denominator
        self.numerators = [int(rq * w * self.denominator) for _, w in measure.support]
        self.float_weights = [float(r) * float(w) for _, w in measure.support]
        self._moves = [[self.tree.code_of(f, p) for f, p in s] for s, _ in measure.support]
        self._target = None if target is None else self.tree.node_of(target)
        if factor is not None:
            h = group.factors[factor]
            self._unit = (0,) * h.rank if h.kind == "lattice" else 0
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

    def exact_steps(self, n, prune=False):
        """Yield (ids, nums, hits, escaped) after each of steps 1..n.

        ``ids`` are the in-flight states, in the order the step's paths
        first reach them, and ``nums`` (an object array) their integer
        numerators; ``hits`` maps labels to the numerators absorbed at
        this step, and ``escaped`` is the numerator that left the ball at
        this step, all over ``denominator ** step``.  The states new to a
        step are expanded as one batch, and the step itself is one
        product and one grouped sum over the rows of its states.  With
        ``prune``, a state farther from H_k than the steps left can cover
        (each step moves at most ``max_step_length``) is dropped, and not
        added: it cannot be absorbed in time, so the prune loses no
        absorbed mass.
        """
        weights = np.array(self.numerators, dtype=object)
        rows = np.zeros((0, len(weights)), np.int64)
        expanded = np.zeros(0, bool)
        ids, nums = np.zeros(1, np.int64), np.ones(1, dtype=object)
        for step in range(1, n + 1):
            reach = (n - step) * self.max_step_length
            grow = self.size - len(rows)
            rows = np.concatenate([rows, np.zeros((grow, len(weights)), np.int64)])
            expanded = np.concatenate([expanded, np.zeros(grow, bool)])
            fresh = ids[~expanded[ids]]
            if len(fresh):
                rows[fresh] = self._expand(fresh, reach if prune else None)
                expanded[fresh] = True
            targets = rows[ids].ravel()
            mass = (nums[:, None] * weights).ravel()
            escaped = mass[targets == -1].sum()
            live = np.flatnonzero(targets >= 0)
            order = live[np.argsort(targets[live], kind="stable")]
            targets = targets[order]
            starts = np.flatnonzero(np.diff(targets, prepend=-1))
            sums = np.add.reduceat(mass[order], starts) if len(starts) else mass[:0]
            targets, first = targets[starts], order[starts]
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
            keep = keep[np.argsort(first[keep])]
            ids, nums = targets[keep], sums[keep]
            yield ids, nums, hits, escaped

    def float_absorb(self, n):
        """(absorbed, absorbed_total, in_flight, escaped) after n steps.

        Masses are floats; ``absorbed`` maps labels to masses.  The ball
        of a new operator is expanded level by level from e, each level's
        new in-flight states as one batch, into one list of weighted
        (source, destination) entries over the in-flight states (in the
        order they were reached) followed by the sinks: the escape sink,
        then the absorbing states.  A unit self-loop on each sink comes
        first, so the mass in it accumulates.  Each step is one
        ``np.bincount`` over that list, which adds into every destination
        in list order.
        """
        levels, frontier = [], np.zeros(1, np.int64)
        while len(frontier):
            first = self.size
            levels.append(self._expand(frontier).ravel())
            fresh = np.arange(first, self.size)
            frontier = fresh[~self.absorbs[fresh]]
        live = ~self.absorbs
        live[0] = True  # e starts every path
        pos = np.cumsum(live) - 1
        k = int(pos[-1]) + 1
        sink = k + np.cumsum(self.absorbs)  # the escape sink is k
        t = np.concatenate(levels)
        dst = np.where(t < 0, k, np.where(self.absorbs[t], sink[t], pos[t]))
        loops = np.arange(k, k + 1 + len(self.labels))
        size = len(loops) + k
        src = np.concatenate([loops, np.repeat(np.arange(k), len(self.numerators))])
        dst = np.concatenate([loops, dst])
        wgt = np.concatenate([np.ones(len(loops)), np.tile(self.float_weights, k)])
        x = np.zeros(size)
        x[0] = 1.0
        for _ in range(n):
            x = np.bincount(dst, weights=wgt * x[src], minlength=size)
            if not x[:k].any():
                break
        absorbed = {
            label: float(x[k + 1 + i])
            for i, label in enumerate(self.labels.values())
            if x[k + 1 + i]
        }
        return absorbed, float(x[k + 1:].sum()), float(x[:k].sum()), float(x[k])


@dataclass
class Distribution:
    """mu^{*n} restricted to a ball, as integer numerators over denom."""

    n: int
    denominator: int
    numerators: dict  # element -> int
    escaped_numerator: int

    def mass(self, elem):
        return Fraction(self.numerators.get(elem, 0), self.denominator)

    @property
    def escaped_mass(self):
        return Fraction(self.escaped_numerator, self.denominator)

    def total_mass(self):
        return Fraction(sum(self.numerators.values()), self.denominator)


def convolve_power(measure, n, ball_bound=None, budget=5 * 10**6):
    """Exact mu^{*n} on the ball; records escaped mass when truncated."""
    return convolve_powers(measure, n, ball_bound, budget)[-1]


def convolve_powers(measure, n, ball_bound=None, budget=5 * 10**6):
    """All mu^{*k} for k = 0..n in one pass of the path operator."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if ball_bound is None:
        ball_bound = n * measure.max_step_length
    op = PathOperator(measure, ball_bound)
    denom = 1
    escaped = 0
    out = [Distribution(0, 1, {measure.group.identity: 1}, 0)]
    for step, (ids, nums, _, esc) in enumerate(op.exact_steps(n), 1):
        if op.size > budget:
            raise BudgetError(
                "convolution exceeded element budget",
                consumed=op.size,
                budget=budget,
            )
        denom *= op.denominator
        escaped = escaped * op.denominator + esc
        numerators = dict(zip(op.elements(ids), nums.tolist()))
        out.append(Distribution(step, denom, numerators, escaped))
    return out


def first_visits(measure, gamma, n, ball_bound):
    """(denominator, hits): hits[k-1] / denominator**k = f_k(e, gamma).

    f_k is the mass of the paths that first reach gamma at step k, from the
    path operator with gamma as its absorbing set (for gamma = e, the first
    returns).  The list stops early once no mass is left in flight.
    """
    op = PathOperator(measure, ball_bound, target=gamma)
    hits = []
    for ids, _, step_hits, _ in op.exact_steps(n):
        hits.append(step_hits.get(gamma, 0))
        if not len(ids):
            break
    return op.denominator, hits


@dataclass
class RadialChain:
    """Distance projection of an isotropic nearest-neighbor walk.

    ``rows[m]`` holds exact (down, stay, up) step probabilities at distance m;
    the final row repeats for all larger distances.  ``checked_radius`` is the
    radius over which sphere-constancy and row stabilization were verified.
    """

    rows: list  # [(down, stay, up)] with rows[-1] reused beyond
    checked_radius: int

    def row(self, m):
        return self.rows[min(m, len(self.rows) - 1)]

    def float_rows(self, max_m):
        """(down, stay, up) as float arrays over distances 0..max_m."""
        rows = [[float(p) for p in self.row(m)] for m in range(max_m + 1)]
        return np.array(rows).T.copy()  # contiguous, for the vector loops

    def return_log_probs(self, horizon):
        """log p_n(e,e) for n = 0..horizon (-inf where zero), float path."""
        max_m = horizon + 1
        down, stay, up = self.float_rows(max_m)
        v = np.zeros(max_m + 1)
        v[0] = 1.0
        logscale = 0.0
        logs = np.full(horizon + 1, -np.inf)
        logs[0] = 0.0
        for n in range(1, horizon + 1):
            nv = stay * v
            nv[:-1] += down[1:] * v[1:]
            nv[1:] += up[:-1] * v[:-1]
            total = nv.sum()
            if total <= 0.0:
                v = nv
                continue
            v = nv / total
            logscale += math.log(total)
            if v[0] > 0.0:
                logs[n] = logscale + math.log(v[0])
        return logs

    def float_masses(self, horizon):
        """(masses, logscales): masses[n, m] * exp(logscales[n]) = p_n(0 -> m)."""
        max_m = horizon + 1
        down, stay, up = self.float_rows(max_m)
        masses = np.zeros((horizon + 1, max_m + 1))
        logscales = np.zeros(horizon + 1)
        v = np.zeros(max_m + 1)
        v[0] = 1.0
        masses[0] = v
        for n in range(1, horizon + 1):
            nv = stay * v
            nv[:-1] += down[1:] * v[1:]
            nv[1:] += up[:-1] * v[:-1]
            total = nv.sum()
            v = nv / total
            logscales[n] = logscales[n - 1] + math.log(total)
            masses[n] = v
        return masses, logscales


def is_radial(measure, check_radius=8, budget=10**6):
    """Distance-projection chain for mu, or None if the projection fails.

    Requires single-syllable support (plus possibly e) with every step moving
    distance by at most 1, constant transition profiles on each sphere, and
    row stabilization before ``check_radius`` so the last row can be repeated.
    """
    group = measure.group
    for g, _ in measure.support:
        if len(g) > 1 or (len(g) == 1 and group.word_length(g) != 1):
            return None
    try:
        ball = group.ball(check_radius, metric="word", budget=budget)
    except BudgetError:
        return None
    dist = {g: group.word_length(g) for g in ball}
    profiles = {}
    for g in ball:
        m = dist[g]
        if m >= check_radius:
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
    rows = [profiles[m] for m in range(check_radius)]
    # need at least two identical trailing rows to certify the repeated tail
    if len(rows) < 3 or rows[-1] != rows[-2]:
        return None
    return RadialChain(rows=rows, checked_radius=check_radius)


@dataclass
class ReturnSequence:
    """p_n(e,e) for n = 0..horizon, exact or float-log, with provenance."""

    horizon: int
    method: str  # "exact" | "radial"
    values: list = None  # exact Fractions, when method == "exact"
    log_values: np.ndarray = None

    def __post_init__(self):
        if self.log_values is None and self.values is not None:
            self.log_values = np.array(
                [math.log(v) if v > 0 else -math.inf for v in self.values]
            )

    def nonzero_indices(self):
        return [n for n in range(1, self.horizon + 1) if self.log_values[n] > -math.inf]


def return_probabilities(measure, horizon, method="exact", budget=5 * 10**6):
    """p_n(e,e) for n = 0..horizon, exact or by the radial chain."""
    if method == "exact":
        vals = _exact_returns(measure, horizon, budget)
        return ReturnSequence(horizon=horizon, method="exact", values=vals)
    if method == "radial":
        chain = measure.radial_chain
        if chain is None:
            raise NonRadialError(
                "radial method requested but the measure has no valid "
                "distance projection"
            )
        logs = chain.return_log_probs(horizon)
        return ReturnSequence(horizon=horizon, method="radial", log_values=logs)
    raise ValueError(f"unknown method {method!r}")


def _exact_returns(measure, horizon, budget):
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
        steps = ((ids, nums, ids, nums) for ids, nums, _, _ in fwd.exact_steps(k))
    else:
        # one word tree for both operators, so their states pair by node
        bwd = PathOperator(measure.reflected(), tree=fwd.tree)
        steps = (
            (ids, nums, ids_b, nums_b)
            for (ids, nums, _, _), (ids_b, nums_b, _, _)
            in zip(fwd.exact_steps(k), bwd.exact_steps(k))
        )
    vals = [Fraction(1)]
    prev_b = (np.zeros(1, np.int64), np.ones(1, dtype=object))
    for ids, nums, *cur_b in steps:
        consumed = fwd.size + (bwd.size if bwd is not None else 0)
        if consumed > budget:
            raise BudgetError(
                "return probabilities exceeded element budget",
                consumed=consumed,
                budget=budget,
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


@dataclass(frozen=True)
class PeriodInfo:
    period: int


def detect_period(seq):
    """Period gcd{n >= 1 : p_n(e,e) > 0} over the available horizon."""
    positive = seq.nonzero_indices()
    if not positive:
        raise DegenerateInputError("no positive return probability found")
    p = 0
    for n in positive:
        p = math.gcd(p, n)
    return PeriodInfo(period=p)

"""Exact path sums that the first-passage system is held to.

The package has one engine, the first-passage system
(``StepMeasure.route``).  The references here share no code with it:
path sums over a word tree, after the cut-vertex structure of a free
product (Woess 2000), the word ball, the growth series of the spheres and
the radial distance projection.  Unlike ``oracles`` they use the
package's groups and measures; they reach measures the system does not
cover, which the package refuses.

- ``word_length``, ``word_ball``, ``sphere_sizes`` and
  ``enumerate_sphere``: the word metric, its ball, its sphere sizes from
  the growth series, and the relative sphere of ``Automaton.sphere_rows``
  as elements.
- ``convolve_powers``: the exact powers mu^{*n} in a word ball, on one
  ``PathOperator`` over a ``_WordTree``.
- ``is_radial``: the birth-death projection of an isotropic
  nearest-neighbor walk (``walks.RadialChain``).
- ``exact_returns``: p_n(e,e) as Fractions, meeting in the middle over the
  powers of one path operator, each state paired with its inverse's on
  the word tree.
- ``reaches_ball``: whether the walk reaches all of the radius-3 ball.
- ``StateChain``: the first-return kernel to a factor H_k by path sums over
  a word ball, H_k absorbing, exact (with a lossless prune) or in floats.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from freewalk.errors import BudgetError
from freewalk.walks import RadialChain, StepMeasure

# largest number of path-operator states an exact convolution may hold
ELEMENT_BUDGET = 5 * 10**6
# radius of the word ball over which ``is_radial`` checks the projection
RADIAL_CHECK_RADIUS = 8


def factor_length(factor, payload):
    """The word length of a payload in its factor: by breadth-first search
    on a finite factor (``FiniteFactor.lengths``), the l1 norm on a lattice."""
    if factor.kind == "lattice":
        return sum(abs(a) for a in payload)
    return factor.lengths[payload]


def word_length(group, g):
    """The word length d(e, g): the sum of its syllables' factor lengths."""
    return sum(factor_length(group.factors[fid], p) for fid, p in g)


def max_step_length(measure):
    """The largest word length of a step of the measure."""
    return max((word_length(measure.group, g) for g, _ in measure.support), default=0)


def word_ball(group, radius, budget=10**7):
    """All elements within word distance ``radius`` of e, canonically
    ordered.  Raises BudgetError instead of silently truncating."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    gens = group.generators()
    seen = {(): 0}
    frontier = [()]
    for n in range(radius):
        nxt = []
        for g in frontier:
            for s in gens:
                h = group.multiply(g, s)
                if h not in seen:
                    seen[h] = n + 1
                    nxt.append(h)
                    if len(seen) > budget:
                        raise BudgetError(
                            "word ball exceeded element budget",
                            consumed=len(seen),
                            budget=budget,
                        )
        frontier = nxt
    return sorted(seen, key=group.canonical_key)


def sphere_sizes(group, n_max):
    """|S_m| for m = 0..n_max, from the growth series of the free product.

    Each factor's growth series S_i is a ratio A_i/B_i of integer
    polynomials: its length counts over 1 for a finite factor, and
    ((1+z)/(1-z))^d for Z^d.  The free product's series satisfies
    1/S = sum_i 1/S_i - (N-1) (Woess 2000, on free products).  Summed as
    one fraction p/q, that is 1 at z = 0, so S = q/p gives the sizes by an
    integer linear recurrence.  It turns the radial distance chain's
    sphere masses into p_n(e, gamma).
    """
    p = np.array([1 - len(group.factors)], dtype=object)
    q = np.array([1], dtype=object)
    for factor in group.factors:
        if factor.kind == "lattice":
            a = np.array([math.comb(factor.rank, i) for i in range(factor.rank + 1)])
            b = a * (-1) ** np.arange(factor.rank + 1)
        else:
            a, b = np.bincount(factor.lengths), np.array([1])
        qb = np.convolve(q, b)
        p, q = np.convolve(p, a), np.convolve(q, a)
        p[: len(qb)] += qb  # p/q + b/a, and deg(q b) <= deg(p a)
    p, q, sizes = p.tolist(), q.tolist(), []
    for n in range(n_max + 1):
        s = q[n] if n < len(q) else 0
        for k in range(1, min(n, len(p) - 1) + 1):
            s -= p[k] * sizes[n - k]
        sizes.append(s)
    return sizes


def enumerate_sphere(automaton, n):
    """Yield (path, element) over the radius-n relative sphere, truncated.

    A path spells its element syllable by syllable, so the two coincide.
    Canonical order (``Automaton.sphere_rows``); each element appears
    exactly once.
    """
    symbols = automaton.symbols()
    for row in automaton.sphere_rows(n).tolist():
        g = tuple(symbols[i] for i in row)
        yield g, g


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
            length = factor_length(self.group.factors[fid], payload)
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

    def inverses(self, nodes):
        """The node of each node's inverse, or -1 where the tree lacks it.

        A word's syllable codes are read up the parent array, last
        syllable first; their inverse codes spell the inverse word first
        syllable first, and it is walked down from the root by one
        ``lookup`` per syllable.
        """
        factors = self.group.factors
        inverse = np.array([0] + [self._codes.get((f, factors[f].inv(p)), -1)
                                  for f, p in self.syllables[1:]])
        out, up = np.zeros(len(nodes), np.int64), nodes
        while up.any():
            out = np.where(up > 0, self.lookup(out, inverse[self.code[up]]), out)
            up = self.parent[up]
        return out


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
        ball_bound = n * max_step_length(measure)
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


def is_radial(measure):
    """Distance-projection chain for mu, or None if the projection fails.

    Requires single-syllable support (plus possibly e) with every step moving
    distance by at most 1, constant transition profiles on each sphere, and
    row stabilization before ``RADIAL_CHECK_RADIUS`` so the last row can be
    repeated.
    """
    group = measure.group
    for g, _ in measure.support:
        if len(g) > 1 or (len(g) == 1 and word_length(group, g) != 1):
            return None
    try:
        ball = word_ball(group, RADIAL_CHECK_RADIUS, budget=10**6)
    except BudgetError:
        return None
    dist = {g: word_length(group, g) for g in ball}
    profiles = {}
    for g in ball:
        m = dist[g]
        if m >= RADIAL_CHECK_RADIUS:
            continue
        down = stay = up = Fraction(0)
        for s, w in measure.support:
            h = group.multiply(g, s)
            dh = word_length(group, h)
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


def reflected(measure):
    """The measure g -> mu(g^-1) of the reversed walk."""
    weights = {measure.group.invert(g): w for g, w in measure.support}
    return StepMeasure(measure.group, weights)


def exact_returns(measure, horizon):
    """Exact p_n(e,e) for n = 0..horizon, meeting in the middle.

    p_{a+b}(e,e) = sum_g mu^{*a}(g) mu^{*b}(g^-1), so the powers up to
    ceil(horizon/2) on one ``PathOperator`` give every p_n, with
    a = ceil(n/2) and b = floor(n/2).  The halves are paired by state:
    each state is mapped once to the state of its inverse, on the tree's
    node arrays (``_WordTree.inverses``; to itself when mu is symmetric),
    and a power's numerators are looked up at those states by one sorted
    search.  The powers' ball holds every path, so
    nothing escapes.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    k = (horizon + 1) // 2
    op = PathOperator(measure, k * max_step_length(measure))
    powers = [(np.zeros(1, np.int64), np.ones(1, dtype=object))]
    powers += [(ids, nums) for ids, nums, _ in op.steps(k)]
    if reflected(measure).weights == measure.weights:
        partner = np.arange(op.size)
    else:
        inverse = op.tree.inverses(op.node)
        partner = np.where(inverse >= 0, op._state[inverse], -1)
    by_state = []  # each power sorted by state, for the sorted search
    for ids, nums in powers:
        order = np.argsort(ids)
        by_state.append((ids[order], nums[order]))
    vals = []
    for n in range(horizon + 1):
        ids, nums = powers[(n + 1) // 2]
        keys, values = by_state[n // 2]
        want = partner[ids]
        at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        hit = keys[at] == want
        top = (nums[hit] * values[at[hit]]).sum()
        vals.append(Fraction(int(top), op.denominator**n))
    return vals


def reaches_ball(measure):
    """Whether the walk reaches all of the radius-3 ball: the union of the
    supports of its powers, stepping inside the ball of radius
    3 + max_step_length - 1, so that a word of the 3-ball may pass through
    an element a step longer than it; True where the ball is past its
    budget."""
    try:
        target = set(word_ball(measure.group, 3, budget=200000))
    except BudgetError:
        return True
    step = max(1, max_step_length(measure))
    powers = convolve_powers(measure, 3 * step + 3, ball_bound=2 + step)
    return target <= {g for d in powers for g in d.numerators}


def _step_numerators(measure, r):
    """(denominator, numerators): r mu(s) is numerator / denominator for
    each step s in support order, exactly for the rational value of r."""
    rq = Fraction(r)
    denominator = measure.common_denominator() * rq.denominator
    return denominator, [int(rq * w * denominator) for _, w in measure.support]


class StateChain:
    """Paths of weight r^n mu(s_1) ... mu(s_n) from e, truncated to a word
    ball, with the factor H_k absorbing (labelled by payload).

    States are nodes of a ``_WordTree``, numbered in the order paths
    first reach them; the targets' nodes, lengths, absorbing labels, ball
    test and distances to H_k come from numpy arrays.  A target that
    leaves the word ball of radius ``ball_bound`` (None: no ball) without
    being absorbed goes to the escape sink (-1).  Mass that reaches an
    absorbing state is harvested under its label and not propagated; e
    starts every path even though it is absorbing.
    """

    def __init__(self, measure, ball_bound, r, factor):
        group = measure.group
        self.tree = _WordTree(group)
        self.max_step_length = max_step_length(measure)
        self.ball_bound = ball_bound
        self.factor = factor
        self.denominator, self.numerators = _step_numerators(measure, r)
        self.float_weights = [float(r) * float(w) for _, w in measure.support]
        self._moves = [[self.tree.code_of(f, p) for f, p in s] for s, _ in measure.support]
        self._unit = group.factors[factor].identity
        self.node = np.zeros(0, np.int64)  # state id -> node
        self._state = np.zeros(0, np.int64)  # node -> state id, or -1
        self.absorbs = np.zeros(0, bool)
        self.labels = {}  # absorbing state id -> label, in id order
        self.dist = np.zeros(0, np.int64)  # to H_k, for the prune
        self.head = np.zeros(1, np.int64)  # tree node -> code of its first syllable
        e = np.zeros(1, np.int64)
        absorbs, _, dist = self._classify(e, e)
        self._grow()
        self._add(e, e, absorbs, dist)

    @property
    def size(self):
        return len(self.node)

    def elements(self, ids=None):
        """The elements of the given states (all by default), as tuples."""
        nodes = self.node if ids is None else self.node[ids]
        return self.tree.words(nodes.tolist())

    def _grow(self):
        missing = self.tree.size - len(self._state)
        if missing:
            self._state = np.concatenate([self._state, np.full(missing, -1)])

    def _classify(self, par, code):
        """(absorbs, length, dist) of the pairs (par, code)."""
        tree, k = self.tree, self.factor
        factor, syllable_length = tree.syllable_factor, tree.syllable_length
        length = tree.length[par] + syllable_length[code]
        absorbs = (code == 0) | ((par == 0) & (factor[code] == k))
        if len(self.head) < tree.size:  # a node's parent is made before it
            heads = self.head.tolist()
            for p, c in zip(tree.parent[len(heads):].tolist(), tree.code[len(heads):].tolist()):
                heads.append(heads[p] if p else c)
            self.head = np.array(heads)
        head = np.where(par == 0, code, self.head[par])
        return absorbs, length, length - np.where(factor[head] == k, syllable_length[head], 0)

    def _add(self, nodes, code, absorbs, dist):
        first = self.size
        self._state[nodes] = first + np.arange(len(nodes))
        self.node = np.concatenate([self.node, nodes])
        self.absorbs = np.concatenate([self.absorbs, absorbs])
        self.dist = np.concatenate([self.dist, dist])
        for i in np.flatnonzero(absorbs).tolist():
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
            absorbs, length, dist = self._classify(par, code)
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
        where the mass is nonzero, grouped by one ``np.bincount`` with the
        escape sink in slot 0, which adds in (state, step) order.  With
        ``prune`` (exact mode only), a state farther from H_k than the steps
        left can cover (each step moves at most ``max_step_length``) is
        dropped, and not added: it cannot be absorbed in time, so the prune
        loses no absorbed mass.
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

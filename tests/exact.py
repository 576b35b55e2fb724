"""Exact path sums that the first-passage system is held to.

These run on the package's word tree and convolution powers, so unlike
``oracles`` they are not independent of it; they reach measures the
system does not cover, which the package refuses.

- ``exact_returns``: p_n(e,e) as Fractions, meeting in the middle over the
  powers of one path operator, paired by state.
- ``reaches_ball``: whether the walk reaches all of the radius-3 ball.
- ``StateChain``: the first-return kernel to a factor H_k by path sums over
  a word ball, H_k absorbing, exact (with a lossless prune) or in floats.
"""

import math
from fractions import Fraction

import numpy as np

from freewalk.errors import BudgetError
from freewalk.walks import PathOperator, StepMeasure, _WordTree, convolve_powers


def reflected(measure):
    """The measure g -> mu(g^-1) of the reversed walk."""
    weights = {measure.group.invert(g): w for g, w in measure.support}
    return StepMeasure(measure.group, weights)


def exact_returns(measure, horizon):
    """Exact p_n(e,e) for n = 0..horizon, meeting in the middle.

    p_{a+b}(e,e) = sum_g mu^{*a}(g) mu^{*b}(g^-1), so the powers up to
    ceil(horizon/2) on one ``PathOperator`` give every p_n, with
    a = ceil(n/2) and b = floor(n/2).  The halves are paired by state:
    each state is mapped once to the state of its inverse (to itself when
    mu is symmetric), and a power's numerators are looked up at those
    states by one sorted search.  The powers' ball holds every path, so
    nothing escapes.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    k = (horizon + 1) // 2
    op = PathOperator(measure, k * measure.max_step_length)
    powers = [(np.zeros(1, np.int64), np.ones(1, dtype=object))]
    powers += [(ids, nums) for ids, nums, _ in op.steps(k)]
    if reflected(measure).weights == measure.weights:
        partner = np.arange(op.size)
    else:
        elements = op.elements(np.arange(op.size))
        state = {g: i for i, g in enumerate(elements)}
        factors = measure.group.factors
        inverse = {syl: (syl[0], factors[syl[0]].inv(syl[1])) for syl in op.tree.syllables[1:]}
        partner = np.array([state.get(tuple(inverse[x] for x in reversed(g)), -1)
                            for g in elements])
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
        target = set(measure.group.ball(3, budget=200000))
    except BudgetError:
        return True
    step = max(1, measure.max_step_length)
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

    States are nodes of a ``walks._WordTree``, numbered in the order paths
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
        self.max_step_length = measure.max_step_length
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

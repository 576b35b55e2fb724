"""Finitely supported measures, the truncated-ball path operator, and the
radial fast path.

Every truncated path sum in the package runs on one ``PathOperator``: the
convolution powers mu^{*n}, the first visits to an element, the first-return
kernels to a factor, and the reach check of a step measure.  It interns
elements once, sends steps that leave the word ball to an escape sink and
harvests mass that reaches an absorbing set.  Its exact propagator keeps
integer numerators over a power denominator, so only integer arithmetic
happens in the hot loop; its float propagator applies the ball's weighted
transition list once per step.

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
from array import array
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
        if not target <= set(op.elems):
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


class PathOperator:
    """Paths of weight r^n mu(s_1) ... mu(s_n) from e, truncated to a ball.

    Elements are interned once, in the order the paths first reach them,
    with their absorbing label and distance to the absorbing set from
    ``absorb(elem, word_length)``; the label is None off the set, and the
    set is empty without ``absorb``.  A step lands on an interned element
    or, when it leaves the word ball of radius ``ball_bound`` without being
    absorbed, in the escape sink (id -1).  Mass that reaches an absorbing
    element is harvested under its label and not propagated; e starts
    every path even when it is absorbing.

    ``exact_steps`` keeps integer numerators over ``denominator ** n``, with
    the rational r folded into the step numerators; ``float_absorb``
    expands the whole ball once and applies its transition list per step.
    """

    def __init__(self, measure, ball_bound=None, r=1, absorb=None):
        self.group = measure.group
        self.max_step_length = measure.max_step_length
        self.ball_bound = ball_bound
        self.absorb = absorb
        rq = Fraction(r)
        self.denominator = measure.common_denominator() * rq.denominator
        self.steps = [(s, int(rq * w * self.denominator)) for s, w in measure.support]
        self.float_weights = [float(r) * float(w) for _, w in measure.support]
        self.elems, self.ids, self.length, self.label, self.dist = [], {}, [], [], []
        self.absorbing = []  # ids with a label, in interning order
        self._rows = []
        self._intern(self.group.identity, 0)

    def _intern(self, elem, length, reach=None):
        """Id of a new element, -1 if it escapes, None if farther than
        ``reach`` from the absorbing set."""
        label, dist = self.absorb(elem, length) if self.absorb else (None, 0)
        if label is None and self.ball_bound is not None and length > self.ball_bound:
            return -1
        if label is None and reach is not None and dist > reach:
            return None
        eid = len(self.elems)
        self.ids[elem] = eid
        self.elems.append(elem)
        self.length.append(length)
        self.label.append(label)
        self.dist.append(dist)
        self._rows.append(None)
        if label is not None:
            self.absorbing.append(eid)
        return eid

    def _row(self, eid, reach=None):
        """[(target id, step numerator)] for the steps from eid within ``reach``."""
        group, g, length = self.group, self.elems[eid], self.length[eid]
        row = []
        for s, num in self.steps:
            h = group.multiply(g, s)
            tid = self.ids.get(h)
            if tid is None:
                # a step of k syllables rewrites at most g's last k syllables
                j = max(len(g) - len(s), 0)
                delta = group.word_length(h[j:]) - group.word_length(g[j:])
                tid = self._intern(h, length + delta, reach)
            if tid is not None:
                row.append((tid, num))
        return row

    def exact_steps(self, n, prune=False):
        """Yield (in_flight, hits, escaped) after each of steps 1..n.

        ``in_flight`` maps ids to integer numerators, ``hits`` maps labels
        to the numerators absorbed at this step, and ``escaped`` is the
        numerator that left the ball at this step, all over
        ``denominator ** step``.  With ``prune``, an element farther from
        the absorbing set than the steps left can cover (each step moves at
        most ``max_step_length``) is dropped, and not interned: it cannot
        be absorbed in time, so the prune loses no absorbed mass.
        """
        rows = self._rows
        cur = {0: 1}
        for step in range(1, n + 1):
            reach = (n - step) * self.max_step_length
            nxt = {}
            escaped = 0
            for eid, num in cur.items():
                row = rows[eid]
                if row is None:
                    row = rows[eid] = self._row(eid, reach if prune else None)
                for tid, wnum in row:
                    if tid < 0:
                        escaped += num * wnum
                    else:
                        nxt[tid] = nxt.get(tid, 0) + num * wnum
            hits = {}
            for aid in self.absorbing:
                hit = nxt.pop(aid, 0)
                if hit:
                    hits[self.label[aid]] = hit
            if prune:
                dist = self.dist
                nxt = {t: v for t, v in nxt.items() if dist[t] <= reach}
            cur = nxt
            yield cur, hits, escaped

    def float_absorb(self, n):
        """(absorbed, absorbed_total, in_flight, escaped) after n steps.

        Masses are floats; ``absorbed`` maps labels to masses.  The ball is
        expanded once, in breadth-first order, into one list of weighted
        (source, destination) entries over the in-flight states followed by
        the sinks: the escape sink, then the labels.  A unit self-loop on
        each sink comes first, so the mass in it accumulates.  Each step is
        one ``np.bincount`` over that list, which adds into every
        destination in list order.
        """
        spos = {0: 0}  # in-flight id -> position; e starts every path
        sinks = {-1: 0}
        sinks.update((aid, i + 1) for i, aid in enumerate(self.absorbing))
        src, dst, wgt = array("q"), array("q"), array("d")
        frontier = [0]
        while frontier:
            nxt = []
            for eid in frontier:
                for (tid, _), w in zip(self._row(eid), self.float_weights):
                    if tid < 0 or self.label[tid] is not None:
                        d = -1 - sinks.setdefault(tid, len(sinks))
                    elif tid in spos:
                        d = spos[tid]
                    else:
                        d = spos[tid] = len(spos)
                        nxt.append(tid)
                    src.append(spos[eid])
                    dst.append(d)
                    wgt.append(w)
            frontier = nxt
        k, size = len(spos), len(spos) + len(sinks)
        loops = np.arange(k, size)
        dst = np.asarray(dst)
        dst = np.concatenate([loops, np.where(dst < 0, k - 1 - dst, dst)])
        src = np.concatenate([loops, src])
        wgt = np.concatenate([np.ones(len(loops)), wgt])
        x = np.zeros(size)
        x[0] = 1.0
        for _ in range(n):
            x = np.bincount(dst, weights=wgt * x[src], minlength=size)
            if not x[:k].any():
                break
        absorbed = {
            self.label[a]: float(x[k + i])
            for a, i in sinks.items()
            if a >= 0 and x[k + i]
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
    for step, (cur, _, esc) in enumerate(op.exact_steps(n), 1):
        if len(op.elems) > budget:
            raise BudgetError(
                "convolution exceeded element budget",
                consumed=len(op.elems),
                budget=budget,
            )
        denom *= op.denominator
        escaped = escaped * op.denominator + esc
        numerators = {op.elems[eid]: num for eid, num in cur.items()}
        out.append(Distribution(step, denom, numerators, escaped))
    return out


def first_visits(measure, gamma, n, ball_bound):
    """(denominator, hits): hits[k-1] / denominator**k = f_k(e, gamma).

    f_k is the mass of the paths that first reach gamma at step k, from the
    path operator with gamma as its absorbing set (for gamma = e, the first
    returns).  The list stops early once no mass is left in flight.
    """
    group = measure.group

    def absorb(elem, length):
        return (elem, 0) if elem == gamma else (None, group.dist(elem, gamma))

    op = PathOperator(measure, ball_bound, absorb=absorb)
    hits = []
    for cur, step_hits, _ in op.exact_steps(n):
        hits.append(step_hits.get(gamma, 0))
        if not cur:
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
    in-flight dicts per operator are kept.  No ball bound is needed: k
    steps stay within k * max_step_length of e, and nothing escapes.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    k = (horizon + 1) // 2
    fwd = PathOperator(measure)
    if measure.is_symmetric():
        bwd, pair = fwd, None
        steps = ((cur, cur) for cur, _, _ in fwd.exact_steps(k))
    else:
        bwd, pair, paired = PathOperator(measure.reflected()), [], 0
        steps = (
            (cur, cur_b)
            for (cur, _, _), (cur_b, _, _)
            in zip(fwd.exact_steps(k), bwd.exact_steps(k))
        )
    vals = [Fraction(1)]
    prev_b = {0: 1}
    for cur, cur_b in steps:
        consumed = len(fwd.elems) + (len(bwd.elems) if pair is not None else 0)
        if consumed > budget:
            raise BudgetError(
                "return probabilities exceeded element budget",
                consumed=consumed,
                budget=budget,
            )
        if pair is not None:
            # pair[i] is the bwd id of fwd's element i, or -1; each element
            # new to either operator is looked up once in the other
            pair.extend(bwd.ids.get(g, -1) for g in fwd.elems[len(pair):])
            for j in range(paired, len(bwd.elems)):
                i = fwd.ids.get(bwd.elems[j])
                if i is not None:
                    pair[i] = j
            paired = len(bwd.elems)
        for b_side in (prev_b, cur_b):
            n = len(vals)
            if n > horizon:
                break
            if pair is None:
                num = sum(v * b_side.get(i, 0) for i, v in cur.items())
            else:
                num = sum(v * b_side.get(pair[i], 0) for i, v in cur.items())
            vals.append(Fraction(num, fwd.denominator**n))
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

"""Free products of finite groups and free-abelian lattices.

Elements are kept in normal form: a tuple of syllables ``(factor_id, payload)``
with adjacent syllables from distinct factors and no identity syllables.  The
empty tuple is the group identity.  The word metric ``d`` (sum of factor word
lengths) has its balls here.  The relative metric ``d_hat`` is the
syllable count, so the relative length of a normal form is its ``len``: the
graph metric of the Cayley graph with every factor added wholesale to the
generating set, whose capped spheres ``automaton`` builds as the paths of the
coded shift.
"""

import itertools
import warnings
from collections import deque

from .errors import BudgetError, GroupSpecError

_ASSOC_CHECK_MAX = 64


class FiniteFactor:
    """A finite group given by its multiplication table.

    Convention: index 0 is the identity.  ``generators`` is the declared
    symmetric generating subset; word lengths of all elements are derived from
    it by breadth-first search at construction time.
    """

    kind = "finite"
    identity = 0

    def __init__(self, mult_table, generators, name=""):
        self.name = name
        self.mult = tuple(tuple(row) for row in mult_table)
        n = len(self.mult)
        self.order = n
        if n == 0 or any(len(row) != n for row in self.mult):
            raise GroupSpecError("multiplication table must be square and non-empty")
        if any(not (0 <= v < n) for row in self.mult for v in row):
            raise GroupSpecError("multiplication table entries out of range")
        if any(self.mult[0][i] != i or self.mult[i][0] != i for i in range(n)):
            raise GroupSpecError("index 0 must act as the identity")
        inv = [None] * n
        for i in range(n):
            for j in range(n):
                if self.mult[i][j] == 0:
                    inv[i] = j
        if any(v is None for v in inv):
            raise GroupSpecError("some element has no inverse")
        self.inv_table = tuple(inv)
        if n <= _ASSOC_CHECK_MAX:
            for a, b, c in itertools.product(range(n), repeat=3):
                if self.mult[self.mult[a][b]][c] != self.mult[a][self.mult[b][c]]:
                    raise GroupSpecError(
                        "multiplication table is not associative at "
                        f"({a},{b},{c})"
                    )
        gens = sorted(set(generators))
        if 0 in gens:
            raise GroupSpecError("identity cannot be a declared generator")
        if any(not (0 < g < n) for g in gens):
            raise GroupSpecError("generator index out of range")
        if sorted(self.inv_table[g] for g in gens) != gens:
            raise GroupSpecError("generating subset must be symmetric")
        self.generators = tuple(gens)
        self.lengths = self._bfs_lengths()
        if any(l is None for l in self.lengths):
            raise GroupSpecError("declared generators do not generate the factor")

    def _bfs_lengths(self):
        lengths = [None] * self.order
        lengths[0] = 0
        queue = deque([0])
        while queue:
            x = queue.popleft()
            for g in self.generators:
                y = self.mult[x][g]
                if lengths[y] is None:
                    lengths[y] = lengths[x] + 1
                    queue.append(y)
        return tuple(lengths)

    def mul(self, x, y):
        return self.mult[x][y]

    def inv(self, x):
        return self.inv_table[x]

    def length(self, x):
        return self.lengths[x]

    def is_identity(self, x):
        return x == 0

    def nontrivial_elements(self, max_length=None):
        """Non-identity payloads, optionally capped by factor word length."""
        for x in range(1, self.order):
            if max_length is None or self.lengths[x] <= max_length:
                yield x

    def generator_payloads(self):
        return self.generators


class LatticeFactor:
    """Z^d with generators the +/- unit vectors; word length is the l1 norm."""

    kind = "lattice"

    def __init__(self, rank, name=""):
        if rank < 1:
            raise GroupSpecError("lattice rank must be >= 1")
        self.rank = rank
        self.name = name
        self.identity = (0,) * rank

    def mul(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def inv(self, x):
        return tuple(-a for a in x)

    def length(self, x):
        return sum(abs(a) for a in x)

    def is_identity(self, x):
        return all(a == 0 for a in x)

    def nontrivial_elements(self, max_length=None):
        if max_length is None:
            raise BudgetError("lattice factor enumeration requires a length cap")
        for vec in _lattice_ball(self.rank, max_length):
            if any(vec):
                yield vec

    def generator_payloads(self):
        out = []
        for i in range(self.rank):
            e = [0] * self.rank
            e[i] = 1
            out.append(tuple(e))
            e = [0] * self.rank
            e[i] = -1
            out.append(tuple(e))
        return tuple(out)


def _lattice_ball(rank, radius):
    """All integer vectors with l1 norm <= radius, in lexicographic order."""
    if rank == 0:
        yield ()
        return
    for head in range(-radius, radius + 1):
        for tail in _lattice_ball(rank - 1, radius - abs(head)):
            yield (head,) + tail


def cyclic_factor(n, name=""):
    """Z/n with generators {1, n-1} (a single involution when n = 2)."""
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    gens = [1] if n == 2 else [1, n - 1]
    return FiniteFactor(table, gens, name=name or f"Z{n}")


class FreeProduct:
    """A free product H_1 * ... * H_N with exact normal-form arithmetic."""

    def __init__(self, factors, name="", warn_elementary=True):
        factors = tuple(factors)
        if len(factors) < 2:
            raise GroupSpecError("a free product needs at least 2 factors")
        self.factors = factors
        self.name = name
        self.identity = ()
        self.non_elementary = not (
            len(factors) == 2
            and all(f.kind == "finite" and f.order == 2 for f in factors)
        )
        if warn_elementary and not self.non_elementary:
            warnings.warn(
                "Z/2 * Z/2 is virtually cyclic; downstream asymptotic checks "
                "assume a non-elementary group",
                stacklevel=2,
            )

    # -- syllable-level arithmetic ------------------------------------------

    def multiply(self, a, b):
        """Normal form of a*b; reduces across the junction only."""
        out = list(a)
        for fid, payload in b:
            if out and out[-1][0] == fid:
                factor = self.factors[fid]
                merged = factor.mul(out[-1][1], payload)
                if factor.is_identity(merged):
                    out.pop()
                else:
                    out[-1] = (fid, merged)
            else:
                out.append((fid, payload))
        return tuple(out)

    def invert(self, a):
        return tuple(
            (fid, self.factors[fid].inv(payload)) for fid, payload in reversed(a)
        )

    def is_valid(self, a):
        for i, (fid, payload) in enumerate(a):
            if not (0 <= fid < len(self.factors)):
                return False
            if self.factors[fid].is_identity(payload):
                return False
            if i > 0 and a[i - 1][0] == fid:
                return False
        return True

    # -- metrics ------------------------------------------------------------

    def word_length(self, a):
        return sum(self.factors[fid].length(p) for fid, p in a)

    def canonical_key(self, a):
        """Sort key: (syllable count, factor ids, payload keys)."""
        return (
            len(a),
            tuple(fid for fid, _ in a),
            tuple(self._payload_key(fid, p) for fid, p in a),
        )

    def _payload_key(self, fid, payload):
        if self.factors[fid].kind == "lattice":
            return tuple(payload)
        return (payload,)

    # -- generators and enumeration -----------------------------------------

    def generators(self):
        """The relative generating set S: union of the factor generators."""
        out = []
        for fid, factor in enumerate(self.factors):
            for p in factor.generator_payloads():
                out.append(((fid, p),))
        return out

    def ball(self, radius, budget=10**7):
        """All elements within word distance ``radius`` of e, canonically
        ordered.  Raises BudgetError instead of silently truncating."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        return sorted(self._word_ball(radius, budget), key=self.canonical_key)

    def _word_ball(self, radius, budget):
        gens = self.generators()
        seen = {(): 0}
        frontier = [()]
        for n in range(radius):
            nxt = []
            for g in frontier:
                for s in gens:
                    h = self.multiply(g, s)
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
        return list(seen)

"""The relative automatic structure of a free product.

Vertices are a start vertex plus one vertex per factor; an edge into the
factor-k vertex exists from every other vertex and is labeled by a nontrivial
element of H_k.  Reading edge labels along a path from the start vertex spells
an alternating normal form, so paths of length n starting there biject with
the relative sphere of radius n.  The countable label set is truncated on
demand to factor word length <= D.
"""

import csv

from .errors import BudgetError

START = -1  # start vertex id; factor vertices use their factor id


class Automaton:
    """Labeled graph whose paths from the start vertex spell normal forms."""

    def __init__(self, group, cap):
        if cap < 1:
            raise ValueError("syllable cap must be >= 1")
        self.group = group
        self.cap = cap
        self.vertices = (START,) + tuple(range(len(group.factors)))
        self._symbols = None

    # -- structure -----------------------------------------------------------

    def symbols(self):
        """All edge labels (factor_id, payload) with factor length <= cap."""
        if self._symbols is None:
            out = []
            for fid, factor in enumerate(self.group.factors):
                for p in factor.nontrivial_elements(self.cap):
                    out.append((fid, p))
            out.sort(key=lambda s: self.group.canonical_key(((s[0], s[1]),)))
            self._symbols = tuple(out)
        return self._symbols

    def follows(self, sym_prev, sym_next):
        """Adjacency: the next syllable must come from a different factor."""
        return sym_prev[0] != sym_next[0]

    def adjacency_rows(self):
        """Map vertex -> frozenset of admissible target vertices.

        The number of distinct rows is at most the number of vertices, which
        is what makes the truncated shift finitely presented.
        """
        n = len(self.group.factors)
        return {
            v: frozenset(k for k in range(n) if k != v) for v in self.vertices
        }

    # -- the path <-> element bijection --------------------------------------

    def element_of(self, path):
        """The group element spelled by a symbol path from the start vertex."""
        elem = tuple((fid, p) for fid, p in path)
        if not self.group.is_valid(elem):
            raise ValueError("symbol path violates the alternation constraint")
        return elem

    def path_of(self, elem):
        """The unique accepted path spelling ``elem``; errors if out of cap."""
        for fid, p in elem:
            if self.group.factors[fid].length(p) > self.cap:
                raise ValueError("element has a syllable beyond the cap")
        return tuple(elem)

    def enumerate_sphere(self, n, budget=10**7):
        """Yield (path, element) over the radius-n relative sphere, truncated.

        Canonical order; each element appears exactly once.
        """
        if n == 0:
            yield ((), ())
            return
        syms = self.symbols()
        count = 0
        stack = [((), None)]
        out = []
        while stack:
            path, last = stack.pop()
            if len(path) == n:
                out.append(path)
                count += 1
                if count > budget:
                    raise BudgetError(
                        "sphere enumeration exceeded budget",
                        consumed=count,
                        budget=budget,
                    )
                continue
            for s in syms:
                if last is None or self.follows(last, s):
                    stack.append((path + (s,), s))
        out.sort(key=lambda p: self.group.canonical_key(self.element_of(p)))
        for path in out:
            yield path, self.element_of(path)

    def sphere_size(self, n):
        """|relative sphere of radius n| under the cap, by direct product count."""
        if n == 0:
            return 1
        per_factor = [
            sum(1 for _ in f.nontrivial_elements(self.cap))
            for f in self.group.factors
        ]
        # counts[k] = number of admissible length-m paths ending in factor k
        counts = list(per_factor)
        for _ in range(n - 1):
            total = sum(counts)
            counts = [(total - counts[k]) * per_factor[k] for k in range(len(counts))]
        return sum(counts)

    # -- exports -------------------------------------------------------------

    def to_dot(self):
        lines = ["digraph relative_structure {", '  start [label="v*"];']
        for v in self.vertices[1:]:
            name = self.group.factors[v].name or f"H{v}"
            lines.append(f'  v{v} [label="{name}"];')
        for v in self.vertices:
            src = "start" if v == START else f"v{v}"
            for k in range(len(self.group.factors)):
                if k != v:
                    labels = sum(
                        1
                        for _ in self.group.factors[k].nontrivial_elements(self.cap)
                    )
                    lines.append(f'  {src} -> v{k} [label="{labels} labels"];')
        lines.append("}")
        return "\n".join(lines)

    def sphere_csv(self, path, n_max):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "cap", "count"])
            for n in range(n_max + 1):
                writer.writerow([n, self.cap, self.sphere_size(n)])


def build_automaton(group, cap):
    return Automaton(group, cap)


def fellow_travel_time(group, geo1, geo2, c=0):
    """Number of distinct points within word distance c of both geodesics.

    Each geodesic is a vertex list as produced by ``FreeProduct.rel_geodesic``.
    With c = 0 this counts shared vertices.
    """
    if c == 0:
        return len(set(geo1) & set(geo2))
    ball = group.ball(c)
    near1 = {group.multiply(v, b) for v in geo1 for b in ball}
    near2 = {group.multiply(v, b) for v in geo2 for b in ball}
    return len(near1 & near2)

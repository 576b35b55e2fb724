"""The relative automatic structure of a free product.

The coded shift reads alternating normal forms one syllable at a time: a
symbol is a nontrivial syllable of some factor, and a symbol may follow
another exactly when they come from different factors.  So the paths of
length n from the start vertex are the elements of the relative sphere of
radius n, and ``Automaton`` is a view of ``FreeProduct.sphere(n,
"relative", cap)``, with the countable label set truncated to factor word
length <= cap.
"""


class Automaton:
    """Symbol set and sphere paths of the coded shift, under a syllable cap."""

    def __init__(self, group, cap):
        if cap < 1:
            raise ValueError("syllable cap must be >= 1")
        self.group = group
        self.cap = cap
        self._symbols = None

    def symbols(self):
        """All edge labels (factor_id, payload) with factor length <= cap."""
        if self._symbols is None:
            sphere = self.group.sphere(1, "relative", self.cap)
            self._symbols = tuple(g[0] for g in sphere)
        return self._symbols

    def follows(self, sym_prev, sym_next):
        """Adjacency: the next syllable must come from a different factor."""
        return sym_prev[0] != sym_next[0]

    def enumerate_sphere(self, n, budget=10**7):
        """Yield (path, element) over the radius-n relative sphere, truncated.

        A path spells its element syllable by syllable, so the two coincide.
        Canonical order; each element appears exactly once.
        """
        for g in self.group.sphere(n, "relative", self.cap, budget):
            yield g, g

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


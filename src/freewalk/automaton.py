"""The coded shift of a free product: its one rule, its symbols and spheres.

The shift reads alternating normal forms one syllable at a time: a symbol
is a nontrivial syllable of some factor, and a symbol may follow another
exactly when they come from different factors.  That rule is stated once,
in ``factor_matrix``: the shift's adjacency lumped onto the factors, with
factor k weighted by t_k.  Every layer reads it from there: the relative
spheres (the paths of length n from the start vertex, built here as
arrays of symbol indices), their sizes, the transfer matrix and pressure
of ``thermo``, and the relative-sphere I1 of ``green``.  The countable
label set is truncated to factor word length <= cap.
"""

import numpy as np

from .errors import BudgetError


def factor_matrix(t):
    """diag(t)(J - I): entry [k, j] is t_k for j != k, else 0.

    Row k prepends a symbol of factor k, weighted t_k, to a path whose
    first symbol comes from factor j; so 1^T M^(n-1) t sums the weights of
    the length-n paths, and with t the symbol counts it counts them.  The
    symbol matrix diag(seed)[fid(i) != fid(j)] has the same nonzero
    spectrum when t_k sums the seeds of factor k (spectra of AB and BA).
    Integer (object) t stays exact.
    """
    t = np.asarray(t)
    return np.where(np.eye(len(t), dtype=bool), 0, t[:, None])


class Automaton:
    """Symbol set and sphere paths of the coded shift, under a syllable cap."""

    def __init__(self, group, cap):
        if cap < 1:
            raise ValueError("syllable cap must be >= 1")
        # each factor's payloads of factor word length <= cap, in the order
        # of ``FreeProduct.canonical_key``
        self.payloads = [list(f.nontrivial_elements(cap)) for f in group.factors]

    def symbols(self):
        """All edge labels (factor_id, payload), factor by factor."""
        return tuple((fid, p) for fid, ps in enumerate(self.payloads) for p in ps)

    def sphere_size(self, n):
        """|relative sphere of radius n| under the cap, in exact integers."""
        t = np.array([len(ps) for ps in self.payloads], dtype=object)
        counts, m = t, factor_matrix(t)
        for _ in range(n - 1):
            counts = m @ counts
        return int(counts.sum()) if n else 1

    def sphere_rows(self, n, budget=10**7):
        """Yield the radius-n relative sphere as (rows, n) arrays of indices
        into ``symbols()``, one block per alternating factor sequence.

        The sequences come in lexicographic order and each block is the
        product of its factors' symbols, the last syllable varying
        fastest: canonical order.  n = 0 gives the one empty row.  Raises
        ``BudgetError`` before building any block when the sphere has more
        than ``budget`` elements.
        """
        size = self.sphere_size(n)
        if size > budget:
            raise BudgetError(
                "relative sphere exceeded element budget", consumed=size, budget=budget
            )
        if n == 0:
            yield np.zeros((1, 0), dtype=np.intp)
            return
        ends = np.cumsum([len(ps) for ps in self.payloads])
        ids = [np.arange(end - len(ps), end) for end, ps in zip(ends, self.payloads)]
        follows = factor_matrix(np.ones(len(ids), dtype=int))
        seqs = [(k,) for k in range(len(ids))]
        for _ in range(n - 1):
            seqs = [s + (int(k),) for s in seqs for k in np.flatnonzero(follows[:, s[-1]])]
        for seq in seqs:
            grids = np.meshgrid(*(ids[k] for k in seq), indexing="ij")
            yield np.column_stack([g.ravel() for g in grids])

    def enumerate_sphere(self, n, budget=10**7):
        """Yield (path, element) over the radius-n relative sphere, truncated.

        A path spells its element syllable by syllable, so the two coincide.
        Canonical order (``sphere_rows``); each element appears exactly once.
        """
        symbols = self.symbols()
        for block in self.sphere_rows(n, budget):
            for row in block.tolist():
                g = tuple(symbols[i] for i in row)
                yield g, g

"""The coded shift of a free product: its one rule, its symbols and spheres.

The shift reads alternating normal forms one syllable at a time: a symbol
is a nontrivial syllable of some factor, and a symbol may follow another
exactly when they come from different factors.  That rule is stated once,
in ``factor_matrix``: the shift's adjacency lumped onto the factors, with
factor k weighted by t_k.  Every layer reads it from there: the relative
spheres (the paths of length n from the start vertex, built here as
arrays of symbol indices), their sizes, the transfer matrix and pressure
of ``thermo``, and the relative-sphere I1 of ``green``.  A sphere is one
array, each row a path, in canonical order.  The countable label set is
truncated to factor word length <= cap.
"""

import numpy as np

from .errors import BudgetError

# largest relative sphere ``Automaton.sphere_rows`` builds
SPHERE_BUDGET = 10**7


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

    def sphere_rows(self, n):
        """The radius-n relative sphere as one (size, n) array of indices
        into ``symbols()``, in canonical order.

        The rows of radius n - 1 are extended by every symbol of another
        factor than their last, and one ``np.lexsort`` orders the rows by
        their factor sequence, then by their symbol indices: the order of
        ``FreeProduct.canonical_key``.  n = 0 gives the one empty row.
        Raises ``BudgetError`` before building any row when the sphere has
        more than ``SPHERE_BUDGET`` elements.
        """
        size = self.sphere_size(n)
        if size > SPHERE_BUDGET:
            raise BudgetError(
                "relative sphere exceeded element budget", consumed=size, budget=SPHERE_BUDGET
            )
        fids = np.repeat(np.arange(len(self.payloads)), [len(ps) for ps in self.payloads])
        # follows[k, s]: symbol s may follow a symbol of factor k
        follows = factor_matrix(np.ones(len(self.payloads), dtype=int))[:, fids] != 0
        rows = np.zeros((1, 0), dtype=np.intp)
        for step in range(n):
            ok = follows[fids[rows[:, -1]]] if step else np.ones((1, len(fids)), bool)
            prefix, symbol = np.nonzero(ok)
            rows = np.column_stack([rows[prefix], symbol])
        if not n:
            return rows
        return rows[np.lexsort(np.column_stack([fids[rows], rows]).T[::-1])]

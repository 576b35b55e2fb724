import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freewalk import automaton
from freewalk.automaton import Automaton, factor_matrix
from freewalk.errors import BudgetError
from freewalk.groups import FiniteFactor, FreeProduct, LatticeFactor, cyclic_factor

from exact import enumerate_sphere
from oracles import bfs_relative_spheres


def _block_rows(auto, n):
    """The radius-n sphere built one alternating factor sequence at a time:
    the sequences in lexicographic order, each block the product of its
    factors' symbols with the last varying fastest.  The reference for
    ``Automaton.sphere_rows``."""
    if n == 0:
        return np.zeros((1, 0), dtype=np.intp)
    ends = np.cumsum([len(ps) for ps in auto.payloads])
    ids = [np.arange(end - len(ps), end) for end, ps in zip(ends, auto.payloads)]
    seqs = [(k,) for k in range(len(ids))]
    for _ in range(n - 1):
        seqs = [s + (k,) for s in seqs for k in range(len(ids)) if k != s[-1]]
    blocks = []
    for seq in seqs:
        grids = np.meshgrid(*(ids[k] for k in seq), indexing="ij")
        blocks.append(np.column_stack([g.ravel() for g in grids]))
    return np.concatenate(blocks)


def _s3():
    """S3 from its multiplication table, generated by its transpositions."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms]
    return FiniteFactor(table, [1, 2, 5], name="S3")


class TestStructure:
    def test_vertices_and_symbols(self, z2z3):
        aut = Automaton(z2z3, cap=2)
        syms = aut.symbols()
        # Z/2 contributes one nontrivial label, Z/3 contributes two
        assert len(syms) == 3
        assert len(set(syms)) == 3

    def test_follows_blocks_same_factor(self, z2z3):
        # the factor matrix is zero on its diagonal only, and no sphere row
        # has two adjacent symbols from one factor
        assert factor_matrix([2, 3]).tolist() == [[0, 2], [3, 0]]
        aut = Automaton(z2z3, cap=2)
        fids = np.array([fid for fid, _ in aut.symbols()])
        for n in range(1, 6):
            rows = aut.sphere_rows(n)
            assert (fids[rows[:, 1:]] != fids[rows[:, :-1]]).all()


class TestBijection:
    @pytest.mark.parametrize("cap", [1, 2])
    def test_spheres_match_independent_bfs(self, f2, cap):
        aut = Automaton(f2, cap)
        spheres = bfs_relative_spheres(f2, 5, cap=cap)
        for n in range(6):
            elems = [e for _, e in enumerate_sphere(aut, n)]
            assert len(elems) == len(set(elems))  # each element exactly once
            assert set(elems) == set(spheres[n])
            assert aut.sphere_size(n) == len(spheres[n])

    def test_finite_factor_spheres(self, z2z3):
        aut = Automaton(z2z3, cap=2)
        spheres = bfs_relative_spheres(z2z3, 5, cap=2)
        for n in range(6):
            assert set(e for _, e in enumerate_sphere(aut, n)) == set(spheres[n])

    def test_capped_growth_rate(self, f2):
        # with unit syllables each factor offers two labels, so the capped
        # relative spheres grow like 4 * 2^(n-1)
        aut = Automaton(f2, cap=1)
        for n in range(1, 10):
            assert aut.sphere_size(n) == 4 * 2 ** (n - 1)
        # exact integers where int64 would overflow
        assert aut.sphere_size(70) == 4 * 2**69

    def test_paths_are_relative_geodesics(self, z2z3):
        aut = Automaton(z2z3, cap=2)
        for n in range(5):
            for path, elem in enumerate_sphere(aut, n):
                assert len(elem) == len(path) == n

    def test_canonical_order_is_stable(self, z2z3):
        aut = Automaton(z2z3, cap=2)
        first = [e for _, e in enumerate_sphere(aut, 3)]
        second = [e for _, e in enumerate_sphere(aut, 3)]
        assert first == second

    def test_enumeration_budget(self, f2, monkeypatch):
        monkeypatch.setattr(automaton, "SPHERE_BUDGET", 10)
        aut = Automaton(f2, cap=2)
        with pytest.raises(BudgetError):
            list(enumerate_sphere(aut, 5))


class TestRelativeSpheres:
    def test_relative_sphere_sizes_z2z3(self, z2z3):
        aut = Automaton(z2z3, cap=1)
        assert [aut.sphere_size(n) for n in range(3)] == [1, 3, 4]
        assert [len(list(enumerate_sphere(aut, n))) for n in range(3)] == [1, 3, 4]

    FACTORS = {
        "Z2": lambda: cyclic_factor(2),
        "Z3": lambda: cyclic_factor(3),
        "Z4": lambda: cyclic_factor(4),  # a word-length-2 element, cut by cap 1
        "Z": lambda: LatticeFactor(1),
        "Z^2": lambda: LatticeFactor(2),
    }

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_relative_sphere_is_the_sorted_ball_shell(self, data):
        # the sphere is built directly in canonical order; the reference is
        # the same shell by plain BFS over capped syllables, sorted by
        # canonical_key
        names = data.draw(st.lists(st.sampled_from(sorted(self.FACTORS)),
                                   min_size=2, max_size=3))
        group = FreeProduct([self.FACTORS[n]() for n in names])
        cap = data.draw(st.integers(1, 2 if "Z^2" in names else 3))
        radius = data.draw(st.integers(0, 3))
        want = sorted(bfs_relative_spheres(group, radius, cap)[radius],
                      key=group.canonical_key)
        aut = Automaton(group, cap)
        assert [g for _, g in enumerate_sphere(aut, radius)] == want
        assert aut.sphere_size(radius) == len(want)

    def test_relative_sphere_budget(self, f2, monkeypatch):
        # two factor orders times 4 * 4 payloads (a^{+-1,+-2}, b^{+-1,+-2});
        # the budget is checked before any row is built
        aut = Automaton(f2, 2)
        monkeypatch.setattr(automaton, "SPHERE_BUDGET", 32)
        assert len(list(enumerate_sphere(aut, 2))) == 32
        monkeypatch.setattr(automaton, "SPHERE_BUDGET", 31)
        with pytest.raises(BudgetError) as err:
            aut.sphere_rows(2)
        assert (err.value.consumed, err.value.budget) == (32, 31)
        assert aut.sphere_rows(0).shape == (1, 0)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_sphere_rows_equal_the_block_builder(self, data):
        # one array, extended by a symbol and lexsorted, against the blocks
        # of one factor sequence each: the same shape, dtype and order
        factors = data.draw(st.lists(
            st.sampled_from(["Z", "S3", 2, 3, 4, 5]), min_size=2, max_size=6))
        group = FreeProduct([LatticeFactor(1) if f == "Z" else _s3() if f == "S3"
                             else cyclic_factor(f) for f in factors])
        aut = Automaton(group, data.draw(st.integers(1, 3)))
        n = data.draw(st.integers(0, 4))
        got, want = aut.sphere_rows(n), _block_rows(aut, n)
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert np.array_equal(got, want)

    def test_twenty_involutions_at_radius_four(self):
        # 20 * 19^3 distinct rows, no two adjacent symbols from one factor
        aut = Automaton(FreeProduct([cyclic_factor(2)] * 20), 3)
        rows = aut.sphere_rows(4)
        assert rows.shape == (aut.sphere_size(4), 4) == (137180, 4)
        assert len(np.unique(rows, axis=0)) == len(rows)
        assert (rows[:, 1:] != rows[:, :-1]).all()  # one symbol per factor

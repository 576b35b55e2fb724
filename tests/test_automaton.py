import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freewalk.automaton import Automaton, factor_matrix
from freewalk.errors import BudgetError
from freewalk.groups import FreeProduct, LatticeFactor, cyclic_factor

from oracles import bfs_relative_spheres


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
            rows = np.concatenate(list(aut.sphere_rows(n)))
            assert (fids[rows[:, 1:]] != fids[rows[:, :-1]]).all()


class TestBijection:
    @pytest.mark.parametrize("cap", [1, 2])
    def test_spheres_match_independent_bfs(self, f2, cap):
        aut = Automaton(f2, cap)
        spheres = bfs_relative_spheres(f2, 5, cap=cap)
        for n in range(6):
            elems = [e for _, e in aut.enumerate_sphere(n)]
            assert len(elems) == len(set(elems))  # each element exactly once
            assert set(elems) == set(spheres[n])
            assert aut.sphere_size(n) == len(spheres[n])

    def test_finite_factor_spheres(self, z2z3):
        aut = Automaton(z2z3, cap=2)
        spheres = bfs_relative_spheres(z2z3, 5, cap=2)
        for n in range(6):
            assert set(e for _, e in aut.enumerate_sphere(n)) == set(spheres[n])

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
            for path, elem in aut.enumerate_sphere(n):
                assert len(elem) == len(path) == n

    def test_canonical_order_is_stable(self, z2z3):
        aut = Automaton(z2z3, cap=2)
        first = [e for _, e in aut.enumerate_sphere(3)]
        second = [e for _, e in aut.enumerate_sphere(3)]
        assert first == second

    def test_enumeration_budget(self, f2):
        aut = Automaton(f2, cap=2)
        with pytest.raises(BudgetError):
            list(aut.enumerate_sphere(5, budget=10))


class TestRelativeSpheres:
    def test_relative_sphere_sizes_z2z3(self, z2z3):
        aut = Automaton(z2z3, cap=1)
        assert [aut.sphere_size(n) for n in range(3)] == [1, 3, 4]
        assert [len(list(aut.enumerate_sphere(n))) for n in range(3)] == [1, 3, 4]

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
        group = FreeProduct([self.FACTORS[n]() for n in names], warn_elementary=False)
        cap = data.draw(st.integers(1, 2 if "Z^2" in names else 3))
        radius = data.draw(st.integers(0, 3))
        want = sorted(bfs_relative_spheres(group, radius, cap)[radius],
                      key=group.canonical_key)
        aut = Automaton(group, cap)
        assert [g for _, g in aut.enumerate_sphere(radius)] == want
        assert aut.sphere_size(radius) == len(want)

    def test_relative_sphere_budget(self, f2):
        # two factor orders times 4 * 4 payloads (a^{+-1,+-2}, b^{+-1,+-2});
        # the budget is checked before any block is built
        aut = Automaton(f2, 2)
        assert len(list(aut.enumerate_sphere(2, budget=32))) == 32
        rows = aut.sphere_rows(2, budget=31)
        with pytest.raises(BudgetError) as err:
            next(rows)
        assert (err.value.consumed, err.value.budget) == (32, 31)
        assert [b.shape for b in aut.sphere_rows(0)] == [(1, 0)]

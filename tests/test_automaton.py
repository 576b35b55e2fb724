import pytest

from freewalk.automaton import Automaton
from freewalk.errors import BudgetError

from oracles import bfs_relative_spheres


class TestStructure:
    def test_vertices_and_symbols(self, z2z3):
        aut = Automaton(z2z3, cap=2)
        syms = aut.symbols()
        # Z/2 contributes one nontrivial label, Z/3 contributes two
        assert len(syms) == 3
        assert len(set(syms)) == 3

    def test_follows_blocks_same_factor(self, z2z3):
        aut = Automaton(z2z3, cap=2)
        assert not aut.follows((1, 1), (1, 2))
        assert aut.follows((0, 1), (1, 2))


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

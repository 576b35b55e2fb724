import pytest
from hypothesis import given, settings, strategies as st

from freewalk.errors import BudgetError, GroupSpecError
from freewalk.groups import (
    FiniteFactor,
    FreeProduct,
    cyclic_factor,
)


class TestFiniteFactor:
    def test_rejects_non_square_table(self):
        with pytest.raises(GroupSpecError):
            FiniteFactor([[0, 1], [1]], [1])

    def test_rejects_bad_identity(self):
        # swap rows so index 0 no longer acts as identity
        with pytest.raises(GroupSpecError):
            FiniteFactor([[1, 0], [0, 1]], [1])

    def test_rejects_non_associative(self):
        # a "table" with an identity row/column but broken interior
        table = [
            [0, 1, 2],
            [1, 0, 0],
            [2, 0, 0],
        ]
        with pytest.raises(GroupSpecError):
            FiniteFactor(table, [1, 2])

    def test_rejects_asymmetric_generators(self):
        z4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
        with pytest.raises(GroupSpecError):
            FiniteFactor(z4, [1])

    def test_rejects_non_generating(self):
        # Z2 x Z2 with only one generator declared
        table = [
            [0, 1, 2, 3],
            [1, 0, 3, 2],
            [2, 3, 0, 1],
            [3, 2, 1, 0],
        ]
        with pytest.raises(GroupSpecError):
            FiniteFactor(table, [1])

    def test_cyclic_lengths(self):
        z5 = cyclic_factor(5)
        assert [z5.length(i) for i in range(5)] == [0, 1, 2, 2, 1]


class TestNormalForm:
    def test_multiply_reduces_junction(self, f2):
        a = ((0, (1,)),)
        ai = ((0, (-1,)),)
        assert f2.multiply(a, ai) == ()
        assert f2.multiply(a, a) == ((0, (2,)),)

    def test_cascading_cancellation(self, f2):
        a = ((0, (1,)),)
        b = ((1, (1,)),)
        w = f2.multiply(a, b)  # a b
        winv = f2.invert(w)  # b^-1 a^-1
        assert f2.multiply(w, winv) == ()

    def test_finite_merge(self, z2z3):
        t = ((1, 1),)
        assert z2z3.multiply(t, t) == ((1, 2),)
        assert z2z3.multiply(z2z3.multiply(t, t), t) == ()

    def test_word_and_relative_length(self, f2):
        g = ((0, (3,)), (1, (-2,)))
        assert f2.word_length(g) == 5
        assert len(g) == 2


def elements(group, max_syllables=4):
    """Hypothesis strategy for normal-form elements of a free product."""
    payloads = []
    for fid, factor in enumerate(group.factors):
        if factor.kind == "lattice":
            opts = [
                (v,) * factor.rank if factor.rank == 1 else None
                for v in (-2, -1, 1, 2)
            ]
            opts = [((fid, o),) for o in opts if o]
        else:
            opts = [((fid, p),) for p in factor.nontrivial_elements()]
        payloads.append(opts)

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_syllables))
        out = ()
        last = None
        for _ in range(n):
            fid = draw(
                st.sampled_from(
                    [k for k in range(len(group.factors)) if k != last]
                )
            )
            syl = draw(st.sampled_from(payloads[fid]))
            out = out + syl
            last = fid
        return out

    return build()


class TestGroupLaws:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_associativity_f2(self, f2, data):
        x = data.draw(elements(f2))
        y = data.draw(elements(f2))
        z = data.draw(elements(f2))
        assert f2.multiply(f2.multiply(x, y), z) == f2.multiply(
            x, f2.multiply(y, z)
        )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_inverse_law_z2z3(self, z2z3, data):
        x = data.draw(elements(z2z3))
        assert z2z3.multiply(x, z2z3.invert(x)) == ()
        assert z2z3.multiply(z2z3.invert(x), x) == ()
        assert z2z3.is_valid(z2z3.invert(x))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_products_stay_in_normal_form(self, z2z3, data):
        x = data.draw(elements(z2z3))
        y = data.draw(elements(z2z3))
        assert z2z3.is_valid(z2z3.multiply(x, y))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_metrics_are_symmetric(self, f2, data):
        x = data.draw(elements(f2))
        y = data.draw(elements(f2))
        dist_xy = f2.word_length(f2.multiply(f2.invert(x), y))
        assert dist_xy == f2.word_length(f2.multiply(f2.invert(y), x))
        rel_xy = len(f2.multiply(f2.invert(x), y))
        assert rel_xy == len(f2.multiply(f2.invert(y), x))
        assert rel_xy <= dist_xy


class TestEnumeration:
    def test_word_ball_sizes_f2(self, f2):
        # 4-regular tree: |S_n| = 4 * 3^(n-1)
        assert len(f2.ball(0)) == 1
        for n in (1, 2, 3):
            assert sum(f2.word_length(g) == n for g in f2.ball(n)) == 4 * 3 ** (n - 1)

    def test_budget_error(self, f2):
        with pytest.raises(BudgetError):
            f2.ball(8, budget=100)


class TestElementaryWarning:
    def test_z2_z2_warns(self):
        with pytest.warns(UserWarning):
            FreeProduct([cyclic_factor(2), cyclic_factor(2)])

    def test_three_factors_do_not_warn(self, z2cubed):
        assert z2cubed.non_elementary

"""Regression and property tests of the truncated-ball path operator.

The frozen values were taken from the breadth-first engine that expanded
one element at a time: ``float.hex()`` of each float kernel (row in key
order, returned, in-flight and escaped masses) and a SHA-256 of each exact
``convolve_powers`` power (denominator, escaped numerator and numerators,
key order included).  The float kernels must stay bitwise equal, because
the transition list keeps its order.
"""

import hashlib
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freewalk.groups import FreeProduct, LatticeFactor, cyclic_factor
from freewalk.parabolic import first_return_kernel
from freewalk.walks import (
    PathOperator,
    StepMeasure,
    convolve_powers,
    uniform_on_generators,
)

from oracles import F2_RADIUS


def _f2():
    return FreeProduct([LatticeFactor(1, "a"), LatticeFactor(1, "b")])


def _measure(name):
    if name == "f2":
        return uniform_on_generators(_f2())
    if name == "z2z3":
        return uniform_on_generators(FreeProduct([cyclic_factor(2), cyclic_factor(3)]))
    if name == "z2z2z2":
        return uniform_on_generators(FreeProduct([cyclic_factor(2)] * 3))
    if name == "z2sq_z2":
        return uniform_on_generators(FreeProduct([LatticeFactor(2), cyclic_factor(2)]))
    if name == "f2_lazy":
        return uniform_on_generators(_f2(), lazy=Fraction(1, 3))
    if name == "f2_two_letter":
        a, ai = ((0, (1,)),), ((0, (-1,)),)
        ba, aibi = ((1, (1,)), (0, (1,))), ((0, (-1,)), (1, (-1,)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the reach check is heuristic
            return StepMeasure(_f2(), {ba: Fraction(1, 4), aibi: Fraction(1, 4),
                                       a: Fraction(1, 4), ai: Fraction(1, 4)})
    raise KeyError(name)


# (measure, factor, r, L, B)
KERNEL_CASES = {
    "f2_at_R": ("f2", 0, F2_RADIUS, 40, 9),
    "z2z3": ("z2z3", 1, 1.0, 30, 10),
    "z2z2z2": ("z2z2z2", 0, 1.0, 30, 8),
    "z2sq_z2": ("z2sq_z2", 0, 1.0, 16, 6),
    "f2_lazy": ("f2_lazy", 0, 1.0, 30, 7),
    "f2_two_letter_a": ("f2_two_letter", 0, 1.0, 20, 8),
    "f2_two_letter_b": ("f2_two_letter", 1, 1.0, 20, 8),
}

CONVOLUTION_CASES = ("f2_lazy", "z2sq_z2")


def _kernel_hex(case):
    name, fid, r, L, B = KERNEL_CASES[case]
    kern = first_return_kernel(_measure(name), fid, r, L, B, exact=False)
    return {
        "row": [(p, w.hex()) for p, w in kern.row.items()],
        "masses": [m.hex() for m in
                   (kern.returned_mass, kern.in_flight_mass, kern.escaped_mass)],
    }


def _convolution_digests(name):
    return [
        hashlib.sha256(repr(
            (d.denominator, d.escaped_numerator, list(d.numerators.items()))
        ).encode()).hexdigest()
        for d in convolve_powers(_measure(name), 8)
    ]


FROZEN_KERNELS = {'f2_at_R': {'masses': ['0x1.bc9c39e99f31ep-1',
                        '0x1.f09a2f0467feep-2',
                        '0x1.7b5117df01293p+2'],
             'row': [((0,), '0x1.2a038b2138003p-2'),
                     ((-1,), '0x1.279a74590331cp-2'),
                     ((1,), '0x1.279a74590331cp-2')]},
 'f2_lazy': {'masses': ['0x1.8e143b6ac0473p-1',
                        '0x1.3dfa93a4aaae9p-6',
                        '0x1.9fefbfe0684aep-3'],
             'row': [((0,), '0x1.c6d321802b391p-2'),
                     ((-1,), '0x1.5555555555555p-3'),
                     ((1,), '0x1.5555555555555p-3')]},
 'f2_two_letter_a': {'masses': ['0x1.550e4c18b0000p-1',
                                '0x1.229f664f00000p-6',
                                '0x1.43b97169b0000p-2'],
                     'row': [((0,), '0x1.54393062c0000p-3'),
                             ((-1,), '0x1.0000000000000p-2'),
                             ((1,), '0x1.0000000000000p-2')]},
 'f2_two_letter_b': {'masses': ['0x1.dce33d10d8000p-2',
                                '0x1.c3c4e42080000p-6',
                                '0x1.03703a5690000p-1'],
                     'row': [((0,), '0x1.4380e9222c000p-2'),
                             ((-1,), '0x1.32d65eec00000p-4'),
                             ((1,), '0x1.32b2f0ceb0000p-4')]},
 'z2sq_z2': {'masses': ['0x1.b4350ba2929d8p-1',
                        '0x1.a520804b38cd6p-6',
                        '0x1.f50f82d89cdbap-4'],
             'row': [((0, 0), '0x1.a9b7208f903f1p-5'),
                     ((-1, 0), '0x1.999999999999ap-3'),
                     ((0, -1), '0x1.999999999999ap-3'),
                     ((0, 1), '0x1.999999999999ap-3'),
                     ((1, 0), '0x1.999999999999ap-3')]},
 'z2z2z2': {'masses': ['0x1.544507f0492e6p-1',
                       '0x1.339282ffd505dp-5',
                       '0x1.31039fbf72f31p-2'],
            'row': [(0, '0x1.5334ba8b3d078p-2'), (1, '0x1.5555555555555p-2')]},
 'z2z3': {'masses': ['0x1.bf7f13d4ec708p-1',
                     '0x1.68ca527850bb6p-4',
                     '0x1.367a1dc0977f2p-5'],
          'row': [(0, '0x1.a8a6f9fe5c6c9p-3'),
                  (1, '0x1.5555555555555p-2'),
                  (2, '0x1.5555555555555p-2')]}}

FROZEN_CONVOLUTIONS = {'f2_lazy': ['67ace5bfcc305ea0080678b9c4af8229358c7dd7a2c84ddc0680eb1c1c845de1',
             '00319deb35be65c990ebf21b160c7c1dcad4da6541accc5845ddc018208738c9',
             'bc98e02b76c0ad7d3fb866df2653f76c56681b7aa99cf12921f4b6a90c4a6579',
             '81d3e3510102822a7e325dd144eda718d4035424f060963271a9232196f1b7bd',
             '0de7f6b63f1aed102247019c44c0a5d53f92669d27d92e8fb89d84a3eddabaf5',
             'cc0e36552f85115a1f898b706dc24169c95024c3172b8a7ba314946419ef1c5d',
             '0ab080bb60ccb32a46e1573b0a0c0e4997493b1c80d017e4ff759d8566367bda',
             'cd363aee6a92da6c6568bf208739eaa8ae0225c3f3a710770e55498a0cd28de8',
             '5accda9d136ffb34d342f0f5abb612ed04a582debe701132d816b3572a7041d7'],
 'z2sq_z2': ['67ace5bfcc305ea0080678b9c4af8229358c7dd7a2c84ddc0680eb1c1c845de1',
             'c0c887bba55de08803086a1c76a1628c6921e0ec15c44b18df2477712b1967de',
             '9b78ebe418ebc61a4b8425362490e76472e7225de6ecd49bc10c5b3718e80b07',
             'c4788c084a15faa60b3d42990e2ab99833d5c23e18de51fd8f997293f9fa0b27',
             'a15dd397f9ab603628c3ca231690cc39dbd29a6fb0ddb8dc266425eb163bb11b',
             'c2a9f59cdf4af6daec3b8d4ed17d8d8d410b3d3789c725a28c13e63cd5463e65',
             '56f1de3b290700c7f990963c47721edf0d73fca4464f849249cf7dad22dadff0',
             'ff68b5d76d6342884ac938d0bcf89ca6ed249a853257c80bc98ba861197a5395',
             'af77b94df63d74aeb85ec28c3f7c3901dae47f08bc1b4118a9b61fe81668d557']}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_float_kernel_is_bitwise_frozen(case):
    assert _kernel_hex(case) == FROZEN_KERNELS[case]


@pytest.mark.parametrize("name", CONVOLUTION_CASES)
def test_convolution_numerators_are_frozen(name):
    assert _convolution_digests(name) == FROZEN_CONVOLUTIONS[name]


@pytest.mark.parametrize("factor_id", [0, 1])
def test_prune_distance_is_the_distance_to_the_factor(factor_id):
    # brute force: the least word length of h^-1 g over h = a^j in H_k
    mu = _measure("f2_two_letter")
    group = mu.group
    op = PathOperator(mu, 6, factor=factor_id)
    for _ in op.exact_steps(5):
        pass
    assert op.size > 100
    for g, d in zip(op.elements(), op.dist.tolist()):
        want = min(
            group.dist(group.syllable(factor_id, (j,)), g) for j in range(-12, 13)
        )
        assert d == want


@st.composite
def _cyclic_measures(draw):
    """A random single-syllable measure on a free product of 2-3 small
    cyclic groups, with positive integer weights and maybe a lazy part."""
    orders = draw(st.lists(st.integers(2, 5), min_size=2, max_size=3))
    group = FreeProduct([cyclic_factor(n) for n in orders], warn_elementary=False)
    steps = [((fid, p),) for fid, n in enumerate(orders) for p in range(1, n)]
    support = draw(st.lists(st.sampled_from(steps), min_size=1, unique=True))
    if draw(st.booleans()):
        support.append(())
    weights = [draw(st.integers(1, 5)) for _ in support]
    total = sum(weights)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a random support need not be admissible
        return StepMeasure(group, {g: Fraction(w, total) for g, w in zip(support, weights)})


@settings(max_examples=30, deadline=None)
@given(mu=_cyclic_measures(), data=st.data())
def test_kernel_engines_agree_and_conserve_mass(mu, data):
    factor_id = data.draw(st.integers(0, len(mu.group.factors) - 1))
    L, B = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 4))
    exact = first_return_kernel(mu, factor_id, Fraction(1), L, B)
    flt = first_return_kernel(mu, factor_id, 1.0, L, B, exact=False)
    assert set(exact.row) == set(flt.row)
    for payload, w in exact.row.items():
        assert abs(float(w) - flt.row[payload]) < 1e-12
    total = flt.returned_mass + flt.in_flight_mass + flt.escaped_mass
    assert abs(total - 1.0) < 1e-12


@settings(max_examples=30, deadline=None)
@given(mu=_cyclic_measures(), n=st.integers(0, 8), ball=st.integers(0, 4))
def test_truncated_powers_conserve_mass_exactly(mu, n, ball):
    for dist in convolve_powers(mu, n, ball_bound=ball):
        assert dist.total_mass() + dist.escaped_mass == 1

"""Regression and property tests of the first-return kernels, the state
chain of ``exact`` and the truncated-ball convolution powers.

The first-passage system covers the single-syllable measures on finite and
rank-1 lattice factors, and ``first_return_kernel`` reads the kernel off
its coefficients, with no ball: the exact rows equal the pruned state
chain's (``exact.StateChain.absorb`` without a ball) Fraction for Fraction,
and the float rows are held to the exact L-truncated row.  The kernels of
the other measures (``f2_two_letter``, ``z2sq_z2``), which the package
refuses, are the state chain's over every state of the ball
(``StateChain.absorb(L, exact=False)``), held to the exact state chain at
the same (L, B, r).  Float kernels are pinned by ``float.hex()`` (row in
key order, returned, in-flight and escaped masses; a series kernel has no
ball and escapes nothing).  The exact ``convolve_powers`` powers are
pinned by a SHA-256 each (denominator, escaped numerator and numerators,
key order included).
"""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from freewalk.errors import GroupSpecError
from freewalk.groups import FreeProduct, LatticeFactor, cyclic_factor
from freewalk.parabolic import _series_kernel, first_return_kernel
from freewalk.walks import ELEMENTARY, INADMISSIBLE, StepMeasure, uniform_on_generators

from exact import StateChain, convolve_powers, word_length
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
    if name == "f2_asym":
        a, ai = ((0, (1,)),), ((0, (-1,)),)
        b, bi = ((1, (1,)),), ((1, (-1,)),)
        return StepMeasure(_f2(), {a: Fraction(3, 10), ai: Fraction(1, 10),
                                   b: Fraction(2, 5), bi: Fraction(1, 5)})
    if name == "f2_lazy":
        return uniform_on_generators(_f2(), lazy=Fraction(1, 3))
    if name == "f2_two_letter":
        a, ai = ((0, (1,)),), ((0, (-1,)),)
        ba, aibi = ((1, (1,)), (0, (1,))), ((0, (-1,)), (1, (-1,)))
        return StepMeasure(_f2(), {ba: Fraction(1, 4), aibi: Fraction(1, 4),
                                   a: Fraction(1, 4), ai: Fraction(1, 4)})
    raise KeyError(name)


def mass(dist, elem):
    """mu^{*n}(elem) of one ``convolve_powers`` power, as a Fraction."""
    return Fraction(dist.numerators.get(elem, 0), dist.denominator)


def first_visits(measure, gamma, n):
    """(d, hits): hits[k-1] / d**k = f_k(e, gamma) for k = 1..n.

    f_k is the mass of the paths that first reach gamma at step k (for
    gamma = e, the first returns), from the exact powers of
    ``convolve_powers`` by the renewal f_k = p_k(e,gamma) - sum_{j<k} f_j
    p_{k-j}(e,e), in integers over d**k.  The ball holds every path of n
    steps, so nothing is truncated.
    """
    powers = convolve_powers(measure, n)
    d = measure.common_denominator()
    returns = [p.numerators.get((), 0) for p in powers]
    hits = []
    for k in range(1, n + 1):
        renewal = sum(f * returns[k - j] for j, f in enumerate(hits, 1))
        hits.append(powers[k].numerators.get(gamma, 0) - renewal)
    return d, hits


# the tests of digits that only an extended (80-bit) long double keeps
LONG_DOUBLE = pytest.mark.skipif(
    np.finfo(np.longdouble).nmant < 63,
    reason="the coefficients are built in long double, here no wider than a float")

# (measure, factor, r, L, B); B bounds the state-chain cases only
KERNEL_CASES = {
    "f2_at_R": ("f2", 0, F2_RADIUS, 40, 9),
    "z2z3": ("z2z3", 1, 1.0, 30, 10),
    "z2z2z2": ("z2z2z2", 0, 1.0, 30, 8),
    "z2sq_z2": ("z2sq_z2", 0, 1.0, 16, 6),
    "f2_lazy": ("f2_lazy", 0, 1.0, 30, 7),
    "f2_asym": ("f2_asym", 0, 1.0, 30, 8),
    "f2_two_letter_a": ("f2_two_letter", 0, 1.0, 20, 8),
    "f2_two_letter_b": ("f2_two_letter", 1, 1.0, 20, 8),
}

CONVOLUTION_CASES = ("f2_lazy", "z2sq_z2")

# The cases outside the first-passage system, whose kernels step every
# state of the ball.
STATE_CHAIN = ("f2_two_letter_a", "f2_two_letter_b", "z2sq_z2")


def _float_kernel(case):
    """(row, returned, in_flight, escaped) of a case's float kernel: the
    state chain's off the first-passage system, else
    ``first_return_kernel``'s, which has no ball and escapes nothing."""
    name, fid, r, L, B = KERNEL_CASES[case]
    mu = _measure(name)
    if case in STATE_CHAIN:
        return StateChain(mu, B, r, fid).absorb(L, exact=False)[:4]
    kern = first_return_kernel(mu, fid, r, L, exact=False)
    return kern.row, kern.returned_mass, kern.in_flight_mass, 0.0


def _kernel_hex(case):
    row, *masses = _float_kernel(case)
    return {
        "row": [(p, w.hex()) for p, w in row.items()],
        "masses": [m.hex() for m in masses],
    }


def _convolution_digests(name):
    return [
        hashlib.sha256(repr(
            (d.denominator, d.escaped_numerator, list(d.numerators.items()))
        ).encode()).hexdigest()
        for d in convolve_powers(_measure(name), 8)
    ]


FROZEN_KERNELS = {'f2_asym': {'masses': ['0x1.301fb940ac87bp-1',
                        '0x1.9fc08d7ea6f0ap-2',
                        '0x0.0p+0'],
             'row': [((0,), '0x1.8d4bb1cf7eeb9p-3'),
                     ((-1,), '0x1.999999999999ap-4'),
                     ((1,), '0x1.3333333333333p-2')]},
 'f2_at_R': {'masses': ['0x1.bcdf979c35dc6p-1',
                        '0x1.a4758e5bea6eep+6',
                        '0x0.0p+0'],
             'row': [((0,), '0x1.2a8a468665553p-2'),
                     ((-1,), '0x1.279a74590331cp-2'),
                     ((1,), '0x1.279a74590331cp-2')]},
 'f2_lazy': {'masses': ['0x1.8e14f71a3fa99p-1',
                        '0x1.c7ac23970159ap-3',
                        '0x0.0p+0'],
             'row': [((0,), '0x1.c6d498df29fddp-2'),
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
 'z2sq_z2': {'masses': ['0x1.b4350ba2929d9p-1',
                        '0x1.a520804b38cd6p-6',
                        '0x1.f50f82d89ce08p-4'],
             'row': [((0, 0), '0x1.a9b7208f903f1p-5'),
                     ((-1, 0), '0x1.999999999999ap-3'),
                     ((0, -1), '0x1.999999999999ap-3'),
                     ((0, 1), '0x1.999999999999ap-3'),
                     ((1, 0), '0x1.999999999999ap-3')]},
 'z2z2z2': {'masses': ['0x1.5453e55f53488p-1',
                       '0x1.57583541596eep-2',
                       '0x0.0p+0'],
            'row': [(0, '0x1.53527569513bcp-2'), (1, '0x1.5555555555555p-2')]},
 'z2z3': {'masses': ['0x1.bf7f2c3294f0ap-1',
                     '0x1.02034f35ac3d6p-3',
                     '0x0.0p+0'],
          'row': [(0, '0x1.a8a75b74fe6d4p-3'),
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


@pytest.mark.parametrize("case", [
    case if case in STATE_CHAIN else pytest.param(case, marks=LONG_DOUBLE)
    for case in sorted(KERNEL_CASES)])
def test_float_kernel_is_bitwise_frozen(case):
    assert _kernel_hex(case) == FROZEN_KERNELS[case]


@LONG_DOUBLE
def test_series_kernel_entry_at_e_is_within_an_ulp():
    # f2_lazy's entry at e (r = 1, L = 30) from first-passage sums whose
    # powers (x/R)^m are formed in long double, not from the rounded x/R:
    # 5.8e-17 from the exact row
    name, fid, r, L, _ = KERNEL_CASES["f2_lazy"]
    kern = first_return_kernel(_measure(name), fid, r, L, exact=False)
    want = first_return_kernel(_measure(name), fid, Fraction(1), L).row[(0,)]
    assert abs(Fraction(kern.row[(0,)]) - want) <= 1e-16 * want


def _exact_kernel(mu, fid, r, L, B, prune=False):
    """(row, returned, in-flight, escaped) of the exact kernel on the state
    chain, unpruned by default; with ``prune``, as the exact kernel prunes."""
    op = StateChain(mu, B, Fraction(r), fid)
    row, escaped, denom, nums = {}, Fraction(0), 1, [1]
    for _, nums, hits, esc in op.steps(L, prune=prune):
        denom *= op.denominator
        for payload, num in hits.items():
            row[payload] = row.get(payload, 0) + Fraction(num, denom)
        escaped += Fraction(esc, denom)
    return row, sum(row.values(), Fraction(0)), Fraction(sum(nums), denom), escaped


def _exact_series_kernel(mu, fid, r, L):
    """(row, returned, in-flight, escaped) of the exact L-truncated kernel
    with no ball, L >= 1.  Nothing escapes, so at r = 1 the mass in flight
    is what has not returned, and a path in flight has weight r^L."""
    kern = first_return_kernel(mu, fid, Fraction(r), L)
    returned_at_one = first_return_kernel(mu, fid, Fraction(1), L).returned_mass
    in_flight = Fraction(r) ** L * (1 - returned_at_one)
    return kern.row, kern.returned_mass, in_flight, Fraction(0)


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_float_kernel_matches_the_exact_kernel(case):
    name, fid, r, L, B = KERNEL_CASES[case]
    got_row, *masses = _float_kernel(case)
    if case in STATE_CHAIN:
        row, returned, in_flight, escaped = _exact_kernel(_measure(name), fid, r, L, B)
    else:
        row, returned, in_flight, escaped = _exact_series_kernel(_measure(name), fid, r, L)
    assert set(got_row) == set(row)
    pairs = [(("row", p), w, row[p]) for p, w in got_row.items()] + list(
        zip(("returned", "in_flight", "escaped"), masses, (returned, in_flight, escaped)))
    for what, got, want in pairs:
        assert abs(Fraction(got) - want) <= 2e-15 * want, what


def test_series_kernel_expands_no_state():
    # f2 is covered by the first-passage system: both kernels read its
    # four unknowns, with no ball and no state expanded (the package has
    # no path operator: ``test_path_operator_scope``)
    mu = _measure("f2")
    for kern in (first_return_kernel(mu, 0, 1.0, 140, 11, exact=False),
                 first_return_kernel(mu, 0, Fraction(1), 20)):
        assert kern.chain_size == len(mu.first_passage_system.unknowns) == 4


# The benchmark's float kernel (f2, factor a, r = 1, L = 140; the ball
# radius 11 is not used), pinned to the first-passage series.  Its entry
# at e is 6.3e-17 relative from the exact L-truncated row, which lies
# 8.0e-13 below its limit 1/6; the other entries are exactly 1/4.
FROZEN_BENCHMARK_KERNEL = {
    "row": [((0,), "0x1.555555554e455p-3"),
            ((-1,), "0x1.0000000000000p-2"),
            ((1,), "0x1.0000000000000p-2")],
    "masses": ["0x1.5555555553915p-1", "0x1.5555555558dd6p-2"],
}


@LONG_DOUBLE
def test_benchmark_float_kernel_is_bitwise_frozen():
    kern = first_return_kernel(_measure("f2"), 0, 1.0, 140, 11, exact=False)
    assert {
        "row": [(p, w.hex()) for p, w in kern.row.items()],
        "masses": [m.hex() for m in (kern.returned_mass, kern.in_flight_mass)],
    } == FROZEN_BENCHMARK_KERNEL


# The benchmark's exact kernel (f2, factor a, r = 1, L = 20, no ball), as
# Fraction strings, pinned to the values of the pruned state chain over all
# 59 051 states it interns.
FROZEN_BENCHMARK_EXACT_KERNEL = {
    "row": {(-1,): "1/4", (1,): "1/4", (0,): "45719617997/274877906944"},
    "masses": ["183158571469/274877906944", "0"],
}


def test_benchmark_exact_kernel_is_frozen():
    kern = first_return_kernel(_measure("f2"), 0, Fraction(1), 20)
    assert all(isinstance(w, Fraction) for w in kern.row.values())
    assert {
        "row": {p: str(w) for p, w in kern.row.items()},
        "masses": [str(m) for m in (kern.returned_mass, kern.in_flight_mass)],
    } == FROZEN_BENCHMARK_EXACT_KERNEL


# (measure, factor, L, B): measures the first-passage system covers, with
# and without a ball, which their kernels do not read
EXACT_CASES = [("f2", 0, L, None) for L in (12, 14, 20, 22)] + [
    ("f2", 0, 12, 6), ("f2", 1, 16, 5), ("z2z3", 0, 16, None), ("z2z3", 1, 16, None),
    ("f2_lazy", 0, 14, None), ("z2z2z2", 2, 12, 4),
]


@pytest.mark.parametrize("name, fid, L, B", EXACT_CASES)
def test_exact_kernel_cases_match_the_pruned_state_chain(name, fid, L, B):
    mu = _measure(name)
    kern = first_return_kernel(mu, fid, Fraction(1), L, B)
    got = (kern.row, kern.returned_mass, kern.in_flight_mass, 0)
    assert got == _exact_kernel(mu, fid, 1, L, None, prune=True)


@pytest.mark.parametrize("case", STATE_CHAIN)
def test_state_chain_propagates_every_state(case):
    # the float kernel steps every state of the ball: L steps reach them
    # all, further steps add none, and the unpruned exact chain interns
    # the same states in the same order
    name, fid, r, L, B = KERNEL_CASES[case]
    mu = _measure(name)
    assert mu.first_passage_system is None
    flt = StateChain(mu, B, r, fid)
    assert flt.absorb(L, exact=False)[4] == flt.size
    exact, closure = (StateChain(mu, B, Fraction(r), fid) for _ in range(2))
    for _ in exact.steps(L):
        pass
    for _ in closure.steps(L + 10, exact=False):
        pass
    assert flt.elements() == exact.elements() == closure.elements()


@pytest.mark.parametrize("name", CONVOLUTION_CASES)
def test_convolution_numerators_are_frozen(name):
    assert _convolution_digests(name) == FROZEN_CONVOLUTIONS[name]


@pytest.mark.parametrize("factor_id", [0, 1])
def test_prune_distance_is_the_distance_to_the_factor(factor_id):
    # brute force: the least word length of h^-1 g over h = a^j in H_k
    mu = _measure("f2_two_letter")
    group = mu.group
    op = StateChain(mu, 6, 1, factor_id)
    for _ in op.steps(5):
        pass
    assert op.size > 100
    factor = [((factor_id, (j,)),) if j else () for j in range(-12, 13)]
    for g, d in zip(op.elements(), op.dist.tolist()):
        want = min(word_length(group, group.multiply(group.invert(h), g)) for h in factor)
        assert d == want


@st.composite
def _cyclic_measures(draw):
    """A random single-syllable measure on a free product of 2-3 small
    cyclic groups, with positive integer weights and maybe a lazy part."""
    orders = draw(st.lists(st.integers(2, 5), min_size=2, max_size=3))
    steps = [((fid, p),) for fid, n in enumerate(orders) for p in range(1, n)]
    support = draw(st.lists(st.sampled_from(steps), min_size=1, unique=True))
    if draw(st.booleans()):
        support.append(())
    weights = [draw(st.integers(1, 5)) for _ in support]
    total = sum(weights)
    group = FreeProduct([cyclic_factor(n) for n in orders])
    return StepMeasure(group, {g: Fraction(w, total) for g, w in zip(support, weights)})


@st.composite
def _single_syllable_measures(draw):
    """A random measure in the first-passage system's scope: single
    syllables on a free product of 2-3 factors, each a small cyclic group
    or Z stepping by +-1 (the two weights drawn apart), with positive
    integer weights and maybe a lazy part."""
    kinds = draw(st.lists(st.sampled_from([2, 3, 4, 5, "Z"]), min_size=2, max_size=3))
    steps = []
    for fid, n in enumerate(kinds):
        payloads = [(1,), (-1,)] if n == "Z" else range(1, n)
        steps += [((fid, p),) for p in payloads]
    support = draw(st.lists(st.sampled_from(steps), min_size=1, unique=True))
    if draw(st.booleans()):
        support.append(())
    weights = [draw(st.integers(1, 5)) for _ in support]
    total = sum(weights)
    group = FreeProduct([LatticeFactor(1) if n == "Z" else cyclic_factor(n) for n in kinds])
    return StepMeasure(group, {g: Fraction(w, total) for g, w in zip(support, weights)})


def _admissible(mu):
    """Whether each factor's steps generate it as a semigroup, on a group
    other than Z2 * Z2: a cyclic factor's steps have gcd 1 with its order,
    and Z steps both ways."""
    factors = mu.group.factors
    if [getattr(f, "order", 0) for f in factors] == [2, 2]:
        return False
    for fid, factor in enumerate(factors):
        steps = [g[0][1] for g, _ in mu.support if g and g[0][0] == fid]
        if factor.kind == "lattice":
            if {(1,), (-1,)} - set(steps):
                return False
        elif math.gcd(factor.order, *steps) != 1:
            return False
    return True


def routed(mu):
    """Whether ``route`` grants mu, a measure drawn in the system's scope.
    It does exactly for an admissible walk on a non-elementary group
    (``_admissible``), and refuses the rest with one of those two reasons,
    never the scope's."""
    try:
        mu.route
    except GroupSpecError as err:
        assert str(err) in (INADMISSIBLE, ELEMENTARY) and not _admissible(mu)
        return False
    assert _admissible(mu)
    return True


def _kernel(mu, factor_id, r, L):
    """(row, returned, in_flight) of the L-truncated first-return kernel:
    through ``first_return_kernel`` where the route grants mu, and off the
    first-passage system itself where it refuses it."""
    if routed(mu):
        kern = first_return_kernel(mu, factor_id, r, L)
        return kern.row, kern.returned_mass, kern.in_flight_mass
    return _series_kernel(mu, mu.first_passage_system, factor_id, r, L)


def _series_case(mu, data):
    """A factor, a length L and a weight r drawn for mu, with the exact
    L-truncated row of the pruned state chain at them."""
    assume(mu.first_passage_system is not None)
    factor_id = data.draw(st.integers(0, len(mu.group.factors) - 1))
    L = data.draw(st.integers(0, 10))
    r = data.draw(st.sampled_from([Fraction(1), Fraction(7, 8)]))
    return factor_id, L, r, StateChain(mu, None, r, factor_id).absorb(L)[:4]


@settings(max_examples=50, deadline=None)
@given(mu=_single_syllable_measures(), data=st.data())
def test_exact_series_kernel_matches_the_state_chain(mu, data):
    factor_id, L, r, want = _series_case(mu, data)
    assert (*_kernel(mu, factor_id, r, L), 0) == want


@settings(max_examples=50, deadline=None)
@given(mu=_single_syllable_measures(), data=st.data())
def test_float_series_kernel_matches_the_state_chain(mu, data):
    factor_id, L, r, (row, _, _, _) = _series_case(mu, data)
    flt = _kernel(mu, factor_id, float(r), L)[0]
    assert set(flt) == set(row)
    for payload, w in row.items():
        assert abs(flt[payload] - float(w)) <= 1e-12 * float(w)
    _, returned, in_flight = _kernel(mu, factor_id, 1.0, L)
    assert abs(returned + in_flight - 1.0) < 1e-12


@settings(max_examples=30, deadline=None)
@given(mu=_cyclic_measures(), data=st.data())
def test_kernel_engines_agree_and_conserve_mass(mu, data):
    # the state chain's float and exact engines, truncated to a ball
    factor_id = data.draw(st.integers(0, len(mu.group.factors) - 1))
    L, B = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 4))
    exact_row = _exact_kernel(mu, factor_id, 1, L, B, prune=True)[0]
    row, returned, in_flight, escaped, _ = StateChain(mu, B, 1.0, factor_id).absorb(L, exact=False)
    assert set(exact_row) == set(row)
    for payload, w in exact_row.items():
        assert abs(float(w) - row[payload]) < 1e-12
    assert abs(returned + in_flight + escaped - 1.0) < 1e-12


@settings(max_examples=30, deadline=None)
@given(mu=_cyclic_measures(), n=st.integers(0, 8), ball=st.integers(0, 4))
def test_truncated_powers_conserve_mass_exactly(mu, n, ball):
    for dist in convolve_powers(mu, n, ball_bound=ball):
        total = Fraction(sum(dist.numerators.values()), dist.denominator)
        assert total + Fraction(dist.escaped_numerator, dist.denominator) == 1

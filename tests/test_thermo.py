import gc
import math
import weakref
from dataclasses import asdict

import numpy as np
import pytest

from freewalk.algebraic import perron_root
from freewalk.audit import ancona_audit
from freewalk.automaton import Automaton
from freewalk.config import load_config

from freewalk.errors import DivergenceError, GroupSpecError
from freewalk.green import GreenEvaluator
from freewalk.thermo import (
    IDENTITY_CAP,
    build_transfer,
    iterate_empty,
    pressure,
    sphere_identity_check,
)

from oracles import f2_first_passage, pressure_closed_form, z2z3_first_passages
from test_audit import CONFIGS
from test_green import syllable_weight
from test_path_operator import _measure


@pytest.fixture(scope="module")
def ev(f2_srw):
    return GreenEvaluator(f2_srw)


@pytest.fixture(scope="module", params=["f2_asym", "f2_lazy", "z2z3"])
def lumped_ev(request):
    return GreenEvaluator(_measure(request.param))


A = ((0, (1,)),)
B = ((1, (1,)),)


def potential_eval(evaluator, path, r):
    """phi_r of a nonempty symbol path, log(H(e,g|r) / H(g_1,g|r)), from
    scalar Green values: the reference for ``build_transfer``'s seeds."""
    if not path:
        raise ValueError("the potential is not defined on the empty path")
    g = tuple(path)
    return math.log(evaluator.h_value(g, r) / evaluator.h_value(g[1:], r))


class TestPotential:
    def test_single_symbol_closed_form(self, ev):
        # phi_1((a)) = log(H(e,a)/H(e,e)) = log((1/4) / (9/4)) = log(1/9)
        val = potential_eval(ev, ((0, (1,)),), 1.0)
        assert math.isclose(val, math.log(1.0 / 9.0), rel_tol=1e-9)

    def test_depends_only_on_first_symbol(self, ev):
        # the cut-vertex factorization makes the Green ratio insensitive to
        # the continuation, so build_transfer reads one value per symbol
        r = 0.9 * ev.R_hat
        one = potential_eval(ev, ((0, (1,)),), r)
        two = potential_eval(ev, ((0, (1,)), (1, (2,))), r)
        three = potential_eval(ev, ((0, (1,)), (1, (-1,)), (0, (2,))), r)
        assert math.isclose(one, two, rel_tol=1e-9)
        assert math.isclose(one, three, rel_tol=1e-9)

    @pytest.mark.parametrize("frac", [0.5, 0.9, 1.0])
    @pytest.mark.parametrize("measure", ["f2_srw", "z2z3_srw", "z2cubed_srw"])
    def test_seeds_are_the_scalar_potentials(self, request, measure, frac):
        # the seed of a symbol is e^phi_r of its one-symbol path, and t_k
        # sums the seeds of factor k's symbols
        ev_m = GreenEvaluator(request.getfixturevalue(measure))
        r = frac * ev_m.R_hat
        _, t = build_transfer(ev_m, r, cap=3)
        want = [
            math.fsum(math.exp(potential_eval(ev_m, ((fid, p),), r)) for p in ps)
            for fid, ps in enumerate(Automaton(ev_m.group, 3).payloads)
        ]
        assert t.tolist() == pytest.approx(want, rel=1e-14, abs=0)


@pytest.mark.parametrize("frac", [0.5, 0.9, 1.0])
@pytest.mark.parametrize("name", ["f2_srw", "z2z3", "z2z2z2"])
def test_transfer_weights_equal_the_per_factor_loop(name, frac):
    # t from one array of seed pairs over every symbol, bit for bit the
    # t of one ``syllable_pair_weights`` call per factor, each summed in
    # sequence
    ev_c = GreenEvaluator(load_config(CONFIGS / f"{name}.json").measure)
    r = frac * ev_c.R_hat
    t = build_transfer(ev_c, r, IDENTITY_CAP)[1]
    ref, want = GreenEvaluator(ev_c.measure), []  # its syllable ids factor by factor
    for fid, ps in enumerate(Automaton(ev_c.group, IDENTITY_CAP).payloads):
        fwd, back = ref.syllable_pair_weights([(fid, p) for p in ps], r)
        want.append(sum((fwd * back).tolist()))
    assert t.dtype == np.float64
    assert [x.hex() for x in t.tolist()] == [x.hex() for x in want]


class TestTransfer:
    def test_matrix_shape_and_positivity(self, ev):
        # one row and column per factor: t_k off the diagonal of row k
        matrix, t = build_transfer(ev, 0.9 * ev.R_hat, cap=2)
        assert matrix.shape == (2, 2)
        assert (t > 0.0).all()
        assert matrix.tolist() == [[0.0, t[0]], [t[1], 0.0]]

    def test_refuses_multi_syllable_support(self):
        # off single syllables the potential depends on more than the
        # first symbol, so there is no symbol-level matrix to build: the
        # evaluator it would be built from is refused
        with pytest.raises(GroupSpecError, match="needs the first-passage system"):
            GreenEvaluator(_measure("f2_two_letter"))

    def test_sphere_identity(self, ev):
        rows = sphere_identity_check(ev, 0.9 * ev.R_hat, cap=2, n_max=4)
        for _, lhs, rhs, rel in rows:
            assert lhs > 0 and rhs > 0
            assert rel < 0.02

    def test_sphere_identity_finite_factors(self, z2z3_srw):
        ev23 = GreenEvaluator(z2z3_srw)
        rows = sphere_identity_check(ev23, 0.9 * ev23.R_hat, cap=2, n_max=3)
        for _, _, _, rel in rows:
            assert rel < 0.02


class TestSphereIdentityFrozen:
    # float.hex of (n, transfer, direct, rel_err) at 0.9*R_hat for n <= 4, at
    # the shipped caps (f2 3, z2z3 2), as ``report`` writes them.  The direct
    # side is built sphere by sphere from the syllable weights; these are
    # the correctly rounded sums of ``h_value`` over each sphere, bit for
    # bit.  The transfer side iterates the factor matrix.  Both sides are
    # within 1.6e-15 of a 50-digit closed form.
    FROZEN = {
        ("f2_srw", 3): [
            (1, "0x1.8b7d7a56b3088p+0", "0x1.8b7d7a56b3089p+0", "0x1.4b6aa64489331p-53"),
            (2, "0x1.dbb1dbb8d2207p-2", "0x1.dbb1dbb8d2208p-2", "0x1.1389bcc7cc5e6p-53"),
            (3, "0x1.1e15150a0ce17p-3", "0x1.1e15150a0ce18p-3", "0x1.ca296a78bbb22p-53"),
            (4, "0x1.58196a7c84451p-5", "0x1.58196a7c84451p-5", "0x0.0p+0"),
        ],
        ("z2z3_srw", 2): [
            (1, "0x1.6595a8e323d6ep+1", "0x1.6595a8e323d6dp+1", "0x1.6e8c57d784c5ap-53"),
            (2, "0x1.b2dd737be676cp-1", "0x1.b2dd737be676dp-1", "0x1.2d6890607332cp-53"),
            (3, "0x1.5955678f781a1p-2", "0x1.5955678f781a0p-2", "0x1.7b8d43ef98f5bp-53"),
            (4, "0x1.a3f76521323c4p-4", "0x1.a3f76521323c4p-4", "0x0.0p+0"),
        ],
    }

    @pytest.mark.parametrize("measure,cap", sorted(FROZEN))
    def test_rows_frozen(self, request, measure, cap):
        ev_m = GreenEvaluator(request.getfixturevalue(measure))
        rows = sphere_identity_check(ev_m, 0.9 * ev_m.R_hat, cap, 4)
        got = [(n, a.hex(), b.hex(), e.hex()) for n, a, b, e in rows]
        assert got == self.FROZEN[measure, cap]

    def test_direct_side_is_the_sum_of_h_values(self, ev):
        r = 0.7 * ev.R_hat
        rows = sphere_identity_check(ev, r, cap=2, n_max=3)
        auto = Automaton(ev.group, 2)
        for n, _, direct, _ in rows:
            assert direct == math.fsum(ev.h_value(g, r) for _, g in auto.enumerate_sphere(n))


def _sphere_rows_reference(evaluator, r, cap, n_max):
    """The dict-based builder ``sphere_identity_check`` ran before its
    sphere arrays: G(e,g) = G(e,g[:-1]) w(g[-1]) and G(g,e) =
    G(g[1:],e) w(g[0]^-1) element by element, each weight computed on its
    own, summed over the sphere with ``math.fsum``."""
    lhs_seq = iterate_empty(build_transfer(evaluator, r, cap), n_max)
    gee = evaluator.green((), (), r)
    hee = gee * gee
    group = evaluator.group
    auto = Automaton(group, cap)
    weight = {s: syllable_weight(evaluator, s, r) for s in auto.symbols()}
    inv_weight = {
        (fid, p): weight[fid, group.factors[fid].inv(p)] for fid, p in auto.symbols()
    }
    prev = {(): (gee, gee)}
    rows = []
    for n in range(1, n_max + 1):
        cur = {
            g: (prev[g[:-1]][0] * weight[g[-1]], prev[g[1:]][1] * inv_weight[g[0]])
            for _, g in auto.enumerate_sphere(n)
        }
        direct = math.fsum(to * back for to, back in cur.values())
        lhs = lhs_seq[n - 1] * hee
        rel = abs(lhs - direct) / direct if direct else math.inf
        rows.append((n, lhs, direct, rel))
        prev = cur
    return rows


@pytest.mark.parametrize("frac", [0.5, 0.9, 0.98])
@pytest.mark.parametrize("name", ["f2_srw", "z2z3", "z2z2z2"])
def test_sphere_rows_equal_the_dict_builder(name, frac):
    # every row bit for bit, at the report's cap and n_max
    cfg = load_config(CONFIGS / f"{name}.json")
    ev_c = GreenEvaluator(cfg.measure)
    r = frac * ev_c.R_hat
    rows = sphere_identity_check(ev_c, r, IDENTITY_CAP, 4)
    want = _sphere_rows_reference(ev_c, r, IDENTITY_CAP, 4)
    assert [(n, a.hex(), b.hex(), e.hex()) for n, a, b, e in rows] == [
        (n, a.hex(), b.hex(), e.hex()) for n, a, b, e in want
    ]
    assert all(type(x) is float for row in rows for x in row[1:])


def test_dropped_evaluator_needs_no_cycle_collection(f2_srw):
    # the syllable tables hold no reference back to the evaluator, so
    # dropping it frees it at once; a cycle would keep every evaluator of a
    # long run alive until the cyclic collector ran
    ev_f = GreenEvaluator(f2_srw)
    r = 0.9 * ev_f.R_hat
    ev_f.green((), ((0, (2,)), (1, (-1,))), r)
    ancona_audit(ev_f, [r], n_triples=20)
    sphere_identity_check(ev_f, r, cap=2, n_max=3)
    ref = weakref.ref(ev_f)
    gc.disable()
    try:
        del ev_f
        alive = ref() is not None
    finally:
        gc.enable()
    assert not alive


class TestPressure:
    def test_negative_inside_radius(self, f2_srw):
        est = pressure(f2_srw, 0.9 * f2_srw.first_passage_system.radius)
        assert est.pressure < -0.05

    def test_small_at_radius(self, f2_srw):
        est = pressure(f2_srw, f2_srw.first_passage_system.radius)
        assert -0.05 < est.pressure <= 0.01

    def test_eigenvalue_monotone_in_r(self, f2_srw):
        radius = f2_srw.first_passage_system.radius
        vals = [pressure(f2_srw, f * radius).eigenvalue for f in (0.5, 0.7, 0.9)]
        assert vals == sorted(vals)

    def test_fields_are_the_estimate_keys(self, f2_srw):
        # pressure.json writes each estimate as its record's fields
        est = pressure(f2_srw, 0.9 * f2_srw.first_passage_system.radius)
        assert asdict(est) == {"r": est.r, "eigenvalue": est.eigenvalue,
                               "pressure": est.pressure}

    @pytest.mark.parametrize("frac", [0.5, 0.9, 0.98, 0.999])
    @pytest.mark.parametrize("name", ["f2_srw", "z2z3", "z2z2z2"])
    def test_matches_the_closed_form(self, name, frac):
        # the untruncated t: every syllable of every factor, however near R
        measure = load_config(CONFIGS / f"{name}.json").measure
        r = frac * measure.first_passage_system.radius
        want = pressure_closed_form(name, r)
        assert abs(pressure(measure, r).pressure / want - 1) <= 1e-12

    @pytest.mark.parametrize("name", ["f2_srw", "z2z3", "z2z2z2"])
    def test_vanishes_at_the_radius(self, name):
        # t from x(R), found with R by Newton on the fold system; the
        # closed form there is 0 to rounding
        measure = load_config(CONFIGS / f"{name}.json").measure
        value = pressure(measure, measure.first_passage_system.radius).pressure
        assert abs(value) <= 1e-13
        assert abs(value - pressure_closed_form(name)) <= 1e-13

    @pytest.mark.parametrize("name", ["z2sq_z2", "f2_two_letter"])
    def test_outside_the_system_is_refused(self, name):
        with pytest.raises(GroupSpecError, match="needs the first-passage system"):
            pressure(_measure(name), 1.0)

    def test_past_the_radius_is_refused(self, f2_srw):
        # anywhere in R's bar (lo, hi) the pressure reads x(R); one float
        # past the bar, Newton from 0 could still stop at its rounding floor
        # with a solution, so r is compared with the bar first
        lo, hi = f2_srw.first_passage_system.bracket
        assert pressure(f2_srw, lo).pressure == pressure(f2_srw, hi).pressure
        assert abs(pressure(f2_srw, hi).pressure) <= 1e-13
        with pytest.raises(DivergenceError, match="past the radius"):
            pressure(f2_srw, math.nextafter(hi, 2.0))


class TestPerronRoot:
    @pytest.mark.parametrize("frac", [0.5, 0.9, 0.98])
    @pytest.mark.parametrize("cap", [2, 3, 4])
    def test_f2_root_matches_the_closed_form(self, ev, frac, cap):
        # a symbol a^k carries e^phi = F(e,a^k) F(a^k,e) = f^(2|k|) to every
        # symbol of the other factor, so the root of the cap-D transfer
        # matrix is the per-factor sum to D
        r = frac * ev.R_hat
        f = f2_first_passage(r)
        want = 2.0 * sum(f ** (2 * k) for k in range(1, cap + 1))
        got = perron_root(build_transfer(ev, r, cap)[0])
        assert abs(got - want) / want < 1e-13

    @pytest.mark.parametrize("frac", [0.5, 0.9, 0.98])
    def test_z2z3_root_matches_the_closed_form(self, z2z3_srw, frac):
        # at cap 2 the symbols are s, t, t^-1; s carries F(e,s) F(s,e) =
        # F_s^2 and t^(+-1) carry F_t^2 to every symbol of the other factor,
        # so the bipartite symbol graph has root^2 = F_s^2 * 2 F_t^2
        ev23 = GreenEvaluator(z2z3_srw)
        r = frac * ev23.R_hat
        fs, ft = z2z3_first_passages(r)
        want = math.sqrt(2.0) * fs * ft
        got = perron_root(build_transfer(ev23, r, 2)[0])
        assert abs(got - want) / want < 1e-13


class TestPressureFrozen:
    # float.hex of (eigenvalue, pressure) at 0.9*R: the eigenvalue is the
    # raw Perron root of the untruncated factor matrix, not exp of its log.
    # R is the branch point of the first-passage system and t comes from
    # its least solution there.  The pressures are within 3.0e-16 (f2) and
    # 2.0e-16 (z2z3) relative of a 50-digit closed form.
    FROZEN = {
        "f2_srw": ("0x1.349bfe829e891p-2", "-0x1.330b96640082bp+0"),
        "z2z3_srw": ("0x1.63c86741fb794p-2", "-0x1.0ea177ba5a85ap+0"),
    }

    @pytest.mark.parametrize("measure", sorted(FROZEN))
    def test_values_frozen(self, request, measure):
        mu = request.getfixturevalue(measure)
        est = pressure(mu, 0.9 * mu.first_passage_system.radius)
        assert (est.eigenvalue.hex(), est.pressure.hex()) == self.FROZEN[measure]


class TestRecurrence:
    def test_iterates_decay_inside_radius(self, ev):
        seq = iterate_empty(build_transfer(ev, 0.5 * ev.R_hat, cap=2), 6)
        assert seq[-1] < seq[0]


def symbol_transfer(evaluator, r, cap):
    """The symbol x symbol transfer matrix diag(seed)[fid(i) != fid(j)] with
    seed[s] = F(e,s|r) F(s,e|r), from scalar first passages: the reference
    for the factor matrix of ``build_transfer``."""
    symbols = Automaton(evaluator.group, cap).symbols()
    seed = np.array([
        evaluator.first_passage((), (s,), r)
        * evaluator.first_passage((s,), (), r)
        for s in symbols
    ])
    fids = np.array([fid for fid, _ in symbols])
    return np.where(fids[:, None] != fids, seed[:, None], 0.0), seed


@pytest.mark.parametrize("frac", [0.5, 0.9])
@pytest.mark.parametrize("cap", [1, 2, 3, 4])
def test_factor_matrix_has_the_symbol_matrix_spectrum(lumped_ev, cap, frac):
    # diag(seed)[fid(i) != fid(j)] = A B with A the symbols' seeds by
    # factor and B the factor adjacency, so its nonzero spectrum is that of
    # B A = factor_matrix(t)
    ev_m = lumped_ev
    r = frac * ev_m.R_hat
    matrix, t = build_transfer(ev_m, r, cap)
    sym, seed = symbol_transfer(ev_m, r, cap)
    assert matrix.shape == (2, 2)
    want = max(abs(np.linalg.eigvals(sym)))
    assert perron_root(matrix) == pytest.approx(want, rel=1e-14, abs=0)
    v, sums = seed, []
    for _ in range(6):
        sums.append(v.sum())
        v = sym @ v
    assert iterate_empty((matrix, t), 6) == pytest.approx(sums, rel=1e-14, abs=0)

import json
import math
import random
import tracemalloc
from array import array
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from freewalk import audit
from freewalk.audit import (
    AnconaReport,
    ancona_audit,
    llt_fit,
    ratio_report,
    syllable_choices,
)
from freewalk.config import load_config
from freewalk.green import GreenEvaluator
from freewalk.walks import detect_period, return_probabilities

from oracles import synthetic_log_probs
from test_green import reference_green
from test_path_operator import _measure

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def ev(f2_srw):
    return GreenEvaluator(f2_srw)


def _random_syllable(rng, choices, fids):
    fid = rng.choice(fids)
    return (fid, rng.choice(choices[fid]))


def random_element(choices, rng, n_syllables):
    """A uniform-ish random normal form with ``n_syllables`` syllables,
    drawn from ``choices`` (see ``syllable_choices``)."""
    out = []
    last = None
    for _ in range(n_syllables):
        fids = [k for k in range(len(choices)) if k != last]
        out.append(_random_syllable(rng, choices, fids))
        last = out[-1][0]
    return tuple(out)


def _sample_words(group, n_triples, max_rel_dist, seed):
    """The reference for ``audit._sample``: (words, ns) drawn as tuples of
    syllables through ``random.Random``'s ``choice`` and ``randint``."""
    rng = random.Random(seed)
    choices = syllable_choices(group)
    words = []
    for _ in range(n_triples):
        span = rng.randint(2, max_rel_dist)
        delta = random_element(choices, rng, span)
        cut = rng.randint(1, span)  # y = x delta[:cut]
        words += [delta, delta[:cut], delta[cut:]]
    ns = []
    for n in range(1, max_rel_dist + 1):
        for _ in range(10):
            prefix = random_element(choices, rng, n)
            first_fid = prefix[0][0]
            last_fid = prefix[-1][0]
            back_fids = [k for k in range(len(group.factors)) if k != first_fid]
            fwd_fids = [k for k in range(len(group.factors)) if k != last_fid]
            s = _random_syllable(rng, choices, back_fids)
            sp = _random_syllable(rng, choices, back_fids)
            t = _random_syllable(rng, choices, fwd_fids)
            tp = _random_syllable(rng, choices, fwd_fids)
            if s != sp and t != tp:
                ns.append(n)
                words += [(s,) + prefix + (t,), (sp,) + prefix + (tp,),
                          (sp,) + prefix + (t,), (s,) + prefix + (tp,)]
    return words, ns


class TestSampling:
    def test_random_element_syllable_count(self, f2):
        rng = random.Random(7)
        for n in range(6):
            g = random_element(syllable_choices(f2), rng, n)
            assert len(g) == n
            assert f2.is_valid(g)

    def test_a_span_below_two_is_refused(self, f2):
        # randint(2, 1) raises; a draw below 0 would never end
        with pytest.raises(ValueError):
            _sample_words(f2, 1, 1, 0)
        with pytest.raises(ValueError):
            audit._sample(f2, 1, 1, 0)

    @pytest.mark.parametrize("name", ["f2_srw", "z2z3", "z2z2z2"])
    def test_ids_are_those_of_the_reference_words(self, name):
        # seed for seed, the drawn rows are the reference's words, and
        # their gathered ids are what ``syllable_ids`` of those words gives
        # on a fresh evaluator, padding and id order included
        measure = load_config(CONFIGS / f"{name}.json").measure
        for seed in range(21):
            words, ns = _sample_words(measure.group, 200, 6, seed)
            rows, syllables, got_ns = audit._sample(measure.group, 200, 6, seed)
            assert got_ns == ns
            assert [tuple(syllables[i] for i in row if i < len(syllables))
                    for row in rows.tolist()] == words
            want = GreenEvaluator(measure).syllable_ids(words)
            got = audit._syllable_ids(GreenEvaluator(measure), rows, syllables)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)


class TestAncona:
    def test_tree_ratios_are_exactly_one(self, ev):
        (rep,) = ancona_audit(ev, [0.9 * ev.R_hat], n_triples=60, seed=1)
        assert rep.n_triples > 30
        # every interior geodesic point is a cut vertex, so the Green
        # function factors and the comparison ratio is identically 1
        assert abs(rep.min_ratio - 1.0) < 1e-6
        assert abs(rep.max_ratio - 1.0) < 1e-6
        assert rep.lower_bound_fraction == 1.0

    def test_strong_form_deviations_vanish(self, ev):
        (rep,) = ancona_audit(ev, [0.9 * ev.R_hat], n_triples=20, seed=2)
        assert rep.deviations_below_floor
        assert rep.strong_rho == 0.0
        assert rep.strong_rho < 1.0

    def test_finite_factor_product(self, z2z3_srw):
        ev23 = GreenEvaluator(z2z3_srw)
        (rep,) = ancona_audit(
            ev23, [0.9 * ev23.R_hat], n_triples=40, max_rel_dist=4, seed=3
        )
        assert rep.n_triples > 10
        assert rep.lower_bound_fraction == 1.0

    def test_report_serializes(self, ev):
        (rep,) = ancona_audit(ev, [0.5 * ev.R_hat], n_triples=10, seed=4)
        blob = json.loads(rep.to_json())
        assert blob["triples"] == rep.n_triples
        assert blob["deviations_below_floor"] is True

    def test_json_is_compact_and_the_former_payload(self, ev):
        # the compact string parses to the payload of the former indented
        # one, key for key and in order
        for rep in ancona_audit(ev, [0.5 * ev.R_hat, 0.9 * ev.R_hat], n_triples=30, seed=6):
            names = dict(n_triples="triples", n_skipped="skipped", min_ratio="ratio_min",
                         max_ratio="ratio_max", mean_ratio="ratio_mean")
            former = json.dumps({names.get(k, k): v for k, v in asdict(rep).items()}, indent=2)
            assert "\n" not in rep.to_json()
            assert json.dumps(json.loads(rep.to_json())) == json.dumps(json.loads(former))

    def test_deterministic_in_seed(self, ev):
        (a,) = ancona_audit(ev, [0.9 * ev.R_hat], n_triples=25, seed=5)
        (b,) = ancona_audit(ev, [0.9 * ev.R_hat], n_triples=25, seed=5)
        assert a == b

    def test_one_sample_serves_the_grid(self, ev):
        # no draw depends on r, so a grid audits one sample, and each of
        # its reports is the one a grid of that r alone gives
        grid = [0.5 * ev.R_hat, 0.9 * ev.R_hat, 0.98 * ev.R_hat]
        reports = ancona_audit(ev, grid, n_triples=25, seed=6)
        assert [rep.r for rep in reports] == grid
        alone = [ancona_audit(ev, [r], n_triples=25, seed=6)[0] for r in grid]
        assert reports == alone


class TestAnconaFrozen:
    # float.hex of (min, max, mean) and the skip count of the default audit
    # (200 triples, seed 0) at 0.9*R_hat: the ratios are 1 up to rounding,
    # and the rounding follows the order in which each Green value is formed
    FROZEN = {
        "f2_srw": ("0x1.ffffffffffffdp-1", "0x1.0000000000001p+0", "0x1.0000000000000p+0", 0),
        "z2z3_srw": ("0x1.ffffffffffffep-1", "0x1.0000000000001p+0", "0x1.0000000000000p+0", 0),
    }

    @pytest.mark.parametrize("measure", sorted(FROZEN))
    def test_values_frozen(self, request, measure):
        ev_m = GreenEvaluator(request.getfixturevalue(measure))
        (rep,) = ancona_audit(ev_m, [0.9 * ev_m.R_hat])
        got = (rep.min_ratio.hex(), rep.max_ratio.hex(), rep.mean_ratio.hex(), rep.n_skipped)
        assert got == self.FROZEN[measure]
        assert rep.n_triples == 200


def _ancona_at_reference(evaluator, r, seed, words, n_triples, ns):
    """The per-triple loop ``_ancona_at`` ran before its batch, on the
    scalar values of ``reference_green``: the reference for every report."""

    def green(word):
        return reference_green(evaluator, word, r)

    ratios = []
    skipped = 0
    ok = 0
    gee = evaluator.green((), (), r).value
    for i in range(n_triples):
        gxz, gxy, gyz = (green(w) for w in words[3 * i : 3 * i + 3])
        if 0.0 in (gxz, gxy, gyz):
            skipped += 1
            continue
        ratio = (gxz * gee) / (gxy * gyz)
        ratios.append(ratio)
        if ratio >= 1.0 - audit.LOWER_TOL:
            ok += 1

    strong = []
    quads = words[3 * n_triples :]
    for j, n in enumerate(ns):
        g = [green(w) for w in quads[4 * j : 4 * j + 4]]
        if 0.0 in g:
            continue
        g1, g2, g3, g4 = g
        strong.append((n, abs((g1 * g2) / (g3 * g4) - 1.0)))
    below_floor = all(d <= audit.DEVIATION_FLOOR for _, d in strong)
    pts = [(n, d) for n, d in strong if d > audit.DEVIATION_FLOOR]
    if below_floor or len({n for n, _ in pts}) < 2:
        rho, c = 0.0, 0.0
    else:
        ns = np.array([n for n, _ in pts], dtype=float)
        logs = np.array([math.log(d) for _, d in pts])
        design = np.column_stack([np.ones_like(ns), ns])
        coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
        c, rho = math.exp(coef[0]), math.exp(coef[1])
    return AnconaReport(
        r=float(r),
        seed=seed,
        n_triples=len(ratios),
        n_skipped=skipped,
        min_ratio=min(ratios) if ratios else math.nan,
        max_ratio=max(ratios) if ratios else math.nan,
        mean_ratio=sum(ratios) / len(ratios) if ratios else math.nan,
        lower_bound_fraction=ok / len(ratios) if ratios else math.nan,
        strong_rho=rho,
        strong_c=c,
        deviations_below_floor=below_floor,
    )


@pytest.fixture(scope="module", params=["f2_srw", "z2z3", "z2z2z2"])
def shipped(request):
    """(config, evaluator) of a shipped config, as ``report`` builds them."""
    cfg = load_config(CONFIGS / f"{request.param}.json")
    return cfg, GreenEvaluator(cfg.measure)


class TestAnconaBatch:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reports_equal_the_scalar_loop(self, shipped, seed):
        # field for field and bit for bit, on the report's own grid
        cfg, ev_c = shipped
        grid = cfg.resolve_r_grid(ev_c.R_hat)
        reports = ancona_audit(ev_c, grid, seed=seed)
        words, ns = _sample_words(ev_c.group, 200, 6, seed)
        for rep, r in zip(reports, grid):
            want = _ancona_at_reference(ev_c, r, seed, words, 200, ns)
            assert [type(v) for v in vars(rep).values()] == [
                type(v) for v in vars(want).values()
            ]
            assert rep.to_json() == want.to_json()

    def test_repeated_audits_hold_no_memory(self, f2_srw):
        # the sample's id arrays live for one call and the weight tables
        # for the evaluator: once the first call has filled the tables, the
        # traced peak stops growing.  One call's sample is about 50 kB of
        # ids; the slack covers CPython's free lists, not a kept sample.
        ev_f = GreenEvaluator(f2_srw)
        grid = [0.9 * ev_f.R_hat, 0.95 * ev_f.R_hat]
        peaks = array("q", [0] * 20)  # records without allocating
        tracemalloc.start()
        try:
            for i in range(20):
                ancona_audit(ev_f, grid)
                peaks[i] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peaks[-1] - peaks[1] < 4096, list(peaks)


def _llt_fit_loop(log_probs, period, window, r_hat):
    """``llt_fit`` as it picked its window and formed the ratio estimator
    one index at a time: the reference its array pass must equal."""
    n_min, n_max = window
    ns = [
        n
        for n in range(n_min, min(n_max, len(log_probs) - 1) + 1)
        if n % period == 0 and math.isfinite(log_probs[n])
    ]
    ns_arr = np.array(ns, dtype=float)
    ys = np.array([log_probs[n] for n in ns])

    def joint(ns_a, ys_a):
        design = np.column_stack([np.ones_like(ns_a), -ns_a, -np.log(ns_a)])
        coef, *_ = np.linalg.lstsq(design, ys_a, rcond=None)
        resid = ys_a - design @ coef
        return coef, math.sqrt(float(resid @ resid) / len(ys_a))

    coef, rms = joint(ns_arr, ys)
    log_r = math.log(r_hat)
    design2 = np.column_stack([np.ones_like(ns_arr), -np.log(ns_arr)])
    coef2, *_ = np.linalg.lstsq(design2, ys + ns_arr * log_r, rcond=None)
    half = ns[len(ns) // 2 :]
    diffs = []
    for n0, n1 in zip(half, half[1:]):
        dlp = log_probs[n1] - log_probs[n0]
        diffs.append(-(dlp + (n1 - n0) * log_r) / (math.log(n1) - math.log(n0)))
    mid = len(ns) // 2
    lo_coef, _ = joint(ns_arr[:mid], ys[:mid])
    hi_coef, _ = joint(ns_arr[mid:], ys[mid:])
    return audit.LltFit(
        alpha=float(coef[2]), log_r=float(coef[1]), intercept=float(coef[0]),
        alpha_fixed=float(coef2[1]), alpha_ratio=float(np.median(diffs)),
        r_hat_used=r_hat, window=(n_min, n_max), period=period,
        residual_rms=rms, window_halves=(float(lo_coef[2]), float(hi_coef[2])),
    )


class TestLltFit:
    @pytest.mark.parametrize("case", ["f2", "z2z3", "period1", "period2"])
    def test_equals_the_index_loop(self, case):
        # every field bit for bit (repr tells floats apart to the last
        # bit): the report's two walks to n = 5000 on their system's R,
        # and synthetic sequences fitted at an r_hat off their growth
        if case in ("f2", "z2z3"):
            mu = _measure(case)
            seq = return_probabilities(mu, 5000)
            args = (seq.log_values, detect_period(seq), (500, 5000),
                    mu.first_passage_system.radius)
        else:
            period = int(case[-1])
            logs = synthetic_log_probs(1.5, 1.2, 3000, period=period, c=0.7)
            args = (logs, period, (300, 2999), 1.19)
        assert repr(llt_fit(*args)) == repr(_llt_fit_loop(*args))

    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.5])
    @pytest.mark.parametrize("growth", [1.05, 1.2, 2.0])
    def test_recovers_synthetic_exponent(self, alpha, growth):
        logs = synthetic_log_probs(alpha, growth, 4000, period=2, c=0.7)
        fit = llt_fit(logs, period=2, window=(500, 4000), r_hat=growth)
        assert abs(fit.alpha - alpha) < 1e-3
        assert abs(fit.alpha_fixed - alpha) < 1e-3
        assert abs(fit.alpha_ratio - alpha) < 1e-3
        assert abs(fit.log_r - math.log(growth)) < 1e-4
        assert fit.consistent()

    def test_window_halves_agree_on_clean_data(self):
        logs = synthetic_log_probs(1.5, 1.2, 3000, period=1)
        fit = llt_fit(logs, period=1, window=(300, 3000), r_hat=1.2)
        lo, hi = fit.window_halves
        assert abs(lo - hi) < 1e-3

    def test_requires_enough_points(self):
        logs = synthetic_log_probs(1.5, 1.2, 100, period=2)
        with pytest.raises(ValueError):
            llt_fit(logs, period=2, window=(10, 80), r_hat=1.2)

    def test_respects_period_lattice(self):
        logs = synthetic_log_probs(1.5, 1.3, 2000, period=2)
        fit = llt_fit(logs, period=2, window=(200, 2000), r_hat=1.3)
        assert fit.period == 2
        assert abs(fit.alpha - 1.5) < 1e-3


class TestRatioReport:
    # float.hex of (i1, i2, dgreen) for every row of the shipped configs'
    # grids, as ``isums`` reports them
    PINNED = {
        "f2_srw": [
            ("0x1.323f5d36ef021p+2", "0x1.6a93157e45628p+4", "0x1.323f5d36ef022p+2"),
            ("0x1.0d611fe85c537p+3", "0x1.204a4583dd8e1p+6", "0x1.0d611fe85c537p+3"),
            ("0x1.0f65f860e492bp+4", "0x1.4127aa04c1c60p+8", "0x1.0f65f860e492cp+4"),
        ],
        "z2z3": [
            ("0x1.ea4e547e8a9ffp+2", "0x1.796afad248571p+5", "0x1.ea4e547e8a9ffp+2"),
            ("0x1.0d8f52c95e885p+4", "0x1.886cb02315274p+7", "0x1.0d8f52c95e886p+4"),
        ],
        "z2z2z2": [
            ("0x1.7aed36d7a71cep+2", "0x1.f3e46fa578c45p+4", "0x1.7aed36d7a71d0p+2"),
            ("0x1.69fab4e09c722p+3", "0x1.b57ec97ef566cp+6", "0x1.69fab4e09c723p+3"),
            ("0x1.936781ae47e33p+4", "0x1.0e41ba8ecf207p+9", "0x1.936781ae47e35p+4"),
        ],
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_rows_pinned(self, name):
        cfg = load_config(CONFIGS / f"{name}.json")
        ev_c = GreenEvaluator(cfg.measure)
        rep = ratio_report(ev_c, cfg.resolve_r_grid(ev_c.R_hat))
        got = [(row.i1.hex(), row.i2.hex(), row.dgreen.hex()) for row in rep.rows]
        assert got == self.PINNED[name]

    def test_structure_and_bands(self, ev):
        grid = [f * ev.R_hat for f in (0.90, 0.95, 0.98)]
        rep = ratio_report(ev, grid)
        assert len(rep.rows) == 3
        assert [row.r for row in rep.rows] == sorted(grid)
        assert rep.non_monotone == []  # I1 grows toward the radius
        for row in rep.rows:
            assert row.i1 > 0 and row.i2 > 0 and row.dgreen > 0
            assert math.isclose(
                row.i2_over_i1_cubed, row.i2 / row.i1**3, rel_tol=1e-12
            )
        assert rep.band_i1 >= 0.0
        assert math.isfinite(rep.band_dgreen)

    def test_csv_and_json_exports(self, ev):
        grid = [0.90 * ev.R_hat, 0.95 * ev.R_hat]
        rep = ratio_report(ev, grid)
        rows = list(rep.to_csv_rows())
        assert rows[0][0] == "r"
        assert len(rows) == 3
        blob = json.loads(rep.to_json())
        assert len(blob["rows"]) == 2
        assert blob["r_hat"] == rep.r_hat
        # compact, and the payload of the former indented form, in order
        names = dict(band_i1="band_i1_scaled", band_i2_ratio="band_i2_over_i1_cubed",
                     band_dgreen="band_dgreen_scaled")
        former = json.dumps({names.get(k, k): v for k, v in asdict(rep).items()}, indent=2)
        assert "\n" not in rep.to_json()
        assert json.dumps(blob) == json.dumps(json.loads(former))

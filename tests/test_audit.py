import json
import math

import pytest

from freewalk.audit import (
    ancona_audit,
    llt_fit,
    random_element,
    ratio_report,
    syllable_choices,
    synthetic_log_probs,
)
from freewalk.green import GreenEvaluator


@pytest.fixture(scope="module")
def ev(f2_srw):
    return GreenEvaluator(f2_srw)


class TestSampling:
    def test_random_element_syllable_count(self, f2):
        import random

        rng = random.Random(7)
        for n in range(6):
            g = random_element(syllable_choices(f2), rng, n)
            assert len(g) == n
            assert f2.is_valid(g)


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
        "f2_srw": ("0x1.ffffffffffffep-1", "0x1.0000000000001p+0", "0x1.0000000000000p+0", 0),
        "z2z3_srw": ("0x1.fffffffffffffp-1", "0x1.0000000000001p+0", "0x1.0000000000000p+0", 0),
    }

    @pytest.mark.parametrize("measure", sorted(FROZEN))
    def test_values_frozen(self, request, measure):
        ev_m = GreenEvaluator(request.getfixturevalue(measure))
        (rep,) = ancona_audit(ev_m, [0.9 * ev_m.R_hat])
        got = (rep.min_ratio.hex(), rep.max_ratio.hex(), rep.mean_ratio.hex(), rep.n_skipped)
        assert got == self.FROZEN[measure]
        assert rep.n_triples == 200


class TestLltFit:
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

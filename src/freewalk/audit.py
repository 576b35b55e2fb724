"""Audits of Green-function inequalities and return-probability asymptotics.

Three instruments:

* ``ancona_audit`` samples geodesic triples and checks the multiplicative
  comparison G(x,z) G(e,e) >= G(x,y) G(y,z) at interior geodesic points,
  together with a deviation-vs-shared-prefix-length decay fit on quadruples.
  G is left-invariant, so each value is read at its displacement x^-1 y.
  One sample, encoded once as syllable ids, serves a whole r grid, with
  one batch of Green values per r.
* ``llt_fit`` estimates the polynomial correction exponent alpha in
  p_n ~ C R^{-n} n^{-alpha}, jointly with R and separately with R pinned.
* ``ratio_report`` tabulates the near-radius scaling combinations
  I1*sqrt(R-r), I2/I1^3, and G'*sqrt(R-r) over an r grid.

Ratios are reported as measured bands; nothing is asserted beyond the
supermultiplicative lower bound, which holds path by path.  ``ratio_report``
refuses a grid point where the two routes to I1 in ``i_sums`` disagree.
"""

import json
import math
import random
from dataclasses import asdict, dataclass, field

import numpy as np

DEVIATION_FLOOR = 1e-9
# slack below 1 for the triple bound
LOWER_TOL = 1e-9


# -- element sampling ---------------------------------------------------------


def syllable_choices(group, cap=3):
    """Per factor, the payloads a random syllable is drawn from: every
    nontrivial element, up to factor word length ``cap`` on a lattice."""
    return [
        list(f.nontrivial_elements(cap if f.kind == "lattice" else None))
        for f in group.factors
    ]


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


# -- Ancona audit -------------------------------------------------------------


@dataclass
class AnconaReport:
    r: float
    seed: int
    n_triples: int
    n_skipped: int
    min_ratio: float
    max_ratio: float
    mean_ratio: float
    lower_bound_fraction: float  # fraction of triples with ratio >= 1 - tol
    strong_rho: float
    strong_c: float
    deviations_below_floor: bool

    def to_json(self):
        names = dict(n_triples="triples", n_skipped="skipped", min_ratio="ratio_min",
                     max_ratio="ratio_max", mean_ratio="ratio_mean")
        return json.dumps({names.get(k, k): v for k, v in vars(self).items()}, indent=2)


def ancona_audit(evaluator, grid, n_triples=200, max_rel_dist=6, seed=0):
    """Sampled geodesic-triple ratio statistics plus a strong-form decay fit,
    one ``AnconaReport`` per r of ``grid``.

    The triple ratio is G(x,z) G(y,y) / (G(x,y) G(y,z)) with y an interior
    point of the syllable geodesic from x to z; supermultiplicativity of
    path weights makes it >= 1 up to rounding (``LOWER_TOL``).  The
    strong-form audit takes quadruples whose geodesics share an n-syllable
    prefix and fits |ratio - 1| <= C rho^n; rho = C = 0 where the
    deviations above the floor span fewer than two n, which fix no slope.
    G is left-invariant, so every value is read from e to its displacement
    x^-1 y.  No draw depends on r: the sample is drawn and encoded once
    (``_sample``, ``syllable_ids``), each r reads all its values in one
    ``green_batch``, and a report at r is the one a grid of r alone gives.

    The evaluator accepts only measures on single syllables, where every
    G(x,z) is G(e,e) times its syllables' first passages, so the ratio is
    1 by construction and its deviation measures rounding only: on every
    measure it accepts the audit is an identity check, not a comparison
    of two independent numbers.  A triple or quadruple is skipped only
    for a zero value.
    """
    words, ns = _sample(evaluator.group, n_triples, max_rel_dist, seed)
    ids = evaluator.syllable_ids(words)
    return [_ancona_at(evaluator, r, seed, ids, n_triples, ns) for r in grid]


def _sample(group, n_triples, max_rel_dist, seed):
    """(words, ns) of the audit's draw: x^-1 z, x^-1 y and y^-1 z of each
    triple, then the four displacements of each quadruple, whose shared
    prefix lengths are ``ns``."""
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
            # x = s^-1 and x' = s'^-1 extend backwards from e; y = prefix t
            # and y' = prefix t' extend past the prefix
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


def _ancona_at(evaluator, r, seed, ids, n_drawn, ns):
    """The ``AnconaReport`` at r of a ``_sample`` of ``n_drawn`` triples,
    encoded as ``ids``, in one ``green_batch``.  A triple or a quadruple
    with a zero value is skipped.  Sums run in sequence, as a loop over
    the triples adds."""
    values = evaluator.green_batch(ids, r)
    gee = evaluator.green((), (), r).value
    gxz, gxy, gyz = (values[k : 3 * n_drawn : 3] for k in range(3))
    kept = (gxz != 0) & (gxy != 0) & (gyz != 0)
    ratio = (gxz[kept] * gee) / (gxy[kept] * gyz[kept])
    ok = int(np.count_nonzero(ratio >= 1.0 - LOWER_TOL))
    ratios = ratio.tolist()

    quads = values[3 * n_drawn :].reshape(-1, 4)
    kept = quads.all(axis=1)
    g1, g2, g3, g4 = quads[kept].T
    devs = np.abs((g1 * g2) / (g3 * g4) - 1.0)
    below_floor = bool(np.all(devs <= DEVIATION_FLOOR))
    above = devs > DEVIATION_FLOOR
    ns = np.array(ns, dtype=float)[kept][above]
    if below_floor or len(set(ns.tolist())) < 2:  # no slope in n to fit
        rho, c = 0.0, 0.0
    else:
        logs = np.array([math.log(d) for d in devs[above].tolist()])
        design = np.column_stack([np.ones_like(ns), ns])
        coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
        c, rho = math.exp(coef[0]), math.exp(coef[1])
    return AnconaReport(
        r=float(r),
        seed=seed,
        n_triples=len(ratios),
        n_skipped=n_drawn - len(ratios),
        min_ratio=min(ratios) if ratios else math.nan,
        max_ratio=max(ratios) if ratios else math.nan,
        mean_ratio=sum(ratios) / len(ratios) if ratios else math.nan,
        lower_bound_fraction=ok / len(ratios) if ratios else math.nan,
        strong_rho=rho,
        strong_c=c,
        deviations_below_floor=below_floor,
    )


# -- local-limit exponent fitting ---------------------------------------------


@dataclass
class LltFit:
    alpha: float  # joint 3-parameter fit
    log_r: float  # fitted log R from the joint fit
    intercept: float
    alpha_fixed: float  # fit with log R pinned to r_hat_used
    alpha_ratio: float  # finite-difference estimator, R pinned
    r_hat_used: float
    window: tuple
    period: int
    residual_rms: float
    window_halves: tuple  # (alpha on lower half, alpha on upper half)

    def consistent(self):
        """Whether the joint and pinned-R estimates agree within the spread."""
        spread = abs(self.window_halves[0] - self.window_halves[1])
        return abs(self.alpha - self.alpha_fixed) <= max(spread, 0.05)


def llt_fit(log_probs, period, window, r_hat):
    """Fit log p_n = c - n log R - alpha log n on the period-lattice points.

    ``log_probs[n]`` is log p_n (minus infinity off the period lattice).
    Returns the joint fit, a fit with R pinned to ``r_hat``, and a
    finite-difference ratio estimator.
    """
    n_min, n_max = window
    log_probs = np.asarray(log_probs, dtype=float)
    ns = np.arange(n_min, min(n_max, len(log_probs) - 1) + 1)
    ns = ns[(ns % period == 0) & np.isfinite(log_probs[ns])]
    if len(ns) < 50:
        raise ValueError(f"only {len(ns)} usable lattice points in the window")
    ns_arr, ys = ns.astype(float), log_probs[ns]

    def joint(ns_a, ys_a):
        design = np.column_stack(
            [np.ones_like(ns_a), -ns_a, -np.log(ns_a)]
        )
        coef, *_ = np.linalg.lstsq(design, ys_a, rcond=None)
        resid = ys_a - design @ coef
        return coef, math.sqrt(float(resid @ resid) / len(ys_a))

    coef, rms = joint(ns_arr, ys)
    intercept, log_r_fit, alpha_joint = float(coef[0]), float(coef[1]), float(coef[2])

    log_r = math.log(r_hat)
    pinned = ys + ns_arr * log_r
    design2 = np.column_stack([np.ones_like(ns_arr), -np.log(ns_arr)])
    coef2, *_ = np.linalg.lstsq(design2, pinned, rcond=None)
    alpha_fixed = float(coef2[1])

    # finite-difference estimator on the upper half of the window, with
    # math.log per index (np.log may round differently)
    mid = len(ns) // 2
    logs = np.array([math.log(n) for n in ns[mid:].tolist()])
    diffs = -(np.diff(ys[mid:]) + np.diff(ns[mid:]) * log_r) / np.diff(logs)
    # the median, from the sorted differences: np.median would import numpy.ma
    s, k = np.sort(diffs), len(diffs) // 2
    alpha_ratio = float(s[k] if len(s) % 2 else (s[k - 1] + s[k]) / 2)

    lo_coef, _ = joint(ns_arr[:mid], ys[:mid])
    hi_coef, _ = joint(ns_arr[mid:], ys[mid:])

    return LltFit(
        alpha=alpha_joint,
        log_r=log_r_fit,
        intercept=intercept,
        alpha_fixed=alpha_fixed,
        alpha_ratio=alpha_ratio,
        r_hat_used=r_hat,
        window=(n_min, n_max),
        period=period,
        residual_rms=rms,
        window_halves=(float(lo_coef[2]), float(hi_coef[2])),
    )


# -- near-radius ratio report -------------------------------------------------


@dataclass
class RatioRow:
    r: float
    i1: float
    i2: float
    i1_scaled: float  # I1 * sqrt(R - r)
    i2_over_i1_cubed: float
    dgreen: float  # d/dr ( r G(e,e|r) )
    dgreen_scaled: float  # dgreen * sqrt(R - r)


@dataclass
class RatioReport:
    r_hat: float
    rows: list
    band_i1: float  # (max - min) / min over the grid
    band_i2_ratio: float
    band_dgreen: float
    non_monotone: list = field(default_factory=list)

    def to_json(self):
        names = dict(band_i1="band_i1_scaled", band_i2_ratio="band_i2_over_i1_cubed",
                     band_dgreen="band_dgreen_scaled")
        out = {names.get(k, k): v for k, v in asdict(self).items()}
        return json.dumps(out, indent=2)

    def to_csv_rows(self):
        yield ["r", "i1", "i2", "i1_sqrt_gap", "i2_over_i1_cubed", "dgreen",
               "dgreen_sqrt_gap"]
        for row in self.rows:  # the columns in RatioRow's field order
            yield list(vars(row).values())


def _band(values):
    lo, hi = min(values), max(values)
    return (hi - lo) / lo if lo > 0 else math.inf


def ratio_report(evaluator, r_grid):
    """Tabulate I1*sqrt(R-r), I2/I1^3 and G'*sqrt(R-r) over an r grid.

    Each row takes I1 and d/dr (r G(e,e|r)) from ``i_sums``, which raises
    ``NonConvergenceError`` where the two routes to I1 disagree.
    """
    r_hat = evaluator.R_hat
    rows = []
    for r in sorted(r_grid):
        s = evaluator.i_sums(r)
        gap = math.sqrt(max(r_hat - r, 0.0))
        rows.append(
            RatioRow(
                r=float(r),
                i1=s.i1,
                i2=s.i2,
                i1_scaled=s.i1 * gap,
                i2_over_i1_cubed=s.i2 / s.i1**3,
                dgreen=s.i1_derivative,
                dgreen_scaled=s.i1_derivative * gap,
            )
        )
    non_monotone = []
    for a, b in zip(rows, rows[1:]):
        if b.i1 < a.i1:
            non_monotone.append(b.r)
    return RatioReport(
        r_hat=r_hat,
        rows=rows,
        band_i1=_band([row.i1_scaled for row in rows]),
        band_i2_ratio=_band([row.i2_over_i1_cubed for row in rows]),
        band_dgreen=_band([row.dgreen_scaled for row in rows]),
        non_monotone=non_monotone,
    )

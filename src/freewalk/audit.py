"""Audits of Green-function inequalities and return-probability asymptotics.

Three instruments:

* ``ancona_audit`` samples geodesic triples and checks the multiplicative
  comparison G(x,z) G(e,e) >= G(x,y) G(y,z) at interior geodesic points,
  together with a deviation-vs-shared-prefix-length decay fit on quadruples.
  G is left-invariant, so each value is read at its displacement x^-1 y.
  One sample, encoded once as syllable ids, serves a whole r grid, with
  one batch of Green values per r.  The evaluator's measures are
  admissible, so no sample has a zero value to skip.
* ``llt_fit`` estimates the polynomial correction exponent alpha in
  p_n ~ C R^{-n} n^{-alpha}, jointly with R and separately with R pinned.
* ``ratio_report`` tabulates the near-radius scaling combinations
  I1*sqrt(R-r), I2/I1^3, and G'*sqrt(R-r) over an r grid.

Ratios are reported as measured bands; nothing is asserted beyond the
supermultiplicative lower bound, which holds path by path.  ``ratio_report``
refuses a grid point where the two routes to I1 in ``i_sums`` disagree.
Each result is a record whose field names are its report's keys; no file
format is known here.
"""

import itertools
import math
import random
from dataclasses import dataclass, field

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


# -- Ancona audit -------------------------------------------------------------


@dataclass
class AnconaReport:
    r: float
    seed: int
    triples: int
    skipped: int
    ratio_min: float
    ratio_max: float
    ratio_mean: float
    lower_bound_fraction: float  # fraction of triples with ratio >= 1 - tol
    strong_rho: float
    strong_c: float
    deviations_below_floor: bool


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
    (``_sample``, ``_syllable_ids``), each r reads all its values in one
    ``green_batch``, and a report at r is the one a grid of r alone gives.

    The evaluator accepts only measures on single syllables, where every
    G(x,z) is G(e,e) times its syllables' first passages, so the ratio is
    1 by construction and its deviation measures rounding only: on every
    measure it accepts the audit is an identity check, not a comparison
    of two independent numbers.  That measure is admissible
    (``StepMeasure.route``), so every value is positive and none is skipped.
    """
    rows, syllables, ns = _sample(evaluator.group, n_triples, max_rel_dist, seed)
    ids = _syllable_ids(evaluator, rows, syllables)
    return [_ancona_at(evaluator, r, seed, ids, n_triples, ns) for r in grid]


def _sample(group, n_triples, max_rel_dist, seed):
    """(rows, syllables, ns) of the audit's draw: x^-1 z, x^-1 y and y^-1 z
    of each triple, then the four displacements of each quadruple, whose
    shared prefix lengths are ``ns``.  Each word is a row of indices into
    ``syllables`` (the payloads of ``syllable_choices``, factor by factor),
    padded with len(syllables).

    A word of n syllables draws each from a factor other than the last
    one's, then a payload of it.  Every draw below n consumes the
    generator as ``random.Random``'s ``choice`` and ``randint`` do
    (``_randbelow``: getrandbits of n's bit length, drawn again until
    below n), so the words are, seed for seed, the ones they draw.
    """
    rng = random.Random(seed)
    choices = syllable_choices(group)
    syllables = [(fid, p) for fid, ps in enumerate(choices) for p in ps]
    factor_of = [fid for fid, _ in syllables]
    starts = list(itertools.accumulate(map(len, choices), initial=0))
    nf = len(choices)
    # others[last]: the factors a syllable after one of factor last may take;
    # others[nf] for the first syllable: every factor
    others = [[k for k in range(nf) if k != last] for last in range(nf + 1)]

    def below(n):
        k = n.bit_length()
        r = rng.getrandbits(k)
        while r >= n:
            r = rng.getrandbits(k)
        return r

    def syllable(last):
        fids = others[last]
        fid = fids[below(len(fids))]
        return starts[fid] + below(starts[fid + 1] - starts[fid])

    def element(n):
        word = [syllable(nf)]
        for _ in range(n - 1):
            word.append(syllable(factor_of[word[-1]]))
        return word

    if n_triples and max_rel_dist < 2:
        raise ValueError("a triple spans 2 to max_rel_dist syllables")
    words = []
    for _ in range(n_triples):
        span = 2 + below(max_rel_dist - 1)
        delta = element(span)
        cut = 1 + below(span)  # y = x delta[:cut]
        words += [delta, delta[:cut], delta[cut:]]
    ns = []
    for n in range(1, max_rel_dist + 1):
        for _ in range(10):
            prefix = element(n)
            # x = s^-1 and x' = s'^-1 extend backwards from e; y = prefix t
            # and y' = prefix t' extend past the prefix
            first, last = factor_of[prefix[0]], factor_of[prefix[-1]]
            s, sp = syllable(first), syllable(first)
            t, tp = syllable(last), syllable(last)
            if s != sp and t != tp:
                ns.append(n)
                words += [[s, *prefix, t], [sp, *prefix, tp],
                          [sp, *prefix, t], [s, *prefix, tp]]
    pad, width = len(syllables), max(map(len, words), default=0)
    rows = np.array([w + [pad] * (width - len(w)) for w in words], dtype=np.intp)
    return rows.reshape(len(words), width), syllables, ns


def _syllable_ids(evaluator, rows, syllables):
    """The evaluator's ``syllable_ids`` of the words of ``_sample``, in one
    gather: its new syllables take their ids in the order the words first
    show them, as they would from the words themselves."""
    pad = len(syllables)
    order = list(dict.fromkeys(rows[rows < pad].tolist()))
    lookup = np.zeros(pad + 1, dtype=np.intp)  # the padding reads id 0
    lookup[order] = evaluator.syllable_ids([[syllables[i] for i in order]])[0]
    return lookup[rows]


def _ancona_at(evaluator, r, seed, ids, n_drawn, ns):
    """The ``AnconaReport`` at r of a ``_sample`` of ``n_drawn`` triples,
    encoded as ``ids``, in one ``green_batch``.  Sums run in sequence, as
    a loop over the triples adds."""
    values = evaluator.green_batch(ids, r)
    gee = evaluator.green((), (), r)
    gxz, gxy, gyz = (values[k : 3 * n_drawn : 3] for k in range(3))
    ratio = (gxz * gee) / (gxy * gyz)
    ok = int(np.count_nonzero(ratio >= 1.0 - LOWER_TOL))
    ratios = ratio.tolist()

    g1, g2, g3, g4 = values[3 * n_drawn :].reshape(-1, 4).T
    devs = np.abs((g1 * g2) / (g3 * g4) - 1.0)
    below_floor = bool(np.all(devs <= DEVIATION_FLOOR))
    above = devs > DEVIATION_FLOOR
    ns = np.array(ns, dtype=float)[above]
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
        triples=len(ratios),
        skipped=0,
        ratio_min=min(ratios) if ratios else math.nan,
        ratio_max=max(ratios) if ratios else math.nan,
        ratio_mean=sum(ratios) / len(ratios) if ratios else math.nan,
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
    alpha_fixed: float  # fit with log R pinned to the r_hat given
    alpha_ratio: float  # finite-difference estimator, R pinned
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
    band_i1_scaled: float  # (max - min) / min over the grid
    band_i2_over_i1_cubed: float
    band_dgreen_scaled: float
    non_monotone: list = field(default_factory=list)


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
        band_i1_scaled=_band([row.i1_scaled for row in rows]),
        band_i2_over_i1_cubed=_band([row.i2_over_i1_cubed for row in rows]),
        band_dgreen_scaled=_band([row.dgreen_scaled for row in rows]),
        non_monotone=non_monotone,
    )

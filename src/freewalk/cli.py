"""Command-line frontend: run named experiments from a JSON config.

Subcommands: walk, green, isums, degeneracy, pressure, ancona, llt, report.
Every size a run uses (horizon, r-grid) comes from the config, which
every report identifies by its hash; reports also embed the package
version, and identical config and version produce identical output files.
Every subcommand reads R, its bar and p_n off ``StepMeasure.route``, the
first-passage system, and reads it first: a measure the gate refuses (off
the system, not admissible, or on Z2 * Z2) exits 4 with its reason before
any work and before any file is written.  The system grows its
coefficients once, to the largest horizon asked for.  ``report`` runs the
other subcommands on one ``Shared``, so the Green evaluator is built once
per run; standalone, ``green``, ``isums`` and ``ancona`` build their own.
Each grid command refuses an empty r-grid, and ``isums`` and ``report``
refuse an entry in R's bar (``_isums_grid``), with exit 2 before any file
is written.  ``walk.csv`` is written in one string, with the bytes
``csv.writer`` gives for its rows.  Each JSON file is written by
``_write_report``, in one ``json.dumps``: the common header and the
fields of the command's record (``dataclasses.asdict``; ``pressure`` and
``ancona`` list theirs), named as the file's keys.  Only ``walk_meta``,
``llt`` and ``report``, which mix a result with the route's R or the
config, are literal dicts here.
"""

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, astuple
from functools import cached_property
from pathlib import Path

from . import __version__
from .audit import ancona_audit, llt_fit, ratio_report
from .config import load_config
from .errors import BudgetError, ConfigError, DivergenceError, FreewalkError
from .green import GreenEvaluator
from .parabolic import degeneracy_test
from .thermo import IDENTITY_CAP, pressure, sphere_identity_check
from .walks import detect_period


class Shared:
    """The Green evaluator of one run, built on first use."""

    def __init__(self, measure):
        self.measure = measure

    @cached_property
    def evaluator(self):
        return GreenEvaluator(self.measure)


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_text(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)
    print(path)


def _write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    print(path)


def _write_report(cfg, args, started, kind, fields):
    """``{name}_{kind}.json``: ``fields`` under the header every report
    carries (version, config name and hash, seed, seconds since ``started``)."""
    header = {
        "tool_version": __version__,
        "config": cfg.name,
        "config_hash": cfg.hash(),
        "seed": args.seed if args.seed is not None else cfg.seed,
        "wall_clock_s": round(time.time() - started, 3),
    }
    text = json.dumps({**header, **fields}, indent=2, sort_keys=True) + "\n"
    _write_text(_out_dir(args) / f"{cfg.name}_{kind}.json", text)


def cmd_walk(cfg, args, shared):
    started = time.time()
    route, horizon = cfg.measure.route, cfg.horizon
    period = detect_period(route.return_log_probs(horizon))
    # the rows ``csv.writer`` writes (floats as repr), in one string
    cells = route.return_probs(horizon).tolist()
    rows = "".join(f"{n},{c!r}\r\n" for n, c in enumerate(cells))
    _write_text(_out_dir(args) / f"{cfg.name}_walk.csv", "n,p_n\r\n" + rows)
    _write_report(cfg, args, started, "walk_meta",
                  {"horizon": horizon, "method": "algebraic", "period": period})
    return 0


def cmd_green(cfg, args, shared):
    started = time.time()
    R = cfg.measure.route.radius
    grid = cfg.resolve_r_grid(R)
    ev = shared.evaluator
    # every value is a point value of the least solution: no tail, one method
    rows = [["r", "G(e,e|r)", "tail", "method"]]
    rows += [[r, ev.green((), (), r), 0.0, "point/newton"] for r in grid]
    _write_csv(_out_dir(args) / f"{cfg.name}_green.csv", rows)
    _write_report(cfg, args, started, "green_meta", asdict(ev.radius_estimate))
    return 0


def _isums_grid(cfg):
    """The resolved r-grid, refused where an entry lies in R's bar: there
    the jet's I - J is singular, and the I-sums are refused."""
    route = cfg.measure.route
    grid, (lo, hi) = cfg.resolve_r_grid(route.radius), route.bracket
    inside = [r for r in grid if r >= lo]
    if inside:
        raise ConfigError(
            f"r-grid entries {inside} lie in R's bar [{lo!r}, {hi!r}], "
            f"where the I-sums are refused"
        )
    return grid


def cmd_isums(cfg, args, shared):
    started = time.time()
    grid = _isums_grid(cfg)
    report = ratio_report(shared.evaluator, grid)
    header = ["r", "i1", "i2", "i1_sqrt_gap", "i2_over_i1_cubed", "dgreen",
              "dgreen_sqrt_gap"]  # the columns of RatioRow, in its field order
    _write_csv(_out_dir(args) / f"{cfg.name}_isums.csv",
               [header, *map(astuple, report.rows)])
    _write_report(cfg, args, started, "isums_meta", asdict(report))
    return 0


def cmd_degeneracy(cfg, args, shared):
    started = time.time()
    report = degeneracy_test(cfg.measure, cfg.measure.route.radius)
    _write_report(cfg, args, started, "degeneracy", asdict(report))
    return 0


def cmd_pressure(cfg, args, shared):
    started = time.time()
    R = cfg.measure.route.radius
    grid = cfg.resolve_r_grid(R)
    at_radius = pressure(cfg.measure, R).pressure
    results = [asdict(pressure(cfg.measure, r)) for r in grid]
    _write_report(cfg, args, started, "pressure",
                  {"R_hat": R, "estimates": results, "pressure_at_R": at_radius})
    return 0


def cmd_ancona(cfg, args, shared):
    started = time.time()
    grid = cfg.resolve_r_grid(cfg.measure.route.radius)
    seed = args.seed if args.seed is not None else cfg.seed
    reports = ancona_audit(shared.evaluator, grid, seed=seed)
    _write_report(cfg, args, started, "ancona",
                  {"reports": [asdict(rep) for rep in reports]})
    return 0


def cmd_llt(cfg, args, shared):
    started = time.time()
    route, horizon = cfg.measure.route, cfg.horizon
    logs = route.return_log_probs(horizon)
    period = detect_period(logs)
    window = (max(horizon // 10, 50 * period), horizon)
    try:
        fit = llt_fit(logs, period, window, route.radius)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    _write_report(cfg, args, started, "llt", {
        "alpha": fit.alpha,
        "alpha_fixed_R": fit.alpha_fixed,
        "alpha_ratio": fit.alpha_ratio,
        "fitted_log_R": fit.log_r,
        "R_hat_used": route.radius,
        "window": list(fit.window),
        "window_halves": list(fit.window_halves),
        "residual_rms": fit.residual_rms,
        "consistent": fit.consistent(),
    })
    return 0


def cmd_report(cfg, args, shared):
    """Run the full battery on one ``Shared`` and write one combined JSON.

    The I-sums' r-grid (``_isums_grid``) is resolved first, so a grid the
    I-sums refuse is refused before any step writes a file.
    """
    _isums_grid(cfg)
    rc = 0
    for sub in (cmd_walk, cmd_green, cmd_isums, cmd_degeneracy, cmd_pressure,
                cmd_ancona, cmd_llt):
        rc = max(rc, sub(cfg, args, shared))
    started = time.time()
    r = 0.9 * cfg.measure.route.radius
    ident = sphere_identity_check(shared.evaluator, r, IDENTITY_CAP, 4)
    _write_report(cfg, args, started, "report", {
        "sphere_identity": [
            {"n": n, "transfer": a, "direct": b, "rel_err": e} for n, a, b, e in ident
        ]
    })
    return rc


COMMANDS = {
    "walk": cmd_walk,
    "green": cmd_green,
    "isums": cmd_isums,
    "degeneracy": cmd_degeneracy,
    "pressure": cmd_pressure,
    "ancona": cmd_ancona,
    "llt": cmd_llt,
    "report": cmd_report,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="freewalk",
        description="random-walk experiments on free products",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return COMMANDS[args.command](cfg, args, Shared(cfg.measure))
    except ConfigError as exc:  # r-grid entries are checked once R is known
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (BudgetError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FreewalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

"""Command-line frontend: run named experiments from a JSON config.

Subcommands: walk, green, isums, degeneracy, pressure, ancona, llt, report.
Every size a run uses (horizon, r-grid) comes from the config, which
every report identifies by its hash; reports also embed the package
version, and identical config and version produce identical output files.
``report`` runs the other subcommands on one ``Shared``, so the Green
evaluator and each return sequence are built once per run; a standalone
subcommand builds its own.  Every subcommand reads its values through
``StepMeasure.route``, the first-passage system: ``green``, ``isums``,
``ancona`` and ``report`` by building the evaluator first, ``walk``,
``degeneracy``, ``pressure`` and ``llt`` directly, with no evaluator.  So
a measure the gate refuses (off the system, not admissible, or on Z2 * Z2)
exits 4 with its reason before any work and before any file is written.
``walk.csv`` is written in one string, with the
bytes ``csv.writer`` gives for its rows, and each JSON file from one
``json.dumps``.
"""

import argparse
import csv
import json
import sys
import time
from functools import cached_property
from pathlib import Path

from . import __version__
from .audit import ancona_audit, llt_fit, ratio_report
from .config import load_config
from .errors import BudgetError, ConfigError, DivergenceError, FreewalkError
from .green import GreenEvaluator
from .parabolic import degeneracy_test
from .thermo import IDENTITY_CAP, pressure, sphere_identity_check
from .walks import detect_period, return_probabilities


class Shared:
    """What several subcommands of one run use, each built on first use."""

    def __init__(self, measure):
        self.measure = measure
        self._returns = {}

    @cached_property
    def evaluator(self):
        return GreenEvaluator(self.measure)

    def returns(self, horizon):
        """The return sequence p_0..p_horizon(e,e), from the first-passage
        system (``return_probabilities``)."""
        if horizon not in self._returns:
            self._returns[horizon] = return_probabilities(self.measure, horizon)
        return self._returns[horizon]


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _report_header(cfg, args, started):
    return {
        "tool_version": __version__,
        "config": cfg.name,
        "config_hash": cfg.hash(),
        "seed": args.seed if args.seed is not None else cfg.seed,
        "wall_clock_s": round(time.time() - started, 3),
    }


def _write_text(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)
    print(path)


def _write_json(path, payload):
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    print(path)


def cmd_walk(cfg, args, shared):
    started = time.time()
    horizon = cfg.horizon
    seq = shared.returns(horizon)
    out = _out_dir(args)
    # the rows ``csv.writer`` writes (floats as repr), in one string
    cells = cfg.measure.route.return_probs(horizon).tolist()
    rows = "".join(f"{n},{c!r}\r\n" for n, c in enumerate(cells))
    _write_text(out / f"{cfg.name}_walk.csv", "n,p_n\r\n" + rows)
    meta = _report_header(cfg, args, started)
    meta.update({"horizon": horizon, "method": seq.method,
                 "period": detect_period(seq)})
    _write_json(out / f"{cfg.name}_walk_meta.json", meta)
    return 0


def cmd_green(cfg, args, shared):
    started = time.time()
    ev = shared.evaluator
    r_hat = ev.R_hat
    grid = cfg.resolve_r_grid(r_hat)
    rows = [["r", "G(e,e|r)", "tail", "method"]]
    for r in grid:
        g = ev.green((), (), r)
        rows.append([r, g.value, g.tail, g.method])
    out = _out_dir(args)
    _write_csv(out / f"{cfg.name}_green.csv", rows)
    meta = _report_header(cfg, args, started)
    est = ev.radius_estimate
    meta.update(
        {
            "R_hat": r_hat,
            "rho_hat": est.rho_hat,
            "rho_lower_bound": est.rho_lower,
            "uncertainty": est.uncertainty(),
        }
    )
    _write_json(out / f"{cfg.name}_green_meta.json", meta)
    return 0


def _isums_grid(cfg, ev):
    """The resolved r-grid, which ``isums`` needs at least one entry of."""
    grid = cfg.resolve_r_grid(ev.R_hat)
    if not grid:
        raise ConfigError("the I-sums need an r_grid with at least one entry")
    return grid


def cmd_isums(cfg, args, shared):
    started = time.time()
    ev = shared.evaluator
    grid = _isums_grid(cfg, ev)
    report = ratio_report(ev, grid)
    out = _out_dir(args)
    _write_csv(out / f"{cfg.name}_isums.csv", report.to_csv_rows())
    meta = _report_header(cfg, args, started)
    meta.update(json.loads(report.to_json()))
    _write_json(out / f"{cfg.name}_isums_meta.json", meta)
    return 0


def cmd_degeneracy(cfg, args, shared):
    started = time.time()
    # the system's branch point, the R_hat of the run's evaluator
    report = degeneracy_test(cfg.measure, cfg.measure.route.radius)
    payload = _report_header(cfg, args, started)
    payload.update(json.loads(report.to_json()))
    _write_json(_out_dir(args) / f"{cfg.name}_degeneracy.json", payload)
    return 0


def cmd_pressure(cfg, args, shared):
    started = time.time()
    r_hat = cfg.measure.route.radius  # as ``cmd_degeneracy`` reads it
    at_radius = pressure(cfg.measure, r_hat).value
    grid = cfg.resolve_r_grid(r_hat) or [r_hat]
    results = [json.loads(pressure(cfg.measure, r).to_json()) for r in grid]
    payload = _report_header(cfg, args, started)
    payload.update({"R_hat": r_hat, "estimates": results, "pressure_at_R": at_radius})
    _write_json(_out_dir(args) / f"{cfg.name}_pressure.json", payload)
    return 0


def cmd_ancona(cfg, args, shared):
    started = time.time()
    ev = shared.evaluator
    grid = cfg.resolve_r_grid(ev.R_hat) or [0.9 * ev.R_hat]
    seed = args.seed if args.seed is not None else cfg.seed
    reports = ancona_audit(ev, grid, seed=seed)
    payload = _report_header(cfg, args, started)
    payload.update({"reports": [json.loads(rep.to_json()) for rep in reports]})
    _write_json(_out_dir(args) / f"{cfg.name}_ancona.json", payload)
    return 0


def cmd_llt(cfg, args, shared):
    started = time.time()
    r_hat = cfg.measure.route.radius  # as ``cmd_degeneracy`` reads it
    horizon = cfg.horizon
    seq = shared.returns(horizon)
    period = detect_period(seq)
    window = (max(horizon // 10, 50 * period), horizon)
    try:
        fit = llt_fit(seq.log_values, period, window, r_hat)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    payload = _report_header(cfg, args, started)
    payload.update(
        {
            "alpha": fit.alpha,
            "alpha_fixed_R": fit.alpha_fixed,
            "alpha_ratio": fit.alpha_ratio,
            "fitted_log_R": fit.log_r,
            "R_hat_used": fit.r_hat_used,
            "window": list(fit.window),
            "window_halves": list(fit.window_halves),
            "residual_rms": fit.residual_rms,
            "consistent": fit.consistent(),
        }
    )
    _write_json(_out_dir(args) / f"{cfg.name}_llt.json", payload)
    return 0


def cmd_report(cfg, args, shared):
    """Run the full battery on one ``Shared`` and write one combined JSON.

    The r-grid is resolved against R first, so a bad grid is refused
    before any step writes a file: one with no entry, or one with an entry
    in R's bar, where the I-sums are refused (standalone ``green`` takes
    R itself).
    """
    lo, hi = cfg.measure.route.bracket
    inside = [r for r in _isums_grid(cfg, shared.evaluator) if r >= lo]
    if inside:
        raise ConfigError(
            f"r-grid entries {inside} lie in R's bar [{lo!r}, {hi!r}], "
            f"where the I-sums are refused"
        )
    rc = 0
    for sub in (cmd_walk, cmd_green, cmd_isums, cmd_degeneracy, cmd_pressure,
                cmd_ancona, cmd_llt):
        rc = max(rc, sub(cfg, args, shared))
    started = time.time()
    ev = shared.evaluator
    ident = sphere_identity_check(ev, 0.9 * ev.R_hat, IDENTITY_CAP, 4)
    payload = _report_header(cfg, args, started)
    payload.update(
        {
            "sphere_identity": [
                {"n": n, "transfer": a, "direct": b, "rel_err": e}
                for n, a, b, e in ident
            ]
        }
    )
    _write_json(_out_dir(args) / f"{cfg.name}_report.json", payload)
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

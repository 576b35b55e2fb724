"""Output checks: each operation's files exist, are finite, and match refs.

An operation fails when its output file is missing or unreadable, holds a
non-finite number, or is farther from a reference than the tolerance stated
in ``TOL``.  Relative distances from the references in ``refs`` are
collected; their maximum is the run's ``oracle_err``.
"""

import csv
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import refs

# stated tolerances (relative unless noted); each sits above the distance
# measured on the package as first benchmarked, with room for rounding
TOL = {
    "p_n": 1e-12,  # n <= 20; exact-engine output must match exactly
    "R_tree": 1e-5,  # Richardson-extrapolated R from 4000 radial terms
    "R_z2z3": 1e-2,  # the same extrapolation from only 60 exact terms
    "green": 1e-8,  # G(e,e|r) on the config grid
    "i1": 1e-5,  # sphere route and derivative series, both against d/dr(rG)
    "llt_alpha": 0.1,  # absolute, against 3/2
    "ancona": 1e-3,  # absolute; cut vertices make every triple ratio 1
    "sphere_identity": 1e-6,  # transfer side against direct sums; both
    # inherit the series error of the Green values (2e-7 on z2z3)
    "rho_bound": 1e-4,  # truncated kernels bound rho(R) from below
    "kernel_exact": 5e-3,  # L = 20 truncation at r = 1 (2.0e-3 measured)
    "kernel_float": 1e-4,  # L = 140, B = 11 truncation at r = 1
    "induced_exact": 1e-2,
    "induced_float": 1e-4,
}

N_PN = 20
REPORT_OPS = (
    "walk", "green", "isums", "degeneracy", "pressure", "ancona", "llt",
    "sphere_identity",
)


class Failed(Exception):
    """An output is off its reference, non-finite or malformed."""


class Missing(Failed):
    """An expected output was not written."""


class Tally:
    """Operations attempted, the failures with reasons, and oracle distances."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.wrong = 0  # failures other than a missing output
        self.max_err = 0.0

    def run(self, op, check, *args):
        self.attempted += 1
        errs = []
        try:
            check(errs, *args)
        except Missing as exc:
            self.failures.append(f"{op}: {exc}")
        except Failed as exc:
            self.failures.append(f"{op}: {exc}")
            self.wrong += 1
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            self.failures.append(f"{op}: malformed output ({exc!r})")
            self.wrong += 1
        self.max_err = max([self.max_err] + errs)

    def merge(self, other):
        self.attempted += other.attempted
        self.failures += other.failures
        self.wrong += other.wrong
        self.max_err = max(self.max_err, other.max_err)


def _within(errs, what, value, ref, tol):
    if not math.isfinite(float(value)):
        raise Failed(f"{what} is not finite ({value!r})")
    e = float(abs(Fraction(value) - Fraction(ref)) / abs(Fraction(ref)))
    errs.append(e)
    if e > tol:
        raise Failed(f"{what} = {float(value)!r}, reference {float(ref)!r}, "
                     f"relative distance {e:.3g} > {tol:g}")


def _all_finite(obj, where):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _all_finite(v, f"{where}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _all_finite(v, f"{where}[{i}]")
    elif isinstance(obj, float) and not math.isfinite(obj):
        raise Failed(f"{where} is not finite ({obj!r})")


def _json(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise Missing(f"missing {path.name}") from None
    except ValueError as exc:
        raise Failed(f"{path.name} is not valid JSON: {exc}") from None
    _all_finite(data, path.name)
    return data


def _number(cell):
    """Fraction for numeric cells (exact for "p/q"), None for tags."""
    try:
        return Fraction(cell)
    except ValueError:
        pass
    try:
        value = float(cell)
    except ValueError:
        return None
    return Fraction(value) if math.isfinite(value) else value


def _csv(path):
    """Header and rows with numeric cells parsed; non-finite cells fail."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except FileNotFoundError:
        raise Missing(f"missing {path.name}") from None
    if not rows:
        raise Failed(f"{path.name} is empty")
    out = []
    for i, row in enumerate(rows[1:], start=1):
        parsed = [_number(c) for c in row]
        for c, v in zip(row, parsed):
            if isinstance(v, float):
                raise Failed(f"{path.name} row {i} has a non-finite cell {c!r}")
        out.append(parsed)
    return rows[0], out


# -- report operations ----------------------------------------------------------

class Reference:
    """What a config's outputs are checked against."""

    def __init__(self, config_name):
        self.tree_q = {"f2_srw": 3, "z2z2z2": 2}.get(config_name)
        if self.tree_q is not None:
            self.R = refs.tree_radius(self.tree_q)
            self.R_tol = TOL["R_tree"]
            self.p_n = refs.tree_return_probs(self.tree_q, N_PN)
        elif config_name == "z2z3":
            self.R = refs.z2z3_radius()
            self.R_tol = TOL["R_z2z3"]
            self.p_n = refs.z2z3_return_probs(N_PN)
        else:
            raise ValueError(f"no reference for config {config_name!r}")


def _check_walk(errs, out, name, ref):
    _json(out / f"{name}_walk_meta.json")
    _, rows = _csv(out / f"{name}_walk.csv")
    if [int(r[0]) for r in rows] != list(range(len(rows))):
        raise Failed("walk rows are not n = 0, 1, 2, ...")
    if len(rows) <= N_PN:
        raise Failed(f"walk has {len(rows)} rows, needs {N_PN + 1}")
    for n in range(N_PN + 1):
        got, want = rows[n][1], ref.p_n[n]
        if want == 0:
            if got != 0:
                raise Failed(f"p_{n} = {float(got)!r}, reference 0")
            continue
        _within(errs, f"p_{n}", got, want, TOL["p_n"])


def _check_green(errs, out, name, ref):
    meta = _json(out / f"{name}_green_meta.json")
    _within(errs, "R_hat", meta["R_hat"], ref.R, ref.R_tol)
    _, rows = _csv(out / f"{name}_green.csv")
    if not rows:
        raise Failed("green grid is empty")
    if ref.tree_q is not None:
        for row in rows:
            r = float(row[0])
            _within(errs, f"G(e,e|{r:.6g})", row[1],
                    refs.tree_green(ref.tree_q, r), TOL["green"])


def _check_isums(errs, out, name, ref):
    meta = _json(out / f"{name}_isums_meta.json")
    header, rows = _csv(out / f"{name}_isums.csv")
    if not rows or len(rows) != len(meta["rows"]):
        raise Failed("isums CSV and meta disagree on the grid")
    if ref.tree_q is not None:
        col = {h: i for i, h in enumerate(header)}
        for row in rows:
            r = float(row[col["r"]])
            want = refs.tree_i1(ref.tree_q, r)
            for key in ("i1", "dgreen"):
                _within(errs, f"{key}({r:.6g})", row[col[key]], want, TOL["i1"])


def _check_degeneracy_payload(errs, data, ref_rho):
    factors = data["factors"]
    if not factors:
        raise Failed("no factors in the verdict")
    if data["verdict"] not in ("non-degenerate", "degenerate", "inconclusive"):
        raise Failed(f"unknown verdict {data['verdict']!r}")
    if ref_rho is None:
        return
    if data["verdict"] != "non-degenerate":
        raise Failed(f"verdict {data['verdict']!r}, reference rho(R) = {ref_rho:.6g} < 1")
    for f in factors:
        rho = f["rho_hat"]
        if not 0.0 < rho <= ref_rho * (1.0 + TOL["rho_bound"]):
            raise Failed(f"factor {f['factor_id']} rho_hat {rho!r} is not a lower "
                         f"bound for rho(R) = {ref_rho!r}")


def _check_degeneracy(errs, out, name, ref):
    data = _json(out / f"{name}_degeneracy.json")
    rho = None
    if ref.tree_q is not None:
        rho = refs.tree_kernel_rho(ref.tree_q, ref.R)
    _check_degeneracy_payload(errs, data, rho)


def _check_pressure(errs, out, name, ref):
    data = _json(out / f"{name}_pressure.json")
    if not data["estimates"]:
        raise Failed("no pressure estimates")
    for est in data["estimates"]:
        if not est["eigenvalue"] > 0:
            raise Failed(f"transfer eigenvalue {est['eigenvalue']!r} at r = {est['r']}")


def _check_ancona(errs, out, name, ref):
    data = _json(out / f"{name}_ancona.json")
    if not data["reports"]:
        raise Failed("no audit reports")
    for rep in data["reports"]:
        if rep["triples"] < 1:
            raise Failed(f"no triples kept at r = {rep['r']}")
        for key in ("ratio_min", "ratio_max"):
            if abs(rep[key] - 1.0) > TOL["ancona"]:
                raise Failed(f"{key} = {rep[key]!r} at r = {rep['r']}, reference 1")


def _check_llt(errs, out, name, ref):
    data = _json(out / f"{name}_llt.json")
    if ref.tree_q is not None and abs(data["alpha"] - 1.5) > TOL["llt_alpha"]:
        raise Failed(f"alpha = {data['alpha']!r}, reference 3/2")


def _check_sphere_identity(errs, out, name, ref):
    data = _json(out / f"{name}_report.json")
    rows = data["sphere_identity"]
    if not rows:
        raise Failed("sphere identity is empty")
    for row in rows:
        if row["rel_err"] > TOL["sphere_identity"]:
            raise Failed(f"n = {row['n']}: transfer and direct sums differ by "
                         f"{row['rel_err']:.3g}")


_REPORT_CHECKS = {
    "walk": _check_walk, "green": _check_green, "isums": _check_isums,
    "degeneracy": _check_degeneracy, "pressure": _check_pressure,
    "ancona": _check_ancona, "llt": _check_llt,
    "sphere_identity": _check_sphere_identity,
}


def check_report(out, name, ref, rc, stderr):
    """Tally the eight report operations of one ``freewalk report`` run."""
    tally = Tally()
    note = None
    if rc != 0:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        note = f"report exit {rc}" + (f" ({last})" if last else "")
    for op in REPORT_OPS:
        failed, wrong = len(tally.failures), tally.wrong
        tally.run(op, _REPORT_CHECKS[op], Path(out), name, ref)
        if note and len(tally.failures) > failed and tally.wrong == wrong:
            tally.failures[-1] += f"; {note}"  # the output is missing
    if note and not tally.failures:
        tally.failures.append(f"report: {note} with every output present")
        tally.attempted += 1
    return tally


# -- kernel operations ----------------------------------------------------------

def _check_kernel(errs, data, key, r, tol_row, tol_induced):
    k = data[key]
    row = {int(p): Fraction(v) for p, v in k["row"].items()}
    want = refs.f2_kernel_row(r)
    if set(row) != set(want):
        raise Failed(f"row support {sorted(row)}, reference {sorted(want)}")
    if row[0] > Fraction(want[0]) * (1 + Fraction(1, 10**12)):
        raise Failed(f"row(0) = {float(row[0])!r} exceeds its limit {want[0]!r}")
    for p, w in sorted(want.items()):
        _within(errs, f"row({p})", row[p], w, tol_row)
    for j, v in enumerate(k["induced"]):
        _within(errs, f"induced G(e,a^{j}|1)", v, refs.f2_induced_green(j, r),
                tol_induced)


def check_kernels(path):
    """Tally the three parabolic calls of one kernels_f2 iteration."""
    data = _json(Path(path))
    tally = Tally()
    tally.run("kernel_exact", _check_kernel, data, "exact", data["r"],
              TOL["kernel_exact"], TOL["induced_exact"])
    tally.run("kernel_float", _check_kernel, data, "float", data["r"],
              TOL["kernel_float"], TOL["induced_float"])
    tally.run("degeneracy", _check_degeneracy_payload, data["degeneracy"],
              refs.tree_kernel_rho(3, data["degeneracy"]["r"]))
    return tally


# -- digest ---------------------------------------------------------------------

def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k != "wall_clock_s"}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def digest(out):
    """sha256 over every output file, with each ``wall_clock_s`` removed."""
    h = hashlib.sha256()
    for path in sorted(Path(out).iterdir()):
        h.update(path.name.encode() + b"\0")
        if path.suffix == ".json":
            with open(path) as fh:
                data = _strip_timing(json.load(fh))
            h.update(json.dumps(data, sort_keys=True).encode())
        else:
            h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()

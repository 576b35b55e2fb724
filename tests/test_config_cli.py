import csv
import io
import json
import math
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from freewalk import algebraic, green
from freewalk.algebraic import FirstPassageSystem
from freewalk.cli import build_parser, main
from freewalk.config import ConfigError, parse_config
from freewalk.errors import DivergenceError
from freewalk.green import GreenEvaluator
from freewalk.walks import return_probabilities

from oracles import (
    F2_RADIUS, f2_i1, f2_i2, kernel_rho_at_radius, z2z2z2_radius, z2z3_radius,
)
from test_path_operator import _measure

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


BASE = {
    "schema_version": 1,
    "name": "tree",
    "factors": [
        {"kind": "lattice", "rank": 1, "name": "a"},
        {"kind": "lattice", "rank": 1, "name": "b"},
    ],
    "measure": {"type": "uniform"},
    "horizon": 300,
    "r_grid": ["0.5R", "0.9R"],
}


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(BASE))
    return str(path)


class TestConfigParsing:
    def test_round_trip(self):
        cfg = parse_config(BASE)
        assert cfg.name == "tree"
        assert cfg.horizon == 300
        assert cfg.r_grid == ["0.5R", "0.9R"]
        assert len(cfg.group.factors) == 2
        assert cfg.measure.is_symmetric()

    def test_unknown_top_level_key(self):
        # "depth" too: the transfer matrix has no cylinder depth; the
        # kernel ladder's "kernel_len" and "kernel_ball", since the verdict
        # is in closed form; and "cap", since the pressure is untruncated
        for key in ("horizons", "depth", "kernel_len", "kernel_ball", "cap"):
            with pytest.raises(ConfigError):
                parse_config(dict(BASE, **{key: 3}))

    def test_wrong_schema_version(self):
        with pytest.raises(ConfigError):
            parse_config(dict(BASE, schema_version=99))

    @pytest.mark.filterwarnings("ignore:measure")  # support on one factor only
    def test_weights_measure(self):
        raw = dict(
            BASE,
            measure={
                "type": "weights",
                "weights": [
                    {"syllables": [[0, 1]], "weight": "1/2"},
                    {"syllables": [[0, -1]], "weight": "1/2"},
                ],
            },
        )
        cfg = parse_config(raw)
        assert cfg.measure.weights[((0, (1,)),)] == Fraction(1, 2)

    def test_rejects_bad_weight(self):
        raw = dict(
            BASE,
            measure={
                "type": "weights",
                "weights": [{"syllables": [[0, 1]], "weight": "1/0"}],
            },
        )
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_rejects_non_normal_form_support(self):
        raw = dict(
            BASE,
            measure={
                "type": "weights",
                "weights": [{"syllables": [[0, 1], [0, 1]], "weight": "1"}],
            },
        )
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_r_grid_resolution(self):
        cfg = parse_config(BASE)
        grid = cfg.resolve_r_grid(2.0)
        assert grid == [1.0, 1.8]
        with pytest.raises(ConfigError):
            parse_config(dict(BASE, r_grid=["0.9X"])).resolve_r_grid(2.0)
        with pytest.raises(ConfigError):
            parse_config(dict(BASE, r_grid=[5.0])).resolve_r_grid(2.0)

    def test_r_grid_is_bounded_at_r(self):
        # every evaluator refuses r > R_hat, so the grid does too
        with pytest.raises(ConfigError):
            parse_config(dict(BASE, r_grid=["1.0004R"])).resolve_r_grid(2.0)
        r_hat = 1.1547005383792517
        assert parse_config(dict(BASE, r_grid=["1.0R"])).resolve_r_grid(r_hat) == [r_hat]
        # the convolution table's R_hat is extrapolated, and its evaluator
        # stops there too: what the grid admits, it evaluates
        ev = GreenEvaluator(_measure("z2sq_z2"), horizon=30, ball_bound=6)
        assert ev.system is None
        (r,) = parse_config(dict(BASE, r_grid=["1.0R"])).resolve_r_grid(ev.R_hat)
        assert math.isfinite(ev.green((), (), r).value)
        with pytest.raises(DivergenceError):
            ev.green((), (), 1.0004 * ev.R_hat)

    def test_hash_is_stable_and_sensitive(self):
        a = parse_config(BASE).hash()
        b = parse_config(dict(BASE)).hash()
        c = parse_config(dict(BASE, horizon=301)).hash()
        assert a == b
        assert a != c


def test_cli_import_needs_neither_networkx_nor_scipy():
    # in a fresh process, so modules imported by other tests do not count
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "\n".join([
        "import sys",
        f"sys.path.insert(0, {src!r})",
        "import freewalk.cli",
        "print(sorted(m for m in ('networkx', 'scipy') if m in sys.modules))",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_report_needs_no_scipy():
    # the package declares numpy as its only dependency: a whole report,
    # in a fresh process, must not import scipy on any path it takes
    root = Path(__file__).resolve().parents[1]
    code = "\n".join([
        "import sys, tempfile",
        f"sys.path.insert(0, {str(root / 'src')!r})",
        "from freewalk.cli import main",
        "with tempfile.TemporaryDirectory() as out:",
        f"    rc = main(['report', '--config', {str(root / 'configs' / 'z2z3.json')!r},"
        " '--out', out])",
        "print(rc, 'scipy' in sys.modules)",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]


def test_readme_flags_are_the_parser_options():
    # the backticked --flags of README's "Flags:" paragraph, against the
    # options the parser accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme[readme.index("\nFlags:"):].split("\n\n")[0]
    documented = {span.split()[0] for span in re.findall(r"`(--[^`]*)`", paragraph)}
    options = {
        opt
        for action in build_parser()._actions
        for opt in action.option_strings
        if opt not in ("-h", "--help")
    }
    assert documented == options


def test_budget_flag_is_gone(cfg_path, capsys):
    # every size comes from the config; --budget is refused as an unknown flag
    with pytest.raises(SystemExit) as exc:
        main(["walk", "--config", cfg_path, "--budget", "20"])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err


def test_method_flag_is_gone(cfg_path, capsys):
    # the engine is the first-passage system where it covers the measure,
    # else exact convolution; --method is refused as an unknown flag
    with pytest.raises(SystemExit) as exc:
        main(["walk", "--config", cfg_path, "--method", "exact"])
    assert exc.value.code == 2
    assert "--method" in capsys.readouterr().err


def _z2sq_z2_config(tmp_path):
    """A config whose rank-2 lattice factor is outside the first-passage
    system."""
    raw = dict(
        BASE,
        name="z2sq_z2",
        factors=[
            {"kind": "lattice", "rank": 2, "name": "a"},
            {"kind": "cyclic", "n": 2, "name": "s"},
        ],
    )
    path = tmp_path / "z2sq_z2.json"
    path.write_text(json.dumps(raw))
    return path


class TestCliExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["walk", "--config", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["walk", "--config", str(path)]) == 2

    def test_depth_knob_is_refused(self, tmp_path, capsys):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(dict(BASE, depth=3)))
        assert main(["pressure", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_r_grid_past_the_radius(self, tmp_path, capsys):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(dict(BASE, r_grid=["1.0004R"])))
        assert main(["green", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_report_refuses_a_bad_grid_before_writing(self, tmp_path, capsys):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(dict(BASE, r_grid=["1.0004R"])))
        out = tmp_path / "out"
        out.mkdir()
        assert main(["report", "--config", str(path), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_walk_outside_the_system_runs_exact(self, tmp_path):
        # the engine is chosen per measure: off the first-passage system
        # the return sequence is the exact convolution
        path = _z2sq_z2_config(tmp_path)
        raw = json.loads(path.read_text())
        path.write_text(json.dumps(dict(raw, horizon=20)))
        out = tmp_path / "out"
        assert main(["walk", "--config", str(path), "--out", str(out)]) == 0
        meta = json.loads((out / "z2sq_z2_walk_meta.json").read_text())
        assert meta["method"] == "exact" and meta["horizon"] == 20
        with open(out / "z2sq_z2_walk.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        cfg = parse_config(json.loads(path.read_text()))
        exact = return_probabilities(cfg.measure, 20, method="exact").values
        assert [(int(n), Fraction(p)) for n, p in rows] == list(enumerate(exact))

    def test_degeneracy_outside_the_system_is_refused_at_once(
        self, tmp_path, capsys, monkeypatch
    ):
        # the verdict needs the first-passage system, so it is refused
        # before any Green evaluator is built (whose convolution table on
        # this measure runs for about half a minute, then exits 3)
        builds = []
        monkeypatch.setattr(GreenEvaluator, "__init__", lambda *a, **k: builds.append(a))
        path = _z2sq_z2_config(tmp_path)
        rc = main(["degeneracy", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 4
        assert "needs the first-passage system" in capsys.readouterr().err
        assert builds == []
        assert not (tmp_path / "out").exists()

    def test_pressure_outside_the_system_is_refused_at_once(
        self, tmp_path, capsys, monkeypatch
    ):
        # the untruncated pressure needs the first-passage system too
        builds = []
        monkeypatch.setattr(GreenEvaluator, "__init__", lambda *a, **k: builds.append(a))
        path = _z2sq_z2_config(tmp_path)
        rc = main(["pressure", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 4
        assert "needs the first-passage system" in capsys.readouterr().err
        assert builds == []
        assert not (tmp_path / "out").exists()

    def test_llt_with_tiny_budget_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(dict(BASE, horizon=60)))
        rc = main(["llt", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 5
        assert "usable lattice points" in capsys.readouterr().err

    def test_isums_matches_near_radius(self, tmp_path):
        # within 0.1% of R the jet and the relative spheres both hold: the
        # CSV matches the tree closed forms to 1e-10
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(dict(BASE, r_grid=["0.999R", "0.9995R", "0.9998R"])))
        out = tmp_path / "out"
        assert main(["isums", "--config", str(path), "--out", str(out)]) == 0
        with open(out / "tree_isums.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for row in rows:
            r = float(row["r"])
            for key, want in (("i1", f2_i1(r)), ("dgreen", f2_i1(r)), ("i2", f2_i2(r))):
                assert abs(float(row[key]) - want) / want < 1e-10, (key, r)

    def test_isums_refuses_at_the_radius(self, tmp_path, capsys):
        # at R the jet's I - J is singular: exit 4, and no CSV is written
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(dict(BASE, r_grid=["0.9R", "1R"])))
        out = tmp_path / "out"
        assert main(["isums", "--config", str(path), "--out", str(out)]) == 4
        assert "I - J" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*_isums.csv"))


class TestCliOutputs:
    def test_walk_csv(self, tmp_path, capsys):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(dict(BASE, horizon=20)))
        out = tmp_path / "out"
        rc = main(["walk", "--config", str(path), "--out", str(out)])
        assert rc == 0
        lines = (out / "tree_walk.csv").read_text().strip().splitlines()
        assert lines[0] == "n,p_n"
        assert len(lines) == 22  # header + p_0 .. p_20
        assert lines[1].split(",") == ["0", "1.0"]
        meta = json.loads((out / "tree_walk_meta.json").read_text())
        assert meta["period"] == 2
        assert meta["tool_version"]
        assert meta["config_hash"]

    @pytest.mark.parametrize("name", ["f2_srw", "z2sq_z2"])
    def test_walk_csv_bytes_equal_the_csv_writer(self, name, tmp_path):
        # walk.csv is written as one string; its bytes are those of the
        # csv.writer rows it replaced: floats by repr, "0.0" where p_n is
        # 0, and exact Fractions by str.  The f2 walk to n = 5000 has zero
        # rows (odd n) and subnormal ones (p_n below 2.2e-308 from n = 4848)
        if name == "f2_srw":
            path = Path(__file__).resolve().parents[1] / "configs" / "f2_srw.json"
        else:
            path = _z2sq_z2_config(tmp_path)
            path.write_text(json.dumps(dict(json.loads(path.read_text()), horizon=20)))
        cfg = parse_config(json.loads(path.read_text()))
        out = tmp_path / "out"
        assert main(["walk", "--config", str(path), "--out", str(out)]) == 0
        method = "algebraic" if cfg.measure.first_passage_system else "exact"
        seq = return_probabilities(cfg.measure, cfg.horizon, method=method)
        rows = [["n", "p_n"]]
        if seq.values is not None:
            for n, v in enumerate(seq.values):
                rows.append([n, str(v)])
        else:
            for n, lv in enumerate(seq.log_values):
                rows.append([n, math.exp(lv) if lv > -math.inf else 0.0])
        want = io.StringIO(newline="")
        csv.writer(want).writerows(rows)
        assert (out / f"{cfg.name}_walk.csv").read_bytes() == want.getvalue().encode()
        if name == "f2_srw":
            ps = [p for _, p in rows[1:]]
            assert 0.0 in ps and any(0.0 < p < sys.float_info.min for p in ps)

    def test_green_outputs(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert main(["green", "--config", cfg_path, "--out", str(out)]) == 0
        lines = (out / "tree_green.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + two grid points
        meta = json.loads((out / "tree_green_meta.json").read_text())
        assert abs(meta["R_hat"] - 2.0 / 3.0 ** 0.5) < 1e-3

    def test_degeneracy_output(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        rc = main(["degeneracy", "--config", cfg_path, "--out", str(out)])
        assert rc == 0
        blob = json.loads((out / "tree_degeneracy.json").read_text())
        assert blob["verdict"] in {"non-degenerate", "degenerate"}
        assert len(blob["factors"]) == 2

    def test_deterministic_reruns(self, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(dict(BASE, horizon=30)))
        cfg_path = str(path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            assert main(["walk", "--config", cfg_path, "--out", str(out)]) == 0
            assert main(["green", "--config", cfg_path, "--out", str(out)]) == 0
        assert (out1 / "tree_walk.csv").read_bytes() == (
            out2 / "tree_walk.csv"
        ).read_bytes()
        assert (out1 / "tree_green.csv").read_bytes() == (
            out2 / "tree_green.csv"
        ).read_bytes()
        for name in ("tree_walk_meta.json", "tree_green_meta.json"):
            a = json.loads((out1 / name).read_text())
            b = json.loads((out2 / name).read_text())
            # wall-clock time is the one intentionally non-reproducible field
            a.pop("wall_clock_s"), b.pop("wall_clock_s")
            assert a == b


def _count_growth(monkeypatch):
    """The horizons of the ``_extend`` calls that grow a system's coefficients."""
    grown = []
    extend = FirstPassageSystem._extend

    def counted_extend(self, n):
        before = len(self._g)
        extend(self, n)
        if len(self._g) != before:
            grown.append(n)

    monkeypatch.setattr(FirstPassageSystem, "_extend", counted_extend)
    return grown


class TestReportSharing:
    def test_report_writes_what_the_subcommands_write(
        self, cfg_path, tmp_path, monkeypatch
    ):
        builds = []
        init = GreenEvaluator.__init__

        def counted_init(self, *args, **kwargs):
            builds.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(GreenEvaluator, "__init__", counted_init)
        together, alone = tmp_path / "report", tmp_path / "alone"
        assert main(["report", "--config", cfg_path, "--out", str(together)]) == 0
        assert len(builds) == 1
        for sub in ("walk", "green", "isums", "degeneracy", "pressure",
                    "ancona", "llt"):
            assert main([sub, "--config", cfg_path, "--out", str(alone)]) == 0
        # each standalone user of one builds its own; degeneracy and
        # pressure read R off the first-passage system and build none
        assert len(builds) == 4
        names = sorted(p.name for p in alone.iterdir())
        assert sorted(p.name for p in together.iterdir()) == sorted(
            names + ["tree_report.json"]
        )

        def timeless(path):
            lines = path.read_text().splitlines()
            return [line for line in lines if '"wall_clock_s"' not in line]

        for name in names:
            assert timeless(together / name) == timeless(alone / name), name

    def test_report_walk_equals_a_standalone_walk(self, tmp_path, monkeypatch):
        # report grows the coefficients once, to the walk's horizon (the
        # evaluator reads its 4000 for rho_lower_bound later, from them),
        # and a standalone walk once; that the coefficients do not depend
        # on the growth path is ``test_algebraic``'s to check
        path = Path(__file__).resolve().parents[1] / "configs" / "z2z3.json"
        grown = _count_growth(monkeypatch)
        together, alone = tmp_path / "report", tmp_path / "alone"
        assert main(["report", "--config", str(path), "--out", str(together)]) == 0
        assert len(grown) == 1
        assert main(["walk", "--config", str(path), "--out", str(alone)]) == 0
        assert len(grown) == 2
        assert (together / "z2z3_walk.csv").read_bytes() == (
            alone / "z2z3_walk.csv"
        ).read_bytes()


class TestShippedConfigs:
    @pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
    def test_report_exits_zero(self, path, tmp_path):
        assert main(["report", "--config", str(path), "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
    def test_report_grows_the_coefficients_once(self, path, tmp_path, monkeypatch):
        # one growth step, to the walk's horizon, and one block inverse,
        # built with the first block and reused by every later one
        grown, inverses = _count_growth(monkeypatch), []
        block_inverse = algebraic._block_inverse
        monkeypatch.setattr(algebraic, "_block_inverse",
                            lambda *a: inverses.append(1) or block_inverse(*a))
        assert main(["report", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert grown == [json.loads(path.read_text())["horizon"]]
        assert len(inverses) == 1

    @pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
    def test_pressure_keeps_the_benchmark_fields(self, path, tmp_path):
        # the fields the benchmark's pressure check reads, and the pressure
        # at R, which vanishes; the transfer matrix has no cylinder depth
        # and is one component, so no key says so
        name = json.loads(path.read_text())["name"]
        assert main(["pressure", "--config", str(path), "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / f"{name}_pressure.json").read_text())
        assert data["estimates"]
        assert abs(data["pressure_at_R"]) <= 1e-13
        for est in data["estimates"]:
            assert isinstance(est["r"], float)
            assert est["eigenvalue"] > 0
            assert est.keys() == {"r", "eigenvalue", "pressure"}

    @pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
    def test_degeneracy_matches_the_closed_form(self, path, tmp_path):
        # each factor's rho_hat is the spectral radius of the untruncated
        # first-return kernel at R, within the rounding floor of the least
        # solution at the branch point
        name = json.loads(path.read_text())["name"]
        assert main(["degeneracy", "--config", str(path), "--out", str(tmp_path)]) == 0
        blob = json.loads((tmp_path / f"{name}_degeneracy.json").read_text())
        assert blob["verdict"] == "non-degenerate"
        for f in blob["factors"]:
            want = kernel_rho_at_radius(name, f["factor_id"])
            assert abs(f["rho_hat"] / want - 1) < 1e-13
            assert f["verdict"] == "non-degenerate"
            assert f["margin"] == 1 - f["rho_hat"]
            assert not {"ladder", "rho_extrapolated", "slack", "stabilized"} & f.keys()

    @pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
    def test_report_sums_no_green_series(self, path, tmp_path, monkeypatch):
        # every Green value of an in-scope report is read off the least
        # solution: no series is summed
        def refused(logs, r):
            raise AssertionError(f"a series was summed at r = {r!r}")

        monkeypatch.setattr(green, "_eval_series", refused)
        assert main(["report", "--config", str(path), "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
    def test_report_makes_no_large_eigensolve(self, path, tmp_path, monkeypatch):
        # the only spectral radius a report takes numerically is the
        # pressure's, of the |factors| x |factors| factor matrix; the
        # degeneracy verdict is in closed form
        sizes = []
        for name in ("eigh", "eigvals"):
            def counted(a, *args, _solve=getattr(np.linalg, name), **kwargs):
                sizes.append(np.shape(a))
                return _solve(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        factors = len(json.loads(path.read_text())["factors"])
        assert main(["report", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert sizes
        assert all(max(shape) <= factors for shape in sizes), sizes

    @pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
    def test_report_reads_the_first_passage_system(self, path, tmp_path):
        cfg = parse_config(json.loads(path.read_text()))
        name = cfg.name
        assert main(["report", "--config", str(path), "--out", str(tmp_path)]) == 0
        meta = json.loads((tmp_path / f"{name}_walk_meta.json").read_text())
        assert meta["method"] == "algebraic" and meta["horizon"] == 5000
        with open(tmp_path / f"{name}_walk.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 5001
        exact = return_probabilities(cfg.measure, 20, method="exact").values
        for n, p in enumerate(exact):
            got = float(rows[n][1])
            if p:
                assert abs(got - float(p)) / float(p) < 1e-12
            else:
                assert got == 0.0
        green = json.loads((tmp_path / f"{name}_green_meta.json").read_text())
        llt = json.loads((tmp_path / f"{name}_llt.json").read_text())
        # one R per run, the system's: the fit pins the evaluator's R
        radius = {"f2_srw": F2_RADIUS, "z2z2z2": z2z2z2_radius(),
                  "z2z3": z2z3_radius()}[name]
        assert abs(green["R_hat"] - radius) < 1e-12
        assert llt["R_hat_used"] == green["R_hat"]
        assert abs(llt["alpha_fixed_R"] - 1.5) < 0.1
        assert math.isfinite(llt["alpha"])
        if name == "f2_srw":
            assert llt["consistent"] is True

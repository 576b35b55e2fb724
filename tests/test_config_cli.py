import csv
import hashlib
import io
import itertools
import json
import math
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from freewalk import algebraic, walks
from freewalk.algebraic import FirstPassageSystem
from freewalk.cli import COMMANDS, build_parser, main
from freewalk.config import ConfigError, load_config, parse_config
from freewalk.green import GreenEvaluator
from exact import exact_returns, reflected
from oracles import (
    F2_RADIUS, f2_i1, f2_i2, kernel_rho_at_radius, tree_return_probability,
    z2z2z2_radius, z2z3_radius,
)
from test_path_operator import LONG_DOUBLE

CONFIGS_DIR = Path(__file__).resolve().parents[1] / "configs"
CONFIGS = sorted(CONFIGS_DIR.glob("*.json"))


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
        assert reflected(cfg.measure).weights == cfg.measure.weights

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

    def test_finite_factor_from_a_table(self, tmp_path):
        # S3 from its multiplication table, generated by its three
        # transpositions, free with Z2: in the first-passage system's scope
        perms = list(itertools.permutations(range(3)))
        index = {p: i for i, p in enumerate(perms)}
        table = [[index[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms]
        raw = dict(BASE, name="s3z2", factors=[
            {"kind": "finite", "table": table, "generators": [1, 2, 5], "name": "S3"},
            {"kind": "cyclic", "n": 2},
        ])
        cfg = parse_config(raw)
        s3 = cfg.group.factors[0]
        assert (s3.kind, s3.order, s3.name) == ("finite", 6, "S3")
        assert s3.lengths == (0, 1, 1, 2, 2, 1)
        assert cfg.measure.first_passage_system is not None
        path = tmp_path / "s3z2.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["degeneracy", "--config", str(path), "--out", str(out)]) == 0
        verdict = json.loads((out / "s3z2_degeneracy.json").read_text())
        assert len(verdict["factors"]) == 2

    def test_hash_is_stable_and_sensitive(self):
        a = parse_config(BASE).hash()
        b = parse_config(dict(BASE)).hash()
        c = parse_config(dict(BASE, horizon=301)).hash()
        assert a == b
        assert a != c

    @pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
    def test_hash_is_the_sha256_of_the_sorted_json(self, path):
        raw = json.loads(path.read_text())
        blob = json.dumps(raw, sort_keys=True).encode()
        assert load_config(path).hash() == hashlib.sha256(blob).hexdigest()[:16]

    def test_f2_hash_is_frozen(self):
        assert load_config(CONFIGS_DIR / "f2_srw.json").hash() == "bbd3c9183888e307"

    def test_hash_falls_back_to_hashlib(self):
        # an interpreter built without either builtin SHA-256 module takes
        # hashlib's, in a fresh process, and gives the same digest
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = "\n".join([
            "import sys",
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None",
            f"sys.path.insert(0, {src!r})",
            "import hashlib",
            "from freewalk import config",
            f"cfg = config.load_config({str(CONFIGS_DIR / 'f2_srw.json')!r})",
            "print(config._sha256 is hashlib.sha256, cfg.hash())",
        ])
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "bbd3c9183888e307"]


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


def test_report_loads_no_openssl():
    # the config hash takes SHA-256 from the interpreter's builtin module:
    # a whole report, in a fresh process, loads neither OpenSSL binding
    root = Path(__file__).resolve().parents[1]
    code = "\n".join([
        "import sys, tempfile",
        f"sys.path.insert(0, {str(root / 'src')!r})",
        "from freewalk.cli import main",
        "with tempfile.TemporaryDirectory() as out:",
        f"    rc = main(['report', '--config', {str(root / 'configs' / 'f2_srw.json')!r},"
        " '--out', out])",
        "print(rc, sorted(m for m in ('_hashlib', 'ssl') if m in sys.modules))",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


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
    # the one engine is the first-passage system; --method is refused as
    # an unknown flag
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


def _f2_two_letter_config(tmp_path):
    """A config whose two-letter steps are outside the first-passage
    system."""
    steps = [[[1, 1], [0, 1]], [[0, -1], [1, -1]], [[0, 1]], [[0, -1]]]
    raw = dict(
        BASE,
        name="f2_two_letter",
        measure={"type": "weights",
                 "weights": [{"syllables": s, "weight": "1/4"} for s in steps]},
    )
    path = tmp_path / "f2_two_letter.json"
    path.write_text(json.dumps(raw))
    return path


def _z2z2_config(tmp_path):
    """Uniform Z2 * Z2: in the first-passage system's scope, on the one
    elementary free product."""
    raw = dict(BASE, name="z2z2", factors=[{"kind": "cyclic", "n": 2}] * 2)
    path = tmp_path / "z2z2.json"
    path.write_text(json.dumps(raw))
    return path


def _z4z3_config(tmp_path):
    """Z4 * Z3 stepping by t^2 (1/2) and u^{+-1} (1/4 each): in the
    system's scope, but the support does not generate Z4."""
    steps = [([[0, 2]], "1/2"), ([[1, 1]], "1/4"), ([[1, 2]], "1/4")]
    raw = dict(
        BASE,
        name="z4z3_t2",
        factors=[{"kind": "cyclic", "n": 4}, {"kind": "cyclic", "n": 3}],
        measure={"type": "weights",
                 "weights": [{"syllables": s, "weight": w} for s, w in steps]},
    )
    path = tmp_path / "z4z3_t2.json"
    path.write_text(json.dumps(raw))
    return path


def test_llt_imports_no_numpy_ma():
    # numpy's median imports numpy.ma on its first call; llt takes the
    # middle of the sorted differences instead, so a fresh process is
    # spared the import
    root = Path(__file__).resolve().parents[1]
    code = "\n".join([
        "import sys, tempfile",
        f"sys.path.insert(0, {str(root / 'src')!r})",
        "from freewalk.cli import main",
        "with tempfile.TemporaryDirectory() as out:",
        f"    rc = main(['llt', '--config', {str(root / 'configs' / 'f2_srw.json')!r},"
        " '--out', out])",
        "print(rc, 'numpy.ma' in sys.modules)",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]


def _gridless_config(tmp_path):
    """z2z3's shipped config without its r_grid."""
    raw = json.loads((CONFIGS_DIR / "z2z3.json").read_text())
    del raw["r_grid"]
    path = tmp_path / "z2z3.json"
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

    @pytest.mark.parametrize("command", ["green", "isums", "pressure", "ancona", "report"])
    def test_an_empty_grid_is_refused_before_writing(self, command, tmp_path, capsys):
        # r_grid is optional in the schema, but every command that reads a
        # grid needs one r: none falls back to a grid of its own
        path = _gridless_config(tmp_path)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "r_grid" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["walk", "degeneracy", "llt"])
    def test_the_gridless_commands_need_no_grid(self, command, tmp_path):
        path = _gridless_config(tmp_path)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_report_refuses_a_grid_entry_at_the_radius(self, tmp_path, capsys):
        # standalone green takes R, but isums refuses it, so report
        # refuses it before walk and green write their files
        raw = dict(json.loads((CONFIGS_DIR / "f2_srw.json").read_text()), r_grid=["1.0R"])
        path = tmp_path / "f2_srw.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["report", "--config", str(path), "--out", str(out)]) == 2
        assert "R's bar" in capsys.readouterr().err
        assert not out.exists()
        assert main(["green", "--config", str(path), "--out", str(out)]) == 0

    @pytest.mark.parametrize("config", [_z2sq_z2_config, _f2_two_letter_config],
                             ids=["z2sq_z2", "f2_two_letter"])
    def test_walk_outside_the_system_is_refused_at_once(self, config, tmp_path, capsys):
        # the return sequence needs the first-passage system: the route
        # refuses the measure, and no file is written
        path = config(tmp_path)
        path.write_text(json.dumps(dict(json.loads(path.read_text()), horizon=200)))
        rc = main(["walk", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 4
        assert capsys.readouterr().err == f"error: {algebraic.SCOPE}\n"
        assert not (tmp_path / "out").exists()

    def test_degeneracy_outside_the_system_is_refused_at_once(
        self, tmp_path, capsys, monkeypatch
    ):
        # the verdict needs the first-passage system, so it is refused
        # before any Green evaluator is built
        builds = []
        monkeypatch.setattr(GreenEvaluator, "__init__", lambda *a, **k: builds.append(a))
        path = _z2sq_z2_config(tmp_path)
        rc = main(["degeneracy", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 4
        assert "needs the first-passage system" in capsys.readouterr().err
        assert builds == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["green", "isums", "ancona", "report"])
    @pytest.mark.parametrize("config", [_z2sq_z2_config, _f2_two_letter_config],
                             ids=["z2sq_z2", "f2_two_letter"])
    def test_green_outside_the_system_is_refused_at_once(
        self, command, config, tmp_path, capsys
    ):
        # every Green value needs the first-passage system, so the
        # evaluator is refused as it is built, and no file is written
        path = config(tmp_path)
        rc = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 4
        assert capsys.readouterr().err == f"error: {algebraic.SCOPE}\n"
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

    @pytest.mark.parametrize("config", [_z2sq_z2_config, _f2_two_letter_config],
                             ids=["z2sq_z2", "f2_two_letter"])
    def test_llt_outside_the_system_is_refused_at_once(self, config, tmp_path, capsys):
        # llt reads R off the first-passage system before it builds any
        # return sequence: the route refuses the measure, and no file is
        # written
        path = config(tmp_path)
        path.write_text(json.dumps(dict(json.loads(path.read_text()), horizon=200)))
        rc = main(["llt", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 4
        assert capsys.readouterr().err == f"error: {algebraic.SCOPE}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("config, reason", [(_z2z2_config, walks.ELEMENTARY),
                                                (_z4z3_config, walks.INADMISSIBLE)],
                             ids=["z2z2", "z4z3_t2"])
    def test_the_hypotheses_are_refused_before_the_system_is_built(
        self, command, config, reason, tmp_path, capsys, monkeypatch
    ):
        # in scope, but off the theorem's hypotheses: every command exits 4
        # with the one reason, before the first-passage system is built
        # and before any file is written
        def refuse(*args, **kwargs):
            raise AssertionError("the first-passage system was built")

        monkeypatch.setattr(algebraic, "first_passage_system", refuse)
        path = config(tmp_path)
        rc = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 4
        assert capsys.readouterr().err == f"error: {reason}\n"
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

    def test_isums_refuses_at_the_radius(self, tmp_path, capsys, monkeypatch):
        # at R the jet's I - J is singular: the grid is refused as report
        # refuses it, exit 2 before the evaluator is built, and nothing is
        # written
        builds = []
        monkeypatch.setattr(GreenEvaluator, "__init__", lambda *a, **k: builds.append(a))
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(dict(BASE, r_grid=["0.9R", "1R"])))
        out = tmp_path / "out"
        assert main(["isums", "--config", str(path), "--out", str(out)]) == 2
        assert "R's bar" in capsys.readouterr().err
        assert builds == []
        assert not list(tmp_path.rglob("*_isums.csv"))
        assert not out.exists()


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

    @pytest.mark.parametrize("name", ["f2_srw"])
    def test_walk_csv_bytes_equal_the_csv_writer(self, name, tmp_path):
        # walk.csv is written as one string; its bytes are those of the
        # csv.writer rows of its source, the float p_n of ``return_probs``,
        # by repr ("0.0" where p_n is 0).  The f2 walk to n = 5000 has zero
        # rows (odd n) and subnormal ones (p_n below 2.2e-308 from n = 4848)
        path = CONFIGS_DIR / f"{name}.json"
        cfg = parse_config(json.loads(path.read_text()))
        out = tmp_path / "out"
        assert main(["walk", "--config", str(path), "--out", str(out)]) == 0
        system = cfg.measure.first_passage_system
        rows = [["n", "p_n"]] + list(enumerate(system.return_probs(cfg.horizon).tolist()))
        want = io.StringIO(newline="")
        csv.writer(want).writerows(rows)
        assert (out / f"{cfg.name}_walk.csv").read_bytes() == want.getvalue().encode()
        if name == "f2_srw":
            ps = [p for _, p in rows[1:]]
            assert 0.0 in ps and any(0.0 < p < sys.float_info.min for p in ps)

    @LONG_DOUBLE
    @pytest.mark.parametrize("name, q", [("f2_srw", 3), ("z2z2z2", 2)])
    def test_tree_walk_csv_matches_the_exact_tree(self, name, q, tmp_path):
        # the rows past the first block are c_n R^n times R^-n in long
        # double, rounded once, with no n log R to round: on the trees they
        # lie within 1e-14 of the exact p_n (7.6e-16 measured)
        assert main(["walk", "--config", str(CONFIGS_DIR / f"{name}.json"),
                     "--out", str(tmp_path)]) == 0
        with open(tmp_path / f"{name}_walk.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        for n in (64, 500, 1000, 2500, 4000):
            want = tree_return_probability(q, n)
            assert abs(Fraction(rows[n][1]) - want) <= 1e-14 * want, n

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
    @pytest.mark.parametrize("path", [None, *CONFIGS], ids=["tree", *(p.stem for p in CONFIGS)])
    def test_report_writes_what_the_subcommands_write(
        self, path, cfg_path, tmp_path, monkeypatch
    ):
        # on the tree of ``BASE`` (horizon 300) and on every shipped config
        cfg_path = str(path or cfg_path)
        name = json.loads(Path(cfg_path).read_text())["name"]
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
        # green, isums and ancona each build their own; walk, degeneracy,
        # pressure and llt read the first-passage system and build none
        assert len(builds) == 4
        names = sorted(p.name for p in alone.iterdir())
        assert sorted(p.name for p in together.iterdir()) == sorted(
            names + [f"{name}_report.json"]
        )

        def timeless(file):
            lines = file.read_text().splitlines()
            return [line for line in lines if '"wall_clock_s"' not in line]

        for file in names:
            assert timeless(together / file) == timeless(alone / file), file

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
    def test_loading_builds_no_path_operator(self, path):
        # every shipped measure is in the first-passage system's scope, so
        # its support decides admissibility, with no path sum
        load_config(path)

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
    def test_report_sums_no_green_series(self, path, tmp_path):
        # every value of a shipped report is read off the first-passage
        # system, the package's one engine
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
        exact = exact_returns(cfg.measure, 20)
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

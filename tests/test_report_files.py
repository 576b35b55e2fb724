"""The files ``report`` writes: their bytes, their keys, and where they stop.

The shipped configs' report files are frozen by digest: any change to a
reported number, a key or the formatting shows here.  Each JSON file that
a record writes holds exactly that record's fields under the common
header.  The sphere identity stops at the sphere-row budget instead of
failing the run.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from freewalk.audit import AnconaReport, RatioReport, RatioRow
from freewalk.cli import main
from freewalk.green import SpectralRadiusEstimate
from freewalk.parabolic import DegeneracyReport, FactorVerdict
from freewalk.thermo import PressureEstimate
from test_path_operator import LONG_DOUBLE

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
HEADER = {"tool_version", "config", "config_hash", "seed", "wall_clock_s"}

# SHA-256 of each shipped config's seed-0 report files (``_digest``)
DIGESTS = {
    "f2_srw": "1ab0b54c0be8eeef596618a5e67c5585ed2ae09683b098bae179cfc5d759391e",
    "z2z2z2": "ef5251b2b626ae231ea6dec5b2b06ffe2a5ee2139277e49034b2ff432d57c7f8",
    "z2z3": "c95535515a91caee8da4553f6e1f587077c21b119af8074578cf00f0e196f0f1",
}


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """{config name: output directory} of ``report --seed 0`` on each
    shipped config."""
    out = {}
    for name in DIGESTS:
        out[name] = tmp_path_factory.mktemp(name)
        argv = ["report", "--config", str(CONFIGS / f"{name}.json"),
                "--out", str(out[name]), "--seed", "0"]
        assert main(argv) == 0
    return out


def _digest(out):
    """SHA-256 over the files of ``out`` in name order: each file's name
    and a newline, then its bytes without the ``wall_clock_s`` lines."""
    h = hashlib.sha256()
    for path in sorted(Path(out).iterdir()):
        lines = path.read_bytes().splitlines(keepends=True)
        h.update(path.name.encode() + b"\n")
        h.update(b"".join(line for line in lines if b'"wall_clock_s"' not in line))
    return h.hexdigest()


@LONG_DOUBLE
@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_report_bytes_are_frozen(reports, name):
    assert len(list(reports[name].iterdir())) == 11
    assert _digest(reports[name]) == DIGESTS[name]


def _fields(record):
    return [f.name for f in dataclasses.fields(record)]


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_records_are_their_files(reports, name):
    def read(kind):
        return json.loads((reports[name] / f"{name}_{kind}.json").read_text())

    def body(data):
        assert HEADER <= data.keys()
        return sorted(data.keys() - HEADER)

    isums = read("isums_meta")
    assert body(isums) == sorted(_fields(RatioReport))
    assert all(sorted(row) == sorted(_fields(RatioRow)) for row in isums["rows"])
    degeneracy = read("degeneracy")
    assert body(degeneracy) == sorted(_fields(DegeneracyReport))
    assert all(sorted(f) == sorted(_fields(FactorVerdict)) for f in degeneracy["factors"])
    estimates = read("pressure")["estimates"]
    assert estimates and all(sorted(e) == sorted(_fields(PressureEstimate)) for e in estimates)
    ancona = read("ancona")["reports"]
    assert ancona and all(sorted(rep) == sorted(_fields(AnconaReport)) for rep in ancona)
    assert body(read("green_meta")) == sorted(_fields(SpectralRadiusEstimate))


def test_the_sphere_identity_stops_at_the_budget(tmp_path):
    # on Z2^{*60} the n = 4 sphere has 60 * 59^3 = 12,322,740 rows, over
    # ``Automaton.sphere_rows``' budget of 10^7: the identity's rows end at
    # n = 3, and the run exits 0
    config = {
        "schema_version": 1, "name": "z2_60",
        "factors": [{"kind": "cyclic", "n": 2, "name": f"s{i}"} for i in range(60)],
        "measure": {"type": "uniform"}, "horizon": 300, "r_grid": ["0.9R"],
    }
    path = tmp_path / "z2_60.json"
    path.write_text(json.dumps(config))
    assert main(["report", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    rows = json.loads((tmp_path / "out" / "z2_60_report.json").read_text())["sphere_identity"]
    assert [row["n"] for row in rows] == [1, 2, 3]
    assert all(row["rel_err"] <= 1e-12 for row in rows)

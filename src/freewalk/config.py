"""JSON experiment configuration: group, measure, and run knobs.

The schema is versioned and strict: unknown keys raise ConfigError so a
mistyped knob never silently falls back to a default.  Weights are written
as exact-rational strings ("1/4"); r-grid entries may be numbers or strings
of the form "0.9R", meaning that multiple of the estimated convergence
radius.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConfigError
from .groups import FiniteFactor, FreeProduct, LatticeFactor, cyclic_factor
from .walks import StepMeasure, uniform_on_generators

# SHA-256 from the interpreter's builtin module, as ``random`` takes its
# SHA-512: ``hashlib`` loads OpenSSL, about 3.5 MB of a report's peak
# memory, for the one digest of ``ExperimentConfig.hash``.
try:
    from _sha2 import sha256 as _sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256

SCHEMA_VERSION = 1


def _require_keys(obj, required, optional, where):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")
    unknown = [k for k in obj if k not in required and k not in optional]
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")


def _build_factor(spec, idx):
    where = f"factors[{idx}]"
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{where}: factor needs a 'kind'")
    kind = spec["kind"]
    if kind == "lattice":
        _require_keys(spec, ["kind", "rank"], ["name"], where)
        return LatticeFactor(spec["rank"], name=spec.get("name", ""))
    if kind == "cyclic":
        _require_keys(spec, ["kind", "n"], ["name"], where)
        return cyclic_factor(spec["n"], name=spec.get("name", ""))
    if kind == "finite":
        _require_keys(spec, ["kind", "table", "generators"], ["name"], where)
        return FiniteFactor(
            spec["table"], spec["generators"], name=spec.get("name", "")
        )
    raise ConfigError(f"{where}: unknown factor kind {kind!r}")


def _parse_element(group, syllables, where):
    try:
        elem = []
        for fid, payload in syllables:
            if group.factors[fid].kind == "lattice":
                payload = tuple(payload) if isinstance(payload, list) else (payload,)
            elem.append((fid, payload))
        elem = tuple(elem)
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"{where}: malformed element {syllables!r}") from exc
    if not group.is_valid(elem):
        raise ConfigError(f"{where}: element {syllables!r} is not in normal form")
    return elem


def _build_measure(group, spec):
    where = "measure"
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError(f"{where}: needs a 'type'")
    if spec["type"] == "uniform":
        _require_keys(spec, ["type"], ["lazy"], where)
        lazy = Fraction(spec["lazy"]) if spec.get("lazy") is not None else None
        return uniform_on_generators(group, lazy=lazy)
    if spec["type"] == "weights":
        _require_keys(spec, ["type", "weights"], [], where)
        weights = {}
        for i, entry in enumerate(spec["weights"]):
            _require_keys(entry, ["syllables", "weight"], [], f"{where}.weights[{i}]")
            elem = _parse_element(group, entry["syllables"], f"{where}.weights[{i}]")
            try:
                weights[elem] = Fraction(entry["weight"])
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigError(
                    f"{where}.weights[{i}]: bad weight {entry['weight']!r}"
                ) from exc
        return StepMeasure(group, weights)
    raise ConfigError(f"{where}: unknown measure type {spec['type']!r}")


@dataclass
class ExperimentConfig:
    name: str
    raw: dict = field(repr=False)
    group: FreeProduct = field(repr=False)
    measure: StepMeasure = field(repr=False)
    horizon: int = 200
    r_grid: list = field(default_factory=list)  # entries: float or "0.9R"
    seed: int = 0

    def resolve_r_grid(self, r_hat):
        """The grid's entries as radii, each in (0, R]; every command that
        reads a grid refuses an empty one."""
        if not self.r_grid:
            raise ConfigError("the r_grid needs at least one entry")
        out = []
        for entry in self.r_grid:
            if isinstance(entry, str):
                if not entry.endswith("R"):
                    raise ConfigError(f"r-grid entry {entry!r} must end in 'R'")
                try:
                    out.append(float(entry[:-1]) * r_hat)
                except ValueError as exc:
                    raise ConfigError(f"bad r-grid entry {entry!r}") from exc
            else:
                out.append(float(entry))
        bad = [r for r in out if not 0 < r <= r_hat]
        if bad:
            raise ConfigError(
                f"r-grid entries {bad} outside (0, R] with R = {r_hat:.6g}"
            )
        return out

    def hash(self):
        blob = json.dumps(self.raw, sort_keys=True).encode()
        return _sha256(blob).hexdigest()[:16]


_TOP_REQUIRED = ["schema_version", "name", "factors", "measure"]
_TOP_OPTIONAL = [
    "horizon",
    "r_grid",
    "seed",
]


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)


def parse_config(raw):
    _require_keys(raw, _TOP_REQUIRED, _TOP_OPTIONAL, "config")
    if raw["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {raw['schema_version']!r} "
            f"(this build reads {SCHEMA_VERSION})"
        )
    factors = [_build_factor(f, i) for i, f in enumerate(raw["factors"])]
    group = FreeProduct(factors, name=raw["name"])
    measure = _build_measure(group, raw["measure"])
    knobs = {}
    for key in ("horizon", "seed"):
        if key in raw:
            value = raw[key]
            if not isinstance(value, int) or (value <= 0 and key != "seed"):
                raise ConfigError(f"knob {key} must be a positive integer")
            knobs[key] = value
    return ExperimentConfig(
        name=raw["name"],
        raw=raw,
        group=group,
        measure=measure,
        r_grid=list(raw.get("r_grid", [])),
        **knobs,
    )

"""Flat key = value experiment configuration.

The file format is deliberately dumb: one `key = value` pair per line,
`#` starts a comment, keys are dotted paths, values are ints, floats,
booleans, bare strings or comma-separated lists of those.  No nesting, no
quoting, no interpolation.  parse_config_text -> ExperimentConfig.from_mapping
validates everything up front (naming the offending key) so a bad config
never reaches the numerics.

The ExperimentConfig fields are the single list of keys: each field's
metadata gives the dotted key it is filled from, the parser that type- and
range-checks its value, and its default (_REQUIRED when the key must be
given).  _SCHEMA maps each key to its field.  Rules that tie several keys
together follow the key loop in from_mapping.  The accepted operator.kind
and integrator.scheme names and the integrator.* defaults are read from
operators.OPERATOR_KINDS, evolution.SCHEMES and IntegratorConfig, so a new
scheme or a changed default is stated once.  Every number must be finite.

Every artifact heatlab writes uses the same spelling of a value
(_fmt_value): floats (np.float64 included) by repr, booleans as true/false,
tuples comma-separated.  _fmt_pairs renders `key = value` lines, _fmt_csv a
CSV table, and _write_artifact is the one place an artifact file is opened.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

from .evolution import SCHEMES, IntegratorConfig
from .operators import OPERATOR_KINDS

Scalar = Union[int, float, bool, str]
Value = Union[Scalar, Tuple[Scalar, ...]]


class ConfigError(ValueError):
    """Invalid configuration; .key names the offending entry."""

    def __init__(self, key: str, message: str):
        super().__init__(f"config key '{key}': {message}")
        self.key = key


def _parse_scalar(text: str) -> Scalar:
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config_text(text: str) -> dict:
    """Parse `key = value` lines into a flat mapping with typed values."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}", "empty key")
        if key in out:
            raise ConfigError(key, "duplicate key")
        if "," in value:
            out[key] = tuple(_parse_scalar(part.strip()) for part in value.split(","))
        else:
            out[key] = _parse_scalar(value)
    return out


def _fmt_value(value: Value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # float() drops numpy's np.float64(...) wrapper
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(_fmt_value(v) for v in value)
    return str(value)


def _fmt_pairs(pairs: Iterable[Tuple[str, Value]]) -> str:
    """One `key = value` line per pair, as parse_config_text reads them."""
    return "".join(f"{key} = {_fmt_value(value)}\n" for key, value in pairs)


def _fmt_csv(header: str, rows: Iterable[Sequence[Value]]) -> str:
    """The header line, then one comma-separated line of cells per row."""
    lines = [header] + [",".join(map(_fmt_value, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _write_artifact(out_dir: str, name: str, text: str) -> str:
    """Write text to out_dir/name, creating out_dir; return the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# Parsers take a raw value and return the field value, or raise ValueError
# with a message; from_mapping prefixes the message with the key.


def _number(value: Value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # nan, +-inf, an integer past double range
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _integer(value: Value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _items(value: Value) -> tuple:
    return value if isinstance(value, tuple) else (value,)


def _each(parse: Callable) -> Callable:
    """Parse a value, or every item of a comma list, into a tuple."""
    return lambda value: tuple(parse(item) for item in _items(value))


def _text(value: Value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _values(value: Value) -> Tuple[Scalar, ...]:
    if value == "":
        return ()  # an explicitly empty axis is legal
    return _items(value)


def _choice(*choices: str) -> Callable[[Value], str]:
    def parse(value: Value) -> str:
        if _text(value) not in choices:
            raise ValueError(f"expected one of {choices}, got {value!r}")
        return value

    return parse


def _checked(parse: Callable, ok: Callable, message: str) -> Callable:
    """Wrap parse so that the value, or every item of a tuple, satisfies ok."""

    def check(value: Value):
        out = parse(value)
        for item in _items(out):
            if not ok(item):
                raise ValueError(message)
        return out

    return check


def _positive(parse: Callable) -> Callable:
    return _checked(parse, lambda v: v > 0, "must be positive")


def _nonnegative(parse: Callable) -> Callable:
    return _checked(parse, lambda v: v >= 0, "must be >= 0")


_REQUIRED = object()
_grid_counts = _checked(
    _each(_integer), lambda v: v >= 2, "need at least 2 interior nodes per axis"
)
_sign = _checked(_integer, lambda v: v in (1, -1), "sign is +1 (repulsive) or -1 (attractive)")


def _key(key: str, parse: Callable, default=_REQUIRED):
    """A config field: its dotted key, its parser and its default, as metadata."""
    return field(metadata={"key": key, "parse": parse, "default": default})


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description, still independent of any assembly.

    A default of None means "not set"; domain.lower (required unless the
    domain is a halfline) and equation.p (required unless the regime is
    critical) are checked after the key loop in from_mapping.
    """

    regime: str = _key("equation.regime", _choice("subcritical", "critical"))
    p: Optional[float] = _key("equation.p", _number, None)
    nonlinearity: str = _key("equation.nonlinearity", _choice("source", "absorbing"), "source")
    domain_kind: str = _key("domain.kind", _choice("interval", "box", "halfline"))
    lower: Tuple[float, ...] = _key("domain.lower", _each(_number), None)
    upper: Tuple[float, ...] = _key("domain.upper", _each(_number))
    n: Tuple[int, ...] = _key("grid.n", _grid_counts)
    operator_kind: str = _key("operator.kind", _choice(*OPERATOR_KINDS), "dirichlet_laplacian")
    sigma: float = _key("operator.sigma", _nonnegative(_number), 0.0)
    potential_kind: str = _key(
        "potential.kind", _choice("zero", "inverse_power", "gaussian_well"), "zero"
    )
    potential_alpha: float = _key("potential.alpha", _number, 0.0)
    potential_coupling: float = _key("potential.coupling", _number, 0.0)
    potential_sign: int = _key("potential.sign", _sign, 1)
    potential_depth: float = _key("potential.depth", _number, 1.0)
    potential_width: float = _key("potential.width", _number, 1.0)
    recipe: str = _key(
        "initial.recipe", _choice("zero", "gaussian", "scaled_ground_state", "eigenmode")
    )
    amplitude: float = _key("initial.amplitude", _number, 1.0)
    center: Tuple[float, ...] = _key("initial.center", _each(_number), (0.0,))
    width: Optional[float] = _key("initial.width", _positive(_number), None)
    lam: float = _key("initial.lambda", _nonnegative(_number), 1.0)
    mode_index: int = _key("initial.k", _nonnegative(_integer), 0)
    scheme: str = _key("integrator.scheme", _choice(*SCHEMES), IntegratorConfig.scheme)
    t_max: float = _key("integrator.t_max", _positive(_number))
    dt_init: float = _key("integrator.dt_init", _positive(_number), IntegratorConfig.dt_init)
    dt_min: float = _key("integrator.dt_min", _positive(_number), IntegratorConfig.dt_min)
    dt_max: float = _key("integrator.dt_max", _positive(_number), IntegratorConfig.dt_max)
    rel_tol: float = _key("integrator.rel_tol", _positive(_number), IntegratorConfig.rel_tol)
    sup_cap: float = _key(
        "integrator.sup_cap", _positive(_number), IntegratorConfig.blowup_sup_cap
    )
    energy_cap: float = _key(
        "integrator.energy_cap", _positive(_number), IntegratorConfig.blowup_energy_cap
    )
    sample_interval: Optional[float] = _key(
        "integrator.sample_interval", _positive(_number), IntegratorConfig.sample_interval
    )
    cutoff_radii: Tuple[float, ...] = _key(
        "integrator.cutoff_radii", _positive(_each(_number)), IntegratorConfig.cutoff_radii
    )
    diag_alpha: float = _key("diagnostics.alpha", _positive(_number), 0.1)
    diag_A: Optional[float] = _key("diagnostics.A", _positive(_number), None)
    diag_R: Optional[float] = _key("diagnostics.R", _positive(_number), None)
    sweep_key: Optional[str] = _key("sweep.key", _text, None)
    sweep_values: Tuple[Scalar, ...] = _key("sweep.values", _values, ())
    seed: int = _key("seed", _nonnegative(_integer), 0)
    raw: dict = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.lower)

    @staticmethod
    def from_mapping(raw: dict) -> "ExperimentConfig":
        unknown = sorted(set(raw) - set(_SCHEMA))
        if unknown:
            raise ConfigError(unknown[0], f"unknown key(s): {', '.join(unknown)}")
        values = {}
        for key, f in _SCHEMA.items():
            if key not in raw:
                if f.metadata["default"] is _REQUIRED:
                    raise ConfigError(key, "required key is missing")
                values[f.name] = f.metadata["default"]
                continue
            try:
                values[f.name] = f.metadata["parse"](raw[key])
            except ValueError as exc:
                raise ConfigError(key, str(exc)) from None

        domain_kind = values["domain_kind"]
        if values["lower"] is None:
            if domain_kind != "halfline":
                raise ConfigError("domain.lower", "required key is missing")
            values["lower"] = (0.0,)
        lower, upper = values["lower"], values["upper"]
        if len(lower) != len(upper):
            raise ConfigError("domain.lower", "lower and upper have different lengths")
        dim = len(lower)
        if domain_kind == "interval" and dim != 1:
            raise ConfigError("domain.kind", "interval domains are one-dimensional")
        if domain_kind == "halfline" and (dim != 1 or lower[0] != 0.0):
            raise ConfigError("domain.kind", "halfline domains are 1-d starting at 0")
        for lo, up in zip(lower, upper):
            if not up > lo:
                raise ConfigError("domain.upper", "upper must exceed lower on every axis")
        for key, name in (("grid.n", "n"), ("initial.center", "center")):
            if len(values[name]) == 1:
                values[name] = values[name] * dim
            if len(values[name]) != dim:
                raise ConfigError(key, f"expected {dim} entries, got {len(values[name])}")

        p = values["p"]
        if values["regime"] == "critical":
            if dim < 3:
                raise ConfigError("equation.regime", "critical requires d >= 3")
            p_star = (dim + 2.0) / (dim - 2.0)
            if p is not None and abs(p - p_star) > 1e-12:
                raise ConfigError("equation.p", f"critical exponent in d={dim} is {p_star}")
            values["p"] = p_star
        elif p is None:
            raise ConfigError("equation.p", "required key is missing")
        elif dim >= 3:
            p_star = (dim + 2.0) / (dim - 2.0)
            if not 1.0 < p < p_star:
                raise ConfigError("equation.p", f"subcritical range in d={dim} is (1, {p_star})")
        elif p <= 1.0:
            raise ConfigError("equation.p", "need p > 1")

        if values["operator_kind"] == "robin_halfline" and domain_kind != "halfline":
            raise ConfigError("operator.kind", "robin_halfline needs domain.kind = halfline")
        potential_kind = values["potential_kind"]
        if potential_kind != "zero" and values["operator_kind"] != "schrodinger":
            raise ConfigError("potential.kind", "potentials need operator.kind = schrodinger")
        if potential_kind == "inverse_power":
            if values["potential_alpha"] <= 0:
                raise ConfigError("potential.alpha", "inverse-power potential needs alpha > 0")
            if values["potential_coupling"] < 0:
                raise ConfigError("potential.coupling", "inverse-power coupling must be >= 0")
        if potential_kind == "gaussian_well" and values["potential_width"] <= 0:
            raise ConfigError("potential.width", "need width > 0")

        if values["recipe"] == "scaled_ground_state" and values["regime"] == "critical":
            raise ConfigError(
                "initial.recipe", "scaled_ground_state is undefined in the critical regime"
            )
        if values["recipe"] == "scaled_ground_state" and values["nonlinearity"] == "absorbing":
            raise ConfigError(
                "initial.recipe", "scaled_ground_state needs equation.nonlinearity = source"
            )
        if not values["dt_min"] <= values["dt_init"] <= values["dt_max"]:
            raise ConfigError("integrator.dt_init", "need dt_min <= dt_init <= dt_max")

        sweep_key = values["sweep_key"]
        if sweep_key is not None:
            if sweep_key not in _SCHEMA or sweep_key.startswith("sweep."):
                raise ConfigError("sweep.key", f"cannot sweep over {sweep_key!r}")
            if "sweep.values" not in raw:
                raise ConfigError("sweep.values", "sweep.key set but sweep.values is missing")

        return ExperimentConfig(**values, raw=dict(raw))

    def with_override(self, key: str, value: Value) -> "ExperimentConfig":
        """Re-validate with one key replaced (used by sweeps)."""
        raw = dict(self.raw)
        raw[key] = value
        return ExperimentConfig.from_mapping(raw)

    def echo_text(self) -> str:
        """Canonical `key = value` rendering of the raw mapping (round-trips)."""
        return _fmt_pairs(sorted(self.raw.items()))


# dotted key -> ExperimentConfig field, in declaration order
_SCHEMA = {f.metadata["key"]: f for f in fields(ExperimentConfig) if f.metadata}


def load_experiment_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return ExperimentConfig.from_mapping(parse_config_text(fh.read()))

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
given).  _SCHEMA maps each key to its field.  The accepted operator.kind
and integrator.scheme names and the integrator.* defaults are read from
operators.OPERATOR_KINDS, evolution.SCHEMES and IntegratorConfig, so a new
scheme or a changed default is stated once.  Every number must be finite.

Each rule is stated once, by whoever owns it.  The specs own theirs, and
one builder per spec turns keys into it; the run calls the same builders:

  build_domain         domain.*              grids.DomainSpec
  build_grid           grid.n                grids.Grid
  build_mode           equation.*            variational.EquationMode
  build_operator_spec  operator.*, potential.*   operators.OperatorSpec
  _integrator_config   integrator.*          evolution.IntegratorConfig

After the key loop, from_mapping calls every builder, then
operators._check_domain, which holds robin_halfline's halfline rule and
the potential's range for the domain's dimension (validate_potential).  A
spec refuses by a grids.FieldError that names its (spec, field), and
_named reports it as the ConfigError of the key that field is filled from
(_FIELD_KEYS):

  DomainSpec kind, lower, upper      domain.kind, domain.lower, domain.upper
  Grid n                             grid.n
  EquationMode regime, p             equation.regime, equation.p
  OperatorSpec kind, potential, sigma  operator.kind, potential.kind,
                                     operator.sigma
  PotentialSpec alpha, coupling, sign  potential.alpha, potential.coupling,
                                     potential.sign
  IntegratorConfig <field>           integrator.<key> (blowup_sup_cap and
                                     blowup_energy_cap: sup_cap, energy_cap)

The config itself states only what no spec does: unknown keys, parsing
and finiteness, required keys and defaults, per-axis broadcasting of
grid.n and initial.center, equation.p required unless the regime is
critical, inverse-power alpha > 0, gaussian_well width > 0, operator.sigma
>= 0 and potential.sign +-1 on every kind, the scaled_ground_state rules
and the sweep rules.  A potential singular at a grid node needs the node
coordinates, so assembly refuses it (operators.AssemblyError).

Every artifact heatlab writes uses the same spelling of a value
(_fmt_value): floats (np.float64 included) by repr, booleans as true/false,
tuples comma-separated.  _fmt_pairs renders `key = value` lines, _fmt_csv a
CSV table, and _write_artifact is the one place an artifact file is opened.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .evolution import SCHEMES, IntegratorConfig
from .grids import DomainSpec, FieldError, Grid, build_grid
from .operators import OPERATOR_KINDS, ZERO_POTENTIAL, OperatorSpec, PotentialSpec, _check_domain
from .variational import EquationMode

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
    """Wrap parse so that the value satisfies ok."""

    def check(value: Value):
        out = parse(value)
        if not ok(out):
            raise ValueError(message)
        return out

    return check


def _positive(parse: Callable) -> Callable:
    return _checked(parse, lambda v: v > 0, "must be positive")


def _nonnegative(parse: Callable) -> Callable:
    return _checked(parse, lambda v: v >= 0, "must be >= 0")


_REQUIRED = object()
_sign = _checked(_integer, lambda v: v in (1, -1), "sign is +1 (repulsive) or -1 (attractive)")


def _key(key: str, parse: Callable, default=_REQUIRED):
    """A config field: its dotted key, its parser and its default, as metadata."""
    return field(metadata={"key": key, "parse": parse, "default": default})


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description, still independent of any assembly.

    A default of None means "not set"; domain.lower (required unless the
    domain is a halfline) and equation.p (required unless the regime is
    critical) are checked after the key loop in from_mapping, which then
    builds every spec (module docstring).
    """

    regime: str = _key("equation.regime", _choice("subcritical", "critical"))
    p: Optional[float] = _key("equation.p", _number, None)
    nonlinearity: str = _key("equation.nonlinearity", _choice("source", "absorbing"), "source")
    domain_kind: str = _key("domain.kind", _choice("interval", "box", "halfline"))
    lower: Tuple[float, ...] = _key("domain.lower", _each(_number), None)
    upper: Tuple[float, ...] = _key("domain.upper", _each(_number))
    n: Tuple[int, ...] = _key("grid.n", _each(_integer))
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
    t_max: float = _key("integrator.t_max", _number)
    dt_init: float = _key("integrator.dt_init", _number, IntegratorConfig.dt_init)
    dt_min: float = _key("integrator.dt_min", _number, IntegratorConfig.dt_min)
    dt_max: float = _key("integrator.dt_max", _number, IntegratorConfig.dt_max)
    rel_tol: float = _key("integrator.rel_tol", _number, IntegratorConfig.rel_tol)
    sup_cap: float = _key("integrator.sup_cap", _number, IntegratorConfig.blowup_sup_cap)
    energy_cap: float = _key(
        "integrator.energy_cap", _number, IntegratorConfig.blowup_energy_cap
    )
    sample_interval: Optional[float] = _key(
        "integrator.sample_interval", _number, IntegratorConfig.sample_interval
    )
    cutoff_radii: Tuple[float, ...] = _key(
        "integrator.cutoff_radii", _each(_number), IntegratorConfig.cutoff_radii
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

        if values["lower"] is None:
            if values["domain_kind"] != "halfline":
                raise ConfigError("domain.lower", "required key is missing")
            values["lower"] = (0.0,)
        if values["p"] is None and values["regime"] != "critical":
            raise ConfigError("equation.p", "required key is missing")
        if values["potential_kind"] == "inverse_power" and values["potential_alpha"] <= 0:
            raise ConfigError("potential.alpha", "inverse-power potential needs alpha > 0")
        if values["potential_kind"] == "gaussian_well" and values["potential_width"] <= 0:
            raise ConfigError("potential.width", "need width > 0")
        if values["recipe"] == "scaled_ground_state" and values["regime"] == "critical":
            raise ConfigError(
                "initial.recipe", "scaled_ground_state is undefined in the critical regime"
            )
        if values["recipe"] == "scaled_ground_state" and values["nonlinearity"] == "absorbing":
            raise ConfigError(
                "initial.recipe", "scaled_ground_state needs equation.nonlinearity = source"
            )
        sweep_key = values["sweep_key"]
        if sweep_key is not None:
            if sweep_key not in _SCHEMA or sweep_key.startswith("sweep."):
                raise ConfigError("sweep.key", f"cannot sweep over {sweep_key!r}")
            if "sweep.values" not in raw:
                raise ConfigError("sweep.values", "sweep.key set but sweep.values is missing")

        cfg = ExperimentConfig(**values, raw=dict(raw))
        domain = _named(build_domain, cfg)
        n, center = (v * domain.dim if len(v) == 1 else v for v in (cfg.n, cfg.center))
        if len(center) != domain.dim:
            raise ConfigError("initial.center", f"expected {domain.dim} entries, got {len(center)}")
        _named(build_grid, domain, n)
        mode = _named(build_mode, cfg)
        _named(_check_domain, _named(build_operator_spec, cfg), domain)
        _named(_integrator_config, cfg)
        return replace(cfg, n=n, center=center, p=mode.p)

    def with_override(self, key: str, value: Value) -> "ExperimentConfig":
        """Re-validate with one key replaced (used by sweeps)."""
        raw = dict(self.raw)
        raw[key] = value
        return ExperimentConfig.from_mapping(raw)

    def echo_text(self) -> str:
        """Canonical `key = value` rendering of the raw mapping (round-trips)."""
        return _fmt_pairs(sorted(self.raw.items()))


def build_domain(cfg: ExperimentConfig) -> DomainSpec:
    """domain.* as a DomainSpec (a config halfline is a halfline_truncated domain)."""
    kind = {"interval": "interval", "box": "box", "halfline": "halfline_truncated"}[cfg.domain_kind]
    return DomainSpec(kind=kind, lower=cfg.lower, upper=cfg.upper)


def build_mode(cfg: ExperimentConfig) -> EquationMode:
    """equation.* as an EquationMode; without equation.p (which only the
    critical regime allows) p is the critical exponent (d+2)/(d-2)."""
    if cfg.p is None:
        return EquationMode.critical(cfg.dim, nonlinearity=cfg.nonlinearity)
    return EquationMode(cfg.regime, cfg.p, cfg.dim, cfg.nonlinearity)


def build_operator_spec(cfg: ExperimentConfig) -> OperatorSpec:
    """operator.* and potential.* as an OperatorSpec.  gaussian_well is the
    tabulated V(x) = -depth exp(-|x|^2 / width^2)."""
    if cfg.potential_kind == "zero":
        potential = ZERO_POTENTIAL
    elif cfg.potential_kind == "inverse_power":
        potential = PotentialSpec(
            kind="inverse_power",
            alpha=cfg.potential_alpha,
            coupling=cfg.potential_coupling,
            sign=cfg.potential_sign,
        )
    else:  # gaussian_well
        depth, width = cfg.potential_depth, cfg.potential_width

        def well(x: np.ndarray) -> np.ndarray:
            r_sq = np.sum(x * x, axis=-1)
            return -depth * np.exp(-r_sq / (width * width))

        potential = PotentialSpec(kind="tabulated_bounded", fn=well, sign=-1)
    return OperatorSpec(kind=cfg.operator_kind, potential=potential, sigma=cfg.sigma)


def _diag_radius(cfg: ExperimentConfig) -> Optional[float]:
    """The concavity radius: diagnostics.R, by default in the critical
    regime half the truncation radius, which is half the smallest distance
    from the domain center to its boundary."""
    if cfg.diag_R is None and cfg.regime == "critical":
        return 0.5 * min((u - l) / 2.0 for l, u in zip(cfg.lower, cfg.upper))
    return cfg.diag_R


def _integrator_config(cfg: ExperimentConfig) -> IntegratorConfig:
    """integrator.* as an IntegratorConfig; in the critical regime the
    cutoff radii include the concavity radius."""
    radii = cfg.cutoff_radii
    diag_R = _diag_radius(cfg)
    if cfg.regime == "critical" and diag_R not in radii:
        radii = radii + (diag_R,)
    return IntegratorConfig(
        t_max=cfg.t_max,
        dt_init=cfg.dt_init,
        dt_min=cfg.dt_min,
        dt_max=cfg.dt_max,
        rel_tol=cfg.rel_tol,
        blowup_sup_cap=cfg.sup_cap,
        blowup_energy_cap=cfg.energy_cap,
        scheme=cfg.scheme,
        sample_interval=cfg.sample_interval,
        cutoff_radii=radii,
    )


# (spec, field) -> the dotted key it is filled from, for the fields whose
# refusal (a grids.FieldError) a config can provoke
_FIELD_KEYS = {
    (DomainSpec, "kind"): "domain.kind",
    (DomainSpec, "lower"): "domain.lower",
    (DomainSpec, "upper"): "domain.upper",
    (Grid, "n"): "grid.n",
    (EquationMode, "regime"): "equation.regime",
    (EquationMode, "p"): "equation.p",
    (OperatorSpec, "kind"): "operator.kind",
    (OperatorSpec, "potential"): "potential.kind",
    (OperatorSpec, "sigma"): "operator.sigma",
    (PotentialSpec, "alpha"): "potential.alpha",
    (PotentialSpec, "coupling"): "potential.coupling",
    (PotentialSpec, "sign"): "potential.sign",
    (IntegratorConfig, "scheme"): "integrator.scheme",
    (IntegratorConfig, "t_max"): "integrator.t_max",
    (IntegratorConfig, "dt_init"): "integrator.dt_init",
    (IntegratorConfig, "dt_min"): "integrator.dt_min",
    (IntegratorConfig, "dt_max"): "integrator.dt_max",
    (IntegratorConfig, "rel_tol"): "integrator.rel_tol",
    (IntegratorConfig, "blowup_sup_cap"): "integrator.sup_cap",
    (IntegratorConfig, "blowup_energy_cap"): "integrator.energy_cap",
    (IntegratorConfig, "sample_interval"): "integrator.sample_interval",
    (IntegratorConfig, "cutoff_radii"): "integrator.cutoff_radii",
}


def _named(build: Callable, *args):
    """build(*args), with a spec's refusal raised as the ConfigError of the
    key the refused field is filled from."""
    try:
        return build(*args)
    except FieldError as exc:
        raise ConfigError(_FIELD_KEYS[exc.field], str(exc)) from None


# dotted key -> ExperimentConfig field, in declaration order
_SCHEMA = {f.metadata["key"]: f for f in fields(ExperimentConfig) if f.metadata}


def load_experiment_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return ExperimentConfig.from_mapping(parse_config_text(fh.read()))

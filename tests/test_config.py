"""Flat key=value experiment configs: parsing, validation, round-trips."""

import dataclasses
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatlab.config import (
    _SCHEMA,
    ConfigError,
    ExperimentConfig,
    _fmt_csv,
    _fmt_pairs,
    _fmt_value,
    load_experiment_config,
    parse_config_text,
)
from heatlab.evolution import SCHEMES, IntegratorConfig

BASE = """
# 1-d cubic source problem
equation.regime = subcritical
equation.p = 3.0
domain.kind = interval
domain.lower = -20.0
domain.upper = 20.0
grid.n = 400
operator.kind = dirichlet_laplacian
initial.recipe = gaussian
initial.amplitude = 0.3
integrator.t_max = 2.0
"""


def base_map(**overrides):
    raw = parse_config_text(BASE)
    raw.update(overrides)
    return raw


def test_parser_basics():
    out = parse_config_text(
        "a.b = 3\nname = fred # trailing comment\nflag = true\n"
        "xs = 1, 2.5, hi\nneg = -4.5e-2\n  \n# full comment line\n"
    )
    assert out["a.b"] == 3 and isinstance(out["a.b"], int)
    assert out["name"] == "fred"
    assert out["flag"] is True
    assert out["xs"] == (1, 2.5, "hi")
    assert math.isclose(out["neg"], -0.045)


def test_parser_errors():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config_text("= 3\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("a = 1\na = 2\n")
    err = None
    try:
        parse_config_text("ok = 1\nbroken line\n")
    except ConfigError as exc:
        err = exc
    assert err is not None and err.key == "line 2"


def test_valid_config_builds():
    cfg = ExperimentConfig.from_mapping(base_map())
    assert cfg.regime == "subcritical"
    assert cfg.p == 3.0
    assert cfg.dim == 1
    assert cfg.n == (400,)
    assert cfg.t_max == 2.0
    assert cfg.sweep_key is None


def test_unknown_keys_rejected_by_name():
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_mapping(base_map(**{"grid.m": 3, "zap": 1}))
    msg = str(exc.value)
    assert "grid.m" in msg and "zap" in msg


def test_missing_required_key():
    raw = base_map()
    del raw["integrator.t_max"]
    with pytest.raises(ConfigError, match="required"):
        ExperimentConfig.from_mapping(raw)


def test_critical_needs_three_dimensions():
    raw = base_map(**{
        "equation.regime": "critical",
        "domain.kind": "box",
        "domain.lower": (-5.0, -5.0),
        "domain.upper": (5.0, 5.0),
        "grid.n": 10,
    })
    del raw["equation.p"]
    with pytest.raises(ConfigError, match="critical requires d >= 3"):
        ExperimentConfig.from_mapping(raw)
    raw3 = base_map(**{
        "equation.regime": "critical",
        "domain.kind": "box",
        "domain.lower": (-5.0, -5.0, -5.0),
        "domain.upper": (5.0, 5.0, 5.0),
        "grid.n": 9,
    })
    del raw3["equation.p"]
    cfg = ExperimentConfig.from_mapping(raw3)
    assert cfg.p == 5.0  # pinned to (d+2)/(d-2)
    bad_p = dict(raw3)
    bad_p["equation.p"] = 3.0
    with pytest.raises(ConfigError, match="critical exponent"):
        ExperimentConfig.from_mapping(bad_p)


def test_subcritical_exponent_window():
    with pytest.raises(ConfigError, match="need p > 1"):
        ExperimentConfig.from_mapping(base_map(**{"equation.p": 1.0}))
    raw = base_map(**{
        "domain.kind": "box",
        "domain.lower": (-5.0, -5.0, -5.0),
        "domain.upper": (5.0, 5.0, 5.0),
        "grid.n": 8,
        "equation.p": 6.0,
    })
    with pytest.raises(ConfigError, match="subcritical range"):
        ExperimentConfig.from_mapping(raw)


def test_domain_shape_validation():
    with pytest.raises(ConfigError, match="one-dimensional"):
        ExperimentConfig.from_mapping(base_map(**{
            "domain.lower": (0.0, 0.0), "domain.upper": (1.0, 1.0),
        }))
    with pytest.raises(ConfigError, match="different lengths"):
        ExperimentConfig.from_mapping(base_map(**{
            "domain.kind": "box",
            "domain.lower": (0.0, 0.0), "domain.upper": (1.0, 1.0, 1.0),
        }))
    with pytest.raises(ConfigError, match="exceed"):
        ExperimentConfig.from_mapping(base_map(**{
            "domain.lower": 5.0, "domain.upper": -5.0,
        }))
    with pytest.raises(ConfigError, match="starting at 0"):
        ExperimentConfig.from_mapping(base_map(**{
            "domain.kind": "halfline", "domain.lower": 1.0, "domain.upper": 30.0,
        }))


def test_grid_broadcast_and_minimum():
    raw = base_map(**{
        "domain.kind": "box",
        "domain.lower": (0.0, 0.0), "domain.upper": (1.0, 2.0),
        "grid.n": 12,
    })
    cfg = ExperimentConfig.from_mapping(raw)
    assert cfg.n == (12, 12)
    raw["grid.n"] = (12, 1)
    with pytest.raises(ConfigError, match="at least 2"):
        ExperimentConfig.from_mapping(raw)


def test_operator_and_potential_rules():
    with pytest.raises(ConfigError, match="halfline"):
        ExperimentConfig.from_mapping(base_map(**{"operator.kind": "robin_halfline"}))
    with pytest.raises(ConfigError, match="schrodinger"):
        ExperimentConfig.from_mapping(base_map(**{"potential.kind": "gaussian_well"}))
    cfg = ExperimentConfig.from_mapping(base_map(**{
        "operator.kind": "schrodinger",
        "potential.kind": "inverse_power",
        "potential.alpha": 0.5,
        "potential.coupling": 1.0,
        "potential.sign": 1,
    }))
    assert cfg.potential_kind == "inverse_power"
    with pytest.raises(ConfigError, match="sign"):
        ExperimentConfig.from_mapping(base_map(**{
            "operator.kind": "schrodinger",
            "potential.kind": "inverse_power",
            "potential.alpha": 0.5,
            "potential.coupling": 1.0,
            "potential.sign": 2,
        }))
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_mapping(base_map(**{
            "operator.kind": "schrodinger",
            "potential.kind": "inverse_power",
            "potential.alpha": 0.5,
            "potential.coupling": -1.0,
        }))
    assert exc.value.key == "potential.coupling"


def test_initial_recipe_rules():
    cfg = ExperimentConfig.from_mapping(base_map(**{
        "initial.recipe": "scaled_ground_state", "initial.lambda": 1.2,
    }))
    assert cfg.lam == 1.2
    with pytest.raises(ConfigError, match="lambda"):
        ExperimentConfig.from_mapping(base_map(**{
            "initial.recipe": "scaled_ground_state", "initial.lambda": -1.0,
        }))
    raw = base_map(**{
        "equation.regime": "critical",
        "domain.kind": "box",
        "domain.lower": (-5.0,) * 3,
        "domain.upper": (5.0,) * 3,
        "grid.n": 7,
        "initial.recipe": "scaled_ground_state",
        "initial.lambda": 1.0,
    })
    del raw["equation.p"]
    with pytest.raises(ConfigError, match="initial.recipe"):
        ExperimentConfig.from_mapping(raw)
    # the absorbing nonlinearity has no ground state to scale
    with pytest.raises(ConfigError, match="nonlinearity = source") as exc:
        ExperimentConfig.from_mapping(base_map(**{
            "initial.recipe": "scaled_ground_state", "equation.nonlinearity": "absorbing",
        }))
    assert exc.value.key == "initial.recipe"


def test_typed_value_rejection():
    with pytest.raises(ConfigError, match="number"):
        ExperimentConfig.from_mapping(base_map(**{"integrator.t_max": "soon"}))
    with pytest.raises(ConfigError, match="integer"):
        ExperimentConfig.from_mapping(base_map(**{"grid.n": 10.5}))
    with pytest.raises(ConfigError, match="number"):
        ExperimentConfig.from_mapping(base_map(**{"equation.p": True}))
    with pytest.raises(ConfigError, match="positive"):
        ExperimentConfig.from_mapping(base_map(**{"integrator.rel_tol": -1.0}))
    with pytest.raises(ConfigError, match="t_max"):
        ExperimentConfig.from_mapping(base_map(**{"integrator.t_max": -2.0}))
    with pytest.raises(ConfigError, match="dt_min <= dt_init <= dt_max") as exc:
        ExperimentConfig.from_mapping(base_map(**{"integrator.dt_init": 1.0}))
    assert exc.value.key == "integrator.dt_init"


@pytest.mark.parametrize(
    "line",
    [
        "domain.upper = inf",
        "domain.upper = " + "1" * 400,  # an integer past double range
        "domain.lower = -inf, 20.0",
        "equation.p = nan",
        "initial.amplitude = nan",
        "integrator.sup_cap = inf",
        "integrator.sup_cap = -inf",
    ],
)
def test_non_finite_numbers_rejected(line):
    key = line.split(" = ")[0]
    with pytest.raises(ConfigError, match="expected a finite number") as exc:
        ExperimentConfig.from_mapping(base_map(**parse_config_text(line)))
    assert exc.value.key == key


def test_integrator_defaults_are_the_integrators():
    defaults = {f.name: f.default for f in dataclasses.fields(IntegratorConfig)}
    renamed = {"sup_cap": "blowup_sup_cap", "energy_cap": "blowup_energy_cap"}
    keys = [key for key in _SCHEMA if key.startswith("integrator.")]
    assert len(keys) == 10
    for key in keys:
        if key != "integrator.t_max":  # required in both
            name = key.split(".", 1)[1]
            assert _SCHEMA[key].metadata["default"] == defaults[renamed.get(name, name)], key
    for scheme in SCHEMES:
        cfg = ExperimentConfig.from_mapping(base_map(**{"integrator.scheme": scheme}))
        assert cfg.scheme == scheme
    with pytest.raises(ConfigError, match=re.escape(f"expected one of {SCHEMES}")):
        ExperimentConfig.from_mapping(base_map(**{"integrator.scheme": "etdrk4"}))


def test_sweep_axis():
    cfg = ExperimentConfig.from_mapping(base_map(**{
        "sweep.key": "initial.amplitude",
        "sweep.values": (0.1, 0.2, 0.4),
    }))
    assert cfg.sweep_key == "initial.amplitude"
    assert cfg.sweep_values == (0.1, 0.2, 0.4)
    with pytest.raises(ConfigError, match="cannot sweep"):
        ExperimentConfig.from_mapping(base_map(**{
            "sweep.key": "sweep.values", "sweep.values": (1,),
        }))
    with pytest.raises(ConfigError, match="missing"):
        ExperimentConfig.from_mapping(base_map(**{"sweep.key": "initial.amplitude"}))
    # an explicitly empty value list is a legal, empty axis
    empty = ExperimentConfig.from_mapping(base_map(**{
        "sweep.key": "initial.amplitude", "sweep.values": "",
    }))
    assert empty.sweep_values == ()


def test_with_override_revalidates():
    cfg = ExperimentConfig.from_mapping(base_map())
    up = cfg.with_override("initial.amplitude", 0.9)
    assert up.amplitude == 0.9
    assert cfg.amplitude == 0.3  # original untouched
    with pytest.raises(ConfigError):
        cfg.with_override("grid.n", 0)


def test_echo_round_trip():
    raw = base_map(**{
        "integrator.cutoff_radii": (1.5, 2.5),
        "seed": 7,
    })
    cfg = ExperimentConfig.from_mapping(raw)
    echoed = cfg.echo_text()
    assert parse_config_text(echoed) == cfg.raw
    # echo is sorted and newline-terminated, so it is byte-stable
    lines = echoed.strip().splitlines()
    assert lines == sorted(lines)
    assert echoed.endswith("\n")
    again = ExperimentConfig.from_mapping(parse_config_text(echoed))
    assert again.echo_text() == echoed


def test_artifact_formats():
    # a numpy float is spelled as the Python float it holds
    assert _fmt_value(np.float64(0.1)) == "0.1" == _fmt_value(0.1)
    assert _fmt_value(True) == "true" and _fmt_value(False) == "false"
    assert _fmt_value((1, 2.5, "hi")) == "1, 2.5, hi"
    pairs = [("a", 1), ("b", np.float64(-0.0)), ("c", (1.5, 2.0))]
    assert _fmt_pairs(pairs) == "a = 1\nb = -0.0\nc = 1.5, 2.0\n"
    assert parse_config_text(_fmt_pairs(pairs)) == {"a": 1, "b": -0.0, "c": (1.5, 2.0)}
    table = [(np.float64(1e-300), True), ("", False)]
    assert _fmt_csv("x,ok", table) == "x,ok\n1e-300,true\n,false\n"
    assert _fmt_csv("x,ok", []) == "x,ok\n"


def test_load_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE, encoding="utf-8")
    cfg = load_experiment_config(str(path))
    assert cfg.amplitude == 0.3
    with pytest.raises(FileNotFoundError):
        load_experiment_config(str(tmp_path / "missing.cfg"))


_finite = dict(allow_nan=False, allow_infinity=False)
_number = st.floats(-1e6, 1e6, **_finite) | st.integers(-1000, 1000)
_positive = st.floats(1e-9, 1e6, **_finite) | st.integers(1, 1000)
_nonnegative = st.floats(0.0, 1e6, **_finite) | st.integers(0, 1000)

# valid values for the keys that no cross-key rule constrains
_FREE_KEYS = {
    "operator.sigma": _nonnegative,
    "potential.sign": st.sampled_from([1, -1]),
    "potential.depth": _number,
    "initial.amplitude": _number,
    "initial.width": _positive,
    "initial.lambda": _nonnegative,
    "initial.k": st.integers(0, 50),
    "integrator.scheme": st.sampled_from(SCHEMES),
    "integrator.rel_tol": _positive,
    "integrator.sup_cap": _positive,
    "integrator.energy_cap": _positive,
    "integrator.sample_interval": _positive,
    "integrator.cutoff_radii": _positive | st.tuples(_positive, _positive),
    "diagnostics.alpha": _positive,
    "diagnostics.A": _positive,
    "diagnostics.R": _positive,
    "seed": st.integers(0, 2**31),
}
# the keys that cross-key rules tie together, drawn jointly by valid_mappings
_RULE_KEYS = {
    "equation.regime", "equation.p", "equation.nonlinearity", "domain.kind", "domain.lower",
    "domain.upper", "grid.n", "operator.kind", "potential.kind", "potential.alpha",
    "potential.coupling", "potential.width", "initial.recipe", "initial.center",
    "integrator.t_max", "integrator.dt_init", "integrator.dt_min", "integrator.dt_max",
    "sweep.key", "sweep.values",
}


def _axes(values):
    """A 1-tuple echoes as a scalar, so a single axis is written as one."""
    return values[0] if len(values) == 1 else tuple(values)


def _per_axis(strategy, dim):
    return st.lists(strategy, min_size=dim, max_size=dim).map(_axes)


@st.composite
def valid_mappings(draw):
    dim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["interval", "halfline", "box"])) if dim == 1 else "box"
    regime = draw(st.sampled_from(["subcritical", "critical"])) if dim == 3 else "subcritical"
    if kind == "halfline":
        lower = [0.0]
    else:
        lower = draw(st.lists(st.floats(-100.0, 0.0), min_size=dim, max_size=dim))
    upper = [lo + draw(st.floats(0.5, 100.0)) for lo in lower]
    raw = {
        "equation.regime": regime,
        "domain.kind": kind,
        "domain.upper": _axes(upper),
        "grid.n": draw(st.integers(2, 64) | _per_axis(st.integers(2, 64), dim)),
        "operator.kind": draw(st.sampled_from(
            ["dirichlet_laplacian", "schrodinger"]
            + (["robin_halfline"] if kind == "halfline" else []))),
        "initial.recipe": draw(st.sampled_from(
            ["zero", "gaussian", "eigenmode"]
            + (["scaled_ground_state"] if regime == "subcritical" else []))),
        "integrator.t_max": draw(_positive),
    }
    if draw(st.booleans()):
        raw["equation.nonlinearity"] = draw(st.sampled_from(
            ["source"]
            + (["absorbing"] if raw["initial.recipe"] != "scaled_ground_state" else [])))
    if kind != "halfline" or draw(st.booleans()):
        raw["domain.lower"] = _axes(lower)
    if regime == "subcritical":
        p_max = (dim + 2.0) / (dim - 2.0) if dim >= 3 else 100.0
        raw["equation.p"] = draw(st.floats(1.0, p_max, exclude_min=True, exclude_max=True))
    elif draw(st.booleans()):
        raw["equation.p"] = 5.0
    if raw["operator.kind"] == "schrodinger":
        raw["potential.kind"] = draw(st.sampled_from(["zero", "inverse_power", "gaussian_well"]))
        raw["potential.alpha"] = draw(_positive)
        raw["potential.coupling"] = draw(_nonnegative)
        raw["potential.width"] = draw(_positive)
    if draw(st.booleans()):
        raw["initial.center"] = draw(_per_axis(_number, dim))
    dt_min, dt_init, dt_max = sorted(draw(st.lists(_positive, min_size=3, max_size=3)))
    raw.update({"integrator.dt_min": dt_min, "integrator.dt_init": dt_init,
                "integrator.dt_max": dt_max})
    for key in sorted(_FREE_KEYS):
        if draw(st.booleans()):
            raw[key] = draw(_FREE_KEYS[key])
    if draw(st.booleans()):
        raw["sweep.key"] = draw(st.sampled_from(sorted(_FREE_KEYS)))
        raw["sweep.values"] = draw(st.just("") | _number | st.tuples(_number, _number))
    return raw


def test_generator_covers_every_schema_key():
    assert not set(_FREE_KEYS) & _RULE_KEYS
    assert set(_FREE_KEYS) | _RULE_KEYS == set(_SCHEMA)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(valid_mappings())
def test_echo_round_trip_property(raw):
    cfg = ExperimentConfig.from_mapping(raw)
    echoed = cfg.echo_text()
    again = ExperimentConfig.from_mapping(parse_config_text(echoed))
    assert again == cfg
    assert again.echo_text() == echoed


def test_readme_config_key_list_matches_schema():
    # README's key list, `prefix.{a*,b}` expanded and required marks dropped
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    paragraph = next(
        p for p in readme.read_text(encoding="utf-8").split("\n\n") if p.startswith("Config keys")
    )
    listing = re.split(r"\.\s", paragraph.split(":", 1)[1], maxsplit=1)[0]
    keys = set()
    for span in re.findall(r"`([^`]+)`", listing):
        span = re.sub(r"[\s*]", "", span)
        prefix, brace, names = span.partition(".{")
        if brace:
            keys.update(f"{prefix}.{name}" for name in names.rstrip("}").split(","))
        else:
            keys.add(span)
    assert keys == set(_SCHEMA)

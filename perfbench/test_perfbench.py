"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench

The traced-vs-untraced test runs every workload twice at full size
(about a minute and a half on two cores).
"""

from __future__ import annotations

import inspect
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
from layers import Span, Tracer, aggregate  # noqa: E402


def test_self_time_on_synthetic_nested_spans():
    spans = [
        Span("experiments.run_experiment", -1, 0.0, 10.0),
        Span("evolution.integrate", 0, 1.0, 5.0),
        Span("operators.to_coeffs", 1, 2.0, 2.5, nbytes=8),
        Span("operators.from_coeffs", 1, 3.0, 4.0, nbytes=8),
        Span("variational.energy", 0, 6.0, 8.0),
        Span("operators.to_coeffs", 4, 6.5, 7.0, nbytes=8),
    ]
    agg = aggregate(spans)
    fns, mods = agg["functions"], agg["modules"]
    assert fns["experiments.run_experiment"]["self_s"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert fns["evolution.integrate"]["total_s"] == pytest.approx(4.0)
    assert fns["evolution.integrate"]["self_s"] == pytest.approx(4.0 - 0.5 - 1.0)
    assert fns["variational.energy"]["self_s"] == pytest.approx(1.5)
    assert fns["operators.to_coeffs"]["calls"] == 2
    assert fns["operators.to_coeffs"]["self_s"] == pytest.approx(1.0)
    assert fns["operators.to_coeffs"]["nbytes"] == 16
    assert mods == pytest.approx(
        {"experiments": 4.0, "evolution": 2.5, "operators": 2.0, "variational": 1.5}
    )
    # self times partition the top-level span
    assert sum(mods.values()) == pytest.approx(10.0)
    assert agg["transforms_by_caller"] == {"evolution": 2, "variational": 1}
    n_int, s_int = agg["integrate_transforms"]
    assert n_int == 2 and s_int == pytest.approx(1.5)


def _bindings():
    import importlib

    import heatlab

    names = [heatlab] + [importlib.import_module(f"heatlab.{m}") for m in layers.ALL_MODULES]
    snap = {(ns.__name__, k): v for ns in names for k, v in vars(ns).items()
            if inspect.isfunction(v)}
    cls = heatlab.operators.SpectralOperator
    for attr in layers.TRANSFORMS:
        snap[("SpectralOperator", attr)] = cls.__dict__[attr]
    return snap


def test_wrappers_cover_importers_and_are_removed():
    import heatlab
    from heatlab import cli, experiments, operators, variational

    before = _bindings()
    tracer = Tracer()
    with tracer:
        # a by-name import in another module gets the same wrapper
        assert experiments.assemble is operators.assemble
        assert hasattr(operators.assemble, "__wrapped_original__")
        assert hasattr(cli.run_experiment, "__wrapped_original__")
        assert hasattr(heatlab.ground_state, "__wrapped_original__")
        assert hasattr(operators.SpectralOperator.to_coeffs, "__wrapped_original__")
        grid = heatlab.build_grid(heatlab.DomainSpec.interval(-10.0, 10.0), 64)
        op = heatlab.assemble(heatlab.OperatorSpec(kind="dirichlet_laplacian"), grid)
        variational.ground_state(op, heatlab.EquationMode.subcritical(3.0, 1))
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s.name for s in tracer.spans}
    assert {"operators.assemble", "variational.ground_state", "operators.to_coeffs",
            "operators.from_coeffs"} <= names
    assert all(s.end >= s.start for s in tracer.spans)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    # the metrics a traced repetition computes are exactly the per-layer names
    agg = aggregate([])
    computed = layers.layer_metrics(agg, [], None, 0)
    assert set(computed) | {"trace.overhead_s"} == set(layers.PER_LAYER)


def test_refuses_to_run_without_sources():
    # a directory holding only BENCHMARK.json and the benchmark's own files
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "critical_3d", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_outputs_equal_untraced(workload):
    deadline = time.monotonic() + run.RUN_LIMIT_S
    try:
        plain = run.run_rep(workload, 7, "full", False, deadline)
        traced = run.run_rep(workload, 7, "full", True, deadline)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    assert plain["facts"] == traced["facts"]
    assert plain["energy_residual"] == traced["energy_residual"]
    assert [c[:2] for c in plain["checks"]] == [c[:2] for c in traced["checks"]]
    assert all(ok for _, ok, _ in plain["checks"])
    assert set(traced["layers"]) | {"trace.overhead_s"} == set(layers.PER_LAYER)

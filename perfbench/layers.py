"""Span tracing of heatlab's layers from outside the package.

install() wraps every public function of each traced heatlab module, and
the two coefficient transforms of SpectralOperator, with a timing wrapper.
Modules import each other's functions by name (`from .operators import
assemble`), so a wrapper replaces the original in every heatlab namespace
that binds it, not only in the defining module.  uninstall() puts every
original object back.  Nothing under src/ is edited.

A span is (name, parent, start, end, nbytes).  Spans stay in memory;
aggregate() turns them into per-function call counts, inclusive times and
self times (span time minus the time of its direct child spans), plus
per-module self times.  grids is not traced: field construction and L^p
norms are cheap and count as self time of their callers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field

TRACED_MODULES = (
    "operators",
    "semigroup",
    "variational",
    "evolution",
    "diagnostics",
    "config",
    "experiments",
    "cli",
)
ALL_MODULES = ("grids",) + TRACED_MODULES
TRANSFORMS = ("to_coeffs", "from_coeffs")


@dataclass
class Span:
    name: str  # "<module>.<function>"
    parent: int  # index of the enclosing span, -1 at top level
    start: float
    end: float = 0.0
    nbytes: int = 0  # computed bytes: basis read by a transform, built by assemble


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    trajectories: list = field(default_factory=list)  # every Trajectory integrate returned
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def wrap(self, fn, name: str, measure=None):
        spans, stack = self.spans, self._stack
        keep = self.trajectories if name == "evolution.integrate" else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, stack[-1] if stack else -1, clock())
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if measure is not None:
                span.nbytes = measure(args, out)
            if keep is not None:
                keep.append(out)
            return out

        traced.__wrapped_original__ = fn
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"heatlab.{m}") for m in ALL_MODULES}
        package = importlib.import_module("heatlab")
        wrappers = {}
        for short in TRACED_MODULES:
            mod = modules[short]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    measure = _basis_of_result if obj.__name__ == "assemble" else None
                    wrappers[obj] = self.wrap(obj, f"{short}.{attr}", measure)
        for namespace in (package, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((namespace, attr, obj))
                    setattr(namespace, attr, wrappers[obj])
        cls = modules["operators"].SpectralOperator
        for attr in TRANSFORMS:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(
                cls,
                attr,
                self.wrap(original, f"operators.{attr}", _basis_of_self),
            )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _basis_of_result(args, out) -> int:
    return out.basis.nbytes


def _basis_of_self(args, out) -> int:
    # a dense transform reads the whole N x N basis: N^2 * 8 bytes
    return args[0].basis.nbytes


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


def aggregate(spans) -> dict:
    """Per-function and per-module totals from a list of spans.

    Returns {"functions": {name: {"calls", "total_s", "self_s", "nbytes"}},
    "modules": {module: self_s}, "transforms_by_caller": {module: count},
    "integrate_transforms": (count, seconds) of transforms made inside an
    integrate span}.  A transform's caller is the module of its enclosing
    span ("bench" for a transform the benchmark calls directly).
    """
    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_s[span.parent] += span.end - span.start
    functions: dict = {}
    modules: dict = {}
    by_caller: dict = {}
    n_int, s_int = 0, 0.0
    for i, span in enumerate(spans):
        dur = span.end - span.start
        self_s = dur - child_s[i]
        rec = functions.setdefault(
            span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "nbytes": 0}
        )
        rec["calls"] += 1
        rec["total_s"] += dur
        rec["self_s"] += self_s
        rec["nbytes"] += span.nbytes
        mod = module_of(span.name)
        modules[mod] = modules.get(mod, 0.0) + self_s
        if span.name.split(".", 1)[1] in TRANSFORMS:
            caller = module_of(spans[span.parent].name) if span.parent >= 0 else "bench"
            by_caller[caller] = by_caller.get(caller, 0) + 1
            j = span.parent
            while j >= 0:
                if spans[j].name == "evolution.integrate":
                    n_int += 1
                    s_int += dur
                    break
                j = spans[j].parent
    return {
        "functions": functions,
        "modules": modules,
        "transforms_by_caller": by_caller,
        "integrate_transforms": (n_int, s_int),
    }


# name -> unit of every per-layer metric, in report order
PER_LAYER = {
    "operators.assemble_calls": "count",
    "operators.assemble_s": "s",
    "operators.transform_calls": "count",
    "operators.transform_s": "s",
    "operators.transform_bytes": "B",
    "operators.basis_mb": "MB",
    "operators.self_s": "s",
    "evolution.integrate_calls": "count",
    "evolution.integrate_s": "s",
    "evolution.self_s": "s",
    "evolution.accepted_steps": "count",
    "evolution.rejected_steps": "count",
    "evolution.accept_ratio": "1",
    "evolution.transforms_per_step": "1",
    "evolution.transform_share": "1",
    "evolution.steps_per_s": "1/s",
    "evolution.dt_min": "1",
    "evolution.dt_max": "1",
    "evolution.mass_residual": "1",
    "evolution.energy_residual": "1",
    "variational.ground_state_calls": "count",
    "variational.ground_state_s": "s",
    "variational.constants_s": "s",
    "variational.transforms": "count",
    "variational.sobolev_bound_s": "s",
    "variational.self_s": "s",
    "semigroup.smoothing_norm_calls": "count",
    "semigroup.smoothing_norm_s": "s",
    "semigroup.apply_calls": "count",
    "semigroup.apply_s": "s",
    "semigroup.kernel_column_calls": "count",
    "semigroup.kernel_column_s": "s",
    "semigroup.verify_s": "s",
    "semigroup.self_s": "s",
    "diagnostics.linear_profile_s": "s",
    "diagnostics.concavity_s": "s",
    "diagnostics.verdict_s": "s",
    "diagnostics.self_s": "s",
    "experiments.run_calls": "count",
    "experiments.run_s": "s",
    "experiments.self_s": "s",
    "experiments.artifact_bytes": "B",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(agg: dict, trajectories, evolution, artifact_bytes: int) -> dict:
    """The per-layer metrics of one traced repetition (trace.overhead_s excluded).

    trajectories are the Trajectory objects integrate returned; they must
    have been judged (verdict attached) and carry a sample per accepted step.
    evolution is the heatlab.evolution module, with the tracer removed.
    Metrics of a layer the workload never calls read 0.
    """
    fns = agg["functions"]

    def calls(*names):
        return sum(fns[n]["calls"] for n in names if n in fns)

    def total(*names):
        return sum(fns[n]["total_s"] for n in names if n in fns)

    transforms = tuple(f"operators.{t}" for t in TRANSFORMS)
    accepted = sum(t.accepted for t in trajectories)
    rejected = sum(t.rejected for t in trajectories)
    attempts = accepted + rejected
    n_int, s_int = agg["integrate_transforms"]
    integrate_s = total("evolution.integrate")
    dts = [float(d) for t in trajectories for d in (t.column("t")[1:] - t.column("t")[:-1])]
    mass = [evolution.mass_identity_residual(t) for t in trajectories if len(t.samples) >= 3]
    energy = [
        evolution.energy_identity_residual(t)
        for t in trajectories
        if t.verdict is not None and t.verdict.kind == "Dissipates"
    ]
    mods = agg["modules"]
    return {
        "operators.assemble_calls": calls("operators.assemble"),
        "operators.assemble_s": total("operators.assemble"),
        "operators.transform_calls": calls(*transforms),
        "operators.transform_s": total(*transforms),
        "operators.transform_bytes": sum(fns[n]["nbytes"] for n in transforms if n in fns),
        "operators.basis_mb": fns.get("operators.assemble", {}).get("nbytes", 0) / 1e6,
        "operators.self_s": mods.get("operators", 0.0),
        "evolution.integrate_calls": calls("evolution.integrate"),
        "evolution.integrate_s": integrate_s,
        "evolution.self_s": mods.get("evolution", 0.0),
        "evolution.accepted_steps": accepted,
        "evolution.rejected_steps": rejected,
        "evolution.accept_ratio": accepted / attempts if attempts else 0.0,
        "evolution.transforms_per_step": n_int / attempts if attempts else 0.0,
        "evolution.transform_share": s_int / integrate_s if integrate_s > 0 else 0.0,
        "evolution.steps_per_s": attempts / integrate_s if integrate_s > 0 else 0.0,
        "evolution.dt_min": min(dts) if dts else 0.0,
        "evolution.dt_max": max(dts) if dts else 0.0,
        "evolution.mass_residual": max(mass) if mass else 0.0,
        "evolution.energy_residual": max(energy) if energy else 0.0,
        "variational.ground_state_calls": calls("variational.ground_state"),
        "variational.ground_state_s": total("variational.ground_state"),
        "variational.constants_s": total("variational.mountain_pass_level"),
        "variational.transforms": agg["transforms_by_caller"].get("variational", 0),
        "variational.sobolev_bound_s": total("variational.sobolev_bound_from_semigroup"),
        "variational.self_s": mods.get("variational", 0.0),
        "semigroup.smoothing_norm_calls": calls("semigroup.smoothing_norm_2_to_inf"),
        "semigroup.smoothing_norm_s": total("semigroup.smoothing_norm_2_to_inf"),
        "semigroup.apply_calls": calls("semigroup.apply_semigroup"),
        "semigroup.apply_s": total("semigroup.apply_semigroup"),
        "semigroup.kernel_column_calls": calls("semigroup.heat_kernel_column"),
        "semigroup.kernel_column_s": total("semigroup.heat_kernel_column"),
        "semigroup.verify_s": total(
            "semigroup.verify_l2lq_decay",
            "semigroup.verify_gaussian_bound",
            "semigroup.verify_spacetime",
        ),
        "semigroup.self_s": mods.get("semigroup", 0.0),
        "diagnostics.linear_profile_s": total("diagnostics.linear_profile_smallness"),
        "diagnostics.concavity_s": total("diagnostics.concavity"),
        "diagnostics.verdict_s": total("diagnostics.verdict"),
        "diagnostics.self_s": mods.get("diagnostics", 0.0),
        "experiments.run_calls": calls("experiments.run_experiment"),
        "experiments.run_s": total("experiments.run_experiment"),
        "experiments.self_s": mods.get("experiments", 0.0),
        "experiments.artifact_bytes": artifact_bytes,
        "cli.self_s": mods.get("cli", 0.0),
    }

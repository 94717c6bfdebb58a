"""Config-driven experiment runner.

run_experiment takes a validated ExperimentConfig, assembles the operator,
computes the threshold constants (their ground state is the one every
ground-state recipe scales), builds the initial data, integrates, judges the
run, writes three plain text artifacts into the output directory and
returns the run's summary, the facts of summary.txt as a dict:

  trajectory.csv   one row per recorded sample (columns: _TRAJECTORY_COLUMNS)
  summary.txt      key = value facts about the run
  constants.txt    variational constants plus a config echo

Every file goes through config._write_artifact with values spelled by
config._fmt_value (floats by repr), trajectory.csv through config._fmt_csv
like every other CSV, so a rerun of the same config and seed produces
byte-identical files.  prepare_run alone decides which configs have
threshold constants.  _run_rows, the one runner, integrates rows that
share one setup together in one evolution.integrate_rows call.
run_experiment is one such row; sweep() runs one config key's values in
groups of such rows and aggregates per-run outcomes into sweep.csv, in the
order of the values, capturing per-row failures instead of aborting the axis.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import (
    ConfigError,
    ExperimentConfig,
    _diag_radius,
    _fmt_csv,
    _fmt_pairs,
    _integrator_config,
    _write_artifact,
    build_domain,
    build_mode,
    build_operator_spec,
)
from .diagnostics import concavity, coercivity_check, invariance_check, verdict
from .evolution import (
    Trajectory,
    energy_identity_residual,
    integrate_rows,
    mass_identity_residual,
)
from .grids import Field, build_grid, field_from_function, lp_norm, zero_field
from .operators import SpectralOperator, assemble
from .variational import (
    ConvergenceError,
    VariationalConstants,
    classify,
    _level_from_s,
    mountain_pass_level,
    talenti_constant,
)


def build_operator(cfg: ExperimentConfig) -> SpectralOperator:
    """Assemble the configured operator on the configured grid."""
    return assemble(build_operator_spec(cfg), build_grid(build_domain(cfg), cfg.n))


def make_initial_data(
    cfg: ExperimentConfig,
    op: SpectralOperator,
    consts: Optional[VariationalConstants],
) -> Field:
    """Build the configured initial state on the operator's grid.

    gaussian centers snap to the nearest grid node so the profile peak sits
    on a sample point regardless of resolution.  scaled_ground_state scales
    consts.ground_state.
    """
    grid = op.grid
    if cfg.recipe == "zero":
        return zero_field(grid)
    if cfg.recipe == "gaussian":
        center = np.array(
            [grid.axis_nodes(ax)[np.argmin(np.abs(grid.axis_nodes(ax) - cfg.center[ax]))]
             for ax in range(grid.dim)]
        )
        extent = min(u - l for l, u in zip(grid.domain.lower, grid.domain.upper))
        width = cfg.width if cfg.width is not None else extent / 8.0
        amp = cfg.amplitude

        def profile(x: np.ndarray) -> np.ndarray:
            r_sq = np.sum((x - center) ** 2, axis=-1)
            return amp * np.exp(-r_sq / (2.0 * width * width))

        return field_from_function(grid, profile)
    if cfg.recipe == "scaled_ground_state":
        if consts is None or consts.ground_state is None:
            raise ValueError("ground state is defined for the source nonlinearity only")
        return cfg.lam * consts.ground_state
    # eigenmode
    if cfg.mode_index >= op.n_modes:
        raise ConfigError("initial.k", f"operator has only {op.n_modes} modes")
    return cfg.amplitude * op.eigenvector(cfg.mode_index)


def write_constants(
    out_dir: str, cfg: ExperimentConfig, setup: RunSetup, extra: Optional[dict] = None
) -> None:
    """Write constants.txt: the constants (or their status when there are
    none), the extra key = value facts, then the config echo.

    In the critical regime the constants are followed by the continuum
    S_continuum (talenti_constant) and level_continuum, the level the same
    formula gives for S_continuum (S_continuum^(-d) / d at p = (d + 2)/(d - 2)),
    beside the lattice S and level.
    """
    consts = setup.consts
    if consts is None:
        head = f"# constants: {setup.consts_note}\n"
    else:
        names = ("S", "level", "y_C", "p", "regime", "method")
        facts = [(name, getattr(consts, name)) for name in names]
        if consts.regime == "critical":
            s_cont = talenti_constant(cfg.dim)
            facts += [("S_continuum", s_cont), ("level_continuum", _level_from_s(s_cont, consts.p))]
        head = _fmt_pairs(facts)
    tail = _fmt_pairs((extra or {}).items()) + "\n# --- config echo ---\n" + cfg.echo_text()
    _write_artifact(out_dir, "constants.txt", head + tail)


@dataclass
class RunSetup:
    """The operator, mode and threshold constants a run starts from.

    consts is None on the absorbing nonlinearity or when their solve
    failed; consts_note says which, and consts_error keeps the failure.
    """

    op: SpectralOperator
    mode: EquationMode
    consts: Optional[VariationalConstants]
    consts_note: str
    consts_error: Optional[Exception] = None


def prepare_run(cfg: ExperimentConfig, need: Optional[str] = None) -> RunSetup:
    """Assemble the operator and solve the constants; no initial.* key is read.

    The source nonlinearity has threshold constants, and in the subcritical
    regime a ground state with them; the absorbing one has neither.  need is
    what the caller cannot do without, "constants" or "ground_state": a
    config that rules it out is a ConfigError naming the deciding key,
    raised before anything is assembled, and a failed solve raises instead
    of being noted.
    """
    if need is not None and cfg.nonlinearity != "source":
        raise ConfigError("equation.nonlinearity", "threshold constants need the source sign")
    if need == "ground_state" and cfg.regime != "subcritical":
        raise ConfigError("equation.regime", "the ground state needs the subcritical regime")
    op = build_operator(cfg)
    mode = build_mode(cfg)
    if cfg.nonlinearity != "source":
        return RunSetup(op, mode, None, "not applicable (absorbing nonlinearity)")
    try:
        return RunSetup(op, mode, mountain_pass_level(op, mode), "ok")
    except (ConvergenceError, ValueError) as exc:
        if need is not None:
            raise
        return RunSetup(op, mode, None, f"failed: {exc}", exc)


def run_experiment(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Run one configured experiment, write its artifacts into out_dir and
    return its summary: the facts of summary.txt, in file order.

    The run is _run_rows with one row on its own setup.  A failed constants
    solve is noted in summary.txt, unless the initial data is the ground
    state itself: then the error propagates.  out_dir is created only once
    the run has artifacts to write, so a refused run leaves none behind.
    """
    (outcome,) = _run_rows([cfg], [out_dir], prepare_run(cfg))
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _run_rows(cfgs: list, out_dirs: list, setup: RunSetup) -> list:
    """Run configs that share setup (they differ at most in initial.* keys),
    each into its out_dir, integrating all rows in one integrate_rows call.

    Returns, per row in order, its summary or the exception that ended it;
    one row's failure never touches another.  A failed constants solve ends
    a row whose initial data is the ground state itself.
    """
    outcomes: list = []  # per row: its initial data, then its summary; or its failure
    for cfg in cfgs:
        try:
            if setup.consts_error is not None and cfg.recipe == "scaled_ground_state":
                raise setup.consts_error
            outcomes.append(make_initial_data(cfg, setup.op, setup.consts))
        except Exception as exc:  # per-row capture keeps the other rows alive
            outcomes.append(exc)
    started = [i for i, outcome in enumerate(outcomes) if not isinstance(outcome, Exception)]
    trajs = integrate_rows(
        [outcomes[i] for i in started], setup.op, setup.mode, _integrator_config(cfgs[0])
    )
    for i, traj in zip(started, trajs):
        try:
            outcomes[i] = traj if isinstance(traj, ValueError) else _finish_run(
                cfgs[i], out_dirs[i], setup, outcomes[i], traj
            )
        except Exception as exc:  # per-row capture keeps the other rows alive
            outcomes[i] = exc
    return outcomes


def _finish_run(
    cfg: ExperimentConfig, out_dir: str, setup: RunSetup, u0: Field, traj: Trajectory
) -> dict:
    """Judge an integrated run, write its three artifacts and return its summary."""
    op, mode, consts = setup.op, setup.mode, setup.consts
    v = verdict(traj)

    # summary.txt in file order; a fact whose value is None is left out
    first, last = traj.samples[0], traj.samples[-1]
    facts = [("seed", cfg.seed), ("verdict", v.kind)]
    facts += [(name, getattr(v, name)) for name in ("rate_stat", "T_est", "reason")]
    facts += [(name, getattr(traj, name)) for name in ("end_reason", "t_final", "T_detect")]
    facts += [
        ("accepted_steps", traj.accepted),
        ("rejected_steps", traj.rejected),
        ("samples", len(traj.samples)),
    ]
    for name in ("mass", "energy", "energy_norm"):
        facts += [(f"{name}_initial", getattr(first, name)),
                  (f"{name}_final", getattr(last, name))]
    enough = len(traj.samples) >= 3
    facts += [
        ("sup_final", last.sup),
        ("dissipation_cum", last.dissipation_cum),
        ("s_norm_cum", last.s_norm_cum if mode.regime == "critical" else None),
        ("energy_identity_residual", energy_identity_residual(traj)),
        ("mass_identity_residual", mass_identity_residual(traj) if enough else None),
        ("constants_status", setup.consts_note),
    ]
    if consts is not None:
        facts.append(("classification_initial", classify(u0, op, mode, consts).membership))
        if lp_norm(u0, 2.0) > 0:
            coer = coercivity_check(traj, consts)
            facts += [
                ("delta_hat", coer.delta_hat),
                ("below_y_C", coer.below_y_C),
                ("invariance_ok", invariance_check(traj, consts)),
            ]

    if v.kind == "BlowsUp" and len(traj.samples) >= 5 and mode.sign > 0:
        mass0 = first.mass
        if cfg.diag_A is not None:
            a_val = cfg.diag_A
        else:
            e0 = first.energy
            if consts is not None and e0 < consts.level:
                a_val = 10.0 * max(1.0, mass0 / (consts.level - e0))
            else:
                a_val = 10.0 * max(1.0, mass0)
        try:
            rep = concavity(traj, A=a_val, alpha=cfg.diag_alpha, R=_diag_radius(cfg))
            facts += [(f"concavity_{name}", getattr(rep, name))
                      for name in ("A", "alpha", "R", "margin", "t_tilde")]
        except ValueError as exc:
            facts.append(("concavity_error", str(exc)))
    summary = {key: value for key, value in facts if value is not None}

    _write_artifact(out_dir, "trajectory.csv", _trajectory_csv(traj))
    _write_artifact(out_dir, "summary.txt", _fmt_pairs(summary.items()))
    write_constants(out_dir, cfg, setup)
    return summary


# (trajectory.csv column, TrajectorySample field)
_TRAJECTORY_COLUMNS = (
    ("t", "t"), ("mass", "mass"), ("energy_norm", "energy_norm"), ("E", "energy"),
    ("J", "nehari"), ("lp", "lp"), ("sup", "sup"), ("dissipation_cum", "dissipation_cum"),
    ("s_norm_cum", "s_norm_cum"),
)


def _trajectory_csv(traj: Trajectory) -> str:
    """trajectory.csv: the column header, then one row per recorded sample."""
    header = ",".join(column for column, _ in _TRAJECTORY_COLUMNS)
    rows = ([getattr(s, name) for _, name in _TRAJECTORY_COLUMNS] for s in traj.samples)
    return _fmt_csv(header, rows)


_SWEEP_SUMMARY_KEYS = ("verdict", "T_detect", "t_final", "rate_stat", "concavity_margin")
_SWEEP_COLUMNS = ("index", "value") + _SWEEP_SUMMARY_KEYS + ("error",)
SWEEP_HEADER = ",".join(_SWEEP_COLUMNS)


def _sweep_row(index: int, value, outcome) -> dict:
    """One sweep.csv row from a run's summary or the exception that ended it."""
    row = dict.fromkeys(_SWEEP_COLUMNS, "")
    row["index"], row["value"] = index, value
    if isinstance(outcome, Exception):
        row["error"] = f"{type(outcome).__name__}: {outcome}".replace(",", ";").replace("\n", " ")
    else:
        row.update((key, outcome.get(key, "")) for key in _SWEEP_SUMMARY_KEYS)
    return row


def _sweep_group(job) -> list:
    """The sweep.csv rows of one group of rows that share a setup: job is
    (cfg, out_dir, indices into cfg.sweep_values).  A value that fails its
    override fails its own row; a failed build fails each of the others."""
    cfg, out_dir, indices = job
    outcomes: dict = {}  # per row index: its config, then its summary; or its failure
    for i in indices:
        try:
            outcomes[i] = cfg.with_override(cfg.sweep_key, cfg.sweep_values[i])
        except Exception as exc:  # per-row capture keeps the axis alive
            outcomes[i] = exc
    ready = [i for i in indices if not isinstance(outcomes[i], Exception)]
    if ready:
        subs = [outcomes[i] for i in ready]
        run_dirs = [os.path.join(out_dir, f"run_{i:03d}") for i in ready]
        try:
            outcomes.update(zip(ready, _run_rows(subs, run_dirs, prepare_run(subs[0]))))
        except Exception as exc:  # a failed build (or step loop) fails each row of the group
            outcomes.update((i, exc) for i in ready)
    return [_sweep_row(i, cfg.sweep_values[i], outcomes[i]) for i in indices]


def sweep(cfg: ExperimentConfig, out_dir: str, threads: int = 1) -> list:
    """Run the configured sweep axis, one run per value, aggregate sweep.csv.

    The rows run in groups, each through one _run_rows call on one setup.
    An initial.* axis leaves the operator, mode and constants alone, so it
    splits into min(threads, rows) groups, row i in group i mod groups;
    any other axis runs one row per group.  With threads > 1 the groups
    run in at most threads worker processes.  Every row's artifacts are
    the bytes a standalone run_experiment writes, whatever the grouping.
    """
    if cfg.sweep_key is None:
        raise ConfigError("sweep.key", "sweep requires sweep.key and sweep.values")
    indices = range(len(cfg.sweep_values))
    n_groups = min(threads, len(indices)) if cfg.sweep_key.startswith("initial.") else len(indices)
    jobs = [(cfg, out_dir, indices[g::n_groups]) for g in range(n_groups)]
    if threads > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
            groups = list(pool.map(_sweep_group, jobs))
    else:
        groups = [_sweep_group(job) for job in jobs]
    rows = sorted((row for group in groups for row in group), key=lambda row: row["index"])
    table = ([row[name] for name in _SWEEP_COLUMNS] for row in rows)
    _write_artifact(out_dir, "sweep.csv", _fmt_csv(SWEEP_HEADER, table))
    return rows

"""Config-driven experiment runner.

run_experiment takes a validated ExperimentConfig, assembles the operator,
computes the threshold constants (their ground state is the one every
ground-state recipe scales), builds the initial data, integrates, judges the
run and writes three plain text artifacts into the output directory:

  trajectory.csv   one row per recorded sample
  summary.txt      key = value facts about the run
  constants.txt    variational constants plus a config echo

All floats are written with repr so a rerun of the same config and seed
produces byte-identical files.  sweep() repeats the run over one config key
and aggregates per-run outcomes into sweep.csv, capturing per-row failures
instead of aborting the axis.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .config import ConfigError, ExperimentConfig, _fmt_value
from .diagnostics import concavity, coercivity_check, invariance_check, verdict
from .evolution import (
    CSV_HEADER,
    IntegratorConfig,
    Trajectory,
    energy_identity_residual,
    integrate,
    mass_identity_residual,
    trajectory_rows,
)
from .grids import DomainSpec, Field, Grid, build_grid, field_from_function, lp_norm, zero_field
from .operators import (
    OperatorSpec,
    PotentialSpec,
    SpectralOperator,
    ZERO_POTENTIAL,
    assemble,
)
from .variational import (
    ConvergenceError,
    EquationMode,
    VariationalConstants,
    classify,
    mountain_pass_level,
    talenti_constant,
)


def build_domain(cfg: ExperimentConfig) -> DomainSpec:
    kind = {"interval": "interval", "box": "box", "halfline": "halfline_truncated"}[cfg.domain_kind]
    return DomainSpec(kind=kind, lower=cfg.lower, upper=cfg.upper)


def build_operator(cfg: ExperimentConfig) -> SpectralOperator:
    domain = build_domain(cfg)
    grid = build_grid(domain, cfg.n)
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
    spec = OperatorSpec(kind=cfg.operator_kind, potential=potential, sigma=cfg.sigma)
    return assemble(spec, grid)


def build_mode(cfg: ExperimentConfig) -> EquationMode:
    if cfg.regime == "critical":
        return EquationMode.critical(cfg.dim, nonlinearity=cfg.nonlinearity)
    return EquationMode.subcritical(cfg.p, cfg.dim, nonlinearity=cfg.nonlinearity)


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


def default_cutoff_radius(grid: Grid) -> float:
    """Half the truncation radius: half the smallest distance from the
    domain center to its boundary."""
    return 0.5 * min((u - l) / 2.0 for l, u in zip(grid.domain.lower, grid.domain.upper))


@dataclass
class ExperimentResult:
    cfg: ExperimentConfig
    op: SpectralOperator
    mode: EquationMode
    trajectory: Trajectory
    consts: Optional[VariationalConstants]
    summary: dict


def _integrator_config(cfg: ExperimentConfig, radii: Tuple[float, ...]) -> IntegratorConfig:
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


def write_constants(
    out_dir: str,
    cfg: ExperimentConfig,
    consts: Optional[VariationalConstants],
    status: str = "ok",
    extra: Optional[dict] = None,
) -> None:
    """Write constants.txt: the constants (or their status when there are
    none), the extra key = value facts, then the config echo.

    In the critical regime the constants are followed by the continuum
    S_continuum (talenti_constant) and level_continuum = S_continuum^(-d) / d,
    the level formula at p = (d + 2)/(d - 2), beside the lattice S and level.
    """
    with open(os.path.join(out_dir, "constants.txt"), "w", encoding="utf-8") as fh:
        if consts is not None:
            for key in ("S", "level", "y_C", "p", "regime", "method"):
                fh.write(f"{key} = {_fmt_value(getattr(consts, key))}\n")
            if consts.regime == "critical":
                s_cont = talenti_constant(cfg.dim)
                fh.write(f"S_continuum = {_fmt_value(s_cont)}\n")
                fh.write(f"level_continuum = {_fmt_value(s_cont ** -cfg.dim / cfg.dim)}\n")
        else:
            fh.write(f"# constants: {status}\n")
        for key, value in (extra or {}).items():
            fh.write(f"{key} = {_fmt_value(value)}\n")
        fh.write("\n# --- config echo ---\n")
        fh.write(cfg.echo_text())


@dataclass
class RunSetup:
    """The operator, mode and threshold constants a run starts from.

    consts is None when they were not computed or their solve failed;
    consts_note says which, and consts_error keeps the failure.
    """

    op: SpectralOperator
    mode: EquationMode
    consts: Optional[VariationalConstants]
    consts_note: str
    consts_error: Optional[Exception] = None


def prepare_run(cfg: ExperimentConfig) -> RunSetup:
    """Assemble the operator and solve the constants; no initial.* key is read."""
    op = build_operator(cfg)
    mode = build_mode(cfg)
    if mode.sign < 0:
        return RunSetup(op, mode, None, "not applicable (absorbing nonlinearity)")
    if mode.sign == 0:
        return RunSetup(op, mode, None, "not computed")
    try:
        return RunSetup(op, mode, mountain_pass_level(op, mode), "ok")
    except (ConvergenceError, ValueError) as exc:
        return RunSetup(op, mode, None, f"failed: {exc}", exc)


def run_experiment(
    cfg: ExperimentConfig, out_dir: str, setup: Optional[RunSetup] = None
) -> ExperimentResult:
    """Run one configured experiment and write its artifacts into out_dir.

    setup, when given, must come from prepare_run on a config that differs
    from cfg at most in initial.* keys; by default it is built from cfg.
    A failed constants solve is noted in summary.txt, unless the initial
    data is the ground state itself: then the error propagates.  out_dir is
    created only once the run has artifacts to write, so a refused run
    leaves none behind.
    """
    if setup is None:
        setup = prepare_run(cfg)
    op, mode, consts, consts_note = setup.op, setup.mode, setup.consts, setup.consts_note
    if setup.consts_error is not None and cfg.recipe == "scaled_ground_state":
        raise setup.consts_error
    u0 = make_initial_data(cfg, op, consts)

    radii = cfg.cutoff_radii
    diag_R = cfg.diag_R
    if mode.regime == "critical":
        if diag_R is None:
            diag_R = default_cutoff_radius(op.grid)
        if diag_R not in radii:
            radii = radii + (diag_R,)

    traj = integrate(u0, op, mode, _integrator_config(cfg, radii))
    v = verdict(traj)

    summary: dict = {}
    summary["seed"] = cfg.seed
    summary["verdict"] = v.kind
    if v.rate_stat is not None:
        summary["rate_stat"] = v.rate_stat
    if v.T_est is not None:
        summary["T_est"] = v.T_est
    if v.reason is not None:
        summary["reason"] = v.reason
    summary["end_reason"] = traj.end_reason
    summary["t_final"] = traj.t_final
    if traj.T_detect is not None:
        summary["T_detect"] = traj.T_detect
    summary["accepted_steps"] = traj.accepted
    summary["rejected_steps"] = traj.rejected
    summary["samples"] = len(traj.samples)

    first, last = traj.samples[0], traj.samples[-1]
    summary["mass_initial"] = first.mass
    summary["mass_final"] = last.mass
    summary["energy_initial"] = first.energy
    summary["energy_final"] = last.energy
    summary["energy_norm_initial"] = first.energy_norm
    summary["energy_norm_final"] = last.energy_norm
    summary["sup_final"] = last.sup
    summary["dissipation_cum"] = last.dissipation_cum
    if mode.regime == "critical":
        summary["s_norm_cum"] = last.s_norm_cum

    summary["energy_identity_residual"] = energy_identity_residual(traj)
    if len(traj.samples) >= 3:
        summary["mass_identity_residual"] = mass_identity_residual(traj)

    summary["constants_status"] = consts_note
    if consts is not None:
        summary["classification_initial"] = classify(u0, op, mode, consts).membership
        if lp_norm(u0, 2.0) > 0:
            coer = coercivity_check(traj, consts)
            summary["delta_hat"] = coer.delta_hat
            summary["below_y_C"] = coer.below_y_C
            summary["invariance_ok"] = invariance_check(traj, consts)

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
            rep = concavity(traj, A=a_val, alpha=cfg.diag_alpha, R=diag_R)
            summary["concavity_A"] = rep.A
            summary["concavity_alpha"] = rep.alpha
            if rep.R is not None:
                summary["concavity_R"] = rep.R
            summary["concavity_margin"] = rep.margin
            summary["concavity_t_tilde"] = rep.t_tilde
        except ValueError as exc:
            summary["concavity_error"] = str(exc)

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "trajectory.csv"), "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in trajectory_rows(traj):
            fh.write(row + "\n")

    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
        for key, value in summary.items():
            fh.write(f"{key} = {_fmt_value(value)}\n")

    write_constants(out_dir, cfg, consts, consts_note)

    return ExperimentResult(cfg=cfg, op=op, mode=mode, trajectory=traj, consts=consts, summary=summary)


_SWEEP_SUMMARY_KEYS = ("verdict", "T_detect", "t_final", "rate_stat", "concavity_margin")
SWEEP_HEADER = ",".join(("index", "value") + _SWEEP_SUMMARY_KEYS + ("error",))


def _sweep_worker(args) -> dict:
    cfg, value, run_dir, index, setup = args
    row = dict.fromkeys(SWEEP_HEADER.split(","), "")
    row["index"], row["value"] = index, value
    try:
        sub = cfg.with_override(cfg.sweep_key, value)
        result = run_experiment(sub, run_dir, setup)
        for key in _SWEEP_SUMMARY_KEYS:
            row[key] = result.summary.get(key, "")
    except Exception as exc:  # per-row capture keeps the axis alive
        row["error"] = f"{type(exc).__name__}: {exc}".replace(",", ";").replace("\n", " ")
    return row


def sweep(cfg: ExperimentConfig, out_dir: str, threads: int = 1) -> list:
    """Run the configured sweep axis, one run per value, aggregate sweep.csv.

    A serial sweep over an initial.* key builds the operator, mode and
    constants once and hands them to every row; a parallel sweep, or one
    whose shared build fails, builds them per row.
    """
    if cfg.sweep_key is None:
        raise ConfigError("sweep.key", "sweep requires sweep.key and sweep.values")
    os.makedirs(out_dir, exist_ok=True)
    parallel = threads > 1 and len(cfg.sweep_values) > 1
    setup = None
    if not parallel and cfg.sweep_values and cfg.sweep_key.startswith("initial."):
        try:
            setup = prepare_run(cfg)
        except Exception:  # every row rebuilds and records the error itself
            setup = None
    jobs = [
        (cfg, value, os.path.join(out_dir, f"run_{i:03d}"), i, setup)
        for i, value in enumerate(cfg.sweep_values)
    ]
    if parallel:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(_sweep_worker, jobs))
    else:
        rows = [_sweep_worker(job) for job in jobs]
    rows.sort(key=lambda r: r["index"])
    with open(os.path.join(out_dir, "sweep.csv"), "w", encoding="utf-8") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for row in rows:
            cells = [str(row[name]) if not isinstance(row[name], float) else repr(row[name])
                     for name in SWEEP_HEADER.split(",")]
            fh.write(",".join(cells) + "\n")
    return rows

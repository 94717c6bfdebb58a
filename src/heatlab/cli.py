"""Command line front end.

Subcommands:

  solve        run one configured experiment, write trajectory/summary/constants
  ground-state compute the positive ground state and variational constants
  classify     classify the configured initial data against the thresholds
  verify       run the semigroup estimate verifiers, write verification.csv
  sweep        repeat solve over one config axis, aggregate sweep.csv

Exit codes: 0 on success (a BlowsUp verdict is a successful run), 2 on
configuration errors (the message names the offending key), 1 on anything
else.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional

import numpy as np

from .config import ConfigError, ExperimentConfig, _fmt_value, load_experiment_config
from .experiments import (
    build_mode,
    build_operator,
    make_initial_data,
    run_experiment,
    sweep,
    write_constants,
)
from .semigroup import (
    EstimateSpec,
    _spectral_gap,
    verify_gaussian_bound,
    verify_l2lq_decay,
    verify_spacetime,
)
from .variational import ConvergenceError, classify, energy, mountain_pass_level

VERIFY_HEADER = "operator,estimate,slope,target,prefactor,pass"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatlab",
        description="numerical laboratory for semilinear heat flows with spectral operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, needs_out: bool):
        sp.add_argument("config", help="path to a key = value config file")
        if needs_out:
            sp.add_argument("--out", required=True, help="output directory")
        else:
            sp.add_argument("--out", default=None, help="optional output directory")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")

    sp = sub.add_parser("solve", help="integrate one configured run")
    add_common(sp, needs_out=True)

    sp = sub.add_parser("ground-state", help="compute the ground state and constants")
    add_common(sp, needs_out=True)

    sp = sub.add_parser("classify", help="classify the configured initial data")
    add_common(sp, needs_out=False)

    sp = sub.add_parser("verify", help="run semigroup estimate verifiers")
    add_common(sp, needs_out=True)

    sp = sub.add_parser("sweep", help="run a one-axis parameter sweep")
    add_common(sp, needs_out=True)
    sp.add_argument("--threads", type=int, default=1, help="parallel worker processes")

    return parser


def _cmd_solve(cfg: ExperimentConfig, out: str) -> int:
    result = run_experiment(cfg, out)
    print(f"verdict = {result.summary['verdict']}")
    print(f"t_final = {_fmt_value(result.summary['t_final'])}")
    if "T_detect" in result.summary:
        print(f"T_detect = {_fmt_value(result.summary['T_detect'])}")
    print(f"wrote {os.path.join(out, 'trajectory.csv')}")
    return 0


def _cmd_ground_state(cfg: ExperimentConfig, out: str) -> int:
    op = build_operator(cfg)
    mode = build_mode(cfg)
    consts = mountain_pass_level(op, mode, method="nehari_inf")
    phi = consts.ground_state
    rep = energy(phi, op, mode)

    coords = op.grid.coords()
    header = ",".join(f"x{ax}" for ax in range(op.grid.dim)) + ",u"
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "profile.csv"), "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row, val in zip(coords, phi.values):
            fh.write(",".join(repr(float(c)) for c in row) + "," + repr(float(val)) + "\n")
    extra = {"ground_state_energy": rep.energy, "ground_state_energy_norm": rep.energy_norm}
    write_constants(out, cfg, consts, extra=extra)
    print(f"level = {_fmt_value(consts.level)}")
    print(f"S = {_fmt_value(consts.S)}")
    print(f"ground state energy = {_fmt_value(rep.energy)}")
    return 0


def _cmd_classify(cfg: ExperimentConfig, out: Optional[str]) -> int:
    op = build_operator(cfg)
    mode = build_mode(cfg)
    if mode.sign <= 0:
        raise ConfigError(
            "equation.nonlinearity", "classification thresholds need the source sign"
        )
    consts = mountain_pass_level(op, mode)
    u0 = make_initial_data(cfg, op, consts)
    rep = classify(u0, op, mode, consts)
    lines = [
        f"membership = {rep.membership}",
        f"borderline = {_fmt_value(rep.borderline)}",
        f"energy = {_fmt_value(rep.energy)}",
        f"nehari = {_fmt_value(rep.nehari)}",
        f"energy_norm = {_fmt_value(rep.energy_norm)}",
        f"level = {_fmt_value(consts.level)}",
        f"y_C = {_fmt_value(consts.y_C)}",
    ]
    if rep.note:
        lines.append(f"note = {rep.note}")
    for line in lines:
        print(line)
    if out is not None:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "classification.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def _cmd_verify(cfg: ExperimentConfig, out: str) -> int:
    op = build_operator(cfg)
    shifted = op.assumption_class == "A"
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for r_exp, name in ((2.0, "l2_to_l2_decay"), (math.inf, "l2_to_linf_decay")):
        rep = verify_l2lq_decay(op, EstimateSpec(r=r_exp), shifted=shifted, rng=rng)
        rows.append(
            (op.spec.kind, name, rep.slope, rep.target_slope, rep.prefactor, rep.passed)
        )
    if _spectral_gap(op):
        probe = op.eigenvector(0) + op.eigenvector(min(1, op.n_modes - 1))
        ratio = verify_spacetime(op, probe)
        target = 1.0 / math.sqrt(2.0)
        rows.append(
            (
                op.spec.kind,
                "spacetime_identity",
                ratio,
                target,
                1.0,
                bool(abs(ratio - target) <= 1e-8),
            )
        )
    extent = min(u - l for l, u in zip(op.grid.domain.lower, op.grid.domain.upper))
    t_diff = (extent / 8.0) ** 2
    times = np.geomspace(0.01 * t_diff, t_diff, 5)
    gauss = verify_gaussian_bound(op, times)
    rows.append(
        (
            op.spec.kind,
            "gaussian_kernel_bound",
            gauss.max_violation,
            1.0,
            gauss.C,
            bool(gauss.max_violation <= 1.05),
        )
    )
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "verification.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(VERIFY_HEADER + "\n")
        for kind, name, slope, target, prefactor, passed in rows:
            fh.write(
                f"{kind},{name},{repr(float(slope))},{repr(float(target))},"
                f"{repr(float(prefactor))},{_fmt_value(bool(passed))}\n"
            )
    n_pass = sum(1 for row in rows if row[5])
    print(f"{n_pass}/{len(rows)} estimates passed; wrote {path}")
    return 0


def _cmd_sweep(cfg: ExperimentConfig, out: str, threads: int) -> int:
    rows = sweep(cfg, out, threads=threads)
    n_err = sum(1 for row in rows if row["error"])
    print(f"swept {len(rows)} runs ({n_err} failed); wrote {os.path.join(out, 'sweep.csv')}")
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_experiment_config(args.config)
        if args.seed is not None:
            cfg = cfg.with_override("seed", args.seed)
        if args.command == "solve":
            return _cmd_solve(cfg, args.out)
        if args.command == "ground-state":
            return _cmd_ground_state(cfg, args.out)
        if args.command == "classify":
            return _cmd_classify(cfg, args.out)
        if args.command == "verify":
            return _cmd_verify(cfg, args.out)
        if args.command == "sweep":
            return _cmd_sweep(cfg, args.out, args.threads)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

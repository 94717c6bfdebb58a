"""Command line front end.

Subcommands, the files each writes into --out, and its exit codes:

  solve        one configured run: trajectory.csv, summary.txt,
               constants.txt; 0, or 1 when the run is refused (say, the
               initial state overflows)
  ground-state the positive ground state and its constants: profile.csv,
               constants.txt; 2 unless the config is subcritical with the
               source nonlinearity
  classify     the configured initial data against the thresholds:
               classification.txt (only with --out); 2 on the absorbing
               nonlinearity
  verify       the semigroup estimate verifiers: verification.csv
  sweep        solve once per value of one config key: sweep.csv plus one
               run_NNN/ directory per value; a failed row is recorded in
               the error column, not in the exit code

Every command exits 0 on success (a BlowsUp verdict is a successful run),
2 on configuration errors, a missing config file or a bad command line
(the message names the offending key or option), 1 on anything else.

Artifacts are plain text: `key = value` lines (summary.txt, constants.txt,
classification.txt) or CSV with one header line (the .csv files).  Floats
are written by repr, booleans as true/false, so a rerun of the same config
and seed writes the same bytes.  constants.txt ends with the validated
config, echoed in the config file format.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional

import numpy as np

from .config import (
    ConfigError,
    ExperimentConfig,
    _fmt_csv,
    _fmt_pairs,
    _write_artifact,
    load_experiment_config,
)
from .experiments import (
    build_operator,
    make_initial_data,
    prepare_run,
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
from .variational import ConvergenceError, classify, energy

VERIFY_HEADER = "operator,estimate,slope,target,prefactor,pass"


def _cmd_solve(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    summary = run_experiment(cfg, args.out)
    keys = [key for key in ("verdict", "t_final", "T_detect") if key in summary]
    print(_fmt_pairs((key, summary[key]) for key in keys), end="")
    print(f"wrote {os.path.join(args.out, 'trajectory.csv')}")
    return 0


def _cmd_ground_state(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    setup = prepare_run(cfg, need="ground_state")
    op, consts = setup.op, setup.consts
    phi = consts.ground_state
    rep = energy(phi, op, setup.mode)

    header = ",".join(f"x{ax}" for ax in range(op.grid.dim)) + ",u"
    rows = ((*coords, val) for coords, val in zip(op.grid.coords(), phi.values))
    _write_artifact(args.out, "profile.csv", _fmt_csv(header, rows))
    extra = {"ground_state_energy": rep.energy, "ground_state_energy_norm": rep.energy_norm}
    write_constants(args.out, cfg, setup, extra=extra)
    facts = [("level", consts.level), ("S", consts.S), ("ground state energy", rep.energy)]
    print(_fmt_pairs(facts), end="")
    return 0


def _cmd_classify(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    setup = prepare_run(cfg, need="constants")
    consts = setup.consts
    u0 = make_initial_data(cfg, setup.op, consts)
    rep = classify(u0, setup.op, setup.mode, consts)
    facts = [(name, getattr(rep, name))
             for name in ("membership", "borderline", "energy", "nehari", "energy_norm")]
    facts += [("level", consts.level), ("y_C", consts.y_C)]
    if rep.note:
        facts.append(("note", rep.note))
    text = _fmt_pairs(facts)
    print(text, end="")
    if args.out is not None:
        _write_artifact(args.out, "classification.txt", text)
    return 0


def _cmd_verify(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
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
    path = _write_artifact(args.out, "verification.csv", _fmt_csv(VERIFY_HEADER, rows))
    n_pass = sum(1 for row in rows if row[5])
    print(f"{n_pass}/{len(rows)} estimates passed; wrote {path}")
    return 0


def _cmd_sweep(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    rows = sweep(cfg, args.out, threads=args.threads)
    n_err = sum(1 for row in rows if row["error"])
    print(f"swept {len(rows)} runs ({n_err} failed); wrote {os.path.join(args.out, 'sweep.csv')}")
    return 0


# subcommand -> (handler, help); only classify runs without --out
_COMMANDS = {
    "solve": (_cmd_solve, "integrate one configured run"),
    "ground-state": (_cmd_ground_state, "compute the ground state and constants"),
    "classify": (_cmd_classify, "classify the configured initial data"),
    "verify": (_cmd_verify, "run semigroup estimate verifiers"),
    "sweep": (_cmd_sweep, "run a one-axis parameter sweep"),
}


def _worker_count(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatlab",
        description="numerical laboratory for semilinear heat flows with spectral operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("config", help="path to a key = value config file")
        if name == "classify":
            sp.add_argument("--out", default=None, help="optional output directory")
        else:
            sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.choices["sweep"].add_argument(
        "--threads", type=_worker_count, default=1, help="parallel worker processes"
    )
    return parser


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    handler, _ = _COMMANDS[args.command]
    try:
        cfg = load_experiment_config(args.config)
        if args.seed is not None:
            cfg = cfg.with_override("seed", args.seed)
        return handler(cfg, args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

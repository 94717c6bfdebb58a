"""The three benchmark workloads and their output checks.

Each workload is a pair setup(ctx) -> state, solve(ctx, state) -> Outcome.
Everything heatlab is reached through module attributes at call time
(`hl.operators.assemble`, never a name bound at import), so the tracer's
wrappers see every call.  A failed check is recorded, never raised.

  dichotomy_sweep_1d  the CLI path: `ground-state` (setup) then
                      `sweep --threads 1` over initial.lambda (solve)
  critical_3d         acceptance-8 protocol on (-5, 5)^3 at 13^3: small
                      bump run + linear-profile bound, M- run + concavity
  certify_potentials  operator certification, no time stepping: a 1-d
                      Gaussian well at n = 3200 and the 3-d Hardy-critical
                      inverse-square potential at 12^3
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional

import numpy as np

# the acceptance bars the checks use
ENERGY_BAR = 1e-3
MASS_BAR = 1e-2
GAUSS_BAR = 1.05
LEVEL_ROUTES_REL = 1e-9


@dataclass
class Outcome:
    checks: list = field(default_factory=list)  # [name, ok, detail]
    facts: dict = field(default_factory=dict)  # deterministic outputs
    energy_residual: Optional[float] = None
    artifact_bytes: int = 0

    def check(self, name: str, fn) -> None:
        """Evaluate one output check; an exception counts as a failure."""
        try:
            ok, detail = fn()
        except Exception as exc:  # a broken check is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.checks.append([name, bool(ok), str(detail)])


def heatlab_modules():
    import importlib

    names = ("grids", "operators", "semigroup", "variational", "evolution",
             "diagnostics", "experiments", "cli")
    return SimpleNamespace(**{n: importlib.import_module(f"heatlab.{n}") for n in names})


# --------------------------------------------------------------------------
# dichotomy_sweep_1d

SWEEP_LAMBDAS = (0.5, 0.9, 1.1, 1.5)

DICHOTOMY_CONFIG = """\
equation.regime = subcritical
equation.p = 3.0
domain.kind = interval
domain.lower = -20.0
domain.upper = 20.0
grid.n = 1600
operator.kind = dirichlet_laplacian
initial.recipe = scaled_ground_state
integrator.t_max = 40.0
integrator.sup_cap = 10000.0
sweep.key = initial.lambda
sweep.values = {values}
seed = {seed}
"""


def _read_kv(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if " = " in line and not line.startswith("#"):
                key, _, value = line.rstrip("\n").partition(" = ")
                out[key] = value
    return out


def _digest(root: str) -> tuple[str, int]:
    """sha256 over every file under root (sorted paths) and their total size."""
    h = hashlib.sha256()
    total = 0
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(os.path.relpath(path, root).encode() + b"\0" + data)
            total += len(data)
    return h.hexdigest(), total


def dichotomy_setup(ctx):
    cfg_path = os.path.join(ctx.workdir, "dichotomy.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(DICHOTOMY_CONFIG.format(
            values=", ".join(repr(v) for v in SWEEP_LAMBDAS), seed=ctx.seed))
    out = os.path.join(ctx.workdir, "ground_state")
    code = ctx.hl.cli.main(["ground-state", cfg_path, "--out", out])
    return {"cfg": cfg_path, "gs_out": out, "gs_code": code}


def dichotomy_solve(ctx, state) -> Outcome:
    out = os.path.join(ctx.workdir, "sweep")
    code = ctx.hl.cli.main(["sweep", state["cfg"], "--out", out, "--threads", "1"])
    res = Outcome()
    consts = _read_kv(os.path.join(state["gs_out"], "constants.txt"))
    res.check("cli_exit_codes", lambda: (state["gs_code"] == 0 and code == 0,
                                         f"ground-state {state['gs_code']}, sweep {code}"))
    res.check("level_within_1pct_of_4/3",
              lambda: (abs(float(consts["level"]) - 4.0 / 3.0) <= 0.01 * 4.0 / 3.0,
                       f"level {consts.get('level')}"))

    with open(os.path.join(out, "sweep.csv"), encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [dict(zip(header, line.rstrip("\n").split(","))) for line in fh]
    res.check("sweep_rows", lambda: (len(rows) == len(SWEEP_LAMBDAS), f"{len(rows)} rows"))
    summaries = []
    dissipating_residuals = []
    for i, row in enumerate(rows):
        lam = float(row["value"])
        res.check(f"row{i}_no_error", lambda row=row: (row["error"] == "", row["error"] or "ok"))
        if lam < 1.0:
            res.check(f"lambda={lam}_dissipates",
                      lambda row=row: (row["verdict"] == "Dissipates"
                                       and float(row["rate_stat"]) < 1.0,
                                       f"{row['verdict']} rate_stat {row['rate_stat']}"))
        else:
            res.check(f"lambda={lam}_blows_up",
                      lambda row=row: (row["verdict"] == "BlowsUp"
                                       and float(row["concavity_margin"]) > 0.0,
                                       f"{row['verdict']} margin {row['concavity_margin']}"))
        summ = _read_kv(os.path.join(out, f"run_{i:03d}", "summary.txt"))
        summaries.append(summ)
        m_res = float(summ["mass_identity_residual"])
        res.check(f"lambda={lam}_mass_identity",
                  lambda m=m_res: (m <= MASS_BAR, f"mass residual {m:.2e}"))
        # the energy identity is an acceptance bar for dissipating runs only:
        # E(t) itself explodes on a blow-up run
        if summ["verdict"] == "Dissipates":
            e_res = float(summ["energy_identity_residual"])
            dissipating_residuals.append(e_res)
            res.check(f"lambda={lam}_energy_identity",
                      lambda e=e_res: (e <= ENERGY_BAR, f"energy residual {e:.2e}"))
    if dissipating_residuals:
        res.energy_residual = max(dissipating_residuals)

    keys = ("verdict", "T_detect", "end_reason", "accepted_steps", "rejected_steps",
            "rate_stat", "concavity_margin", "energy_identity_residual",
            "mass_identity_residual")
    res.facts = {
        "level": consts["level"],
        "S": consts["S"],
        "runs": [{k: s.get(k) for k in keys} for s in summaries],
    }
    gs_digest, gs_bytes = _digest(state["gs_out"])
    sw_digest, sw_bytes = _digest(out)
    res.facts["artifact_sha256"] = [gs_digest, sw_digest]
    res.artifact_bytes = gs_bytes + sw_bytes
    return res


# --------------------------------------------------------------------------
# critical_3d

def critical_setup(ctx):
    hl = ctx.hl
    grid = hl.grids.build_grid(hl.grids.DomainSpec.box((-5.0,) * 3, (5.0,) * 3), 13)
    op = hl.operators.assemble(hl.operators.OperatorSpec(kind="dirichlet_laplacian"), grid)
    mode = hl.variational.EquationMode.critical(3)
    consts = hl.variational.mountain_pass_level(op, mode)  # Sobolev route
    return {"op": op, "mode": mode, "consts": consts}


def critical_solve(ctx, state) -> Outcome:
    hl = ctx.hl
    op, mode, consts = state["op"], state["mode"], state["consts"]
    ev, dg, va = hl.evolution, hl.diagnostics, hl.variational
    bump = hl.grids.field_from_function(
        op.grid, lambda x: np.exp(-np.sum(x**2, axis=-1) / 2.0))

    small_u0 = 0.3 * bump
    small = ev.integrate(small_u0, op, mode, ev.IntegratorConfig(t_max=30.0))
    small_v = dg.verdict(small)
    linear = dg.linear_profile_smallness(small_u0, op, mode)

    # M- datum: the Nehari projection pushed past the peak until E <= 0.9 level
    proj = va.nehari_projection(bump, op, mode)
    u_minus = None
    for s in np.arange(1.05, 2.0, 0.01):
        cand = s * proj.projected
        if va.energy(cand, op, mode).energy <= 0.9 * consts.level:
            u_minus = cand
            break
    res = Outcome()
    res.check("Mminus_datum_found", lambda: (u_minus is not None, "scaling in [1.05, 2)"))
    if u_minus is None:
        return res
    membership = va.classify(u_minus, op, mode, consts).membership
    minus = ev.integrate(u_minus, op, mode,
                         ev.IntegratorConfig(t_max=30.0, cutoff_radii=(2.5,)))
    minus_v = dg.verdict(minus)
    e0 = minus.samples[0].energy
    a_const = 10.0 * max(1.0, minus.samples[0].mass / max(consts.level - e0, 1e-12))
    conc = dg.concavity(minus, A=a_const, alpha=0.1, R=2.5)

    s_cum = small.samples[-1].s_norm_cum
    res.check("small_dissipates_within_linear_bound",
              lambda: (small_v.kind == "Dissipates" and math.isfinite(s_cum)
                       and s_cum <= 2.0 * linear,
                       f"{small_v.kind} s_norm {s_cum!r} vs 2 x {linear!r}"))
    res.check("Mminus_membership", lambda: (membership == "Mminus", membership))
    res.check("Mminus_blows_up_with_concavity",
              lambda: (minus_v.kind == "BlowsUp" and conc.margin > 0.0,
                       f"{minus_v.kind} margin {conc.margin!r}"))
    res.energy_residual = ev.energy_identity_residual(small)
    res.facts = {
        "S": repr(consts.S),
        "level": repr(consts.level),
        "linear_bound": repr(linear),
        "membership": membership,
        "concavity_margin": repr(conc.margin),
        "runs": [
            {
                "verdict": t.verdict.kind,
                "end_reason": t.end_reason,
                "T_detect": repr(t.T_detect),
                "accepted": t.accepted,
                "rejected": t.rejected,
                "s_norm_cum": repr(t.samples[-1].s_norm_cum),
                "energy_residual": repr(ev.energy_identity_residual(t)),
                "mass_residual": repr(ev.mass_identity_residual(t)),
            }
            for t in (small, minus)
        ],
    }
    return res


# --------------------------------------------------------------------------
# certify_potentials

def _gaussian_well(x: np.ndarray) -> np.ndarray:
    return -2.0 * np.exp(-np.sum(x * x, axis=-1))


def certify_setup(ctx):
    hl = ctx.hl
    ops, va = hl.operators, hl.variational
    g1 = hl.grids.build_grid(hl.grids.DomainSpec.interval(-20.0, 20.0), 3200)
    well = ops.assemble(ops.OperatorSpec(
        kind="schrodinger",
        potential=ops.PotentialSpec(kind="tabulated_bounded", fn=_gaussian_well, sign=-1)), g1)
    mode1 = va.EquationMode.subcritical(3.0, 1)
    nehari = va.mountain_pass_level(well, mode1, method="nehari_inf")
    sobolev = va.mountain_pass_level(well, mode1, method="sobolev_formula")
    # even n keeps every node off the singular origin
    g3 = hl.grids.build_grid(hl.grids.DomainSpec.box((-5.0,) * 3, (5.0,) * 3), 12)
    hardy = ops.assemble(ops.OperatorSpec(
        kind="schrodinger",
        potential=ops.PotentialSpec(kind="inverse_power", alpha=2.0, coupling=0.25, sign=-1)),
        g3)
    crit = va.mountain_pass_level(hardy, va.EquationMode.critical(3))
    return {"well": well, "mode1": mode1, "nehari": nehari, "sobolev": sobolev,
            "hardy": hardy, "crit": crit}


def certify_solve(ctx, state) -> Outcome:
    hl = ctx.hl
    sg, va = hl.semigroup, hl.variational
    rng = np.random.default_rng(ctx.seed)
    well, nehari, sobolev = state["well"], state["nehari"], state["sobolev"]
    bound = va.sobolev_bound_from_semigroup(well, state["mode1"])
    res = Outcome()
    facts = {"S_nehari": repr(nehari.S), "S_sobolev": repr(sobolev.S),
             "level_nehari": repr(nehari.level), "level_sobolev": repr(sobolev.level),
             "S_bound": repr(bound), "S_critical": repr(state["crit"].S),
             "level_critical": repr(state["crit"].level)}
    for label, op in (("well_1d", well), ("hardy_3d", state["hardy"])):
        shifted = op.assumption_class == "A"  # as `heatlab verify` sets it
        res.check(f"{label}_class_A", lambda op=op: (op.assumption_class == "A",
                                                    op.assumption_class))
        for r_exp in (2.0, math.inf):
            rep = sg.verify_l2lq_decay(op, sg.EstimateSpec(r=r_exp), shifted=shifted, rng=rng)
            res.check(f"{label}_decay_r={r_exp}",
                      lambda rep=rep: (rep.passed, f"slope {rep.slope:.4f} "
                                       f"target {rep.target_slope:.4f}"))
            facts[f"{label}_decay_r={r_exp}"] = [repr(rep.slope), repr(rep.prefactor),
                                                 rep.passed]
        extent = min(u - l for l, u in zip(op.grid.domain.lower, op.grid.domain.upper))
        t_diff = (extent / 8.0) ** 2
        gauss = sg.verify_gaussian_bound(op, np.geomspace(0.01 * t_diff, t_diff, 5))
        res.check(f"{label}_gaussian_bound",
                  lambda g=gauss: (g.max_violation <= GAUSS_BAR,
                                   f"max_violation {g.max_violation!r}"))
        facts[f"{label}_gauss"] = [repr(gauss.max_violation), repr(gauss.C), repr(gauss.c),
                                   gauss.n_samples]
    res.check("level_routes_agree",
              lambda: (abs(nehari.level - sobolev.level)
                       <= LEVEL_ROUTES_REL * abs(nehari.level),
                       f"{nehari.level!r} vs {sobolev.level!r}"))
    res.check("S_below_semigroup_bound", lambda: (nehari.S <= bound, f"{nehari.S!r} <= {bound!r}"))
    res.facts = facts
    return res


WORKLOADS = {
    "dichotomy_sweep_1d": (dichotomy_setup, dichotomy_solve),
    "critical_3d": (critical_setup, critical_solve),
    "certify_potentials": (certify_setup, certify_solve),
}

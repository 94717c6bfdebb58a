"""The dissipation / blow-up dichotomy along the ground-state ray.

Initial data lambda * phi with lambda < 1 lands in the stable set and the
flow dissipates; lambda > 1 lands in the unstable set and the flow blows
up in finite time.  The sweep below runs both sides at a resolution that
finishes in well under a minute.
"""

import heatlab
from heatlab.diagnostics import concavity, verdict
from heatlab.evolution import IntegratorConfig, integrate_rows
from heatlab.variational import EquationMode, mountain_pass_level

grid = heatlab.build_grid(heatlab.DomainSpec.interval(-20.0, 20.0), 400)
op = heatlab.assemble(heatlab.OperatorSpec(kind="dirichlet_laplacian"), grid)
mode = EquationMode.subcritical(3.0, 1)
consts = mountain_pass_level(op, mode)
phi = consts.ground_state

# each side of the threshold is one stack of rows, integrated in lockstep
lams = (0.5, 0.9, 0.99, 1.01, 1.1, 1.5)
trajs = {}
below, above = [lam for lam in lams if lam < 1], [lam for lam in lams if lam > 1]
for side, t_max in ((below, 10.0), (above, 60.0)):
    cfg = IntegratorConfig(t_max=t_max, blowup_sup_cap=1e4)
    trajs.update(zip(side, integrate_rows([lam * phi for lam in side], op, mode, cfg)))

print(f"level = {consts.level:.6f}, sweeping lambda over the ray\n")
print("lam   verdict      detail")
for lam in lams:
    traj = trajs[lam]
    v = verdict(traj)
    if v.kind == "BlowsUp":
        e0 = traj.samples[0].energy
        A = 10.0 * max(1.0, traj.samples[0].mass / max(consts.level - e0, 1e-12))
        rep = concavity(traj, A=A, alpha=0.1)
        detail = (f"T_detect = {traj.T_detect:.4f}, concavity margin "
                  f"{rep.margin:.2e} > 0, bound t_tilde = {rep.t_tilde:.1f}")
    elif v.kind == "Dissipates":
        detail = f"rate statistic {v.rate_stat:.3f} < 1 (decay faster than t^-1/2)"
    else:
        detail = v.reason
    print(f"{lam:4.2f}  {v.kind:<11}  {detail}")

print()
print("the borderline cases 0.99 / 1.01 sit close to the ground state, where")
print("the flow lingers before committing; push t_max up to see them resolve")

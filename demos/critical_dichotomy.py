"""Energy-critical dichotomy in three dimensions.

The critical equation (p = 5, d = 3) drops the mass term and works with
the homogeneous energy norm.  Small data dissipates with a finite critical
space-time norm; data pushed past the mountain pass into the unstable set
blows up, detected through the spatially cut-off concavity functional.
Runs on a deliberately coarse box grid so the whole script stays under
ten seconds.
"""

import numpy as np

import heatlab
from heatlab.diagnostics import (
    concavity,
    linear_profile_smallness,
    verdict,
)
from heatlab.evolution import IntegratorConfig, integrate
from heatlab.variational import (
    EquationMode,
    classify,
    energy,
    mountain_pass_level,
    nehari_projection,
    talenti_constant,
)

grid = heatlab.build_grid(heatlab.DomainSpec.box((-5.0,) * 3, (5.0,) * 3), 11)
op = heatlab.assemble(heatlab.OperatorSpec(kind="dirichlet_laplacian"), grid)
mode = EquationMode.critical(3)
consts = mountain_pass_level(op, mode)
print(f"box (-5,5)^3, n = 11 per axis, mu_1 = {op.mu_min:.4f}")
print(f"lattice: S_h = {consts.S:.4f}, level = {consts.level:.4f} (Sobolev route; no "
      "ground state exists in the critical regime)")
# continuum best constant of ||u||_6 <= S ||grad u||_2 in R^3 (Talenti 1976)
s_cont = talenti_constant(3)
print(f"continuum: S = {s_cont:.5f}, level S^-3/3 = {s_cont**-3 / 3.0:.4f}; the lattice")
print("constant lies above it, so the critical threshold below is a number of")
print("the lattice model, not of the continuum equation\n")

bump = heatlab.field_from_function(
    grid, lambda x: np.exp(-np.sum(x**2, axis=-1) / 2.0)
)

# small data: dissipation with a bounded critical space-time norm
u_small = 0.3 * bump
traj = integrate(u_small, op, mode, IntegratorConfig(t_max=30.0))
v = verdict(traj)
s_cum = traj.samples[-1].s_norm_cum
lin = linear_profile_smallness(u_small, op, mode)
print(f"amplitude 0.3: {v.kind}, s-norm of the flow {s_cum:.4f}")
print(f" linear-profile bound {lin:.4f}; the nonlinear flow tracks the")
print(" linear one closely in the small-data regime\n")

# unstable-set data: Nehari-project the bump, then push past the peak
proj = nehari_projection(bump, op, mode)
u_minus = None
for s in np.arange(1.05, 2.0, 0.01):
    cand = s * proj.projected
    if energy(cand, op, mode).energy <= 0.9 * consts.level:
        u_minus = cand
        break
cls = classify(u_minus, op, mode, consts)
print(f"scaled projection: membership {cls.membership}, "
      f"E = {cls.energy:.4f} < level, J = {cls.nehari:.2f} < 0")

R = 2.5
traj = integrate(
    u_minus, op, mode,
    IntegratorConfig(t_max=30.0, cutoff_radii=(R,)),
)
v = verdict(traj)
e0 = traj.samples[0].energy
A = 10.0 * max(1.0, traj.samples[0].mass / max(consts.level - e0, 1e-12))
rep = concavity(traj, A=A, alpha=0.1, R=R)
print(f"flow: {v.kind}, T_detect = {traj.T_detect:.5f}, end {traj.end_reason!r}")
print(f"cut-off concavity at radius {R}: margin {rep.margin:.2e} > 0")
print()
print("in the critical regime the certificate uses the localized mass")
print("inside radius R, so the far-field truncation does not pollute it")

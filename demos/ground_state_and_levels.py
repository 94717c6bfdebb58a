"""Ground state of the cubic line problem and the mountain-pass level.

On (-20, 20) with Dirichlet ends, L = -d^2/dx^2 and p = 3, the stationary
problem has the explicit solution sqrt(2) sech(x), the level is 4/3, and
the best constant for the inhomogeneous Sobolev embedding is (3/16)^(1/4).
This script computes all three numerically and compares.
"""

import numpy as np

import heatlab
from heatlab.variational import EquationMode, classify, energy, mountain_pass_level

grid = heatlab.build_grid(heatlab.DomainSpec.interval(-20.0, 20.0), 1600)
op = heatlab.assemble(heatlab.OperatorSpec(kind="dirichlet_laplacian"), grid)
mode = EquationMode.subcritical(3.0, 1)
# two independent routes to the same threshold; each returns the ground state
consts_a = mountain_pass_level(op, mode, method="nehari_inf")
consts_b = mountain_pass_level(op, mode, method="sobolev_formula")

phi = consts_a.ground_state
exact = heatlab.field_from_function(
    grid, lambda x: np.sqrt(2.0) / np.cosh(x[..., 0])
)
err = heatlab.lp_norm(phi - exact, 2.0) / heatlab.lp_norm(exact, 2.0)
rep = energy(phi, op, mode)
print(f"fixed-point ground state vs sqrt(2) sech(x): L2 error {err:.2e}")
print(f" E(phi) = {rep.energy:.8f}   (exact 4/3 = {4/3:.8f})")
print(f" J(phi) = {rep.nehari:+.2e}  (on the Nehari set by construction)")
print()

print("mountain-pass level, two routes")
print(f" Nehari infimum    : {consts_a.level:.8f}")
print(f" Sobolev power form: {consts_b.level:.8f}")
print(f" best constant S = {consts_b.S:.6f}  (exact (3/16)^(1/4) = {(3/16)**0.25:.6f})")
print(f" coercivity threshold y_C = {consts_a.y_C:.6f}  (exact 16/3 = {16/3:.6f})")
print()

print("classification along the ground-state ray s * phi")
for s in (0.4, 0.9, 1.0, 1.1, 2.0):
    cls = classify(s * phi, op, mode, consts_a)
    extra = f" ({cls.note})" if cls.note else ""
    print(f" s = {s:3.1f}: {cls.membership:<10} E = {cls.energy:+.4f}  "
          f"J = {cls.nehari:+.4f}{extra}")
print("below the level the Nehari sign splits the data into the stable")
print("and unstable sets; the ground state itself sits on the borderline")

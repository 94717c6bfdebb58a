"""Energy landscape: functionals, projections, ground states, constants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatlab
from heatlab import variational
from heatlab.grids import DomainSpec, Field, build_grid
from heatlab.operators import OperatorSpec, assemble
from heatlab.variational import (
    ConvergenceError,
    EquationMode,
    best_sobolev_constant,
    classify,
    energy,
    energy_gradient,
    ground_state,
    mountain_pass_level,
    nehari_projection,
    sobolev_bound_from_semigroup,
    talenti_constant,
)
from conftest import sech_profile, sine_profile


def test_mode_validation():
    with pytest.raises(ValueError, match="critical requires d >= 3"):
        EquationMode.critical(2)
    with pytest.raises(ValueError):
        EquationMode.subcritical(1.0, 1)
    with pytest.raises(ValueError):
        EquationMode.subcritical(6.0, 3)  # above p* = 5
    m = EquationMode.critical(3)
    assert m.p == 5.0
    assert m.shift == 0.0
    sub = EquationMode.subcritical(3.0, 1)
    assert sub.shift == 1.0 and sub.sign == 1.0
    ab = EquationMode.subcritical(3.0, 1, nonlinearity="absorbing")
    assert ab.sign == -1.0
    lin = EquationMode.subcritical(3.0, 1, nonlinearity="none")
    assert lin.sign == 0.0
    assert EquationMode.subcritical(2.0, 3).p_critical == 5.0


def test_sine_functionals_closed_form(pi_op, ):
    # on (0, pi) with p = 3: ||sin||_E^2 = pi, ||sin||_4^4 = 3 pi / 8,
    # E = 13 pi / 32, J = 5 pi / 8
    mode = EquationMode.subcritical(3.0, 1)
    u = sine_profile(pi_op.grid)
    rep = energy(u, pi_op, mode)
    assert math.isclose(rep.energy_norm**2, math.pi, rel_tol=2e-4)
    assert math.isclose(rep.lp**4, 3.0 * math.pi / 8.0, rel_tol=2e-4)
    assert math.isclose(rep.energy, 13.0 * math.pi / 32.0, rel_tol=2e-3)
    assert math.isclose(rep.nehari, 5.0 * math.pi / 8.0, rel_tol=2e-3)
    # report invariants hold exactly as computed
    assert math.isclose(
        rep.energy, 0.5 * rep.energy_norm**2 - 0.25 * rep.lp**4, rel_tol=1e-12
    )
    assert math.isclose(rep.nehari, rep.energy_norm**2 - rep.lp**4, rel_tol=1e-12)


def test_sine_nehari_projection_closed_form(pi_op):
    # lambda* = (||u||_E^2 / ||u||_4^4)^(1/2) = sqrt(8/3) for sin on (0, pi)
    mode = EquationMode.subcritical(3.0, 1)
    u = sine_profile(pi_op.grid)
    proj = nehari_projection(u, pi_op, mode)
    assert math.isclose(proj.lambda_star, math.sqrt(8.0 / 3.0), rel_tol=2e-4)
    rep = energy(proj.projected, pi_op, mode)
    assert abs(rep.nehari) <= 1e-9 * rep.energy_norm**2
    # peak energy equals the energy of the projected state
    assert math.isclose(proj.peak_energy, rep.energy, rel_tol=1e-10)
    # and it is the max of E along the ray
    for s in (0.5, 0.9, 1.1, 2.0):
        scaled = s * proj.projected
        assert energy(scaled, pi_op, mode).energy <= proj.peak_energy * (1 + 1e-12)


def test_sech_oracles(line_op, cubic_mode):
    u = sech_profile(line_op.grid)
    rep = energy(u, line_op, cubic_mode)
    assert math.isclose(rep.energy_norm**2, 16.0 / 3.0, rel_tol=1e-3)
    assert math.isclose(rep.energy, 4.0 / 3.0, rel_tol=1e-3)
    assert abs(rep.nehari) <= 1e-2


def test_ground_state_matches_explicit_profile(line_op, cubic_mode, line_ground):
    # the cubic line ground state is sqrt(2) sech(x) up to translation
    u = sech_profile(line_op.grid)
    diff = heatlab.lp_norm(line_ground - u, 2.0) / heatlab.lp_norm(u, 2.0)
    assert diff < 5e-3
    rep = energy(line_ground, line_op, cubic_mode)
    assert math.isclose(rep.energy, 4.0 / 3.0, rel_tol=1e-3)
    assert abs(rep.nehari) <= 1e-6 * rep.energy_norm**2
    assert np.all(line_ground.values > -1e-12)


def test_ground_state_pohozaev_identity(line_op, cubic_mode, line_ground):
    # E(phi) = ((p-1)/(2(p+1))) ||phi||_E^2 on the Nehari manifold
    rep = energy(line_ground, line_op, cubic_mode)
    factor = (cubic_mode.p - 1.0) / (2.0 * (cubic_mode.p + 1.0))
    assert math.isclose(rep.energy, factor * rep.energy_norm**2, rel_tol=1e-8)


def test_ground_state_is_fixed_point_of_gradient(line_op, cubic_mode, line_ground):
    grad = energy_gradient(line_ground, line_op, cubic_mode)
    rel = heatlab.lp_norm(grad, 2.0) / heatlab.lp_norm(line_ground, 2.0)
    assert rel < 1e-4


def test_energy_gradient_is_directional_derivative(small_op):
    mode = EquationMode.subcritical(3.0, 1)
    rng = np.random.default_rng(21)
    u = Field(rng.standard_normal(small_op.grid.n_total), small_op.grid)
    v = Field(rng.standard_normal(small_op.grid.n_total), small_op.grid)
    g = energy_gradient(u, small_op, mode)
    eps = 1e-6
    fd = (
        energy(u + eps * v, small_op, mode).energy
        - energy(u - eps * v, small_op, mode).energy
    ) / (2.0 * eps)
    assert math.isclose(fd, heatlab.inner_product(g, v), rel_tol=1e-5)


def test_energy_gradient_refuses_overflow(small_op):
    # |u|^2 u of a 1e160 bump is past double range
    u = heatlab.field_from_function(small_op.grid, lambda x: 1e160 * np.exp(-0.5 * x[..., 0] ** 2))
    with pytest.raises(ValueError, match="field overflows: E or J is past double range"):
        energy_gradient(u, small_op, EquationMode.subcritical(3.0, 1))


def test_energy_refuses_overflow_without_a_warning(small_op):
    # a_k |c_k|^2 and |u|^4 of a 1e200 bump are past double range; the
    # errstate is energy's own, so nothing is warned (RuntimeWarnings are
    # errors in this suite)
    u = heatlab.field_from_function(small_op.grid, lambda x: 1e200 * np.exp(-0.5 * x[..., 0] ** 2))
    with pytest.raises(ValueError, match="field overflows: E or J is past double range"):
        energy(u, small_op, EquationMode.subcritical(3.0, 1))


def test_nehari_fixed_point_refuses_an_overflowing_start(small_op):
    u = heatlab.field_from_function(small_op.grid, lambda x: 1e200 * np.exp(-0.5 * x[..., 0] ** 2))
    with pytest.raises(ValueError, match="field overflows: E or J is past double range"):
        variational._nehari_fixed_point(small_op, EquationMode.subcritical(3.0, 1), u)


def test_two_routes_agree(line_op, cubic_mode, line_consts):
    alt = mountain_pass_level(line_op, cubic_mode, method="sobolev_formula")
    assert math.isclose(alt.level, line_consts.level, rel_tol=1e-6)
    assert math.isclose(alt.S, line_consts.S, rel_tol=1e-6)
    # analytic anchors for the cubic line problem
    assert math.isclose(line_consts.level, 4.0 / 3.0, rel_tol=1e-2)
    assert math.isclose(line_consts.S, (3.0 / 16.0) ** 0.25, rel_tol=1e-2)
    assert math.isclose(line_consts.y_C, 16.0 / 3.0, rel_tol=1e-2)
    # the level/S identity holds by construction on both routes
    p = cubic_mode.p
    factor = (p - 1.0) / (2.0 * (p + 1.0))
    assert math.isclose(
        line_consts.level, factor * line_consts.S ** (-2 * (p + 1) / (p - 1)), rel_tol=1e-12
    )
    assert math.isclose(line_consts.y_C, line_consts.S**-4.0, rel_tol=1e-12)


def test_sobolev_constant_dominates_random_ratios(small_op):
    mode = EquationMode.subcritical(3.0, 1)
    s_const = best_sobolev_constant(small_op, mode)
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(1000):
        u = Field(rng.standard_normal(small_op.grid.n_total), small_op.grid)
        rep = energy(u, small_op, mode)
        worst = max(worst, rep.lp / rep.energy_norm)
    assert worst <= s_const * (1.0 + 1e-9)
    # random fields are rough, so the best constant is not nearly attained
    assert worst < 0.9 * s_const


def test_classification_along_ground_state_ray(line_op, cubic_mode, line_consts, line_ground):
    phi = line_ground
    for s in (0.3, 0.7, 0.99):
        rep = classify(s * phi, line_op, cubic_mode, line_consts)
        assert rep.membership == "Mplus", s
    for s in (1.01, 1.2):
        rep = classify(s * phi, line_op, cubic_mode, line_consts)
        assert rep.membership == "Mminus", s
    # far up the ray the energy goes negative but stays below the level
    rep = classify(3.0 * phi, line_op, cubic_mode, line_consts)
    assert rep.membership == "Mminus"
    assert energy(3.0 * phi, line_op, cubic_mode).energy < 0


def test_classification_boundary_cases(line_op, cubic_mode, line_consts, line_ground):
    zero = heatlab.zero_field(line_op.grid)
    assert classify(zero, line_op, cubic_mode, line_consts).membership == "Zero"
    # the ground state itself sits on the manifold at the level: borderline
    rep = classify(line_ground, line_op, cubic_mode, line_consts)
    assert rep.membership in ("AboveLevel", "OnNehari")
    assert rep.borderline or rep.note
    # far above the level
    big = 10.0 * line_ground
    rep_big = classify(big, line_op, cubic_mode, line_consts)
    assert energy(big, line_op, cubic_mode).energy < line_consts.level
    assert rep_big.membership == "Mminus"
    bump = 1e-3 * line_ground
    assert classify(bump, line_op, cubic_mode, line_consts).membership == "Mplus"


def test_above_level_classification(line_op, cubic_mode, line_consts):
    # a wide positive profile with huge energy norm but modest L^4 norm
    u = heatlab.field_from_function(
        line_op.grid, lambda x: 0.9 * np.cos(np.pi * x[..., 0] / 40.0)
    )
    rep = classify(u, line_op, cubic_mode, line_consts)
    assert energy(u, line_op, cubic_mode).energy > line_consts.level
    assert rep.membership == "AboveLevel"


def test_no_membership_gap_for_subthreshold_fields(line_op, cubic_mode, line_consts, line_ground):
    # below the level the Nehari sign is decisive: scan many scalings and
    # random perturbations; everything lands in Mplus or Mminus cleanly
    rng = np.random.default_rng(41)
    phi = line_ground.values
    for _ in range(200):
        s = rng.uniform(0.05, 2.5)
        if abs(s - 1.0) < 0.02:
            continue
        noise = rng.standard_normal(phi.shape)
        noise *= 0.01 * np.linalg.norm(phi) / np.linalg.norm(noise)
        u = Field(s * phi + noise, line_op.grid)
        rep = classify(u, line_op, cubic_mode, line_consts)
        if rep.energy < line_consts.level * (1.0 - 1e-6):
            assert rep.membership in ("Mplus", "Mminus")


def test_ground_state_mode_restrictions(line_op):
    with pytest.raises(ValueError):
        ground_state(line_op, EquationMode.subcritical(3.0, 1, nonlinearity="absorbing"))
    with pytest.raises(ValueError):
        mountain_pass_level(line_op, EquationMode.subcritical(3.0, 1, nonlinearity="absorbing"))


def test_critical_constant_small_box():
    grid = build_grid(DomainSpec.box((-3.0,) * 3, (3.0,) * 3), 8)
    op = assemble(OperatorSpec(kind="dirichlet_laplacian"), grid)
    mode = EquationMode.critical(3)
    consts = mountain_pass_level(op, mode)
    assert consts.S > 0 and consts.level > 0
    assert consts.method == "sobolev_formula"
    with pytest.raises(ValueError):
        ground_state(op, mode)
    # the constant dominates sampled homogeneous-norm ratios
    rng = np.random.default_rng(51)
    for _ in range(100):
        u = Field(rng.standard_normal(grid.n_total), grid)
        rep = energy(u, op, mode)
        assert rep.lp / rep.energy_norm <= consts.S * (1.0 + 1e-9)


def test_lattice_critical_constant_exceeds_continuum():
    # the Sobolev route on (-5, 5)^3 measures the lattice constant S_h: it
    # lies above the continuum best constant (Talenti, Ann. Mat. Pura Appl.
    # 110, 1976) and moves away from it as h shrinks
    d = 3
    talenti = talenti_constant(d)
    assert abs(talenti - 0.42726) < 1e-5
    s_h = []
    for n in (9, 13, 21):
        grid = build_grid(DomainSpec.box((-5.0,) * 3, (5.0,) * 3), n)
        op = assemble(OperatorSpec(kind="dirichlet_laplacian"), grid)
        s_h.append(mountain_pass_level(op, EquationMode.critical(d)).S)
    assert np.allclose(s_h, [0.4875889, 0.4927453, 0.4965604], rtol=0, atol=1e-7)
    assert min(s_h) > talenti
    assert s_h[0] < s_h[1] < s_h[2]


def test_semigroup_route_bounds_sobolev_constant(small_op, well_op):
    mode = EquationMode.subcritical(3.0, 1)
    # structured path, then the dense path (a Gaussian well, mu_1 < 0)
    for op in (small_op, well_op):
        s_meas = best_sobolev_constant(op, mode)
        s_bound = sobolev_bound_from_semigroup(op, mode)
        assert s_bound >= s_meas
        # the interpolation route is crude but should stay within a small factor
        assert s_bound < 3.0 * s_meas
    with pytest.raises(ValueError):
        sobolev_bound_from_semigroup(small_op, EquationMode.critical(3))


def test_one_energy_space_rule_refuses_an_operator_below_the_bound(well_op):
    # V = -6 e^{-x^2} on (-10, 10) has mu_1 = -3.93, so mu_1 + 1 < 0 and
    # sum (mu + 1)|c|^2 is no norm: every flow, solver and bound refuses it
    # with the one message, where the flow used to run and call it Dissipates
    grid = build_grid(DomainSpec.interval(-10.0, 10.0), 200)
    pot = heatlab.PotentialSpec(
        kind="tabulated_bounded", fn=lambda x: -6.0 * np.exp(-np.sum(x * x, axis=-1))
    )
    deep = assemble(OperatorSpec(kind="schrodinger", potential=pot), grid)
    assert deep.mu_min + 1.0 < 0
    mode = EquationMode.subcritical(3.0, 1)
    u0 = heatlab.field_from_function(grid, lambda x: 0.01 * np.exp(-x[..., 0] ** 2 / 2))
    cfg = heatlab.IntegratorConfig(t_max=1.0)
    calls = [
        lambda: heatlab.integrate(u0, deep, mode, cfg),
        lambda: heatlab.integrate_rows([u0, 2.0 * u0], deep, mode, cfg),
        lambda: heatlab.step(u0, 1e-3, deep, mode),
        lambda: heatlab.picard_iterate(u0, deep, mode, 0.1),
        lambda: energy(u0, deep, mode),
        lambda: ground_state(deep, mode),
        lambda: sobolev_bound_from_semigroup(deep, mode),
    ]
    messages = set()
    for call in calls:
        with pytest.raises(ValueError, match="^no energy space: .*positive spectrum") as exc:
            call()
        messages.add(str(exc.value))
    assert len(messages) == 1
    # the shipped well (depth 2, smallest mu + 1 = 0.045) keeps its energy space
    a = variational._mode_multiplier(well_op, mode)
    assert 0.04 < a.min() < 0.05
    bump = heatlab.field_from_function(well_op.grid, lambda x: 0.01 * np.exp(-x[..., 0] ** 2))
    traj = heatlab.integrate(bump, well_op, mode, heatlab.IntegratorConfig(t_max=1.0))
    assert traj.end_reason == "t_max"
    assert traj.samples[0].energy_norm == energy(bump, well_op, mode).energy_norm > 0


def test_projection_rejects_zero(small_op):
    mode = EquationMode.subcritical(3.0, 1)
    with pytest.raises(ValueError):
        nehari_projection(heatlab.zero_field(small_op.grid), small_op, mode)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(lam=st.floats(0.1, 10.0), p=st.floats(1.5, 5.0))
def test_scaling_homogeneity_of_functionals(small_op, well_op, lam, p):
    # the norms are 1-homogeneous; E and J are the two-term polynomials
    # lam^2 a - lam^(p+1) b in lam, and E can cancel to near zero, so those
    # are compared against the sum of the magnitudes of their two terms
    mode = EquationMode.subcritical(p, 1)
    for seed, op in ((61, small_op), (62, well_op)):
        u = Field(np.random.default_rng(seed).standard_normal(op.grid.n_total), op.grid)
        one = energy(u, op, mode)
        scaled = energy(lam * u, op, mode)
        assert math.isclose(scaled.energy_norm, lam * one.energy_norm, rel_tol=1e-12)
        assert math.isclose(scaled.lp, lam * one.lp, rel_tol=1e-12)
        quad = lam**2 * one.energy_norm**2
        power = lam ** (p + 1.0) * one.lp ** (p + 1.0)
        for got, a, b in ((scaled.energy, 0.5 * quad, power / (p + 1.0)),
                          (scaled.nehari, quad, power)):
            assert abs(got - (a - b)) <= 1e-10 * (abs(a) + abs(b))


def test_ground_state_non_convergence_reports_residual(line_op, cubic_mode, monkeypatch):
    monkeypatch.setattr(variational, "_SOLVE_MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match="no convergence after 1 iterations") as exc:
        ground_state(line_op, cubic_mode)
    assert math.isfinite(exc.value.residual) and exc.value.residual > 0.0

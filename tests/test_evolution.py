"""Time stepping: schemes, adaptivity, detection, identities, Picard."""

import math
import warnings

import numpy as np
import pytest

import heatlab
from heatlab.evolution import (
    CSV_HEADER,
    IntegratorConfig,
    Trajectory,
    TrajectorySample,
    energy_identity_residual,
    integrate,
    mass_identity_residual,
    picard_iterate,
    step,
    trajectory_rows,
)
from heatlab.grids import DomainSpec, Field, build_grid, field_from_function
from heatlab.operators import OperatorSpec, assemble
from heatlab.variational import EquationMode
from conftest import sech_profile


def small_bump(op, amp):
    return heatlab.field_from_function(
        op.grid, lambda x: amp * np.exp(-0.5 * x[..., 0] ** 2)
    )


def test_config_validation():
    with pytest.raises(ValueError, match="unknown scheme"):
        IntegratorConfig(t_max=1.0, scheme="rk4")
    with pytest.raises(ValueError):
        IntegratorConfig(t_max=1.0, dt_init=1e-3, dt_min=1e-2)
    with pytest.raises(ValueError):
        IntegratorConfig(t_max=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(t_max=1.0, rel_tol=0.0)


def test_step_validation(small_op, cubic_mode):
    u = small_bump(small_op, 0.1)
    with pytest.raises(ValueError, match="unknown scheme"):
        step(u, 0.1, small_op, cubic_mode, scheme="heun")
    with pytest.raises(ValueError):
        step(u, -0.1, small_op, cubic_mode)


def _fixed_step_solve(u0, op, mode, t_end, n_steps, scheme):
    u = u0
    dt = t_end / n_steps
    for _ in range(n_steps):
        u = step(u, dt, op, mode, scheme=scheme)
    return u


def test_scheme_orders(small_op, cubic_mode):
    # global convergence order on a fixed window against a fine reference
    u0 = small_bump(small_op, 0.5)
    t_end = 0.5
    ref = _fixed_step_solve(u0, small_op, cubic_mode, t_end, 1280, "etdrk2")
    orders = {}
    for scheme, expected in (("exponential_euler", 1.0), ("etdrk2", 2.0)):
        errs = []
        for n in (20, 40, 80):
            u = _fixed_step_solve(u0, small_op, cubic_mode, t_end, n, scheme)
            errs.append(heatlab.lp_norm(u - ref, 2.0))
        rate = np.polyfit(np.log([20, 40, 80]), np.log(errs), 1)[0]
        orders[scheme] = -rate
        assert abs(orders[scheme] - expected) < 0.35, (scheme, orders[scheme])
    assert orders["etdrk2"] > orders["exponential_euler"] + 0.5


def test_linear_mode_matches_semigroup(small_op):
    # with the nonlinearity off the stepper must reproduce e^{-tA} exactly
    mode = EquationMode.subcritical(3.0, 1, nonlinearity="none")
    u0 = small_bump(small_op, 1.0)
    cfg = IntegratorConfig(t_max=1.0, dt_init=0.05, dt_max=0.25, rel_tol=1e-6)
    traj = integrate(u0, small_op, mode, cfg)
    exact = heatlab.apply_semigroup(small_op, traj.t_final, u0, shifted=True)
    err = heatlab.lp_norm(traj.final_state - exact, 2.0)
    assert err < 1e-12 * heatlab.lp_norm(u0, 2.0)
    assert traj.end_reason == "t_max"


def test_zero_data_stays_zero(small_op, cubic_mode):
    traj = integrate(
        heatlab.zero_field(small_op.grid), small_op, cubic_mode,
        IntegratorConfig(t_max=0.5),
    )
    assert traj.end_reason == "t_max"
    assert traj.T_detect is None
    assert float(np.max(traj.column("mass"))) == 0.0
    assert float(np.max(traj.column("sup"))) == 0.0


def test_dissipating_run_identities(small_op, cubic_mode):
    u0 = small_bump(small_op, 0.2)
    cfg = IntegratorConfig(t_max=4.0, rel_tol=1e-6)
    traj = integrate(u0, small_op, cubic_mode, cfg)
    assert traj.end_reason == "t_max"
    assert traj.T_detect is None
    en = traj.column("energy_norm")
    assert en[-1] < 0.05 * en[0]
    # energy decreases along the flow (up to integration error)
    e = traj.column("energy")
    assert np.all(np.diff(e) <= 1e-5 * max(abs(e[0]), 1.0))
    assert energy_identity_residual(traj) <= 1e-3
    assert mass_identity_residual(traj) <= 1e-2
    assert traj.accepted >= 3
    assert float(np.max(traj.column("s_norm_cum"))) == 0.0


def test_blowup_sets_detection_time(small_op, cubic_mode):
    u0 = 1.6 * sech_profile(small_op.grid)
    cfg = IntegratorConfig(t_max=50.0, blowup_sup_cap=1e4)
    traj = integrate(u0, small_op, cubic_mode, cfg)
    assert traj.T_detect is not None
    assert traj.end_reason in ("sup_cap", "energy_cap", "dt_underflow")
    assert traj.t_final < 50.0
    sup = traj.column("sup")
    assert sup[-1] >= 100.0 * sup[0] or sup[-1] >= 1e2
    # mass identity holds on the run right up to detection
    assert mass_identity_residual(traj) <= 1e-2


def test_dt_max_respected(small_op, cubic_mode):
    u0 = small_bump(small_op, 0.1)
    cfg = IntegratorConfig(t_max=2.0, dt_max=0.05)
    traj = integrate(u0, small_op, cubic_mode, cfg)
    # with no sample cadence every accepted step lands in samples
    dts = np.diff(traj.column("t"))
    assert float(np.max(dts)) <= 0.05 + 1e-12


def test_sample_interval_thins_output(small_op, cubic_mode):
    u0 = small_bump(small_op, 0.1)
    dense = integrate(u0, small_op, cubic_mode, IntegratorConfig(t_max=2.0))
    thin = integrate(
        u0, small_op, cubic_mode,
        IntegratorConfig(t_max=2.0, sample_interval=0.25),
    )
    assert len(thin.samples) < len(dense.samples)
    assert len(thin.samples) <= 11
    t = thin.column("t")
    assert t[0] == 0.0
    assert math.isclose(t[-1], 2.0, rel_tol=1e-9)
    # the final sample lands exactly at t_max, so only interior gaps
    # respect the cadence
    assert np.all(np.diff(t)[:-1] > 0.20)
    # accumulators do not depend on the sample cadence
    assert math.isclose(
        thin.samples[-1].dissipation_cum,
        dense.samples[-1].dissipation_cum,
        rel_tol=1e-9,
    )


def test_cutoff_mass_recording(small_op, cubic_mode):
    u0 = small_bump(small_op, 0.1)
    bare = integrate(u0, small_op, cubic_mode, IntegratorConfig(t_max=0.5))
    assert bare.samples[0].cutoff_mass is None
    traj = integrate(
        u0, small_op, cubic_mode,
        IntegratorConfig(t_max=0.5, cutoff_radii=(2.0, 5.0)),
    )
    for s in traj.samples:
        assert set(s.cutoff_mass) == {2.0, 5.0}
        assert 0.0 <= s.cutoff_mass[2.0] <= s.cutoff_mass[5.0] <= s.mass * (1 + 1e-12)
    # most of this bump sits inside radius 5
    assert traj.samples[0].cutoff_mass[5.0] > 0.9 * traj.samples[0].mass


def test_step_limit_ends_run_without_false_detection(small_op, cubic_mode):
    u0 = small_bump(small_op, 0.1)
    cfg = IntegratorConfig(t_max=2.0, max_steps=7)
    traj = integrate(u0, small_op, cubic_mode, cfg)
    assert traj.end_reason == "step_limit"
    assert traj.T_detect is None  # nothing grew, so no detection
    assert traj.accepted + traj.rejected <= 8


def test_accepted_state_with_overflowing_rate_ends_named(small_op, cubic_mode):
    # a 1e60 bump: |u|^2 u is finite, but ||u_t||^2 is past double range, and a
    # dt_min of 1e-200 lets the controller accept a step from it
    u0 = small_bump(small_op, 1e60)
    cfg = IntegratorConfig(t_max=1.0, dt_init=1e-200, dt_min=1e-200)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traj = integrate(u0, small_op, cubic_mode, cfg)
    assert traj.end_reason == "sup_cap" and traj.T_detect == traj.t_final > 0.0
    assert np.all(np.isfinite(traj.column("dissipation_cum")))
    assert np.all(np.isfinite(traj.column("s_norm_cum")))


def test_overflowing_critical_integrand_ends_named():
    # a 1e31 bump: |u|^10 is past double range at the start and at the step
    # midpoint, so the space-time integrand overflows before any step is
    # accepted; that must end as sup_cap, not as a RuntimeWarning
    grid = build_grid(DomainSpec.box(-3.0, 3.0, 3), 7)
    op = assemble(OperatorSpec(kind="dirichlet_laplacian"), grid)
    u0 = field_from_function(grid, lambda x: 1e31 * np.exp(-np.sum(x * x, axis=-1)))
    cfg = IntegratorConfig(t_max=1.0, dt_init=1e-200, dt_min=1e-200)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traj = integrate(u0, op, EquationMode.critical(3), cfg)
    assert traj.end_reason == "sup_cap" and traj.T_detect == traj.t_final > 0.0
    assert np.all(np.isfinite(traj.column("dissipation_cum")))
    assert np.all(np.isfinite(traj.column("s_norm_cum")))


def test_absorbing_flow_dissipates_large_data(small_op):
    mode = EquationMode.subcritical(3.0, 1, nonlinearity="absorbing")
    u0 = 5.0 * sech_profile(small_op.grid)
    traj = integrate(u0, small_op, mode, IntegratorConfig(t_max=6.0))
    assert traj.end_reason == "t_max"
    assert traj.T_detect is None
    en = traj.column("energy_norm")
    assert en[-1] < 1e-2 * en[0]
    e = traj.column("energy")
    assert np.all(np.diff(e) <= 1e-6 * max(abs(e[0]), 1.0))


def test_trajectory_rows_match_header(small_op, cubic_mode):
    u0 = small_bump(small_op, 0.1)
    traj = integrate(u0, small_op, cubic_mode, IntegratorConfig(t_max=0.2))
    rows = list(trajectory_rows(traj))
    assert len(rows) == len(traj.samples)
    n_cols = len(CSV_HEADER.split(","))
    first = rows[0].split(",")
    assert len(first) == n_cols
    assert float(first[0]) == 0.0
    parsed = np.array([[float(v) for v in r.split(",")] for r in rows])
    assert np.allclose(parsed[:, 1], traj.column("mass"), rtol=0, atol=0)
    # repr round-trip is exact
    assert parsed[3, 4] == traj.samples[3].nehari


def test_trajectory_column_helper(small_op, cubic_mode):
    traj = integrate(
        small_bump(small_op, 0.1), small_op, cubic_mode, IntegratorConfig(t_max=0.2)
    )
    t = traj.column("t")
    assert t.shape == (len(traj.samples),)
    assert traj.t_final == t[-1]


def test_picard_contracts_for_small_data(small_op, cubic_mode):
    u0 = small_bump(small_op, 0.05)
    res = picard_iterate(u0, small_op, cubic_mode, t_span=0.4, n_iter=6, n_quad=48)
    assert res.converged
    assert len(res.iterates) == 7
    assert all(r < 0.5 for r in res.ratios)
    # the limit matches the adaptive integrator on the same window
    cfg = IntegratorConfig(t_max=0.4, rel_tol=1e-8)
    traj = integrate(u0, small_op, cubic_mode, cfg)
    err = heatlab.lp_norm(res.iterates[-1] - traj.final_state, 2.0)
    assert err <= 1e-5 * heatlab.lp_norm(u0, 2.0)


def test_picard_iterate_zero_is_linear_flow(small_op, cubic_mode):
    u0 = small_bump(small_op, 0.05)
    res = picard_iterate(u0, small_op, cubic_mode, t_span=0.3, n_iter=1, n_quad=16)
    lin = heatlab.apply_semigroup(small_op, 0.3, u0, shifted=True)
    assert heatlab.lp_norm(res.iterates[0] - lin, 2.0) < 1e-12


def test_picard_validation(small_op, cubic_mode):
    u0 = small_bump(small_op, 0.05)
    with pytest.raises(ValueError):
        picard_iterate(u0, small_op, cubic_mode, t_span=0.0)
    with pytest.raises(ValueError):
        picard_iterate(u0, small_op, cubic_mode, t_span=1.0, n_quad=1)


def _manual_traj(times, masses, neharis, mode):
    samples = [
        TrajectorySample(
            t=t, mass=m, energy_norm=1.0, energy=1.0, nehari=j,
            lp=1.0, sup=1.0, dissipation_cum=0.0, s_norm_cum=0.0,
        )
        for t, m, j in zip(times, masses, neharis)
    ]
    return Trajectory(samples=samples, mode=mode, scheme="etdrk2")


def test_mass_residual_requires_samples(cubic_mode):
    traj = _manual_traj([0.0, 1.0], [1.0, 1.0], [0.0, 0.0], cubic_mode)
    with pytest.raises(ValueError, match="at least 3"):
        mass_identity_residual(traj)
    bad = _manual_traj([0.0, 1.0, 1.0], [1.0] * 3, [0.0] * 3, cubic_mode)
    with pytest.raises(ValueError, match="strictly increasing"):
        mass_identity_residual(bad)


def test_mass_residual_exact_on_manufactured_data(cubic_mode):
    # m(t) = 1 - 2 J0 t with constant J = J0 satisfies J = -m'/2 exactly,
    # and the quadratic-fit derivative is exact on linear data
    times = [0.0, 0.3, 0.7, 1.2, 1.8]
    j0 = 0.4
    masses = [1.0 - 2.0 * j0 * t for t in times]
    traj = _manual_traj(times, masses, [j0] * len(times), cubic_mode)
    assert mass_identity_residual(traj) < 1e-13


def test_critical_run_accumulates_space_time_norm():
    grid = heatlab.build_grid(heatlab.DomainSpec.box((-4.0,) * 3, (4.0,) * 3), 9)
    op = heatlab.assemble(heatlab.OperatorSpec(kind="dirichlet_laplacian"), grid)
    mode = EquationMode.critical(3)
    u0 = heatlab.field_from_function(
        grid, lambda x: 0.3 * np.exp(-np.sum(x**2, axis=-1) / 2.0)
    )
    traj = integrate(u0, op, mode, IntegratorConfig(t_max=1.0, rel_tol=1e-5))
    s = traj.column("s_norm_cum")
    assert s[0] == 0.0
    assert np.all(np.diff(s) >= -1e-15)
    assert s[-1] > 0.0

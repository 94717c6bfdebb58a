"""Time stepping: schemes, adaptivity, detection, identities, Picard."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatlab
from heatlab.evolution import (
    IntegratorConfig,
    Trajectory,
    TrajectorySample,
    _Stepper,
    energy_identity_residual,
    integrate,
    integrate_rows,
    mass_identity_residual,
    picard_iterate,
    step,
)
from heatlab.config import load_experiment_config
from heatlab.experiments import _trajectory_csv, make_initial_data, prepare_run
from heatlab.grids import (
    DomainSpec,
    Field,
    _lq_integral,
    _weight_ratios,
    build_grid,
    field_from_function,
)
from heatlab.operators import (
    OperatorSpec,
    _MirrorSector,
    _mirror_sector,
    _sector_folds,
    assemble,
)
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


@pytest.mark.parametrize(
    "field, value",
    [("t_max", math.nan), ("t_max", math.inf), ("rel_tol", math.nan), ("dt_init", math.nan),
     ("dt_min", math.nan), ("dt_max", math.inf), ("blowup_sup_cap", math.inf),
     ("blowup_energy_cap", math.nan), ("sample_interval", math.inf)],
)
def test_config_refuses_non_finite_values(field, value):
    # rel_tol = nan used to reject every attempt until the step limit, and
    # t_max = nan to run to max_steps
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        IntegratorConfig(**{"t_max": 1.0, field: value})


@pytest.mark.parametrize(
    "field, value",
    [("blowup_sup_cap", -1.0), ("blowup_energy_cap", 0.0), ("sample_interval", 0.0),
     ("sample_interval", -0.25), ("cutoff_radii", (1.0, -2.0)), ("cutoff_radii", (0.0,))],
)
def test_config_refuses_non_positive_caps_intervals_and_radii(field, value):
    # a sup cap of -1 used to call a dissipating bump sup_cap at once
    with pytest.raises(ValueError, match=f"^{field} must be finite and positive"):
        IntegratorConfig(t_max=1.0, **{field: value})


@pytest.mark.parametrize("max_steps", [0, -3, 2.5, True])
def test_config_refuses_max_steps_below_one(max_steps):
    with pytest.raises(ValueError, match="^max_steps must be at least 1"):
        IntegratorConfig(t_max=1.0, max_steps=max_steps)


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


def test_finite_simpson_integral_of_rates_near_double_range(small_op, cubic_mode):
    # each rate ||u_t||^2 is finite but near 1e308, so prev + 4 mid + cur is
    # not, while dt / 6 times it is: the weights scale each rate first, and
    # the steps are accepted
    u0 = field_from_function(small_op.grid, lambda x: 2e51 * np.exp(-x[..., 0] ** 2))
    cfg = IntegratorConfig(
        t_max=1.0, dt_init=1e-106, dt_min=1e-110, blowup_sup_cap=1e300, blowup_energy_cap=1e150
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traj = integrate(u0, small_op, cubic_mode, cfg)
    assert traj.accepted > 0
    assert np.all(np.isfinite(traj.column("dissipation_cum")))


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


def test_overflowing_initial_state_is_refused(small_op):
    # |u|^(p+1) is past double range (at p = 1.5 and 1e160 so are |u|^2 and
    # the mass), so E(u0) and J(u0) are not finite; integrate refuses the
    # data instead of recording -inf and NaN
    for p, amp in ((3.0, 1e80), (1.5, 1e160)):
        u0 = small_bump(small_op, amp)
        mode = EquationMode.subcritical(p, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="initial state overflows"):
                integrate(u0, small_op, mode, IntegratorConfig(t_max=1.0))


def _assert_rows_equal_solo_runs(u0s, op, mode, cfg):
    """integrate_rows gives every row exactly what integrate gives it alone."""
    rows = integrate_rows(u0s, op, mode, cfg)
    assert len(rows) == len(u0s)
    for u0, row in zip(u0s, rows):
        try:
            alone = integrate(u0, op, mode, cfg)
        except ValueError as exc:
            assert isinstance(row, ValueError) and str(row) == str(exc)
            continue
        assert row.samples == alone.samples
        assert (row.accepted, row.rejected, row.end_reason, row.T_detect) == (
            alone.accepted, alone.rejected, alone.end_reason, alone.T_detect
        )
        assert np.array_equal(row.final_state.values, alone.final_state.values)
        assert row.final_state.values.base is None  # owns its data, not a view of a stack
    return rows


@pytest.fixture(scope="module")
def rader_op():
    """n = 400: n + 1 is prime, so the line transforms by Rader's DST."""
    grid = build_grid(DomainSpec.interval(-20.0, 20.0), 400)
    return assemble(OperatorSpec(kind="dirichlet_laplacian"), grid)


@pytest.mark.parametrize("scheme, max_steps", [("etdrk2", 110), ("exponential_euler", 250)])
def test_integrate_rows_equals_integrate_row_by_row(rader_op, cubic_mode, scheme, max_steps):
    # one row dissipates to t_max, one blows up past the sup cap, and the
    # slower blow-up is cut by the step limit
    sech = sech_profile(rader_op.grid)
    cfg = IntegratorConfig(
        t_max=3.0, blowup_sup_cap=1e2, rel_tol=1e-4, max_steps=max_steps, scheme=scheme
    )
    u0s = [a * sech for a in (0.5, 4.0, 1.5)]
    rows = _assert_rows_equal_solo_runs(u0s, rader_op, cubic_mode, cfg)
    assert [row.end_reason for row in rows] == ["t_max", "sup_cap", "step_limit"]


@pytest.mark.parametrize("path", ["rader", "dense"])
def test_integrate_rows_with_sample_interval(path, rader_op, well_op, cubic_mode):
    # on the dense path a stacked product would equal single calls only to
    # roundoff, so the rows are transformed one by one there
    op = rader_op if path == "rader" else well_op
    sech = sech_profile(op.grid)
    cfg = IntegratorConfig(t_max=3.0, blowup_sup_cap=1e2, rel_tol=1e-4, sample_interval=0.25)
    _assert_rows_equal_solo_runs([0.5 * sech, 1.5 * sech], op, cubic_mode, cfg)


def test_integrate_rows_critical_batch_with_cutoffs():
    grid = build_grid(DomainSpec.box(-4.0, 4.0, 3), 9)
    op = assemble(OperatorSpec(kind="dirichlet_laplacian"), grid)
    bump = field_from_function(grid, lambda x: np.exp(-0.5 * np.sum(x * x, axis=-1)))
    cfg = IntegratorConfig(t_max=1.0, rel_tol=1e-5, cutoff_radii=(1.0, 2.0))
    rows = _assert_rows_equal_solo_runs(
        [0.3 * bump, 3.0 * bump, 1.0 * bump], op, EquationMode.critical(3), cfg
    )
    assert {row.end_reason for row in rows} == {"t_max", "dt_underflow"}
    assert set(rows[0].samples[-1].cutoff_mass) == {1.0, 2.0}


def test_integrate_rows_refuses_overflowing_initial_row_alone(small_op, cubic_mode):
    u0s = [small_bump(small_op, amp) for amp in (0.1, 1e80, 0.2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = _assert_rows_equal_solo_runs(u0s, small_op, cubic_mode, IntegratorConfig(t_max=1.0))
    assert isinstance(rows[1], ValueError) and "initial state overflows" in str(rows[1])
    assert [row.end_reason for row in (rows[0], rows[2])] == ["t_max", "t_max"]


@pytest.mark.parametrize("amp, dt_init", [(1e60, 1e-200), (1e70, 1e-90), (1e60, 1e-90)])
def test_integrate_rows_overflow_inside_a_stacked_step(small_op, well_op, cubic_mode, amp, dt_init):
    # 1e60: a rate overflows at the first acceptance, as in
    # test_accepted_state_with_overflowing_rate_ends_named; 1e70: the source
    # term overflows inside the stacked attempt, whose non-finite step error
    # rejects it for that row alone until the row's dt is small enough; 1e60
    # from dt 1e-90: the step-doubling error norm overflows, rejecting
    # attempts without a warning.  On the structured and the dense path.
    cfg = IntegratorConfig(t_max=1.0, dt_init=dt_init, dt_min=1e-200)
    for op in (small_op, well_op):
        u0s = [small_bump(op, a) for a in (0.1, amp, 0.2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows = _assert_rows_equal_solo_runs(u0s, op, cubic_mode, cfg)
        assert [row.end_reason for row in rows] == ["t_max", "sup_cap", "t_max"]
        assert rows[1].T_detect == rows[1].t_final > 0.0


@pytest.mark.parametrize("path", ["structured", "dense"])
def test_integrate_rows_one_row_overflowing_at_an_accepted_step(
    path, small_op, well_op, cubic_mode
):
    # caps past reach, so only overflow can end the 1e50 row: it accepts
    # steps until the rates of an accepted state (||u_t||^2 = ||a c - N^||^2,
    # from the stacked source term) make the dissipation integral overflow,
    # while the attempt that produced that state was finite; the row ends
    # sup_cap with its last finite sample, and its neighbours run on
    op = small_op if path == "structured" else well_op
    u0s = [small_bump(op, a) for a in (0.1, 1e50, 0.2)]
    cfg = IntegratorConfig(
        t_max=1.0, dt_min=1e-200, blowup_sup_cap=1e300, blowup_energy_cap=1e150
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = _assert_rows_equal_solo_runs(u0s, op, cubic_mode, cfg)
    assert [row.end_reason for row in rows] == ["t_max", "sup_cap", "t_max"]
    exploded = rows[1]
    assert exploded.accepted > 0 and exploded.samples[-1].sup < cfg.blowup_sup_cap
    assert exploded.samples[-1] == replace(exploded.samples[-2], t=exploded.T_detect)
    assert np.all(np.isfinite(exploded.column("dissipation_cum")))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    amp_exp=st.floats(20.0, 200.0),
    dt_exp=st.floats(-200.0, -3.0),
    path=st.sampled_from(["structured", "dense"]),
)
def test_integrate_rows_with_a_huge_row_equal_solo_runs(
    small_op, well_op, cubic_mode, amp_exp, dt_exp, path
):
    # whatever a huge row meets (refusal, rejected attempts, an overflow at
    # an accepted step, the sup cap), its neighbours are untouched and every
    # row ends in a named outcome with finite samples
    op = small_op if path == "structured" else well_op
    u0s = [small_bump(op, a) for a in (0.1, 10.0**amp_exp, 0.2)]
    cfg = IntegratorConfig(t_max=1.0, dt_init=10.0**dt_exp, dt_min=1e-200)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = _assert_rows_equal_solo_runs(u0s, op, cubic_mode, cfg)
    assert [rows[0].end_reason, rows[2].end_reason] == ["t_max", "t_max"]
    if isinstance(rows[1], ValueError):
        assert "initial state overflows" in str(rows[1])
    else:
        assert rows[1].end_reason in {"sup_cap", "energy_cap", "dt_underflow", "step_limit"}
    for row in rows:
        if isinstance(row, Trajectory):
            for name in ("mass", "energy", "nehari", "sup", "dissipation_cum"):
                assert np.all(np.isfinite(row.column(name)))


def test_step_and_picard_name_an_overflow(small_op, cubic_mode):
    # |u|^2 u of a 1e120 bump is past double range
    u0 = small_bump(small_op, 1e120)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="step overflows"):
            step(u0, 1e-3, small_op, cubic_mode)
        res = picard_iterate(u0, small_op, cubic_mode, t_span=0.1, n_iter=4, n_quad=8)
    assert not res.converged
    assert len(res.diffs) == 1 and not math.isfinite(res.diffs[0])
    assert len(res.iterates) == 1  # the linear flow; no Field of the non-finite iterate


def test_energy_cap_bounds_the_energy_norm(small_op, cubic_mode):
    # the cap is compared with ||u||_E itself: a blow-up meets a small cap
    # first, and a cap whose square is past double range still compares
    cfg = IntegratorConfig(t_max=5.0, blowup_sup_cap=1e300, blowup_energy_cap=10.0)
    burst = integrate(small_bump(small_op, 3.0), small_op, cubic_mode, cfg)
    assert burst.end_reason == "energy_cap" and burst.T_detect == burst.t_final
    assert burst.samples[-2].energy_norm <= 10.0 < burst.samples[-1].energy_norm
    cfg = IntegratorConfig(t_max=1.0, blowup_energy_cap=1e200)
    assert integrate(small_bump(small_op, 0.1), small_op, cubic_mode, cfg).end_reason == "t_max"


def test_field_off_the_operator_grid_is_refused(small_op, cubic_mode):
    # same node count, different interval: the values would transform, but
    # as samples of another function
    other = build_grid(DomainSpec.interval(0.0, 1.0), 200)
    u0 = field_from_function(other, lambda x: 0.1 * np.sin(np.pi * x[..., 0]))
    calls = (
        lambda: integrate(u0, small_op, cubic_mode, IntegratorConfig(t_max=1.0)),
        lambda: integrate_rows([u0], small_op, cubic_mode, IntegratorConfig(t_max=1.0)),
        lambda: step(u0, 1e-3, small_op, cubic_mode),
        lambda: picard_iterate(u0, small_op, cubic_mode, t_span=0.1),
        lambda: heatlab.energy(u0, small_op, cubic_mode),
        lambda: heatlab.energy_gradient(u0, small_op, cubic_mode),
        lambda: heatlab.apply_semigroup(small_op, 0.1, u0),
    )
    for call in calls:
        with pytest.raises(ValueError, match="different grids"):
            call()


@pytest.mark.parametrize("case", ["structured_line", "dense_well", "critical_box"])
def test_first_sample_is_energy_of_initial_state(case, small_op, well_op):
    # the flow's E and J and the variational ones are one evaluation
    mode = EquationMode.subcritical(3.0, 1)
    op = small_op if case == "structured_line" else well_op
    if case == "critical_box":
        mode = EquationMode.critical(3)
        grid = build_grid(DomainSpec.box(-5.0, 5.0, 3), 13)  # the critical_3d grid
        op = assemble(OperatorSpec(kind="dirichlet_laplacian"), grid)
    u0 = field_from_function(op.grid, lambda x: 0.7 * np.exp(-0.5 * np.sum(x * x, axis=-1)))
    first = integrate(u0, op, mode, IntegratorConfig(t_max=1e-3, max_steps=1)).samples[0]
    rep = heatlab.energy(u0, op, mode)
    assert (first.energy, first.nehari, first.energy_norm, first.lp) == (
        rep.energy, rep.nehari, rep.energy_norm, rep.lp
    )


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
    header, *rows = _trajectory_csv(traj).splitlines()
    assert len(rows) == len(traj.samples)
    n_cols = len(header.split(","))
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
    return Trajectory(samples=samples, mode=mode)


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


# --------------------------------------------------------------------------
# mirror-even rows on the half grid


def _critical_box():
    grid = build_grid(DomainSpec.box(-5.0, 5.0, 3), 13)  # the critical_3d grid
    return assemble(OperatorSpec(kind="dirichlet_laplacian"), grid), EquationMode.critical(3)


def _box_bump(op, centre=(0.0, 0.0, 0.0)):
    return field_from_function(
        op.grid, lambda x: np.exp(-0.5 * np.sum((x - np.array(centre)) ** 2, axis=-1))
    )


def _sectors_built(monkeypatch):
    """Record every sector integrate_rows builds (None where it declines)."""
    built = []

    def spy(op, folds):
        sector = _mirror_sector(op, folds)
        built.append(sector)
        return sector

    monkeypatch.setattr("heatlab.evolution._mirror_sector", spy)
    return built


def _full_path_run(u0, op, mode, cfg, monkeypatch):
    """integrate with the sector builder declining: today's full-grid run."""
    with monkeypatch.context() as patch:
        patch.setattr("heatlab.evolution._mirror_sector", lambda op, folds: None)
        return integrate(u0, op, mode, cfg)


def _assert_sector_matches_full_path(u0, op, mode, cfg, folds, monkeypatch):
    assert _sector_folds(op, u0.values) == folds
    full = _full_path_run(u0, op, mode, cfg, monkeypatch)
    built = _sectors_built(monkeypatch)
    half = integrate(u0, op, mode, cfg)
    assert [sector.folds for sector in built] == [folds]
    assert (half.accepted, half.rejected, half.end_reason) == (
        full.accepted, full.rejected, full.end_reason
    )
    assert half.samples[0] == full.samples[0]  # the full-grid evaluation of u0
    if full.T_detect is None:
        assert half.T_detect is None
    else:
        assert math.isclose(half.T_detect, full.T_detect, rel_tol=1e-12)
    np.testing.assert_allclose(
        half.column("s_norm_cum"), full.column("s_norm_cum"), rtol=1e-10, atol=0.0
    )
    # the state itself: a blow-up amplifies roundoff on its last samples
    # (the line run's sup moves 1.4e-9 at 1e4)
    for name in ("dissipation_cum", "mass", "sup", "energy"):
        np.testing.assert_allclose(half.column(name), full.column(name), rtol=1e-8, atol=0.0)
    for a, b in zip(half.samples, full.samples):
        for r in b.cutoff_mass or {}:
            assert math.isclose(a.cutoff_mass[r], b.cutoff_mass[r], rel_tol=1e-8)
    return half, full


def test_mirror_sector_matches_full_path_on_critical_3d_minus_datum(monkeypatch):
    # the critical_3d M- run: a blow-up detected by dt collapse after ~700 steps
    op, mode = _critical_box()
    consts = heatlab.mountain_pass_level(op, mode)
    proj = heatlab.nehari_projection(_box_bump(op), op, mode)
    u_minus = next(
        s * proj.projected
        for s in np.arange(1.05, 2.0, 0.01)
        if heatlab.energy(s * proj.projected, op, mode).energy <= 0.9 * consts.level
    )
    cfg = IntegratorConfig(t_max=30.0, cutoff_radii=(2.5,))
    half, _ = _assert_sector_matches_full_path(
        u_minus, op, mode, cfg, (True, True, True), monkeypatch
    )
    assert half.end_reason == "dt_underflow" and half.samples[-1].s_norm_cum > 0.0


def test_mirror_sector_matches_full_path_on_line_bump(small_op, cubic_mode, monkeypatch):
    # n = 200, even: the half line of 100 nodes, all of multiplicity 2
    cfg = IntegratorConfig(t_max=5.0, blowup_sup_cap=1e4)
    half, _ = _assert_sector_matches_full_path(
        small_bump(small_op, 3.0), small_op, cubic_mode, cfg, (True,), monkeypatch
    )
    assert half.end_reason == "sup_cap"


@pytest.mark.parametrize(
    "n, amp, t_max, end_reason",
    [(400, 0.5, 0.05, "t_max"), (1600, 0.5, 5.0, "t_max"), (1600, 3.0, 5.0, "sup_cap")],
)
def test_mirror_sector_matches_full_path_on_rader_line(n, amp, t_max, end_reason, cubic_mode,
                                                        monkeypatch):
    # Rader axes: at n = 400 the half line takes the half sine matrices, at
    # n = 1600 the half-length Rader transform
    op = assemble(OperatorSpec(kind="dirichlet_laplacian"),
                  build_grid(DomainSpec.interval(-20.0, 20.0), n))
    cfg = IntegratorConfig(t_max=t_max, blowup_sup_cap=1e4)
    half, _ = _assert_sector_matches_full_path(
        small_bump(op, amp), op, cubic_mode, cfg, (True,), monkeypatch
    )
    assert half.end_reason == end_reason


def test_sweep_rows_of_the_dichotomy_line_fold(tmp_path):
    # the scaled ground states of the 1-d dichotomy sweep (n = 1600, a
    # Rader line) are mirror-even, so every row steps on the half line
    cfg_path = tmp_path / "line.cfg"
    cfg_path.write_text(
        "equation.regime = subcritical\nequation.p = 3.0\ndomain.kind = interval\n"
        "domain.lower = -20.0\ndomain.upper = 20.0\ngrid.n = 1600\n"
        "operator.kind = dirichlet_laplacian\ninitial.recipe = scaled_ground_state\n"
        "integrator.t_max = 40.0\n",
        encoding="utf-8",
    )
    cfg = load_experiment_config(str(cfg_path))
    setup = prepare_run(cfg)
    for lam in (0.5, 0.9, 1.1, 1.5):
        u0 = make_initial_data(replace(cfg, lam=lam), setup.op, setup.consts)
        assert _sector_folds(setup.op, u0.values) == (True,)


def test_partial_mirror_symmetry_folds_the_other_axes(monkeypatch):
    # off-centre along axis 0 only, on an odd grid (centre node of
    # multiplicity 1) with cutoff masses
    op, mode = _critical_box()
    u0 = 3.0 * _box_bump(op, centre=(0.4, 0.0, 0.0))
    cfg = IntegratorConfig(t_max=0.5, rel_tol=1e-5, cutoff_radii=(1.0, 2.5))
    half, _ = _assert_sector_matches_full_path(
        u0, op, mode, cfg, (False, True, True), monkeypatch
    )
    assert half.T_detect is not None


def test_mirror_sector_cutoffs_off_the_origin(cubic_mode, monkeypatch):
    # on (0, 8) the cutoff radius is measured from an end of the interval,
    # so chi is not mirror-symmetric: a sector node carries the mean chi^2
    # of its mirror images
    grid = build_grid(DomainSpec.interval(0.0, 8.0), 63)
    op = assemble(OperatorSpec(kind="dirichlet_laplacian"), grid)
    u0 = field_from_function(grid, lambda x: 0.5 * np.exp(-((x[..., 0] - 4.0) ** 2)))
    cfg = IntegratorConfig(t_max=0.5, cutoff_radii=(3.0, 5.0))
    _assert_sector_matches_full_path(u0, op, cubic_mode, cfg, (True,), monkeypatch)


def test_lockstep_with_mixed_fold_patterns_equals_solo_runs(monkeypatch):
    grid = build_grid(DomainSpec.box(-4.0, 4.0, 3), 9)
    op = assemble(OperatorSpec(kind="dirichlet_laplacian"), grid)
    mode = EquationMode.critical(3)
    even, off = _box_bump(op), _box_bump(op, centre=(0.5, 0.0, 0.0))
    u0s = [0.3 * even, 0.3 * off, 3.0 * even, 1.0 * off]
    assert [_sector_folds(op, u.values) for u in u0s] == [
        (True, True, True), (False, True, True)
    ] * 2
    built = _sectors_built(monkeypatch)
    cfg = IntegratorConfig(t_max=1.0, rel_tol=1e-5, cutoff_radii=(1.0, 2.0))
    rows = _assert_rows_equal_solo_runs(u0s, op, mode, cfg)
    assert [sector.folds for sector in built[:2]] == [(True, True, True), (False, True, True)]
    # the output keeps the input order: each row starts from its own datum
    for u0, row in zip(u0s, rows):
        assert row.samples[0].sup == float(np.max(np.abs(u0.values)))


def test_no_sector_on_dst_dense_or_asymmetric_data(well_op, cubic_mode, monkeypatch):
    box, mode = _critical_box()
    # n + 1 = 633 = 3 211: scipy.fft's path, which has no half-length transform
    dst_op = assemble(OperatorSpec(kind="dirichlet_laplacian"),
                      build_grid(DomainSpec.interval(-20.0, 20.0), 632))
    runs = [
        (small_bump(dst_op, 0.5), dst_op, cubic_mode),
        (small_bump(well_op, 0.5), well_op, cubic_mode),
        (field_from_function(box.grid, lambda x: 0.3 * np.exp(-np.sum((x - 0.3) ** 2, axis=-1))),
         box, mode),
    ]
    built = _sectors_built(monkeypatch)
    for u0, op, run_mode in runs:
        assert _sector_folds(op, u0.values) == (False,) * op.grid.dim
        integrate(u0, op, run_mode, IntegratorConfig(t_max=0.05))
    assert built == [None, None, None]


def test_unfolded_final_state_is_mirror_symmetric():
    op, mode = _critical_box()
    u0 = 0.3 * _box_bump(op, centre=(0.4, 0.0, 0.0))
    traj = integrate(u0, op, mode, IntegratorConfig(t_max=0.2))
    final = traj.final_state.values.reshape(op.grid.n)
    assert traj.final_state.grid is op.grid
    assert not np.array_equal(final, np.flip(final, 0))
    for ax in (1, 2):
        assert np.array_equal(final, np.flip(final, ax))


@pytest.mark.parametrize("q", [2.0, 10.0 / 3.0, 10.0])
def test_lq_integral_with_equal_vector_weights_matches_scalar(q):
    grid = build_grid(DomainSpec.box(-5.0, 5.0, 3), 13)
    x = np.abs(np.random.default_rng(7).standard_normal((grid.n_total, 3)))
    weights = _weight_ratios(np.full(grid.n_total, grid.weight))
    np.testing.assert_array_max_ulp(
        _lq_integral(x, q, weights), _lq_integral(x, q, grid.weight), maxulp=1
    )
    one = _lq_integral(x[:, 0].copy(), q, weights)
    assert isinstance(one, float)
    np.testing.assert_array_max_ulp(one, _lq_integral(x[:, 0].copy(), q, grid.weight), maxulp=1)


def _masked_phi1(z):
    """phi1 as two masked branches: the multiplier formula before the
    shared expm1."""
    out = np.empty_like(z)
    small = np.abs(z) < 1e-5
    out[small] = 1.0 + z[small] / 2.0 + z[small] ** 2 / 6.0
    out[~small] = np.expm1(z[~small]) / z[~small]
    return out


def _masked_phi2(z):
    out = np.empty_like(z)
    small = np.abs(z) < 1e-4
    out[small] = 0.5 + z[small] / 6.0 + z[small] ** 2 / 24.0
    out[~small] = (np.expm1(z[~small]) - z[~small]) / z[~small] ** 2
    return out


def _bits(x):
    return np.ascontiguousarray(x).view(np.int64)


def test_multipliers_equal_masked_phi_formulas(small_op, cubic_mode):
    st = _Stepper(small_op, cubic_mode)
    # z = -a at dt = 1: zero, +-1e-6, both sides of both Taylor thresholds
    # and a stiff mode
    z = np.array([0.0, 1e-6, -1e-6, 9.9e-6, -9.9e-6, 1.01e-5, -1.01e-5,
                  9.9e-5, -9.9e-5, 1.01e-4, -1.01e-4, -0.3, -1e3])
    st.a = -z
    with np.errstate(invalid="ignore"):  # the unused quotient is 0/0 at z = 0
        ez, dt_phi1, dt_phi2 = st.multipliers(1.0, "etdrk2")
        assert st.multipliers(1.0, "exponential_euler")[2] is None
        assert np.array_equal(_bits(ez), _bits(np.exp(z)))
        assert np.array_equal(_bits(dt_phi1), _bits(_masked_phi1(z)))
        assert np.array_equal(_bits(dt_phi2), _bits(_masked_phi2(z)))
        # a (k, 1) column of step sizes gives each row its own call's multipliers
        dts = [1.0, 0.5, 1e-3, 2e-6]
        stacked = st.multipliers(np.array(dts)[:, None], "etdrk2")
        for j, dt in enumerate(dts):
            for got, want in zip(stacked, st.multipliers(dt, "etdrk2")):
                assert np.array_equal(_bits(got[j]), _bits(want))


def _unfused_attempt(st, c, n0, dt, scheme):
    """A step-doubling attempt for one row taken one step at a time."""
    full = st.step(c, n0, st.multipliers(dt, scheme), scheme)
    half_mult = st.multipliers(0.5 * dt, scheme)
    mid = st.step(c, n0, half_mult, scheme)
    u_mid = st.values(mid)
    n_half = st.n_hat(u_mid)
    return full, mid, u_mid, n_half, st.step(mid, n_half, half_mult, scheme)


@pytest.mark.parametrize("scheme", ["etdrk2", "exponential_euler"])
@pytest.mark.parametrize("space", ["full_grid", "sine_matrix_sector", "rader_sector", "dense"])
def test_fused_attempt_equals_unfused_steps(space, scheme, small_op, well_op, cubic_mode):
    if space == "rader_sector":  # the half line of 800 nodes: half-length Rader
        op = assemble(OperatorSpec(kind="dirichlet_laplacian"),
                      build_grid(DomainSpec.interval(-20.0, 20.0), 1600))
    else:
        op = well_op if space == "dense" else small_op
    sector = _mirror_sector(op, (True,)) if space.endswith("sector") else None
    st = _Stepper(op, cubic_mode, sector)
    rows = [small_bump(op, amp).values for amp in (0.5, 3.0)]
    if sector is not None:
        rows = [sector.restrict(u) for u in rows]
    c = [st.to_coeffs(u) for u in rows]
    n0 = [st.n_hat(u) for u in rows]
    dts = [0.05, 1e-3]
    fused = st.attempt(c, n0, dts, scheme)
    for j, dt in enumerate(dts):
        for got, want in zip(fused, _unfused_attempt(st, c[j], n0[j], dt, scheme)):
            assert np.array_equal(_bits(got[j]), _bits(want))


def test_an_attempt_makes_eight_sector_transforms(monkeypatch):
    op, mode = _critical_box()
    calls = []
    for name in ("to_coeffs", "from_coeffs"):
        transform = getattr(_MirrorSector, name)

        def counted(self, x, transform=transform):
            calls.append(x.shape)
            return transform(self, x)

        monkeypatch.setattr(_MirrorSector, name, counted)
    # 1.2 times a Nehari projection on the critical_3d grid: rejected
    # attempts (dt_init 0.5 is too long) and accepted ones
    u0 = 1.2 * heatlab.nehari_projection(_box_bump(op), op, mode).projected
    traj = integrate(u0, op, mode, IntegratorConfig(t_max=30.0, dt_init=0.5, max_steps=6))
    assert traj.rejected >= 1 and traj.accepted >= 1 and traj.end_reason == "step_limit"
    # two to enter the sector; an accepted attempt makes 8 (a 2-row
    # stage, a 1-row values/n_hat/stage and the new state's values/n_hat),
    # a rejected one all but the last 2
    assert len(calls) == 2 + 8 * traj.accepted + 6 * traj.rejected
    # one (nodes, rows) stack per stage transform: the full and first half
    # steps' stage on the 7^3 sector
    assert calls.count((7**3, 2)) == 2 * (traj.accepted + traj.rejected)


@pytest.mark.parametrize("amp, end_reason", [(0.5, "t_max"), (3.0, "sup_cap")])
def test_energy_identity_residual_is_relative_on_blowup_rows(small_op, cubic_mode, amp,
                                                              end_reason):
    traj = integrate(small_bump(small_op, amp), small_op, cubic_mode,
                     IntegratorConfig(t_max=5.0, blowup_sup_cap=1e4))
    assert traj.end_reason == end_reason
    e, d = traj.column("energy"), traj.column("dissipation_cum")
    defect = np.abs(e + d - e[0])
    one_scale = float(np.max(defect) / max(abs(e[0]), 1.0))
    per_sample = max(x / max(abs(e[0]), abs(et), 1.0) for x, et in zip(defect, e))
    got = energy_identity_residual(traj)
    assert got == per_sample
    if end_reason == "t_max":
        # |E(t)| <= |E(0)| while dissipating: the one denominator, bit for bit
        assert np.all(np.abs(e) <= abs(e[0])) and got == one_scale
    else:
        # E(t) and the dissipation integral explode and cancel: against
        # |E(0)| alone their roundoff reads as a huge defect
        assert one_scale > 1e3 and got < 1e-3

"""Verdicts and certificate checks exercised on manufactured series."""

import math

import numpy as np
import pytest

import heatlab
from heatlab.diagnostics import (
    coercivity_check,
    concavity,
    invariance_check,
    linear_profile_smallness,
    negativity_gap_check,
    verdict,
)
from heatlab.evolution import Trajectory, TrajectorySample
from heatlab.variational import EquationMode, VariationalConstants


def make_traj(times, mode, *, mass=None, energy_norm=None, energy=None,
              nehari=None, cutoff=None, T_detect=None):
    n = len(times)
    mass = mass if mass is not None else [1.0] * n
    energy_norm = energy_norm if energy_norm is not None else [1.0] * n
    energy = energy if energy is not None else [1.0] * n
    nehari = nehari if nehari is not None else [1.0] * n
    samples = [
        TrajectorySample(
            t=float(times[i]),
            mass=float(mass[i]),
            energy_norm=float(energy_norm[i]),
            energy=float(energy[i]),
            nehari=float(nehari[i]),
            lp=1.0,
            sup=1.0,
            dissipation_cum=0.0,
            s_norm_cum=0.0,
            cutoff_mass=None if cutoff is None else {2.0: float(cutoff[i])},
        )
        for i in range(n)
    ]
    return Trajectory(samples=samples, mode=mode, T_detect=T_detect)


SUB = EquationMode.subcritical(3.0, 1)
CRIT = EquationMode.critical(3)
CONSTS = VariationalConstants(S=0.7, level=1.0, y_C=4.0, p=3.0, regime="subcritical",
                              method="manufactured")


def test_concavity_margin_positive_for_exploding_mass():
    # m(t) = (1-t)^(-2) integrates to I = A + t/(1-t); with A = 3 and
    # alpha = 0.5 the defect I'' I - 1.5 (I')^2 stays positive
    t = np.linspace(0.0, 0.9, 400)
    m = (1.0 - t) ** -2.0
    traj = make_traj(t, SUB, mass=m)
    rep = concavity(traj, A=3.0, alpha=0.5)
    assert rep.margin > 0.0
    assert math.isclose(rep.t_tilde, 3.0 / (0.5 * 1.0), rel_tol=1e-12)
    assert rep.R is None
    assert rep.I[0] == 3.0
    assert rep.I_second.size == t.size - 2


def test_concavity_margin_negative_for_steady_mass():
    t = np.linspace(0.0, 5.0, 100)
    traj = make_traj(t, SUB, mass=np.full_like(t, 2.0))
    rep = concavity(traj, A=1.0, alpha=0.25)
    # I'' = 0 so the defect is -(1+alpha) m^2
    assert math.isclose(rep.margin, -(1.25) * 4.0, rel_tol=1e-9)
    assert math.isclose(rep.t_tilde, 1.0 / (0.25 * 2.0), rel_tol=1e-12)


def test_concavity_exact_on_linear_mass():
    # linear I' makes both the trapezoid and the quadratic-fit second
    # derivative exact, so the defect matches the closed form to rounding
    t = np.array([0.0, 0.2, 0.5, 0.9, 1.4, 2.0])
    a_coef, b_coef = 2.0, 3.0
    m = a_coef + b_coef * t
    traj = make_traj(t, SUB, mass=m)
    rep = concavity(traj, A=1.0, alpha=0.1)
    i_exact = 1.0 + a_coef * t + 0.5 * b_coef * t**2
    expr_exact = b_coef * i_exact[1:-1] - 1.1 * m[1:-1] ** 2
    window = expr_exact[2 * expr_exact.size // 3 :]
    assert math.isclose(rep.margin, float(np.min(window)), rel_tol=1e-12)
    assert np.allclose(rep.I, i_exact, rtol=1e-13)


def test_concavity_validation():
    t = np.linspace(0.0, 1.0, 50)
    traj = make_traj(t, SUB)
    with pytest.raises(ValueError, match="A > 0"):
        concavity(traj, A=0.0)
    with pytest.raises(ValueError, match="A > 0"):
        concavity(traj, A=1.0, alpha=-1.0)
    short = make_traj(t[:4], SUB)
    with pytest.raises(ValueError, match="at least 5"):
        concavity(short, A=1.0)
    repeated = make_traj(np.concatenate([t[:10], t[9:]]), SUB)  # t[9] sampled twice
    with pytest.raises(ValueError, match="strictly increasing"):
        concavity(repeated, A=1.0)


def test_concavity_critical_needs_recorded_cutoff():
    t = np.linspace(0.0, 1.0, 50)
    traj = make_traj(t, CRIT)  # no cutoff channel recorded
    with pytest.raises(ValueError, match="cutoff radius R"):
        concavity(traj, A=1.0)
    with pytest.raises(ValueError, match="not recorded"):
        concavity(traj, A=1.0, R=2.0)
    grow = (1.0 - 0.5 * t) ** -2.0
    ok = make_traj(t, CRIT, mass=np.ones_like(t), cutoff=grow)
    rep = concavity(ok, A=3.0, alpha=0.3, R=2.0)
    # the cutoff channel, not the plain mass, drives the functional
    assert np.allclose(rep.I_prime, grow)
    assert rep.R == 2.0
    with pytest.raises(ValueError, match="not recorded"):
        concavity(ok, A=1.0, R=3.0)


def test_verdict_blowup_from_detection():
    traj = make_traj([0.0, 0.1, 0.2], SUB, T_detect=0.2)
    v = verdict(traj)
    assert v.kind == "BlowsUp"
    assert v.T_est == 0.2
    assert traj.verdict is v


def test_verdict_zero_data_dissipates():
    traj = make_traj([0.0, 1.0, 2.0], SUB, energy_norm=[0.0, 0.0, 0.0])
    v = verdict(traj)
    assert v.kind == "Dissipates"
    assert v.rate_stat == 0.0


def test_verdict_dissipates_with_decreasing_rate():
    t = np.concatenate([[0.0], np.geomspace(1.0, 1e6, 200)])
    en = np.concatenate([[1.0], t[1:] ** -0.6])
    traj = make_traj(t, SUB, energy_norm=en)
    v = verdict(traj)
    assert v.kind == "Dissipates"
    assert v.rate_stat is not None and v.rate_stat < 1.0
    # r = sqrt(t) en = t^{-0.1}: over the last decade the ratio is 10^{-0.05}
    assert math.isclose(v.rate_stat, 10.0**-0.05, rel_tol=1e-2)


def test_verdict_undecided_without_decay():
    t = np.linspace(0.0, 10.0, 50)
    traj = make_traj(t, SUB, energy_norm=np.ones_like(t))
    v = verdict(traj)
    assert v.kind == "Undecided"
    assert "decayed" in v.reason


def test_verdict_undecided_when_rate_grows():
    # en = t^{-0.4} decays below 1e-3 but sqrt(t) en = t^{0.1} increases
    t = np.concatenate([[0.0], np.geomspace(1.0, 1e9, 200)])
    en = np.concatenate([[1.0], t[1:] ** -0.4])
    traj = make_traj(t, SUB, energy_norm=en)
    v = verdict(traj)
    assert v.kind == "Undecided"
    assert v.rate_stat is not None and v.rate_stat > 1.0
    assert "not decreasing" in v.reason


def test_verdict_critical_skips_rate_monotonicity():
    # same series in the critical regime: the sqrt(t) gate is subcritical-only
    t = np.concatenate([[0.0], np.geomspace(1.0, 1e9, 200)])
    en = np.concatenate([[1.0], t[1:] ** -0.4])
    traj = make_traj(t, CRIT, energy_norm=en)
    v = verdict(traj)
    assert v.kind == "Dissipates"


def test_invariance_sign_preserved():
    t = np.linspace(0.0, 1.0, 20)
    below = make_traj(t, SUB, nehari=np.full_like(t, 0.5),
                      energy=np.full_like(t, 0.2))
    assert invariance_check(below, CONSTS) is True
    flipped = np.full_like(t, 0.5)
    flipped[12:] = -0.5
    flip = make_traj(t, SUB, nehari=flipped, energy=np.full_like(t, 0.2))
    assert invariance_check(flip, CONSTS) is False


def test_invariance_ignores_above_level_samples():
    t = np.linspace(0.0, 1.0, 10)
    j = np.full_like(t, 0.5)
    j[5:] = -3.0
    e = np.full_like(t, 0.2)
    e[5:] = 2.0  # above the level: those flips do not count
    traj = make_traj(t, SUB, nehari=j, energy=e)
    assert invariance_check(traj, CONSTS) is True


def test_invariance_band_rule():
    t = np.linspace(0.0, 1.0, 12)
    j = np.full_like(t, 0.5)
    e = np.full_like(t, 0.2)
    j[4:6] = 1e-12  # two grazing samples are fine
    ok = make_traj(t, SUB, nehari=j, energy=e)
    assert invariance_check(ok, CONSTS) is True
    j3 = j.copy()
    j3[4:7] = 1e-12  # a persistent stay on the manifold is not
    stuck = make_traj(t, SUB, nehari=j3, energy=e)
    assert invariance_check(stuck, CONSTS) is False


def test_coercivity_report():
    t = np.linspace(0.0, 1.0, 8)
    en = np.linspace(1.0, 0.5, 8)
    j = 0.3 * en**2
    j[3] = 0.2 * en[3] ** 2  # the weakest sample sets delta_hat
    traj = make_traj(t, SUB, energy_norm=en, nehari=j)
    rep = coercivity_check(traj, CONSTS)
    assert math.isclose(rep.delta_hat, 0.2, rel_tol=1e-12)
    assert math.isclose(rep.max_energy_sq, 1.0, rel_tol=1e-12)
    assert rep.below_y_C is True  # y_C = 4
    big = make_traj(t, SUB, energy_norm=3.0 * en, nehari=j)
    assert coercivity_check(big, CONSTS).below_y_C is False
    empty = make_traj(t, SUB, energy_norm=np.zeros_like(t))
    with pytest.raises(ValueError):
        coercivity_check(empty, CONSTS)


def test_negativity_gap():
    t = np.linspace(0.0, 1.0, 5)
    # level - E = 1 and p = 3: the gap requires J < -4
    deep = make_traj(t, SUB, nehari=np.full_like(t, -10.0),
                     energy=np.zeros_like(t))
    assert negativity_gap_check(deep, CONSTS) is True
    shallow = make_traj(t, SUB, nehari=np.full_like(t, -3.0),
                        energy=np.zeros_like(t))
    assert negativity_gap_check(shallow, CONSTS) is False


def _reference_checks(traj, consts):
    """Invariance, coercivity and the negativity gap, sample by sample in Python."""
    p = traj.mode.p
    marks, ratios, max_en_sq, gap = "", [], 0.0, True
    for s in traj.samples:
        en_sq = s.energy_norm**2
        max_en_sq = max(max_en_sq, en_sq)
        if s.energy_norm >= 1e-9:
            ratios.append(s.nehari / en_sq)
        gap = gap and s.nehari < -(p + 1.0) * (consts.level - s.energy)
        if s.energy >= consts.level or s.energy_norm == 0.0:
            marks += "0"
        elif abs(s.nehari) <= 1e-8 * en_sq:
            marks += "b"  # in the band around the Nehari manifold
        else:
            marks += "+" if s.nehari > 0 else "-"
    invariant = "bbb" not in marks and not ("+" in marks and "-" in marks)
    coercivity = (min(ratios), max_en_sq, max_en_sq < consts.y_C) if ratios else None
    return invariant, coercivity, gap


def test_checks_equal_a_per_sample_reference():
    rng = np.random.default_rng(11)
    x = np.abs(rng.standard_normal(20000)) + 0.5
    # norms whose square libm's pow (float.__pow__) and np.square round apart
    odd = x[np.array([v**2 for v in x.tolist()]) != x**2]
    assert odd.size > 0
    outcomes = set()
    for _ in range(300):
        n = int(rng.integers(3, 30))
        en = rng.choice(odd, n)
        en[rng.random(n) < 0.1] = 0.0
        sign = rng.choice([1.0, -1.0])
        scale = rng.choice([0.3 * sign, -0.3 * sign, 1e-9], n, p=[0.85, 0.03, 0.12])
        energy = rng.uniform(rng.choice([-1.0, 1.0]), 2.0, n)  # level 1: all above, or mixed
        traj = make_traj(np.arange(n), SUB, energy_norm=en, energy=energy,
                         nehari=scale * rng.uniform(0.5, 1.5, n) * en**2)
        invariant, coercivity, gap = _reference_checks(traj, CONSTS)
        assert invariance_check(traj, CONSTS) is invariant
        assert negativity_gap_check(traj, CONSTS) is gap
        if coercivity is None:
            with pytest.raises(ValueError):
                coercivity_check(traj, CONSTS)
        else:
            rep = coercivity_check(traj, CONSTS)
            assert (rep.delta_hat, rep.max_energy_sq, rep.below_y_C) == coercivity
        outcomes.add((invariant, gap))
    assert {inv for inv, _ in outcomes} == {gap for _, gap in outcomes} == {True, False}


@pytest.fixture(scope="module")
def box3_op():
    grid = heatlab.build_grid(heatlab.DomainSpec.box((-4.0,) * 3, (4.0,) * 3), 9)
    return heatlab.assemble(heatlab.OperatorSpec(kind="dirichlet_laplacian"), grid)


def test_linear_profile_single_mode_closed_form(box3_op):
    op = box3_op
    mode = EquationMode.critical(3)
    q = 2.0 * (mode.dim + 2.0) / (mode.dim - 2.0)
    k = 0
    amp = 0.7
    u0 = amp * op.eigenvector(k)
    mu = float(op.mu[k])
    t_end = 10.0 / op.mu_min
    eq_norm = heatlab.lp_norm(op.eigenvector(k), q)
    main = amp**q * eq_norm**q * (1.0 - math.exp(-q * mu * t_end)) / (q * mu)
    c_grid = op.grid.weight ** (1.0 / q - 0.5)
    tail = (c_grid * amp * math.exp(-mu * t_end)) ** q / (q * op.mu_min)
    expected = (main + tail) ** (1.0 / q)
    got = linear_profile_smallness(u0, op, mode)
    assert math.isclose(got, expected, rel_tol=1e-3)


def test_linear_profile_homogeneity(box3_op):
    mode = EquationMode.critical(3)
    rng = np.random.default_rng(7)
    u0 = heatlab.Field(rng.standard_normal(box3_op.grid.n_total), box3_op.grid)
    base = linear_profile_smallness(u0, box3_op, mode, n_slices=60)
    scaled = linear_profile_smallness(3.0 * u0, box3_op, mode, n_slices=60)
    assert math.isclose(scaled, 3.0 * base, rel_tol=1e-10)


def test_linear_profile_matches_per_time_semigroup(box3_op):
    op = box3_op
    mode = EquationMode.critical(3)
    q = 2.0 * mode.p_critical
    u0 = heatlab.Field(np.random.default_rng(9).standard_normal(op.grid.n_total), op.grid)
    for t_cap in (None, 2.5):
        t_end = 10.0 / op.mu_min if t_cap is None else t_cap
        ts = np.concatenate([[0.0], np.geomspace(1e-6 * t_end, t_end, 50)])
        vals = [heatlab.lp_norm(heatlab.apply_semigroup(op, float(t), u0), q) ** q for t in ts]
        l2_end = heatlab.lp_norm(heatlab.apply_semigroup(op, t_end, u0), 2.0)
        tail = (op.grid.weight ** (1.0 / q - 0.5) * l2_end) ** q / (q * op.mu_min)
        expected = (float(np.trapezoid(vals, ts)) + tail) ** (1.0 / q)
        assert linear_profile_smallness(u0, op, mode, t_cap=t_cap, n_slices=50) == expected


def test_linear_profile_of_an_overflowing_field_is_inf(box3_op):
    # |u|^10 of a 1e40 bump is past double range: the norm comes back inf,
    # not warned
    u0 = heatlab.field_from_function(box3_op.grid, lambda x: 1e40 * np.exp(-np.sum(x**2, axis=-1)))
    assert linear_profile_smallness(u0, box3_op, EquationMode.critical(3), n_slices=20) == math.inf


def test_linear_profile_mode_and_spectrum_guards(box3_op):
    rng = np.random.default_rng(8)
    u0 = heatlab.Field(rng.standard_normal(box3_op.grid.n_total), box3_op.grid)
    with pytest.raises(ValueError, match="critical"):
        linear_profile_smallness(u0, box3_op, EquationMode.subcritical(3.0, 1))
    with pytest.raises(ValueError, match="n_slices"):
        linear_profile_smallness(u0, box3_op, EquationMode.critical(3), n_slices=1)
    deep = heatlab.assemble(
        heatlab.OperatorSpec(
            kind="schrodinger",
            potential=heatlab.PotentialSpec(
                kind="tabulated_bounded",
                fn=lambda x: -50.0 * np.exp(-np.sum(x**2, axis=-1)),
            ),
        ),
        box3_op.grid,
    )
    assert deep.mu_min <= 0
    with pytest.raises(ValueError, match="positive spectrum"):
        linear_profile_smallness(u0, deep, EquationMode.critical(3))

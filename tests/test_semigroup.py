"""Heat propagators, fractional powers, kernel and decay verifiers."""

import math
import tracemalloc

import numpy as np
import pytest

import heatlab
from heatlab.grids import DomainSpec, Field, build_grid, field_from_function
from heatlab.operators import OperatorSpec, PotentialSpec, SpectralOperator, assemble
from heatlab.semigroup import (
    EstimateSpec,
    GaussReport,
    apply_power,
    apply_semigroup,
    decay_probe_family,
    default_decay_t_grid,
    free_gaussian_kernel,
    heat_kernel_column,
    smoothing_norm_2_to_inf,
    verify_gaussian_bound,
    verify_l2lq_decay,
    verify_spacetime,
)


@pytest.fixture(scope="module")
def wide_op():
    grid = build_grid(DomainSpec.interval(-30.0, 30.0), 1200)
    return assemble(OperatorSpec(kind="dirichlet_laplacian"), grid)


def random_field(op, seed=0):
    rng = np.random.default_rng(seed)
    return Field(rng.standard_normal(op.grid.n_total), op.grid)


def test_semigroup_law(small_op):
    f = random_field(small_op)
    a = apply_semigroup(small_op, 0.7, apply_semigroup(small_op, 0.3, f))
    b = apply_semigroup(small_op, 1.0, f)
    assert np.max(np.abs(a.values - b.values)) <= 1e-10 * np.max(np.abs(b.values) + 1e-30)


def test_semigroup_identity_at_zero(small_op):
    f = random_field(small_op, seed=1)
    g = apply_semigroup(small_op, 0.0, f)
    assert np.allclose(g.values, f.values, atol=1e-9)


def test_semigroup_contracts_l2(small_op):
    f = random_field(small_op, seed=2)
    n0 = heatlab.lp_norm(f, 2.0)
    for t in (0.01, 0.1, 1.0, 10.0):
        nt = heatlab.lp_norm(apply_semigroup(small_op, t, f), 2.0)
        assert nt <= n0 * (1.0 + 1e-12)


def test_shifted_semigroup_is_damped(small_op):
    f = random_field(small_op, seed=3)
    plain = apply_semigroup(small_op, 1.0, f)
    shifted = apply_semigroup(small_op, 1.0, f, shifted=True)
    assert np.allclose(shifted.values, math.exp(-1.0) * plain.values, atol=1e-12)


def test_power_composition(small_op):
    f = random_field(small_op, seed=4)
    a = apply_power(small_op, 0.5, apply_power(small_op, 0.5, f))
    b = apply_power(small_op, 1.0, f)
    assert np.max(np.abs(a.values - b.values)) <= 1e-10 * np.max(np.abs(b.values))


def test_half_power_gives_energy_norm(small_op):
    # || (1 + L)^(1/2) f ||_2 squared equals sum (1 + mu) c^2
    f = random_field(small_op, seed=5)
    g = apply_power(small_op, 1.0, f)  # (I + L)^(1/2) by default shift
    c = small_op.to_coeffs(f.values)
    expected = float(np.sum((1.0 + small_op.mu) * c * c))
    assert math.isclose(heatlab.lp_norm(g, 2.0) ** 2, expected, rel_tol=1e-10)


def test_homogeneous_power_needs_positive_spectrum(small_op):
    f = random_field(small_op, seed=6)
    g = apply_power(small_op, -1.0, f, homogeneous=True)
    assert np.all(np.isfinite(g.values))
    grid = small_op.grid

    def well(x):
        return -2.0 * np.exp(-np.sum(x * x, axis=-1))

    neg = assemble(
        OperatorSpec(
            kind="schrodinger",
            potential=PotentialSpec(kind="tabulated_bounded", fn=well, sign=-1),
        ),
        grid,
    )
    with pytest.raises(ValueError):
        apply_power(neg, -1.0, f, homogeneous=True)


def test_kernel_column_reproduces_semigroup(small_op):
    op = small_op
    y = op.grid.n_total // 3
    col = heat_kernel_column(op, 0.5, y)
    # applying the semigroup to a unit-mass bump at node y: value 1/w there
    bump = np.zeros(op.grid.n_total)
    bump[y] = 1.0 / op.grid.weight
    flowed = apply_semigroup(op, 0.5, Field(bump, op.grid))
    assert np.allclose(col.values, flowed.values, atol=1e-10)


def test_kernel_symmetry_and_positivity(small_op):
    op = small_op
    t = 0.8
    cols = [heat_kernel_column(op, t, y).values for y in (20, 50, 130)]
    assert math.isclose(cols[0][50], cols[1][20], rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(cols[1][130], cols[2][50], rel_tol=1e-9, abs_tol=1e-12)
    # the diffusive scale sqrt(2 t) is far from the walls at these nodes
    assert np.min(cols[1]) > -1e-12
    # mass under the kernel is at most one (Dirichlet loss at the walls)
    mass = op.grid.weight * float(np.sum(cols[1]))
    assert mass <= 1.0 + 1e-9
    assert mass > 0.99


def test_kernel_matches_free_gaussian(wide_op):
    # at t = 1 the center column of the truncated operator should track
    # (4 pi t)^(-1/2) exp(-x^2 / (4t)) to a fraction of a percent
    op = wide_op
    y = op.grid.n_total // 2
    col = heat_kernel_column(op, 1.0, y).values
    x = op.grid.coords()[:, 0]
    x0 = x[y]
    free = free_gaussian_kernel(1.0, np.abs(x - x0), 1)
    peak = free_gaussian_kernel(1.0, np.array([0.0]), 1)[0]
    assert math.isclose(peak, (4.0 * math.pi) ** -0.5, rel_tol=1e-14)
    mask = np.abs(x - x0) < 8.0
    rel = np.max(np.abs(col[mask] - free[mask])) / peak
    assert rel < 2e-2
    # Dirichlet truncation can only lose heat: the column sits below free,
    # up to discretization error measured against the peak
    assert np.all(col <= free + 2e-2 * peak)


def test_smoothing_norm_is_sharp_2_to_inf(small_op):
    op = small_op
    t = 0.3
    bound = smoothing_norm_2_to_inf(op, t)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        f = Field(rng.standard_normal(op.grid.n_total), op.grid)
        ratio = heatlab.lp_norm(apply_semigroup(op, t, f), math.inf) / heatlab.lp_norm(f, 2.0)
        worst = max(worst, ratio)
        assert ratio <= bound * (1.0 + 1e-10)
    # the bound is attained by the aligned probe, so random probes get close
    assert worst > 0.2 * bound


SMOOTHING_TIMES = np.geomspace(1e-4, 20.0, 40)


def test_smoothing_norm_array_matches_scalar_loop_dense(well_op):
    op = well_op
    assert op.order is None and op.grid.n_total == 400  # two row blocks, one partial
    for shifted in (False, True):
        got = smoothing_norm_2_to_inf(op, SMOOTHING_TIMES, shifted=shifted)
        assert isinstance(got, np.ndarray) and got.shape == SMOOTHING_TIMES.shape
        loop = np.array([smoothing_norm_2_to_inf(op, t, shifted=shifted) for t in SMOOTHING_TIMES])
        assert np.max(np.abs(got - loop) / loop) <= 1e-13
        # the whole-matrix formula, one time at a time
        shift = 1.0 if shifted else 0.0
        ref = np.array(
            [
                math.sqrt(
                    np.max((op.basis**2) @ np.exp(-2.0 * t * (op.mu + shift))) / op.grid.weight
                )
                for t in SMOOTHING_TIMES
            ]
        )
        assert np.max(np.abs(got - ref) / ref) <= 1e-13


def test_smoothing_norm_scalar_and_invalid_times(small_op, well_op):
    for op in (small_op, well_op):
        one = smoothing_norm_2_to_inf(op, 0.3)
        assert type(one) is float
        assert one == smoothing_norm_2_to_inf(op, np.array([0.3]))[0]
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                smoothing_norm_2_to_inf(op, bad)
            with pytest.raises(ValueError):
                smoothing_norm_2_to_inf(op, np.array([0.1, bad, 1.0]))
        with pytest.raises(ValueError):
            smoothing_norm_2_to_inf(op, np.ones((2, 2)))


def test_dense_smoothing_norm_builds_no_square_temporary():
    grid = build_grid(DomainSpec.interval(-20.0, 20.0), 1200)
    pot = PotentialSpec(kind="tabulated_bounded", fn=lambda x: -2.0 * np.exp(-x[..., 0] ** 2))
    op = assemble(OperatorSpec(kind="schrodinger", potential=pot), grid)
    assert op.order is None
    times = np.geomspace(1e-3, 10.0, 50)
    n = grid.n_total
    tracemalloc.start()
    try:
        smoothing_norm_2_to_inf(op, times, shifted=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a whole basis**2 alone would be n * n * 8 bytes
    assert peak < n * n * 8 / 2


def _decay_reference(op, est, shifted, probes):
    """verify_l2lq_decay's slopes with one apply_semigroup per (probe, t)."""
    t_grid = np.asarray(est.t_grid, dtype=float)
    beta = 0.5 * (0.5 - (0.0 if est.r == math.inf else 1.0 / est.r))
    slopes, worst = [], np.zeros_like(t_grid)
    for f in probes:
        norms = np.array(
            [heatlab.lp_norm(apply_semigroup(op, t, f, shifted=shifted), est.r) for t in t_grid]
        ) / max(heatlab.lp_norm(f, 2.0), 1e-300)
        norms = np.maximum(norms, 1e-300)
        slopes.append(float(np.polyfit(np.log(t_grid), np.log(norms), 1)[0]))
        worst = np.maximum(worst, norms)
    shift = 1.0 if shifted else 0.0
    if est.r == math.inf:
        worst = np.maximum(worst, smoothing_norm_2_to_inf(op, t_grid, shifted=shifted))
    else:
        worst = np.maximum(worst, np.exp(-t_grid * (op.mu_min + shift)))
    slope = float(np.polyfit(np.log(t_grid), np.log(worst), 1)[0])
    return slope, float(np.max(worst * t_grid**beta)), tuple(slopes)


def test_decay_verifier_matches_per_time_semigroup(small_op, well_op):
    for op, shifted in ((small_op, False), (well_op, True)):
        probes = decay_probe_family(op)
        for r in (2.0, math.inf):
            est = EstimateSpec(r=r, t_grid=np.geomspace(0.1, 5.0, 8))
            rep = verify_l2lq_decay(op, est, shifted=shifted, probes=probes)
            slope, prefactor, probe_slopes = _decay_reference(op, est, shifted, probes)
            # one batched product sums in another order than per-time matvecs
            assert rep.slope == pytest.approx(slope, rel=1e-12, abs=0)
            assert rep.prefactor == pytest.approx(prefactor, rel=1e-12, abs=0)
            assert rep.probe_slopes == pytest.approx(probe_slopes, rel=1e-12, abs=0)


def test_spacetime_identity_exact(small_op):
    op = small_op
    rng = np.random.default_rng(12)
    for _ in range(10):
        c = rng.standard_normal(op.n_modes)
        f = Field(op.from_coeffs(c), op.grid)
        ratio = verify_spacetime(op, f)
        assert abs(ratio - 1.0 / math.sqrt(2.0)) <= 1e-10


def test_spacetime_zero_field(small_op):
    assert verify_spacetime(small_op, heatlab.zero_field(small_op.grid)) == 0.0


def test_spacetime_needs_positive_gap(small_op):
    grid = small_op.grid

    def well(x):
        return -2.0 * np.exp(-np.sum(x * x, axis=-1))

    neg = assemble(
        OperatorSpec(
            kind="schrodinger",
            potential=PotentialSpec(kind="tabulated_bounded", fn=well, sign=-1),
        ),
        grid,
    )
    with pytest.raises(ValueError):
        verify_spacetime(neg, random_field(neg, seed=13))


def test_decay_verifier_default_window(small_op):
    rep = verify_l2lq_decay(small_op, EstimateSpec(r=math.inf))
    assert rep.passed
    assert rep.target_slope == -0.25
    rep2 = verify_l2lq_decay(small_op, EstimateSpec(r=2.0))
    assert rep2.passed
    assert rep2.target_slope == 0.0
    assert len(rep.probe_slopes) == 10


def test_decay_verifier_explicit_window_sees_quarter_rate(wide_op):
    # on the early window the truncated line behaves freely and the 2 -> inf
    # norm really decays like t^(-1/4)
    est = EstimateSpec(r=math.inf, t_grid=tuple(np.geomspace(0.5, 5.0, 9)))
    rep = verify_l2lq_decay(wide_op, est)
    assert rep.passed
    assert abs(rep.slope - (-0.25)) < 0.05


def test_estimate_spec_validation():
    with pytest.raises(ValueError):
        EstimateSpec(r=1.5)


def test_shifted_decay_for_class_a_operator(small_op):
    grid = small_op.grid

    def well(x):
        return -2.0 * np.exp(-np.sum(x * x, axis=-1))

    neg = assemble(
        OperatorSpec(
            kind="schrodinger",
            potential=PotentialSpec(kind="tabulated_bounded", fn=well, sign=-1),
        ),
        grid,
    )
    # e^{-t(I + L)} with 1 + mu_min > 0 still ends up bounded on the window
    assert 1.0 + neg.mu_min > 0
    est = EstimateSpec(r=math.inf, t_grid=tuple(np.geomspace(0.1, 2.0, 7)))
    rep = verify_l2lq_decay(neg, est, shifted=True)
    assert rep.passed


def test_probe_family_shapes(small_op):
    probes = decay_probe_family(small_op)
    assert len(probes) == 10
    for f in probes:
        assert f.values.shape == (small_op.grid.n_total,)


def test_default_t_grid_spans_gap_scale(small_op):
    ts = default_decay_t_grid(small_op)
    gap = 1.0 / small_op.mu_min
    assert ts[0] == pytest.approx(gap / 10.0)
    assert ts[-1] == pytest.approx(gap)


def test_gaussian_bound_on_free_window(wide_op):
    times = np.geomspace(0.25, 4.0, 5)
    rep = verify_gaussian_bound(wide_op, times)
    assert rep.max_violation <= 1.05
    assert rep.c > 0 and rep.C > 0
    # the fitted decay rate should resemble the free 1/(4t)
    assert 2.0 < rep.c < 8.0


def test_gaussian_bound_makes_one_transform_each_way(monkeypatch, wide_op, well_op):
    calls = {"to_coeffs": 0, "from_coeffs": 0}
    for name in calls:
        original = getattr(SpectralOperator, name)

        def counting(self, values, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, values)

        monkeypatch.setattr(SpectralOperator, name, counting)
    for op in (wide_op, well_op):
        calls.update(to_coeffs=0, from_coeffs=0)
        verify_gaussian_bound(op, np.geomspace(0.25, 4.0, 5))  # 5 times x 6 columns
        assert calls == {"to_coeffs": 1, "from_coeffs": 1}, op.order is None


def _gaussian_reference(op, times):
    """verify_gaussian_bound's report with one apply_semigroup per (t, y)."""
    coords = op.grid.coords()
    cols = np.linspace(0, op.grid.n_total - 1, 6).astype(int)
    ts, ss, ks = [], [], []
    for t in times:
        for y in cols:
            unit = np.zeros(op.grid.n_total)
            unit[y] = 1.0
            kern = apply_semigroup(op, t, Field(unit, op.grid)).values / op.grid.weight
            mask = kern > 1e-12 * max(np.max(kern), 1e-300)
            ts.append(np.full(mask.sum(), t))
            ss.append(np.sum((coords - coords[y]) ** 2, axis=1)[mask])
            ks.append(kern[mask])
    t_all, s_all, k_all = (np.concatenate(a) for a in (ts, ss, ks))
    z = np.log(k_all) + 0.5 * op.grid.dim * np.log(t_all)
    x = s_all / t_all
    train = slice(0, None, 2)
    a = np.stack([np.ones_like(x[train]), -x[train]], axis=1)
    inv_c = max(np.linalg.lstsq(a, z[train], rcond=None)[0][1], 1e-12)
    log_c0 = float(np.max(z[train] + inv_c * x[train]))
    violation = float(np.max(np.exp(z - (log_c0 - inv_c * x))))
    return GaussReport(c=float(1.0 / inv_c), C=float(math.exp(log_c0)),
                       max_violation=violation, n_samples=int(t_all.size))


def test_gaussian_bound_matches_per_column_semigroup(wide_op):
    # structured path: stacked transforms equal single ones bit for bit
    assert wide_op.order is not None
    times = np.geomspace(0.25, 4.0, 5)
    assert verify_gaussian_bound(wide_op, times) == _gaussian_reference(wide_op, times)


def test_dense_kernel_column_matches_basis_formula(well_op):
    op = well_op
    assert op.order is None
    for t in (0.05, 1.0, 20.0):
        for y in (0, 137, op.grid.n_total - 1):
            col = heat_kernel_column(op, t, y).values
            ref = op.basis @ (np.exp(-t * op.mu) * op.basis[y]) / op.grid.weight
            assert np.max(np.abs(col - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_kernel_times_must_be_positive(small_op):
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="kernel time must be > 0"):
            heat_kernel_column(small_op, bad, 5)
        with pytest.raises(ValueError, match="kernel time must be > 0"):
            verify_gaussian_bound(small_op, [0.5, bad, 1.0])

"""Heat propagators, kernel columns and decay verifiers."""

import math
import tracemalloc

import numpy as np
import pytest

import heatlab
import heatlab.semigroup as semigroup
from heatlab.grids import DomainSpec, Field, build_grid, field_from_function
from heatlab.operators import (
    _ROW_BLOCK,
    OperatorSpec,
    PotentialSpec,
    SpectralOperator,
    _live_lengths,
    assemble,
)
from heatlab.semigroup import (
    _MOMENTS,
    EstimateSpec,
    GaussReport,
    _decay_table,
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
from heatlab.variational import _BOUND_T_MIN, _BOUND_TIMES


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


@pytest.fixture(scope="module")
def odd_well_op():
    """The well_op potential at an odd n, so on one unfolded block."""
    grid = build_grid(DomainSpec.interval(-20.0, 20.0), 401)
    pot = PotentialSpec(kind="tabulated_bounded", fn=lambda x: -2.0 * np.exp(-x[..., 0] ** 2))
    return assemble(OperatorSpec(kind="schrodinger", potential=pot), grid)


@pytest.fixture(scope="module")
def hardy_op():
    """The certify Hardy operator: 8 folded blocks of 216."""
    grid = build_grid(DomainSpec.box((-5.0,) * 3, (5.0,) * 3), 12)
    pot = PotentialSpec(kind="inverse_power", alpha=2.0, coupling=0.25, sign=-1)
    return assemble(OperatorSpec(kind="schrodinger", potential=pot), grid)


def _untruncated_from_coeffs(op, coeffs):
    """The dense from_coeffs as one batched product over every mode of every block."""
    scattered = np.empty_like(coeffs)
    scattered[op.order] = coeffs
    blocks = op.basis @ scattered.reshape(op.basis.shape[:2] + (-1,))
    out = (op._unfold_matrix @ blocks.reshape(op.n_modes, -1)).reshape(coeffs.shape)
    return out / math.sqrt(op.grid.weight * op.basis.shape[0])


def _node_basis(op):
    """The node-order orthonormal eigenvectors, one per column, in mu order."""
    return _untruncated_from_coeffs(op, np.eye(op.n_modes)) * math.sqrt(op.grid.weight)


def _underflow_times(op, shifted):
    """Unsorted times, duplicates on both sides of the top modes' underflow edge.

    Shifted, they add a time at which a whole parity block has underflowed
    while the lowest mode lives (where there are two blocks or more), and
    one at which every mode has.
    """
    rate = op.mu + (1.0 if shifted else 0.0)
    edge = 372.5 / rate[-1]  # e^{-2 t rate} underflows on the top modes past it
    times = edge * np.array([3.0, 0.01, 1.0, 20.0, 1.0, 0.5, 3.0, 1.02, 1e-4])
    if shifted:
        by_block = np.empty(op.n_modes)
        by_block[op.order] = rate
        lowest = np.sort(by_block.reshape(op.basis.shape[:2])[:, 0])
        if lowest.size > 1:
            times = np.r_[times, 372.5 / math.sqrt(lowest[0] * lowest[1])]
        times = np.r_[times, 1e4 / rate[0]]
    return times


def _head_edge(op):
    """t_h = 1 / (mu_max - mu_min), the last time _dense_max_row_sq's head covers."""
    return 1.0 / (op.mu[-1] - op.mu[0])


def _edge_times(op):
    """Just below, at and just above the head edge t_h: three times, so no head."""
    t_h = _head_edge(op)
    return np.array([np.nextafter(t_h, 0.0), t_h, np.nextafter(t_h, 1.0)])


def _head_times(op):
    """More than J head times, unsorted, with duplicates and the edge times among them."""
    t_h = _head_edge(op)
    head = t_h * np.geomspace(1e-9, 1.0, _MOMENTS + 4)
    tail = t_h * np.array([1.5, 2.0, 2.0, 40.0, 1e3])
    times = np.r_[head, head[::5], _edge_times(op), 0.5 * t_h, tail]
    assert np.count_nonzero(times <= t_h) > _MOMENTS
    return np.random.default_rng(7).permutation(times)


def test_smoothing_norm_array_matches_scalar_loop_dense(well_op, odd_well_op, hardy_op):
    # two folded blocks of 200 rows; one block of two mode blocks, one partial;
    # eight folded blocks of 216
    assert well_op.basis.shape == (2, 200, 200) and odd_well_op.basis.shape == (1, 401, 401)
    assert hardy_op.basis.shape == (8, 216, 216)
    for op in (well_op, odd_well_op, hardy_op):
        q = _node_basis(op)
        for shifted in (False, True):
            rate = op.mu + (1.0 if shifted else 0.0)
            underflow = _underflow_times(op, shifted)
            for times in (SMOOTHING_TIMES, underflow, _edge_times(op), _head_times(op)):
                got = smoothing_norm_2_to_inf(op, times, shifted=shifted)
                assert isinstance(got, np.ndarray) and got.shape == times.shape
                loop = np.array([smoothing_norm_2_to_inf(op, t, shifted=shifted) for t in times])
                assert np.all(np.abs(got - loop) <= 1e-13 * loop)
                # the whole node-order formula, one time at a time, in input order
                ref = np.array(
                    [
                        math.sqrt(np.max((q**2) @ np.exp(-2.0 * t * rate)) / op.grid.weight)
                        for t in times
                    ]
                )
                assert np.all(np.abs(got - ref) <= 1e-14 * ref)  # 0 where every mode is dead


def test_smoothing_norm_head_needs_more_than_j_times(monkeypatch, well_op, odd_well_op, hardy_op):
    # with J head times or fewer every time has its own factor column
    for op in (well_op, odd_well_op, hardy_op):
        t_h = _head_edge(op)
        tail = t_h * np.geomspace(1.5, 100.0, 6)
        for n_head in (1, _MOMENTS // 2, _MOMENTS):
            times = np.r_[tail[:3], t_h * np.geomspace(0.01, 1.0, n_head), tail[3:]]
            assert np.count_nonzero(times <= t_h) == n_head
            for shifted in (False, True):
                got = smoothing_norm_2_to_inf(op, times, shifted=shifted)
                with monkeypatch.context() as m:
                    m.setattr(semigroup, "_MOMENTS", 10**9)  # a head no call reaches
                    ref = smoothing_norm_2_to_inf(op, times, shifted=shifted)
                assert np.array_equal(got, ref)


def test_decay_table_has_no_subnormal_factor():
    tiny = np.finfo(float).tiny
    rate = np.linspace(-3.0, 800.0, 4001)
    times = np.array([0.0, 0.5, 0.9, 0.93, 0.95, 1.0, 1.2])
    ref = np.exp(np.multiply.outer(rate, -times))
    assert np.any((ref > 0.0) & (ref < tiny))  # exp alone makes subnormals here
    table = _decay_table(rate, times)
    assert not np.any((table > 0.0) & (table < tiny))
    normal = ref >= tiny
    assert np.array_equal(table[normal], ref[normal]) and np.all(table[~normal] == 0.0)
    out = np.empty((rate.size, times.size + 2))
    assert _decay_table(rate, times, out=out[:, 2:]).base is out
    assert np.array_equal(out[:, 2:], table)


def test_subnormal_factors_move_only_results_at_the_floor(well_op, hardy_op):
    tiny = np.finfo(float).tiny
    rng = np.random.default_rng(5)
    for op in (well_op, hardy_op):
        q = _node_basis(op)
        c = rng.standard_normal((op.n_modes, 2))
        values = op.from_coeffs(c)  # the fields with coefficients c
        for shifted in (False, True):
            rate = op.mu + (1.0 if shifted else 0.0)
            # e^{-720} is subnormal: at t the top modes' factors are, the rest normal
            t = 720.0 / rate[-1]
            factors = np.exp(-t * rate)
            assert np.any((factors > 0.0) & (factors < tiny)) and factors[0] >= tiny
            flow = next(semigroup._semigroup_orbit(op, values, (t,), shifted))[:, 0]
            ref = _untruncated_from_coeffs(op, factors[:, None] * c)
            assert np.max(np.abs(flow - ref)) <= 1e-14 * np.max(np.abs(ref))
            norm = smoothing_norm_2_to_inf(op, t / 2.0, shifted=shifted)
            ref = math.sqrt(np.max((q**2) @ factors) / op.grid.weight)
            assert abs(norm - ref) <= 1e-14 * ref
        # shifted, every factor is below tiny and some are not zero: the results are 0
        rate = op.mu + 1.0
        t = 720.0 / rate[0]
        assert np.all(np.exp(-t * rate) < tiny) and np.exp(-t * rate[0]) > 0.0
        assert smoothing_norm_2_to_inf(op, t / 2.0, shifted=True) == 0.0
        assert not np.any(next(semigroup._semigroup_orbit(op, values, (t,), True)))


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
    assert op.basis.shape == (2, 600, 600)
    times = np.geomspace(1e-3, 10.0, 50)
    n = grid.n_total
    tracemalloc.start()
    try:
        smoothing_norm_2_to_inf(op, times, shifted=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a whole basis**2 alone would be n * n * 8 / 2 bytes
    assert peak < n * n * 8 / 2


def test_live_lengths_end_at_the_last_nonzero_row():
    blocks = np.zeros((3, 4, 2))
    blocks[0, :2, 0] = 1.0  # a prefix
    blocks[0, 3, 1] = -1.0  # a last row
    blocks[1, 1, 0] = 2.0  # a zero before it counts as live
    blocks[2, 0, 1] = math.nan  # live, not zero
    assert _live_lengths(blocks).tolist() == [[2, 4], [2, 0], [0, 1]]


def test_from_coeffs_live_prefix_matches_untruncated_product(well_op, odd_well_op, hardy_op):
    # the 1-d folded well (unshifted it is class A: mu_1 < 0, so its head
    # decays grow), the odd well on one unfolded block, the 3-d Hardy op
    rng = np.random.default_rng(3)
    for op, n_blocks in ((well_op, 2), (odd_well_op, 1), (hardy_op, 8)):
        assert op.basis.shape[0] == n_blocks
        size = op.basis.shape[1]
        c = rng.standard_normal((op.n_modes, 3))
        dead_block = c.copy()
        dead_block[op.order // size == n_blocks - 1] = 0.0  # the last block all dead
        edge = 745.0 / op.mu[-1]  # e^{-t mu} underflows on the top modes past it
        truncated = 0
        for shifted in (False, True):
            rate = op.mu + float(shifted)
            for t in (0.0, 0.5 * edge, edge, 1.5 * edge, 20.0 * edge):
                for coeffs in (c, dead_block):
                    stack = np.exp(-t * rate)[:, None] * coeffs
                    scattered = np.empty_like(stack)
                    scattered[op.order] = stack
                    live = np.max(_live_lengths(scattered.reshape(n_blocks, size, -1)), axis=1)
                    truncated += int(np.any(live < size))
                    for x in (stack, stack[:, 0]):
                        got, ref = op.from_coeffs(x), _untruncated_from_coeffs(op, x)
                        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert truncated >= 5
        assert np.array_equal(op.from_coeffs(np.zeros((op.n_modes, 2))), np.zeros((op.n_modes, 2)))


def test_dense_smoothing_norm_buffers_on_the_sobolev_grid():
    grid = build_grid(DomainSpec.interval(-20.0, 20.0), 1200)
    pot = PotentialSpec(kind="tabulated_bounded", fn=lambda x: -2.0 * np.exp(-x[..., 0] ** 2))
    op = assemble(OperatorSpec(kind="schrodinger", potential=pot), grid)
    n_blocks, size, _ = op.basis.shape
    assert n_blocks == 2
    # sobolev_bound_from_semigroup's time grid
    t_max = 40.0 / (1.0 + op.mu_min)
    times = np.exp(np.linspace(math.log(_BOUND_T_MIN), math.log(t_max), _BOUND_TIMES))
    n, n_t = grid.n_total, times.size
    tracemalloc.start()
    try:
        smoothing_norm_2_to_inf(op, times, shifted=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the factor and moment columns, two boolean masks of them, the squares,
    # the table of row sums and the product buffer
    n_head = np.count_nonzero(times <= 1.0 / (op.mu[-1] - op.mu[0]))
    assert n_head > _MOMENTS
    cols = n_t - n_head + _MOMENTS
    buffers = 8 * n * cols + 2 * n * cols + 8 * size * _ROW_BLOCK + 2 * 8 * size * cols
    # no more than the row-block kernel's decay table, masks, squares and sums
    assert buffers <= 8 * n * n_t + 2 * n * n_t + 8 * _ROW_BLOCK * size + 2 * 8 * _ROW_BLOCK * n_t
    assert peak <= buffers + 64 * 1024


def test_growing_semigroup_ends_in_named_outcome(well_op):
    # unshifted, the class-A well grows like e^{0.955 t}
    op = well_op
    assert op.assumption_class == "A" and op.mu_min < -0.9
    with pytest.raises(ValueError, match=r"semigroup grows past double range at t = 1e\+06$"):
        smoothing_norm_2_to_inf(op, 1e6)
    with pytest.raises(ValueError, match=r"semigroup grows past double range at t = 1e\+06$"):
        heat_kernel_column(op, 1e6, 200)
    with pytest.raises(ValueError, match="semigroup grows past double range"):
        verify_l2lq_decay(op, EstimateSpec(r=2.0))  # the default window for mu_1 < 0
    # the norm squares the growth, so it leaves the range at half the kernel's time
    with pytest.raises(ValueError, match=r"at t = 500$"):
        smoothing_norm_2_to_inf(op, np.array([1e3, 10.0, 500.0, 1e6]))
    assert np.isfinite(smoothing_norm_2_to_inf(op, 371.0))
    assert np.max(heat_kernel_column(op, 500.0, 200).values) > 1e200
    with pytest.raises(ValueError, match=r"at t = 800$"):
        heat_kernel_column(op, 800.0, 200)
    assert smoothing_norm_2_to_inf(op, 1e6, shifted=True) == 0.0


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


def test_decay_verifier_refuses_probes_off_the_operator_grid(monkeypatch, small_op):
    # sin(pi x) on (0, 1) at the operator's node count: its values alone
    # would stack and run against the (-20, 20) operator
    other = build_grid(DomainSpec.interval(0.0, 1.0), small_op.grid.n_total)
    stray = field_from_function(other, lambda x: np.sin(math.pi * x[..., 0]))
    probes = decay_probe_family(small_op)[:3] + [stray]
    seen = []
    to_coeffs = SpectralOperator.to_coeffs
    monkeypatch.setattr(
        SpectralOperator, "to_coeffs", lambda self, v: seen.append(v) or to_coeffs(self, v)
    )
    for r in (2.0, math.inf):
        with pytest.raises(ValueError, match="^field and operator live on different grids$"):
            verify_l2lq_decay(small_op, EstimateSpec(r=r), probes=probes)
    assert seen == []  # refused before any transform
    # an equal grid built again is the operator's grid
    same = build_grid(DomainSpec.interval(-20.0, 20.0), small_op.grid.n_total)
    assert same is not small_op.grid
    bump = field_from_function(same, lambda x: np.exp(-x[..., 0] ** 2))
    assert verify_l2lq_decay(small_op, EstimateSpec(r=math.inf), probes=probes[:3] + [bump]).passed


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
        assert calls == {"to_coeffs": 1, "from_coeffs": 1}, op.basis.shape


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
    assert wide_op.basis.size == 0
    times = np.geomspace(0.25, 4.0, 5)
    assert verify_gaussian_bound(wide_op, times) == _gaussian_reference(wide_op, times)


def test_dense_kernel_column_matches_basis_formula(well_op):
    op = well_op
    q = _node_basis(op)
    for t in (0.05, 1.0, 20.0):
        for y in (0, 137, op.grid.n_total - 1):
            col = heat_kernel_column(op, t, y).values
            ref = q @ (np.exp(-t * op.mu) * q[y]) / op.grid.weight
            assert np.max(np.abs(col - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_kernel_times_must_be_positive(small_op):
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="kernel time must be > 0"):
            heat_kernel_column(small_op, bad, 5)
        with pytest.raises(ValueError, match="kernel time must be > 0"):
            verify_gaussian_bound(small_op, [0.5, bad, 1.0])


def test_folded_kernel_has_no_mirror_image():
    # the certify well: the fold computes the kernel between a node and its
    # mirror as a difference of the even and odd blocks' semigroup diagonals,
    # so an inconsistency between the blocks would show as a mirror image of
    # the column (1.1e-12 of its maximum with a divide-and-conquer eigensolver)
    grid = build_grid(DomainSpec.interval(-20.0, 20.0), 3200)
    pot = PotentialSpec(kind="tabulated_bounded", fn=lambda x: -2.0 * np.exp(-x[..., 0] ** 2))
    op = assemble(OperatorSpec(kind="schrodinger", potential=pot), grid)
    assert op.basis.shape == (2, 1600, 1600)
    col = heat_kernel_column(op, 0.25, 639).values  # x = -12; its mirror is x = 12
    # the true kernel across the distance 24 at t = 0.25 is exp(-576)
    assert np.max(np.abs(col[1600:])) <= 1e-13 * np.max(col)

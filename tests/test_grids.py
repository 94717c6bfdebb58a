"""Grids, fields and quadrature norms."""

import math

import numpy as np
import pytest

import heatlab
from heatlab.grids import DomainSpec, Field, _lr_norms, build_grid, field_from_function


def test_interval_spacing_and_nodes():
    grid = build_grid(DomainSpec.interval(0.0, 3.0), 2)
    assert grid.h == (1.0,)
    assert np.allclose(grid.axis_nodes(0), [1.0, 2.0])
    assert grid.n_total == 2
    assert grid.weight == 1.0


def test_weight_sums_to_covered_volume():
    grid = build_grid(DomainSpec.box((0.0, -1.0), (2.0, 1.0)), (5, 7))
    total = grid.weight * grid.n_total
    covered = (5 * grid.h[0]) * (7 * grid.h[1])
    assert math.isclose(total, covered, rel_tol=1e-14)
    assert math.isclose(total, grid.covered_volume, rel_tol=1e-14)
    # covered volume approaches the domain volume from below as n grows
    assert total < 4.0
    fine = build_grid(DomainSpec.box((0.0, -1.0), (2.0, 1.0)), (200, 200))
    assert fine.covered_volume > total


def test_coords_shape_and_order():
    grid = build_grid(DomainSpec.box((0.0, 0.0), (1.0, 1.0)), (3, 4))
    xy = grid.coords()
    assert xy.shape == (12, 2)
    # C order: the second axis varies fastest
    assert np.allclose(xy[0], [grid.axis_nodes(0)[0], grid.axis_nodes(1)[0]])
    assert np.allclose(xy[1], [grid.axis_nodes(0)[0], grid.axis_nodes(1)[1]])
    assert np.allclose(xy[4], [grid.axis_nodes(0)[1], grid.axis_nodes(1)[0]])


def test_domain_validation():
    with pytest.raises(ValueError):
        DomainSpec.interval(1.0, 1.0)
    with pytest.raises(ValueError):
        DomainSpec(kind="interval", lower=(0.0, 0.0), upper=(1.0, 1.0))
    with pytest.raises(ValueError):
        DomainSpec(kind="halfline_truncated", lower=(1.0,), upper=(2.0,))
    with pytest.raises(ValueError):
        DomainSpec.interval(0.0, math.inf)
    with pytest.raises(ValueError):
        build_grid(DomainSpec.interval(0.0, 1.0), 1)


def test_quadrature_exact_for_linear():
    # interior nodes are midpoints of their cells, so composite midpoint
    # quadrature integrates degree <= 1 exactly over the covered region
    grid = build_grid(DomainSpec.interval(0.0, 2.0), 57)
    f = field_from_function(grid, lambda x: 3.0 * x[..., 0] + 1.0)
    measured = grid.weight * float(np.sum(f.values))
    a = 0.5 * grid.h[0]
    b = 2.0 - 0.5 * grid.h[0]
    exact = 1.5 * (b * b - a * a) + (b - a)
    assert math.isclose(measured, exact, rel_tol=1e-13)


def test_field_arithmetic_and_immutability(small_op):
    grid = small_op.grid
    f = field_from_function(grid, lambda x: np.sin(x[..., 0]))
    g = field_from_function(grid, lambda x: np.cos(x[..., 0]))
    h = 2.0 * f + g - f
    assert np.allclose(h.values, f.values + g.values)
    with pytest.raises(ValueError):
        f.values[0] = 1.0
    with pytest.raises(ValueError):
        Field(np.array([1.0, np.nan]), build_grid(DomainSpec.interval(0.0, 1.0), 2))
    with pytest.raises(ValueError):
        Field(np.ones(3), build_grid(DomainSpec.interval(0.0, 1.0), 2))


def test_field_cross_grid_rejected(small_op, pi_op):
    f = heatlab.zero_field(small_op.grid)
    g = heatlab.zero_field(pi_op.grid)
    with pytest.raises(ValueError):
        _ = f + g


def test_lp_norms_against_direct_sums(small_op):
    grid = small_op.grid
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(grid.n_total)
    f = Field(vals, grid)
    w = grid.weight
    assert math.isclose(
        heatlab.lp_norm(f, 2.0), math.sqrt(w * float(np.sum(vals**2))), rel_tol=1e-14
    )
    assert math.isclose(
        heatlab.lp_norm(f, 3.5),
        (w * float(np.sum(np.abs(vals) ** 3.5))) ** (1.0 / 3.5),
        rel_tol=1e-14,
    )
    assert heatlab.lp_norm(f, math.inf) == np.max(np.abs(vals))
    with pytest.raises(ValueError):
        heatlab.lp_norm(f, 0.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lp_norm_of_a_large_field_is_finite(small_op):
    # |u|^10 is past double range at 1e40, yet the norm is about 9.4e39
    gauss = field_from_function(small_op.grid, lambda x: np.exp(-x[..., 0] ** 2))
    big = heatlab.lp_norm(1e40 * gauss, 10.0)
    assert math.isfinite(big)
    assert math.isclose(big, 1e40 * heatlab.lp_norm(gauss, 10.0), rel_tol=1e-14)
    # the node sum of a resolved Gaussian is close to its integral
    assert math.isclose(big, 1e40 * (math.pi / 10.0) ** 0.05, rel_tol=1e-9)


def test_column_norms_match_lp_norm(small_op):
    grid = small_op.grid
    rng = np.random.default_rng(9)
    stack = rng.standard_normal((grid.n_total, 4)) * np.array([1.0, 1e-30, 1e30, 0.0])
    for r in (2.0, 10.0, math.inf):
        norms = _lr_norms(stack, r, grid.weight)
        assert norms.shape == (4,)
        for col, norm in zip(stack.T, norms):
            assert math.isclose(norm, heatlab.lp_norm(Field(col, grid), r), rel_tol=1e-14)


def test_inner_product_matches_l2_norm(small_op):
    grid = small_op.grid
    rng = np.random.default_rng(8)
    f = Field(rng.standard_normal(grid.n_total), grid)
    ip = heatlab.inner_product(f, f)
    assert math.isclose(ip, heatlab.lp_norm(f, 2.0) ** 2, rel_tol=1e-13)


def test_holder_inequality_random_fields(small_op):
    # |<f, g>| <= ||f||_p ||g||_q with 1/p + 1/q = 1
    grid = small_op.grid
    rng = np.random.default_rng(42)
    for _ in range(1000):
        p = float(rng.uniform(1.05, 10.0))
        q = p / (p - 1.0)
        f = Field(rng.standard_normal(grid.n_total), grid)
        g = Field(rng.standard_normal(grid.n_total), grid)
        lhs = abs(heatlab.inner_product(f, g))
        rhs = heatlab.lp_norm(f, p) * heatlab.lp_norm(g, q)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_halfline_and_radii():
    grid = build_grid(DomainSpec.halfline(30.0), 60)
    assert grid.domain.lower == (0.0,)
    r = grid.radii()
    assert np.all(r > 0)
    assert np.allclose(r, grid.coords()[:, 0])


def test_build_grid_broadcast():
    grid = build_grid(DomainSpec.box((0.0, 0.0, 0.0), (1.0, 2.0, 3.0)), 4)
    assert grid.n == (4, 4, 4)
    assert grid.dim == 3

"""Shared fixtures: a few operators reused across the suite.

Session scope keeps eigendecompositions and ground states from being
recomputed per test; everything here is deterministic.
"""

import numpy as np
import pytest

import heatlab


@pytest.fixture(scope="session")
def line_grid():
    dom = heatlab.DomainSpec.interval(-20.0, 20.0)
    return heatlab.build_grid(dom, 1600)


@pytest.fixture(scope="session")
def line_op(line_grid):
    return heatlab.assemble(heatlab.OperatorSpec(kind="dirichlet_laplacian"), line_grid)


@pytest.fixture(scope="session")
def cubic_mode():
    return heatlab.EquationMode.subcritical(3.0, 1)


@pytest.fixture(scope="session")
def line_ground(line_op, cubic_mode):
    return heatlab.ground_state(line_op, cubic_mode)


@pytest.fixture(scope="session")
def line_consts(line_op, cubic_mode):
    return heatlab.mountain_pass_level(line_op, cubic_mode)


@pytest.fixture(scope="session")
def small_op():
    """Coarse line operator for cheap property loops."""
    dom = heatlab.DomainSpec.interval(-20.0, 20.0)
    grid = heatlab.build_grid(dom, 200)
    return heatlab.assemble(heatlab.OperatorSpec(kind="dirichlet_laplacian"), grid)


@pytest.fixture(scope="session")
def well_op():
    """Dense-path line operator: the attractive Gaussian well -2 exp(-x^2)."""
    dom = heatlab.DomainSpec.interval(-20.0, 20.0)
    grid = heatlab.build_grid(dom, 400)
    pot = heatlab.PotentialSpec(
        kind="tabulated_bounded", fn=lambda x: -2.0 * np.exp(-np.sum(x * x, axis=-1))
    )
    return heatlab.assemble(heatlab.OperatorSpec(kind="schrodinger", potential=pot), grid)


@pytest.fixture(scope="session")
def pi_op():
    """Operator on (0, pi), where sine-mode quantities have closed forms."""
    dom = heatlab.DomainSpec.interval(0.0, np.pi)
    grid = heatlab.build_grid(dom, 399)
    return heatlab.assemble(heatlab.OperatorSpec(kind="dirichlet_laplacian"), grid)


def sech_profile(grid):
    """sqrt(2) sech(x): the explicit cubic-line ground state."""
    return heatlab.field_from_function(
        grid, lambda x: np.sqrt(2.0) / np.cosh(x[..., 0])
    )


def sine_profile(grid):
    return heatlab.field_from_function(grid, lambda x: np.sin(x[..., 0]))

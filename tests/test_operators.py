"""Operator assembly, certified families, spectral transforms."""

import math
import tracemalloc

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
import scipy.fft
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import heatlab
from heatlab.evolution import IntegratorConfig, integrate
from heatlab.grids import DomainSpec, Field, build_grid, field_from_function
from heatlab.operators import (
    AssemblyError,
    OperatorSpec,
    PotentialSpec,
    ZERO_POTENTIAL,
    _axis_path,
    _check_reconstruction,
    _folded_axes,
    _half_rader,
    _half_rader_plans,
    _half_sine_matrices,
    _mirror_axes,
    _mirror_sector,
    _rader_dst,
    _sine_matrix,
    _stencil_apply,
    _stencil_matrix,
    _tensor_product,
    assemble,
    potential_on_grid,
    validate_potential,
)
from heatlab.semigroup import heat_kernel_column, smoothing_norm_2_to_inf
from heatlab.variational import EquationMode


def test_two_node_matrix_eigenvalues():
    # h = 1 gives the matrix [[2, -1], [-1, 2]] with eigenvalues 1 and 3
    grid = build_grid(DomainSpec.interval(0.0, 3.0), 2)
    op = assemble(OperatorSpec(kind="dirichlet_laplacian"), grid)
    assert np.allclose(op.mu, [1.0, 3.0], atol=1e-12)


def test_discrete_sine_spectrum():
    # the 1-d second-difference matrix has mu_k = (2 - 2 cos(k pi h / L)) / h^2
    length, n = 5.0, 37
    grid = build_grid(DomainSpec.interval(0.0, length), n)
    op = assemble(OperatorSpec(kind="dirichlet_laplacian"), grid)
    h = grid.h[0]
    k = np.arange(1, n + 1)
    exact = (2.0 - 2.0 * np.cos(k * np.pi * h / length)) / h**2
    assert np.allclose(op.mu, np.sort(exact), rtol=1e-12)


def test_eigenvalue_convergence_second_order():
    # halving h (n -> 2n + 1) should shrink the mu_1 error by about 4
    target = np.pi**2 / 16.0  # first Dirichlet eigenvalue on (0, 4)
    errs = []
    for n in (49, 99):
        grid = build_grid(DomainSpec.interval(0.0, 4.0), n)
        op = assemble(OperatorSpec(kind="dirichlet_laplacian"), grid)
        errs.append(abs(op.mu_min - target))
    order = math.log2(errs[0] / errs[1])
    assert 1.8 <= order <= 2.2


def test_eigenvectors_orthonormal_in_weighted_l2(small_op):
    op = small_op
    for i in (0, 3, 17):
        for j in (0, 3, 17):
            ip = heatlab.inner_product(op.eigenvector(i), op.eigenvector(j))
            assert math.isclose(ip, 1.0 if i == j else 0.0, abs_tol=1e-10)


def test_coeff_roundtrip_and_parseval(small_op):
    op = small_op
    rng = np.random.default_rng(3)
    v = rng.standard_normal(op.grid.n_total)
    c = op.to_coeffs(v)
    back = op.from_coeffs(c)
    assert np.allclose(back, v, atol=1e-10)
    f = Field(v, op.grid)
    assert math.isclose(float(c @ c), heatlab.lp_norm(f, 2.0) ** 2, rel_tol=1e-12)


def test_matvec_matches_stencil(small_op):
    op = small_op
    rng = np.random.default_rng(5)
    v = rng.standard_normal(op.grid.n_total)
    lap = op.matvec(v)
    h = op.grid.h[0]
    direct = np.empty_like(v)
    direct[1:-1] = (2.0 * v[1:-1] - v[:-2] - v[2:]) / h**2
    direct[0] = (2.0 * v[0] - v[1]) / h**2
    direct[-1] = (2.0 * v[-1] - v[-2]) / h**2
    assert np.allclose(lap, direct, atol=1e-8 * np.max(np.abs(direct)))


def test_multidim_assembly_symmetric_and_separable():
    grid = build_grid(DomainSpec.box((0.0, 0.0), (1.0, 2.0)), (5, 7))
    op = assemble(OperatorSpec(kind="dirichlet_laplacian"), grid)
    # separable spectrum: sums of the two 1-d spectra
    g1 = build_grid(DomainSpec.interval(0.0, 1.0), 5)
    g2 = build_grid(DomainSpec.interval(0.0, 2.0), 7)
    mu1 = assemble(OperatorSpec(kind="dirichlet_laplacian"), g1).mu
    mu2 = assemble(OperatorSpec(kind="dirichlet_laplacian"), g2).mu
    expected = np.sort((mu1[:, None] + mu2[None, :]).ravel())
    assert np.allclose(op.mu, expected, rtol=1e-10)


def test_domain_monotonicity_of_ground_eigenvalue():
    mus = []
    for half in (5.0, 10.0, 20.0):
        grid = build_grid(DomainSpec.interval(-half, half), 400)
        mus.append(assemble(OperatorSpec(kind="dirichlet_laplacian"), grid).mu_min)
    assert mus[0] > mus[1] > mus[2] > 0


def test_robin_monotone_in_sigma_and_limits():
    dom = DomainSpec.halfline(10.0)
    grid = build_grid(dom, 200)
    mus = []
    for sigma in (0.0, 0.5, 2.0, 1e8):
        spec = OperatorSpec(kind="robin_halfline", sigma=sigma)
        mus.append(assemble(spec, grid).mu_min)
    assert mus[0] < mus[1] < mus[2] < mus[3]
    dirichlet = assemble(OperatorSpec(kind="dirichlet_laplacian"), grid).mu_min
    assert math.isclose(mus[3], dirichlet, rel_tol=1e-6)
    with pytest.raises(ValueError):
        OperatorSpec(kind="robin_halfline", sigma=-1.0)


def test_robin_requires_halfline():
    grid = build_grid(DomainSpec.interval(0.0, 1.0), 10)
    with pytest.raises(AssemblyError):
        assemble(OperatorSpec(kind="robin_halfline", sigma=1.0), grid)


def test_assumption_classification():
    # even node counts keep every node off the origin of the symmetric domains
    line = build_grid(DomainSpec.interval(-5.0, 5.0), 20)
    halfline = build_grid(DomainSpec.halfline(5.0), 20)
    box = build_grid(DomainSpec.box(-5.0, 5.0, dim=3), 6)
    zero = OperatorSpec(kind="dirichlet_laplacian")
    assert assemble(zero, line).assumption_class == "B"
    robin = OperatorSpec(kind="robin_halfline", sigma=0.3)
    assert assemble(robin, halfline).assumption_class == "B"
    repulsive = OperatorSpec(
        kind="schrodinger",
        potential=PotentialSpec(kind="inverse_power", alpha=1.0, coupling=0.2, sign=1),
    )
    assert assemble(repulsive, box).assumption_class == "B"
    attractive_bounded = OperatorSpec(
        kind="schrodinger",
        potential=PotentialSpec(kind="tabulated_bounded", fn=lambda x: -np.ones(x.shape[:-1]), sign=-1),
    )
    assert assemble(attractive_bounded, line).assumption_class == "A"
    hardy = OperatorSpec(
        kind="schrodinger",
        potential=PotentialSpec(kind="inverse_power", alpha=2.0, coupling=0.25, sign=-1),
    )
    assert assemble(hardy, box).assumption_class == "A"
    # an attractive power with zero coupling is V = 0: structured path, class B
    uncoupled = OperatorSpec(
        kind="schrodinger",
        potential=PotentialSpec(kind="inverse_power", alpha=1.0, coupling=0.0, sign=-1),
    )
    op = assemble(uncoupled, box)
    assert op.basis.size == 0
    assert op.assumption_class == "B"


def test_tabulated_class_reads_node_values():
    # the same V = 2 exp(-x^2) >= 0 given as node values and as fn is class B
    grid = build_grid(DomainSpec.interval(-10.0, 10.0), 200)

    def bump(x):
        return 2.0 * np.exp(-np.sum(x * x, axis=-1))

    def tag(**pot):
        spec = OperatorSpec(kind="schrodinger", potential=PotentialSpec("tabulated_bounded", **pot))
        return assemble(spec, grid).assumption_class

    assert tag(values=bump(grid.coords())) == "B"
    assert tag(fn=bump) == "B"
    assert tag(fn=lambda x: -bump(x), sign=-1) == "A"  # the attractive well


def test_kato_window_enforced():
    validate_potential(
        PotentialSpec(kind="inverse_power", alpha=0.5, coupling=1.0, sign=-1), 1
    )
    with pytest.raises(ValueError):
        validate_potential(
            PotentialSpec(kind="inverse_power", alpha=1.5, coupling=1.0, sign=-1), 1
        )
    validate_potential(
        PotentialSpec(kind="inverse_power", alpha=1.5, coupling=1.0, sign=-1), 3
    )
    # the borderline alpha = 2 needs d >= 3, attraction and the Hardy cap
    validate_potential(
        PotentialSpec(kind="inverse_power", alpha=2.0, coupling=0.25, sign=-1), 3
    )
    with pytest.raises(ValueError):
        validate_potential(
            PotentialSpec(kind="inverse_power", alpha=2.0, coupling=0.3, sign=-1), 3
        )
    with pytest.raises(ValueError):
        validate_potential(
            PotentialSpec(kind="inverse_power", alpha=2.0, coupling=0.25, sign=-1), 2
        )


def test_singular_potential_rejects_node_at_origin():
    # odd node counts on a symmetric interval place a node at x = 0
    dom = DomainSpec.interval(-1.0, 1.0)
    pot = PotentialSpec(kind="inverse_power", alpha=0.5, coupling=1.0, sign=1)
    spec = OperatorSpec(kind="schrodinger", potential=pot)
    with pytest.raises(AssemblyError):
        assemble(spec, build_grid(dom, 9))
    op = assemble(spec, build_grid(dom, 10))
    assert op.mu_min > 0


def test_attractive_well_shifts_spectrum_down(small_op):
    grid = small_op.grid

    def well(x):
        return -2.0 * np.exp(-np.sum(x * x, axis=-1))

    spec = OperatorSpec(
        kind="schrodinger",
        potential=PotentialSpec(kind="tabulated_bounded", fn=well, sign=-1),
    )
    op = assemble(spec, grid)
    assert op.assumption_class == "A"
    assert op.mu_min < small_op.mu_min
    # a deep enough well creates a genuinely negative mode on this domain
    assert op.mu_min < 0


def test_apply_multiplier(small_op):
    op = small_op
    f = op.eigenvector(4)
    g = op.apply_multiplier(np.exp(-op.mu), f)
    assert np.allclose(g.values, math.exp(-op.mu[4]) * f.values, atol=1e-12)


def test_potential_sign_and_coupling_validation():
    with pytest.raises(ValueError):
        PotentialSpec(kind="inverse_power", alpha=1.0, coupling=-1.0, sign=1)
    with pytest.raises(ValueError):
        PotentialSpec(kind="inverse_power", alpha=1.0, coupling=1.0, sign=0)
    assert ZERO_POTENTIAL.is_zero()


# --- structured (tensor DST-I) path against the dense oracle -----------------

ORACLE_GRIDS = {
    "line_1600": (DomainSpec.interval(-20.0, 20.0), 1600),  # n + 1 = 1601 is prime
    "line_1599": (DomainSpec.interval(-20.0, 20.0), 1599),  # smooth n + 1
    "box_7x9": (DomainSpec.box((0.0, 0.0), (1.0, 2.0)), (7, 9)),
    "cube_13": (DomainSpec.box(-5.0, 5.0, 3), 13),
    "box_6x7x8": (DomainSpec.box((-1.0, -2.0, -3.0), (2.0, 2.0, 2.0)), (6, 7, 8)),
    "halfline": (DomainSpec.halfline(10.0), 200),
}


def _dense_oracle(grid):
    # an all-zero tabulated potential is the same operator on the dense path
    zero = PotentialSpec(kind="tabulated_bounded", values=np.zeros(grid.n_total))
    return assemble(OperatorSpec(kind="schrodinger", potential=zero), grid)


def _node_basis(op):
    """The node-order orthonormal eigenvectors, one per column, in mu order."""
    return op.from_coeffs(np.eye(op.n_modes)) * math.sqrt(op.grid.weight)


@pytest.fixture(scope="module", params=sorted(ORACLE_GRIDS))
def oracle_pair(request):
    grid = build_grid(*ORACLE_GRIDS[request.param])
    structured = assemble(OperatorSpec(kind="dirichlet_laplacian"), grid)
    dense = _dense_oracle(grid)
    assert structured.basis.shape == (grid.n_total, 0)
    # every even axis of an interval or box folds: 2^k blocks of N / 2^k
    k = 0 if grid.domain.kind == "halfline_truncated" else sum(n % 2 == 0 for n in grid.n)
    size = grid.n_total >> k
    assert dense.basis.shape == (2**k, size, size)
    assert _node_basis(dense).shape == (grid.n_total, grid.n_total)
    return structured, dense


def test_structured_spectrum_matches_oracle(oracle_pair):
    structured, dense = oracle_pair
    # relative to the spectral scale: a dense eigensolver resolves mu_k to
    # eps * max|mu| in absolute terms, so the smallest eigenvalues of the
    # 1-d grids differ by ~3e-10 of themselves; the closed form is exact to roundoff
    scale = np.max(np.abs(dense.mu))
    assert np.max(np.abs(structured.mu - dense.mu)) <= 1e-12 * scale


def test_structured_semigroup_matches_oracle(oracle_pair):
    structured, dense = oracle_pair
    n_total = structured.grid.n_total
    v = np.random.default_rng(7).standard_normal(n_total)
    for t in (1e-3, 1e-2, 0.1):
        # whole multiplier actions: 3-d eigenspaces are degenerate, so single
        # coefficients of the two bases need not agree
        a = structured.apply_multiplier(np.exp(-t * structured.mu), v)
        b = dense.apply_multiplier(np.exp(-t * dense.mu), v)
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)
        for y in (0, n_total // 3, n_total - 1):
            ka = heat_kernel_column(structured, t, y).values
            kb = heat_kernel_column(dense, t, y).values
            assert np.max(np.abs(ka - kb)) <= 1e-12 * np.max(np.abs(kb))
    for shifted in (False, True):
        times = np.array([1e-3, 1e-2, 0.1])
        na = smoothing_norm_2_to_inf(structured, times, shifted=shifted)
        nb = smoothing_norm_2_to_inf(dense, times, shifted=shifted)
        assert np.max(np.abs(na - nb) / nb) <= 1e-12


@pytest.mark.parametrize("name", ["line_1600", "box_6x7x8"])
def test_structured_smoothing_norm_matches_sine_matrix(name):
    # The eigh oracle's long-time row norms carry its eigenvector error
    # (eps * max|mu| / spectral gap; 1.9e-12 relative at t = 1 on line_1600),
    # so long times are checked against the explicit orthonormal sine matrix.
    grid = build_grid(*ORACLE_GRIDS[name])
    op = assemble(OperatorSpec(kind="dirichlet_laplacian"), grid)
    times = np.array([1e-3, 0.1, 1.0, 10.0])
    got = {}
    for shifted in (False, True):
        got[shifted] = smoothing_norm_2_to_inf(op, times, shifted=shifted)
        loop = [smoothing_norm_2_to_inf(op, t, shifted=shifted) for t in times]
        assert np.max(np.abs(got[shifted] - loop) / got[shifted]) <= 1e-13
    for j, t in enumerate(times):
        row_sq = np.ones(1)
        for n, h in zip(grid.n, grid.h):
            k = np.arange(1, n + 1)
            sines = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(k, k) / (n + 1))
            mu = (4.0 / h**2) * np.sin(k * np.pi / (2.0 * (n + 1))) ** 2
            row_sq = np.kron(row_sq, (sines**2) @ np.exp(-2.0 * t * mu))
        for shifted in (False, True):
            shift = math.exp(-2.0 * t) if shifted else 1.0
            exact = math.sqrt(shift * np.max(row_sq) / grid.weight)
            assert math.isclose(got[shifted][j], exact, rel_tol=1e-12)


@pytest.fixture(scope="module")
def transform_ops():
    ops = []
    for grid in (
        build_grid(DomainSpec.interval(0.0, 3.0), 37),
        build_grid(DomainSpec.box(-1.0, 1.0, 3), (3, 4, 5)),
    ):
        ops += [assemble(OperatorSpec(kind="dirichlet_laplacian"), grid), _dense_oracle(grid)]
    return ops


def _vectors(size):
    # entries below 1e-6 in magnitude become 0, so no squared norm underflows
    finite = st.floats(-1e3, 1e3).map(lambda x: x if abs(x) >= 1e-6 else 0.0)
    return hnp.arrays(np.float64, size, elements=finite)


# the vector lengths are the grid sizes, so Hypothesis's smallest example is large
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.large_base_example],
)
@given(data=st.data())
def test_transform_properties(transform_ops, data):
    # Parseval, adjointness and inversion on both transform implementations,
    # column by column on an (N, m) stack, which also matches single calls
    for op in transform_ops:
        w = op.grid.weight
        m = data.draw(st.integers(1, 3))
        u = data.draw(_vectors((op.grid.n_total, m)))
        c = data.draw(_vectors((op.n_modes, m)))
        cu = op.to_coeffs(u)
        fc = op.from_coeffs(c)
        back = op.from_coeffs(cu)
        for j in range(m):
            uj, cj, cuj = u[:, j], c[:, j], cu[:, j]
            assert np.linalg.norm(op.to_coeffs(uj) - cuj) <= 1e-14 * np.linalg.norm(cuj)
            assert math.isclose(cuj @ cuj, w * (uj @ uj), rel_tol=1e-12)
            lhs, rhs = cuj @ cj, w * (uj @ fc[:, j])
            assert abs(lhs - rhs) <= 1e-12 * math.sqrt(w) * np.linalg.norm(uj) * np.linalg.norm(cj)
            assert np.linalg.norm(back[:, j] - uj) <= 1e-12 * np.linalg.norm(uj)


@pytest.fixture(
    scope="module",
    params=[
        "structured_1d_37",
        "structured_1d_1600",
        "structured_3d_345",
        "structured_3d_13",
        "dense_well",
        "dense_hardy_8",
        "dense_box_6x7x8",
    ],
)
def batch_op(request, well_op):
    if request.param == "dense_well":
        return well_op  # one folded axis
    if request.param.startswith("dense_"):  # three and two folded axes
        domain, n, pot, _ = FOLD_CASES[request.param[len("dense_") :]]
        return assemble(OperatorSpec(kind="schrodinger", potential=pot), build_grid(domain, n))
    grids = {
        "structured_1d_37": (DomainSpec.interval(0.0, 3.0), 37),
        "structured_1d_1600": (DomainSpec.interval(-20.0, 20.0), 1600),  # Rader size
        "structured_3d_345": (DomainSpec.box(-1.0, 1.0, 3), (3, 4, 5)),
        "structured_3d_13": (DomainSpec.box(-5.0, 5.0, 3), 13),  # the critical_3d grid
    }
    return assemble(OperatorSpec(kind="dirichlet_laplacian"), build_grid(*grids[request.param]))


def test_batched_transforms_match_single_calls(batch_op):
    op = batch_op
    stack = np.random.default_rng(21).standard_normal((op.grid.n_total, 6))
    for transform in (op.to_coeffs, op.from_coeffs):
        batched = transform(stack)
        assert batched.shape == stack.shape
        for j in range(stack.shape[1]):
            single = transform(stack[:, j])
            err = np.max(np.abs(batched[:, j] - single))
            assert err <= 1e-14 * np.max(np.abs(single))
            if not op.basis.size:  # the DST of a stack is bitwise per column
                assert np.array_equal(batched[:, j], single)


@pytest.mark.parametrize(
    "shape, paths",
    [
        ((64,), ["matmul"]),
        ((400,), ["rader"]),
        ((1600,), ["rader"]),
        ((632,), ["dst"]),
        ((400, 12), ["rader", "matmul"]),
    ],
)
def test_rows_first_stack_equals_single_calls(shape, paths):
    # the integrator keeps a stack one field per row and hands it over as X.T
    assert [_axis_path(n) for n in shape] == paths
    domain = DomainSpec.interval(-1.0, 1.0) if len(shape) == 1 else DomainSpec.box(-1.0, 1.0, 2)
    op = assemble(OperatorSpec(kind="dirichlet_laplacian"), build_grid(domain, shape))
    rows = np.random.default_rng(len(paths)).standard_normal((5, op.grid.n_total))
    for transform in (op.to_coeffs, op.from_coeffs):
        stacked = transform(rows.T)
        assert stacked.shape == rows.T.shape
        for k, row in enumerate(rows):
            assert np.array_equal(stacked[:, k], transform(row))


@pytest.mark.parametrize("n", [262, 400, 718, 1200, 1600, 2038])
def test_rader_dst_matches_scipy_and_inverts(n):
    # the negacyclic convolution runs at h = n / 2, smooth at 400, 1200 and
    # 1600 and prime at 262, 718 and 2038
    assert _axis_path(n) == "rader"
    rng = np.random.default_rng(n)
    for x in (rng.standard_normal(n), rng.standard_normal((8, n))):
        y = _rader_dst(x)
        ref = scipy.fft.dst(x, type=1, norm="ortho", axis=-1)
        assert y.shape == x.shape
        assert np.max(np.abs(y - ref)) <= 1e-13 * np.max(np.abs(ref))
        # the orthonormal DST-I is its own inverse
        assert np.max(np.abs(_rader_dst(y) - x)) <= 1e-13 * np.max(np.abs(x))
    for j in range(x.shape[0]):  # a stack is bitwise its single calls
        assert np.array_equal(y[j], _rader_dst(x[j]))


@pytest.mark.parametrize("n", [400, 718, 1200, 1600])
def test_half_rader_is_the_half_sine_matrix_product_and_inverts(n):
    # h = n / 2 even (400, 1200, 1600: a right-angle convolution at h / 2)
    # and odd (718: a complex convolution at h)
    to, back = _half_rader_plans(n)
    to_matrix, from_matrix = _half_sine_matrices(n)
    rng = np.random.default_rng(n)
    for x in (rng.standard_normal(n // 2), rng.standard_normal((8, 1, n // 2))):
        for plan, matrix in ((to, to_matrix), (back, from_matrix)):
            y, ref = _half_rader(plan, x), x @ matrix
            assert y.shape == x.shape
            assert np.max(np.abs(y - ref)) <= 1e-13 * np.max(np.abs(ref))
        # the two directions are exact inverses on the half axis
        assert np.max(np.abs(_half_rader(back, _half_rader(to, x)) - x)) <= 1e-13 * np.max(np.abs(x))
    for j in range(x.shape[0]):  # a stack is bitwise its single calls
        assert np.array_equal(_half_rader(to, x)[j], _half_rader(to, x[j]))
        assert np.array_equal(_half_rader(back, x)[j], _half_rader(back, x[j]))


def test_rader_rule_follows_largest_prime_factor_of_n_plus_1():
    # the prime path needs the largest prime factor of n + 1 to be n + 1
    # itself: 1601 and 1201 are prime, while 1600 = 2^6 5^2, 14 = 2 7 and
    # 3201 = 3 11 97, and a large proper factor (2049 = 3 683) is not enough
    assert _axis_path(1600) == "rader" and _axis_path(1200) == "rader"
    assert not any(_axis_path(n) == "rader" for n in (1599, 13, 3200, 2048))


@pytest.mark.parametrize("shape", [(400, 12), (12, 400), (12, 262)])
def test_grid_with_one_rader_axis_matches_stencil(shape):
    # one prime-path axis, leading or not, beside a sine-matrix axis
    assert [_axis_path(n) for n in shape].count("rader") == 1
    grid = build_grid(DomainSpec.box((-1.0, -1.0), (1.0, 1.0)), shape)
    op = assemble(OperatorSpec(kind="dirichlet_laplacian"), grid)  # runs _check_reconstruction
    x = np.random.default_rng(4).standard_normal(grid.n_total)
    ax = _stencil_apply(op, x, None)
    assert np.linalg.norm(op.matvec(x) - ax) <= 1e-12 * np.linalg.norm(ax)
    ref = scipy.fft.dstn(x.reshape(grid.n), type=1, norm="ortho").ravel()[op.order]
    assert np.max(np.abs(op.to_coeffs(x) - np.sqrt(grid.weight) * ref)) <= 1e-13 * np.sqrt(
        grid.weight
    ) * np.max(np.abs(ref))


@pytest.mark.parametrize("shape", [(256,), (257,), (12, 12, 12), (13, 13, 13), (6, 7, 8)])
def test_sine_matmul_matches_scipy_and_inverts(shape):
    x = np.random.default_rng(len(shape)).standard_normal((math.prod(shape), 2))
    sines = [_sine_matrix(n).__rmatmul__ for n in shape]
    y = _tensor_product(x, shape, sines)
    axes = tuple(range(len(shape)))
    ref = scipy.fft.dstn(x.reshape(shape + (2,)), type=1, norm="ortho", axes=axes).reshape(x.shape)
    assert y.shape == x.shape
    assert np.max(np.abs(y - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.max(np.abs(_tensor_product(y, shape, sines) - x)) <= 1e-13 * np.max(np.abs(x))


def test_axis_path_rule():
    # up to 256 nodes the sine matrix; beyond, Rader's transform when n + 1 is
    # prime (263, 401, 1201 and 1601 are) and scipy's DST otherwise, however
    # large the prime factors of n + 1 (258 = 2 3 43, 260 = 2^2 5 13,
    # 633 = 3 211, 802 = 2 401, 1600 = 2^6 5^2, 2049 = 3 683, 3201 = 3 11 97)
    assert all(_axis_path(n) == "matmul" for n in (1, 13, 31, 196, 256))
    assert all(_axis_path(n) == "rader" for n in (262, 400, 1200, 1600))
    assert all(_axis_path(n) == "dst" for n in (257, 259, 632, 801, 1599, 2048, 3200))


def test_grid_with_all_three_axis_paths_matches_stencil():
    grid = build_grid(DomainSpec.box((-1.0, -2.0, -2.0), (1.0, 2.0, 2.0)), (3, 262, 259))
    assert [_axis_path(n) for n in grid.n] == ["matmul", "rader", "dst"]
    op = assemble(OperatorSpec(kind="dirichlet_laplacian"), grid)
    x = np.random.default_rng(5).standard_normal(grid.n_total)
    ax = _stencil_apply(op, x, None)
    assert np.linalg.norm(op.matvec(x) - ax) <= 1e-12 * np.linalg.norm(ax)
    # 262 / 2 = 131 is prime: the Rader axis convolves at a prime length
    ref = np.sqrt(grid.weight) * scipy.fft.dstn(x.reshape(grid.n), type=1, norm="ortho").ravel()
    assert np.max(np.abs(op.to_coeffs(x) - ref[op.order])) <= 1e-13 * np.max(np.abs(ref))
    rows = np.random.default_rng(6).standard_normal((3, grid.n_total))
    for transform in (op.to_coeffs, op.from_coeffs):
        stacked = transform(rows.T)
        for k, row in enumerate(rows):
            assert np.array_equal(stacked[:, k], transform(row))


def test_dense_3d_eigenvectors_orthogonal_and_accurate():
    # the 12^3 Hardy operator has degenerate cubic-symmetry clusters, where
    # an MRRR eigensolver loses orthogonality (max|V^T V - I| ~ 5e-12)
    grid = build_grid(DomainSpec.box(-5.0, 5.0, 3), 12)
    pot = PotentialSpec(kind="inverse_power", alpha=2.0, coupling=0.25, sign=-1)
    op = assemble(OperatorSpec(kind="schrodinger", potential=pot), grid)
    v = _node_basis(op)
    gram = v.T @ v
    gram[np.diag_indices_from(gram)] -= 1.0
    assert np.max(np.abs(gram)) <= 1e-13
    del gram
    a = _stencil_matrix(grid, op.spec).toarray()
    a[np.diag_indices_from(a)] += potential_on_grid(pot, grid)
    # Frobenius norms
    assert np.linalg.norm(a @ v - v * op.mu) <= 1e-13 * np.linalg.norm(a)


def _gaussian_well(center=0.0):
    return PotentialSpec(
        kind="tabulated_bounded",
        fn=lambda x: -2.0 * np.exp(-np.sum((x - center) ** 2, axis=-1)),
    )


def _assembly_peak(pot, grid):
    tracemalloc.start()
    try:
        op = assemble(OperatorSpec(kind="schrodinger", potential=pot), grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return op, peak


def test_dense_assembly_peak_memory():
    # the basis, N^2 / 8 doubles, plus one block's divide-and-conquer
    # workspace, 2 (N / 8)^2, and O(N) fold arrays; measured 0.18 N^2
    grid = build_grid(DomainSpec.box(-5.0, 5.0, 3), 10)
    op, peak = _assembly_peak(_gaussian_well(), grid)
    n = grid.n_total
    assert op.basis.shape == (8, n // 8, n // 8) and n == 1000
    assert peak <= 0.25 * n * n * 8


def test_unfolded_dense_assembly_peak_memory():
    # off-centre, so one block: the matrix, overwritten by its eigenvectors,
    # plus the workspace of 2 N^2 doubles; measured 3.04 N^2.  A C-ordered
    # matrix would be copied once more
    grid = build_grid(DomainSpec.box(-5.0, 5.0, 3), 10)
    op, peak = _assembly_peak(_gaussian_well(0.3), grid)
    n = grid.n_total
    assert op.basis.shape == (1, n, n) and n == 1000
    assert peak <= 3.5 * n * n * 8


FOLD_CASES = {
    # name: (domain, n, potential, folded axes)
    "well_1d": (DomainSpec.interval(-20.0, 20.0), 400, _gaussian_well(), (True,)),
    "hardy_8": (
        DomainSpec.box(-5.0, 5.0, 3),
        8,
        PotentialSpec(kind="inverse_power", alpha=2.0, coupling=0.25, sign=-1),
        (True, True, True),
    ),
    "shifted_well_1d": (DomainSpec.interval(-20.0, 20.0), 400, _gaussian_well(0.5), (False,)),
    "odd_well_1d": (DomainSpec.interval(-20.0, 20.0), 401, _gaussian_well(), (False,)),
    "box_6x7x8": (
        DomainSpec.box((-1.0, -2.0, -3.0), (1.0, 2.0, 3.0)),
        (6, 7, 8),
        _gaussian_well(),
        (True, False, True),
    ),
    "y_shifted_box": (
        DomainSpec.box(-2.0, 2.0, 3),
        6,
        _gaussian_well(np.array([0.0, 0.3, 0.0])),
        (True, False, True),
    ),
}


@pytest.mark.parametrize("name", sorted(FOLD_CASES))
def test_fold_rule_and_unfolded_spectrum(name, monkeypatch):
    domain, n, pot, folds = FOLD_CASES[name]
    grid = build_grid(domain, n)
    spec = OperatorSpec(kind="schrodinger", potential=pot)
    assert _folded_axes(grid, potential_on_grid(pot, grid)) == folds
    op = assemble(spec, grid)
    size = grid.n_total >> sum(folds)
    assert op.basis.shape == (2 ** sum(folds), size, size)
    # the same operator through the same code as one unfolded block
    monkeypatch.setattr("heatlab.operators._folded_axes", lambda g, v: (False,) * g.dim)
    whole = assemble(spec, grid)
    assert whole.basis.shape == (1, grid.n_total, grid.n_total)
    assert np.max(np.abs(op.mu - whole.mu)) <= 1e-13 * np.max(np.abs(whole.mu))
    # whole multipliers: eigenspaces of the symmetric operators are degenerate
    x = np.random.default_rng(3).standard_normal((grid.n_total, 2))
    for t in (0.01, 1.0):
        a = op.apply_multiplier(np.exp(-t * op.mu)[:, None], x)
        b = whole.apply_multiplier(np.exp(-t * whole.mu)[:, None], x)
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_robin_halfline_never_folds():
    grid = build_grid(DomainSpec.halfline(10.0), 200)
    op = assemble(OperatorSpec(kind="robin_halfline", sigma=0.5), grid)
    assert op.basis.shape == (1, 200, 200)


def test_fold_tolerance_is_relative_to_max_potential():
    grid = build_grid(DomainSpec.interval(-1.0, 1.0), 10)
    v = 1e6 * np.cos(grid.coords()[:, 0])  # even; max|V| sets the scale
    assert _folded_axes(grid, v) == (True,)
    v[0] += 1e-7  # 1e-13 of max|V|: inside the tolerance
    assert _folded_axes(grid, v) == (True,)
    v[0] += 1e-5  # 1e-11 of max|V|: outside
    assert _folded_axes(grid, v) == (False,)
    assert _folded_axes(grid, np.zeros(10)) == (True,)


def test_unlocked_31_cube():
    # 29,791 nodes: the dense basis alone would take 7.1 GB
    grid = build_grid(DomainSpec.box(-5.0, 5.0, 3), 31)
    op = assemble(OperatorSpec(kind="dirichlet_laplacian"), grid)
    assert op.n_modes == 31**3 and op.basis.nbytes == 0
    h = grid.h[0]
    axis = (4.0 / h**2) * np.sin(np.arange(1, 32) * np.pi / 64.0) ** 2
    closed = np.sort((axis[:, None, None] + axis[None, :, None] + axis[None, None, :]).ravel())
    assert np.allclose(op.mu, closed, rtol=1e-14, atol=0.0)
    _check_reconstruction(op, diag_potential=None)
    u0 = field_from_function(grid, lambda x: 0.3 * np.exp(-np.sum(x**2, axis=-1) / 2.0))
    traj = integrate(u0, op, EquationMode.critical(3), IntegratorConfig(t_max=0.01))
    assert traj.end_reason == "t_max"
    assert math.isclose(traj.t_final, 0.01, rel_tol=1e-12)


@pytest.mark.parametrize(
    "n, folds",
    [
        ((13, 13, 13), (True, True, True)),
        ((12, 7, 9), (True, False, True)),
        ((200,), (True,)),
        ((400,), (True,)),  # a Rader axis whose half takes the sine-matrix path
        ((1200,), (True,)),  # Rader axes on the half-length Rader transform
        ((1600,), (True,)),
        ((718,), (True,)),  # h = n / 2 odd
        ((1200, 7), (True, False)),
    ],
)
def test_mirror_sector_is_the_full_transform_on_kept_modes(n, folds):
    lower = (-5.0,) * len(n)
    grid = build_grid(DomainSpec.box(lower, tuple(-x for x in lower)), n)
    op = assemble(OperatorSpec(kind="dirichlet_laplacian"), grid)
    sector = _mirror_sector(op, folds)
    x = np.random.default_rng(5).standard_normal(n)
    for ax in np.flatnonzero(folds):
        x = x + np.flip(x, ax)  # mirror-even along the folded axes
    assert _mirror_axes(x) == folds
    half = sector.restrict(x.ravel())
    assert half.size == math.prod(sector.shape) == sector.mu.size
    assert np.array_equal(sector.unfold(half), x.ravel())
    # the full coefficients in DST (C) order, on the kept modes
    full = np.empty(grid.n_total)
    full[op.order] = op.to_coeffs(x.ravel())
    unsorted_mu = np.empty(grid.n_total)
    unsorted_mu[op.order] = op.mu
    kept = tuple(slice(None, None, 2) if f else slice(None) for f in folds)
    assert np.array_equal(sector.mu, unsorted_mu.reshape(n)[kept].ravel())
    coeffs = sector.to_coeffs(half)
    scale = np.max(np.abs(full))
    assert np.max(np.abs(coeffs - full.reshape(n)[kept].ravel())) <= 1e-13 * scale
    assert np.max(np.abs(full.reshape(n)[kept].ravel())) > 0.1 * scale  # the mass is there
    assert math.isclose(coeffs @ coeffs, full @ full, rel_tol=1e-13)
    # weights carry the mirror multiplicities: the L^2 mass on the half grid,
    # one float where every folded axis has even n
    folded_even = all(m % 2 == 0 for m, f in zip(n, folds) if f)
    assert isinstance(sector.weight, float) == folded_even
    assert math.isclose(np.sum(sector.weight * half**2), grid.weight * np.sum(x**2), rel_tol=1e-13)
    assert np.max(np.abs(sector.from_coeffs(coeffs) - half)) <= 1e-13 * np.max(np.abs(half))
    # a stack, one field per column, equals its single calls bit for bit
    stack = np.stack([half, 2.0 * half, -half], axis=1)
    assert np.array_equal(sector.to_coeffs(stack)[:, 1], sector.to_coeffs(2.0 * half))
    assert np.array_equal(sector.from_coeffs(sector.to_coeffs(stack))[:, 2],
                          sector.from_coeffs(sector.to_coeffs(-half)))


"""Semigroup calculus and empirical verification of smoothing estimates.

Everything here is a spectral multiplier in the eigenbasis of an assembled
operator: e^{-tL} f = sum_k e^{-t mu_k} <f, e_k> e_k, and the discrete heat
kernel is the semigroup matrix column divided by the node weight.

The verifiers quantify two kinds of statements.  L^2 -> L^r smoothing says
||e^{-tL} f||_r <= C t^(-beta) ||f||_2 with beta = (d/2)(1/2 - 1/r); on a
log-log window before the spectral gap takes over, the worst probes trace a
line of slope -beta, and any steeper growth toward t -> 0 is a violation.
The homogeneous space-time estimate ||e^{-tL} f||_{L^2(0,inf; H^1(L))} has a
closed discrete form: each mode contributes |c_k|^2 * int_0^inf mu e^{-2 mu t}
dt = |c_k|^2 / 2, so the ratio against ||f||_2 is exactly 1/sqrt(2) whenever
the spectrum is positive.

Every flow, kernel columns and the Gaussian verifier included, goes through
_semigroup_orbit, which uses the same transforms on the dense and structured
paths.  Only smoothing_norm_2_to_inf reads the dense basis blocks themselves.
On the dense path both stop at each parity block's last live mode: e^{-t(mu
+ shift)} underflows to exact zeros on the top of each block's ascending
spectrum, and from_coeffs and the 2 -> inf row sums multiply only the modes
before them, so a long time costs a fraction of a short one.  Every e^{-t
rate} table comes from _decay_table, which counts a factor below the
smallest normal double as underflowed (0), so the live prefix ends at the
last normal factor and no product meets a subnormal operand.  The 2 -> inf
row sums of short times (t <= 1 / (mu_max - mu_min)) come from a truncated
Taylor series of 20 moment columns instead (Moler & Van Loan, SIAM Review
45, 2003) when more than 20 times lie there.

A semigroup with mu_1 + shift < 0 grows (the unshifted class-A operators);
where a flow, a kernel column or the 2 -> inf norm would pass double range
the call raises ValueError("semigroup grows past double range at t = ..."),
never a NaN, an inf or a RuntimeWarning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.fft

from .grids import Field, _lr_norms
from .operators import _ROW_BLOCK, SpectralOperator, _dirichlet_axis_eigenvalues, _live_lengths

_COLUMN_BLOCK = 128  # time x field columns per from_coeffs in _semigroup_orbit
_DECAY_TIMES = 12  # times in default_decay_t_grid
_RANDOM_PROBES = 5  # random unit fields in decay_probe_family
_SPECTRUM_TOL = 1e-12  # verify_spacetime needs mu_1 above it
_GAUSS_COLUMNS = 6  # kernel columns y sampled by verify_gaussian_bound
_GAUSS_FLOOR = 1e-12  # kernel samples kept above this fraction of their column maximum
_MOMENTS = 20  # Taylor moment columns J of _dense_max_row_sq's short-time head (1/J! < 2^-60)
_TINY = np.finfo(float).tiny  # _decay_table sets factors below it to 0


@dataclass(frozen=True)
class EstimateSpec:
    """Which L^2 -> L^r smoothing estimate to test and on which time window.

    The source norm is always L^2, so the target norm needs r >= 2.
    """

    r: float
    t_grid: Optional[np.ndarray] = None

    def __post_init__(self):
        if not (2.0 <= self.r):
            raise ValueError("need r >= 2")


@dataclass(frozen=True)
class DecayReport:
    """Fit of the L^2 -> L^r decay exponent over a probe family."""

    r: float
    slope: float
    prefactor: float
    target_slope: float
    passed: bool
    probe_slopes: tuple[float, ...] = field(default=())


@dataclass(frozen=True)
class GaussReport:
    """Fitted Gaussian kernel bound |K(t;x,y)| <= C t^(-d/2) exp(-|x-y|^2/(c t))."""

    c: float
    C: float
    max_violation: float
    n_samples: int


def apply_semigroup(op: SpectralOperator, t: float, f: Field, shifted: bool = False) -> Field:
    """e^{-t(L + shift)} f with shift = 1 when `shifted` (the mass term)."""
    return Field(next(_semigroup_orbit(op, f, (t,), shifted))[:, 0], op.grid)


def _semigroup_orbit(op: SpectralOperator, f, times, shifted: bool = False, divisor: float = 1.0):
    """Yield e^{-t(L + shift)} f / divisor over a time grid, one array per block of times.

    f is a Field or an (N, m) stack of field values, one field per column.
    All fields go through one forward transform.  The times are then taken
    in consecutive blocks of k times, with k * m at most _COLUMN_BLOCK (and
    k >= 1), and each block costs one from_coeffs of k * m columns: on the
    dense path one product per parity block over its live modes instead of
    k * m matvecs.  A block is yielded as an (N, k) array for a Field,
    column j at the block's j-th time, and as an (N, k, m) array for a
    stack.  The factors e^{-t(mu + shift)} come from _decay_table, so one
    below the smallest normal double counts as underflowed and from_coeffs
    stops before it.  Where mu_1 + shift < 0 the flow grows like
    e^{-t(mu_1 + shift)}; a block in which some time's values leave double
    range raises ValueError("semigroup grows past double range at t = ...")
    naming the block's least such time, and no RuntimeWarning escapes.
    """
    values = f.values if isinstance(f, Field) else np.asarray(f)
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValueError("semigroup time must be >= 0")
    c = op.to_coeffs(f)  # a Field off op.grid is refused there
    n = c.shape[0]
    c = c.reshape(n, -1)
    m = c.shape[1]
    rate = op.mu + float(shifted)
    step = max(1, _COLUMN_BLOCK // m)
    for start in range(0, times.size, step):
        block_t = times[start : start + step]
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            decayed = _decay_table(rate, block_t)[:, :, None] * c[:, None, :]
            out = op.from_coeffs(decayed.reshape(n, -1)).reshape(n, block_t.size, m)
            del decayed  # not held across the yield
            if divisor != 1.0:
                out /= divisor
        if not np.all(np.isfinite(out)):
            raise _growth_error(block_t[~np.all(np.isfinite(out), axis=(0, 2))])
        yield out if values.ndim == 2 else out[:, :, 0]


def heat_kernel_column(op: SpectralOperator, t: float, y_index: int) -> Field:
    """Column K(t; ., y) of the discrete heat kernel, continuum-normalised.

    The semigroup applied to the unit vector at node y, divided by the node
    weight, so that sum_x w * K(t; x, y) * f(y) reproduces the matrix action
    of e^{-tL}.
    """
    return Field(next(_kernel_orbit(op, (t,), (y_index,)))[:, 0, 0], op.grid)


def _kernel_orbit(op: SpectralOperator, times, cols):
    """Yield kernel columns K(t; ., y), y in cols, in _semigroup_orbit's blocks."""
    times = np.asarray(times, dtype=float)
    if np.any(times <= 0):
        raise ValueError("kernel time must be > 0")
    units = np.zeros((op.grid.n_total, len(cols)))
    units[cols, np.arange(len(cols))] = 1.0
    yield from _semigroup_orbit(op, units, times, divisor=op.grid.weight)


def smoothing_norm_2_to_inf(
    op: SpectralOperator, t: float | np.ndarray, shifted: bool = False
) -> float | np.ndarray:
    """Exact operator norm of e^{-t(L+shift)} from L^2 to sup norm.

    t is a positive time or a 1-d array of them: a scalar gives a float, an
    array gives an array of the same length.  Row x of the semigroup matrix
    has squared Euclidean norm sum_k Q[x,k]^2 e^{-2 t mu_k}, Q the node-order
    orthonormal eigenvectors; the 2->inf norm is the largest row norm divided
    by sqrt(w).  On the dense path node x's row of Q is its folded row p(x)
    of every parity block, scaled by 2^(-k/2) (see SpectralOperator), so its
    squared norm is 2^-k sum_b (basis[b, p(x)]^2 @ decay_b) with
    decay_b[q, j] = e^{-2 t_j (mu_bq + shift)}.  _dense_max_row_sq reads
    each block once, by mode blocks of _ROW_BLOCK, with one product per
    mode block into one table of row sums.  Column j of decay_b ends in
    exact zeros past its live length k_bj, where e^{-2 t_j (mu + shift)}
    is below the smallest normal double (_decay_table), so the cost is
    about sum_bj M k_bj multiply-adds, M = N / 2^k: at most N^2 T / 2^k for
    T times, and nothing for a time at which every mode has underflowed.
    When more than J = 20 times lie at or below t_h = 1 / (mu_max -
    mu_min), where every mode is live, those times share J Taylor moment
    columns instead of one column each, to a relative roundoff of about
    e^2 J eps (_dense_max_row_sq).  On the n = 3200 Gaussian well that is
    152 of sobolev_bound_from_semigroup's 300 times.  A factor below the
    smallest normal double counts as 0: the result moves only where it is
    itself at the underflow floor, and on the dense path a time at which
    every factor is below it gives exactly 0.
    On the structured path eigenvectors and e^{-2 t mu} are both products
    over axes, so the largest row norm is the product of the per-axis
    largest row norms.

    Where mu_1 + shift < 0 the norm grows like e^{-t(mu_1 + shift)}, and its
    square passes double range near t = 354.9 / -(mu_1 + shift) (the
    unshifted Gaussian well, mu_1 = -0.955, reaches it at t = 371.6); the call
    then raises ValueError("semigroup grows past double range at t = ...")
    naming the least such time, with no RuntimeWarning.
    """
    times = np.asarray(t, dtype=float)
    scalar = times.ndim == 0
    times = np.atleast_1d(times)
    if times.ndim != 1 or not np.all(np.isfinite(times) & (times > 0)):
        raise ValueError("need finite t > 0")
    shift = float(shifted)
    with np.errstate(over="ignore", invalid="ignore"):  # a growing semigroup is checked below
        if op.basis.size:
            max_sq = _dense_max_row_sq(op, times, shift)
        else:
            max_sq = np.exp(-2.0 * times * shift)
            for n, h in zip(op.grid.n, op.grid.h):
                axis_decay = _decay_table(_dirichlet_axis_eigenvalues(n, h), 2.0 * times)
                max_sq = max_sq * np.max(_sine_row_sq(axis_decay), axis=0)
    past = ~np.isfinite(max_sq)
    if np.any(past):
        raise _growth_error(times[past])
    norms = np.sqrt(max_sq / op.grid.weight)
    return float(norms[0]) if scalar else norms


def _dense_max_row_sq(op: SpectralOperator, times: np.ndarray, shift: float) -> np.ndarray:
    """Largest squared row norm of the dense e^{-t(L+shift)} Q at each time.

    Row x of block b adds basis[b, x]^2 @ F_b[:, j] to column j of one
    M x T' table of row sums that every block shares, F the factor columns.
    The times are sorted ascending, and each time past the head (below) has
    its own column e^{-2t(mu + shift)} from _decay_table, where a factor
    below the smallest normal double is 0, so each block's live lengths
    (operators._live_lengths) descend along those columns and end at the
    last normal factor.  Every block is read once, in column order, by mode
    blocks of _ROW_BLOCK: its columns k0:k1 are squared into one buffer
    (contiguous, as the blocks are column-major) and multiplied, in one
    product, by rows k0:k1 of the prefix of columns still live past k0; the
    product is added into the table.  That is ceil(M / _ROW_BLOCK) products
    a block (14 on the n = 3200 well), each at most _ROW_BLOCK - 1 modes
    longer than its times need, about sum_bj M k_bj multiply-adds in all,
    and a mode block that no time reaches is never squared.

    The head (Moler & Van Loan, SIAM Review 45, 2003): with a = mu + shift
    over all blocks, c the midpoint of its range and t_h = 1 / (a_max -
    a_min),

        e^{-2ta} = e^{-2tc} sum_{j<J} (t/t_h)^j s^j / j!,  s = -2 t_h (a - c),

    for t <= t_h, s in [-1, 1] and J = _MOMENTS (1/J! < 2^-60).  When more
    than J times lie at or below t_h, the J moment columns s^j / j! take
    their place ahead of the factor columns, always live, and each such
    time is the table's J moment sums against the powers (t/t_h)^j, scaled
    by e^{-2tc}; its relative roundoff is at most about e^2 J eps.  With J
    such times or fewer every time has its own column, so a scalar or a
    short call never takes the head.

    The results go back to input order.  Memory: the N x T' factor and
    moment columns, a boolean mask of them while the subnormal factors are
    zeroed and another while the live lengths are taken, one M x _ROW_BLOCK
    buffer of squares, and the M x T' table and product buffer, all
    allocated once per call; T' = T with no head, T - (head times) + J with
    one.
    """
    n_blocks, size, _ = op.basis.shape
    width = min(_ROW_BLOCK, size)
    rate = np.empty(op.n_modes)
    rate[op.order] = op.mu + shift  # block order
    lo, hi = op.mu[0] + shift, op.mu[-1] + shift
    mid, t_head = 0.5 * (hi + lo), (1.0 / (hi - lo) if hi > lo else 0.0)
    by_time = np.argsort(times, kind="stable")
    ascending = times[by_time]
    n_head = int(np.searchsorted(ascending, t_head, side="right"))
    if n_head <= _MOMENTS:
        n_head = 0
    n_moments = _MOMENTS if n_head else 0
    factors = np.empty((op.n_modes, n_moments + times.size - n_head))
    if n_head:
        s = -2.0 * t_head * (rate - mid)
        factors[:, 0] = 1.0
        for j in range(1, _MOMENTS):
            np.multiply(factors[:, j - 1], s / j, out=factors[:, j])
    _decay_table(rate, 2.0 * ascending[n_head:], out=factors[:, n_moments:])
    factors = factors.reshape(n_blocks, size, -1)
    live = _live_lengths(factors[:, :, n_moments:])
    squares = np.empty((width, size)).T  # column-major like the basis blocks
    total = np.zeros((size, factors.shape[2]))
    part = np.empty_like(total)
    for b in range(n_blocks):
        for start in range(0, size, width):
            cols = n_moments + int(np.count_nonzero(live[b] > start))
            if not cols:
                break
            stop = min(start + width, size)
            np.square(op.basis[b, :, start:stop], out=squares[:, : stop - start])
            np.matmul(squares[:, : stop - start], factors[b, start:stop, :cols], out=part[:, :cols])
            total[:, :cols] += part[:, :cols]
    max_sq = np.empty(times.size)
    max_sq[n_head:] = np.max(total[:, n_moments:], axis=0)
    head = ascending[:n_head]
    powers = (head / t_head) ** np.arange(n_moments)[:, None]
    for start in range(0, n_head, part.shape[1]):
        stop = min(start + part.shape[1], n_head)
        np.matmul(total[:, :n_moments], powers[:, start:stop], out=part[:, : stop - start])
        max_sq[start:stop] = np.max(part[:, : stop - start], axis=0)
    max_sq[:n_head] *= np.exp(-2.0 * head * mid)
    out = np.empty(times.size)
    out[by_time] = max_sq / n_blocks
    return out


def _decay_table(
    rate: np.ndarray, times: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """The factors e^{-t rate}, one row per rate and one column per time.

    Every e^{-t rate} table in this module comes from here.  A factor below
    the smallest normal double (np.finfo(float).tiny) is set to 0, as if it
    had underflowed: a product with a subnormal operand is slow on x86, and
    the term it drops is below tiny times its coefficient, so it can change
    only a result that is already at the underflow floor.  The zeros join
    the underflowed tail that _live_lengths cuts off.  A factor past double
    range is inf, with no RuntimeWarning, for the caller to judge.  out, if
    given, is filled and returned.
    """
    table = np.multiply.outer(rate, -times, out=out)
    with np.errstate(over="ignore"):
        np.exp(table, out=table)
    table[table < _TINY] = 0.0
    return table


def _growth_error(times: np.ndarray) -> ValueError:
    """The outcome of a semigroup that grows past double range (README)."""
    return ValueError(f"semigroup grows past double range at t = {float(np.min(times)):.6g}")


def _sine_row_sq(d: np.ndarray) -> np.ndarray:
    """Rows sum_k s[x,k]^2 d_k of the orthonormal DST-I matrix s, k, x = 1..n.

    s[x,k]^2 = (1 - cos(2 pi x k / (n+1))) / (n+1), so the cosine sums are
    the real part of one FFT of length n + 1.  d is (n, T), one column per
    time, and so is the result.
    """
    padded = np.concatenate((np.zeros((1, d.shape[1])), d))
    cos_sums = scipy.fft.fft(padded, axis=0).real[1:]
    return (np.sum(d, axis=0) - cos_sums) / (d.shape[0] + 1)


def default_decay_t_grid(op: SpectralOperator) -> np.ndarray:
    """Log-spaced window [t_gap/10, t_gap] below the spectral-gap time 1/mu_1."""
    gap = 1.0 / max(op.mu_min, 1e-12)
    return np.geomspace(gap / 10.0, gap, _DECAY_TIMES)


def decay_probe_family(op: SpectralOperator, rng=None) -> list[Field]:
    """Worst-case probes: near-delta bumps at 5 spread nodes + 5 random unit fields.

    All probes are normalised in the weighted L^2 norm; the bumps carry the
    value 1/sqrt(w) at a single node.
    """
    grid = op.grid
    coords = grid.coords()
    lo = np.asarray(grid.domain.lower)
    up = np.asarray(grid.domain.upper)
    probes = []
    for frac in (0.5, 0.25, 0.75, 0.375, 0.625):
        target = lo + frac * (up - lo)
        idx = int(np.argmin(np.sum((coords - target) ** 2, axis=1)))
        v = np.zeros(grid.n_total)
        v[idx] = 1.0 / math.sqrt(grid.weight)
        probes.append(Field(v, grid))
    rng = np.random.default_rng(0) if rng is None else rng
    for _ in range(_RANDOM_PROBES):
        v = rng.standard_normal(grid.n_total)
        probes.append(Field(v / _lr_norms(v, 2.0, grid.weight), grid))
    return probes


def verify_l2lq_decay(
    op: SpectralOperator,
    est: EstimateSpec,
    shifted: bool = False,
    probes: Optional[Sequence[Field]] = None,
    rng=None,
) -> DecayReport:
    """Fit the worst-case L^2 -> L^r decay rate and judge the bound.

    The estimate is the one-sided smoothing bound ||e^{-tA} f||_r <= C
    t^(-beta) ||f||_2 with beta = (d/2)(1/2 - 1/r).  The fit runs on the
    pointwise maximum over the unit probe family (near-delta bumps plus
    random fields); for r = 2 and r = inf the exact operator norm joins the
    maximum, so the curve is the discrete operator norm itself there.  The
    probes are stacked and transformed once, and the whole (time, probe)
    grid of the flow comes from one product per block of _semigroup_orbit
    (a single block for the default 12 times and 10 probes); the L^r norms
    are taken column-wise from that block.  Caller-given probes must live
    on op's grid; one that does not is refused before any transform, with
    to_coeffs' ValueError("field and operator live on different grids").

    Pass logic: the fitted slope matches -beta within 0.1, or the running
    constant norm * t^beta never exceeds its left-anchor value by more than
    5 percent.  The second branch is what a window past the spectral gap
    produces: decay strictly faster than algebraic, which an upper bound
    permits.  The prefactor is always reported and must be finite.
    """
    d = op.grid.dim
    beta = (d / 2.0) * (0.5 - (0.0 if est.r == np.inf else 1.0 / est.r))
    target = -beta
    t_grid = est.t_grid if est.t_grid is not None else default_decay_t_grid(op)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size < 3 or np.any(t_grid <= 0):
        raise ValueError("t_grid needs at least 3 positive times")

    if probes is None:
        probes = decay_probe_family(op, rng=rng)
    if any(f.grid is not op.grid and f.grid != op.grid for f in probes):
        raise ValueError("field and operator live on different grids")  # as to_coeffs says
    w = op.grid.weight
    stack = np.stack([f.values for f in probes], axis=1)
    orbit = _semigroup_orbit(op, stack, t_grid, shifted)
    norms = np.concatenate([_lr_norms(u, est.r, w) for u in orbit])  # (time, probe)
    norms = np.maximum(norms / np.maximum(_lr_norms(stack, 2.0, w), 1e-300), 1e-300)
    log_t = np.log(t_grid)
    slopes = tuple(float(b) for b in np.polyfit(log_t, np.log(norms), 1)[0])
    worst = np.max(norms, axis=1)
    if est.r == np.inf:
        worst = np.maximum(worst, smoothing_norm_2_to_inf(op, t_grid, shifted=shifted))
    elif est.r == 2.0:
        worst = np.maximum(worst, np.exp(-t_grid * (op.mu_min + float(shifted))))

    slope = float(np.polyfit(log_t, np.log(worst), 1)[0])
    env = worst * t_grid**beta
    prefactor = float(np.max(env))
    ok = slope >= target - 0.1 or bool(np.all(env <= env[0] * 1.05))
    return DecayReport(
        r=est.r,
        slope=slope,
        prefactor=prefactor,
        target_slope=target,
        passed=ok and math.isfinite(prefactor),
        probe_slopes=slopes,
    )


def _spectral_gap(op: SpectralOperator) -> bool:
    """Whether mu_1 clears _SPECTRUM_TOL, as verify_spacetime requires."""
    return op.mu_min > _SPECTRUM_TOL


def verify_spacetime(op: SpectralOperator, f: Field) -> float:
    """Ratio ||e^{-tL} f||_{L^2((0,inf); H^1(L))} / ||f||_2, closed form.

    Mode k contributes |c_k|^2 * int_0^inf mu_k e^{-2 mu_k t} dt = |c_k|^2/2,
    so once the whole spectrum is positive the ratio is 1/sqrt(2) for every
    nonzero field, whatever the operator: an identity that holds by
    construction, not a bound that a field or an operator can fail.  Returns
    0 for the zero field.
    """
    c = op.to_coeffs(f)
    total = float(np.sum(np.abs(c) ** 2))
    if total == 0.0:
        return 0.0
    if not _spectral_gap(op):
        raise ValueError(
            f"homogeneous space-time norm needs mu_1 > tol, got mu_1 = {op.mu_min:.3e}"
        )
    # int_0^inf mu e^{-2 mu t} dt = 1/2 for every mode
    return math.sqrt(float(np.sum(0.5 * np.abs(c) ** 2)) / total)


def verify_gaussian_bound(op: SpectralOperator, times: Sequence[float]) -> GaussReport:
    """Fit a Gaussian bound |K(t;x,y)| <= C t^(-d/2) exp(-|x-y|^2/(c t)).

    The columns at _GAUSS_COLUMNS spread nodes y come from one _kernel_orbit,
    one transform each way for up to 21 times.  The inverse width 1/c is
    fitted by least squares on every second sample of log K + (d/2) log t
    against |x-y|^2/t; C is then the smallest constant covering the training
    samples.  max_violation reports the worst ratio K / bound over all
    samples, including the held-out ones, so values close to 1 mean the
    fitted bound actually generalises across (t, x, y).
    """
    grid = op.grid
    d = grid.dim
    coords = grid.coords()
    cols = np.linspace(0, grid.n_total - 1, _GAUSS_COLUMNS).astype(int)
    dist2 = [np.sum((coords - coords[y]) ** 2, axis=1) for y in cols]

    ts, ss, ks = [], [], []
    orbit = (block[:, j] for block in _kernel_orbit(op, times, cols) for j in range(block.shape[1]))
    for t, columns in zip(times, orbit):
        for kern, d2 in zip(columns.T, dist2):
            mask = kern > _GAUSS_FLOOR * max(np.max(kern), 1e-300)
            ts.append(np.full(mask.sum(), float(t)))
            ss.append(d2[mask])
            ks.append(kern[mask])
    t_all = np.concatenate(ts)
    s_all = np.concatenate(ss)
    k_all = np.concatenate(ks)
    if t_all.size < 10:
        raise ValueError("not enough kernel samples above the floor")

    z = np.log(k_all) + (d / 2.0) * np.log(t_all)
    x = s_all / t_all
    train = slice(0, None, 2)
    a = np.stack([np.ones_like(x[train]), -x[train]], axis=1)
    sol, *_ = np.linalg.lstsq(a, z[train], rcond=None)
    log_c0, inv_c = sol
    if inv_c <= 0:
        inv_c = 1e-12
    # smallest constant covering the training half
    log_c0 = float(np.max(z[train] + inv_c * x[train]))
    bound_log = log_c0 - inv_c * x
    violation = float(np.max(np.exp(z - bound_log)))
    return GaussReport(
        c=float(1.0 / inv_c),
        C=float(math.exp(log_c0)),
        max_violation=violation,
        n_samples=int(t_all.size),
    )


def free_gaussian_kernel(t: float, dist: np.ndarray, dim: int) -> np.ndarray:
    """Closed-form whole-space heat kernel (4 pi t)^(-d/2) exp(-dist^2/(4t))."""
    return (4.0 * math.pi * t) ** (-dim / 2.0) * np.exp(-(dist**2) / (4.0 * t))

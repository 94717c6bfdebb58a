"""Trajectory-level certificates for the dissipation/blow-up dichotomy.

Every check here consumes recorded trajectories (scalar sample series), so
manufactured series can exercise the logic without any PDE solve.

The concavity argument drives the blow-up side: with I(t) = A + int_0^t
||chi_R u||_2^2 ds one has I' = ||chi_R u||^2 and, for trapped data,
I'' I - (1+alpha)(I')^2 > 0 forces I to explode no later than
t_tilde = A / (alpha I'(0)).  I'' is formed by differencing the measured I'
rather than from -2J so the critical-mode cutoff commutator is included
automatically.  The dissipation side is judged operationally: the energy
norm must drop three orders of magnitude and, in the subcritical regime,
the statistic r(t) = sqrt(t) ||u(t)||_E must decrease across the last
decade of samples (the o(t^(-1/2)) surrogate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .evolution import Trajectory, _nonuniform_derivative
from .grids import Field, _lq_integral, _lr_norms
from .operators import SpectralOperator
from .semigroup import _semigroup_orbit
from .variational import EquationMode, VariationalConstants

_NEHARI_BAND = 1e-8  # |J| <= band * ||u||_E^2 counts as "on the manifold"


@dataclass(frozen=True)
class ConcavityReport:
    """Concavity functional series and the explosion bound t_tilde."""

    A: float
    alpha: float
    R: Optional[float]
    t: np.ndarray
    I: np.ndarray
    I_prime: np.ndarray
    I_second: np.ndarray  # at interior sample times t[1:-1]
    margin: float
    t_tilde: float


@dataclass(frozen=True)
class Verdict:
    """Outcome of a run: Dissipates, BlowsUp or Undecided."""

    kind: str
    rate_stat: Optional[float] = None
    T_est: Optional[float] = None
    reason: Optional[str] = None


@dataclass(frozen=True)
class CoercivityReport:
    """A-posteriori coercivity constant and the y_C side condition."""

    delta_hat: float
    max_energy_sq: float
    y_C: float
    below_y_C: bool


def concavity(
    traj: Trajectory,
    A: float,
    alpha: float = 0.1,
    R: Optional[float] = None,
) -> ConcavityReport:
    """Evaluate the concavity functional along a trajectory.

    Subcritical runs use the plain mass (chi = 1, R ignored); critical runs
    require the cutoff mass recorded at radius R during integration.  The
    margin is the minimum of I'' I - (1+alpha)(I')^2 over the trailing third
    of the interior samples; a positive margin certifies explosion of I no
    later than t_tilde = A / (alpha I'(0)).  Sample times that do not
    strictly increase raise ValueError.
    """
    if A <= 0 or alpha <= 0:
        raise ValueError("need A > 0 and alpha > 0")
    if len(traj.samples) < 5:
        raise ValueError("need at least 5 samples")
    t = traj.column("t")
    if traj.mode.regime == "critical":
        if R is None:
            raise ValueError("critical-mode concavity needs a cutoff radius R")
        key = float(R)
        try:
            g = np.array([s.cutoff_mass[key] for s in traj.samples])
        except (TypeError, KeyError):
            raise ValueError(
                f"cutoff mass at radius {R} was not recorded; add it to "
                "IntegratorConfig.cutoff_radii"
            ) from None
    else:
        g = traj.column("mass")

    i_series = A + np.concatenate([[0.0], np.cumsum(0.5 * np.diff(t) * (g[1:] + g[:-1]))])
    i_second = _nonuniform_derivative(t, g)  # differentiates I' once
    expr = i_second * i_series[1:-1] - (1.0 + alpha) * g[1:-1] ** 2
    window = expr[2 * expr.size // 3 :] if expr.size >= 3 else expr
    margin = float(np.min(window))
    t_tilde = A / (alpha * g[0]) if g[0] > 0 else math.inf
    return ConcavityReport(
        A=A,
        alpha=alpha,
        R=None if traj.mode.regime != "critical" else float(R),
        t=t,
        I=i_series,
        I_prime=g,
        I_second=i_second,
        margin=margin,
        t_tilde=float(t_tilde),
    )


def verdict(traj: Trajectory) -> Verdict:
    """Judge a finished run, store the result in traj.verdict and return it.

    BlowsUp when detection fired.  Dissipates when the energy norm fell
    below 1e-3 of its initial value and (subcritical only) the decay
    statistic r(t) = sqrt(t) ||u||_E decreases across the last decade of
    samples with rate_stat = r(final)/r(mid) < 1.  Everything else is
    Undecided with a reason.  The decision needs no threshold constants.
    """
    en = traj.column("energy_norm")
    if traj.T_detect is not None:
        v = Verdict(kind="BlowsUp", T_est=traj.T_detect)
    elif en[0] == 0.0:
        v = Verdict(kind="Dissipates", rate_stat=0.0)
    elif en[-1] >= 1e-3 * en[0]:
        v = Verdict(
            kind="Undecided",
            reason=f"no detection and energy norm only decayed to {en[-1]/en[0]:.3e} of initial",
        )
    else:
        t = traj.column("t")
        window = np.nonzero(t >= t[-1] / 10.0)[0]
        r = np.sqrt(t[window]) * en[window]
        mid = window[np.argmin(np.abs(t[window] - t[-1] / math.sqrt(10.0)))]
        rate_stat = float((math.sqrt(t[-1]) * en[-1]) / (math.sqrt(t[mid]) * en[mid]))
        decreasing = bool(np.all(np.diff(r) <= 1e-9 * np.maximum(r[:-1], 1e-300)))
        if traj.mode.regime != "subcritical" or (decreasing and rate_stat < 1.0):
            v = Verdict(kind="Dissipates", rate_stat=rate_stat)
        else:
            v = Verdict(
                kind="Undecided",
                reason=f"energy decayed but sqrt(t)*norm not decreasing (rate_stat={rate_stat:.3f})",
                rate_stat=rate_stat,
            )
    traj.verdict = v
    return v


def invariance_check(traj: Trajectory, consts: VariationalConstants) -> bool:
    """True when sign(J) never flips while the energy stays below the level.

    Samples with |J| <= 1e-8 ||u||_E^2 sit inside the tolerance band around
    the Nehari manifold; the band only counts as a violation when at least
    3 consecutive samples stay in it.
    """
    en, energy, nehari = (traj.column(k) for k in ("energy_norm", "energy", "nehari"))
    off = (energy >= consts.level) | (en == 0.0)
    band = ~off & (np.abs(nehari) <= _NEHARI_BAND * _squares(en))
    signs = nehari[~off & ~band] > 0
    band_run = np.any(band[2:] & band[1:-1] & band[:-2])
    return not (band_run or np.unique(signs).size > 1)


def coercivity_check(traj: Trajectory, consts: VariationalConstants) -> CoercivityReport:
    """A-posteriori coercivity delta_hat = min J / ||u||_E^2 over the run.

    Samples with energy norm below 1e-9 are skipped.  The side condition
    ||u||_E^2 < y_C must hold at every sample for trapped dissipating data.
    """
    en = traj.column("energy_norm")
    en_sq = _squares(en)
    kept = en >= 1e-9
    if not np.any(kept):
        raise ValueError("no samples above the energy-norm floor")
    max_en_sq = float(np.max(en_sq))
    return CoercivityReport(
        delta_hat=float(np.min(traj.column("nehari")[kept] / en_sq[kept])),
        max_energy_sq=max_en_sq,
        y_C=consts.y_C,
        below_y_C=bool(max_en_sq < consts.y_C),
    )


def negativity_gap_check(traj: Trajectory, consts: VariationalConstants) -> bool:
    """True when J(t) < -(p+1) (level - E(t)) holds at every recorded sample."""
    gap = -(traj.mode.p + 1.0) * (consts.level - traj.column("energy"))
    return bool(np.all(traj.column("nehari") < gap))


def _squares(x: np.ndarray) -> np.ndarray:
    """x**2 rounded as Python's float power rounds it, element by element.

    np.square rounds x*x correctly; the libm pow behind float.__pow__ is off
    by one in the last bit for about 1 double in 1200.  The checks square
    this way so that delta_hat, below_y_C and invariance_ok in summary.txt
    equal a per-sample evaluation in Python bit for bit.
    """
    return np.power(x.astype(object), 2).astype(float)


def linear_profile_smallness(
    u0: Field,
    op: SpectralOperator,
    mode: EquationMode,
    t_cap: Optional[float] = None,
    n_slices: int = 400,
) -> float:
    """Space-time norm of the linear flow, ||e^{-tL} u0||_{L^q((0,T); L^q)}.

    q = 2(d+2)/(d-2) is the critical space-time exponent.  The integral is
    taken over (0, T) with T = t_cap (default 10/mu_1) by trapezoid on a
    log-clustered slice grid, and the remainder past T is bounded through
    the spectral gap (||f||_q <= w^(1/q-1/2) ||f||_2 on the grid) and added,
    so the result slightly overestimates the full-line norm.
    """
    if mode.regime != "critical":
        raise ValueError("the space-time profile norm is a critical-regime notion")
    if op.mu_min <= 0:
        raise ValueError("needs a strictly positive spectrum (certified kernel-bound family)")
    if n_slices < 2:
        raise ValueError("need n_slices >= 2")
    q = 2.0 * mode.p_critical
    t_end = 10.0 / op.mu_min if t_cap is None else float(t_cap)
    ts = np.concatenate([[0.0], np.geomspace(1e-6 * t_end, t_end, n_slices)])
    w = op.grid.weight
    vals = []
    with np.errstate(over="ignore"):  # a norm past double range comes back inf
        for block in _semigroup_orbit(op, u0, ts):  # ts ends at exactly t_end
            vals.append(_lq_integral(np.abs(block), q, w))
        main = np.trapezoid(np.concatenate(vals), ts)
        c_grid = w ** (1.0 / q - 0.5)
        tail = (c_grid * _lr_norms(block[:, -1], 2.0, w)) ** q / (q * op.mu_min)
        return float((main + tail) ** (1.0 / q))

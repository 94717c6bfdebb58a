"""Exponential time integration with blow-up detection and identity monitors.

The semiflow of d_t u + (L + shift) u = sign |u|^(p-1) u is integrated with
exponential integrators that treat the linear part exactly in the eigenbasis:

    exponential Euler   u+ = e^{-dt A} u + dt phi1(-dt A) N(u),
    ETDRK2              u+ = a + dt phi2(-dt A)(N(a) - N(u)),
                        a  = e^{-dt A} u + dt phi1(-dt A) N(u),

with phi1(z) = (e^z - 1)/z and phi2(z) = (e^z - 1 - z)/z^2 (Cox & Matthews,
J. Comput. Phys. 176, 2002).  Step size is controlled by step doubling: one
full step is compared against two half steps and the pair is accepted when
the difference, relative to the solution norm, is below rel_tol.

Finite-time explosion cannot be followed past the grid scale, so blow-up is
detected operationally: the run stops with T_detect when the sup norm passes
a configured cap, when the energy norm passes its cap, or when the adaptive
step collapses below dt_min while the solution is exploding.  Monitors
accumulate the dissipation integral int ||u_t||^2 dt (u_t evaluated from the
equation right-hand side, never by differencing) and, in the critical
regime, the space-time integral of |u|^q with q = 2(d+2)/(d-2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grids import Field, _lq_integral
from .operators import SpectralOperator
from .variational import EquationMode

SCHEMES = ("exponential_euler", "etdrk2")
_SCHEME_ORDER = {"exponential_euler": 1, "etdrk2": 2}


@dataclass(frozen=True)
class IntegratorConfig:
    """Adaptive-stepping and detection parameters for integrate()."""

    t_max: float
    dt_init: float = 1e-3
    dt_min: float = 1e-13
    dt_max: float = 0.5
    rel_tol: float = 1e-6
    blowup_sup_cap: float = 1e6
    blowup_energy_cap: float = 1e12
    scheme: str = "etdrk2"
    sample_interval: Optional[float] = None
    cutoff_radii: tuple[float, ...] = ()
    max_steps: int = 200_000

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not (0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max")
        if self.t_max <= 0 or self.rel_tol <= 0:
            raise ValueError("t_max and rel_tol must be positive")


@dataclass(frozen=True)
class TrajectorySample:
    """One recorded state: scalar functionals only, no field storage.

    cutoff_mass maps each configured cutoff radius r to ||chi_r u||_2^2 with
    the smooth plateau cutoff (1 inside radius r, 0 beyond r + 1).
    """

    t: float
    mass: float
    energy_norm: float
    energy: float
    nehari: float
    lp: float
    sup: float
    dissipation_cum: float
    s_norm_cum: float
    cutoff_mass: Optional[dict[float, float]] = None


@dataclass
class Trajectory:
    samples: list[TrajectorySample]
    mode: EquationMode
    scheme: str
    T_detect: Optional[float] = None
    end_reason: str = "t_max"
    accepted: int = 0
    rejected: int = 0
    final_state: Optional[Field] = None
    verdict: Optional[object] = None  # filled by diagnostics

    @property
    def t_final(self) -> float:
        return self.samples[-1].t

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(s, name) for s in self.samples])


# (trajectory.csv column, TrajectorySample field)
_CSV_COLUMNS = (
    ("t", "t"), ("mass", "mass"), ("energy_norm", "energy_norm"), ("E", "energy"),
    ("J", "nehari"), ("lp", "lp"), ("sup", "sup"), ("dissipation_cum", "dissipation_cum"),
    ("s_norm_cum", "s_norm_cum"),
)
CSV_HEADER = ",".join(column for column, _ in _CSV_COLUMNS)


def trajectory_rows(traj: Trajectory):
    """Yield CSV rows matching CSV_HEADER, full float precision."""
    for s in traj.samples:
        yield ",".join(repr(float(getattr(s, name))) for _, name in _CSV_COLUMNS)


def _phi1(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    small = np.abs(z) < 1e-5
    zs = z[small]
    out[small] = 1.0 + zs / 2.0 + zs**2 / 6.0
    zl = z[~small]
    out[~small] = np.expm1(zl) / zl
    return out


def _phi2(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    small = np.abs(z) < 1e-4
    zs = z[small]
    out[small] = 0.5 + zs / 6.0 + zs**2 / 24.0
    zl = z[~small]
    out[~small] = (np.expm1(zl) - zl) / zl**2
    return out


class _Stepper:
    """Coefficient-space stepping kernels for one (operator, mode) pair."""

    def __init__(self, op: SpectralOperator, mode: EquationMode):
        self.op = op
        self.mode = mode
        self.a = op.mu + mode.shift
        self.sign = mode.sign
        self.p = mode.p

    def physical(self, c: np.ndarray) -> np.ndarray:
        return self.op.from_coeffs(c)

    def n_hat(self, u_phys: np.ndarray) -> np.ndarray:
        if self.sign == 0.0:
            return np.zeros_like(u_phys)
        with np.errstate(over="raise", invalid="raise"):
            nl = self.sign * np.abs(u_phys) ** (self.p - 1.0) * u_phys
        return self.op.to_coeffs(nl)

    def multipliers(self, dt: float, scheme: str) -> tuple:
        """(e^z, dt phi1(z), dt phi2(z)) at z = -dt a; phi2 only for ETDRK2."""
        z = -dt * self.a
        dt_phi2 = dt * _phi2(z) if scheme == "etdrk2" else None
        return np.exp(z), dt * _phi1(z), dt_phi2

    def step(self, c: np.ndarray, n0: np.ndarray, mult: tuple, scheme: str) -> np.ndarray:
        """One step with the multipliers of its size (see multipliers)."""
        ez, dt_phi1, dt_phi2 = mult
        stage = ez * c + dt_phi1 * n0
        if scheme == "exponential_euler":
            return stage
        n1 = self.n_hat(self.physical(stage))
        return stage + dt_phi2 * (n1 - n0)


def step(
    u: Field,
    dt: float,
    op: SpectralOperator,
    mode: EquationMode,
    scheme: str = "exponential_euler",
) -> Field:
    """Advance one explicit exponential step of size dt (no adaptivity)."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    st = _Stepper(op, mode)
    c = op.to_coeffs(u.values)
    return Field(
        st.physical(st.step(c, st.n_hat(u.values), st.multipliers(dt, scheme), scheme)), u.grid
    )


def _cutoff_profiles(op: SpectralOperator, radii: tuple[float, ...]) -> dict[float, np.ndarray]:
    rho = op.grid.radii()
    out = {}
    for r in radii:
        ramp = np.clip(rho - r, 0.0, 1.0)
        out[float(r)] = np.cos(0.5 * math.pi * ramp) ** 2
    return out


class _Accumulators:
    """Simpson accumulators advanced at every accepted step.

    The error controller already evaluates the state at the step midpoint,
    so the time integrals get the midpoint sample for free and converge one
    order faster than the endpoint trapezoid would.
    """

    def __init__(self, q_crit: Optional[float]):
        self.diss = 0.0
        self.s_int = 0.0
        self.q = q_crit  # None outside the critical regime

    def advance(self, dt: float, prev: dict, cur: dict, mid: tuple):
        """Add one accepted step to both time integrals.

        An overflowed (inf) rate raises FloatingPointError and leaves the
        integrals as they were, so an overflow never enters them.
        """
        mid_diss, mid_s = mid
        diss = self.diss + dt / 6.0 * (prev["diss_rate"] + 4.0 * mid_diss + cur["diss_rate"])
        s_int = self.s_int
        if self.q is not None:
            s_int += dt / 6.0 * (prev["s_rate"] + 4.0 * mid_s + cur["s_rate"])
        if not (math.isfinite(diss) and math.isfinite(s_int)):
            raise FloatingPointError("dissipation or space-time integral overflows")
        self.diss, self.s_int = diss, s_int

    def s_norm(self) -> float:
        if self.q is None or self.s_int <= 0.0:
            return 0.0
        return self.s_int ** (1.0 / self.q)


def _sq_norm(v: np.ndarray) -> float:
    """v . v, or inf past double range (trapped, not warned).

    The dissipation rates go through here; _Accumulators.advance refuses an
    inf, so the accepted step ends as an overflow instead.
    """
    try:
        with np.errstate(over="raise"):
            return float(v @ v)
    except FloatingPointError:
        return math.inf


def _state_stats(
    st: _Stepper,
    c: np.ndarray,
    u_phys: np.ndarray,
    n0: np.ndarray,
    weight: float,
    p: float,
    cutoffs: dict[float, np.ndarray],
    q_crit: Optional[float],
) -> dict:
    # coefficients carry sqrt(weight), so c.c already is the L^2 mass
    mass = float(c @ c)
    en_sq = float(np.sum(st.a * c * c))
    abs_u = np.abs(u_phys)
    lp_p1 = _lq_integral(abs_u, p + 1.0, weight)
    energy = 0.5 * en_sq - st.sign * lp_p1 / (p + 1.0)
    nehari = en_sq - st.sign * lp_p1
    if not (math.isfinite(energy) and math.isfinite(nehari)):
        raise FloatingPointError("E or J is past double range")
    ut = -(st.a * c - n0)
    stats = {
        "mass": mass,
        "en_sq": en_sq,
        "lp": lp_p1 ** (1.0 / (p + 1.0)),
        "sup": float(np.max(abs_u)) if abs_u.size else 0.0,
        "energy": energy,
        "nehari": nehari,
        "diss_rate": _sq_norm(ut),
        "s_rate": _lq_integral(abs_u, q_crit, weight) if q_crit is not None else 0.0,
        "cutoff": {r: weight * float(np.sum((chi * abs_u) ** 2)) for r, chi in cutoffs.items()},
    }
    return stats


def integrate(
    u0: Field,
    op: SpectralOperator,
    mode: EquationMode,
    cfg: IntegratorConfig,
) -> Trajectory:
    """Adaptive exponential integration of the semiflow from u0.

    Returns the trajectory with samples at the configured cadence (every
    accepted step when sample_interval is None), covering [0, t_end] where
    t_end is t_max or the detection time.  Dissipation and critical
    space-time integrals are accumulated at every accepted step regardless
    of the sample cadence.  Raises ValueError when u0 overflows double
    precision, so that its E or J is not finite.
    """
    st = _Stepper(op, mode)
    cutoffs = _cutoff_profiles(op, cfg.cutoff_radii)
    q_crit = 2.0 * mode.p_critical if mode.regime == "critical" else None
    acc = _Accumulators(q_crit)
    weight = op.grid.weight
    order = _SCHEME_ORDER[cfg.scheme]
    expo = 1.0 / (order + 1.0)

    c = op.to_coeffs(np.asarray(u0.values, dtype=float))
    u_phys = u0.values.copy()
    try:
        n0 = st.n_hat(u_phys)
        stats = _state_stats(st, c, u_phys, n0, weight, mode.p, cutoffs, q_crit)
    except FloatingPointError:
        raise ValueError("initial state overflows: E or J is past double range") from None
    sup0 = max(stats["sup"], 1e-300)

    traj = Trajectory(samples=[], mode=mode, scheme=cfg.scheme)

    def record(t: float):
        traj.samples.append(
            TrajectorySample(
                t=t,
                mass=stats["mass"],
                energy_norm=math.sqrt(max(stats["en_sq"], 0.0)),
                energy=stats["energy"],
                nehari=stats["nehari"],
                lp=stats["lp"],
                sup=stats["sup"],
                dissipation_cum=acc.diss,
                s_norm_cum=acc.s_norm(),
                cutoff_mass=dict(stats["cutoff"]) if cutoffs else None,
            )
        )

    t = 0.0
    record(0.0)
    next_sample = cfg.sample_interval if cfg.sample_interval else 0.0
    dt = cfg.dt_init

    def finish(reason: str, detect: bool):
        traj.end_reason = reason
        if detect:
            traj.T_detect = t
        if not traj.samples or traj.samples[-1].t < t:
            record(t)
        traj.final_state = Field(u_phys, u0.grid)
        return traj

    def exploding() -> bool:
        # dt collapse (or a step-count blowout) only counts as detection
        # when the solution actually grew; the integrator handles the
        # linear part exactly, so a pinned controller means the
        # nonlinearity went violent, but we still ask for the growth.
        return bool(
            stats["sup"] >= 100.0 * sup0 or stats["sup"] >= 0.01 * cfg.blowup_sup_cap
        )

    while True:
        if t >= cfg.t_max - 1e-14 * cfg.t_max:
            return finish("t_max", detect=False)
        if traj.accepted + traj.rejected >= cfg.max_steps:
            return finish("step_limit", detect=exploding())
        dt = min(dt, cfg.t_max - t)
        try:
            full = st.step(c, n0, st.multipliers(dt, cfg.scheme), cfg.scheme)
            half_mult = st.multipliers(0.5 * dt, cfg.scheme)
            mid = st.step(c, n0, half_mult, cfg.scheme)
            u_mid = st.physical(mid)
            n_half = st.n_hat(u_mid)
            half = st.step(mid, n_half, half_mult, cfg.scheme)
            diff = float(np.linalg.norm(full - half))
            scale = max(float(np.linalg.norm(half)), 1e-300)
            err = diff / scale
            ok = math.isfinite(err)
        except FloatingPointError:
            err, ok = math.inf, False

        if not ok or err > cfg.rel_tol:
            traj.rejected += 1
            shrink = 0.25 if not ok else max(0.9 * (cfg.rel_tol / err) ** expo, 0.2)
            dt *= shrink
            if dt < cfg.dt_min:
                return finish("dt_underflow", detect=exploding())
            continue

        # accept: propagate the two-half-step solution
        prev_stats = stats
        t += dt
        c = half
        try:
            mid_rates = (
                _sq_norm(st.a * mid - n_half),
                _lq_integral(np.abs(u_mid), q_crit, weight) if q_crit is not None else 0.0,
            )
            u_phys = st.physical(c)
            n0 = st.n_hat(u_phys)
            stats = _state_stats(st, c, u_phys, n0, weight, mode.p, cutoffs, q_crit)
            acc.advance(dt, prev_stats, stats, mid_rates)
        except FloatingPointError:
            # the accepted state overflows the nonlinearity, E, J or a rate: explosion
            stats = prev_stats
            return finish("sup_cap", detect=True)
        traj.accepted += 1

        if cfg.sample_interval is None or t >= next_sample - 1e-14:
            record(t)
            if cfg.sample_interval:
                next_sample += cfg.sample_interval

        if stats["sup"] > cfg.blowup_sup_cap:
            return finish("sup_cap", detect=True)
        if stats["en_sq"] > cfg.blowup_energy_cap**2:
            return finish("energy_cap", detect=True)

        grow = 0.9 * (cfg.rel_tol / max(err, 1e-16)) ** expo
        dt = float(np.clip(dt * min(max(grow, 0.2), 5.0), cfg.dt_min, cfg.dt_max))


@dataclass
class PicardResult:
    """Successive Duhamel iterates evaluated at the end of the window.

    diffs[k] is the largest L^2 distance over the time slices between
    iterates k and k+1; ratios are consecutive quotients of diffs, so values
    below 1/2 certify the contraction regime.  converged is False when the
    iteration is expanding; the limit is then meaningless and reported as is.
    """

    iterates: list[Field]
    diffs: list[float]
    ratios: list[float]
    converged: bool


def picard_iterate(
    u0: Field,
    op: SpectralOperator,
    mode: EquationMode,
    t_span: float,
    n_iter: int = 8,
    n_quad: int = 32,
) -> PicardResult:
    """Duhamel fixed-point iteration on uniform time slices of [0, t_span].

    Iterate 0 is the linear flow; iterate k+1 maps the previous iterate
    through u(t) = e^{-tA} u0 + int_0^t e^{-(t-s)A} N(u(s)) ds with composite
    trapezoid quadrature on the slices.  All algebra runs in the eigenbasis;
    uniform slices make every propagator a cached multiplier.
    """
    if t_span <= 0 or n_quad < 2:
        raise ValueError("need t_span > 0 and at least 2 quadrature slices")
    st = _Stepper(op, mode)
    m = n_quad
    ds = t_span / m
    props = np.exp(-np.outer(np.arange(m + 1) * ds, st.a))  # props[j] = e^{-j ds A}
    c0 = op.to_coeffs(np.asarray(u0.values, dtype=float))
    linear = props * c0  # row j: linear flow at slice j

    states = linear.copy()
    iterates = [Field(st.physical(states[m]), u0.grid)]
    diffs: list[float] = []
    ratios: list[float] = []
    converged = True
    for _ in range(n_iter):
        n_hats = np.stack([st.n_hat(st.physical(states[j])) for j in range(m + 1)])
        new = linear.copy()
        for i in range(1, m + 1):
            wts = np.full(i + 1, ds)
            wts[0] = wts[-1] = 0.5 * ds
            # sum_j w_j e^{-(s_i - s_j) A} N_j with uniform-slice propagators
            contrib = np.einsum("j,jk,jk->k", wts, props[i::-1], n_hats[: i + 1])
            new[i] = new[i] + contrib
        # coefficient transforms carry sqrt(w): row norms are already L^2 norms
        diff = float(np.max(np.linalg.norm(new - states, axis=1)))
        diffs.append(diff)
        if len(diffs) >= 2 and diffs[-2] > 0:
            ratios.append(diffs[-1] / diffs[-2])
        states = new
        iterates.append(Field(st.physical(states[m]), u0.grid))
        if not math.isfinite(diff):
            converged = False
            break
    if len(ratios) >= 2 and ratios[-1] > 1.0 and ratios[-2] > 1.0:
        converged = False
    return PicardResult(iterates=iterates, diffs=diffs, ratios=ratios, converged=converged)


def energy_identity_residual(traj: Trajectory) -> float:
    """Worst relative defect of E(t) + int_0^t ||u_s||^2 ds = E(0)."""
    e = traj.column("energy")
    d = traj.column("dissipation_cum")
    return float(np.max(np.abs(e + d - e[0])) / max(abs(e[0]), 1.0))


def _nonuniform_derivative(t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Quadratic-fit first derivative of g at interior points of a nonuniform grid."""
    lt = t[1:-1] - t[:-2]
    rt = t[2:] - t[1:-1]
    if np.any(lt <= 0) or np.any(rt <= 0):
        raise ValueError("sample times must be strictly increasing")
    return (
        -rt / (lt * (lt + rt)) * g[:-2]
        + (rt - lt) / (lt * rt) * g[1:-1]
        + lt / (rt * (lt + rt)) * g[2:]
    )


def mass_identity_residual(traj: Trajectory) -> float:
    """Worst defect of J(u(t)) = -1/2 d/dt ||u||_2^2 at interior samples.

    The derivative is the three-point quadratic-fit formula on the nonuniform
    sample times; the defect is normalised by max(|J| scale, 1).  On blow-up
    runs it is a near-cancellation of large terms close to T_detect: a one-ulp
    change in 10% of the transform outputs moves it by about 2e-8 relative,
    so no gate or reproduction check on it can be tighter than about 1e-7.
    """
    t = traj.column("t")
    m = traj.column("mass")
    j = traj.column("nehari")
    if t.size < 3:
        raise ValueError("need at least 3 samples")
    dm = _nonuniform_derivative(t, m)
    defect = np.abs(0.5 * dm + j[1:-1])
    return float(np.max(defect) / max(np.max(np.abs(j)), 1.0))

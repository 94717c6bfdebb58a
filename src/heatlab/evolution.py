"""Exponential time integration with blow-up detection and identity monitors.

The semiflow of d_t u + (L + shift) u = sign |u|^(p-1) u is integrated with
exponential integrators that treat the linear part exactly in the eigenbasis:

    exponential Euler   u+ = e^{-dt A} u + dt phi1(-dt A) N(u),
    ETDRK2              u+ = a + dt phi2(-dt A)(N(a) - N(u)),
                        a  = e^{-dt A} u + dt phi1(-dt A) N(u),

with phi1(z) = (e^z - 1)/z and phi2(z) = (e^z - 1 - z)/z^2 (Cox & Matthews,
J. Comput. Phys. 176, 2002).  Step size is controlled by step doubling: one
full step is compared against two half steps and the pair is accepted when
the difference, relative to the solution norm, is below rel_tol.  The full
step and the first half step start from the same state, so an attempt takes
them as one step over a stack of both, dt above dt/2: an ETDRK2 attempt
makes 8 coefficient transforms (the stacked stage's values and source term,
the midpoint's, the second half step's stage and the new state's), not 10.

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

from .grids import Field, FieldError, _lq_integral
from .operators import SpectralOperator, _MirrorSector, _mirror_sector, _sector_folds
from .variational import EquationMode, _functionals, _mode_multiplier, _source_term

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
        """Refuses, by the field's name (a grids.FieldError, which the config
        reports under the field's key): a non-finite or non-positive size,
        tolerance, cap, sample interval or cutoff radius, dt_init outside
        [dt_min, dt_max], and a max_steps that is not an integer of at least
        1 (a bool is not one)."""
        if self.scheme not in SCHEMES:
            raise FieldError(f"unknown scheme {self.scheme!r}", (IntegratorConfig, "scheme"))
        names = "t_max dt_init dt_min dt_max rel_tol blowup_sup_cap blowup_energy_cap".split()
        sizes = [(name, getattr(self, name)) for name in names]
        if self.sample_interval is not None:
            sizes.append(("sample_interval", self.sample_interval))
        sizes += [("cutoff_radii", r) for r in self.cutoff_radii]
        for name, value in sizes:
            if not (math.isfinite(value) and value > 0):
                raise FieldError(
                    f"{name} must be finite and positive, got {value!r}", (IntegratorConfig, name)
                )
        if not (self.dt_min <= self.dt_init <= self.dt_max):
            raise FieldError("need 0 < dt_min <= dt_init <= dt_max", (IntegratorConfig, "dt_init"))
        if (
            isinstance(self.max_steps, bool)
            or not isinstance(self.max_steps, (int, np.integer))
            or self.max_steps < 1
        ):
            raise FieldError(
                f"max_steps must be at least 1 and an integer, got {self.max_steps!r}",
                (IntegratorConfig, "max_steps"),
            )


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


class _Stepper:
    """Coefficient-space stepping kernels and state statistics for one
    (operator, mode) pair, on the whole grid or on a mirror sector of it.

    The kernels take one field, shape (N,), with a scalar dt, or a stack of
    k fields, one per row, shape (k, N), with one dt per row; the state
    statistics take one row.  On a sector N is its node count, and the
    fields, coefficients, eigenvalues and node weights are the sector's.
    The multipliers a = mu + shift come from variational._mode_multiplier,
    so a pair with no energy space is refused here, for every flow.
    """

    def __init__(
        self, op: SpectralOperator, mode: EquationMode, sector: Optional[_MirrorSector] = None
    ):
        space = op if sector is None else sector
        self.to_coeffs, self.from_coeffs = space.to_coeffs, space.from_coeffs
        self.weight = op.grid.weight if sector is None else sector.weight
        self.stacked = sector is not None or not op.basis.size
        self.mode = mode
        self.a = _mode_multiplier(space, mode)
        self.q = 2.0 * mode.p_critical if mode.regime == "critical" else None

    def _rows(self, transform, x: np.ndarray) -> np.ndarray:
        """transform (to_coeffs or from_coeffs) of one field or of a stack,
        one field per row, with contiguous rows out.

        On the structured path and on a sector a stack goes in as one
        (N, k) call, x.T, and its columns equal the single calls bit for
        bit.  On the dense path, where a stacked product equals single
        calls only to roundoff, so does every row.
        """
        if x.ndim == 1:
            return transform(x)
        if not self.stacked:
            return np.stack([transform(row) for row in x])
        return np.ascontiguousarray(transform(x.T).T)

    def values(self, c: np.ndarray) -> np.ndarray:
        return self._rows(self.from_coeffs, c)

    def n_hat(self, u_phys: np.ndarray) -> np.ndarray:
        nl = _source_term(self.mode, u_phys)
        # zeros need no transform
        return self._rows(self.to_coeffs, nl) if self.mode.sign else nl

    def multipliers(self, dt, scheme: str) -> tuple:
        """(e^z, dt phi1(z), dt phi2(z)) at z = -dt a; phi2 only for ETDRK2.

        dt is one step size, or a (k, 1) column of one per row of a stack;
        each entry depends on its own z alone, so a stack of step sizes
        gives the separate calls' multipliers bit for bit.  One expm1 serves
        both quotients; where they cancel, |z| < 1e-5 for phi1 and 1e-4 for
        phi2, their Taylor heads replace them (Kassam & Trefethen, SIAM J.
        Sci. Comput. 26, 2005).  The unused quotient is 0/0 at z = 0, so
        callers run this under an errstate that ignores it.
        """
        z = -dt * self.a
        em1, az, z2 = np.expm1(z), np.abs(z), z**2
        dt_phi1 = dt * np.where(az < 1e-5, 1.0 + z / 2.0 + z2 / 6.0, em1 / z)
        dt_phi2 = None
        if scheme == "etdrk2":
            dt_phi2 = dt * np.where(az < 1e-4, 0.5 + z / 6.0 + z2 / 24.0, (em1 - z) / z2)
        return np.exp(z), dt_phi1, dt_phi2

    def step(self, c: np.ndarray, n0: np.ndarray, mult: tuple, scheme: str) -> np.ndarray:
        """One step with the multipliers of its size (see multipliers)."""
        ez, dt_phi1, dt_phi2 = mult
        stage = ez * c + dt_phi1 * n0
        if scheme == "exponential_euler":
            return stage
        n1 = self.n_hat(self.values(stage))
        return stage + dt_phi2 * (n1 - n0)

    def attempt(self, c: list, n0: list, dt: list, scheme: str) -> tuple:
        """One step-doubling attempt for k rows, from each row's coefficients
        c and transformed source term n0 (1-d arrays) with its step size dt:
        the stacks (full step, midpoint coefficients, midpoint values,
        midpoint source term, two half steps), one row each.

        The full step and the first half step start from the same (c, n0),
        so they run as one stacked step over 2k rows, dt above dt/2: one
        multipliers call, one values/n_hat pair and one source term for
        both.  With the second half step and the accepted state's values and
        source term, an ETDRK2 attempt makes 8 transforms, not 10.  Each
        row's results equal its full and two half steps taken one by one
        (step) bit for bit.
        """
        k = len(dt)
        dt = np.array(dt)
        mult = self.multipliers(np.concatenate([dt, 0.5 * dt])[:, None], scheme)
        both = self.step(np.array(c * 2), np.array(n0 * 2), mult, scheme)
        mid = both[k:]
        u_mid = self.values(mid)
        n_half = self.n_hat(u_mid)
        half = self.step(mid, n_half, tuple(m if m is None else m[k:] for m in mult), scheme)
        return both[:k], mid, u_mid, n_half, half

    def rates(self, c: np.ndarray, n_hat: np.ndarray, abs_u: np.ndarray) -> tuple[float, float]:
        """The time integrands at one state: ||u_t||^2 = ||a c - N^||^2 and, in
        the critical regime, int |u|^q (0 otherwise); each is inf or nan past
        double range."""
        ut = self.a * c - n_hat
        q_int = _lq_integral(abs_u, self.q, self.weight) if self.q is not None else 0.0
        return float(ut @ ut), q_int

    def state_stats(
        self, c: np.ndarray, u_phys: np.ndarray, n0: np.ndarray, cutoffs: dict[float, np.ndarray]
    ) -> Optional[tuple[TrajectorySample, tuple[float, float]]]:
        """The state's sample (t and the running integrals left at 0) and
        rates, or None when E, J, the mass or a cutoff mass is past double
        range."""
        abs_u = np.abs(u_phys)
        rep = _functionals(self.a, c, abs_u, self.mode, self.weight)
        mass = float(c @ c)  # coefficients carry sqrt(weight): c.c is the L^2 mass
        cutoff = {r: _lq_integral(chi * abs_u, 2.0, self.weight) for r, chi in cutoffs.items()}
        if not all(map(math.isfinite, (rep.energy, rep.nehari, mass, *cutoff.values()))):
            return None
        sample = TrajectorySample(
            t=0.0,
            mass=mass,
            energy_norm=rep.energy_norm,
            energy=rep.energy,
            nehari=rep.nehari,
            lp=rep.lp,
            sup=float(np.max(abs_u)) if abs_u.size else 0.0,
            dissipation_cum=0.0,
            s_norm_cum=0.0,
            cutoff_mass=cutoff or None,
        )
        return sample, self.rates(c, n0, abs_u)


def step(
    u: Field,
    dt: float,
    op: SpectralOperator,
    mode: EquationMode,
    scheme: str = "exponential_euler",
) -> Field:
    """Advance one explicit exponential step of size dt (no adaptivity).

    Raises ValueError when the stepped field is past double range.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    st = _Stepper(op, mode)
    c = op.to_coeffs(u)
    with np.errstate(over="ignore", invalid="ignore"):  # judged below
        out = op.from_coeffs(st.step(c, st.n_hat(u.values), st.multipliers(dt, scheme), scheme))
    if not np.all(np.isfinite(out)):
        raise ValueError("step overflows: the stepped field is past double range")
    return Field(out, op.grid)


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

    def advance(self, dt: float, prev: tuple, mid: tuple, cur: tuple) -> bool:
        """Add one accepted step to both time integrals, from the rates of its
        start, midpoint and end, and return whether they stayed finite.

        A non-finite integral leaves both as they were, so an overflow never
        enters them.  Each rate is scaled by its weight before the sum, so
        rates near double range whose weighted sum is finite stay finite.
        """
        w = dt / 6.0
        diss = self.diss + (w * prev[0] + 4.0 * w * mid[0] + w * cur[0])
        s_int = self.s_int
        if self.q is not None:
            s_int += w * prev[1] + 4.0 * w * mid[1] + w * cur[1]
        if not (math.isfinite(diss) and math.isfinite(s_int)):
            return False
        self.diss, self.s_int = diss, s_int
        return True

    def s_norm(self) -> float:
        if self.q is None or self.s_int <= 0.0:
            return 0.0
        return self.s_int ** (1.0 / self.q)


@dataclass(eq=False, slots=True)
class _Row:
    """One trajectory in integrate_rows' step loop.

    c, n0 and u_phys are its coefficients, transformed source term and grid
    values, each a contiguous 1-d array, on the mirror sector when sector
    is set; sample and rates are the statistics of that state, and err is
    the error of its last attempt.
    """

    traj: Trajectory
    acc: _Accumulators
    c: np.ndarray
    n0: np.ndarray
    u_phys: np.ndarray
    sample: TrajectorySample
    rates: tuple
    sup0: float
    dt: float
    next_sample: float
    t: float = 0.0
    err: float = 0.0
    ended: bool = False
    sector: Optional[_MirrorSector] = None


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
    precision, so that its E or J is not finite, or lives on another grid
    than op's, and when op and mode have no energy space (some mu + shift
    not positive, variational._mode_multiplier).  The run is
    integrate_rows with one row.
    """
    (traj,) = integrate_rows([u0], op, mode, cfg)
    if isinstance(traj, ValueError):
        raise traj
    return traj


def integrate_rows(
    u0s: list[Field],
    op: SpectralOperator,
    mode: EquationMode,
    cfg: IntegratorConfig,
) -> list:
    """Integrate from each initial state of u0s as integrate does, all rows
    in one step loop.

    Returns one entry per state, in order: its Trajectory, or the ValueError
    that integrate raises for an initial state past double range.  Each row
    keeps its own t, dt, accept/reject decisions, accumulators, samples and
    end reason, and leaves the loop when it ends.  Every transform,
    multiplier, source term and stage update runs once over the stack of
    active rows; every reduction (error norms, state statistics, rates)
    runs on the row's own contiguous 1-d array.  Stacked transforms equal
    single calls bit for bit (on the dense path each row is transformed
    alone), so each trajectory is bit for bit the one integrate gives its
    state alone.  Overflow is a value, not an exception: the loop computes
    under one errstate with floating-point warnings off (the source term,
    the functionals and the L^q integrals it calls open none of their own),
    and a row judges what it got.  A non-finite step error rejects the
    attempt and shrinks dt by 4; a non-finite E, J, mass, cutoff mass or
    time integral at an accepted state ends the row as sup_cap with its
    last finite sample.  Each row's values touch only that row, so one
    stacked attempt gives every row its own outcome.  The rows of a serial
    sweep share the fixed cost of each call.  An operator and mode with no
    energy space (variational._mode_multiplier) raise its ValueError
    before any row starts.

    Each attempt is one fused step (_Stepper.attempt): the full step and
    the first half step of every active row run as one stack of 2k rows,
    with one multipliers call, so an ETDRK2 attempt makes 8 transforms, not
    10, and every trajectory is bit for bit what separate steps give.

    Mirror-even rows step on the half grid.  On a structured operator, a
    row that equals its mirror image along some axes (the rule of
    operators._mirror_axes) never leaves the mirror-even sine modes of
    those axes, so it runs on their mirror sector (operators module
    docstring): its mirror average on the half grid, the kept modes and the
    nodes' weights.  Every axis on the sine-matrix or the Rader path folds;
    an axis on scipy.fft's path does not.  The rows are grouped
    by the axes they fold, and each group, the unfolded one included, runs
    its own lockstep loop, one after the other; a row's trajectory is
    therefore bit for bit its solo run, and the output keeps the input
    order.  The initial sample and its rates are the full-grid evaluation
    whatever the row folds (samples[0] is variational.energy of u0 bit for
    bit, and the grid check and the overflow refusal come first), and
    final_state is the unfolded Field on op.grid, mirror-symmetric exactly.
    """
    st = _Stepper(op, mode)
    cutoffs = _cutoff_profiles(op, cfg.cutoff_radii)
    expo = 1.0 / (_SCHEME_ORDER[cfg.scheme] + 1.0)

    def record(row: _Row, t: float):
        s = row.sample
        row.traj.samples.append(
            TrajectorySample(
                t=t,
                mass=s.mass,
                energy_norm=s.energy_norm,
                energy=s.energy,
                nehari=s.nehari,
                lp=s.lp,
                sup=s.sup,
                dissipation_cum=row.acc.diss,
                s_norm_cum=row.acc.s_norm(),
                cutoff_mass=s.cutoff_mass,
            )
        )

    def finish(row: _Row, reason: str, detect: bool):
        traj = row.traj
        traj.end_reason = reason
        if detect:
            traj.T_detect = row.t
        if not traj.samples or traj.samples[-1].t < row.t:
            record(row, row.t)
        u = row.u_phys if row.sector is None else row.sector.unfold(row.u_phys)
        traj.final_state = Field(u, op.grid)  # Field copies: no view of a stack
        row.ended = True

    def exploding(row: _Row) -> bool:
        # dt collapse (or a step-count blowout) only counts as detection
        # when the solution actually grew; the integrator handles the
        # linear part exactly, so a pinned controller means the
        # nonlinearity went violent, but we still ask for the growth.
        sup = row.sample.sup
        return bool(sup >= 100.0 * row.sup0 or sup >= 0.01 * cfg.blowup_sup_cap)

    def running(row: _Row) -> bool:
        """Whether row takes another step: ends it at t_max or at the step
        limit, and otherwise clips its dt to t_max."""
        if row.ended:
            return False
        if row.t >= cfg.t_max - 1e-14 * cfg.t_max:
            finish(row, "t_max", detect=False)
        elif row.traj.accepted + row.traj.rejected >= cfg.max_steps:
            finish(row, "step_limit", detect=exploding(row))
        else:
            row.dt = min(row.dt, cfg.t_max - row.t)
        return not row.ended

    def advance(rows: list[_Row], st: _Stepper, cutoffs: dict[float, np.ndarray]):
        """One attempt per row, by step doubling from its (c, n0) (see
        _Stepper.attempt): each row accepts or rejects its own, and the
        accepted rows' new states take one values/n_hat pair together."""
        full, mid, u_mid, n_half, half = st.attempt(
            [row.c for row in rows], [row.n0 for row in rows], [row.dt for row in rows], cfg.scheme
        )
        accepted = []
        for k, row in enumerate(rows):
            diff = float(np.linalg.norm(full[k] - half[k]))
            err = diff / max(float(np.linalg.norm(half[k])), 1e-300)
            if err <= cfg.rel_tol:  # False for a nan error
                row.err = err
                accepted.append(k)
                continue
            row.traj.rejected += 1
            row.dt *= max(0.9 * (cfg.rel_tol / err) ** expo, 0.2) if math.isfinite(err) else 0.25
            if row.dt < cfg.dt_min:
                finish(row, "dt_underflow", detect=exploding(row))
        if not accepted:
            return
        if len(accepted) < len(rows):
            rows = [rows[k] for k in accepted]
            mid, u_mid, n_half, half = (x[accepted] for x in (mid, u_mid, n_half, half))

        # accept: propagate the two-half-step solution
        u_phys = st.values(half)
        n0 = st.n_hat(u_phys)
        for k, row in enumerate(rows):
            row.t += row.dt
            row.c, row.u_phys = half[k], u_phys[k]
            state = st.state_stats(row.c, row.u_phys, n0[k], cutoffs)
            mid_rates = st.rates(mid[k], n_half[k], np.abs(u_mid[k]))
            if state is None or not row.acc.advance(row.dt, row.rates, mid_rates, state[1]):
                # the accepted state's E, J or a time integral is past double
                # range: explosion, recorded with the last finite sample
                finish(row, "sup_cap", detect=True)
                continue
            row.n0 = n0[k]
            row.sample, row.rates = state
            row.traj.accepted += 1

            if cfg.sample_interval is None or row.t >= row.next_sample - 1e-14:
                record(row, row.t)
                if cfg.sample_interval:
                    row.next_sample += cfg.sample_interval

            if row.sample.sup > cfg.blowup_sup_cap:
                finish(row, "sup_cap", detect=True)
            elif row.sample.energy_norm > cfg.blowup_energy_cap:
                finish(row, "energy_cap", detect=True)
            else:
                grow = 0.9 * (cfg.rel_tol / max(row.err, 1e-16)) ** expo
                row.dt = min(max(row.dt * min(max(grow, 0.2), 5.0), cfg.dt_min), cfg.dt_max)

    out: list = []
    groups: dict[tuple[bool, ...], list[_Row]] = {}
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is judged, never warned
        for u0 in u0s:
            c, n0 = op.to_coeffs(u0), st.n_hat(u0.values)
            stats = st.state_stats(c, u0.values, n0, cutoffs)
            if stats is None:
                out.append(ValueError("initial state overflows: E or J is past double range"))
                continue
            sample, rates = stats
            row = _Row(
                traj=Trajectory(samples=[], mode=mode),
                acc=_Accumulators(st.q),
                c=c,
                n0=n0,
                u_phys=u0.values,
                sample=sample,
                rates=rates,
                sup0=max(sample.sup, 1e-300),
                dt=cfg.dt_init,
                next_sample=cfg.sample_interval if cfg.sample_interval else 0.0,
            )
            record(row, 0.0)
            out.append(row.traj)
            groups.setdefault(_sector_folds(op, u0.values), []).append(row)

        for folds, rows in groups.items():
            sector = _mirror_sector(op, folds)
            group_st, group_cutoffs = st, cutoffs
            if sector is not None:
                group_st = _Stepper(op, mode, sector)
                # a node stands for its mirror images: the mean of their chi^2
                group_cutoffs = {r: np.sqrt(sector.restrict(chi**2)) for r, chi in cutoffs.items()}
                for row in rows:
                    row.sector = sector
                    row.u_phys = sector.restrict(row.u_phys)
                    row.c, row.n0 = sector.to_coeffs(row.u_phys), group_st.n_hat(row.u_phys)
            while rows := [row for row in rows if running(row)]:
                advance(rows, group_st, group_cutoffs)
    return out


@dataclass
class PicardResult:
    """Successive Duhamel iterates evaluated at the end of the window.

    diffs[k] is the largest L^2 distance over the time slices between
    iterates k and k+1; ratios are consecutive quotients of diffs, so values
    below 1/2 certify the contraction regime.  converged is False when the
    iteration is expanding; the limit is then meaningless and reported as is.
    It is False too when an iterate leaves double range: the iteration stops
    there, with that non-finite diff last and no iterate for it.
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
    c0 = op.to_coeffs(u0)
    linear = props * c0  # row j: linear flow at slice j

    states = linear.copy()
    iterates = [Field(op.from_coeffs(states[m]), op.grid)]
    diffs: list[float] = []
    ratios: list[float] = []
    converged = True
    for _ in range(n_iter):
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite diff is judged below
            n_hats = st.n_hat(st.values(states))
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
        if not math.isfinite(diff):  # the iterate left double range: no Field of it
            converged = False
            break
        if len(diffs) >= 2 and diffs[-2] > 0:
            ratios.append(diffs[-1] / diffs[-2])
        states = new
        iterates.append(Field(op.from_coeffs(states[m]), op.grid))
    if len(ratios) >= 2 and ratios[-1] > 1.0 and ratios[-2] > 1.0:
        converged = False
    return PicardResult(iterates=iterates, diffs=diffs, ratios=ratios, converged=converged)


def energy_identity_residual(traj: Trajectory) -> float:
    """Worst relative defect of E(t) + int_0^t ||u_s||^2 ds = E(0).

    Each sample's defect is divided by max(|E(0)|, |E(t)|, 1), so on a
    blow-up run, where E(t) and the dissipation integral grow without bound
    and cancel, the defect is relative to the terms it is taken from.  While
    |E(t)| <= |E(0)|, as on every dissipating run, that is the one
    denominator max(|E(0)|, 1).
    """
    e = traj.column("energy")
    d = traj.column("dissipation_cum")
    scale = np.maximum(np.maximum(np.abs(e), abs(e[0])), 1.0)
    return float(np.max(np.abs(e + d - e[0]) / scale))


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

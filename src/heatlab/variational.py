"""Energy functionals, Nehari manifold, ground states and threshold constants.

For the source nonlinearity the equation's stationary variational structure is

    E(u) = 1/2 ||u||_E^2 - 1/(p+1) ||u||_{p+1}^{p+1},
    J(u) = ||u||_E^2 - ||u||_{p+1}^{p+1} = d/dl E(l u) at l = 1,

where ||u||_E is the energy norm: ||(I+L)^{1/2} u||_2 in the subcritical
regime and the homogeneous ||L^{1/2} u||_2 in the critical one.  The Nehari
manifold {J = 0, u != 0} carries the mountain-pass level

    level = inf_{u != 0} max_{l >= 0} E(l u) = inf_{J=0} E
          = (p-1)/(2(p+1)) * S^(-2(p+1)/(p-1)),

with S the best constant of ||u||_{p+1} <= S ||u||_E.  On a finite grid every
infimum is attained, so these identities hold exactly for the discrete
objects computed here; the analytic sech ground state of -u'' + u = u^3 on
the line is the standard accuracy oracle.

With the absorbing sign the dissipation identity requires
E(u) = 1/2||u||_E^2 + 1/(p+1)||u||_{p+1}^{p+1} and J >= ||u||_E^2; the
threshold machinery (projection, ground state, S, level, classification)
is specific to the source sign and refuses other modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .grids import Field, _lq_integral, field_from_function, lp_norm
from .operators import SpectralOperator

NONLINEARITY = ("source", "absorbing", "none")
_BOUND_TIMES = 300  # log-spaced times in sobolev_bound_from_semigroup's quadrature
_BOUND_T_MIN = 1e-12  # its smallest time; the range below is a closed-form remainder
_SOLVE_TOL = 1e-6  # relative gradient at which _nehari_fixed_point stops
_SOLVE_MAX_ITER = 2000  # its iteration limit


class ConvergenceError(RuntimeError):
    """Iterative solver failed; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class EquationMode:
    """Nonlinearity regime of d_t u + L u (+ u) = sign |u|^(p-1) u.

    regime "subcritical" keeps the mass term (+u, inhomogeneous energy norm);
    regime "critical" drops it and pins p to the energy-critical exponent
    (d+2)/(d-2), defined only for dim >= 3.  nonlinearity "none" switches the
    right-hand side off for linear checks.
    """

    regime: str
    p: float
    dim: int
    nonlinearity: str = "source"

    def __post_init__(self):
        if self.regime not in ("subcritical", "critical"):
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.nonlinearity not in NONLINEARITY:
            raise ValueError(f"unknown nonlinearity {self.nonlinearity!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.regime == "critical":
            if self.dim < 3:
                raise ValueError("critical regime requires dim >= 3")
            if abs(self.p - self.p_critical) > 1e-12:
                raise ValueError("critical regime pins p to (d+2)/(d-2)")
        else:
            if not (1.0 < self.p):
                raise ValueError("need p > 1")
            if self.p >= self.p_critical:
                raise ValueError(
                    f"subcritical regime needs p < {self.p_critical} in dimension {self.dim}"
                )

    @property
    def p_critical(self) -> float:
        return (self.dim + 2.0) / (self.dim - 2.0) if self.dim >= 3 else math.inf

    @property
    def shift(self) -> float:
        return 1.0 if self.regime == "subcritical" else 0.0

    @property
    def sign(self) -> float:
        return {"source": 1.0, "absorbing": -1.0, "none": 0.0}[self.nonlinearity]

    @staticmethod
    def subcritical(p: float, dim: int, nonlinearity: str = "source") -> "EquationMode":
        return EquationMode("subcritical", float(p), dim, nonlinearity)

    @staticmethod
    def critical(dim: int, nonlinearity: str = "source") -> "EquationMode":
        if dim < 3:
            raise ValueError("critical requires d >= 3")
        return EquationMode("critical", (dim + 2.0) / (dim - 2.0), dim, nonlinearity)


@dataclass(frozen=True)
class FunctionalReport:
    """Values of the stationary functionals at one field.

    membership is one of Mplus/Mminus/OnNehari/AboveLevel/Zero once classified
    against threshold constants, or None when only the functional values were
    requested.  borderline marks E equal to the level within tolerance; note
    carries consistency warnings.
    """

    energy: float
    nehari: float
    energy_norm: float
    lp: float
    membership: Optional[str] = None
    borderline: bool = False
    note: Optional[str] = None


@dataclass
class VariationalConstants:
    """Threshold constants of one (operator, mode) pair.

    level = (p-1)/(2(p+1)) * S^(-2(p+1)/(p-1)) holds by construction for both
    computation routes.  y_C = S^(-2(p+1)/(p-1)) bounds ||u||_E^2 along
    trajectories trapped below the level.
    """

    S: float
    level: float
    y_C: float
    p: float
    regime: str
    method: str
    ground_state: Optional[Field] = None


@dataclass(frozen=True)
class ProjectionResult:
    lambda_star: float
    projected: Field
    peak_energy: float


def _mode_multiplier(op: SpectralOperator, mode: EquationMode) -> np.ndarray:
    a = op.mu + mode.shift
    if np.min(a) < -1e-12 * max(abs(op.mu[-1]), 1.0):
        raise ValueError(
            f"spectrum extends below the energy-space lower bound (min {np.min(a):.3e})"
        )
    return np.maximum(a, 0.0)


def _require_source(mode: EquationMode, what: str) -> None:
    if mode.nonlinearity != "source":
        raise ValueError(f"{what} is defined for the source nonlinearity only")


_OVERFLOW = "field overflows: E or J is past double range"


def _source_term(mode: EquationMode, u: np.ndarray) -> np.ndarray:
    """The source term sign |u|^(p-1) u on the grid; zeros for nonlinearity "none".

    Entries past double range come back inf (or nan); each caller runs this
    under an errstate that ignores overflow and invalid values, and judges
    them.
    """
    if mode.sign == 0.0:
        return np.zeros_like(u)
    return mode.sign * np.abs(u) ** (mode.p - 1.0) * u


def _functionals(
    a: np.ndarray, c: np.ndarray, abs_u: np.ndarray, mode: EquationMode, weight: float
) -> FunctionalReport:
    """E, J, ||u||_E and ||u||_{p+1} from the coefficients c and |u| on the grid.

    a is the energy multiplier of each coefficient.  Past double range E and
    J come back inf or nan; each caller runs this under an errstate that
    ignores overflow and invalid values, and judges them.
    """
    en_sq = float(np.sum(a * np.abs(c) ** 2))
    lp_p1 = _lq_integral(abs_u, mode.p + 1.0, weight)
    nl = mode.sign * lp_p1
    return FunctionalReport(
        energy=0.5 * en_sq - nl / (mode.p + 1.0),
        nehari=en_sq - nl,
        energy_norm=math.sqrt(max(en_sq, 0.0)),
        lp=lp_p1 ** (1.0 / (mode.p + 1.0)),
    )


def energy(u: Field, op: SpectralOperator, mode: EquationMode) -> FunctionalReport:
    """Energy E, Nehari value J, energy norm and L^(p+1) norm of a field.

    Raises ValueError when E or J is past double range.
    """
    a = _mode_multiplier(op, mode)
    with np.errstate(over="ignore", invalid="ignore"):  # judged below
        rep = _functionals(a, op.to_coeffs(u), np.abs(u.values), mode, op.grid.weight)
    if not (math.isfinite(rep.energy) and math.isfinite(rep.nehari)):
        raise ValueError(_OVERFLOW)
    return replace(rep, membership="Zero") if lp_norm(u, 2.0) == 0.0 else rep


def energy_gradient(u: Field, op: SpectralOperator, mode: EquationMode) -> Field:
    """L^2 gradient (I+L)u - sign |u|^(p-1) u (homogeneous part in critical mode).

    Raises ValueError when the gradient is past double range.
    """
    if np.iscomplexobj(u.values):
        raise ValueError("gradient is defined for real fields")
    a = _mode_multiplier(op, mode)
    with np.errstate(over="ignore", invalid="ignore"):  # judged below
        grad = op.from_coeffs(a * op.to_coeffs(u)) - _source_term(mode, u.values)
    if not np.all(np.isfinite(grad)):
        raise ValueError(_OVERFLOW)
    return Field(grad, op.grid)


def nehari_projection(u: Field, op: SpectralOperator, mode: EquationMode) -> ProjectionResult:
    """Scale u onto the Nehari manifold: J(lambda* u) = 0.

    lambda* = (||u||_E^2 / ||u||_{p+1}^{p+1})^(1/(p-1)); the projected field
    realises the peak of E along the ray through u.
    """
    _require_source(mode, "Nehari projection")
    rep = energy(u, op, mode)
    if rep.energy_norm == 0.0 or rep.lp == 0.0:
        raise ValueError("cannot project a field with zero energy or zero L^(p+1) norm")
    lam = (rep.energy_norm**2 / rep.lp ** (mode.p + 1.0)) ** (1.0 / (mode.p - 1.0))
    projected = u * lam
    en_sq = (lam * rep.energy_norm) ** 2
    peak = (0.5 - 1.0 / (mode.p + 1.0)) * en_sq  # E on the manifold
    return ProjectionResult(lambda_star=float(lam), projected=projected, peak_energy=float(peak))


def _default_bump(op: SpectralOperator, offset: float = 0.0) -> Field:
    grid = op.grid
    lo = np.asarray(grid.domain.lower)
    up = np.asarray(grid.domain.upper)
    center = lo + (0.5 + offset) * (up - lo)
    width = float(np.min(up - lo)) / 8.0
    return field_from_function(
        grid, lambda x: np.exp(-np.sum((x - center) ** 2, axis=1) / (2.0 * width**2))
    )


def _nehari_fixed_point(op: SpectralOperator, mode: EquationMode, start: Field) -> Field:
    """Projected inverse iteration u <- Pi_N[(L+shift)^(-1) |u|^(p-1) u].

    The fixed points solve the discrete stationary equation exactly; the
    Nehari projection removes the unstable ray direction, and on the manifold
    the linearised map is a contraction (the constrained Hessian at the
    minimiser is nonnegative).  Residual = ||grad E||_2 / ||u||_2; the
    iteration stops below _SOLVE_TOL and gives up after _SOLVE_MAX_ITER
    iterations.
    """
    a = _mode_multiplier(op, mode)
    if np.min(a) <= 0:
        raise ValueError("fixed-point iteration needs a strictly positive energy multiplier")
    u = nehari_projection(start, op, mode).projected
    theta = 1.0
    prev_res = math.inf
    bad = 0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual is judged below
        for _ in range(_SOLVE_MAX_ITER):
            c = op.to_coeffs(u.values)
            n_hat = op.to_coeffs(_source_term(mode, u.values))
            res = float(np.linalg.norm(a * c - n_hat) / max(np.linalg.norm(c), 1e-300))
            if not math.isfinite(res):
                raise ConvergenceError("fixed-point iteration diverged", float("inf"))
            if res <= _SOLVE_TOL:
                return u
            if res > prev_res * (1.0 + 1e-12):
                bad += 1
                if bad >= 5:
                    theta = max(0.25 * theta, 0.05)
                    bad = 0
            prev_res = res
            step = op.from_coeffs(n_hat / a)
            candidate = Field((1.0 - theta) * u.values + theta * step, u.grid)
            u = nehari_projection(candidate, op, mode).projected
    raise ConvergenceError(f"no convergence after {_SOLVE_MAX_ITER} iterations", prev_res)


def ground_state(op: SpectralOperator, mode: EquationMode) -> Field:
    """Positive minimiser of E on the Nehari manifold (subcritical only).

    Projected descent from a centred positive bump; terminates when the
    relative gradient ||grad E||_2/||u||_2 drops below _SOLVE_TOL.
    Critical-mode minimisers on truncated grids are a different object and
    are refused.
    """
    _require_source(mode, "ground state")
    if mode.regime != "subcritical":
        raise ValueError("ground_state supports the subcritical regime only")
    u = _nehari_fixed_point(op, mode, _default_bump(op))
    if np.sum(u.values) < 0:  # fix the sign convention
        u = u * (-1.0)
    return u


def _chain_s_from_level(level: float, p: float) -> float:
    """Invert level = (p-1)/(2(p+1)) S^(-2(p+1)/(p-1)) for S."""
    coeff = (p - 1.0) / (2.0 * (p + 1.0))
    return (coeff / level) ** ((p - 1.0) / (2.0 * (p + 1.0)))


def _level_from_s(s_const: float, p: float) -> float:
    coeff = (p - 1.0) / (2.0 * (p + 1.0))
    return coeff * s_const ** (-2.0 * (p + 1.0) / (p - 1.0))


def talenti_constant(d: int) -> float:
    """Best constant S of ||u||_(2d/(d-2)) <= S ||grad u||_2 on R^d, d >= 3.

    S = (pi d (d - 2))^(-1/2) (Gamma(d) / Gamma(d/2))^(1/d) (Aubin, J.
    Differential Geom. 11, 1976; Talenti, Ann. Mat. Pura Appl. 110, 1976);
    0.42726 in d = 3.  The Sobolev route on a grid measures a lattice
    constant above it (README, numerical notes).
    """
    if d < 3:
        raise ValueError("the critical Sobolev constant needs d >= 3")
    return (math.pi * d * (d - 2)) ** -0.5 * (math.gamma(d) / math.gamma(d / 2)) ** (1 / d)


def best_sobolev_constant(op: SpectralOperator, mode: EquationMode) -> float:
    """Best constant of ||u||_{p+1} <= S ||u||_E on the grid.

    The S of mountain_pass_level's "sobolev_formula" route, cross-check
    included; call that directly when the level or ground state is needed
    too, so the ground state is not solved twice.
    """
    return mountain_pass_level(op, mode, "sobolev_formula").S


def mountain_pass_level(
    op: SpectralOperator, mode: EquationMode, method: str = "auto"
) -> VariationalConstants:
    """Threshold constants via the Nehari infimum or the Sobolev formula.

    "nehari_inf" takes level = E(ground state) and chains S from it;
    "sobolev_formula" computes S first and evaluates the closed-form level.
    Its S maximises the ratio directly from an independent off-centre bump;
    in the subcritical regime it is cross-checked against the S chained from
    the ground-state level (disagreement beyond 1% raises), which it then
    returns.  Both routes satisfy the level/S identity by construction;
    agreement between them is a solver check, the analytic oracle for both
    is the explicit line ground state.  "auto" picks nehari_inf when the
    ground state exists (subcritical) and the Sobolev route otherwise.  The
    ground state, solved once, is returned with the constants.
    """
    _require_source(mode, "mountain-pass level")
    if method == "auto":
        method = "nehari_inf" if mode.regime == "subcritical" else "sobolev_formula"
    if method == "nehari_inf":
        if mode.regime != "subcritical":
            raise ValueError("nehari_inf needs the subcritical ground state")
        phi = ground_state(op, mode)
        level = energy(phi, op, mode).energy
        s_const = _chain_s_from_level(level, mode.p)
    elif method == "sobolev_formula":
        psi = _nehari_fixed_point(op, mode, _default_bump(op, offset=0.07))
        rep = energy(psi, op, mode)
        s_const = rep.lp / rep.energy_norm
        phi = None
        if mode.regime == "subcritical":
            phi = ground_state(op, mode)
            s_chain = _chain_s_from_level(energy(phi, op, mode).energy, mode.p)
            if abs(s_chain - s_const) > 0.01 * s_chain:
                raise ConvergenceError(
                    f"Sobolev constant routes disagree: chain {s_chain:.6e} vs direct {s_const:.6e}",
                    abs(s_chain - s_const) / s_chain,
                )
            s_const = s_chain
        level = _level_from_s(s_const, mode.p)
    else:
        raise ValueError(f"unknown method {method!r}")
    y_c = s_const ** (-2.0 * (mode.p + 1.0) / (mode.p - 1.0))
    return VariationalConstants(
        S=float(s_const),
        level=float(level),
        y_C=float(y_c),
        p=mode.p,
        regime=mode.regime,
        method=method,
        ground_state=phi,
    )


def classify(
    u: Field,
    op: SpectralOperator,
    mode: EquationMode,
    consts: VariationalConstants,
) -> FunctionalReport:
    """Membership of a field relative to the mountain-pass level.

    Zero for the zero field; AboveLevel when E >= level (equality within a
    relative 1e-9 band is flagged borderline); otherwise the sign of J
    decides Mplus/Mminus, with |J| <= 1e-8 ||u||_E^2 reported as OnNehari.
    A Nehari point strictly below the level contradicts the level being the
    Nehari infimum, so that case carries a consistency note.
    """
    _require_source(mode, "classification")
    rep = energy(u, op, mode)
    if rep.membership == "Zero":
        return rep
    band = 1e-9 * max(abs(consts.level), 1.0)
    if rep.energy > consts.level + band:
        return replace(rep, membership="AboveLevel")
    if abs(rep.energy - consts.level) <= band:
        return replace(rep, membership="AboveLevel", borderline=True)
    if abs(rep.nehari) <= 1e-8 * rep.energy_norm**2:
        return replace(
            rep,
            membership="OnNehari",
            note="Nehari point below the mountain-pass level: inconsistent with "
            "the level being the Nehari infimum",
        )
    return replace(rep, membership="Mplus" if rep.nehari > 0 else "Mminus")


def sobolev_bound_from_semigroup(op: SpectralOperator, mode: EquationMode) -> float:
    """Upper bound for S from the integral formula of the inverse square root.

    (I+L)^(-1/2) = (1/sqrt(pi)) int_0^inf t^(-1/2) e^{-t} e^{-tL} dt gives

        S <= (1/sqrt(pi)) int_0^inf t^(-1/2) ||e^{-t(I+L)}||_{2 -> p+1} dt,

    and the 2 -> p+1 norm interpolates between the exact 2 -> 2 norm
    e^{-t(1+mu_1)} and the exact 2 -> sup norm.  Both endpoint norms are
    computed exactly on the grid (the 2 -> sup norm over all _BOUND_TIMES times
    in one call of smoothing_norm_2_to_inf), the time integral by log-space
    trapezoid with rigorous small-t and large-t remainders added, so the
    result is a genuine upper bound for the measured ratio (up to quadrature
    error on a smooth integrand).  Subcritical mode only.
    """
    _require_source(mode, "Sobolev semigroup bound")
    if mode.regime != "subcritical":
        raise ValueError("the integral formula uses the inhomogeneous norm (subcritical)")
    from .semigroup import smoothing_norm_2_to_inf

    p = mode.p
    theta = 2.0 / (p + 1.0)  # L^2 interpolation weight
    rate2 = 1.0 + op.mu_min
    t_max = 40.0 / rate2
    u_grid = np.linspace(math.log(_BOUND_T_MIN), math.log(t_max), _BOUND_TIMES)
    t_grid = np.exp(u_grid)
    vals = (
        t_grid ** (-0.5)
        * np.exp(-t_grid * rate2) ** theta
        * smoothing_norm_2_to_inf(op, t_grid, shifted=True) ** (1.0 - theta)
    )
    main = float(np.trapezoid(vals * t_grid, u_grid))  # dt = t du
    # below _BOUND_T_MIN: 2->inf norm is bounded by 1/sqrt(w) on a finite grid
    head = 2.0 * math.sqrt(_BOUND_T_MIN) * op.grid.weight ** (-(1.0 - theta) / 2.0)
    tail = float(vals[-1]) / rate2  # integrand decays at least like e^{-rate2 t}
    return (main + head + tail) / math.sqrt(math.pi)

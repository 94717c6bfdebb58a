"""Uniform tensor-product grids and discrete L^p / inner-product primitives.

Unbounded or half-line domains are truncated to a finite box with Dirichlet
conditions on the artificial boundary.  A grid stores interior nodes only:
along each axis the spacing is h = (upper - lower) / (n + 1) and the nodes
sit at lower + k*h for k = 1..n.  Every node carries the same quadrature
weight w = prod(h_i), so the covered volume is prod(n_i * h_i); the half
open cells touching the boundary carry no nodes and no weight.

All norms and inner products in the package are taken with respect to this
weighted counting measure, which makes the discrete L^2 space a faithful
finite-dimensional model of L^2 on the domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DOMAIN_KINDS = ("interval", "box", "halfline_truncated")


@dataclass(frozen=True)
class DomainSpec:
    """Axis-aligned computational domain.

    kind
        "interval" (d = 1), "box" (any d >= 1), or "halfline_truncated"
        (d = 1, lower edge pinned at 0; the upper edge is the truncation
        radius).
    lower, upper
        Per-axis bounds, one entry per dimension.
    """

    kind: str
    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in DOMAIN_KINDS:
            raise ValueError(f"unknown domain kind {self.kind!r}")
        lower = tuple(float(x) for x in self.lower)
        upper = tuple(float(x) for x in self.upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if len(lower) != len(upper) or not lower:
            raise ValueError("lower/upper must be non-empty and of equal length")
        if not all(map(math.isfinite, lower + upper)):
            raise ValueError("domain bounds must be finite")
        if any(u <= l for l, u in zip(lower, upper)):
            raise ValueError("each upper bound must exceed the lower bound")
        if self.kind == "interval" and len(lower) != 1:
            raise ValueError("interval domains are one-dimensional")
        if self.kind == "halfline_truncated":
            if len(lower) != 1:
                raise ValueError("halfline_truncated domains are one-dimensional")
            if lower[0] != 0.0:
                raise ValueError("halfline_truncated domains start at 0")

    @property
    def dim(self) -> int:
        return len(self.lower)

    @staticmethod
    def interval(lower: float, upper: float) -> "DomainSpec":
        return DomainSpec("interval", (lower,), (upper,))

    @staticmethod
    def box(lower, upper, dim: int | None = None) -> "DomainSpec":
        """Box from per-axis bounds, or from scalars replicated `dim` times."""
        if np.isscalar(lower):
            if dim is None:
                raise ValueError("dim required with scalar bounds")
            lower = (float(lower),) * dim
            upper = (float(upper),) * dim
        return DomainSpec("box", tuple(lower), tuple(upper))

    @staticmethod
    def halfline(radius: float) -> "DomainSpec":
        return DomainSpec("halfline_truncated", (0.0,), (float(radius),))


@dataclass(frozen=True)
class Grid:
    """Interior nodes of a uniform tensor grid over `domain`.

    n holds the interior node count per axis, h the spacing per axis and
    weight the (uniform) quadrature weight of a single node.  Nodes are
    enumerated in C order of the per-axis index arrays.
    """

    domain: DomainSpec
    n: tuple[int, ...]
    h: tuple[float, ...] = field(init=False)
    weight: float = field(init=False)

    def __post_init__(self):
        n = tuple(int(k) for k in self.n)
        object.__setattr__(self, "n", n)
        if len(n) != self.domain.dim:
            raise ValueError("one node count per axis required")
        if any(k < 2 for k in n):
            raise ValueError("need at least 2 interior nodes per axis")
        h = tuple((u - l) / (k + 1) for l, u, k in zip(self.domain.lower, self.domain.upper, n))
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "weight", float(np.prod(h)))

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def n_total(self) -> int:
        return int(np.prod(self.n))

    @property
    def covered_volume(self) -> float:
        """Total quadrature mass: prod(n_i * h_i)."""
        return self.weight * self.n_total

    def axis_nodes(self, axis: int) -> np.ndarray:
        lo, hh, k = self.domain.lower[axis], self.h[axis], self.n[axis]
        return lo + hh * np.arange(1, k + 1)

    def coords(self) -> np.ndarray:
        """Node coordinates, shape (n_total, dim), C order."""
        axes = [self.axis_nodes(a) for a in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def radii(self) -> np.ndarray:
        """Euclidean distance of every node from the origin."""
        return np.linalg.norm(self.coords(), axis=1)


def build_grid(domain: DomainSpec, n_per_axis) -> Grid:
    """Build the interior-node grid with n_per_axis nodes along each axis.

    n_per_axis may be a scalar (replicated over axes) or a per-axis sequence;
    every entry must be >= 2.
    """
    if np.isscalar(n_per_axis):
        n = (int(n_per_axis),) * domain.dim
    else:
        n = tuple(int(k) for k in n_per_axis)
    return Grid(domain, n)


@dataclass(frozen=True)
class Field:
    """Values of a scalar function sampled at the nodes of a grid.

    Entries must be finite.  Values are stored read-only; arithmetic helpers
    return new fields on the same grid.
    """

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        v = np.array(self.values)
        if v.shape != (self.grid.n_total,):
            raise ValueError(f"expected {self.grid.n_total} values, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __add__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.values + other.values, self.grid)

    def __sub__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.values - other.values, self.grid)

    def __mul__(self, scalar) -> "Field":
        return Field(self.values * scalar, self.grid)

    __rmul__ = __mul__

    def _check_same_grid(self, other: "Field"):
        if other.grid is not self.grid and other.grid != self.grid:
            raise ValueError("fields live on different grids")


def zero_field(grid: Grid) -> Field:
    return Field(np.zeros(grid.n_total), grid)


def field_from_function(grid: Grid, fn) -> Field:
    """Sample fn at the grid nodes; fn maps (n_total, dim) coords to values."""
    x = grid.coords()
    return Field(np.asarray(fn(x), dtype=float), grid)


def lp_norm(f: Field, p_exp: float) -> float:
    """Discrete L^p norm (sum w |f|^p)^(1/p); p_exp = inf gives the sup norm."""
    return float(_lr_norms(f.values, p_exp, f.grid.weight))


def _lr_norms(u: np.ndarray, r: float, weight: float) -> np.ndarray:
    """Discrete L^r norms (sum w |u|^r)^(1/r) over axis 0; r = inf gives sup norms.

    u is one field, shape (N,), or a stack of fields, one per column.  Each
    column is divided by its largest magnitude before the power sum and
    multiplied back after the root, so a finite field has a finite norm
    (unless the norm itself is past double range) where the plain power sum
    would overflow.
    """
    if r < 1:
        raise ValueError("norm exponent must be >= 1 or inf")
    a = np.abs(u)
    top = np.max(a, axis=0)
    if r == math.inf:
        return top
    scale = np.where(top > 0, top, 1.0)
    with np.errstate(over="ignore"):  # a norm past double range comes back inf
        return scale * _lq_integral(a / scale, r, weight) ** (1.0 / r)


def _weight_ratios(weight: np.ndarray) -> tuple[float, np.ndarray]:
    """Per-node weights as _lq_integral sums with them: the largest weight
    and each weight's ratio to it.  A caller that sums with the same weights
    many times passes this pair in their place."""
    top = float(np.max(weight))
    return top, weight / top


def _lq_integral(
    abs_u: np.ndarray, q: float, weight: float | np.ndarray | tuple[float, np.ndarray]
) -> float | np.ndarray:
    """weight * sum |u|^q over axis 0, or inf past double range.

    A float for one field, shape (N,), an array for a stack, one entry per
    column.  weight is a grid's one node weight, or one positive weight per
    node, shape (N,), as on a mirror sector (operators._MirrorSector) with
    an odd folded axis, where the nodes stand for different numbers of
    mirror images, or _weight_ratios of such weights.  Per-node weights
    enter relative to the largest, which multiplies the sum as the scalar
    does: equal weights give the scalar call's sum bit for bit, and a
    sector's ratios, 2^-k, scale each term exactly.  The L^(p+1) power sum
    of variational._functionals, the critical space-time integrand, the
    cutoff masses of evolution and _lr_norms go through here: an overflow
    comes back as inf, which each caller refuses by name.  Each caller runs
    this under an errstate that ignores overflow.
    """
    if not isinstance(weight, tuple) and np.ndim(weight):
        weight = _weight_ratios(weight)
    if isinstance(weight, tuple):
        top, ratios = weight
        if abs_u.ndim > 1:
            ratios = np.reshape(ratios, (-1,) + (1,) * (abs_u.ndim - 1))
        sums = top * np.sum(ratios * abs_u**q, axis=0)
    else:
        sums = weight * np.sum(abs_u**q, axis=0)
    return float(sums) if sums.ndim == 0 else sums


def inner_product(f: Field, g: Field) -> complex | float:
    """Weighted inner product sum(w * f * conj(g)); conjugate-linear in g."""
    f._check_same_grid(g)
    val = f.grid.weight * np.sum(f.values * np.conjugate(g.values))
    if np.iscomplexobj(f.values) or np.iscomplexobj(g.values):
        return complex(val)
    return float(val)

"""Self-adjoint generators on interior-node grids and their spectral form.

Three operator families are shipped:

* dirichlet_laplacian: -Laplace with Dirichlet boundary on the truncation box,
* schrodinger: -Laplace + V for bounded tabulated potentials, signed power
  potentials c*|x|^(-alpha) in the Kato range, and the boundary case
  alpha = 2 with negative sign and coupling below the Hardy constant
  (d - 2)^2 / 4 in dimension d >= 3,
* robin_halfline: -d^2/dx^2 on a truncated half line with u'(0) = sigma*u(0),
  sigma >= 0, Dirichlet at the truncation edge.

Every family is discretised by the standard second-order finite-difference
stencil, and assemble returns its eigendecomposition, which is the single
source of operator calculus downstream: semigroups and energy norms are
spectral multipliers in the returned eigenbasis.  Two paths compute it:

* structured: the Dirichlet Laplacian, and a schrodinger operator whose
  potential is zero, on any grid.  The eigenvectors are the orthonormal
  tensor sine transform (DST-I) and the eigenvalues have the closed form
  sum_i (4 / h_i^2) sin^2(k_i pi / (2 (n_i + 1))), so no N x N matrix is
  built (Strang, SIAM Rev. 41, 1999; Lynch, Rice & Thomas, Numer. Math. 6,
  1964).  Each grid axis picks one of three DST paths by a fixed rule on
  its node count n (tables at _axis_path): an axis of at most 256 nodes
  multiplies by the cached n x n sine matrix, whose O(n^2) product beats
  an FFT's fixed cost there (a 13^3 grid transforms about 4x faster than
  with scipy.fft.dstn); a longer axis whose n + 1 is prime runs Rader's
  prime-length sine transform, one negacyclic convolution of length n / 2,
  which beats pocketfft's Bluestein fallback by about 4x at n = 1600;
  every other axis is O(n log n) in one shared scipy.fft.dstn call.
* dense: Robin and every nonzero potential.  The matrix is diagonalised
  with LAPACK and the transforms are products with the stored basis.  A grid
  axis is folded when the domain is an interval or a box (not a halfline),
  the axis has an even node count, and the tabulated V equals its mirror
  image along the axis within _FOLD_TOL * max|V| (node coordinates need not
  mirror bit for bit: the certify grids mismatch by 1.8e-15 (Hardy, 12^3)
  and 3.1e-15 (well, n = 3200) of max|V|).  The orthogonal fold pairs node j with its mirror n - 1 - j as
  (u_j +- u_{n-1-j}) / sqrt(2), and with k folded axes it splits the matrix,
  built with the mirror-averaged V, exactly into 2^k independent blocks of
  N / 2^k, one per parity pattern (a symmetry-adapted basis: Bossavit,
  Comput. Methods Appl. Mech. Engrg. 56, 1986).  k = 0 is the whole matrix
  as one block, through the same code.  The operator stores the fold
  unnormalised, as one sparse N x N matrix F with 2^k entries +-1 a row, and
  its transpose, both CSR; F builds the blocks at assembly, and a transform
  is F @ x or F^T @ y around the block product.  Where the true kernel
  between a node and its mirror vanishes, the fold computes it as the
  difference of the even and odd blocks' semigroup diagonals, so the two
  blocks' eigenpairs must agree to high relative accuracy.
  - In 1D each block is tridiagonal and runs the MRRR driver stemr
    (Dhillon & Parlett, Linear Algebra Appl. 387, 2004).  On the certify
    well (n = 3200), the t = 0.25 kernel column at x = -12 carries a mirror
    image of 1.3e-14 of its maximum; with scipy's default divide-and-conquer
    stevd it was 1.1e-12, above the 1e-12 sample floor of
    semigroup.verify_gaussian_bound.  The two take the same time (0.22 s per
    1600-block); the price is orthogonality, 3.7e-13 against 5.6e-15, so a
    transform round trip there holds to 6e-14 of the field.
  - In d >= 2 the divide-and-conquer driver (Gu & Eisenstat, SIAM J. Matrix
    Anal. Appl. 16, 1995) overwrites each Fortran-ordered block with its
    eigenvectors.  On the unfolded 12^3 Hardy operator it took 0.73 s
    against 2.28 s for the MRRR driver (2-core Xeon, 2 OpenBLAS threads),
    and its eigenvectors are orthogonal to 3e-15 where MRRR's reach 5e-12
    on the degenerate cubic-symmetry clusters.  Folded into 8 blocks of 216
    the same operator assembles in 0.07 s, and its basis takes 3 MB, not
    24 MB.

Both paths transform one field, shape (N,), or a stack of fields, shape
(N, m) with one field per column, in one call.

The `assumption_class` tag records which decay regime a family is certified
for: "B" means a pointwise Gaussian kernel bound holds (which implies the
L^2 -> L^q smoothing rates), "A" means only the L^2 -> L^q rates are
available.  assemble classes a tabulated potential by its sampled node
values, "B" when none is negative, whether V was given as values or as fn.
classify_assumption tags an inverse-power potential outside the Kato range
"neither"; assemble refuses one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.fft
import scipy.linalg
import scipy.sparse

from .grids import Field, Grid

POTENTIAL_KINDS = ("zero", "tabulated_bounded", "inverse_power")
OPERATOR_KINDS = ("dirichlet_laplacian", "schrodinger", "robin_halfline")
_ROW_BLOCK = 256  # matrix rows per pass where an N x N temporary is avoided
_FOLD_TOL = 1e-12  # a folded axis needs max|V - mirror V| <= _FOLD_TOL * max|V|


class AssemblyError(ValueError):
    """Raised when an operator cannot be discretised on the given grid."""


@dataclass(frozen=True)
class PotentialSpec:
    """Multiplicative potential V for the schrodinger family.

    kind "zero": V = 0.  kind "tabulated_bounded": bounded values, either an
    array matching the grid or a callable on node coordinates.  kind
    "inverse_power": V(x) = sign * coupling * |x|^(-alpha) with coupling >= 0
    and sign in {+1, -1}; admissible alpha ranges are dimension-dependent and
    checked at assembly time.
    """

    kind: str = "zero"
    alpha: float = 0.0
    coupling: float = 0.0
    sign: int = 1
    values: Optional[np.ndarray] = None
    fn: Optional[Callable] = None

    def __post_init__(self):
        if self.kind not in POTENTIAL_KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "inverse_power":
            if self.sign not in (1, -1):
                raise ValueError("inverse_power sign must be +1 or -1")
            if self.coupling < 0:
                raise ValueError("inverse_power coupling must be >= 0")
            if self.alpha < 0:
                raise ValueError("inverse_power alpha must be >= 0")

    def is_zero(self) -> bool:
        return self.kind == "zero" or (self.kind == "inverse_power" and self.coupling == 0.0)


ZERO_POTENTIAL = PotentialSpec()


@dataclass(frozen=True)
class OperatorSpec:
    """Declarative description of a self-adjoint generator L >= lower bound.

    assemble derives its assumption class (see classify_assumption).
    """

    kind: str
    potential: PotentialSpec = ZERO_POTENTIAL
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in OPERATOR_KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.kind == "robin_halfline" and self.sigma < 0:
            raise ValueError("robin_halfline requires sigma >= 0")


def validate_potential(pot: PotentialSpec, dim: int) -> None:
    """Check the admissible exponent range of a potential in dimension dim.

    Signed power potentials must stay in the form-bounded (Kato) range:
    alpha < 2 for dim >= 2 and alpha < 1 for dim = 1.  The single boundary
    case alpha = 2 is admitted for the attractive inverse-square potential
    in dim >= 3 with coupling at most the Hardy constant (dim - 2)^2 / 4.
    """
    if pot.kind != "inverse_power" or pot.is_zero():
        return
    if pot.alpha == 2.0 and pot.sign < 0:
        hardy = (dim - 2) ** 2 / 4.0
        if dim < 3:
            raise AssemblyError("inverse-square potential requires dimension >= 3")
        if not (0.0 < pot.coupling <= hardy):
            raise AssemblyError(
                f"inverse-square coupling {pot.coupling} outside (0, {hardy}] "
                f"for dimension {dim}"
            )
        return
    limit = 2.0 if dim >= 2 else 1.0
    if not (0.0 <= pot.alpha < limit):
        raise AssemblyError(
            f"inverse_power alpha {pot.alpha} outside [0, {limit}) for dimension {dim}"
        )


def potential_on_grid(pot: PotentialSpec, grid: Grid) -> np.ndarray:
    """Sample a potential at the grid nodes, rejecting singular collisions."""
    if pot.is_zero():
        return np.zeros(grid.n_total)
    if pot.kind == "tabulated_bounded":
        if pot.values is not None:
            v = np.asarray(pot.values, dtype=float)
            if v.shape != (grid.n_total,):
                raise AssemblyError(
                    f"tabulated potential has {v.shape} values, grid has {grid.n_total} nodes"
                )
        elif pot.fn is not None:
            v = np.asarray(pot.fn(grid.coords()), dtype=float)
        else:
            raise AssemblyError("tabulated_bounded potential needs values or fn")
        if not np.all(np.isfinite(v)):
            raise AssemblyError("tabulated potential must be bounded (finite values)")
        return v
    # inverse_power
    validate_potential(pot, grid.dim)
    r = grid.radii()
    h_min = min(grid.h)
    if np.min(r) < 1e-9 * h_min:
        raise AssemblyError(
            "inverse_power potential is singular at a grid node; place the origin "
            "between nodes (even node counts on symmetric boxes shift nodes off the "
            "origin by h/2) or shrink the domain"
        )
    return pot.sign * pot.coupling * r ** (-pot.alpha)


def classify_assumption(spec: OperatorSpec, dim: int) -> str:
    """Derive the certified decay class of an operator family.

    Returns "B" (Gaussian kernel bound), "A" (L^2 -> L^q rates only) or
    "neither".  The rules follow the certified example families: the
    Dirichlet Laplacian and Robin half-line operators (OperatorSpec admits
    sigma >= 0 only) carry Gaussian bounds; so do Schrodinger operators with
    no negative potential part.  Bounded or Kato-range attractive potentials
    keep the smoothing rates ("A"), as does the attractive inverse-square
    potential up to the Hardy constant.  An inverse-power potential outside
    the Kato range is "neither".  A tabulated potential is classed by its
    node values (_tabulated_class); one given by fn has none before it is
    sampled on a grid, so it is "A" here, and assemble classes it from the
    values it samples.
    """
    pot = spec.potential
    if spec.kind != "schrodinger" or pot.is_zero():
        return "B"
    if pot.kind == "tabulated_bounded":
        return _tabulated_class(pot.values)
    # inverse_power
    try:
        validate_potential(pot, dim)
    except AssemblyError:
        return "neither"
    return "B" if pot.sign > 0 else "A"  # a positive sign has no negative part


def _tabulated_class(values: Optional[np.ndarray]) -> str:
    """Class "B" when no node value of a tabulated potential is negative, else "A".

    None (a potential given by fn, not yet sampled) is "A".
    """
    return "B" if values is not None and np.min(values) >= 0 else "A"


@dataclass
class SpectralOperator:
    """Eigendecomposition of an assembled generator.

    mu holds the eigenvalues in ascending order.  Coefficient k of a field is
    its weighted inner product with the k-th weighted-orthonormal
    eigenvector, so the transforms are exact adjoints of each other under
    the weighted inner product and c.c is the squared L^2 norm.

    On the dense path basis has shape (2^k, M, M), M = N / 2^k, for the k
    axes the fold takes (module docstring): basis[b] holds the orthonormal
    eigenvectors of parity block b, one per column, its rows indexed by the
    folded node index in C order of the half grid (the whole axis where it is
    not folded); k = 0 gives one N x N block in node order.  to_coeffs folds
    the field by the stored sparse fold matrix F (module docstring; its
    rows are the blocks' rows in block order), makes one batched block
    product and gathers the block coefficients by order, the stable
    ascending permutation of the block eigenvalues; from_coeffs scatters,
    multiplies and unfolds by the stored transpose F^T.  On the
    structured path the transforms are the orthonormal DST-I of the field
    reshaped to the grid, each axis by sine matrix, Rader or scipy.fft,
    basis is an N x 0 array because no matrix exists, and order is the
    stable ascending permutation of the closed-form eigenvalues in DST
    output order.  In 1-d those already ascend in DST order, so order is
    the identity and the structured transforms skip it.  An empty basis is
    what marks the structured path.

    to_coeffs and from_coeffs take one vector of length N or an (N, m)
    stack, one field per column, and return the same shape.  A stack costs
    one batched block product on the dense path and one DST over the grid
    axes on the structured path, and its columns equal m single calls to
    roundoff (bit for bit on the structured path, whichever path each axis
    takes).
    """

    spec: OperatorSpec
    grid: Grid
    mu: np.ndarray
    basis: np.ndarray
    assumption_class: str = field(default="neither")
    order: Optional[np.ndarray] = None
    _fold_matrix: Optional[scipy.sparse.csr_matrix] = None  # dense path: the fold F
    _unfold_matrix: Optional[scipy.sparse.csr_matrix] = None  # its transpose

    @property
    def n_modes(self) -> int:
        return self.mu.size

    @property
    def mu_min(self) -> float:
        return float(self.mu[0])

    def to_coeffs(self, values) -> np.ndarray:
        if isinstance(values, Field):
            values = values.values
        values = np.asarray(values)
        if self.basis.size:
            blocks = (self._fold_matrix @ values).reshape(self.basis.shape[:2] + (-1,))
            coeffs = (self.basis.transpose(0, 2, 1) @ blocks).reshape(values.shape)[self.order]
            coeffs *= math.sqrt(self.grid.weight / self.basis.shape[0])  # the fold's 2^(-k/2)
            return coeffs
        sines = _grid_dst(values.reshape(self.grid.n + values.shape[1:]), self.grid.dim)
        sines = sines.reshape(values.shape)
        if self.grid.dim > 1:  # in 1-d, order is the identity
            sines = sines[self.order]
        return np.sqrt(self.grid.weight) * sines

    def from_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        coeffs = np.asarray(coeffs)
        scattered = coeffs
        if self.basis.size or self.grid.dim > 1:  # a 1-d DST's order is the identity
            scattered = np.empty(coeffs.shape, dtype=np.result_type(coeffs, float))
            scattered[self.order] = coeffs
        if self.basis.size:
            blocks = self.basis @ scattered.reshape(self.basis.shape[:2] + (-1,))
            out = (self._unfold_matrix @ blocks.reshape(self.n_modes, -1)).reshape(coeffs.shape)
            out /= math.sqrt(self.grid.weight * self.basis.shape[0])  # the fold's 2^(-k/2)
            return out
        shape = self.grid.n + coeffs.shape[1:]
        out = _grid_dst(scattered.reshape(shape), self.grid.dim, overwrite=scattered is not coeffs)
        out = out.reshape(coeffs.shape)
        out /= np.sqrt(self.grid.weight)  # out is new: no block-sized copy
        return out

    def eigenvector(self, k: int) -> Field:
        unit = np.zeros(self.n_modes)
        unit[k] = 1.0
        return Field(self.from_coeffs(unit), self.grid)

    def apply_multiplier(self, multiplier: np.ndarray, values):
        """Apply the spectral multiplier g(L): values -> sum g(mu_k) c_k e_k.

        Accepts a Field or a raw vector and returns the same kind.
        """
        out = self.from_coeffs(multiplier * self.to_coeffs(values))
        if isinstance(values, Field):
            return Field(out, self.grid)
        return out

    def matvec(self, values):
        return self.apply_multiplier(self.mu, values)


def _grid_dst(x: np.ndarray, dim: int, overwrite: bool = False) -> np.ndarray:
    """Orthonormal DST-I over the first dim axes; a trailing axis is a batch.

    Each axis runs the path _axis_path names: the "dst" axes share one
    scipy.fft.dstn call, each "rader" axis runs _rader_dst, and the
    "matmul" axes share one _sine_matmul call.
    """
    paths = [_axis_path(n) for n in x.shape[:dim]]
    fft = tuple(ax for ax in range(dim) if paths[ax] == "dst")
    if fft:
        x = scipy.fft.dstn(x, type=1, norm="ortho", axes=fft, overwrite_x=overwrite)
    for ax, path in enumerate(paths):
        if path == "rader" and ax == 0:
            x = _rader_dst(x)
        elif path == "rader":
            x = np.moveaxis(_rader_dst(np.moveaxis(x, ax, 0)), 0, ax)
    if "matmul" in paths:
        x = _sine_matmul(x, dim, [path == "matmul" for path in paths])
    return x


_MATMUL_MAX_N = 256  # longest grid axis on the sine-matrix path


@functools.lru_cache(maxsize=None)
def _axis_path(n: int) -> str:
    """The DST-I path of a grid axis with n nodes: "matmul", "rader" or "dst".

    One fixed rule on n: axes of at most _MATMUL_MAX_N nodes multiply by the
    sine matrix (_sine_matmul), longer axes whose n + 1 is prime run Rader's
    transform (_rader_dst), and the rest run scipy.fft.  Measured per call
    on one field of a 1-d grid, best of 7 x 400 calls, 2-core Xeon, scipy
    1.17, 2 OpenBLAS threads:

           n   dst (us)   matmul (us)
          13      8.9         7.4
          64     10.1         8.2
         128     22.3         9.6
         200     26.6        10.7
         256     51.3        14.6

    and for a whole grid, one field, scipy.fft.dstn against _grid_dst:

        13^3: 79.0 us against 18.6 us;  31^3: 663.4 us against 129.5 us.

    The product costs O(n^2) per line against O(n log n), but up to 256
    nodes the FFTs' fixed costs dominate.  Past about 300 nodes a smooth
    n + 1 lets scipy win (n = 350: 15.0 us against 29.1 us by matrix), and
    the matrix takes n^2 doubles (512 KB at 256), so the bound stays at 256.

    pocketfft computes a DST-I from an FFT of length 2(n + 1), which falls
    back to Bluestein at a padded length of at least 4(n + 1) when n + 1 has
    a large prime factor.  Rader's transform needs n + 1 prime and
    convolves at n / 2, or at next_fast_len(n - 1) when n / 2 is not a fast
    length (prime at 262, 718, 1438 and 2038 below).  One field and an
    (n, 8) stack, best of 7 x 400 calls (same host):

                          one field (us)     (n, 8) stack (us)
           n   n + 1        dst   rader         dst   rader
         262   263         49.9    34.1       204.3    77.9
         400   401         50.3    26.8       247.0    93.6
         640   641         98.7    34.5       370.5    93.2
         718   719         73.5    49.2       352.8   165.6
        1200   1201       130.0    40.1       580.8   142.2
        1438   1439       137.6    52.3       649.0   281.5
        1600   1601       190.6    45.1      1066.4   204.6
        2038   2039       203.5    71.6       932.7   393.3
         632   3 211       52.7       -       264.7       -
         801   2 401       86.1       -       453.4       -
        1204   5 241       88.9       -       579.6       -
        2048   3 683      253.8       -      1102.3       -

    The composite axes at the bottom, which no shipped grid uses, run
    scipy.  On a 2-d grid with a prime axis the sine matrix would still be
    faster where both axes are long: one field of a (400, 400) grid takes
    4.2 ms here (scipy.fft.dstn 20.4 ms) against 2.8 ms by _sine_matmul on
    both axes, while (400, 12) and (12, 400) take 104 and 106 us, the same
    as by matrix.
    """
    if n <= _MATMUL_MAX_N:
        return "matmul"
    return "rader" if _prime_factors(n + 1) == [n + 1] else "dst"


def _prime_factors(m: int) -> list[int]:
    """The distinct prime factors of m >= 1, ascending."""
    factors, p = [], 2
    while p * p <= m:
        if m % p == 0:
            factors.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return factors + [m] if m > 1 else factors


@functools.lru_cache(maxsize=16)
def _sine_matrix(n: int) -> np.ndarray:
    """The n x n orthonormal DST-I matrix sqrt(2/(n + 1)) sin(pi j k / (n + 1)).

    jk is reduced mod 2(n + 1), the period of the sine, so every argument
    stays below 2 pi.  The matrix is symmetric and its own inverse.
    """
    j = np.arange(1, n + 1, dtype=np.int64)
    phase = np.outer(j, j) % (2 * (n + 1))
    s = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * phase / (n + 1))
    s.flags.writeable = False
    return s


def _sine_matmul(x: np.ndarray, dim: int, axes: list[bool]) -> np.ndarray:
    """Orthonormal DST-I along the grid axes flagged in axes, by the sine matrix.

    The batch axis goes first and a single field is a batch of one, so
    every field runs the same BLAS calls, alone or in a stack, and a stack
    equals its single calls bit for bit.  Each pass takes the leading grid
    axis of every field as the rows of one (rest x n) @ (n x n) product with
    the symmetric matrix, which also rotates that axis to the back; after
    dim passes the axes are back in order.  An unflagged axis is only
    rotated.
    """
    grid = x.shape[:dim]
    m = math.prod(x.shape[dim:])
    y = np.ascontiguousarray(x.reshape(-1, m).T)
    for n, flagged in zip(grid, axes):
        rows = y.reshape(m, n, -1).transpose(0, 2, 1)
        y = rows @ _sine_matrix(n) if flagged else np.ascontiguousarray(rows)
    return y.reshape(m, -1).T.reshape(x.shape)


@functools.lru_cache(maxsize=16)
def _rader_plan(n: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Convolution length, gather, fold factors, kernel spectrum, output factors, order.

    p = n + 1 is prime, h = n / 2, and g is the least primitive root mod p,
    so g^h = -1.  Input a of the convolution is z_j at j = g^a (notation at
    _rader_dst): the gather takes x_j for a = 0..h-1, then x_(p-j), and
    the fold factors are the coefficients 1 - i(-1)^j and -1 - i(-1)^j.
    The kernel is w_c = sin(2 pi g^(-c) / p), c = 0..h-1.  A fast h
    convolves negacyclically at length h, so the fold factors and the kernel
    carry the twist exp(i pi a / h) and the output factors its conjugate;
    otherwise the kernel is wrapped antiperiodically onto a zero-padded
    length L = next_fast_len(2h - 1).  The kernel spectrum carries the 1/L
    of the inverse FFT.  Output b is S at m = g^(-b), or -S at p - m when
    m > h, so its factor carries that sign and the orthonormal scale
    sqrt(2/p).  order gathers the interleaved real (k = 2m) and imaginary
    (k = p - 2m) parts of the outputs into DST order.
    """
    p, h = n + 1, n // 2
    g = next(r for r in range(2, p) if all(pow(r, n // q, p) != 1 for q in _prime_factors(n)))
    powers = [1]
    for _ in range(n - 1):
        powers.append(powers[-1] * g % p)
    powers = np.array(powers)
    j = powers[:h]  # g^a
    m = powers[-np.arange(h) % n]  # g^(-b)
    size = h if scipy.fft.next_fast_len(h) == h else scipy.fft.next_fast_len(2 * h - 1)
    twist = np.exp((1j * np.pi / h) * np.arange(h)) if size == h else np.ones(h)
    parity = np.where(j % 2 == 0, 1j, -1j)
    w = np.sin((2 * np.pi / p) * m)
    kernel = np.zeros(size, dtype=complex)
    kernel[:h] = twist * w
    if size > h:
        kernel[size - h + 1 :] = -w[1:]  # w_(-c) = -w_(h-c)
    half = np.minimum(m, p - m)
    plan = (
        size,
        np.r_[j - 1, p - j - 1],
        np.r_[twist * (1 - parity), twist * (-1 - parity)],
        scipy.fft.fft(kernel) / size,
        np.sqrt(2.0 / p) * np.where(m > h, -1.0, 1.0) * twist.conj(),
        np.argsort(np.c_[2 * half - 1, n - 2 * half].ravel()),
    )
    for arr in plan[1:]:
        arr.flags.writeable = False
    return plan


def _rader_dst(x: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I along axis 0 of length n, n + 1 = p prime, by Rader.

    With j, k = 1..n, h = n / 2 and the complex fold

        z_j = (x_j - x_(p-j)) - i (-1)^j (x_j + x_(p-j)),

    odd on Z_p (z_(p-j) = -z_j), the sums S_m = sum_(j=1..h) z_j
    sin(2 pi j m / p), m = 1..h, give y_(2m) = sqrt(2/p) Re S_m and
    y_(p-2m) = sqrt(2/p) Im S_m.  With j = g^a and m = g^(-b), S is a
    cyclic convolution of length p - 1 over the powers of g (Rader, Proc.
    IEEE 56, 1968), and since g^h = -1 and both factors are odd, a
    negacyclic one of length h: one complex FFT pair at n / 2, where a
    chirp-z transform needs one at about 2n (plan at _rader_plan).
    Trailing axes are a batch; each FFT runs along axis 0 over all of them,
    so a stacked call equals the single calls bit for bit.
    """
    n, h = x.shape[0], x.shape[0] // 2
    size, gather, fold, kernel_hat, post, order = _rader_plan(n)
    z = np.take(x.reshape(n, -1), gather, axis=0) * fold[:, None]
    c = scipy.fft.fft(z[:h] + z[h:], n=size, axis=0, overwrite_x=True)
    c *= kernel_hat[:, None]
    c = scipy.fft.ifft(c, axis=0, norm="forward", overwrite_x=True)[:h]
    c *= post[:, None]
    parts = c.view(float).reshape(h, -1, 2).transpose(0, 2, 1).reshape(n, -1)
    return np.take(parts, order, axis=0).reshape(x.shape)


def _dirichlet_axis_eigenvalues(n: int, h: float) -> np.ndarray:
    """Eigenvalues (4/h^2) sin^2(k pi / (2(n+1))), k = 1..n, of the 1D stencil."""
    k = np.arange(1, n + 1)
    return (4.0 / h**2) * np.sin(k * np.pi / (2.0 * (n + 1))) ** 2


def _stencil_matrix(grid: Grid, spec: OperatorSpec):
    """Sparse Kronecker sum of the per-axis second-difference stencils.

    On a halfline (always 1-d) the Robin condition u'(0) = sigma*u(0) is
    eliminated through the ghost node: the one-sided difference gives
    u(0) = u_1 / (1 + sigma*h), so the first row keeps only
    (2 - 1/(1 + sigma*h)) / h^2 on the diagonal.
    """
    a = None
    for n, h in zip(grid.n, grid.h):
        diag = np.full(n, 2.0)
        if spec.kind == "robin_halfline":
            diag[0] = 2.0 - 1.0 / (1.0 + spec.sigma * h)
        off = np.full(n - 1, -1.0) / h**2
        t = scipy.sparse.diags([off, diag / h**2, off], offsets=(-1, 0, 1))
        if a is None:
            a = t
        else:
            a = scipy.sparse.kron(a, scipy.sparse.identity(t.shape[0])) + scipy.sparse.kron(
                scipy.sparse.identity(a.shape[0]), t
            )
    return a


def _asymmetry(a: np.ndarray) -> tuple[float, float]:
    """max|a - a^T| and max|a|, by row blocks with no N x N temporary."""
    asym = scale = 0.0
    for start in range(0, a.shape[0], _ROW_BLOCK):
        rows = a[start : start + _ROW_BLOCK]
        asym = max(asym, float(np.max(np.abs(rows - a[:, start : start + _ROW_BLOCK].T))))
        scale = max(scale, float(np.max(np.abs(rows))))
    return asym, scale


def _folded_axes(grid: Grid, v: np.ndarray) -> tuple[bool, ...]:
    """Which grid axes the dense path folds (rule in the module docstring)."""
    if grid.domain.kind == "halfline_truncated":
        return (False,) * grid.dim
    shaped = v.reshape(grid.n)
    tol = _FOLD_TOL * float(np.max(np.abs(shaped)))
    return tuple(
        n % 2 == 0 and float(np.max(np.abs(shaped - np.flip(shaped, ax)))) <= tol
        for ax, n in enumerate(grid.n)
    )


def _fold_rows(shape: tuple[int, ...], folds: tuple[bool, ...], block: int):
    """The rows of the fold F that make parity block `block`, sparse M x N.

    A Kronecker product of per-axis factors: [I, J] (even) or [I, -J] (odd)
    on a folded axis, J the exchange matrix, and the identity elsewhere.  The
    first folded axis gives the leading bit of `block`.
    """
    parities = [block >> bit & 1 for bit in reversed(range(sum(folds)))]
    rows = scipy.sparse.identity(1)
    for n, fold in zip(shape, folds):
        if fold:
            j = np.arange(n // 2)
            signs = np.r_[np.ones(j.size), np.full(j.size, -1.0 if parities.pop(0) else 1.0)]
            factor = scipy.sparse.coo_matrix(
                (signs, (np.r_[j, j], np.r_[j, n - 1 - j])), shape=(j.size, n)
            )
        else:
            factor = scipy.sparse.identity(n)
        rows = scipy.sparse.kron(rows, factor)
    return rows.tocsr()


def assemble(spec: OperatorSpec, grid: Grid) -> SpectralOperator:
    """Discretise and diagonalise an operator family on a grid.

    Raises AssemblyError for incompatible domain/operator combinations, for
    potentials that are singular at a node, and when the computed spectrum
    violates the family's certified lower bound.
    """
    if spec.kind == "robin_halfline" and grid.domain.kind != "halfline_truncated":
        raise AssemblyError("robin_halfline requires a halfline_truncated domain")

    v = potential_on_grid(spec.potential, grid) if spec.kind == "schrodinger" else None

    fold = None
    if spec.kind == "dirichlet_laplacian" or (
        spec.kind == "schrodinger" and spec.potential.is_zero()
    ):
        # Kronecker sum of the per-axis spectra, in DST output (C) order
        axes = [_dirichlet_axis_eigenvalues(n, h) for n, h in zip(grid.n, grid.h)]
        mu = functools.reduce(np.add.outer, axes).ravel()
        basis = np.empty((grid.n_total, 0))
    else:
        a = _stencil_matrix(grid, spec)
        folds = _folded_axes(grid, v)
        if v is not None:
            mirrored = v.reshape(grid.n)
            for ax in np.flatnonzero(folds):
                mirrored = 0.5 * (mirrored + np.flip(mirrored, ax))
            a = a + scipy.sparse.diags(mirrored.ravel())
        n_blocks = 2 ** sum(folds)
        size = grid.n_total // n_blocks
        fold = scipy.sparse.vstack(
            [_fold_rows(grid.n, folds, b) for b in range(n_blocks)], format="csr"
        )
        mu = np.empty(grid.n_total)
        # each block Fortran-ordered, so LAPACK can overwrite it in place
        basis = np.empty((n_blocks, size, size)).transpose(0, 2, 1)
        for b in range(n_blocks):
            rows = fold[b * size : (b + 1) * size]
            block = (rows @ a @ rows.T) / n_blocks
            span = slice(b * size, (b + 1) * size)
            if grid.dim == 1:
                mu[span], basis[b] = scipy.linalg.eigh_tridiagonal(
                    block.diagonal(), block.diagonal(1), lapack_driver="stemr"
                )
            else:
                block.toarray(out=basis[b])
                asym, scale = _asymmetry(basis[b])
                if asym > 1e-10 * max(scale, 1.0):
                    raise AssemblyError(f"assembled matrix is not symmetric (residual {asym:.2e})")
                # divide and conquer; the eigenvectors overwrite the block in place
                mu[span], basis[b] = scipy.linalg.eigh(basis[b], driver="evd", overwrite_a=True)
    order = np.argsort(mu, kind="stable")
    mu = mu[order]

    if spec.kind == "schrodinger" and spec.potential.kind == "tabulated_bounded":
        klass = _tabulated_class(v)  # from the sampled values, however V was given
    else:
        klass = classify_assumption(spec, grid.dim)
    op = SpectralOperator(
        spec=spec,
        grid=grid,
        mu=mu,
        basis=basis,
        assumption_class=klass,
        order=order,
        _fold_matrix=fold,
        _unfold_matrix=None if fold is None else fold.T.tocsr(),
    )

    if klass == "B" and mu[0] < -1e-10 * max(abs(mu[-1]), 1.0):
        raise AssemblyError(
            f"family certified with kernel bounds must be nonnegative, got mu_1 = {mu[0]:.3e}"
        )
    _check_reconstruction(op, diag_potential=v)
    return op


def _check_reconstruction(op: SpectralOperator, diag_potential) -> None:
    """Probe-based check that the transforms and mu reproduce the stencil action.

    On the structured path this is what ties the DST and the closed-form
    eigenvalues to the finite-difference operator.
    """
    rng = np.random.default_rng(0)
    n = op.grid.n_total
    for _ in range(2):
        x = rng.standard_normal(n)
        ax = _stencil_apply(op, x, diag_potential)
        err = np.linalg.norm(op.matvec(x) - ax)
        scale = max(np.linalg.norm(ax), 1.0)
        if err > 1e-8 * scale:
            raise AssemblyError(f"eigendecomposition reconstruction residual {err/scale:.2e}")


def _stencil_apply(op: SpectralOperator, x: np.ndarray, diag_potential) -> np.ndarray:
    """Apply the finite-difference stencil directly (no spectral detour)."""
    grid = op.grid
    shape = grid.n
    u = x.reshape(shape)
    out = np.zeros_like(u)
    for axis in range(grid.dim):
        h2 = grid.h[axis] ** 2
        uu = np.moveaxis(u, axis, 0)
        res = np.moveaxis(out, axis, 0)
        res += 2.0 * uu / h2
        res[:-1] -= uu[1:] / h2
        res[1:] -= uu[:-1] / h2
    y = out.ravel().copy()
    if op.spec.kind == "robin_halfline":
        h = grid.h[0]
        y[0] = ((2.0 - 1.0 / (1.0 + op.spec.sigma * h)) * x[0] - x[1]) / h**2
    if diag_potential is not None:
        y = y + diag_potential * x
    return y

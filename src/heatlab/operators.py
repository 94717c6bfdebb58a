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
  every other axis runs scipy.fft's O(n log n) DST.  One routine,
  _tensor_product, applies one such op per axis, a pass per axis, to the
  whole grid and to the mirror sector below alike.
  The box's reflections commute with this operator, and the source term
  sign |u|^(p-1) u keeps a field's parity, so a field that is mirror-even
  along an axis keeps only that axis' odd sine modes k = 1, 3, 5, ... under
  the flow.  evolution.integrate_rows steps such a field in its mirror
  sector (_MirrorSector, _mirror_sector): on each folded axis the half
  grid j < ceil(n/2), each node standing for itself and its mirror (the
  centre node of an odd n for itself alone), and the ceil(n/2) odd modes,
  transformed in the same routine by the half sine matrices
  (_half_sine_matrices) where ceil(n/2) <= 256, and otherwise, on a Rader
  axis, by a half-length Rader transform (_half_rader: one real
  negacyclic convolution of length n / 2, run as a complex one of length
  n / 4); the other axes keep their whole-axis op.  A field folds an axis
  when it equals its mirror image along it within _FOLD_TOL * max|u|
  (_mirror_axes, the rule the dense fold applies to V), unless the axis
  runs scipy.fft, which has no half-length transform; the dense path keeps
  its full basis.  On the 13^3 critical grid a mirror-even field holds 7^3
  values in place of 13^3, and on the n = 1600 line 800 in place of 1600.
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
available.  assemble decides it by one rule: "B" unless the potential it
samples on the grid has a negative node value, then "A".  The Dirichlet
and Robin families (OperatorSpec admits sigma >= 0 only) have no potential
and are "B"; so is a zero or zero-coupling potential and a repulsive
inverse power, while an attractive one, the inverse square up to the Hardy
constant included, is "A".  A tabulated potential is classed by its node
values, whether V was given as values or as fn.  An inverse power outside
the Kato range is refused by potential_on_grid before any class is set.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.fft
import scipy.linalg
import scipy.sparse

from .grids import Field, Grid

POTENTIAL_KINDS = ("zero", "tabulated_bounded", "inverse_power")
OPERATOR_KINDS = ("dirichlet_laplacian", "schrodinger", "robin_halfline")
_ROW_BLOCK = 256  # matrix rows per pass where an N x N temporary is avoided
_FOLD_TOL = 1e-12  # the mirror rule: max|x - mirror x| <= _FOLD_TOL * max|x| (_mirror_axes)


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

    assemble derives its assumption class from the sampled potential
    (module docstring): "B" unless some node value of V is negative.
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
    multiplies block by block over the live prefix (below) and unfolds by
    the stored transpose F^T.  On the
    structured path the transforms are the orthonormal DST-I of the field
    reshaped to the grid, each axis by sine matrix, Rader or scipy.fft,
    basis is an N x 0 array because no matrix exists, and order is the
    stable ascending permutation of the closed-form eigenvalues in DST
    output order.  In 1-d those already ascend in DST order, so order is
    the identity and the structured transforms skip it.  An empty basis is
    what marks the structured path.

    to_coeffs and from_coeffs take one vector of length N or an (N, m)
    stack, one field per column, and return the same shape.  On the
    structured path a stack costs one DST over the grid axes, and its
    columns equal m single calls bit for bit, whichever path each axis
    takes.  On the dense path to_coeffs makes one batched block product,
    and from_coeffs makes one product per parity block b over its live
    prefix: basis[b][:, :k_b] times the block's first k_b coefficient rows,
    k_b one past its last row that is nonzero in some column
    (_live_lengths).  Each block's modes ascend, so the underflowed tail of
    a decayed stack e^{-t(mu + shift)} c, exact zeros, costs nothing; a
    fully live block gives the batched product bit for bit, and a stack's
    columns equal m single calls to roundoff.  The structured transforms
    work batch-first, one field per row of an (m, N) array
    (_tensor_product), and from_coeffs scatters its coefficients by order
    straight into that layout.  A stack that arrives as X.T, X holding one
    field per row (as evolution.integrate_rows keeps them), is therefore
    not copied before the transforms, and the result's transpose has
    contiguous rows, except where to_coeffs gathers a grid of d >= 2 by
    order.
    """

    spec: OperatorSpec
    grid: Grid
    mu: np.ndarray
    basis: np.ndarray
    assumption_class: str  # "B" or "A" (module docstring)
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
        """Coefficients of a raw vector or stack, or of a Field, which must
        live on this operator's grid (ValueError otherwise)."""
        if isinstance(values, Field):
            if values.grid is not self.grid and values.grid != self.grid:
                raise ValueError("field and operator live on different grids")
            values = values.values
        values = np.asarray(values)
        if self.basis.size:
            blocks = (self._fold_matrix @ values).reshape(self.basis.shape[:2] + (-1,))
            coeffs = (self.basis.transpose(0, 2, 1) @ blocks).reshape(values.shape)[self.order]
            coeffs *= math.sqrt(self.grid.weight / self.basis.shape[0])  # the fold's 2^(-k/2)
            return coeffs
        sines = _tensor_product(values, self.grid.n, map(_axis_op, self.grid.n))
        if self.grid.dim > 1:  # in 1-d, order is the identity
            sines = sines[self.order]
        return np.sqrt(self.grid.weight) * sines

    def from_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        coeffs = np.asarray(coeffs)
        dtype = np.result_type(coeffs, float)
        if self.basis.size:
            scattered = np.empty(coeffs.shape, dtype=dtype)
            scattered[self.order] = coeffs
            scattered = scattered.reshape(self.basis.shape[:2] + (-1,))
            blocks = np.empty(scattered.shape, dtype=dtype)
            rows_live = np.any(scattered != 0, axis=2, keepdims=True)  # in some column
            for b, live in enumerate(_live_lengths(rows_live)[:, 0]):
                np.matmul(self.basis[b, :, :live], scattered[b, :live], out=blocks[b])
            out = (self._unfold_matrix @ blocks.reshape(self.n_modes, -1)).reshape(coeffs.shape)
            out /= math.sqrt(self.grid.weight * self.basis.shape[0])  # the fold's 2^(-k/2)
            return out
        scattered = coeffs
        if self.grid.dim > 1:  # a 1-d DST's order is the identity
            # scattered straight into batch-first order, the layout
            # _tensor_product works in, so a stack is not copied again there
            scattered = np.empty(coeffs.shape[::-1], dtype=dtype).T
            scattered[self.order] = coeffs
        out = _tensor_product(scattered, self.grid.n, map(_axis_op, self.grid.n))
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


def _live_lengths(blocks: np.ndarray) -> np.ndarray:
    """One past the last nonzero row of each block, per column; 0 if it has none.

    blocks is (n_blocks, M, m), one block of mode rows per parity block, and
    the result is (n_blocks, m).  Each block's modes ascend, so a decayed
    stack e^{-t(mu + shift)} c ends in the exact zeros of e^{-t(mu + shift)}
    underflowing, and rows past the live length add nothing to a product.
    """
    nonzero = blocks != 0
    live = nonzero.shape[1] - np.argmax(nonzero[:, ::-1], axis=1)
    live[~np.any(nonzero, axis=1)] = 0
    return live


def _tensor_product(x: np.ndarray, shape: tuple[int, ...], ops) -> np.ndarray:
    """One linear op per axis of a grid of the given shape, applied to one
    field, shape (N,), or to a stack, shape (N, m), one field per column.

    The structured transforms of the whole grid (_axis_op) and of a mirror
    sector (_half_sine_matrices, _half_rader) all run here.  The batch axis
    goes first and a single field is a batch of one, so every field runs
    the same calls, alone or in a stack, and a stack equals its single
    calls bit for bit.  Each pass hands the axis' op a (batch, rest, n) view whose last
    axis is the leading grid axis of every field; the op transforms along
    that axis and returns a new array, which rotates the axis to the back,
    so after one pass per axis the axes are back in order.  A stack already
    in batch-first order (the transpose of a C-ordered array, as
    from_coeffs scatters it) is not copied first.
    """
    m = math.prod(x.shape[1:])
    y = np.ascontiguousarray(x.reshape(-1, m).T)
    for n, op in zip(shape, ops):
        y = op(y.reshape(m, n, -1).transpose(0, 2, 1))
    return y.reshape(m, -1).T.reshape(x.shape)


_MATMUL_MAX_N = 256  # longest grid axis on the sine-matrix path


@functools.lru_cache(maxsize=None)
def _axis_path(n: int) -> str:
    """The DST-I path of a grid axis with n nodes: "matmul", "rader" or "dst".

    One fixed rule on n, applied by _axis_op: axes of at most _MATMUL_MAX_N
    nodes multiply by the sine matrix, longer axes whose n + 1 is prime run
    Rader's transform (_rader_dst), and the rest run scipy.fft.  Measured
    per call on one field of a 1-d grid, best of 7 x 400 calls, 2-core
    Xeon, scipy 1.17, 2 OpenBLAS threads:

           n   dst (us)   matmul (us)
          13      8.9         7.4
          64     10.1         8.2
         128     22.3         9.6
         200     26.6        10.7
         256     51.3        14.6

    and for a whole grid, one field, scipy.fft.dstn against the sine
    matrices in _tensor_product:

        13^3: 79.0 us against 18.6 us;  31^3: 663.4 us against 129.5 us.

    The product costs O(n^2) per line against O(n log n), but up to 256
    nodes the FFTs' fixed costs dominate.  Past about 300 nodes a smooth
    n + 1 lets scipy win (n = 350: 15.0 us against 29.1 us by matrix), and
    the matrix takes n^2 doubles (512 KB at 256), so the bound stays at 256.

    pocketfft computes a DST-I from an FFT of length 2(n + 1), which falls
    back to Bluestein at a padded length of at least 4(n + 1) when n + 1 has
    a large prime factor.  Rader's transform needs n + 1 prime and
    convolves negacyclically at h = n / 2, by a Bluestein FFT where h is
    prime (262, 718, 1438 and 2038 below).  One field and a stack of 8,
    best of 7 x 400 calls (same host); the prime-h rows were measured
    together, later, the stack batch-first as _tensor_product hands it
    over:

                          one field (us)     8-field stack (us)
           n   n + 1        dst   rader         dst   rader
         262   263         39.3    23.5       152.5    64.7
         400   401         50.3    26.8       247.0    53.4
         640   641         98.7    34.5       370.5    70.7
         718   719         57.0    39.3       250.7   148.5
        1200   1201       130.0    40.1       580.8   123.5
        1438   1439       112.9    65.7       542.8   303.4
        1600   1601       190.6    45.1      1066.4   172.0
        2038   2039       165.3    84.7       996.2   418.3
         632   3 211       52.7       -       264.7       -
         801   2 401       86.1       -       453.4       -
        1204   5 241       88.9       -       579.6       -
        2048   3 683      253.8       -      1102.3       -

    The composite axes at the bottom, which no shipped grid uses, run
    scipy.  On a 2-d grid with a prime axis the sine matrix would still be
    faster where both axes are long: one field of a (400, 400) grid takes
    4.2 ms here (scipy.fft.dstn 20.4 ms) against 2.8 ms by sine matrix on
    both axes, while (400, 12) and (12, 400) take 104 and 106 us, the same
    as by matrix.

    A mirror-even field's folded axis (_mirror_sector) has ceil(n/2) nodes
    and modes.  It multiplies by the half sine matrices where ceil(n/2) is
    at most _MATMUL_MAX_N, and a longer half, on a Rader axis, runs the
    half-length Rader transform (_half_rader).  The sector's `to` direction
    against the whole axis' Rader transform, best of 3 x 7 x 400 calls
    (same host), batch-first:

                      one field (us)           8-field stack (us)
           n    half    half   whole      half    half   whole
               matrix  rader   rader     matrix  rader   rader
         400      7.1   22.3    24.5       48.6   36.6    51.7
         718     19.2   46.1    46.1      144.7  155.1   166.6
        1200    108.2   28.3    34.9      652.2   64.6   117.8
        1600    102.8   26.8    35.8      752.4   77.5   146.6

    At n = 718 h = n / 2 is odd and prime, so the half transform convolves
    at length h by a Bluestein FFT and gains little; no shipped grid has
    such an axis.
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


@functools.lru_cache(maxsize=16)
def _axis_op(n: int) -> Callable[[np.ndarray], np.ndarray]:
    """The orthonormal DST-I along the last axis, by the path _axis_path
    names for n nodes: a product with the sine matrix, which is symmetric
    and so serves as the right factor as is, Rader's transform, or
    scipy.fft.
    """
    path = _axis_path(n)
    if path == "matmul":
        return _sine_matrix(n).__rmatmul__
    if path == "rader":
        return _rader_dst
    return functools.partial(scipy.fft.dst, type=1, norm="ortho", axis=-1)


def _mirror_multiplicities(n: int) -> np.ndarray:
    """How many nodes of an n-node axis each half-axis node j < ceil(n/2)
    stands for: itself and its mirror n - 1 - j, or itself alone at the
    centre node of an odd n."""
    mult = np.full((n + 1) // 2, 2.0)
    mult[n // 2 :] = 1.0  # the centre node; no node for even n
    return mult


@functools.lru_cache(maxsize=16)
def _half_sine_matrices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """An n-node axis' mirror-even sector by sine matrix: (to, from).

    The sector keeps the nodes j < ceil(n/2), weighted by their mirror
    multiplicities (_mirror_multiplicities), and the odd sine modes
    k = 1, 3, 5, ..., the ones a mirror-even field has.  With
    E = S[:ceil(n/2), odd k] the coefficients of a mirror-even field are
    E^T diag(mult) u and its values E c, so `to` is diag(mult) E and `from`
    is E^T, each the right factor of a product in _tensor_product; S being
    orthonormal, the two are exact inverses.
    """
    even = _sine_matrix(n)[: (n + 1) // 2, ::2]
    matrices = (_mirror_multiplicities(n)[:, None] * even, np.ascontiguousarray(even.T))
    for arr in matrices:
        arr.flags.writeable = False
    return matrices


def _mirror_axes(shaped: np.ndarray) -> tuple[bool, ...]:
    """Along which axes a grid-shaped array equals its mirror image, within
    _FOLD_TOL times its largest magnitude.

    The one mirror rule: the dense fold applies it to V (_folded_axes), the
    mirror sector to a field (_sector_folds).
    """
    tol = _FOLD_TOL * float(np.max(np.abs(shaped)))
    return tuple(
        float(np.max(np.abs(shaped - np.flip(shaped, ax)))) <= tol for ax in range(shaped.ndim)
    )


def _sector_folds(op: SpectralOperator, values: np.ndarray) -> tuple[bool, ...]:
    """The grid axes along which a field folds into its mirror sector.

    Each axis of a structured operator along which the field equals its
    mirror image (_mirror_axes), except an axis on scipy.fft's path, which
    has no half-length transform; no axis on the dense path, which keeps
    its full basis (module docstring).
    """
    if op.basis.size:
        return (False,) * op.grid.dim
    mirrored = _mirror_axes(np.reshape(values, op.grid.n))
    return tuple(fold and _axis_path(n) != "dst" for n, fold in zip(op.grid.n, mirrored))


@dataclass(frozen=True, eq=False)
class _MirrorSector:
    """The mirror-even sector of a structured operator (module docstring).

    Its nodes are the half grid, in C order, and its modes the kept sine
    modes, in C order of the per-axis mode indices (not sorted).  mu holds
    their eigenvalues, the same doubles as the full operator's, and weight
    the quadrature weight of each node, grid.weight times its mirror
    multiplicity: one float where every node stands for 2^k nodes (each
    folded axis has even n), else one weight per node.  to_coeffs and
    from_coeffs take one field or an (M, m) stack, like SpectralOperator's,
    and a mirror-even field's coefficients are its full-grid coefficients
    on the kept modes, so c.c is its L^2 mass.
    """

    grid: Grid
    folds: tuple[bool, ...]
    shape: tuple[int, ...]
    mu: np.ndarray
    weight: float | np.ndarray
    _to: tuple
    _from: tuple

    def restrict(self, values: np.ndarray) -> np.ndarray:
        """The mirror average of a full-grid field, on the half grid."""
        shaped = np.reshape(values, self.grid.n)
        for ax in np.flatnonzero(self.folds):
            shaped = 0.5 * (shaped + np.flip(shaped, ax))
        return shaped[tuple(slice(m) for m in self.shape)].ravel()

    def unfold(self, values: np.ndarray) -> np.ndarray:
        """The full-grid field whose mirror images are copies of values."""
        index = [
            np.minimum(np.arange(n), n - 1 - np.arange(n)) if fold else np.arange(n)
            for n, fold in zip(self.grid.n, self.folds)
        ]
        return np.reshape(values, self.shape)[np.ix_(*index)].ravel()

    def to_coeffs(self, values: np.ndarray) -> np.ndarray:
        coeffs = _tensor_product(np.asarray(values), self.shape, self._to)
        coeffs *= math.sqrt(self.grid.weight)
        return coeffs

    def from_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        out = _tensor_product(np.asarray(coeffs), self.shape, self._from)
        out /= math.sqrt(self.grid.weight)
        return out


def _mirror_sector(op: SpectralOperator, folds: tuple[bool, ...]) -> Optional[_MirrorSector]:
    """The mirror sector of op that folds the flagged axes, or None when no
    axis folds.  folds comes from _sector_folds, which only flags axes of a
    structured operator on the sine-matrix or the Rader path.

    A folded axis whose half, ceil(n/2) nodes, is short enough for the
    sine-matrix path (_MATMUL_MAX_N) multiplies by the half sine matrices
    (_half_sine_matrices); a longer one, a Rader axis, runs the half-length
    Rader transform (_half_rader).  An axis that does not fold keeps its
    whole-grid op (_axis_op).
    """
    if not any(folds):
        return None
    grid = op.grid
    to, back, mus, mults = [], [], [], []
    for n, h, fold in zip(grid.n, grid.h, folds):
        lam = _dirichlet_axis_eigenvalues(n, h)
        if not fold:
            ops, mult = (_axis_op(n),) * 2, np.ones(n)
        else:
            lam, mult = lam[::2], _mirror_multiplicities(n)
            if lam.size <= _MATMUL_MAX_N:
                ops = tuple(s.__rmatmul__ for s in _half_sine_matrices(n))
            else:
                ops = tuple(functools.partial(_half_rader, plan) for plan in _half_rader_plans(n))
        to.append(ops[0])
        back.append(ops[1])
        mus.append(lam)
        mults.append(mult)
    mult = functools.reduce(np.multiply.outer, mults).ravel()
    return _MirrorSector(
        grid=grid,
        folds=tuple(folds),
        shape=tuple(lam.size for lam in mus),
        mu=functools.reduce(np.add.outer, mus).ravel(),
        # equal multiplicities make one float, which grids._lq_integral
        # sums without its per-node branch
        weight=grid.weight * (float(mult[0]) if np.all(mult == mult[0]) else mult),
        _to=tuple(to),
        _from=tuple(back),
    )


def _primitive_root_powers(n: int) -> np.ndarray:
    """g^e mod p for e = 0..n - 1, p = n + 1 prime and g its least primitive root."""
    p = n + 1
    g = next(r for r in range(2, p) if all(pow(r, n // q, p) != 1 for q in _prime_factors(n)))
    powers = [1]
    for _ in range(n - 1):
        powers.append(powers[-1] * g % p)
    return np.array(powers)


@functools.lru_cache(maxsize=16)
def _rader_plan(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gather, fold factors, kernel spectrum, output factors, order.

    p = n + 1 is prime, h = n / 2, and g is the least primitive root mod p,
    so g^h = -1.  Input a of the convolution is z_j at j = g^a (notation at
    _rader_dst): the gather takes x_j for a = 0..h-1, then x_(p-j), and
    the fold factors are the coefficients 1 - i(-1)^j and -1 - i(-1)^j.
    The kernel is w_c = sin(2 pi g^(-c) / p), c = 0..h-1.  The convolution
    is negacyclic at length h, so the fold factors and the kernel carry the
    twist exp(i pi a / h) and the output factors its conjugate, and the
    kernel spectrum carries the 1/h of the inverse FFT.  Output b is S at
    m = g^(-b), or -S at p - m when m > h, so its factor carries that sign
    and the orthonormal scale sqrt(2/p).  order gathers the interleaved
    real (k = 2m) and imaginary (k = p - 2m) parts of the outputs into DST
    order.
    """
    p, h = n + 1, n // 2
    powers = _primitive_root_powers(n)
    j = powers[:h]  # g^a
    m = powers[-np.arange(h) % n]  # g^(-b)
    twist = np.exp((1j * np.pi / h) * np.arange(h))
    parity = np.where(j % 2 == 0, 1j, -1j)
    half = np.minimum(m, p - m)
    plan = (
        np.r_[j - 1, p - j - 1],
        np.r_[twist * (1 - parity), twist * (-1 - parity)],
        scipy.fft.fft(twist * np.sin((2 * np.pi / p) * m)) / h,
        np.sqrt(2.0 / p) * np.where(m > h, -1.0, 1.0) * twist.conj(),
        np.argsort(np.c_[2 * half - 1, n - 2 * half].ravel()),
    )
    for arr in plan:
        arr.flags.writeable = False
    return plan


def _rader_dst(x: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I along the last axis of length n, n + 1 = p prime,
    by Rader.

    With j, k = 1..n, h = n / 2 and the complex fold

        z_j = (x_j - x_(p-j)) - i (-1)^j (x_j + x_(p-j)),

    odd on Z_p (z_(p-j) = -z_j), the sums S_m = sum_(j=1..h) z_j
    sin(2 pi j m / p), m = 1..h, give y_(2m) = sqrt(2/p) Re S_m and
    y_(p-2m) = sqrt(2/p) Im S_m.  With j = g^a and m = g^(-b), S is a
    cyclic convolution of length p - 1 over the powers of g (Rader, Proc.
    IEEE 56, 1968), and since g^h = -1 and both factors are odd, a
    negacyclic one of length h: one complex FFT pair at n / 2, where a
    chirp-z transform needs one at about 2n (plan at _rader_plan).  Every
    FFT runs along the last axis, line by line, so a stack equals its
    single calls bit for bit.
    """
    gather, fold, kernel_hat, post, order = _rader_plan(x.shape[-1])
    h = x.shape[-1] // 2
    z = np.take(x, gather, axis=-1) * fold
    c = scipy.fft.fft(z[..., :h] + z[..., h:], axis=-1, overwrite_x=True)
    c *= kernel_hat
    c = scipy.fft.ifft(c, axis=-1, norm="forward", overwrite_x=True)
    c *= post
    # the last axis of c.view(float) interleaves the real and imaginary parts
    return np.take(c.view(float), order, axis=-1)


@functools.lru_cache(maxsize=16)
def _half_rader_plans(n: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Plans of the mirror sector's two transforms on a Rader axis: (to, from).

    p = n + 1 is prime and h = n / 2.  Counting nodes j and modes k from 1,
    both directions are one real transform of length h,

        T(w)_m = sum_(j=1..h) w_j sin(2 pi j m / p),   m = 1..h,

    with fixed signs and index maps: `to` takes w_j = (-1)^(j+1) u_j, and
    T_m is mode k = p - 2m; `from` takes w_k = c_k for odd k and -c_(p-k)
    for even k, and T_m is node min(2m, p - 2m).  Take j = g^a and
    m = g^(-b) mod p (notation at _rader_plan), each folded into 1..h by
    x -> p - x with a sign where it exceeds h: T is then a real negacyclic
    convolution of length h over the powers of g.  For even h it runs as a right-angle convolution
    (Crandall & Fagin, Math. Comp. 62, 1994): the gather interleaves inputs
    a and a + h/2, so the complex view of the gathered row packs them as
    w_a + i w_(a+h/2); twisted by exp(i pi a / h) the packed rows convolve
    cyclically by one complex FFT pair of length h / 2, and the real and
    imaginary parts of the untwisted result are outputs b and b + h/2.  For
    odd h (n = 718, 1438, 2038) the gathered row itself is the complex
    input, of length h, and the real parts are the outputs.  The kernel is
    packed the same way as the outputs, w_c = sin(2 pi g^(-c) / p), and its
    spectrum carries the 1/length of the inverse FFT.  A plan is (gather,
    input signs, twist, kernel spectrum, untwist, order, output factors);
    order gathers the outputs from the result's float view into node or
    mode order, and the output factors carry the signs, sqrt(2/p) and, on
    the way to the modes, the multiplicity 2 of every half-axis node.
    """
    p, h = n + 1, n // 2
    powers = _primitive_root_powers(n)
    j, m = powers[:h], powers[-np.arange(h) % n]  # g^a, g^(-b)
    j_half, m_half = np.minimum(j, p - j), np.minimum(m, p - m)
    length = h // 2 if h % 2 == 0 else h
    a = np.arange(h)
    # where input a sits in the gathered row, and output b in the result's float view
    slot_in = np.where(a < length, 2 * a, 2 * (a - length) + 1) if length < h else a
    slot_out = slot_in if length < h else 2 * a
    twist = np.exp((1j * np.pi / h) * np.arange(length))
    kernel = np.zeros(2 * length)
    kernel[slot_out] = np.sin((2 * np.pi / p) * m)
    kernel_hat = scipy.fft.fft(twist * kernel.view(complex)) / length
    odd = j_half % 2 == 1
    # (-1)^(j+1) on to's u_j and the - on from's c_(p-k) at even k alike
    sign_in = np.where(j > h, -1.0, 1.0) * np.where(odd, 1.0, -1.0)
    sign_out = math.sqrt(2.0 / p) * np.where(m > h, -1.0, 1.0)
    node = np.minimum(2 * m_half, p - 2 * m_half) - 1
    plans = []
    for source, target, mult in (
        (j_half - 1, h - m_half, 2.0),  # to: node j -> mode p - 2m, index h - m
        (np.where(odd, j_half // 2, h - j_half // 2), node, 1.0),  # from: mode k -> node
    ):
        gather, signs = np.empty(h, dtype=np.intp), np.empty(h)
        gather[slot_in], signs[slot_in] = source, sign_in
        order, post = np.empty(h, dtype=np.intp), np.empty(h)
        order[target], post[target] = slot_out, mult * sign_out
        plans.append((gather, signs, twist, kernel_hat, twist.conj(), order, post))
    for plan in plans:
        for arr in plan:
            arr.flags.writeable = False
    return plans[0], plans[1]


def _half_rader(plan: tuple[np.ndarray, ...], x: np.ndarray) -> np.ndarray:
    """One of the mirror sector's transforms on a Rader axis, along the last
    axis of length n / 2 (plan and notation at _half_rader_plans).

    One complex FFT pair of length n / 4 per line (n / 2 where n / 2 is
    odd), where the full axis' _rader_dst takes one of length n / 2.  Every
    FFT runs along the last axis, line by line, so a stack equals its
    single calls bit for bit.
    """
    gather, signs, twist, kernel_hat, untwist, order, post = plan
    z = np.take(x, gather, axis=-1)
    z *= signs
    z = z.view(complex) if z.shape[-1] > twist.size else z.astype(complex)
    z *= twist
    c = scipy.fft.fft(z, axis=-1, overwrite_x=True)
    c *= kernel_hat
    c = scipy.fft.ifft(c, axis=-1, norm="forward", overwrite_x=True)
    c *= untwist
    out = np.take(c.view(float), order, axis=-1)
    out *= post
    return out


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
    mirrored = _mirror_axes(v.reshape(grid.n))
    return tuple(n % 2 == 0 and mirror for n, mirror in zip(grid.n, mirrored))


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

    klass = "B" if v is None or np.min(v) >= 0 else "A"
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

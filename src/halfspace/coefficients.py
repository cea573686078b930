"""Coefficient matrices, the first-order transform, and accretivity estimates.

A coefficient matrix A(x) is an N x N complex matrix per grid point,
stored in the block layout [[a, b], [c, d]] where a acts on the scalar
slot (m channels) and d on the tangential slot (m*n channels).  The
transform turns the second-order divergence-form system into the
first-order evolution satisfied by the conormal gradient; it requires
the a block to be invertible pointwise.
"""

from __future__ import annotations

import dataclasses
import functools
import typing

import numpy as np
import scipy.linalg

from .grid import GridSpec, cached_per_grid, check_dense_size, fft_values, ifft_values

__all__ = [
    "CoefficientMatrix",
    "TransformedB",
    "AccretivityReport",
    "hat_transform",
    "accretivity_estimate",
    "identity_coefficients",
    "block_diagonal_coefficients",
    "perturbation_of_identity",
]


# step of the bisection grid the certified angle omega is rounded up to, radians
ANGLE_RESOLUTION = 1e-3


class CoefficientError(ValueError):
    pass


class NotAccretiveError(RuntimeError):
    """The transformed matrix fails strict accretivity on the relevant range."""


class _PointwiseMatrix:
    """Shared storage/behavior for per-grid-point N x N matrices."""

    def __init__(self, grid: GridSpec, values: np.ndarray):
        values = np.asarray(values, dtype=complex)
        expected = grid.shape + (grid.channels, grid.channels)
        if values.shape != expected:
            raise CoefficientError(f"matrix field shape {values.shape}, expected {expected}")
        if not np.all(np.isfinite(values)):
            raise CoefficientError("matrix field has non-finite entries")
        self.grid = grid
        self.values = values

    def sup_norm(self) -> float:
        """Largest pointwise operator 2-norm over the grid."""
        return float(np.linalg.norm(self.values, ord=2, axis=(-2, -1)).max())

    def adjoint_values(self) -> np.ndarray:
        return np.conj(np.swapaxes(self.values, -1, -2))

    def _blocks(self):
        m = self.grid.system_size
        return (
            self.values[..., :m, :m],
            self.values[..., :m, m:],
            self.values[..., m:, :m],
            self.values[..., m:, m:],
        )


class CoefficientMatrix(_PointwiseMatrix):
    """Bounded measurable coefficients A(x), t-independent."""

    @property
    def a(self) -> np.ndarray:
        return self._blocks()[0]

    @property
    def b(self) -> np.ndarray:
        return self._blocks()[1]

    @property
    def c(self) -> np.ndarray:
        return self._blocks()[2]

    @property
    def d(self) -> np.ndarray:
        return self._blocks()[3]

    def adjoint(self) -> "CoefficientMatrix":
        return CoefficientMatrix(self.grid, self.adjoint_values())


class _Compression(typing.NamedTuple):
    """The r x r compression C = Q^* B Q of B to the range of D."""

    C: np.ndarray


@dataclasses.dataclass(frozen=True)
class _RangeEigen:
    """D_r C = W diag(lam) W^-1 and M = W^-1 C^-1, shared by DB and BD on one B;
    condition is cond(W) sup|B| / lambda_min(Re C)."""

    lam: np.ndarray
    W: np.ndarray
    M: np.ndarray
    condition: float


class TransformedB(_PointwiseMatrix):
    """Pointwise multiplier B(x) obtained from coefficients A(x).

    B owns what every B, DB and BD handle on it shares, each built once, on
    first use: the compression C of B to the range of D (compression), the
    accretivity certificate with kappa, omega and sup|B| that
    accretivity_estimate reads from C and keeps in _report, the r x r
    eigendecomposition of DB on the range of D (range_eigen) and its two
    syntheses Q W and Q M^* (range_syntheses).
    """

    def __init__(self, grid: GridSpec, values: np.ndarray):
        super().__init__(grid, values)
        self._report = None

    def adjoint(self) -> "TransformedB":
        return TransformedB(self.grid, self.adjoint_values())

    @functools.cached_property
    def compression(self) -> _Compression:
        """C = Q^* B Q by _range_compression; accretivity makes C invertible.
        Refuses beyond the dense limit before allocating."""
        check_dense_size(self.grid)
        return _Compression(_range_compression(self))

    @functools.cached_property
    def range_eigen(self) -> _RangeEigen:
        """The r x r eigendecomposition of DB on the range of D.

        With Q the orthonormal range basis, D Q = Q D_r and Q^* D (I - Q Q^*) =
        0, so DB Q = Q D_r C.  Accretivity makes D_r C invertible, so every
        one of its r eigenvalues is nonzero; the certificate runs first and
        raises NotAccretiveError before any eig.  M = (C W)^-1 comes from
        one LU of the product.
        """
        report = accretivity_estimate(self)
        C = self.compression.C
        lam, W = np.linalg.eig(_range_symbol_product(self.grid, C))
        M = np.linalg.inv(C @ W)
        return _RangeEigen(lam=lam, W=W, M=M,
                           condition=float(np.linalg.cond(W)) * report.sup_norm / report.kappa)

    @functools.cached_property
    def range_syntheses(self) -> tuple:
        """(Q W, Q M^*) of range_eigen, dof x r each and read-only: one
        synthesis of r columns each, which the eigendecompositions of DB
        and BD on this B share (calculus._range_eigen_data)."""
        core = self.range_eigen
        out = (_range_synthesis(self.grid, core.W), _range_synthesis(self.grid, core.M.conj().T))
        for array in out:
            array.setflags(write=False)
        return out


def hat_transform(A: CoefficientMatrix) -> TransformedB:
    """Map A = [[a,b],[c,d]] to B = [[a^-1, -a^-1 b], [c a^-1, d - c a^-1 b]].

    The defining block identity B [[a,b],[0,1]] = [[1,0],[c,d]] holds
    pointwise.  Raises if the a block is singular anywhere, naming the
    first offending grid point.
    """
    grid = A.grid
    m = grid.system_size
    a, b, c, d = A._blocks()
    dets = np.abs(np.linalg.det(a))
    scale = np.abs(a).max() or 1.0
    if np.any(dets < 1e-14 * scale**m):
        idx = tuple(int(i) for i in np.argwhere(dets < 1e-14 * scale**m)[0])
        raise CoefficientError(
            f"scalar-slot block a(x) is singular at grid point {idx}"
        )
    a_inv = np.linalg.inv(a)
    ca_inv = np.einsum("...ij,...jk->...ik", c, a_inv)
    top = np.concatenate([a_inv, -np.einsum("...ij,...jk->...ik", a_inv, b)], axis=-1)
    bottom = np.concatenate(
        [ca_inv, d - np.einsum("...ij,...jk->...ik", ca_inv, b)], axis=-1
    )
    return TransformedB(grid, np.concatenate([top, bottom], axis=-2))


@dataclasses.dataclass(frozen=True)
class AccretivityReport:
    """Certificate for the multiplier on the range of the symbol projection.

    kappa: lower bound of the real part of the compressed quadratic form.
    omega: half-angle of the smallest sector containing its numerical range.
    sup_norm: L-infinity bound of the multiplier.
    pointwise_accretive: whether B(x) is accretive at every grid point.
    """

    kappa: float
    omega: float
    sup_norm: float
    pointwise_accretive: bool
    method: dict

    def __post_init__(self):
        if self.kappa <= 0:
            raise NotAccretiveError("B not accretive on range of D")


# elements of the (F, rows, N, N) gather of B-hat per row block of the compression
_GATHER_BUDGET = 2**20


@cached_per_grid
def _range_basis_coefficients(grid: GridSpec) -> tuple:
    """Orthonormal spectral basis of the range of the symbol projection.

    For every nonzero frequency k: m scalar-slot unit vectors and m
    tangential vectors aligned with k.  Returns (nonzero, vectors): the
    flat indices of the F nonzero frequencies and the (F, 2m, N) channel
    vectors, m scalar-slot then m tangential ones per frequency.  Basis
    element (a, j) is the mode exp(i k_a x) v_{a,j} scaled to unit L^2 norm
    on the grid, and the flattened (a, j) orders the r = 2mF rows of every
    coefficient vector.  Read-only.
    """
    m = grid.system_size
    alpha = np.arange(m)
    freqs = grid.frequencies().reshape(-1, grid.dim)
    nonzero = np.flatnonzero(np.any(freqs != 0, axis=1))
    khat = freqs[nonzero] / np.linalg.norm(freqs[nonzero], axis=1, keepdims=True)
    vectors = np.zeros((len(nonzero), 2, m, grid.channels), dtype=complex)
    vectors[:, 0, alpha, alpha] = 1.0
    tangential = m + m * np.arange(grid.dim)[:, None] + alpha
    vectors[:, 1, alpha, tangential] = khat[:, :, None]
    out = (nonzero, vectors.reshape(len(nonzero), 2 * m, grid.channels))
    for array in out:
        array.setflags(write=False)
    return out


def _range_synthesis(grid: GridSpec, X: np.ndarray) -> np.ndarray:
    """Q X for the orthonormal dof x r range basis Q, which is never formed.

    X has r rows, and the result has the same columns in the flattened
    physical layout.  The coefficients of each column are scattered into
    the spectral slots of their frequencies and transformed back once.
    """
    nonzero, vectors = _range_basis_coefficients(grid)
    F, width, N = vectors.shape
    columns = X.reshape(F, width, -1)
    spec = np.zeros((columns.shape[-1], grid.points**grid.dim, N), dtype=complex)
    spec[:, nonzero] = (vectors.transpose(0, 2, 1) @ columns).transpose(2, 0, 1)
    phys = ifft_values(spec.reshape((-1,) + grid.shape + (N,)), grid)
    # the inverse transform of a series coefficient has flat norm G^(n/2)
    phys *= grid.points ** (-grid.dim / 2.0)
    return phys.reshape(-1, grid.dof).T.reshape((grid.dof,) + X.shape[1:])


def _range_analysis(grid: GridSpec, Y: np.ndarray) -> np.ndarray:
    """Q^* Y, the adjoint of _range_synthesis and its left inverse: Q^* Q = I_r.

    Y has dof rows in the flattened physical layout, and the result has r
    rows.  Each column is transformed forward once, gathered at the nonzero
    frequencies and paired with the conjugate channel vectors.
    """
    nonzero, vectors = _range_basis_coefficients(grid)
    F, width, N = vectors.shape
    columns = Y.reshape(grid.dof, -1).T.reshape((-1,) + grid.shape + (N,))
    spec = fft_values(columns, grid).reshape(len(columns), -1, N)[:, nonzero]
    X = vectors.conj() @ spec.transpose(1, 2, 0)
    # a series coefficient of a unit-norm mode is G^(-n/2)
    X *= grid.points ** (grid.dim / 2.0)
    return X.reshape((F * width,) + Y.shape[1:])


def _range_symbol_product(grid: GridSpec, X: np.ndarray) -> np.ndarray:
    """D_r X for the symbol compressed to its range, D_r = Q^* D Q.

    In the basis of _range_basis_coefficients D_r is block diagonal: per
    nonzero frequency k the block [[0, i|k|], [-i|k|, 0]] (x) I_m pairs
    the m scalar-slot vectors with the m tangential ones.  X has r rows.
    """
    kn = grid.frequency_norms().reshape(-1)
    kn = kn[kn > 0][:, None, None]
    blocks = X.reshape(len(kn), 2, grid.system_size, -1)
    out = np.empty(blocks.shape, dtype=complex)
    out[:, 0] = 1j * kn * blocks[:, 1]
    out[:, 1] = -1j * kn * blocks[:, 0]
    return out.reshape(X.shape)


def _range_compression(B: TransformedB) -> np.ndarray:
    """The r x r compression C = Q^* B Q of the multiplier to the range.

    With B-hat the forward-normalized transform of B over the grid,
    C[(a,i),(b,j)] = v_{a,i}^* B-hat(k_a - k_b) v_{b,j}: a gather of
    B-hat at the flat index of k_a - k_b, then two batched products with
    the channel vectors, in row blocks of at most _GATHER_BUDGET gathered
    elements.  Each block's (F, rows) index table is built from the
    per-axis frequency indices and dropped with the block.  No dof x r
    basis is formed.
    """
    grid = B.grid
    nonzero, vectors = _range_basis_coefficients(grid)
    F, width, N = vectors.shape
    index = np.unravel_index(nonzero, grid.shape)
    Bhat = fft_values(B.values.reshape(grid.shape + (N * N,)), grid).reshape(-1, N, N)
    left, right = vectors.conj(), vectors.transpose(0, 2, 1)
    C = np.empty((F, width, F * width), dtype=complex)
    rows = max(1, _GATHER_BUDGET // (F * N * N))
    for start in range(0, F, rows):
        block = slice(start, start + rows)
        differences = np.ravel_multi_index(  # [b, a]: the flat index of k_a - k_b
            tuple((i[None, block] - i[:, None]) % grid.points for i in index), grid.shape
        )
        gathered = Bhat[differences]  # (F, rows, N, N)
        n = gathered.shape[1]
        Bv = (gathered.reshape(F, n * N, N) @ right).reshape(F, n, N, width)
        C[block] = left[block] @ Bv.transpose(1, 2, 0, 3).reshape(n, N, F * width)
    return C.reshape(F * width, F * width)


def _round_up_to_bisection_grid(angle: float) -> float:
    """Upper end of the halving of [0, pi/2 - 1e-9] around angle, down to the grid step."""
    lo, hi = 0.0, np.pi / 2 - 1e-9
    while hi - lo > ANGLE_RESOLUTION:
        mid = 0.5 * (lo + hi)
        if mid >= angle:
            hi = mid
        else:
            lo = mid
    return hi


def accretivity_estimate(B: TransformedB) -> AccretivityReport:
    """The accretivity certificate of the compressed multiplier, cached on B.

    Computed once per multiplier; every later call, and every consumer (the
    range eigendecomposition, the contour fit, a FirstOrderSystem and its
    adjoint), reads the same report.  C is B.compression, so the
    certificate refuses beyond the dense limit before allocating, as the
    compression does.  kappa is the smallest eigenvalue of the Hermitian
    part H of C = H + iK; NotAccretiveError is raised unless it is
    positive.  As H > 0, the numerical range of C lies in the sector
    |arg z| <= phi exactly when |<Kx,x>| <= tan(phi) <Hx,x> for every x,
    so the exact angle is arctan max|mu| over the eigenvalues mu of the
    Hermitian pencil K x = mu H x.  The reported omega is that angle
    rounded up to the grid of the bisection of [0, pi/2) in steps down to
    ANGLE_RESOLUTION; it is 0 when ||K||_2 is within roundoff of sup |B|,
    which bounds ||C||_2 from above.
    """
    if B._report is not None:
        return B._report
    C = B.compression.C
    herm = 0.5 * (C + C.conj().T)
    kappa = float(np.linalg.eigvalsh(herm)[0])
    if not kappa > 0:  # the pencil below needs H > 0
        raise NotAccretiveError(f"B not accretive on range of D (kappa = {kappa:.3e})")
    sup = B.sup_norm()
    pointwise = bool(
        np.all(np.linalg.eigvalsh(0.5 * (B.values + B.adjoint_values()))[..., 0] > 0)
    )
    tol = 1e-12 * max(sup, 1.0)
    skew = -0.5j * (C - C.conj().T)
    # an entry bounds ||K||_2 from below, so this solve runs only near zero
    if np.abs(skew).max() <= tol and np.abs(np.linalg.eigvalsh(skew)).max() <= tol:
        omega = exact = 0.0
        max_mu, search = None, "none: skew-Hermitian part within roundoff"
    else:
        mu = scipy.linalg.eigh(skew, herm, eigvals_only=True)
        max_mu = float(max(-mu[0], mu[-1]))
        exact = float(np.arctan(max_mu))
        omega = _round_up_to_bisection_grid(exact)
        search = "generalized Hermitian eigenproblem (K, H)"
    B._report = AccretivityReport(
        kappa=kappa,
        omega=omega,
        sup_norm=sup,
        pointwise_accretive=pointwise,
        method={
            "compression_size": C.shape[0],
            "angle_resolution": ANGLE_RESOLUTION,
            "angle_search": search,
            "omega_exact": exact,
            "pencil_max_abs_eigenvalue": max_mu,
        },
    )
    return B._report


def identity_coefficients(grid: GridSpec) -> CoefficientMatrix:
    eye = np.eye(grid.channels, dtype=complex)
    return CoefficientMatrix(grid, np.broadcast_to(eye, grid.shape + eye.shape).copy())


def block_diagonal_coefficients(grid: GridSpec, a, d) -> CoefficientMatrix:
    """A = diag(a, d) with a scalar-slot and d tangential-slot samples.

    a may be a scalar, an array over the grid, or a full m x m matrix
    field; d likewise for the tangential slot.
    """
    m = grid.system_size
    nt = grid.channels - m
    values = np.zeros(grid.shape + (grid.channels, grid.channels), dtype=complex)

    def fill(block, size, offset):
        block = np.asarray(block, dtype=complex)
        if block.ndim == 0:
            block = block * np.eye(size)
        elif block.shape == grid.shape:
            block = block[..., None, None] * np.eye(size)
        for i in range(size):
            for j in range(size):
                values[..., offset + i, offset + j] = block[..., i, j]

    fill(a, m, 0)
    fill(d, nt, m)
    return CoefficientMatrix(grid, values)


def perturbation_of_identity(
    grid: GridSpec, rng: np.random.Generator, size: float
) -> CoefficientMatrix:
    """I plus a random complex matrix field of sup-norm about `size`."""
    shape = grid.shape + (grid.channels, grid.channels)
    E = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    E /= np.linalg.norm(E, ord=2, axis=(-2, -1)).max()
    eye = np.eye(grid.channels, dtype=complex)
    return CoefficientMatrix(grid, eye + size * E)

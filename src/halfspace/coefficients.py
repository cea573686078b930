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

import numpy as np
import scipy.linalg

from .grid import Field, GridSpec, PHYSICAL, ifft_values

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

    def apply(self, f: Field) -> Field:
        fp = f.to_physical()
        out = np.einsum("...ij,...j->...i", self.values, fp.values)
        return Field(self.grid, out, PHYSICAL)

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

    def a_condition(self) -> float:
        """Worst condition number of the scalar-slot block over the grid."""
        return float(np.linalg.cond(self.a).max())

    def adjoint(self) -> "CoefficientMatrix":
        return CoefficientMatrix(self.grid, self.adjoint_values())


class TransformedB(_PointwiseMatrix):
    """Pointwise multiplier B(x) obtained from coefficients A(x).

    Every DB and BD handle on one multiplier shares its range split and
    the eigendecomposition of DB restricted to the range of D, each built
    lazily, by operators.range_splitter (or the certificate) and
    calculus.eigen_data, and its sup norm, computed on first use.
    """

    def __init__(self, grid: GridSpec, values: np.ndarray):
        super().__init__(grid, values)
        self._splitter = None
        self._range_eigen = None
        self._sup_norm = None

    def sup_norm(self) -> float:
        """Largest pointwise operator 2-norm over the grid, computed once."""
        if self._sup_norm is None:
            self._sup_norm = super().sup_norm()
        return self._sup_norm

    def adjoint(self) -> "TransformedB":
        return TransformedB(self.grid, self.adjoint_values())


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


def _range_basis_coefficients(grid: GridSpec):
    """Orthonormal spectral basis of the range of the symbol projection.

    For every nonzero frequency k: m scalar-slot unit vectors and m
    tangential vectors aligned with k.  Returns (frequency index list,
    channel-vector list) with one entry per basis element.
    """
    m = grid.system_size
    alpha = np.arange(m)
    freqs = grid.frequencies().reshape(-1, grid.dim)
    nonzero = np.flatnonzero(np.any(freqs != 0, axis=1))
    khat = freqs[nonzero] / np.linalg.norm(freqs[nonzero], axis=1, keepdims=True)
    # per frequency: m scalar-slot vectors, then m tangential ones
    vectors = np.zeros((len(nonzero), 2, m, grid.channels), dtype=complex)
    vectors[:, 0, alpha, alpha] = 1.0
    tangential = m + m * np.arange(grid.dim)[:, None] + alpha
    vectors[:, 1, alpha, tangential] = khat[:, :, None]
    return np.repeat(nonzero, 2 * m), vectors.reshape(-1, grid.channels)


def _range_basis_fields(grid: GridSpec) -> np.ndarray:
    """Orthonormal basis Q of the range of the projection, flattened physical.

    Columns follow the order of _range_basis_coefficients; the result has
    shape dof x r.
    """
    positions, vectors = _range_basis_coefficients(grid)
    r = len(positions)
    gridsize = grid.points**grid.dim
    basis = np.zeros((r, gridsize, grid.channels), dtype=complex)
    basis[np.arange(r), positions, :] = vectors
    basis = basis.reshape((r,) + grid.shape + (grid.channels,))
    phys = ifft_values(basis, grid)
    # the spectral basis is orthonormal in plain coefficient dots; the
    # series-normalized inverse transform scales flat norms by G^(n/2)
    return phys.reshape(r, -1).T * grid.points ** (-grid.dim / 2.0)


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


def _compression(B: TransformedB, Q: np.ndarray) -> np.ndarray:
    """Q^* (B Q) for a dof x r basis Q in the flattened physical layout."""
    grid = B.grid
    cols = Q.reshape(grid.shape + (grid.channels, Q.shape[1]))
    BQ = np.einsum("...ij,...jr->...ir", B.values, cols).reshape(Q.shape)
    return Q.conj().T @ BQ


def compressed_quadratic_form(B: TransformedB) -> np.ndarray:
    """Dense matrix C = Q^* (B Q) of the multiplier compressed to the range.

    Q is the orthonormal dof x r basis of the range of the symbol
    projection built by _range_basis_fields; entry (i, j) pairs basis
    vector i with B applied to basis vector j.
    """
    return _compression(B, _range_basis_fields(B.grid))


def _round_up_to_bisection_grid(angle: float, resolution: float) -> float:
    """Upper end of the halving of [0, pi/2 - 1e-9] around angle, down to resolution."""
    lo, hi = 0.0, np.pi / 2 - 1e-9
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # the grid is finer than the float spacing
        if mid >= angle:
            hi = mid
        else:
            lo = mid
    return hi


def accretivity_estimate(B: TransformedB, resolution: float = 1e-3) -> AccretivityReport:
    """Estimate the accretivity bound and angle of the compressed multiplier.

    kappa is the smallest eigenvalue of the Hermitian part H of the
    compression C = H + iK.  C and kappa come from the range split cached
    on B, which the calculus on B reuses, so the certificate refuses
    beyond the dense limit as the split does.  As H > 0, the numerical
    range of C lies in the sector |arg z| <= phi exactly when |<Kx,x>| <=
    tan(phi) <Hx,x> for every x, so the exact angle is arctan max|mu| over
    the eigenvalues mu of the Hermitian pencil K x = mu H x.  The reported omega is that
    angle rounded up to the grid of the bisection of [0, pi/2) down to
    the angular resolution; it is 0 when ||K||_2 is within roundoff of
    sup |B|, which bounds ||C||_2 from above.
    """
    if not (np.isfinite(resolution) and resolution > 0):
        raise ValueError(f"angle resolution must be finite and positive, got {resolution}")
    # operators imports this module, so the shared range split is imported here
    from .operators import b_operator, range_splitter

    splitter = range_splitter(b_operator(B))
    C = splitter.C
    herm = 0.5 * (C + C.conj().T)
    kappa = splitter.kappa
    sup = B.sup_norm()
    pointwise = bool(
        np.all(np.linalg.eigvalsh(0.5 * (B.values + B.adjoint_values()))[..., 0] > 0)
    )
    if kappa <= 0:
        raise NotAccretiveError("B not accretive on range of D")
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
        omega = _round_up_to_bisection_grid(exact, resolution)
        search = "generalized Hermitian eigenproblem (K, H)"
    return AccretivityReport(
        kappa=kappa,
        omega=omega,
        sup_norm=sup,
        pointwise_accretive=pointwise,
        method={
            "compression_size": C.shape[0],
            "angle_resolution": resolution,
            "angle_search": search,
            "omega_exact": exact,
            "pencil_max_abs_eigenvalue": max_mu,
        },
    )


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

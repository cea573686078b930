"""First-order operators as exact Fourier multipliers and their compositions.

The central object is the self-adjoint block operator that pairs the
divergence of the tangential slot with minus the gradient of the scalar
slot.  On the torus its symbol at frequency k is Hermitian with nonzero
eigenvalues +-|k| on its range, and the associated range projection is
an exact multiplier.  Multiplication by a transformed coefficient
matrix composes with it on either side; resolvents of the compositions
are solved densely at desk scale or by a preconditioned Krylov
iteration beyond it.

Every handle is T = L K R, a multiplier K with the pointwise B on at
most one side.  It applies R, K and L in turn and returns physical values;
its dense matrix is the block circulant of the kernel of K with B on
its rows or columns.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.fft
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view

from .coefficients import TransformedB
from .grid import (
    DENSE_LIMIT, PHYSICAL, SPECTRAL, Field, GridSpec, OperatorError, cached_per_grid,
    check_dense_size, fft_values, ifft_values,
)

__all__ = [
    "MultiplierSymbol",
    "LinearOperatorHandle",
    "build_D_symbol",
    "build_P_symbol",
    "build_inverse_D_symbol",
    "d_operator",
    "p_operator",
    "b_operator",
    "db_operator",
    "bd_operator",
    "resolvent_solve",
    "assemble_dense",
    "check_dense_size",
    "offdiag_probe",
    "DENSE_LIMIT",
]

class IterationError(OperatorError):
    """Krylov iteration failed; carries the residual history."""

    def __init__(self, msg, history):
        super().__init__(msg)
        self.history = history


def _pointwise_product(mats: np.ndarray, values: np.ndarray) -> np.ndarray:
    """mats @ v at every grid point or frequency, with optional leading batch axes on values."""
    return (mats @ values[..., None])[..., 0]


@dataclasses.dataclass(frozen=True)
class MultiplierSymbol:
    """Frequency-indexed N x N matrices acting in the spectral representation.

    The matrices are made read-only: the symbols of D, P and D^+ are built
    once per grid and shared by every handle on it.
    """

    grid: GridSpec
    matrices: np.ndarray  # grid_shape + (N, N)

    def __post_init__(self):
        expected = self.grid.shape + (self.grid.channels, self.grid.channels)
        if self.matrices.shape != expected:
            raise OperatorError(f"symbol shape {self.matrices.shape}, expected {expected}")
        self.matrices.setflags(write=False)

    def apply_spectral(self, values: np.ndarray) -> np.ndarray:
        return _pointwise_product(self.matrices, values)

    def at(self, k) -> np.ndarray:
        """Matrix at an integer frequency tuple."""
        idx = tuple(int(ki) % self.grid.points for ki in np.atleast_1d(k))
        return self.matrices[idx]


def _frequency_norms_squared(grid: GridSpec) -> np.ndarray:
    """|k|^2 per frequency from the integer frequencies, exact."""
    return (grid.frequencies() ** 2).sum(axis=-1)


@cached_per_grid
def build_D_symbol(grid: GridSpec) -> MultiplierSymbol:
    """Symbol of the divergence / negative-gradient block operator.

    Acting on (scalar slot f_perp, tangential slot f_par):
    output scalar slot = i k . f_par, output tangential slot = -i k f_perp,
    per system component.  Hermitian for every k, zero at k = 0.
    """
    m = grid.system_size
    N = grid.channels
    freqs = grid.frequencies()
    mats = np.zeros(grid.shape + (N, N), dtype=complex)
    for j in range(grid.dim):
        kj = freqs[..., j]
        for alpha in range(m):
            mats[..., alpha, m + j * m + alpha] = 1j * kj
            mats[..., m + j * m + alpha, alpha] = -1j * kj
    return MultiplierSymbol(grid, mats)


@cached_per_grid
def build_P_symbol(grid: GridSpec) -> MultiplierSymbol:
    """Orthogonal projection onto the closed range of the block operator.

    Identity on the scalar slot and the rank-one tangential projector
    along k for k != 0; zero matrix at k = 0.
    """
    m = grid.system_size
    N = grid.channels
    freqs = grid.frequencies()
    kn2 = _frequency_norms_squared(grid)
    mats = np.zeros(grid.shape + (N, N), dtype=complex)
    nz = kn2 > 0
    for alpha in range(m):
        mats[..., alpha, alpha][nz] = 1.0
    for i in range(grid.dim):
        for j in range(grid.dim):
            proj = np.zeros_like(kn2)
            proj[nz] = freqs[..., i][nz] * freqs[..., j][nz] / kn2[nz]
            for alpha in range(m):
                mats[..., m + i * m + alpha, m + j * m + alpha] = proj
    return MultiplierSymbol(grid, mats)


@cached_per_grid
def build_inverse_D_symbol(grid: GridSpec) -> MultiplierSymbol:
    """Spectral inverse on the range of the block operator, zero elsewhere.

    The Moore-Penrose pseudo-inverse D(k)^+ of the Hermitian symbol per
    frequency, in closed form: D(k)^2 = |k|^2 P(k), so D(k)^+ = D(k) / |k|^2
    for k != 0, and 0 at k = 0.  The zero mode is annihilated, matching
    the mean-zero policy of homogeneous norms.
    """
    kn2 = _frequency_norms_squared(grid)
    inv = np.zeros_like(kn2)
    inv[kn2 > 0] = 1.0 / kn2[kn2 > 0]
    return MultiplierSymbol(grid, build_D_symbol(grid).matrices * inv[..., None, None])


def _resolvent_of_D_symbol(grid: GridSpec, t: float) -> MultiplierSymbol:
    """(I + i t D)^{-1} as an exact multiplier, used as a preconditioner.

    D(k)^2 = |k|^2 P(k) and D = P D give the closed form
    (I - P) + (P - i t D) / (1 + t^2 |k|^2) per frequency.
    """
    D = build_D_symbol(grid).matrices
    P = build_P_symbol(grid).matrices
    scale = 1.0 / (1.0 + t**2 * _frequency_norms_squared(grid))
    eye = np.eye(grid.channels)
    return MultiplierSymbol(grid, eye - P + (P - 1j * t * D) * scale[..., None, None])


class LinearOperatorHandle:
    """T = L K R on fields, with a tag: B is L, DB is D R and BD is L D.

    attributes besides tag and grid:
      symbol  - the MultiplierSymbol of the multiplier K, or None for K = I
      left, right  - the TransformedB of L and of R, or None
      multiplier_matrix  - read-only: whichever of left and right is set,
                           else None; it owns the accretivity certificate
                           the calculus reads
      _dense, _eigen, _schur, _contour  - lazily built caches, _contour the
                                          ContourSpec of the contour path
      _resolvent_diagonal  - the contour path's (dof, nodes) table
                             1 / (lambda_k - R_ii) from _schur and _contour
      _lu  - (t, LU of I + i t T) of the last dense resolvent_solve,
             replaced when t changes
    """

    def __init__(self, tag: str, grid: GridSpec, symbol: MultiplierSymbol | None = None,
                 left: TransformedB | None = None, right: TransformedB | None = None):
        self.tag = tag
        self.grid = grid
        self.symbol = symbol
        self.left = left
        self.right = right
        self._dense = None
        self._eigen = None
        self._schur = None
        self._contour = None
        self._resolvent_diagonal = None
        self._lu = None

    @property
    def multiplier_matrix(self) -> TransformedB | None:
        return self.left if self.left is not None else self.right

    def __repr__(self):
        return f"LinearOperatorHandle({self.tag!r})"

    def apply_array(self, values: np.ndarray, rep: str) -> np.ndarray:
        """R, K and L applied to values in rep, with optional leading batch
        axes; only K reads spectral values, and the result is physical."""
        grid = self.grid
        if rep == SPECTRAL and (self.symbol is None or self.right is not None):
            values, rep = ifft_values(values, grid), PHYSICAL
        if self.right is not None:
            values = _pointwise_product(self.right.values, values)
        if self.symbol is not None:
            if rep == PHYSICAL:
                values = fft_values(values, grid)
            values = ifft_values(self.symbol.apply_spectral(values), grid)
        if self.left is not None:
            values = _pointwise_product(self.left.values, values)
        return values

    def apply(self, f: Field) -> Field:
        return Field.physical(self.grid, self.apply_array(f.values, f.rep))

    def dense_matrix(self) -> np.ndarray:
        """Matrix of the operator on flattened physical values (cached)."""
        if self._dense is None:
            self._dense = assemble_dense(self)
        return self._dense


def d_operator(grid: GridSpec) -> LinearOperatorHandle:
    return LinearOperatorHandle("D", grid, symbol=build_D_symbol(grid))


def p_operator(grid: GridSpec) -> LinearOperatorHandle:
    return LinearOperatorHandle("P", grid, symbol=build_P_symbol(grid))


def inverse_d_operator(grid: GridSpec) -> LinearOperatorHandle:
    return LinearOperatorHandle("Dinv", grid, symbol=build_inverse_D_symbol(grid))


def b_operator(B: TransformedB) -> LinearOperatorHandle:
    return LinearOperatorHandle("B", B.grid, left=B)


def db_operator(B: TransformedB) -> LinearOperatorHandle:
    return LinearOperatorHandle("DB", B.grid, symbol=build_D_symbol(B.grid), right=B)


def bd_operator(B: TransformedB) -> LinearOperatorHandle:
    return LinearOperatorHandle("BD", B.grid, symbol=build_D_symbol(B.grid), left=B)


def _circulant(window: np.ndarray, grid: GridSpec) -> np.ndarray:
    """(P, N, P N) block circulant whose block (x, y) is window[y - x].

    window is grid_shape + (N, N).  Row block x is the window of its
    periodic extension that starts at G - x per axis, so one copy of a
    strided view builds the matrix in rows of G N contiguous entries.
    """
    dim, G, N = grid.dim, grid.points, grid.channels
    # ext[a, j..., b] = window[j mod G, a, b] for 0 <= j < 2G per axis
    ext = np.tile(np.moveaxis(window, -2, 0), (1,) + (2,) * dim + (1,))
    rows = sliding_window_view(ext, grid.shape, axis=tuple(range(1, dim + 1)))
    rows = rows[(slice(None),) + (slice(G, 0, -1),) * dim]  # (a, x..., b, y...)
    order = (*range(1, dim + 1), 0, *range(dim + 2, 2 * dim + 2), dim + 1)
    return np.ascontiguousarray(rows.transpose(order)).reshape(G**dim, N, G**dim * N)


def assemble_dense(T: LinearOperatorHandle) -> np.ndarray:
    """Matrix of T in the flattened physical basis, in closed form.

    T = L K R, where K is the block circulant of the multiplier's kernel
    kappa(z) = P^-1 sum_k S(k) exp(i k z), so K[(x, a), (y, b)] =
    kappa_ab(x - y) (K = I without a symbol), and L and R are the
    block-diagonal pointwise factors T.left and T.right.  L K is one batched (P, N, N) @ (P, N, P N) product on the row
    blocks of K.  K R is the transpose of R^T K^T, the same product on the
    circulant of kappa(-z)^T, and is returned as that transposed
    (Fortran-ordered) view.  No FFT of a basis and no apply runs; the peak
    is about twice the matrix.  A handle with both L and R raises
    OperatorError.

    Raises OperatorError beyond the dense limit, before allocating; the
    contour path and the dense resolvent factorize this matrix, so neither
    runs in that regime.  The eigen path never assembles it.
    """
    grid = T.grid
    check_dense_size(grid)
    if T.left is not None and T.right is not None:
        raise OperatorError(f"no closed-form dense matrix for {T.tag!r}: B on both sides")
    P, N = grid.points**grid.dim, grid.channels
    axes = tuple(range(grid.dim))
    if T.symbol is None:
        # K = I: kappa is the identity at z = 0, and so is either window below
        window = np.zeros(grid.shape + (N, N), dtype=complex)
        window[(0,) * grid.dim] = np.eye(N)
    elif T.right is None:
        # block (x, y) of K is kappa(x - y) = window[y - x]
        window = scipy.fft.fftn(T.symbol.matrices, axes=axes, norm="forward")
    else:
        # K R = (R^T K^T)^T, and block (y, x) of K^T is kappa(x - y)^T = window[x - y]
        window = scipy.fft.ifftn(T.symbol.matrices, axes=axes).swapaxes(-1, -2)
    out = _circulant(window, grid)
    if T.right is not None:
        out = np.matmul(T.right.values.reshape(P, N, N).swapaxes(-1, -2), out)
        return out.reshape(grid.dof, grid.dof).T
    if T.left is not None:
        out = np.matmul(T.left.values.reshape(P, N, N), out)
    return out.reshape(grid.dof, grid.dof)


def resolvent_solve(
    T: LinearOperatorHandle,
    t: float,
    f: Field,
    tol: float = 1e-10,
    method: str = "auto",
) -> Field:
    """Solve (I + i t T) u = f.

    method "dense" factorizes I + i t T, with the LU cached on the handle
    for the last t; "gmres" runs restarted GMRES with the exact multiplier
    resolvent of the self-adjoint part as preconditioner; "auto" takes the
    first below the size limit and the second beyond it.  Any other method
    raises ValueError before anything is built.
    The returned field satisfies the residual bound tol * |f| or an
    IterationError carries the residual history.
    """
    if method not in ("auto", "dense", "gmres"):
        raise ValueError(f"unknown resolvent method {method!r}")
    if t == 0:
        return f.copy()
    grid = T.grid
    if method == "auto":
        method = "dense" if grid.dof <= DENSE_LIMIT else "gmres"
    rhs = f.flat()
    if method == "dense":
        if T._lu is None or T._lu[0] != t:
            M = np.eye(grid.dof, dtype=complex) + 1j * t * T.dense_matrix()
            T._lu = (t, scipy.linalg.lu_factor(M))
        u = scipy.linalg.lu_solve(T._lu[1], rhs)
    else:
        # imported on first use: only this branch needs scipy.sparse
        from scipy.sparse.linalg import LinearOperator, gmres

        shape = grid.shape + (grid.channels,)
        prec = LinearOperatorHandle("(I + itD)^-1", grid, symbol=_resolvent_of_D_symbol(grid, t))

        def matvec(x):
            vals = x.reshape(shape)
            return (vals + 1j * t * T.apply_array(vals, PHYSICAL)).reshape(-1)

        def precvec(x):
            return prec.apply_array(x.reshape(shape), PHYSICAL).reshape(-1)

        A = LinearOperator(
            (grid.dof, grid.dof), matvec=matvec, dtype=complex
        )
        M = LinearOperator(
            (grid.dof, grid.dof), matvec=precvec, dtype=complex
        )
        history = []
        u, info = gmres(
            A,
            rhs,
            rtol=tol / 10,
            atol=0.0,
            restart=50,
            maxiter=10,
            M=M,
            callback=lambda r: history.append(float(r)),
            callback_type="pr_norm",
        )
        if info != 0:
            raise IterationError(
                f"resolvent iteration stagnated (info={info})", history
            )
    out = Field.from_flat(grid, u)
    applied = T.apply_array(out.values, PHYSICAL)
    residual = np.linalg.norm(out.values + 1j * t * applied - f.to_physical().values)
    if residual > tol * max(np.linalg.norm(rhs), 1e-300):
        raise IterationError(
            f"resolvent residual {residual:.3e} above tolerance", [residual]
        )
    return out


def range_splitter(T: LinearOperatorHandle):
    """The compression C of B to the range of D for B, DB and BD: the one
    B.compression, shared by every handle on B.  A multiplier, whose range
    part is P f, is refused."""
    B = T.multiplier_matrix
    if B is None:
        raise OperatorError(f"no range split for tag {T.tag}")
    return B.compression


# ---------------------------------------------------------------------------
# off-diagonal decay probes
# ---------------------------------------------------------------------------


def torus_mask_distance(grid: GridSpec, mask_E: np.ndarray, mask_F: np.ndarray) -> float:
    """Minimal torus distance between two index sets."""
    coords = np.stack(grid.coordinates(), axis=-1)
    E = coords[mask_E].reshape(-1, grid.dim)
    F = coords[mask_F].reshape(-1, grid.dim)
    diff = np.abs(E[:, None, :] - F[None, :, :])
    diff = np.minimum(diff, 2 * np.pi - diff)
    return float(np.sqrt((diff**2).sum(axis=-1)).min())


@dataclasses.dataclass
class DecayEstimate:
    distances_over_t: np.ndarray
    norms: np.ndarray
    exponent: float
    saturated: bool
    distance: float


def _localized_norm(T, t, mask_E, mask_F, trials, rng, tol=1e-10) -> float:
    """Empirical norm of cutoff (I + i t T)^{-1} cutoff on random data.

    Every trial is one checked resolvent_solve; below the dense limit they
    share the LU of I + i t T cached on the handle.
    """
    grid = T.grid
    best = 0.0
    for _ in range(trials):
        vals = np.zeros(grid.shape + (grid.channels,), dtype=complex)
        noise = rng.standard_normal(vals.shape) + 1j * rng.standard_normal(vals.shape)
        vals[mask_F] = noise[mask_F]
        f = Field.physical(grid, vals)
        norm_f = np.linalg.norm(vals)
        if norm_f == 0:
            continue
        u = resolvent_solve(T, t, f, tol=tol)
        restricted = u.to_physical().values[mask_E]
        best = max(best, float(np.linalg.norm(restricted) / norm_f))
    return best


def _fit_exponent(ratios: np.ndarray, norms: np.ndarray) -> float:
    mask = norms > 1e-14
    if mask.sum() < 2:
        return float("inf")
    slope = np.polyfit(np.log(ratios[mask]), np.log(norms[mask]), 1)[0]
    return float(-slope)


def offdiag_probe(
    T: LinearOperatorHandle,
    t,
    mask_E: np.ndarray,
    mask_F: np.ndarray,
    trials: int = 8,
    rng: np.random.Generator | None = None,
) -> DecayEstimate:
    """Localization decay of the resolvent between disjoint grid regions.

    For each t, measures the empirical norm of the resolvent localized
    from F to E and fits a power law in 1 + dist(E, F) / t.  When t
    exceeds the period the torus wraps around and the decay saturates;
    this is flagged rather than fitted away.  The spectral band cutoff
    adds an oscillatory kernel floor of order 1/(t G^2); sweeps should
    stay above it (the distance sweep below keeps the floor fixed).
    """
    rng = rng or np.random.default_rng(0)
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    d = torus_mask_distance(T.grid, mask_E, mask_F)
    norms = np.array([_localized_norm(T, tj, mask_E, mask_F, trials, rng) for tj in ts])
    ratios = 1.0 + d / ts
    saturated = bool(np.any(ts > 2 * np.pi))
    exponent = _fit_exponent(ratios, norms) if len(ts) >= 2 else float("nan")
    return DecayEstimate(
        distances_over_t=d / ts,
        norms=norms,
        exponent=exponent,
        saturated=saturated,
        distance=d,
    )


def offdiag_distance_sweep(
    T: LinearOperatorHandle,
    t: float,
    distances,
    trials: int = 8,
    rng: np.random.Generator | None = None,
    center_radius: float = np.pi / 16,
    shell_width: float = np.pi / 16,
) -> DecayEstimate:
    """Fixed-scale localization decay across a sweep of separations.

    Holds t fixed (so the resolvent amplitude and the truncation floor
    are common to all measurements) and moves an annular source shell
    away from a ball around the origin.
    """
    rng = rng or np.random.default_rng(0)
    grid = T.grid
    table = grid.torus_distance_table()
    mask_E = table <= center_radius
    norms, ratios, dists = [], [], []
    for d0 in np.atleast_1d(np.asarray(distances, dtype=float)):
        mask_F = (table >= d0) & (table <= d0 + shell_width)
        if not mask_F.any() or (mask_E & mask_F).any():
            continue
        d = torus_mask_distance(grid, mask_E, mask_F)
        norms.append(_localized_norm(T, t, mask_E, mask_F, trials, rng))
        ratios.append(1.0 + d / t)
        dists.append(d)
    norms = np.asarray(norms)
    ratios = np.asarray(ratios)
    return DecayEstimate(
        distances_over_t=np.asarray(dists) / t,
        norms=norms,
        exponent=_fit_exponent(ratios, norms),
        saturated=bool(t > 2 * np.pi),
        distance=float(max(dists, default=np.nan)),
    )

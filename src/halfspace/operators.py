"""First-order operators as exact Fourier multipliers and their compositions.

The central object is the self-adjoint block operator that pairs the
divergence of the tangential slot with minus the gradient of the scalar
slot.  On the torus its symbol at frequency k is Hermitian with nonzero
eigenvalues +-|k| on its range, and the associated range projection is
an exact multiplier.  Multiplication by a transformed coefficient
matrix composes with it on either side; resolvents of the compositions
are solved densely at desk scale or by a preconditioned Krylov
iteration beyond it.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.linalg

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
        return np.einsum("...ij,...j->...i", self.matrices, values)

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
    """A linear map on fields with a tag and a preferred representation.

    kinds:
      multiplier  - acts in the spectral representation
      pointwise   - matrix multiplication per grid point, physical
      compose     - right-to-left composition of handles

    attributes besides tag, grid, kind and payload:
      multiplier_matrix  - the TransformedB of B, DB and BD, else None; it
                           owns the accretivity certificate the calculus reads
      _dense, _eigen, _schur, _contour  - lazily built caches, _contour the
                                          ContourSpec of the contour path
      _resolvent_diagonal  - the contour path's (dof, nodes) table
                             1 / (lambda_k - R_ii) from _schur and _contour
      _lu  - (t, LU of I + i t T) of the last dense resolvent_solve,
             replaced when t changes
      _eigen_source  - callable deriving _eigen from a similar operator's
                       eigendecomposition, or None to compute it here
    """

    def __init__(self, tag: str, grid: GridSpec, kind: str, payload,
                 multiplier_matrix: TransformedB | None = None):
        self.tag = tag
        self.grid = grid
        self.kind = kind
        self.payload = payload
        self.multiplier_matrix = multiplier_matrix
        self._dense = None
        self._eigen = None
        self._eigen_source = None
        self._schur = None
        self._contour = None
        self._resolvent_diagonal = None
        self._lu = None

    def __repr__(self):
        return f"LinearOperatorHandle({self.tag!r}, kind={self.kind!r})"

    def apply_array(self, values: np.ndarray, rep: str):
        """Apply to raw values with optional leading batch axes."""
        if self.kind == "multiplier":
            if rep == PHYSICAL:
                values = fft_values(values, self.grid)
            out = np.einsum("...ij,...j->...i", self.payload.matrices, values)
            return out, SPECTRAL
        if self.kind == "pointwise":
            if rep == SPECTRAL:
                values = ifft_values(values, self.grid)
            out = np.einsum("...ij,...j->...i", self.payload, values)
            return out, PHYSICAL
        if self.kind == "compose":
            for part in reversed(self.payload):
                values, rep = part.apply_array(values, rep)
            return values, rep
        raise OperatorError(f"unknown kind {self.kind}")

    def apply(self, f: Field) -> Field:
        values, rep = self.apply_array(f.values, f.rep)
        return Field(self.grid, values, rep)

    def dense_matrix(self) -> np.ndarray:
        """Matrix of the operator on flattened physical values (cached)."""
        if self._dense is None:
            self._dense = assemble_dense(self)
        return self._dense


def d_operator(grid: GridSpec) -> LinearOperatorHandle:
    return LinearOperatorHandle("D", grid, "multiplier", build_D_symbol(grid))


def p_operator(grid: GridSpec) -> LinearOperatorHandle:
    return LinearOperatorHandle("P", grid, "multiplier", build_P_symbol(grid))


def inverse_d_operator(grid: GridSpec) -> LinearOperatorHandle:
    return LinearOperatorHandle("Dinv", grid, "multiplier", build_inverse_D_symbol(grid))


def b_operator(B: TransformedB) -> LinearOperatorHandle:
    return LinearOperatorHandle("B", B.grid, "pointwise", B.values, B)


def db_operator(B: TransformedB) -> LinearOperatorHandle:
    parts = [d_operator(B.grid), b_operator(B)]
    return LinearOperatorHandle("DB", B.grid, "compose", parts, B)


def bd_operator(B: TransformedB) -> LinearOperatorHandle:
    parts = [b_operator(B), d_operator(B.grid)]
    return LinearOperatorHandle("BD", B.grid, "compose", parts, B)


def assemble_dense(T: LinearOperatorHandle) -> np.ndarray:
    """Matrix of T in the flattened physical basis.

    Raises OperatorError beyond the dense limit, before allocating; the
    contour path and the dense resolvent factorize this matrix, so neither
    runs in that regime.  The eigen path never assembles it.
    """
    check_dense_size(T.grid)
    dim = T.grid.dof
    basis = np.eye(dim, dtype=complex).reshape(
        (dim,) + T.grid.shape + (T.grid.channels,)
    )
    out, rep = T.apply_array(basis, PHYSICAL)
    if rep == SPECTRAL:
        out = ifft_values(out, T.grid)
    return out.reshape(dim, dim).T.copy()


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

        prec_symbol = _resolvent_of_D_symbol(grid, t)

        def matvec(x):
            vals = x.reshape(grid.shape + (grid.channels,))
            out, rep = T.apply_array(vals, PHYSICAL)
            if rep == SPECTRAL:
                out = ifft_values(out, grid)
            return (vals + 1j * t * out).reshape(-1)

        def precvec(x):
            vals = fft_values(x.reshape(grid.shape + (grid.channels,)), grid)
            out = prec_symbol.apply_spectral(vals)
            return ifft_values(out, grid).reshape(-1)

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
    applied, rep = T.apply_array(out.values, PHYSICAL)
    if rep == SPECTRAL:
        applied = ifft_values(applied, grid)
    residual = np.linalg.norm(out.values + 1j * t * applied - f.to_physical().values)
    if residual > tol * max(np.linalg.norm(rhs), 1e-300):
        raise IterationError(
            f"resolvent residual {residual:.3e} above tolerance", [residual]
        )
    return out


def range_splitter(T: LinearOperatorHandle):
    """The compression (C, lu) of B to the range of D for B, DB and BD: the
    one B.compression, shared by every handle on B.  A multiplier, whose
    range part is P f, is refused."""
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

"""Boundary value problems at exponent two and boundary layer potentials.

The trace space of conormal gradients of decaying solutions is the
positive spectral subspace of the first-order composition.  Solvers
invert the scalar or tangential trace map on an orthonormal basis of
that subspace by least squares, reporting the residual and the
condition number rather than assuming invertibility.

DB maps into the range of D, so its basis and the trace maps are held in
the coordinates of the orthonormal range basis Q of D, one scalar-slot
and one tangential vector along k/|k| per nonzero frequency and system
channel.  There the trace maps are square, and a boundary datum enters
as its Fourier coefficients, from one forward transform that also
serves the refusals of a non-finite entry and of a nonzero mean; what
no trace reaches is added to the residual exactly, by Parseval.

The positive basis of DB is Q U+, held as U+ R = W+, the QR of the range
coordinates of its positive eigenvectors (calculus.EigenData).  The
trace maps are the scalar and tangential row blocks of the isometry U+,
so one SVD gives both (the CS decomposition).  A solve returns the
coordinates c of its trace h = Q (U+ c), one column formed on its first
read.  Each boundary slot is read from y = Q^* h = U+ c by one inverse
transform: the conormal derivative is the scalar rows of y and the value
of the potential -i (tangential rows) / |k|.  The potential v with D v =
-h in the positive subspace of BD = B (DB) B^-1 is -B (DB)^-1 h: one
triangular solve with R, then Q W+ = Q U+ R and B pointwise.
The layers at height t flow their density by exp(-z) chi+(z) or exp(z)
chi-(z) at the scale |t|, and by chi+ or chi- at t = 0.

Scalar boundary data are arrays of shape grid_shape + (m,); the scalar
slot of every returned interior quantity is the mean-zero
representative, which is the torus realization of the solution being
determined modulo constants.
"""

from __future__ import annotations

import dataclasses
import functools
import typing

import numpy as np
from scipy.linalg.lapack import ztrtrs

from . import calculus as fc
from .calculus import eigen_data
from .coefficients import (
    AccretivityReport,
    CoefficientMatrix,
    TransformedB,
    _range_basis_coefficients,
    _range_synthesis,
    accretivity_estimate,
    hat_transform,
)
from .grid import (
    PHYSICAL,
    Field,
    GridSpec,
    TLadder,
    cached_per_grid,
    check_finite,
    fft_values,
    ifft_values,
)
from .operators import (
    LinearOperatorHandle,
    _pointwise_product,
    bd_operator,
    db_operator,
    inverse_d_operator,
    p_operator,
)
from .tent import unit_ball_volume

__all__ = [
    "FirstOrderSystem",
    "SpectralHardyBasis",
    "BVPSolution",
    "TraceMapError",
    "spectral_split",
    "solve_regularity",
    "solve_neumann",
    "solve_dirichlet",
    "dirichlet_to_neumann",
    "neumann_to_dirichlet",
    "grad_single_layer",
    "single_layer",
    "double_layer",
    "layer_duality_check",
    "boundary_layer_representation_check",
    "tangential_gradient",
    "scalar_potential",
    "embed_scalar",
]

TRACE_CONDITION_LIMIT = 1e6


class TraceMapError(RuntimeError):
    """Trace map numerically not invertible; the problem may be unsolvable."""


class DatumError(ValueError):
    pass


# ---------------------------------------------------------------------------
# scalar and tangential boundary data helpers
# ---------------------------------------------------------------------------


def _as_scalar_data(grid: GridSpec, f) -> np.ndarray:
    f = np.asarray(f, dtype=complex)
    if f.shape == grid.shape and grid.system_size == 1:
        f = f[..., None]
    if f.shape != grid.shape + (grid.system_size,):
        raise DatumError(
            f"scalar datum shape {f.shape}, expected {grid.shape + (grid.system_size,)}"
        )
    return f


def _squeeze_channels(arr: np.ndarray) -> np.ndarray:
    """Drop a singleton channel axis so shapes match scalar-style inputs."""
    return arr[..., 0] if arr.shape[-1] == 1 else arr


def _as_tangential_data(grid: GridSpec, f) -> np.ndarray:
    f = np.asarray(f, dtype=complex)
    nt = grid.system_size * grid.dim
    if f.shape == grid.shape and nt == 1:
        f = f[..., None]
    if f.shape != grid.shape + (nt,):
        raise DatumError(
            f"tangential datum shape {f.shape}, expected {grid.shape + (nt,)}"
        )
    return f


_MEAN_ZERO_TOLERANCE = 1e-10


def _require_mean_zero(grid: GridSpec, data: np.ndarray, what: str):
    mean = data.mean(axis=tuple(range(grid.dim)))
    if not np.linalg.norm(mean) <= _MEAN_ZERO_TOLERANCE * max(np.linalg.norm(data), 1e-300):
        raise DatumError(f"{what} must have zero mean on the torus")


def embed_scalar(grid: GridSpec, f) -> Field:
    """[f; 0]: scalar datum in the scalar slot, zero tangential slot."""
    f = _as_scalar_data(grid, f)
    vals = np.zeros(grid.shape + (grid.channels,), dtype=complex)
    vals[..., : grid.system_size] = f
    return Field.physical(grid, vals)


def tangential_gradient(grid: GridSpec, f) -> np.ndarray:
    """Componentwise spectral gradient of scalar data, curl-free by construction."""
    fhat = fft_values(_as_scalar_data(grid, f), grid)
    freqs = grid.frequencies()
    m = grid.system_size
    out = np.zeros(grid.shape + (m * grid.dim,), dtype=complex)
    for j in range(grid.dim):
        out[..., j * m : (j + 1) * m] = 1j * freqs[..., j][..., None] * fhat
    return _squeeze_channels(ifft_values(out, grid))


def scalar_potential(grid: GridSpec, g) -> np.ndarray:
    """Mean-zero scalar data whose spectral gradient matches g.

    Exact for curl-free g; in general the per-frequency least-squares
    projection onto gradients.
    """
    ghat = fft_values(_as_tangential_data(grid, g), grid)
    freqs = grid.frequencies()
    kn2 = (freqs**2).sum(axis=-1)
    m = grid.system_size
    fhat = np.zeros(grid.shape + (m,), dtype=complex)
    for j in range(grid.dim):
        fhat += -1j * freqs[..., j][..., None] * ghat[..., j * m : (j + 1) * m]
    nz = kn2 > 0
    fhat[nz] = fhat[nz] / kn2[nz][..., None]
    fhat[~nz] = 0.0
    return _squeeze_channels(ifft_values(fhat, grid))


def _scalar_l2(grid: GridSpec, f) -> float:
    return float(np.sqrt(grid.cell_volume) * np.linalg.norm(f))


# ---------------------------------------------------------------------------
# boundary data in the range coordinates of D
# ---------------------------------------------------------------------------


class _Datum(typing.NamedTuple):
    """Boundary data in the coordinates of a trace map, by Parseval.

    rhs holds the coordinates on the rows of the map; outside is the
    squared flat norm of the rest, which no trace reaches: the mean, and
    for tangential data the part transverse to k/|k|; energy is the
    squared flat norm per frequency, in flat frequency order.
    """

    rhs: np.ndarray
    outside: float
    energy: np.ndarray

    @property
    def outside_share(self) -> float:
        return float(np.sqrt(self.outside / max(self.energy.sum(), 1e-300)))


def _flat_rows(grid: GridSpec, hat: np.ndarray) -> np.ndarray:
    """(G^n, channels) rows of a spectrum, scaled so that their norms are flat physical norms."""
    return hat.reshape(grid.points**grid.dim, -1) * grid.points ** (grid.dim / 2.0)


def _row_power(rows: np.ndarray) -> np.ndarray:
    """The squared norm of every row: the squared flat norm per frequency."""
    return (rows * rows.conj()).real.sum(axis=1)


def _datum_rows(grid: GridSpec, data: np.ndarray, what: str | None) -> tuple:
    """The flat rows of a boundary datum and their squared norms, from one transform.

    A non-finite entry of data raises GridError naming it, before the
    transform.  With what given, a datum of nonzero mean raises DatumError
    as _require_mean_zero does, read from the rows: rows[0] is G^(n/2)
    times the mean and the norm of the rows the flat norm of data.
    """
    check_finite(data)
    rows = _flat_rows(grid, fft_values(data, grid))
    power = _row_power(rows)
    if what is not None:
        mean = np.sqrt(power[0]) * grid.points ** (-grid.dim / 2.0)
        if not mean <= _MEAN_ZERO_TOLERANCE * max(np.sqrt(power.sum()), 1e-300):
            raise DatumError(f"{what} must have zero mean on the torus")
    return rows, power


def _scalar_datum(grid: GridSpec, rows: np.ndarray, power: np.ndarray | None = None) -> _Datum:
    """Scalar data: the coordinates are the coefficients at the nonzero frequencies.

    power is _row_power(rows), formed here when not given.
    """
    nonzero, _ = _range_basis_coefficients(grid)
    power = _row_power(rows) if power is None else power
    return _Datum(rows[nonzero].reshape(-1), float(power[0]), power)


def _tangential_datum(grid: GridSpec, rows: np.ndarray,
                      power: np.ndarray | None = None) -> _Datum:
    """Tangential data: the coordinates are the k/|k| components per system channel.

    Channel j m + i of the rows is direction j of system component i, so
    with the rows at each nonzero frequency as a (dim, m) block g, the
    coordinates are the sum over j of (k_j/|k|) g_j, elementwise.  power
    is _row_power(rows), formed here when not given.
    """
    nonzero, _ = _range_basis_coefficients(grid)
    power = _row_power(rows) if power is None else power
    khat = _nonzero_frequency_directions(grid)
    g = rows[nonzero].reshape(len(nonzero), grid.dim, grid.system_size)
    coords = (khat * g).sum(axis=1)
    transverse = g - khat * coords[:, None]
    outside = power[0] + np.vdot(transverse, transverse).real
    return _Datum(coords.reshape(-1), float(outside), power)


@cached_per_grid
def _nonzero_frequency_norms(grid: GridSpec) -> np.ndarray:
    """|k| at the nonzero frequencies, in the order of _range_basis_coefficients; read-only."""
    nonzero, _ = _range_basis_coefficients(grid)
    return grid.frequency_norms().reshape(-1)[nonzero]


@cached_per_grid
def _nonzero_frequency_directions(grid: GridSpec) -> np.ndarray:
    """k/|k| at the nonzero frequencies, shape (F, dim, 1), in the same order; read-only."""
    nonzero, _ = _range_basis_coefficients(grid)
    k = grid.frequencies().reshape(-1, grid.dim)[nonzero]
    return (k / _nonzero_frequency_norms(grid)[:, None])[..., None]


def _gradient_datum(grid: GridSpec, rows: np.ndarray, power: np.ndarray) -> _Datum:
    """The tangential gradient of scalar data: coordinates i|k| f-hat, nothing outside."""
    nonzero, _ = _range_basis_coefficients(grid)
    energy = grid.frequency_norms().reshape(-1) ** 2 * power
    coords = 1j * _nonzero_frequency_norms(grid)[:, None] * rows[nonzero]
    return _Datum(coords.reshape(-1), 0.0, energy)


def _range_part(grid: GridSpec, h: Field):
    """Q^* h and the squared flat norm of h outside the range of D, from one transform."""
    m = grid.system_size
    rows = _flat_rows(grid, h.to_spectral().values)
    scalar, tangential = _scalar_datum(grid, rows[:, :m]), _tangential_datum(grid, rows[:, m:])
    y = np.stack([scalar.rhs.reshape(-1, m), tangential.rhs.reshape(-1, m)], axis=1)
    return y.reshape(-1), scalar.outside + tangential.outside


def _slot_coefficients(grid: GridSpec, y: np.ndarray, slot: str) -> np.ndarray:
    """A boundary slot of the trace of range coordinates y, as (G^n - 1, m) flat rows.

    "conormal" is the scalar slot, the scalar rows of y; "value" the
    potential of the tangential slot's gradient part, -i (tangential rows) / |k|.
    """
    rows = y.reshape(-1, 2, grid.system_size)
    if slot == "conormal":
        return rows[:, 0]
    return -1j * rows[:, 1] / _nonzero_frequency_norms(grid)[:, None]


# ---------------------------------------------------------------------------
# system context: coefficients, certificate, cached operators and bases
# ---------------------------------------------------------------------------


class SpectralHardyBasis:
    """Orthonormal basis of the positive spectral subspace of one composition.

    The eigen data hold only the range part of the operator, so its
    eigenvalues split into the two spectral subspaces and the null space
    is the rest of the dof.  The split must be even, r/2 of positive real
    part first (B.range_eigen's order), or TraceMapError is raised;
    dim_plus is r/2 and _lam_plus the positive half, a view.

    With V+ the leading r/2 eigenvectors, the basis is Q+ R = V+, R upper
    triangular.  DB has V = Q W (Q the range basis of _range_synthesis), so
    it keeps U = Q^* Q+ (_range_coordinates) from the r x r/2 QR U R = W+,
    and Q+ = Q U is never formed.  BD keeps plus = Q+ from the QR of V+ in
    the physical layout; no solve or layer potential reads it.
    """

    def __init__(self, T: LinearOperatorHandle):
        ed = eigen_data(T)
        half = len(ed.lam) // 2
        if not (np.all(ed.lam[:half].real > 0) and np.all(ed.lam[half:].real < 0)):
            raise TraceMapError(
                f"spectrum splits {int((ed.lam.real > 0).sum())} positive and "
                f"{int((ed.lam.real < 0).sum())} negative, expected {half} and "
                f"{len(ed.lam) - half} in that order"
            )
        self._lam_plus = ed.lam[:half]
        if ed.coordinates is not None:
            self._range_coordinates, self._R = np.linalg.qr(ed.coordinates[:, :half])
        else:
            self.plus, self._R = np.linalg.qr(ed.V[:, :half])
            self._range_coordinates = None
        self.dim_plus = half


@dataclasses.dataclass(frozen=True)
class _FactoredMap:
    """A dense map from Hardy coordinates of DB to boundary data, kept as its thin SVD."""

    U: np.ndarray
    s: np.ndarray
    Vh: np.ndarray

    @classmethod
    def of(cls, matrix: np.ndarray) -> "_FactoredMap":
        return cls(*np.linalg.svd(matrix, full_matrices=False))

    @property
    def condition(self) -> float:
        return float(self.s[0] / self.s[-1]) if self.s[-1] > 0 else np.inf

    @functools.cached_property
    def _inverse_values(self) -> tuple:
        """The mask of the singular values above numpy.linalg.lstsq's default
        cutoff and their reciprocals, zero below it; fixed per map."""
        cutoff = np.finfo(float).eps * max(self.U.shape[0], self.Vh.shape[1]) * self.s[0]
        keep = self.s > cutoff
        s_inv = np.zeros_like(self.s)
        s_inv[keep] = 1.0 / self.s[keep]
        return keep, s_inv

    def solve(self, rhs: np.ndarray):
        """Minimum-norm least squares with numpy.linalg.lstsq's default cutoff.

        Returns the coordinates and the fitted data, the map applied to them.
        U^* rhs and Vh^* y are formed as conjugates of the vector-matrix
        products conj(rhs) U and conj(y) Vh, so neither factor is copied.
        """
        keep, s_inv = self._inverse_values
        coords = rhs.conj() @ self.U  # conj(U^* rhs)
        return ((s_inv * coords) @ self.Vh).conj(), self.U @ (keep * coords.conj())


class FirstOrderSystem:
    """Coefficients, the transformed multiplier, its certificate and operators.

    Builds the accretivity certificate of B up front (it gates everything
    downstream), or stores a given report of the same coefficients on B.
    DB and BD = B (DB) B^-1 share one r x r eigendecomposition, that of D_r
    C, DB restricted to the range of D, cached on B; their null parts are
    exact.  The adjoint system runs on N B^* N, which takes the
    certificate and the factorization from B, so it runs no other eig or
    certificate.  Hardy bases and the factorized trace maps are cached per
    system.
    """

    def __init__(self, A: CoefficientMatrix, report: AccretivityReport | None = None):
        B = hat_transform(A)
        B._report = report
        self._build(A, B)

    def _build(self, A: CoefficientMatrix, B: TransformedB):
        self.A = A
        self.grid = A.grid
        self.B = B
        self.report = accretivity_estimate(B)
        self.db = db_operator(B)
        self.bd = bd_operator(B)
        self._hardy = {}
        self._trace_maps = {}
        self._adjoint = None

    def hardy(self, which: str) -> SpectralHardyBasis:
        if which not in self._hardy:
            self._hardy[which] = SpectralHardyBasis(
                self.db if which == "DB" else self.bd
            )
        return self._hardy[which]

    def trace_map(self, slot: str) -> _FactoredMap:
        """Factorized map from Hardy coordinates to boundary data, built once.

        The maps act in coordinates where Q, k/|k| and U are isometries, so
        their singular values are those of the physical maps.  "scalar" and
        "tangential" are the scalar and tangential rows S and T of U, the
        range coordinates of the positive Hardy basis of DB: square, (G^n -
        1) m x r/2, and built together.  U is an isometry, so S^* S + T^* T
        = I, and with S = U_s Sigma V^* the columns of T V are orthogonal
        with norms sqrt(1 - sigma^2) (the CS decomposition; Paige-Wei, Linear
        Algebra Appl. 1994): T V, normalized and sorted descending, is the
        SVD of T with the same V, and only S takes an SVD.
        """
        if not self._trace_maps:
            U = self.hardy("DB")._range_coordinates
            rows = U.reshape(-1, 2, self.grid.system_size, U.shape[1])
            scalar = _FactoredMap.of(rows[:, 0].reshape(-1, U.shape[1]))
            TV = rows[:, 1].reshape(-1, U.shape[1]) @ scalar.Vh.conj().T
            norms = np.linalg.norm(TV, axis=0)
            order = np.argsort(-norms, kind="stable")
            s = norms[order]
            left = TV[:, order] / np.maximum(s, np.finfo(float).tiny)
            tangential = _FactoredMap(left, s, scalar.Vh[order])
            self._trace_maps.update(scalar=scalar, tangential=tangential)
        return self._trace_maps[slot]

    def adjoint(self) -> "FirstOrderSystem":
        """The system of the adjoint coefficients A^*, on the transform N B^* N.

        That multiplier (TransformedB.adjoint) takes its certificate,
        factorization and syntheses from B, never from a system, so a system
        is freed without the cyclic garbage collector.
        """
        if self._adjoint is None:
            adj = FirstOrderSystem.__new__(FirstOrderSystem)
            adj._build(self.A.adjoint(), self.B.adjoint())
            self._adjoint = adj
        return self._adjoint


def spectral_split(system: FirstOrderSystem, h: Field):
    """Split the range component of h into the two spectral pieces.

    The projection onto the closed range is applied first, so the sum of
    the returned pieces is exactly that projection of h.
    """
    Ph = p_operator(system.grid).apply(h)
    hp = fc.apply_calculus(fc.chi_plus(), system.db, Ph, path="eigen")
    hm = fc.apply_calculus(fc.chi_minus(), system.db, Ph, path="eigen")
    return hp, hm


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------


class _Potential(typing.NamedTuple):
    """(DB)^-1 h on the positive eigenvectors V+ = Q U+ R of DB, from one triangular solve.

    x = R^-1 c are the coordinates of h on V+, with c its Hardy
    coordinates, z = x / lam+, and image = R (lam+ z) the Hardy coordinates
    of h that the potential reproduces, c up to rounding.
    """

    x: np.ndarray
    z: np.ndarray
    image: np.ndarray


def _triangular_solve(R: np.ndarray, c: np.ndarray) -> np.ndarray:
    """R^-1 c for the upper triangular Hardy factor R, by one LAPACK ztrtrs call.

    The call takes R^T, lower triangular, transposed, a Fortran-ordered view
    of R, so that R is neither copied nor validated; c is finite, as a
    solve's datum passed check_finite and an explicit trace its Field.
    """
    x, info = ztrtrs(R.T, c, lower=1, trans=1)
    if info != 0:
        raise TraceMapError(f"Hardy factor R is not invertible (LAPACK trtrs info {info})")
    return x


class BVPSolution:
    """Problem statement and solution: kind, datum, boundary trace, evaluators.

    A solve keeps the coordinates c of its trace h in the positive Hardy
    basis Q U+ of DB, and h = Q (U+ c) is formed, as a physical Field, on
    its first read and kept; a solution made with an explicit h holds that
    h.  conormal_trace and scalar_trace read their slot from y = Q^* h,
    which is U+ c for a solve, so that they form no h.  evaluate(t)
    returns the interior conormal gradient; scalar_value(t) the mean-zero
    interior scalar potential.  diagnostics carries plain numbers.
    """

    def __init__(self, kind: str, system: FirstOrderSystem, h: Field | None,
                 diagnostics: dict, datum: np.ndarray | None = None):
        self.kind = kind
        self.system = system
        self.diagnostics = diagnostics
        self.datum = datum
        self._h = h
        self._coordinates = None
        self._potential = None

    @property
    def h(self) -> Field:
        """The boundary trace, synthesized from the Hardy coordinates on the first read."""
        if self._h is None:
            grid, (c, _) = self.system.grid, self._coordinates
            U = self.system.hardy("DB")._range_coordinates
            self._h = Field.from_flat(grid, _range_synthesis(grid, U @ c))
        return self._h

    def evaluate(self, t: float) -> Field:
        return fc.semigroup(self.system.db, t, self.h)

    def _hardy_coordinates(self) -> tuple:
        """The coordinates c of the fit of h in the positive Hardy basis of DB,
        and the squared flat norm of the rest of h.

        A solve stores the c of its h, which has no rest.  Otherwise both
        come from one analysis of h: with y = Q^* h and U the range
        coordinates of the basis, c = U^* y and the rest is ||y - U c||^2
        plus the part of h outside the range of D.
        """
        if self._coordinates is None:
            U = self.system.hardy("DB")._range_coordinates
            y, outside = _range_part(self.system.grid, self.h)
            c = U.conj().T @ y
            self._coordinates = c, np.linalg.norm(y - U @ c) ** 2 + outside
        return self._coordinates

    def _potential_coordinates(self) -> _Potential:
        """z = (R^-1 c) / lam+: (DB)^-1 h on the positive eigenvectors of DB.

        With U R = W+ the Hardy QR of DB, its positive eigenvectors are
        V+ = Q U R, with DB V+ = V+ diag(lam+), and h = V+ R^-1 c from the
        Hardy coordinates c of h.  The potential v = -B V+ z has D v = -h
        and lies in the positive subspace of BD = B (DB) B^-1.  The Hardy
        coordinates -R (lam+ z) of D v are formed explicitly, once, for
        potential_residual, to which the rest of h adds, and for the
        Dirichlet boundary value; R^-1 c is kept for the ladder diagnostic.
        """
        if self._potential is None:
            c, rest = self._hardy_coordinates()
            hardy = self.system.hardy("DB")
            lam = hardy._lam_plus
            x = _triangular_solve(hardy._R, c)
            z = x / lam
            self._potential = _Potential(x, z, hardy._R @ (lam * z))
            self.diagnostics["potential_residual"] = _relative_residual(
                c - self._potential.image, rest, np.vdot(c, c).real + rest)
        return self._potential

    def _potential_vector(self) -> Field:
        """v = -B (DB)^-1 h, with D v = -h in the positive subspace of the reversed
        composition: B times V+ z pointwise, V+ = Q U R = Q W+ the leading columns of V."""
        grid, z = self.system.grid, self._potential_coordinates().z
        V = eigen_data(self.system.db).V
        w = (V[:, : len(z)] @ z).reshape(grid.shape + (grid.channels,))
        return Field.physical(grid, -_pointwise_product(self.system.B.values, w))

    def scalar_value(self, t: float) -> np.ndarray:
        """Interior scalar potential: mean-zero scalar slot of the reversed flow."""
        v0 = self._potential_vector()
        vt = fc.semigroup(self.system.bd, t, v0)
        vt = p_operator(self.system.grid).apply(vt)
        return _squeeze_channels(vt.values[..., : self.system.grid.system_size].copy())

    def _slot_trace(self, slot: str) -> np.ndarray:
        """A boundary slot read from y = Q^* h, with one inverse transform.

        y is U c when h is the fit U c with no rest, as for a solve, so that
        no h is formed; otherwise it comes from one analysis of h.
        """
        grid, (c, rest) = self.system.grid, self._hardy_coordinates()
        y = (self.system.hardy("DB")._range_coordinates @ c if rest == 0.0
             else _range_part(grid, self.h)[0])
        nonzero, _ = _range_basis_coefficients(grid)
        hat = np.zeros((grid.points**grid.dim, grid.system_size), dtype=complex)
        hat[nonzero] = _slot_coefficients(grid, y, slot) * grid.points ** (-grid.dim / 2.0)
        return _squeeze_channels(ifft_values(hat.reshape(grid.shape + (-1,)), grid))

    def scalar_trace(self) -> np.ndarray:
        """Mean-zero boundary value of the scalar potential."""
        return self._slot_trace("value")

    def conormal_trace(self) -> np.ndarray:
        """Mean-zero scalar slot of the boundary conormal gradient."""
        return self._slot_trace("conormal")

    def equation_residual(self, ladder: TLadder) -> float:
        """First-order evolution residual from ladder-resolution differences.

        Five-point fourth-order differencing in log t against the applied
        composition, maximized over interior ladder scales.
        """
        db = self.system.db
        flows = fc.eigen_apply_scaled(db, fc.UNIT_SEMIGROUP, ladder.t, self.h)
        du = float(np.diff(np.log(ladder.t)).mean())
        d_u = (flows[:-4] - 8 * flows[1:-3] + 8 * flows[3:-1] - flows[4:]) / (12 * du)
        Tf = db.apply_array(flows[2:-2], PHYSICAL)
        target = ladder.t[2:-2].reshape((-1,) + (1,) * (Tf.ndim - 1)) * Tf
        rows = (len(Tf), db.grid.dof)
        num = np.linalg.norm((d_u + target).reshape(rows), axis=1)
        den = np.maximum(np.linalg.norm(target.reshape(rows), axis=1), 1e-300)
        return float(np.max(num / den, initial=0.0))


def _relative_residual(misfit: np.ndarray, outside: float, total: float) -> float:
    """sqrt(||misfit||^2 + outside) / sqrt(total), squared flat norms by Parseval."""
    return float(np.sqrt(np.vdot(misfit, misfit).real + outside) / max(np.sqrt(total), 1e-300))


def _solve_trace(system: FirstOrderSystem, datum: _Datum, slot: str, kind: str,
                 stored: np.ndarray) -> BVPSolution:
    """Least squares for h in the positive subspace with prescribed slot.

    The solution keeps the coordinates c of h in the positive Hardy basis,
    whose columns are orthonormal in the flat inner product, so the trace
    norm is sqrt(cell volume) ||c||; h itself is formed on its first read.
    """
    grid = system.grid
    tm = system.trace_map(slot)
    condition = tm.condition
    if condition > TRACE_CONDITION_LIMIT:
        how = " (solved as the regularity problem for its gradient)" if kind == "dirichlet" else ""
        raise TraceMapError(
            f"{kind} problem{how} numerically not solvable at exponent two: "
            f"trace-map condition number {condition:.3e}"
        )
    c, fitted = tm.solve(datum.rhs)
    total = datum.energy.sum()
    nonzero, _ = _range_basis_coefficients(grid)
    kn = _nonzero_frequency_norms(grid)
    diagnostics = {
        "trace_residual": _relative_residual(fitted - datum.rhs, datum.outside, total),
        "trace_condition": condition,
        "hardy_dim": len(c),
        "datum_l2": float(np.sqrt(grid.cell_volume * total)),
        "trace_l2": float(np.sqrt(grid.cell_volume) * np.linalg.norm(c)),
        "datum_sobolev_-1/2": float(np.sqrt(grid.cell_volume * (datum.energy[nonzero] / kn).sum())),
    }
    sol = BVPSolution(kind, system, None, diagnostics, stored)
    sol._coordinates = c, 0.0
    return sol


def _gradient_solution(system: FirstOrderSystem, f, kind: str, what: str | None = None):
    """The regularity problem for the tangential gradient of scalar data f.

    The gradient enters as its coordinates i|k| f-hat, from one forward
    transform of f, with nothing outside the trace's reach; f is stored as
    the datum.  With what given, a nonzero mean of f is refused
    (_datum_rows).  Returns the solution and the flat spectral rows of f
    with their squared norms.
    """
    grid = system.grid
    f = _as_scalar_data(grid, f)
    rows, power = _datum_rows(grid, f, what)
    sol = _solve_trace(system, _gradient_datum(grid, rows, power), "tangential", kind, f)
    return sol, rows, power


def solve_regularity(system: FirstOrderSystem, f) -> BVPSolution:
    """Prescribe the tangential gradient at the boundary.

    f must be finite, mean-zero and curl-free per system component; the
    solution trace h has tangential slot f and the interior conormal
    gradient is the decay semigroup applied to h.  One forward transform
    of f serves the mean and curl checks and the solve.
    """
    grid = system.grid
    f = _as_tangential_data(grid, f)
    datum = _tangential_datum(grid, *_datum_rows(grid, f, "regularity datum"))
    curl = datum.outside_share
    if curl > 1e-8:
        raise DatumError(
            f"regularity datum is not a discrete gradient (curl residual {curl:.2e})"
        )
    return _solve_trace(system, datum, "tangential", "regularity", f)


def solve_neumann(system: FirstOrderSystem, g) -> BVPSolution:
    """Prescribe the conormal derivative (scalar slot) at the boundary.

    g must be finite and mean-zero; one forward transform serves both
    checks and the solve.
    """
    grid = system.grid
    g = _as_scalar_data(grid, g)
    datum = _scalar_datum(grid, *_datum_rows(grid, g, "neumann datum"))
    return _solve_trace(system, datum, "scalar", "neumann", g)


def solve_dirichlet(system: FirstOrderSystem, f, ladder: TLadder | None = None) -> BVPSolution:
    """Prescribe the boundary value; solved as regularity for its gradient.

    f must be finite and mean-zero.  The interior scalar potential is
    recovered from the reversed-order flow, normalized mean-zero.  Its
    boundary value is the scalar slot of P v, for the potential v with D v
    = -Q U image in the notation of BVPSolution._potential_coordinates:
    the "value" slot of the range coordinates U image.  It is compared
    with f by Parseval, from the one transform of f that the solve reads.
    A square-function report of the scaled conormal gradient is attached
    when a ladder is supplied.
    """
    grid = system.grid
    sol, rows, power = _gradient_solution(system, f, "dirichlet", "dirichlet datum")
    hardy = system.hardy("DB")
    potential = sol._potential_coordinates()
    u0 = _slot_coefficients(grid, hardy._range_coordinates @ potential.image, "value")
    value = _scalar_datum(grid, rows, power)
    sol.diagnostics["boundary_value_error"] = _relative_residual(
        u0.reshape(-1) - value.rhs, value.outside, value.energy.sum())
    if ladder is not None:
        # the T^2 norm of t exp(-t|DB|) h, aperture one: the cone cross-section
        # times the ladder energy with weights w t^2 (tent.tent_norm at p = 2).
        # h = V+ R^-1 c, so its range coordinates are R^-1 c on the positive
        # eigenvectors, the leading half, zero elsewhere, and its null part is
        # zero: the energy reads the leading block of the form.
        scales = np.asarray(ladder.t, dtype=float)
        weights = np.asarray(ladder.weights, dtype=float) * scales**2
        form = eigen_data(system.db).ladder_form(fc.UNIT_SEMIGROUP, scales, weights)
        half, x = hardy.dim_plus, potential.x
        energy = grid.cell_volume * max(np.vdot(x, form.hermitian[:half, :half] @ x).real, 0.0)
        sol.diagnostics["tent_norm_t_grad"] = float(np.sqrt(unit_ball_volume(grid.dim) * energy))
    return sol


def dirichlet_to_neumann(system: FirstOrderSystem, f) -> np.ndarray:
    """Boundary map from the potential value to its conormal derivative.

    The regularity problem for the gradient of f, from one forward transform
    of f, which must be finite, and its conormal slot, by one inverse transform.
    """
    return _gradient_solution(system, f, "regularity")[0].conormal_trace()


def neumann_to_dirichlet(system: FirstOrderSystem, g) -> np.ndarray:
    """Boundary map from the conormal derivative back to the potential value.

    The Neumann problem for g and its value slot, by one inverse transform.
    """
    return solve_neumann(system, g).scalar_trace()


# ---------------------------------------------------------------------------
# boundary layer potentials
# ---------------------------------------------------------------------------


def _resolve_side(t: float, side) -> int:
    """The side of a layer: the sign of t, which a given side must name, or the side at t = 0."""
    named = +1 if side in (+1, "+", "plus") else -1 if side in (-1, "-", "minus") else None
    if t == 0 and named is None:
        raise DatumError("layer potentials at t = 0 need side='+' or side='-'")
    sgn = named if t == 0 else +1 if t > 0 else -1
    if side is not None and named != sgn:
        raise DatumError(f"side={side!r} contradicts the height t = {t:g}")
    return sgn


# The decaying extensions of the two sides: at the scale |t|, exp(-t z) on
# the positive spectral half for t > 0 and on the negative half for t < 0.
# One spec object each, so that repeated layers at a height find the scaled
# tables that the eigendecompositions keep per spec object.
_EXTENSION_PLUS = fc.custom(0.0, 0.0, lambda z: np.exp(-z) * (z.real > 0), name="exp(-z)chi+")
_EXTENSION_MINUS = fc.custom(0.0, 0.0, lambda z: np.exp(z) * (z.real < 0), name="exp(z)chi-")


def _layer_flow(T: LinearOperatorHandle, t: float, f, side, what: str) -> tuple:
    """The side of a layer at height t and the flow of its density f under T.

    f must be mean-zero scalar data; it flows embedded as [f; 0], by the
    extension of the side at the scale |t|, or at t = 0 by chi+ or chi-,
    the exact one-sided boundary limit.
    """
    sgn = _resolve_side(t, side)
    grid = T.grid
    f = _as_scalar_data(grid, f)
    _require_mean_zero(grid, f, what)
    if t == 0:
        spec, scale = (fc.chi_plus() if sgn > 0 else fc.chi_minus()), 1.0
    else:
        spec, scale = (_EXTENSION_PLUS if sgn > 0 else _EXTENSION_MINUS), abs(t)
    flow = fc.eigen_apply_scaled(T, spec, [scale], embed_scalar(grid, f))[0]
    return sgn, Field.physical(grid, flow)


def grad_single_layer(system: FirstOrderSystem, t: float, f, side=None) -> Field:
    """Conormal gradient of the single layer at height t.

    Positive heights use the decaying extension on the positive spectral
    half; negative heights the complementary half with a sign flip.  At
    t = 0 pass side='+' or '-' for the exact one-sided boundary limit.
    """
    sgn, out = _layer_flow(system.db, t, f, side, "single layer density")
    return out if sgn > 0 else -out


def single_layer(system: FirstOrderSystem, t: float, f, side=None) -> np.ndarray:
    """Single layer potential, mean-zero scalar data.

    Minus the scalar slot of D^+ applied to grad_single_layer: the symbol
    inverse on the range integrates the conormal gradient; the zero mode
    is excluded, realizing the potential modulo constants.
    """
    grid = system.grid
    lifted = inverse_d_operator(grid).apply(grad_single_layer(system, t, f, side=side))
    return -_squeeze_channels(lifted.values[..., : grid.system_size])


def double_layer(system: FirstOrderSystem, t: float, f, side=None) -> np.ndarray:
    """Double layer potential.

    Applies the reversed-order flow to the embedded datum, projects onto
    the closed range (which removes the zero mode) and reads the scalar
    slot; signs follow the jump convention.
    """
    grid = system.grid
    sgn, flow = _layer_flow(system.bd, t, f, side, "double layer density")
    projected = p_operator(grid).apply(flow)
    scalar = _squeeze_channels(projected.values[..., : grid.system_size])
    return -scalar if sgn > 0 else scalar.copy()


def conormal_single_layer(system: FirstOrderSystem, t: float, f, side=None) -> np.ndarray:
    """Scalar slot of the conormal gradient of the single layer."""
    grad = grad_single_layer(system, t, f, side=side).to_physical()
    return _squeeze_channels(grad.values[..., : system.grid.system_size].copy())


def _scalar_inner(grid: GridSpec, u, v) -> complex:
    """Sesquilinear boundary pairing, conjugate-linear in the first slot."""
    return complex(grid.cell_volume * np.vdot(u, v))


def layer_duality_check(system: FirstOrderSystem, t: float, f, g):
    """Residuals of the two adjoint identities between the layers.

    Pairs the single layer of the system at height t against the adjoint
    system at height -t, and the double layer against the conormal
    derivative of the adjoint single layer.  Both are identities of the
    calculus; only quadrature and eigensolver noise remain.
    """
    if t == 0:
        raise DatumError("duality check needs t != 0")
    adj = system.adjoint()
    grid = system.grid
    Sf = single_layer(system, t, f)
    Sg_adj = single_layer(adj, -t, g)
    lhs1 = _scalar_inner(grid, g, Sf)
    rhs1 = _scalar_inner(grid, Sg_adj, f)
    scale1 = max(abs(lhs1), abs(rhs1), 1e-300)
    res_single = abs(lhs1 - rhs1) / scale1

    Df = double_layer(system, t, f)
    conormal_adj = conormal_single_layer(adj, -t, g)
    lhs2 = _scalar_inner(grid, g, Df)
    rhs2 = _scalar_inner(grid, conormal_adj, f)
    scale2 = max(abs(lhs2), abs(rhs2), 1e-300)
    res_double = abs(lhs2 - rhs2) / scale2
    return res_single, res_double


def boundary_layer_representation_check(
    system: FirstOrderSystem, solution: BVPSolution, ladder: TLadder | None = None
) -> float:
    """Largest relative defect of the interior value against the two layers.

    The interior scalar potential should equal the single layer of its
    conormal trace minus the double layer of its boundary value, height
    by height.  The layers at t > 0 flow by exp(-z) chi+(z) at the scale
    t, so each of the three flows is one ladder call over all heights.
    The solution must be one of system; DatumError otherwise.
    """
    if solution.system is not system:
        raise DatumError("the solution belongs to another system")
    grid = system.grid
    if ladder is None:
        ladder = TLadder.logspaced(2.0**-6, 2.0**2, per_octave=1)
    conormal0, value0 = solution.conormal_trace(), solution.scalar_trace()
    interior = fc.eigen_apply_scaled(
        system.bd, fc.UNIT_SEMIGROUP, ladder.t, solution._potential_vector()
    )
    single = fc.eigen_apply_scaled(system.db, _EXTENSION_PLUS, ladder.t,
                                   embed_scalar(grid, conormal0))
    double = fc.eigen_apply_scaled(system.bd, _EXTENSION_PLUS, ladder.t,
                                   embed_scalar(grid, value0))
    P, m = p_operator(grid), grid.system_size
    u = P.apply_array(interior, PHYSICAL)[..., :m]
    # single minus double layer, with the signs of single_layer and double_layer
    rep = (P.apply_array(double, PHYSICAL)[..., :m]
           - inverse_d_operator(grid).apply_array(single, PHYSICAL)[..., :m])

    def l2(stack):
        rows = stack.reshape(len(ladder), -1)
        return np.sqrt(grid.cell_volume) * np.linalg.norm(rows, axis=1)

    scale = np.maximum(np.maximum(l2(u), l2(rep)), 1e-12 * _scalar_l2(grid, value0))
    return float(np.max(l2(u - rep) / np.maximum(scale, 1e-300)))

"""Boundary value problems at exponent two and boundary layer potentials.

The trace space of conormal gradients of decaying solutions is the
positive spectral subspace of the first-order composition.  Solvers
invert the scalar or tangential trace map on an explicit orthonormal
basis of that subspace by least squares, reporting the residual and the
condition number rather than assuming invertibility.

DB maps into the range of D, so its basis and the trace maps are held in
the coordinates of the orthonormal range basis Q of D, one scalar-slot
and one tangential vector along k/|k| per nonzero frequency and system
channel.  There the scalar and tangential trace maps are square, and a
boundary datum enters as its Fourier coefficients, from one forward
transform; its mean and its part transverse to k/|k|, which no trace
reaches, are added to the residual exactly, by Parseval.

The boundary layer comes from the one factorization of DB on the range
of D (calculus._RangeFactors) and one QR per Hardy basis.  The positive
basis of DB is Q U+ with U+ R = W+, its eigenvectors' range coordinates.
The scalar and tangential trace maps are the two square row blocks S and
T of the isometry U+, so S^* S + T^* T = I and one SVD of S gives both
(the CS decomposition).  D maps the positive basis of BD to Q U+ K, with
K upper triangular and r/2 x r/2 from the two R factors and the
eigenvalues, so the layer potentials fit Hardy coordinates through K.

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
import scipy.linalg

from . import calculus as fc
from .calculus import eigen_data
from .coefficients import (
    AccretivityReport,
    CoefficientMatrix,
    _range_basis_coefficients,
    _range_synthesis,
    accretivity_estimate,
    hat_transform,
)
from .grid import PHYSICAL, Field, GridSpec, TLadder, fft_values, ifft_values, l2_norm
from .operators import (
    LinearOperatorHandle,
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


def _require_mean_zero(grid: GridSpec, data: np.ndarray, what: str):
    mean = data.mean(axis=tuple(range(grid.dim)))
    if np.linalg.norm(mean) > 1e-10 * max(np.linalg.norm(data), 1e-300):
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


def _scalar_datum(grid: GridSpec, rows: np.ndarray) -> _Datum:
    """Scalar data: the coordinates are the coefficients at the nonzero frequencies."""
    nonzero, _ = _range_basis_coefficients(grid)
    energy = (rows * rows.conj()).real.sum(axis=1)
    return _Datum(rows[nonzero].reshape(-1), float(energy[0]), energy)


def _tangential_datum(grid: GridSpec, rows: np.ndarray) -> _Datum:
    """Tangential data: the coordinates are the k/|k| components per system channel."""
    nonzero, vectors = _range_basis_coefficients(grid)
    m = grid.system_size
    khat = vectors[:, m:, m:]  # the tangential range vectors on the tangential channels
    g = rows[nonzero]
    coords = (khat.conj() @ g[..., None])[..., 0]
    transverse = g - (coords[:, None, :] @ khat)[:, 0]
    energy = (rows * rows.conj()).real.sum(axis=1)
    outside = energy[0] + np.vdot(transverse, transverse).real
    return _Datum(coords.reshape(-1), float(outside), energy)


def _gradient_datum(grid: GridSpec, rows: np.ndarray) -> _Datum:
    """The tangential gradient of scalar data: coordinates i|k| f-hat, nothing outside."""
    nonzero, _ = _range_basis_coefficients(grid)
    kn = grid.frequency_norms().reshape(-1, 1)
    energy = (kn**2 * (rows * rows.conj()).real).sum(axis=1)
    return _Datum((1j * kn[nonzero] * rows[nonzero]).reshape(-1), 0.0, energy)


def _range_part(grid: GridSpec, h: Field):
    """Q^* h and the squared flat norm of h outside the range of D, from one transform."""
    m = grid.system_size
    rows = _flat_rows(grid, h.to_spectral().values)
    scalar, tangential = _scalar_datum(grid, rows[:, :m]), _tangential_datum(grid, rows[:, m:])
    y = np.stack([scalar.rhs.reshape(-1, m), tangential.rhs.reshape(-1, m)], axis=1)
    return y.reshape(-1), scalar.outside + tangential.outside


# ---------------------------------------------------------------------------
# system context: coefficients, certificate, cached operators and bases
# ---------------------------------------------------------------------------


class SpectralHardyBasis:
    """Orthonormal basis of the positive spectral subspace of one composition.

    The eigen data hold only the range part of the operator, so its
    eigenvalues split into the two spectral subspaces and the null space
    is the rest of the dof.  The dimensions of all three are recorded; the
    negative subspace needs no basis.

    With V+ the positive eigenvectors, plus R = V+ with R upper triangular.
    DB maps into the range of D, where its eigenvectors are V = Q W (Q the
    orthonormal range basis of coefficients._range_synthesis, W from the
    eigendecomposition's range factors), so for DB this is the QR
    factorization U R = W+, r x r/2, and plus = Q U: no transform of V and
    no QR with dof rows runs, and _range_coordinates holds U = Q^* plus.
    The range of BD is B times that of D, so BD takes the QR of V+ in the
    physical layout, and D maps its basis into the span of Q U
    (FirstOrderSystem.trace_map).
    """

    def __init__(self, T: LinearOperatorHandle):
        ed = eigen_data(T)
        grid = T.grid
        self._positive = plus = ed.lam.real > 0
        if T.tag == "DB":
            self._range_coordinates, self._R = np.linalg.qr(ed.factors.coordinates[:, plus])
            self.plus = _range_synthesis(grid, self._range_coordinates)
        else:
            self.plus, self._R = np.linalg.qr(ed.V[:, plus])
            self._range_coordinates = None
        self.dim_plus = int(plus.sum())
        self.dim_minus = int((ed.lam.real < 0).sum())
        self.dim_null = grid.dof - len(ed.lam)
        range_dim = 2 * grid.system_size * (grid.points**grid.dim - 1)
        if self.dim_plus + self.dim_minus != range_dim:
            raise TraceMapError(
                f"spectral subspaces span {self.dim_plus + self.dim_minus}, "
                f"expected range dimension {range_dim}"
            )


@dataclasses.dataclass(frozen=True)
class _FactoredMap:
    """A dense map from coordinates in `basis` to boundary data, kept as its thin SVD."""

    basis: np.ndarray
    U: np.ndarray
    s: np.ndarray
    Vh: np.ndarray

    @classmethod
    def of(cls, basis: np.ndarray, matrix: np.ndarray) -> "_FactoredMap":
        return cls(basis, *np.linalg.svd(matrix, full_matrices=False))

    @property
    def condition(self) -> float:
        return float(self.s[0] / self.s[-1]) if self.s[-1] > 0 else np.inf

    def solve(self, rhs: np.ndarray):
        """Minimum-norm least squares with numpy.linalg.lstsq's default cutoff.

        Returns the coordinates and the fitted data, the map applied to them.
        """
        cutoff = np.finfo(float).eps * max(self.U.shape[0], self.Vh.shape[1]) * self.s[0]
        keep = self.s > cutoff
        s_inv = np.zeros_like(self.s)
        s_inv[keep] = 1.0 / self.s[keep]
        coords = self.U.conj().T @ rhs
        return self.Vh.conj().T @ (s_inv * coords), self.U @ (keep * coords)


class FirstOrderSystem:
    """Coefficients, the transformed multiplier, its certificate and operators.

    Builds the accretivity certificate of B up front (it gates everything
    downstream), or stores a given report of the same coefficients on B.
    DB and BD = B (DB) B^-1 share one r x r eigendecomposition, that of D_r
    C, DB restricted to the range of D, cached on B; their null parts are
    exact.  The adjoint system shares the certificate and derives its DB
    from this BD and its BD from this DB, so neither runs another eig or
    certificate.  Hardy bases and the factorized trace maps are cached per
    system.
    """

    def __init__(self, A: CoefficientMatrix, report: AccretivityReport | None = None):
        self.A = A
        self.grid = A.grid
        self.B = hat_transform(A)
        self.B._report = report
        self.report = accretivity_estimate(self.B)
        self.db = db_operator(self.B)
        self.bd = bd_operator(self.B)
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
        SVD of T with the same V, and only S takes an SVD.  "potential" is D
        applied to the positive Hardy basis of BD, read in the Hardy
        coordinates of DB: the BD eigenvectors are B Q X / s_BD and those of
        DB Q X / s_DB, with DB Q X = Q X diag(lam) (calculus._RangeFactors),
        so D V_BD+ = Q U R_DB diag(lam+ s_DB / s_BD) and D plus_BD = Q U K,
        K = R_DB diag(lam+ s_DB / s_BD) R_BD^-1, upper triangular and r/2 x
        r/2.  Its SVD is that of the map, with left vectors U U_K.
        """
        if slot not in self._trace_maps:
            hardy = self.hardy("DB")
            if slot == "potential":
                hardy_bd = self.hardy("BD")
                ed_db, ed_bd = eigen_data(self.db), eigen_data(self.bd)
                scale = (ed_db.lam * ed_db.factors.s / ed_bd.factors.s)[hardy._positive]
                K = scipy.linalg.solve_triangular(hardy_bd._R, (hardy._R * scale).T,
                                                  trans="T").T
                self._trace_maps[slot] = _FactoredMap.of(hardy_bd.plus, K)
            else:
                U = hardy._range_coordinates
                rows = U.reshape(-1, 2, self.grid.system_size, U.shape[1])
                scalar = _FactoredMap.of(hardy.plus, rows[:, 0].reshape(-1, U.shape[1]))
                TV = rows[:, 1].reshape(-1, U.shape[1]) @ scalar.Vh.conj().T
                norms = np.linalg.norm(TV, axis=0)
                order = np.argsort(-norms, kind="stable")
                s = norms[order]
                left = TV[:, order] / np.maximum(s, np.finfo(float).tiny)
                tangential = _FactoredMap(hardy.plus, left, s, scalar.Vh[order])
                self._trace_maps.update(scalar=scalar, tangential=tangential)
        return self._trace_maps[slot]

    def adjoint(self) -> "FirstOrderSystem":
        """The system of the adjoint coefficients A^*.

        Its transform N B^* N has the same kappa and omega on the range of D
        as B, so this certificate is stored on the adjoint's B and none is
        computed there.  Its DB is -N (BD)^* N and its BD is -N (DB)^* N, so
        both eigendecompositions come from this system's.
        """
        if self._adjoint is None:
            adj = FirstOrderSystem(self.A.adjoint(), self.report)
            # the derivations refer to handles, never to a system, so a
            # system is freed without the cyclic garbage collector
            adj.db._eigen_source = functools.partial(fc.adjoint_eigen_data, self.bd)
            adj.bd._eigen_source = functools.partial(fc.adjoint_eigen_data, self.db)
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


@dataclasses.dataclass
class BVPSolution:
    """Problem statement and solution: kind, datum, boundary trace, evaluators.

    The trace h lies in the span of the positive spectral basis.
    evaluate(t) returns the interior conormal gradient; scalar_value(t)
    the mean-zero interior scalar potential.  diagnostics carries the
    trace residual, the trace-map condition number and norm reports, all
    plain numbers; the potential vector behind scalar_value is cached on
    the solution itself.
    """

    kind: str
    system: FirstOrderSystem
    h: Field
    diagnostics: dict
    datum: np.ndarray | None = None
    _coordinates: tuple | None = dataclasses.field(default=None, init=False, repr=False,
                                                   compare=False)
    _potential: tuple | None = dataclasses.field(default=None, init=False, repr=False,
                                                 compare=False)

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

    def _potential_coordinates(self) -> tuple:
        """(a, K a): the coordinates in the positive Hardy basis of BD of the v
        with D v = -h, and those of D v in the Hardy basis of DB.

        a = -K^+ c by the potential map K, from the Hardy coordinates c of
        h; the rest of h adds to potential_residual.
        """
        if self._potential is None:
            c, rest = self._hardy_coordinates()
            self._potential = self.system.trace_map("potential").solve(-c)
            self.diagnostics["potential_residual"] = _relative_residual(
                self._potential[1] + c, rest, np.linalg.norm(c) ** 2 + rest)
        return self._potential

    def _potential_vector(self) -> Field:
        """v with D v = -h in the positive subspace of the reversed composition."""
        basis = self.system.trace_map("potential").basis
        return Field.from_flat(self.system.grid, basis @ self._potential_coordinates()[0])

    def scalar_value(self, t: float) -> np.ndarray:
        """Interior scalar potential: mean-zero scalar slot of the reversed flow."""
        v0 = self._potential_vector()
        vt = fc.semigroup(self.system.bd, t, v0)
        vt = p_operator(self.system.grid).apply(vt)
        return _squeeze_channels(vt.values[..., : self.system.grid.system_size].copy())

    def scalar_trace(self) -> np.ndarray:
        """Mean-zero boundary value of the scalar potential."""
        grid = self.system.grid
        m = grid.system_size
        return scalar_potential(grid, self.h.to_physical().values[..., m:])

    def conormal_trace(self) -> np.ndarray:
        """Scalar slot of the boundary conormal gradient."""
        m = self.system.grid.system_size
        return _squeeze_channels(self.h.to_physical().values[..., :m].copy())

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
    return float(np.sqrt(np.linalg.norm(misfit) ** 2 + outside) / max(np.sqrt(total), 1e-300))


def _solve_trace(system: FirstOrderSystem, datum: _Datum, slot: str, kind: str,
                 stored: np.ndarray) -> BVPSolution:
    """Least squares for h in the positive subspace with prescribed slot.

    The solution keeps the coordinates of h in the positive Hardy basis.
    """
    grid = system.grid
    tm = system.trace_map(slot)
    condition = tm.condition
    if condition > TRACE_CONDITION_LIMIT:
        problem = "regularity" if slot == "tangential" else "neumann"
        raise TraceMapError(
            f"{problem} problem numerically not solvable at exponent two: "
            f"trace-map condition number {condition:.3e}"
        )
    c, fitted = tm.solve(datum.rhs)
    h = Field.from_flat(grid, tm.basis @ c)
    total = datum.energy.sum()
    nonzero, _ = _range_basis_coefficients(grid)
    kn = grid.frequency_norms().reshape(-1)[nonzero]
    diagnostics = {
        "trace_residual": _relative_residual(fitted - datum.rhs, datum.outside, total),
        "trace_condition": condition,
        "hardy_dim": tm.basis.shape[1],
        "datum_l2": float(np.sqrt(grid.cell_volume * total)),
        "trace_l2": l2_norm(h),
        "datum_sobolev_-1/2": float(np.sqrt(grid.cell_volume * (datum.energy[nonzero] / kn).sum())),
    }
    sol = BVPSolution(kind=kind, system=system, h=h, diagnostics=diagnostics, datum=stored)
    sol._coordinates = c, 0.0
    return sol


def _gradient_solution(system: FirstOrderSystem, f, kind: str):
    """The regularity problem for the tangential gradient of scalar data f.

    The gradient enters as its coordinates i|k| f-hat, from one forward
    transform of f, with nothing outside the trace's reach; f is stored as
    the datum.  Returns the solution and the flat spectral rows of f.
    """
    grid = system.grid
    f = _as_scalar_data(grid, f)
    rows = _flat_rows(grid, fft_values(f, grid))
    return _solve_trace(system, _gradient_datum(grid, rows), "tangential", kind, f), rows


def solve_regularity(system: FirstOrderSystem, f) -> BVPSolution:
    """Prescribe the tangential gradient at the boundary.

    f must be mean-zero and curl-free per system component; the solution
    trace h has tangential slot f and the interior conormal gradient is
    the decay semigroup applied to h.  One forward transform of f serves
    the curl check and the solve.
    """
    grid = system.grid
    f = _as_tangential_data(grid, f)
    _require_mean_zero(grid, f, "regularity datum")
    datum = _tangential_datum(grid, _flat_rows(grid, fft_values(f, grid)))
    curl = datum.outside_share
    if curl > 1e-8:
        raise DatumError(
            f"regularity datum is not a discrete gradient (curl residual {curl:.2e})"
        )
    return _solve_trace(system, datum, "tangential", "regularity", f)


def solve_neumann(system: FirstOrderSystem, g) -> BVPSolution:
    """Prescribe the conormal derivative (scalar slot) at the boundary."""
    grid = system.grid
    g = _as_scalar_data(grid, g)
    _require_mean_zero(grid, g, "neumann datum")
    datum = _scalar_datum(grid, _flat_rows(grid, fft_values(g, grid)))
    return _solve_trace(system, datum, "scalar", "neumann", g)


def solve_dirichlet(system: FirstOrderSystem, f, ladder: TLadder | None = None) -> BVPSolution:
    """Prescribe the boundary value; solved as regularity for its gradient.

    The interior scalar potential is recovered from the reversed-order
    flow, normalized mean-zero.  Its boundary value is the scalar slot of
    P v, for the potential v with D v = Q U K a: Q^* P v = D_r^-1 U K a,
    whose scalar rows are the tangential rows of U K a over i|k|.  It is
    compared with f by Parseval.  A square-function report of the scaled
    conormal gradient is attached when a ladder is supplied.
    """
    grid = system.grid
    f = _as_scalar_data(grid, f)
    _require_mean_zero(grid, f, "dirichlet datum")
    sol, rows = _gradient_solution(system, f, "dirichlet")
    hardy = system.hardy("DB")
    U, m = hardy._range_coordinates, grid.system_size
    tangential = U.reshape(-1, 2, m, U.shape[1])[:, 1] @ sol._potential_coordinates()[1]
    nonzero, _ = _range_basis_coefficients(grid)
    u0 = 1j * tangential / grid.frequency_norms().reshape(-1, 1)[nonzero]
    value = _scalar_datum(grid, rows)
    sol.diagnostics["boundary_value_error"] = _relative_residual(
        u0.reshape(-1) - value.rhs, value.outside, value.energy.sum())
    if ladder is not None:
        # the T^2 norm of t exp(-t|DB|) h, aperture one: the cone cross-section
        # times the ladder energy with weights w t^2 (tent.tent_norm at p = 2).
        # h = V+ R^-1 c, so its range coordinates are R^-1 c on the positive
        # eigenvectors, zero elsewhere, and its null part is zero.
        scales = np.asarray(ladder.t, dtype=float)
        weights = np.asarray(ladder.weights, dtype=float) * scales**2
        form = eigen_data(system.db).ladder_form(fc.UNIT_SEMIGROUP, scales, weights)
        x = scipy.linalg.solve_triangular(hardy._R, sol._coordinates[0])
        block = form.hermitian[np.ix_(hardy._positive, hardy._positive)]
        energy = grid.cell_volume * max(((block @ x) @ x.conj()).real, 0.0)
        sol.diagnostics["tent_norm_t_grad"] = float(np.sqrt(unit_ball_volume(grid.dim) * energy))
    return sol


def dirichlet_to_neumann(system: FirstOrderSystem, f) -> np.ndarray:
    """Boundary map from the potential value to its conormal derivative.

    The regularity problem for the gradient of f, from one forward transform.
    """
    return _gradient_solution(system, f, "regularity")[0].conormal_trace()


def neumann_to_dirichlet(system: FirstOrderSystem, g) -> np.ndarray:
    """Boundary map from the conormal derivative back to the potential value."""
    sol = solve_neumann(system, g)
    return sol.scalar_trace()


# ---------------------------------------------------------------------------
# boundary layer potentials
# ---------------------------------------------------------------------------


def _resolve_side(t: float, side) -> int:
    if t != 0:
        return +1 if t > 0 else -1
    if side in (+1, "+", "plus"):
        return +1
    if side in (-1, "-", "minus"):
        return -1
    raise DatumError("layer potentials at t = 0 need side='+' or side='-'")


@functools.lru_cache
def _decaying_extension_spec(t: float, sgn: int) -> fc.HolomorphicFunctionSpec:
    """exp(-t z) on the spectral half selected by sgn.

    For t of the matching sign this decays into the corresponding
    half-space; at t = 0 it is the one-sided boundary limit.  One spec
    object per (t, sgn), so that repeated layer potentials find the scaled
    tables that the eigendecompositions keep per spec object.
    """
    if sgn > 0:
        return fc.custom(
            0.0,
            0.0,
            lambda z, _t=t: np.exp(-_t * z) * (z.real > 0),
            0.0,
            name=f"exp(-{t:g}z)chi+",
        )
    return fc.custom(
        0.0,
        0.0,
        lambda z, _t=t: np.exp(-_t * z) * (z.real < 0),
        0.0,
        name=f"exp(-{t:g}z)chi-",
    )


def grad_single_layer(system: FirstOrderSystem, t: float, f, side=None) -> Field:
    """Conormal gradient of the single layer at height t.

    Positive heights use the decaying extension on the positive spectral
    half; negative heights the complementary half with a sign flip.  At
    t = 0 pass side='+' or '-' for the exact one-sided boundary limit.
    """
    sgn = _resolve_side(t, side)
    grid = system.grid
    f = _as_scalar_data(grid, f)
    _require_mean_zero(grid, f, "single layer density")
    w = embed_scalar(grid, f)
    out = fc.apply_calculus(_decaying_extension_spec(t, sgn), system.db, w, path="eigen")
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
    sgn = _resolve_side(t, side)
    grid = system.grid
    f = _as_scalar_data(grid, f)
    _require_mean_zero(grid, f, "double layer density")
    w = embed_scalar(grid, f)
    flow = fc.apply_calculus(_decaying_extension_spec(t, sgn), system.bd, w, path="eigen")
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
    f = _as_scalar_data(grid, f)
    g = _as_scalar_data(grid, g)
    _require_mean_zero(grid, f, "density")
    _require_mean_zero(grid, g, "density")

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
    by height.  As exp(-t z) chi+(z) is the t = 1 extension at t z for
    t > 0, each of the three flows is one ladder call over all heights.
    """
    grid = system.grid
    if ladder is None:
        ladder = TLadder.logspaced(2.0**-6, 2.0**2, per_octave=1)
    conormal0 = _as_scalar_data(grid, solution.conormal_trace())
    value0 = _as_scalar_data(grid, solution.scalar_trace())
    _require_mean_zero(grid, conormal0, "single layer density")
    _require_mean_zero(grid, value0, "double layer density")
    extension = _decaying_extension_spec(1.0, +1)
    interior = fc.eigen_apply_scaled(
        system.bd, fc.UNIT_SEMIGROUP, ladder.t, solution._potential_vector()
    )
    single = fc.eigen_apply_scaled(system.db, extension, ladder.t, embed_scalar(grid, conormal0))
    double = fc.eigen_apply_scaled(system.bd, extension, ladder.t, embed_scalar(grid, value0))
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

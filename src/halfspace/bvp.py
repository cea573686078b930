"""Boundary value problems at exponent two and boundary layer potentials.

The trace space of conormal gradients of decaying solutions is the
positive spectral subspace of the first-order composition.  Solvers
invert the scalar or tangential trace map on an explicit orthonormal
basis of that subspace by least squares, reporting the residual and the
condition number rather than assuming invertibility.

Scalar boundary data are arrays of shape grid_shape + (m,); the scalar
slot of every returned interior quantity is the mean-zero
representative, which is the torus realization of the solution being
determined modulo constants.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from . import calculus as fc
from .calculus import eigen_data
from .coefficients import (
    AccretivityReport,
    CoefficientMatrix,
    accretivity_estimate,
    hat_transform,
)
from .grid import (
    PHYSICAL, Field, GridSpec, TLadder, fft_values, ifft_values, l2_norm, sobolev_norm,
)
from .operators import (
    LinearOperatorHandle,
    bd_operator,
    d_operator,
    db_operator,
    inverse_d_operator,
    p_operator,
)
from .tent import TentField, tent_norm

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


def curl_free_residual(grid: GridSpec, g) -> float:
    """Relative distance of tangential data to the gradients, per frequency."""
    g = _as_tangential_data(grid, g)
    grad = _as_tangential_data(grid, tangential_gradient(grid, scalar_potential(grid, g)))
    num = np.linalg.norm(grad - g)
    den = max(np.linalg.norm(g), 1e-300)
    return float(num / den)


def _scalar_l2(grid: GridSpec, f) -> float:
    return float(np.sqrt(grid.cell_volume) * np.linalg.norm(f))


# ---------------------------------------------------------------------------
# system context: coefficients, certificate, cached operators and bases
# ---------------------------------------------------------------------------


class SpectralHardyBasis:
    """Orthonormal basis of the positive spectral subspace of one composition.

    The eigen data hold only the range part of the operator, so its
    eigenvalues split into the two spectral subspaces and the null space
    is the rest of the dof.  The dimensions of all three are recorded; the
    negative subspace needs no basis.
    """

    def __init__(self, T: LinearOperatorHandle):
        ed = eigen_data(T)
        plus = ed.lam.real > 0
        self.plus, _ = np.linalg.qr(ed.V[:, plus])
        self.dim_plus = int(plus.sum())
        self.dim_minus = int((ed.lam.real < 0).sum())
        self.dim_null = T.grid.dof - len(ed.lam)
        grid = T.grid
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

    Builds the accretivity certificate up front (it gates everything
    downstream).  DB and BD = B (DB) B^-1 share one r x r eigendecomposition,
    that of D_r C, DB restricted to the range of D, cached on B; their null
    parts are exact.  The adjoint system shares the certificate and derives
    its DB from this BD and its BD from this DB, so neither runs another eig
    or certificate.  Hardy bases and the factorized trace maps are cached
    per system.
    """

    def __init__(self, A: CoefficientMatrix, report: AccretivityReport | None = None):
        self.A = A
        self.grid = A.grid
        self.B = hat_transform(A)
        self.report = report if report is not None else accretivity_estimate(self.B)
        self.db = db_operator(self.B)
        self.bd = bd_operator(self.B)
        self.db.accretivity_angle = self.report.omega
        self.bd.accretivity_angle = self.report.omega
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

        "scalar" and "tangential" read that slot of the positive Hardy basis
        of DB; "potential" applies D to the positive Hardy basis of BD.
        """
        if slot not in self._trace_maps:
            grid = self.grid
            if slot == "potential":
                Q = self.hardy("BD").plus
                cols = Q.T.reshape((-1,) + grid.shape + (grid.channels,))
                DQ, _ = d_operator(grid).apply_array(cols, PHYSICAL)
                rows = ifft_values(DQ, grid).reshape(Q.shape[1], -1).T
            else:
                Q = self.hardy("DB").plus
                m = grid.system_size
                channels = slice(None, m) if slot == "scalar" else slice(m, None)
                rows = Q.reshape(grid.shape + (grid.channels, -1))[..., channels, :]
                rows = rows.reshape(-1, Q.shape[1])
            self._trace_maps[slot] = _FactoredMap.of(Q, rows)
        return self._trace_maps[slot]

    def adjoint(self) -> "FirstOrderSystem":
        """The system of the adjoint coefficients A^*.

        Its transform N B^* N has the same kappa and omega on the range of D
        as B, so the certificate is shared.  Its DB is -N (BD)^* N and its BD
        is -N (DB)^* N, so both eigendecompositions come from this system's.
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
    trace residual, the trace-map condition number and norm reports.
    """

    kind: str
    system: FirstOrderSystem
    h: Field
    diagnostics: dict
    datum: np.ndarray | None = None

    def evaluate(self, t: float) -> Field:
        return fc.semigroup(self.system.db, t, self.h)

    def _potential_vector(self) -> Field:
        """v with D v = -h in the positive subspace of the reversed composition."""
        if "_v0" not in self.diagnostics:
            tm = self.system.trace_map("potential")
            c, fitted = tm.solve(-self.h.flat())
            v0 = Field.from_flat(self.system.grid, tm.basis @ c)
            resid = np.linalg.norm(fitted + self.h.flat()) / max(
                np.linalg.norm(self.h.flat()), 1e-300
            )
            self.diagnostics["_v0"] = v0
            self.diagnostics["potential_residual"] = float(resid)
        return self.diagnostics["_v0"]

    def scalar_value(self, t: float) -> np.ndarray:
        """Interior scalar potential: mean-zero scalar slot of the reversed flow."""
        v0 = self._potential_vector()
        vt = fc.semigroup(self.system.bd, t, v0)
        vt = p_operator(self.system.grid).apply(vt).to_physical()
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
        Tf, rep = db.apply_array(flows[2:-2], PHYSICAL)
        if rep != PHYSICAL:
            Tf = ifft_values(Tf, db.grid)
        target = ladder.t[2:-2].reshape((-1,) + (1,) * (Tf.ndim - 1)) * Tf
        rows = (len(Tf), db.grid.dof)
        num = np.linalg.norm((d_u + target).reshape(rows), axis=1)
        den = np.maximum(np.linalg.norm(target.reshape(rows), axis=1), 1e-300)
        return float(np.max(num / den, initial=0.0))

    def equation_residual_at(self, t: float, rel_delta: float = 1e-4) -> float:
        """Pointwise evolution residual with a tight centered difference."""
        dt = rel_delta * t
        fp = self.evaluate(t + dt).to_physical().values
        fm = self.evaluate(t - dt).to_physical().values
        ddt = (fp - fm) / (2 * dt)
        Tf = self.system.db.apply(self.evaluate(t)).to_physical().values
        return float(np.linalg.norm(ddt + Tf) / max(np.linalg.norm(Tf), 1e-300))


def _solve_trace(system: FirstOrderSystem, datum_field: np.ndarray, slot: str, kind: str):
    """Least squares for h in the positive subspace with prescribed slot."""
    grid = system.grid
    tm = system.trace_map(slot)
    rhs = datum_field.reshape(-1)
    condition = tm.condition
    if condition > TRACE_CONDITION_LIMIT:
        problem = "regularity" if slot == "tangential" else "neumann"
        raise TraceMapError(
            f"{problem} problem numerically not solvable at exponent two: "
            f"trace-map condition number {condition:.3e}"
        )
    c, fitted = tm.solve(rhs)
    h = Field.from_flat(grid, tm.basis @ c)
    residual = float(
        np.linalg.norm(fitted - rhs) / max(np.linalg.norm(rhs), 1e-300)
    )
    diagnostics = {
        "trace_residual": residual,
        "trace_condition": condition,
        "hardy_dim": tm.basis.shape[1],
        "datum_l2": _scalar_l2(grid, datum_field),
        "trace_l2": l2_norm(h),
    }
    try:
        diagnostics["datum_sobolev_-1/2"] = sobolev_norm(
            _embed_datum(grid, datum_field, slot), -0.5
        )
    except ValueError:
        pass
    return BVPSolution(
        kind=kind, system=system, h=h, diagnostics=diagnostics, datum=datum_field
    )


def _embed_datum(grid: GridSpec, datum: np.ndarray, slot: str) -> Field:
    vals = np.zeros(grid.shape + (grid.channels,), dtype=complex)
    m = grid.system_size
    if slot == "scalar":
        vals[..., :m] = datum
    else:
        vals[..., m:] = datum
    return Field.physical(grid, vals)


def solve_regularity(system: FirstOrderSystem, f) -> BVPSolution:
    """Prescribe the tangential gradient at the boundary.

    f must be mean-zero and curl-free per system component; the solution
    trace h has tangential slot f and the interior conormal gradient is
    the decay semigroup applied to h.
    """
    grid = system.grid
    f = _as_tangential_data(grid, f)
    _require_mean_zero(grid, f, "regularity datum")
    curl = curl_free_residual(grid, f)
    if curl > 1e-8:
        raise DatumError(
            f"regularity datum is not a discrete gradient (curl residual {curl:.2e})"
        )
    return _solve_trace(system, f, "tangential", "regularity")


def solve_neumann(system: FirstOrderSystem, g) -> BVPSolution:
    """Prescribe the conormal derivative (scalar slot) at the boundary."""
    grid = system.grid
    g = _as_scalar_data(grid, g)
    _require_mean_zero(grid, g, "neumann datum")
    return _solve_trace(system, g, "scalar", "neumann")


def solve_dirichlet(system: FirstOrderSystem, f, ladder: TLadder | None = None) -> BVPSolution:
    """Prescribe the boundary value; solved as regularity for its gradient.

    The interior scalar potential is recovered from the reversed-order
    flow, normalized mean-zero.  A square-function report of the scaled
    conormal gradient is attached when a ladder is supplied.
    """
    grid = system.grid
    f = _as_scalar_data(grid, f)
    _require_mean_zero(grid, f, "dirichlet datum")
    grad = tangential_gradient(grid, f)
    sol = _solve_trace(system, grad, "tangential", "dirichlet")
    u0 = sol.scalar_value(0.0)
    sol.diagnostics["boundary_value_error"] = _scalar_l2(
        grid, u0 - _squeeze_channels(f)
    ) / max(_scalar_l2(grid, f), 1e-300)
    if ladder is not None:
        flows = fc.eigen_apply_scaled(system.db, fc.UNIT_SEMIGROUP, ladder.t, sol.h)
        t = ladder.t.reshape((-1,) + (1,) * (flows.ndim - 1))
        sol.diagnostics["tent_norm_t_grad"] = tent_norm(
            TentField(grid, ladder, flows * t), 2.0
        )
    return sol


def dirichlet_to_neumann(system: FirstOrderSystem, f) -> np.ndarray:
    """Boundary map from the potential value to its conormal derivative."""
    grad = tangential_gradient(system.grid, _as_scalar_data(system.grid, f))
    sol = solve_regularity(system, grad)
    return sol.conormal_trace()


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


def _decaying_extension_spec(t: float, sgn: int) -> fc.HolomorphicFunctionSpec:
    """exp(-t z) on the spectral half selected by sgn.

    For t of the matching sign this decays into the corresponding
    half-space; at t = 0 it is the one-sided boundary limit.
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

    The symbol inverse on the range integrates the conormal gradient;
    the zero mode is excluded, realizing the potential modulo constants.
    """
    sgn = _resolve_side(t, side)
    grid = system.grid
    f = _as_scalar_data(grid, f)
    _require_mean_zero(grid, f, "single layer density")
    w = embed_scalar(grid, f)
    flow = fc.apply_calculus(_decaying_extension_spec(t, sgn), system.db, w, path="eigen")
    lifted = inverse_d_operator(grid).apply(flow).to_physical()
    scalar = _squeeze_channels(lifted.values[..., : grid.system_size])
    return -scalar if sgn > 0 else scalar.copy()


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
    projected = p_operator(grid).apply(flow).to_physical()
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


def _scalar_slot_stack(op: LinearOperatorHandle, stack: np.ndarray) -> np.ndarray:
    """Scalar slot of a multiplier applied to every layer of a stack of fields."""
    out, _ = op.apply_array(stack, PHYSICAL)
    return ifft_values(out, op.grid)[..., : op.grid.system_size]


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
    P = p_operator(grid)
    u = _scalar_slot_stack(P, interior)
    # single minus double layer, with the signs of single_layer and double_layer
    rep = _scalar_slot_stack(P, double) - _scalar_slot_stack(inverse_d_operator(grid), single)

    def l2(stack):
        rows = stack.reshape(len(ladder), -1)
        return np.sqrt(grid.cell_volume) * np.linalg.norm(rows, axis=1)

    scale = np.maximum(np.maximum(l2(u), l2(rep)), 1e-12 * _scalar_l2(grid, value0))
    return float(np.max(l2(u - rep) / np.maximum(scale, 1e-300)))

"""Holomorphic functional calculus on double sectors.

Bounded holomorphic functions of the first-order compositions are
computed two independent ways: an eigendecomposition (the reference at
desk scale) and a quadrature of the resolvent over two closed curves,
one around each half of the range spectrum.  Accretivity of B on the
range of D with bound kappa and angle omega puts that spectrum in the
annulus kappa k_min <= |lambda| <= sup|B| k_max with |arg(+-lambda)| <=
omega; each curve is an ellipse in log(lambda) around its half, or the
mirror image of one, and the trapezoid rule on it converges
geometrically (Trefethen-Weideman, SIAM Rev. 2014).  The curves avoid 0
and infinity, so no decay of the function is needed.  The contour path
factorizes the dense operator once into a complex Schur form M = Z R Z^*
with Z unitary and R upper triangular, cached on the handle, and solves
every shifted resolvent at the nodes by triangular back substitution;
it never sees eigenvectors and splits no field: it sums b - b(0) and
adds b(0) h.  The two paths are kept separate so that each can check
the other.

The eigen path keeps only the range part of an operator, T = V diag(lam)
Vinv on its range, so b(T) h = b(0) h + V (b(lam) - b(0)) Vinv h.  DB
maps the closed range of D into itself, and L^2 = N(DB) + R(D) with
N(DB) = B^-1 N(D) once B is accretive there.  In the orthonormal range
basis Q, DB acts as the r x r matrix D_r C, where D_r = Q^* D Q is known
in closed form and C = Q^* B Q is the compression that B owns
(TransformedB.compression).  Q is kept per frequency, 2m channel vectors
at each nonzero k, and never as a dof x r matrix: C is gathered from the
FFT of B, and Q W and Q M^*, with M = W^-1 C^-1, are each one synthesis
of r columns, one inverse FFT, made once per B and shared by DB and BD.
One eig of D_r C (TransformedB.range_eigen), of size r = 2m(G^n - 1),
therefore serves DB, BD = B (DB) B^-1 and, by duality, the adjoint
system, with an exact null part; each keeps its eigenvectors also in the
range coordinates of D (_RangeFactors), which the boundary layer reads.
The multipliers D, P and D^+ take b in closed form per frequency, since
S(k)^2 = sigma(k)^2 P(k).  A ladder of scales is one kernel call: b(s T)
h for every scale s comes from one evaluation of b and one eigenvector
or symbol product, as one array.  A ladder energy sum_s w_s ||b(s T)
h||^2 needs no such array: it is a Hermitian form in the range
coordinates Vinv h, cached per eigendecomposition.

Functions are described by a small spec carrying an evaluator, the value
at the origin used on the null space, and the decay class on the sector,
written as a pair (sigma, tau) bounding |psi(z)| <= C min(|z|^sigma,
|z|^-tau) along the rays; the square functions read it, the calculus
does not.
"""

from __future__ import annotations

import dataclasses
import functools
import typing

import numpy as np
import scipy.linalg

from .coefficients import accretivity_estimate
from .grid import (
    Field, GridError, OperatorError, check_dense_size, check_finite, ifft_values,
)
from .operators import LinearOperatorHandle

__all__ = [
    "HolomorphicFunctionSpec",
    "ContourSpec",
    "apply_calculus",
    "eigen_apply_scaled",
    "eigen_ladder_energy",
    "semigroup",
    "calderon_pair",
    "bracket",
    "chi_plus",
    "chi_minus",
    "sgn",
    "exp_abs",
    "UNIT_SEMIGROUP",
    "z_exp_abs",
    "bracket_exp_abs",
    "resolvent_power",
    "theta",
    "rational",
    "custom",
]


def bracket(z):
    """Branch of the modulus on the double sector: z on the right, -z on the left."""
    z = np.asarray(z, dtype=complex)
    return np.where(z.real >= 0, z, -z)


@dataclasses.dataclass(frozen=True)
class HolomorphicFunctionSpec:
    """A bounded holomorphic function on a double sector.

    decay = (sigma, tau) with |evaluate(z)| <= min(C0 |z|^sigma,
    C |z|^-tau) along the sector rays, where C is `bound` and C0 is
    `bound_origin` (defaulting to `bound`); sigma = tau = 0 states
    boundedness only.  value_at_zero extends the calculus over the null
    space.
    """

    name: str
    evaluate: typing.Callable[[np.ndarray], np.ndarray]
    value_at_zero: complex
    decay: tuple
    bound: float = 1.0
    bound_origin: float | None = None

    def __call__(self, z):
        return self.evaluate(np.asarray(z, dtype=complex))

    @property
    def origin_bound(self) -> float:
        return self.bound if self.bound_origin is None else self.bound_origin

    @property
    def is_psi_class(self) -> bool:
        return self.decay[0] > 0 and self.decay[1] > 0

    def scaled(self, t: float) -> "HolomorphicFunctionSpec":
        """The function z -> evaluate(t z), same decay class, rescaled constants."""
        if t <= 0:
            raise ValueError("scale must be positive")
        return HolomorphicFunctionSpec(
            name=f"{self.name}@scale{t:g}",
            evaluate=lambda z, _t=t: self.evaluate(_t * np.asarray(z, dtype=complex)),
            value_at_zero=self.value_at_zero,
            decay=self.decay,
            bound=self.bound * t ** -self.decay[1],
            bound_origin=self.origin_bound * t ** self.decay[0],
        )

    def product(self, other: "HolomorphicFunctionSpec") -> "HolomorphicFunctionSpec":
        return HolomorphicFunctionSpec(
            name=f"{self.name}*{other.name}",
            evaluate=lambda z: self.evaluate(z) * other.evaluate(z),
            value_at_zero=self.value_at_zero * other.value_at_zero,
            decay=(self.decay[0] + other.decay[0], self.decay[1] + other.decay[1]),
            bound=self.bound * other.bound,
            bound_origin=self.origin_bound * other.origin_bound,
        )


# The constructors without arguments return one spec object each, so the
# tables and ladder forms cached per spec object serve every caller.
@functools.cache
def chi_plus() -> HolomorphicFunctionSpec:
    """Indicator of the right half-sector."""
    return HolomorphicFunctionSpec(
        "chi+", lambda z: (z.real > 0).astype(complex), 0.0, (0.0, 0.0)
    )


@functools.cache
def chi_minus() -> HolomorphicFunctionSpec:
    return HolomorphicFunctionSpec(
        "chi-", lambda z: (z.real < 0).astype(complex), 0.0, (0.0, 0.0)
    )


@functools.cache
def sgn() -> HolomorphicFunctionSpec:
    """chi+ minus chi-, a bounded involution on the range."""
    return HolomorphicFunctionSpec(
        "sgn", lambda z: np.sign(z.real).astype(complex), 0.0, (0.0, 0.0)
    )


@functools.cache
def one() -> HolomorphicFunctionSpec:
    return HolomorphicFunctionSpec("one", lambda z: np.ones_like(z), 1.0, (0.0, 0.0))


def exp_abs(t: float) -> HolomorphicFunctionSpec:
    """exp(-t [z]): the analytic semigroup at time t >= 0 in the calculus.

    Bounded by one on the open double sector but without vanishing at the
    origin; the contour path sums it over its closed curves like any other
    function, and both paths take the value 1 on the null space.
    """
    if t < 0:
        raise ValueError("semigroup time must be nonnegative")
    return HolomorphicFunctionSpec(
        f"exp(-{t:g}[z])",
        lambda z: np.exp(-t * bracket(z)),
        1.0,
        (0.0, 0.0),
        bound=1.0,
    )


# The one spec object of the unit semigroup exp(-[z]): ladder calls pass it
# with their scales as times, so repeated calls find their cached table.
UNIT_SEMIGROUP = exp_abs(1.0)


@functools.cache
def abs_value() -> HolomorphicFunctionSpec:
    """[z]: the sectorial modulus; unbounded."""
    return HolomorphicFunctionSpec("[z]", bracket, 0.0, (1.0, -1.0))


def z_exp_abs(scale: float = 1.0) -> HolomorphicFunctionSpec:
    """z exp(-[z]), optionally precomposed with a scale."""
    base = HolomorphicFunctionSpec(
        "z*exp(-[z])",
        lambda z: z * np.exp(-bracket(z)),
        0.0,
        (1.0, 4.0),
        bound=1e4,
        bound_origin=1.0,
    )
    return base if scale == 1.0 else base.scaled(scale)


def bracket_exp_abs(scale: float = 1.0) -> HolomorphicFunctionSpec:
    """[z] exp(-[z])."""
    base = HolomorphicFunctionSpec(
        "[z]*exp(-[z])",
        lambda z: bracket(z) * np.exp(-bracket(z)),
        0.0,
        (1.0, 4.0),
        bound=1e4,
        bound_origin=1.0,
    )
    return base if scale == 1.0 else base.scaled(scale)


@functools.cache
def z_over_one_plus_z2() -> HolomorphicFunctionSpec:
    """z (1 + z^2)^(-1): the basic quadratic-estimate kernel."""
    return HolomorphicFunctionSpec(
        "z/(1+z^2)",
        lambda z: z / (1 + z * z),
        0.0,
        (1.0, 1.0),
        bound=8.0,
        bound_origin=8.0,
    )


def resolvent_power(M: int, t: float = 1.0) -> HolomorphicFunctionSpec:
    """z (1 + i t z)^(-M); decay class (1, M-1).

    The constants cover sector angles up to about 1.25 radians, where
    the distance from the ray to the pole shrinks like the co-angle.
    """
    c = (4.0 * max(1.0, 1.0 / t)) ** M
    return HolomorphicFunctionSpec(
        f"z(1+{t:g}iz)^-{M}",
        lambda z: z * (1 + 1j * t * z) ** (-M),
        0.0,
        (1.0, M - 1.0),
        bound=c,
        bound_origin=c,
    )


@functools.cache
def theta() -> HolomorphicFunctionSpec:
    """exp(-[z] - [z]^-1); decays faster than any power at 0 and infinity."""

    def ev(z):
        bz = bracket(z)
        out = np.zeros_like(bz)
        nz = bz != 0
        out[nz] = np.exp(-bz[nz] - 1.0 / bz[nz])
        return out

    return HolomorphicFunctionSpec("theta", ev, 0.0, (2.0, 2.0), bound=8.0)


def rational(coefficients, k: int = 1) -> HolomorphicFunctionSpec:
    """Sum of c_j (1 + i j z)^(-k) over j = 1..M; bounded, no vanishing at 0."""
    coefficients = np.asarray(coefficients, dtype=complex)

    def ev(z):
        out = np.zeros_like(z)
        for j, c in enumerate(coefficients, start=1):
            out = out + c * (1 + 1j * j * z) ** (-k)
        return out

    return HolomorphicFunctionSpec(
        f"rational(k={k},M={len(coefficients)})",
        ev,
        complex(coefficients.sum()),
        (0.0, float(k)),
        bound=float(np.abs(coefficients).sum() * 4.0**k),
    )


def custom(
    sigma: float,
    tau: float,
    evaluator,
    value_at_zero: complex = 0.0,
    name: str = "custom",
    bound: float = 1.0,
) -> HolomorphicFunctionSpec:
    return HolomorphicFunctionSpec(name, evaluator, value_at_zero, (sigma, tau), bound)


# ---------------------------------------------------------------------------
# eigendecomposition path
# ---------------------------------------------------------------------------

EIG_CONDITION_LIMIT = 1e8
# (spec, scales) tables and (spec, scales, weights) ladder forms kept per
# eigendecomposition; a table is S x r and a form r x r, and a job reuses a
# few, such as the unit semigroup on its ladder
SCALED_TABLE_LIMIT = 8


class LadderForm(typing.NamedTuple):
    """The Hermitian forms of ladder energies in range coordinates c = Vinv h.

    One per row w of the weights: hermitian is G o K with G = V^* V and
    K_ij = sum_s w_s conj(v_si) v_sj, v_s = b(s lam); range_weights is
    sum_s w_s v_s and weight_sum sum_s w_s, which the null part reads when
    b(0) != 0.
    """

    hermitian: np.ndarray
    range_weights: np.ndarray
    weight_sum: np.ndarray


class _RangeFactors(typing.NamedTuple):
    """The eigenvectors of DB or BD through the orthonormal range basis Q of D.

    V = L Q X diag(1/s) and Vinv = diag(s) Y Q^* R, where L and R are the
    handle's left and right multipliers (R = B for DB, L = B for BD, the
    identity otherwise) and tag names the composition.  Q X are the range
    eigenvectors of DB, DB Q X = Q X diag(lam), so a BD handle has D V = Q
    X diag(lam / s).  DB and BD on one B share X = W and Y = M of
    B.range_eigen, with s = 1 for DB and the column norms of B Q W for BD.
    """

    tag: str
    X: np.ndarray
    Y: np.ndarray
    s: np.ndarray

    @property
    def coordinates(self) -> np.ndarray:
        """Q^* V = X diag(1/s) of a DB handle, whose eigenvectors lie in the range of D."""
        return self.X / self.s

    def adjoint(self, n: np.ndarray) -> "_RangeFactors":
        """The factors of -N T^* N, which swaps DB and BD: N Q = Q diag(n),
        with n = +1 on the scalar-slot and -1 on the tangential range vectors."""
        return _RangeFactors("BD" if self.tag == "DB" else "DB", n[:, None] * self.Y.conj().T,
                             self.X.conj().T * n, 1.0 / self.s)


@dataclasses.dataclass
class EigenData:
    """The operator on its range: T = V diag(lam) Vinv there, zero on the null space.

    V is dof x r with the range eigenvectors as columns and Vinv is r x
    dof with Vinv V = I, so I - V Vinv projects onto the null space along
    the range and b(T) h = b(0) h + V (b(lam) - b(0)) Vinv h.  condition
    bounds ||V||_2 ||Vinv||_2 from above.  factors holds the same
    eigenvectors through the range basis of D, r x r (_RangeFactors),
    built on first use by the zero-argument factor_source.
    """

    lam: np.ndarray
    V: np.ndarray
    Vinv: np.ndarray
    condition: float
    factor_source: typing.Callable[[], _RangeFactors] = dataclasses.field(repr=False,
                                                                          compare=False)
    _tables: dict = dataclasses.field(default_factory=dict, init=False, repr=False,
                                      compare=False)

    @functools.cached_property
    def factors(self) -> _RangeFactors:
        return self.factor_source()

    @property
    def radius(self) -> float:
        return float(np.abs(self.lam).max(initial=0.0))

    def _cached(self, key: tuple, b: HolomorphicFunctionSpec, build):
        """The entry of key, built on a miss, in the least-recently-used table cache.

        At most SCALED_TABLE_LIMIT entries stay, tables and forms together.
        An entry holds b, so the id in its key cannot pass to another spec
        while it is kept.
        """
        entry = self._tables.pop(key, None)
        if entry is None:
            entry = (b, build())
            if len(self._tables) >= SCALED_TABLE_LIMIT:
                del self._tables[next(iter(self._tables))]
        self._tables[key] = entry
        return entry[1]

    def scaled_table(self, b: HolomorphicFunctionSpec, scales: np.ndarray) -> np.ndarray:
        """b(s lam) - b(0) for every scale s, shape (S, r), read-only.

        Cached per spec object and scales.
        """

        def build():
            table = b(self.lam * scales[:, None]) - b.value_at_zero
            table.setflags(write=False)
            return table

        return self._cached((id(b), scales.tobytes()), b, build)

    @functools.cached_property
    def gram(self) -> np.ndarray:
        """V^* V, r x r Hermitian, read-only; built once.

        A DB handle has V = Q W with Q^* Q = I, so V^* V = W^* W, at r^3
        complex operations; BD forms V^* V, at r^2 dof.
        """
        W = self.factors.coordinates if self.factors.tag == "DB" else self.V
        G = W.conj().T @ W
        G.setflags(write=False)
        return G

    def ladder_form(self, b: HolomorphicFunctionSpec, scales: np.ndarray,
                    weights: np.ndarray) -> LadderForm:
        """The forms of h -> sum_s w_s ||b(s T) h||^2 on the range coordinates.

        weights has shape (S,) or (W, S), one form per row.  Cached per spec
        object, scales and weights beside the scaled tables, and built from
        the scaled table of b and scales.
        """

        def build():
            values = self.scaled_table(b, scales) + b.value_at_zero
            K = values.conj().T @ (weights[..., None] * values)
            form = LadderForm(self.gram * K, weights @ values, weights.sum(axis=-1))
            for part in form:
                part.setflags(write=False)
            return form

        key = (id(b), scales.tobytes(), weights.shape, weights.tobytes())
        return self._cached(key, b, build)


def _checked_condition(cond: float) -> float:
    if not cond <= EIG_CONDITION_LIMIT:
        raise OperatorError(
            f"eigenvector condition number {cond:.2e} exceeds "
            f"{EIG_CONDITION_LIMIT:.0e}; a Schur-blocked evaluation "
            "would be needed for this operator"
        )
    return cond


def _pointwise_rows(mats: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Per-grid-point matrices applied to X along its flattened physical rows."""
    shape = mats.shape[:-1] + (X.shape[1],)
    return (mats @ X.reshape(shape)).reshape(X.shape)


def _range_eigen_data(T: LinearOperatorHandle) -> EigenData:
    """DB or BD from the factorization B.range_eigen, shared by every handle on B.

    With Q the orthonormal range basis, which is never formed, and M =
    W^-1 C^-1 from that factorization: DB has V = Q W and Vinv = M Q^* B
    = (B^* (Q M^*))^*; BD = B (DB) B^-1 has V = B Q W S^-1 and Vinv =
    S M Q^* = S (Q M^*)^*, with S the column norms of B Q W.  Q W and
    Q M^* are B.range_syntheses, made once per B, so the second of DB and
    BD runs no synthesis; DB keeps Q W itself as V.  The condition bounds
    use ||C^-1|| <= 1/kappa, kappa = lambda_min(Re C), and ||B|| = sup|B|,
    the largest pointwise norm, so for DB ||V|| ||Vinv|| <= cond(W) sup|B|
    / kappa; BD gains the factor max S / min S, and each column of B Q W
    is nonzero, as D maps it to a nonzero multiple of Q w.  Any other tag
    is refused before anything is built.
    """
    if T.tag not in ("DB", "BD"):
        raise OperatorError(f"no range eigendecomposition for tag {T.tag}")
    B = T.multiplier_matrix
    core = B.range_eigen
    QW, QM = B.range_syntheses
    if T.tag == "DB":
        norms = np.ones(len(core.lam))
        cond = _checked_condition(core.condition)
        V = QW
        Vinv = _pointwise_rows(B.adjoint_values(), QM).conj().T
    else:
        V = _pointwise_rows(B.values, QW)
        norms = np.linalg.norm(V, axis=0)
        cond = _checked_condition(core.condition * norms.max() / norms.min())
        V /= norms
        Vinv = QM.conj().T * norms[:, None]
    return EigenData(lam=core.lam, V=V, Vinv=Vinv, condition=cond,
                     factor_source=functools.partial(_RangeFactors, T.tag, core.W, core.M, norms))


def eigen_data(T: LinearOperatorHandle) -> EigenData:
    """Eigendecomposition of DB or BD on its range, cached on the handle.

    A handle whose operator is similar to one already diagonalized carries
    the derivation in `_eigen_source`; DB and BD take theirs from the r x r
    factorization shared by every handle on their multiplier, with an exact
    null part and no dof-sized SVD.  Raises OperatorError on any other
    handle, beyond the dense limit before allocating, and when the
    eigenvector condition bound exceeds EIG_CONDITION_LIMIT;
    NotAccretiveError, before any eig, when B fails the certificate.
    """
    if T._eigen is None:
        T._eigen = T._eigen_source() if T._eigen_source is not None else _range_eigen_data(T)
    return T._eigen


def adjoint_eigen_data(T: LinearOperatorHandle) -> EigenData:
    """Eigendecomposition of an adjoint-system handle from a primal one.

    The adjoint coefficients transform to N B^* N with N = diag(I_m, -I_mn)
    per grid point, and D N = -N D, so the adjoint DB is -N (BD)^* N and
    the adjoint BD is -N (DB)^* N: eigenvalues -conj(lam), eigenvectors
    N Vinv^*, inverse V^* N, and the same condition bound.  The range
    factors follow on first use (_RangeFactors.adjoint).
    """
    ed = eigen_data(T)
    grid = T.grid
    m = grid.system_size
    n = np.tile(np.where(np.arange(grid.channels) < m, 1.0, -1.0), grid.points**grid.dim)
    n_range = np.tile(np.repeat([1.0, -1.0], m), len(ed.lam) // (2 * m))
    return EigenData(
        lam=-ed.lam.conj(),
        V=n[:, None] * ed.Vinv.conj().T,
        Vinv=ed.V.conj().T * n,
        condition=ed.condition,
        factor_source=lambda: ed.factors.adjoint(n_range),
    )


def _range_modulus(T: LinearOperatorHandle) -> np.ndarray:
    """sigma(k) with S(k)^2 = sigma(k)^2 P(k) for a multiplier's Hermitian symbol S,
    from ||S(k)||_F^2 = 2m sigma(k)^2: |k|, 1 and 1/|k| for D, P and D^+, 0 at k = 0."""
    S = T.symbol.matrices
    return np.sqrt((S * S.conj()).real.sum(axis=(-2, -1)) / (2 * T.grid.system_size))


def _multiplier_apply_scaled(T: LinearOperatorHandle, b: HolomorphicFunctionSpec,
                             scales: np.ndarray, h: Field) -> np.ndarray:
    """b(s S) = b(0) (I - P) + (b(s sigma) + b(-s sigma))/2 P + (b(s sigma) -
    b(-s sigma))/2 S/sigma per frequency, with P = S^2/sigma^2; b is
    evaluated only where sigma > 0."""
    sigma = _range_modulus(T)
    nz = sigma > 0
    plus, minus = b(scales[:, None] * sigma[nz]), b(-scales[:, None] * sigma[nz])
    even, odd = np.zeros((2,) + scales.shape + sigma.shape + (1,), dtype=complex)
    even[:, nz, 0] = (0.5 * (plus + minus) - b.value_at_zero) / sigma[nz] ** 2
    odd[:, nz, 0] = 0.5 * (plus - minus) / sigma[nz]
    hat = h.to_spectral().values
    Sh = T.symbol.apply_spectral(hat)
    out = b.value_at_zero * hat + even * T.symbol.apply_spectral(Sh) + odd * Sh
    return ifft_values(out, T.grid)


def eigen_apply_scaled(
    T: LinearOperatorHandle, b: HolomorphicFunctionSpec, scales, h: Field
) -> np.ndarray:
    """b(s T) h at every scale s, as one (S,) + grid_shape + (N,) array.

    A multiplier takes them from its symbol in closed form, at any size.
    Otherwise b is evaluated on all scaled range eigenvalues in one call,
    whose table the eigendecomposition keeps for the same b and scales, the
    eigenvectors are applied once, and the null part takes the value at the
    origin: b(sT) h = b(0) h + V (b(s lam) - b(0)) Vinv h.  Raises
    ValueError for a nonpositive scale and GridError for a non-finite result.
    """
    scales = np.asarray(scales, dtype=float)
    if np.any(scales <= 0):
        raise ValueError("scale must be positive")
    if T.multiplier_matrix is None:
        out = _multiplier_apply_scaled(T, b, scales, h)
    else:
        ed = eigen_data(T)
        vals = ed.scaled_table(b, scales)
        flat = h.flat()
        out = (ed.V @ (vals * (ed.Vinv @ flat)).T).T + b.value_at_zero * flat
    check_finite(out)
    return out.reshape(scales.shape + T.grid.shape + (T.grid.channels,))


def eigen_ladder_energy(
    T: LinearOperatorHandle, b: HolomorphicFunctionSpec, scales, weights, h: Field
):
    """sum_s w_s ||b(s T) h||^2, the squared L^2 norms over the torus, weighted.

    weights of shape (S,) give one energy, and of shape (W, S) an array of
    W, one per row.  Such an energy is a Hermitian form in h.  With c =
    Vinv h and n = h - V c the null part, b(s T) h = b(0) n + V (b(s lam) o
    c), so the range terms sum to c^* (G o K) c, the form of
    EigenData.ladder_form; when b(0) != 0 the null part adds |b(0)|^2
    (sum_s w_s) ||n||^2 and the cross term 2 Re conj(b(0)) <n, V (u o c)>,
    u = sum_s w_s b(s lam), each formed explicitly, so that no term cancels
    another.  Per call this costs one Vinv product and W r x r forms, plus
    two V products when b(0) != 0, against the S r dof of the stack that
    eigen_apply_scaled builds.  The first call per eigendecomposition
    builds the Gram matrix G = V^* V, r^2 dof operations, and each (b,
    scales, weights) its forms, W S r^2; each is r^2 complex values (67 MB
    at 2D G=32, r = 2046), and the forms share the bounded cache of the
    scaled tables.  A multiplier sums the squared norms of its closed-form
    stack.  Raises ValueError for a nonpositive scale and GridError for a
    non-finite energy.
    """
    scales = np.asarray(scales, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if (scales <= 0).any():
        raise ValueError("scale must be positive")
    if T.multiplier_matrix is None:
        stack = _multiplier_apply_scaled(T, b, scales, h).reshape(len(scales), -1)
        energy = weights @ np.einsum("ij,ij->i", stack.conj(), stack).real
    else:
        ed = eigen_data(T)
        form = ed.ladder_form(b, scales, weights)
        flat = h.flat()
        c = ed.Vinv @ flat
        energy = ((form.hermitian @ c) @ c.conj()).real
        b0 = b.value_at_zero
        if b0 != 0:
            n = flat - ed.V @ c
            cross = n.conj() @ (ed.V @ (form.range_weights * c).T)
            energy += (abs(b0) ** 2 * form.weight_sum * np.vdot(n, n).real
                       + 2 * (np.conj(b0) * cross).real)
    if not np.isfinite(energy).all():
        raise GridError("non-finite ladder energy")
    # the forms are positive semidefinite; roundoff may leave a tiny negative value
    return T.grid.cell_volume * np.maximum(energy, 0.0)


# ---------------------------------------------------------------------------
# contour quadrature path
# ---------------------------------------------------------------------------


# Trapezoid nodes per curve.  With 128 and the certified angle, the gap to
# the eigen path stayed within 3e-13 at perturbation sizes up to 0.4 on 1D
# G=32 to 128, 2D G=8 and 16 and 1D G=16 with m=2; at size 0.6 it reached
# 7e-8 on 1D G=64 and 128, where the annulus is widest.
_NODES_PER_CURVE = 128


@dataclasses.dataclass(frozen=True)
class ContourSpec:
    """An ellipse in s = log(lambda), traced by lambda = exp(s) and by -exp(s).

    s(theta) = (lo + hi)/2 + (hi - lo)/2 cos(theta) + i height sin(theta)
    meets the real axis at lo and hi.  As height < pi/2, the curve
    lambda = exp(s) lies in the open right half-plane, where the branches
    of bracket, chi and sgn are holomorphic, and its mirror image -exp(s)
    in the left one; neither winds around 0.  Both curves run
    counterclockwise, and (lambda - T)^{-1} dlambda = (I - T/lambda)^{-1} ds
    on each, so the trapezoid rule in theta has the weights s'(theta_k)/(i n).
    """

    lo: float
    hi: float
    height: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError("contour bounds must be finite with lo < hi")
        if not (0 < self.height < np.pi / 2):
            raise ValueError("contour height must lie strictly between 0 and pi/2")

    @classmethod
    def enclosing(cls, r_min: float, r_max: float, angle: float) -> "ContourSpec":
        """The ellipse around [log r_min, log r_max] x [-angle, angle] in log(lambda).

        On the ellipses confocal with foci mid +- f, the elliptic coordinate
        u sets the geometric rate of the trapezoid rule: a singularity at
        coordinate u* costs about exp(-n |u - u*|).  The rectangle's corner
        has u_in and the lines |Im s| = pi/2, where the integrand may be
        singular, start at u_out = arcsinh(pi / 2f).  f maximizes u_out -
        u_in over a log grid, and the curve takes u one third of the way
        out: the resolvent has simple poles at the eigenvalues, while b may
        have poles of higher order or grow exponentially past the lines.
        """
        half, mid = 0.5 * np.log(r_max / r_min), 0.5 * np.log(r_max * r_min)
        f = np.geomspace(1e-2, 1e2, 400)
        # cosh(u_in)^2 is the larger root p of half^2/p + angle^2/(p - 1) = f^2
        total = f**2 + half**2 + angle**2
        cosh2 = (total + np.sqrt(np.maximum(total**2 - 4 * (f * half) ** 2, 0))) / (2 * f**2)
        u_in = np.arccosh(np.sqrt(np.maximum(cosh2, 1.0)))
        u_out = np.arcsinh(np.pi / (2 * f))
        k = np.argmax(u_out - u_in)
        u = u_in[k] + (u_out[k] - u_in[k]) / 3
        width = f[k] * np.cosh(u)
        return cls(lo=float(mid - width), hi=float(mid + width), height=float(f[k] * np.sinh(u)))

    @functools.cached_property
    def nodes(self):
        """Rows (points, weights) of both curves, read-only; the weights absorb 1/(2 pi i)."""
        theta = 2 * np.pi * np.arange(_NODES_PER_CURVE) / _NODES_PER_CURVE
        half = 0.5 * (self.hi - self.lo)
        s = 0.5 * (self.lo + self.hi) + half * np.cos(theta) + 1j * self.height * np.sin(theta)
        w = (self.height * np.cos(theta) + 1j * half * np.sin(theta)) / _NODES_PER_CURVE
        lam = np.exp(s)
        table = np.array([np.concatenate([lam, -lam]), np.concatenate([w, w])])
        table.setflags(write=False)
        return table


def schur_data(T: LinearOperatorHandle) -> tuple:
    """Complex Schur form (R, Z) of the operator, M = Z R Z^*, cached on the handle.

    R is upper triangular with the eigenvalues on its diagonal; Z is
    unitary, so no eigenvector basis or its inverse is ever formed.
    """
    if T._schur is None:
        T._schur = scipy.linalg.schur(T.dense_matrix(), output="complex")
    return T._schur


def _shifted_triangular_solves(R: np.ndarray, g: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Columns z_k = (lambda_k - R)^{-1} g for upper-triangular R, as (dof, nodes).

    inv[i, k] = 1 / (lambda_k - R_ii) is the diagonal of each resolvent.
    Back substitution over the rows, each row updating all nodes at once:
    z_i = inv_i (g_i + R[i, i+1:] z[i+1:]).  (I - R/lambda_k)^{-1} g is
    lambda_k z_k, so a caller folds lambda_k into its quadrature weights.
    """
    Zs = g[:, None] * inv
    for i in range(R.shape[0] - 2, -1, -1):
        Zs[i] += inv[i] * (R[i, i + 1 :] @ Zs[i + 1 :])
    return Zs


def _resolvent_diagonal(T: LinearOperatorHandle) -> np.ndarray:
    """The read-only (dof, nodes) table 1 / (lambda_k - R_ii), built once per handle.

    It depends only on the Schur form and the contour nodes of T.
    """
    if T._resolvent_diagonal is None:
        R, _ = schur_data(T)
        lam, _ = _spectral_contour(T).nodes
        inv = 1.0 / (lam - R.diagonal()[:, None])
        inv.setflags(write=False)
        T._resolvent_diagonal = inv
    return T._resolvent_diagonal


def _spectral_contour(T: LinearOperatorHandle) -> ContourSpec:
    """The curves around the range spectrum of T, fitted once per handle.

    B accretive on the range of D with bound kappa and angle omega puts the
    range spectrum of DB and BD in kappa k_min <= |lambda| <= sup|B| k_max,
    |arg(+-lambda)| <= omega (Axelsson-Keith-McIntosh, Invent. Math. 2006):
    DB Q = Q D_r C with |D_r C c| >= k_min kappa |c| and ||D_r C|| <= k_max
    sup|B|.  kappa, omega and sup|B| are read from the certificate cached
    on B, so a bare handle gets the same curves as a system's.  A
    multiplier's range spectrum is +-sigma(k), sigma > 0.  Any other handle
    is refused before the certificate is read.
    """
    if T._contour is None:
        if T.multiplier_matrix is None:
            sigma = _range_modulus(T)
            T._contour = ContourSpec.enclosing(sigma[sigma > 0].min(), sigma.max(), 0.0)
        elif T.tag in ("DB", "BD"):
            report = accretivity_estimate(T.multiplier_matrix)
            k = T.grid.frequency_norms()
            T._contour = ContourSpec.enclosing(report.kappa * k[k > 0].min(),
                                               report.sup_norm * k.max(), report.omega)
        else:
            raise OperatorError(f"no contour calculus for tag {T.tag}")
    return T._contour


def _contour_apply(T: LinearOperatorHandle, b: HolomorphicFunctionSpec, h: Field) -> Field:
    """b(T) h = b(0) h + trapezoid sum of (b(lambda) - b(0)) (I - T/lambda)^{-1} h.

    Summed over both curves on the whole field, with no range split: on
    the null space each resolvent is the identity and the sum tends to the
    integral of (b(lambda) - b(0)) / lambda, 0 as neither curve winds
    around 0; on the range it is b(T) h - b(0) h.  With the cached Schur
    form M = Z R Z^*, each node's term Z (I - R/lambda)^{-1} Z^* h is
    lambda Z (lambda - R)^{-1} Z^* h: a triangular solve in resolvent form,
    with lambda folded into the weights lambda (b(lambda) - b(0)) w.  All
    nodes are solved together against the handle's cached table of
    resolvent diagonals, a dof x nodes work array within the dense limit;
    Z^* h is formed without copying Z.
    Refuses beyond the dense limit before any large allocation, and any
    handle but a multiplier, DB or BD before the certificate.
    """
    check_dense_size(T.grid)
    lam, w = _spectral_contour(T).nodes
    vals = lam * (b(lam) - b.value_at_zero) * w
    R, Z = schur_data(T)
    flat = h.flat()
    g = (Z.T @ flat.conj()).conj()
    acc = _shifted_triangular_solves(R, g, _resolvent_diagonal(T)) @ vals
    return Field.from_flat(T.grid, Z @ acc + b.value_at_zero * flat)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def apply_calculus(
    b: HolomorphicFunctionSpec,
    T: LinearOperatorHandle,
    h: Field,
    path: str = "eigen",
) -> Field:
    """Compute b(T) h.

    path "eigen" applies b on the range spectrum of the operator, with the
    value at the origin on its null space.  path "contour" sums the
    resolvent over two closed curves around the range spectrum, one in
    each half-plane, with the same value at the origin on the null space;
    it takes any b holomorphic on the open half-planes.  Beyond the dense
    limit only the eigen path of a multiplier runs; the others refuse with
    OperatorError before allocating.
    """
    if path == "eigen":
        return Field.physical(T.grid, eigen_apply_scaled(T, b, [1.0], h)[0])
    if path == "contour":
        return _contour_apply(T, b, h)
    raise ValueError(f"unknown path {path!r}")


def semigroup(
    T: LinearOperatorHandle, t: float, h: Field, path: str = "eigen"
) -> Field:
    """exp(-t |T|) h with |T| the sectorial modulus sgn(T) T.

    Both paths apply exp_abs(t): the contour path sums it over the closed
    curves directly, and the null space keeps h, the value 1 at the origin.
    """
    if t < 0:
        raise ValueError("semigroup time must be nonnegative")
    if t == 0:
        return h.copy()
    if path == "eigen":
        return Field.physical(T.grid, eigen_apply_scaled(T, UNIT_SEMIGROUP, [t], h)[0])
    return apply_calculus(exp_abs(t), T, h, path)


# ---------------------------------------------------------------------------
# reproducing pairs
# ---------------------------------------------------------------------------


def _log_axis_integral(f, lo=-40.0, hi=40.0) -> float:
    # imported on first use: scipy.integrate also loads scipy.optimize,
    # scipy.sparse and scipy.spatial, which no other path needs
    from scipy.integrate import quad

    val, err = quad(f, lo, hi, limit=800, epsabs=1e-13, epsrel=1e-12)
    return float(val)


def calderon_pair(
    psi: HolomorphicFunctionSpec, sigma: float = 2.0, tau: float = 2.0
) -> HolomorphicFunctionSpec:
    """Companion phi with the scale-invariant reproducing property.

    phi(z) = c s_conj(psi)(z) theta(+-z) per half-sector, with the two
    constants fixed by one-dimensional quadrature of |psi|^2 theta along
    each half-axis so that the mean over scales of phi psi is one.
    """
    th = theta()

    def half_integral(s):
        return _log_axis_integral(
            lambda u: abs(psi(np.array([s * np.exp(u)]))[0]) ** 2
            * th(np.array([np.exp(u)]))[0].real
        )

    denom_p = half_integral(+1.0)
    denom_m = half_integral(-1.0)
    if min(abs(denom_p), abs(denom_m)) < 1e-280:
        raise OperatorError("degenerate psi: vanishes on a half-sector")
    c_p = 1.0 / denom_p
    c_m = 1.0 / denom_m

    def ev(z):
        z = np.asarray(z, dtype=complex)
        conj_part = np.conj(psi(np.conj(z)))
        right = th(z)
        left = th(-z)
        return np.where(z.real >= 0, c_p * conj_part * right, c_m * conj_part * left)

    return HolomorphicFunctionSpec(
        name=f"calderon-pair({psi.name})",
        evaluate=ev,
        value_at_zero=0.0,
        decay=(sigma, tau),
        bound=float(max(abs(c_p), abs(c_m)) * psi.bound * 2.0),
    )


def reproducing_residual_scalar(
    psi: HolomorphicFunctionSpec, phi: HolomorphicFunctionSpec, x: float
) -> float:
    """|1 - mean over scales of phi(t x) psi(t x)| by adaptive quadrature."""

    def value(u):
        z = np.array([x * np.exp(u)], dtype=complex)
        return phi(z)[0] * psi(z)[0]

    re = _log_axis_integral(lambda u: value(u).real)
    im = _log_axis_integral(lambda u: value(u).imag)
    return abs(complex(re, im) - 1.0)

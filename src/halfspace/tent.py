"""Tent-space functionals on the discrete half-space over the torus.

A sampled function on the half-space is one array with a leading
ladder axis, shape (K,) + grid_shape + (N,).  The semigroup and
quadratic functionals sample the calculus of one base function along
the whole ladder, b(t T) h for every scale t, with one evaluation and
one eigenvector product.

Cones and boxes use the torus metric; balls are sets of grid points
within a torus distance, and averages over them are plain means over
the contained points, so that the square-function energy identity at
exponent two holds with the exact cone cross-section constant.

Ball means are batched Fourier multipliers: the indicators of every
radius a functional needs are transformed as one stack, and the means of
all its layers take one forward and one inverse FFT.  Every stack is a
real sum of |F|^2 and every torus ball is centrally symmetric, so its
transform is real: the FFTs are real-to-half-spectrum (rfftn / irfftn).
The kernels depend on the grid and the radii alone and are kept in a
bounded cache, so repeated functionals on one ladder transform their
indicators once.  The box windows in t are summed before the ball mean,
which is linear in the field, so the box functionals need one ball mean
per ladder scale, not one per scale and window point.

Scales below the grid spacing degenerate to single-point balls; scales
outside the ladder contribute nothing, and the share of the boundary
octaves is reported as the truncation diagnostic.
"""

from __future__ import annotations

import dataclasses
import functools
import warnings

import numpy as np
import scipy.fft

from .calculus import HolomorphicFunctionSpec, eigen_apply_scaled, exp_abs
from .grid import Field, GridSpec, TLadder, lp_norm_grid
from .operators import LinearOperatorHandle

__all__ = [
    "TentField",
    "WhitneyParams",
    "square_function",
    "tent_norm",
    "carleson_norm",
    "nt_maximal",
    "nt_sharp",
    "quadratic_norm",
    "semigroup_tent_field",
]


@dataclasses.dataclass(frozen=True)
class WhitneyParams:
    """Box constants: t-window ratio c0 > 1, ball factor c1 > 0, cone aperture a > 0."""

    c0: float = 2.0
    c1: float = 1.0
    aperture: float = 1.0

    def __post_init__(self):
        if self.c0 <= 1 or self.c1 <= 0 or self.aperture <= 0:
            raise ValueError("need c0 > 1, c1 > 0, aperture > 0")


class TentField:
    """Samples on the half-space: one grid array per ladder scale, stacked."""

    def __init__(self, grid: GridSpec, ladder: TLadder, values: np.ndarray):
        values = np.asarray(values, dtype=complex)
        expected = (len(ladder),) + grid.shape + (grid.channels,)
        if values.shape != expected:
            raise ValueError(f"tent field shape {values.shape}, expected {expected}")
        self.grid = grid
        self.ladder = ladder
        self.values = values

    @classmethod
    def from_function(cls, grid: GridSpec, ladder: TLadder, fn) -> "TentField":
        """fn(t, coordinate arrays) -> channel array for one scale."""
        coords = grid.coordinates()
        vals = np.stack([np.asarray(fn(t, *coords), dtype=complex) for t in ladder.t])
        return cls(grid, ladder, vals)

    def channel_square(self) -> np.ndarray:
        """|F(t, x)|^2 summed over channels, shape (K,) + grid_shape."""
        return (np.abs(self.values) ** 2).sum(axis=-1)


def semigroup_tent_field(T: LinearOperatorHandle, h: Field, ladder: TLadder) -> TentField:
    """Samples of the decay semigroup of T applied to h along the ladder."""
    return TentField(T.grid, ladder, eigen_apply_scaled(T, exp_abs(1.0), ladder.t, h))


def unit_ball_volume(n: int) -> float:
    return {1: 2.0, 2: np.pi}[n]


# (grid, radii) pairs whose ball kernels stay cached; a kernel stack is
# O(K G^n), and one job uses a handful of radius families
BALL_KERNEL_CACHE_SIZE = 32


@functools.lru_cache(maxsize=BALL_KERNEL_CACHE_SIZE)
def _ball_kernels(grid: GridSpec, radii: tuple) -> tuple:
    """Half-spectrum ball-mean multipliers of the radii, and the point counts.

    The indicators of all radii come from one distance table.  Balls are
    centrally symmetric on the torus, so the transforms are real.  Both
    arrays are read-only, as they are shared by every later call.
    """
    r = np.asarray(radii).reshape((-1,) + (1,) * grid.dim)
    masks = grid.torus_distance_table() <= r + 1e-12
    counts = masks.sum(axis=tuple(range(1, grid.dim + 1)))
    axes = tuple(range(-grid.dim, 0))
    kernels = scipy.fft.rfftn(masks, axes=axes).real / counts.reshape(r.shape)
    kernels.setflags(write=False)
    counts.setflags(write=False)
    return kernels, counts


def _ball_averages(stack: np.ndarray, grid: GridSpec, radii) -> tuple:
    """Means over the torus balls of radii[k] of stack[k], at every center.

    stack is real with shape (K,) + grid_shape.  One rfftn and one irfftn
    serve all K layers.  Balls smaller than the grid spacing reduce to the
    point value.  Returns the means and the point count of each ball.
    """
    kernels, counts = _ball_kernels(grid, tuple(np.ravel(radii).astype(float)))
    axes = tuple(range(-grid.dim, 0))
    out = scipy.fft.irfftn(scipy.fft.rfftn(stack, axes=axes) * kernels, s=grid.shape, axes=axes)
    return out, counts


def _ball_average(scalar: np.ndarray, grid: GridSpec, radius: float) -> np.ndarray:
    """Mean over the torus ball at each center: the one-radius case."""
    return _ball_averages(scalar[None], grid, [radius])[0][0]


def square_function(F: TentField, wp: WhitneyParams = WhitneyParams()) -> np.ndarray:
    """Conical square function on the grid.

    Value squared at x: the ladder sum with dt/t weights of the mean of
    |F(t, .)|^2 over the ball of radius aperture * t around x, times the
    cone cross-section constant (unit-ball volume times aperture^n).
    """
    grid = F.grid
    means, _ = _ball_averages(F.channel_square(), grid, wp.aperture * F.ladder.t)
    acc = np.tensordot(F.ladder.weights, means, axes=1)
    cross_section = unit_ball_volume(grid.dim) * wp.aperture**grid.dim
    return np.sqrt(cross_section * acc)


def tent_norm(F: TentField, p: float, wp: WhitneyParams = WhitneyParams()) -> float:
    """L^p norm of the conical square function, 0 < p < infinity."""
    if not (0 < p < np.inf):
        raise ValueError("p must be in (0, inf)")
    return lp_norm_grid(square_function(F, wp), F.grid, p)


def spacetime_square_integral(F: TentField) -> float:
    """Plain integral of |F|^2 dt dx / t over the sampled half-space."""
    sq = F.channel_square()
    per_scale = sq.reshape(len(F.ladder), -1).sum(axis=1) * F.grid.cell_volume
    return float((F.ladder.weights * per_scale).sum())


def tent_duality_pairing(F: TentField, G: TentField) -> complex:
    """Space-time pairing of two tent fields with dt dx / t."""
    prod = (F.values * np.conj(G.values)).sum(axis=tuple(range(1, F.values.ndim)))
    return complex((F.ladder.weights * prod).sum() * F.grid.cell_volume)


def _dyadic_radii(grid: GridSpec) -> np.ndarray:
    """Dyadic ball radii from the grid spacing up to the period."""
    h = 2 * np.pi / grid.points
    radii = []
    r = h
    while r <= 2 * np.pi + 1e-12:
        radii.append(r)
        r *= 2
    return np.asarray(radii)


def carleson_norm(F: TentField, alpha: float = 0.0) -> float:
    """Weighted Carleson functional over a dyadic family of balls.

    For each grid center and dyadic radius r, the mass of |F|^2 dt dy / t
    over scales t <= r and the ball, divided by the ball measure raised
    to 1 + 2 alpha / n; the value is the square root of the supremum.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    grid = F.grid
    radii = _dyadic_radii(grid)
    # slab of radius r: the dt/t-weighted sum of |F|^2 over scales t <= r;
    # a radius below every scale gets a zero slab and adds nothing
    slab_weights = F.ladder.weights * (F.ladder.t <= radii[:, None] + 1e-12)
    slabs = np.tensordot(slab_weights, F.channel_square(), axes=1)
    means, counts = _ball_averages(slabs, grid, radii)
    measure = (counts * grid.cell_volume).reshape((-1,) + (1,) * grid.dim)
    # ball mass over |B|^(1 + 2 alpha / n) reduces to the ball average
    # of the slab over |B|^(2 alpha / n)
    mass = means * measure ** (-2.0 * alpha / grid.dim)
    return float(np.sqrt(max(mass.max(), 0.0)))


def _box_maximal(F: TentField, wp: WhitneyParams, alpha: float) -> np.ndarray:
    """nt_maximal with the box mean square at scale t weighted by t^(-2 alpha)."""
    grid = F.grid
    t = F.ladder.t
    # row j: normalized dt weights of the window (t_j / c0, c0 t_j), which
    # holds t_j itself as c0 > 1; the box mean at t_j is the ball mean of
    # the window-weighted sum of |F|^2, as the ball radius depends on j only
    window = (t > t[:, None] / wp.c0) & (t < t[:, None] * wp.c0)
    W = window * (F.ladder.weights * t)
    W /= W.sum(axis=1, keepdims=True)
    means, _ = _ball_averages(np.tensordot(W, F.channel_square(), axes=1), grid, wp.c1 * t)
    weighted = t.reshape((-1,) + (1,) * grid.dim) ** (-2.0 * alpha) * means
    return np.sqrt(np.maximum(weighted.max(axis=0), 0.0))


def nt_maximal(F: TentField, wp: WhitneyParams = WhitneyParams()) -> np.ndarray:
    """Non-tangential maximal function with root-mean-square box averages.

    At each grid point: the sup over ladder scales t of the RMS of F over
    the box (t / c0, c0 t) x ball(x, c1 t), the t-average taken with the
    linear measure dt restricted to ladder points in the window.
    """
    return _box_maximal(F, wp, 0.0)


def nt_sharp(
    h: Field,
    T: LinearOperatorHandle,
    ladder: TLadder,
    wp: WhitneyParams = WhitneyParams(),
    alpha: float = 0.0,
) -> np.ndarray:
    """Non-tangential maximal function of the semigroup increment.

    Measures boundary oscillation: the box RMS of exp(-t|T|) h - h, with
    an optional t^-alpha weight per box scale.
    """
    F = semigroup_tent_field(T, h, ladder)
    F.values -= h.to_physical().values
    return _box_maximal(F, wp, alpha)


def quadratic_norm(
    T: LinearOperatorHandle,
    psi: HolomorphicFunctionSpec,
    h: Field,
    ladder: TLadder,
    warn_share: float = 0.01,
) -> float:
    """Ladder-weighted square integral of psi(t T) h over scales.

    Approximates the scale-invariant square function energy.  Warns when
    the two boundary octaves carry more than warn_share of the total,
    with a tail estimate from the decay class of psi.
    """
    if not psi.is_psi_class:
        raise ValueError("quadratic norm requires Psi-class decay")
    stack = eigen_apply_scaled(T, psi, ladder.t, h)
    norms2 = (np.abs(stack) ** 2).reshape(len(ladder), -1).sum(axis=1) * T.grid.cell_volume
    total = float((ladder.weights * norms2).sum())
    if total > 0:
        per_octave = np.log(2.0)
        edge = ladder.weights.copy()
        u = np.log(ladder.t)
        inner_mask = (u > u[0] + per_octave) & (u < u[-1] - per_octave)
        edge[inner_mask] = 0.0
        share = float((edge * norms2).sum()) / total
        if share > warn_share:
            sigma, tau = psi.decay
            tail = (
                psi.origin_bound ** 2 * (ladder.t[0]) ** (2 * sigma) / (2 * sigma)
                + psi.bound ** 2 * (ladder.t[-1]) ** (-2 * tau) / (2 * tau)
            )
            warnings.warn(
                f"ladder boundary carries {share:.1%} of the quadratic norm; "
                f"scalar tail estimate {tail:.3e}",
                stacklevel=2,
            )
    return total

"""Tent-space functionals on the discrete half-space over the torus.

A sampled function on the half-space is one array with a leading
ladder axis, shape (K,) + grid_shape + (N,).  The semigroup
functionals sample the calculus of one base function along the whole
ladder, b(t T) h for every scale t, with one evaluation and one
eigenvector product.

Cones and boxes use the torus metric; balls are sets of grid points
within a torus distance, and averages over them are plain means over
the contained points, so that the square-function energy identity at
exponent two holds with the exact cone cross-section constant.

Ball means are batched Fourier multipliers: the indicators of every
radius a functional needs are transformed as one stack.  Every stack a
functional averages is a real combination of |F|^2 along the ladder axis,
and every torus ball is centrally symmetric, so the transforms are real:
the FFTs are real-to-half-spectrum (rfftn / irfftn).  The transform over
the grid axes commutes with combinations along the ladder axis, so a field
transforms its channel square once, on first use, and every functional of
that field forms its window, slab or scale sum from that one spectrum and
takes one inverse FFT.  The field's values are read-only, so the spectrum
cannot go stale.  The kernels depend on the grid and the radii alone and
are kept in a bounded cache, so repeated functionals on one ladder
transform their indicators once.  The box windows in t are summed before
the ball mean, which is linear in the field, so the box functionals need
one ball mean per ladder scale, not one per scale and window point.

At exponent two the square functions are energies and need neither
ball means nor transforms.  Summed over the grid, the mean over the ball
around x of a layer is the sum of that layer, since torus balls of one
radius hold equal point counts and are symmetric, so the T^2 norm squared
is the cone cross-section constant times sum_t w_t ||F(t, .)||^2
(tent_norm at p = 2).  The quadratic estimate sum_t w_t ||psi(t T) h||^2
is a Hermitian form in h: quadratic_norm reads it, and its edge share,
from forms that the eigendecomposition caches per psi, ladder and
weights (calculus.eigen_ladder_energy), with no (K, dof) stack.

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

from .calculus import (
    UNIT_SEMIGROUP, HolomorphicFunctionSpec, eigen_apply_scaled, eigen_ladder_energy,
)
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
    """Samples on the half-space: one grid array per ladder scale, stacked.

    values is the field's own read-only copy of the array given, as the
    field caches the transform of its channel square.
    """

    def __init__(self, grid: GridSpec, ladder: TLadder, values: np.ndarray):
        # C order keeps the channel axis contiguous for the float view
        values = np.array(values, dtype=complex, order="C")
        expected = (len(ladder),) + grid.shape + (grid.channels,)
        if values.shape != expected:
            raise ValueError(f"tent field shape {values.shape}, expected {expected}")
        values.setflags(write=False)
        self.grid = grid
        self.ladder = ladder
        self.values = values

    def channel_square(self) -> np.ndarray:
        """|F(t, x)|^2 summed over channels, shape (K,) + grid_shape.

        One real reduction over the interleaved real and imaginary parts.
        """
        parts = self.values.view(float)
        return np.einsum("...i,...i->...", parts, parts)

    @functools.cached_property
    def square_spectrum(self) -> np.ndarray:
        """rfftn of channel_square() over the grid axes, computed once; read-only."""
        spectrum = scipy.fft.rfftn(self.channel_square(), axes=_grid_axes(self.grid))
        spectrum.setflags(write=False)
        return spectrum


def semigroup_tent_field(T: LinearOperatorHandle, h: Field, ladder: TLadder) -> TentField:
    """Samples of the decay semigroup of T applied to h along the ladder."""
    return TentField(T.grid, ladder, eigen_apply_scaled(T, UNIT_SEMIGROUP, ladder.t, h))


def _grid_axes(grid: GridSpec) -> tuple:
    return tuple(range(-grid.dim, 0))


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
    kernels = scipy.fft.rfftn(masks, axes=_grid_axes(grid)).real / counts.reshape(r.shape)
    kernels.setflags(write=False)
    counts.setflags(write=False)
    return kernels, counts


def _radius_kernels(grid: GridSpec, radii) -> tuple:
    return _ball_kernels(grid, tuple(np.ravel(radii).astype(float)))


def _irfftn(spectrum: np.ndarray, grid: GridSpec) -> np.ndarray:
    return scipy.fft.irfftn(spectrum, s=grid.shape, axes=_grid_axes(grid))


def _along_ladder(weights: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """weights @ spectrum over the ladder axis, for real weights.

    The real and imaginary parts go through one real product: half the
    arithmetic of a complex product, and no complex copy of the weights.
    """
    parts = spectrum.reshape(len(spectrum), -1).view(float)
    return (weights @ parts).view(complex).reshape(weights.shape[:-1] + spectrum.shape[1:])


def _spectral_ball_means(spectrum: np.ndarray, grid: GridSpec, radii) -> tuple:
    """Means over the torus balls of radii[k] of layer k, from its half spectrum.

    spectrum is the rfftn over the grid axes of a real (K,) + grid_shape
    stack; one irfftn serves all K layers.  Balls smaller than the grid
    spacing reduce to the point value.  Returns the means and the point
    count of each ball.
    """
    kernels, counts = _radius_kernels(grid, radii)
    return _irfftn(spectrum * kernels, grid), counts


def square_function(F: TentField, wp: WhitneyParams = WhitneyParams()) -> np.ndarray:
    """Conical square function on the grid.

    Value squared at x: the ladder sum with dt/t weights of the mean of
    |F(t, .)|^2 over the ball of radius aperture * t around x, times the
    cone cross-section constant (unit-ball volume times aperture^n).
    """
    grid = F.grid
    # the ladder sum of the ball means is the mean of one sum of layers
    # in the spectral domain
    kernels, _ = _radius_kernels(grid, wp.aperture * F.ladder.t)
    acc = _irfftn(_along_ladder(F.ladder.weights, F.square_spectrum * kernels), grid)
    cross_section = unit_ball_volume(grid.dim) * wp.aperture**grid.dim
    return np.sqrt(cross_section * acc)


def tent_norm(F: TentField, p: float, wp: WhitneyParams = WhitneyParams()) -> float:
    """L^p norm of the conical square function, 0 < p < infinity.

    At p = 2 it is the ladder energy of F, with no square function formed
    (see the module docstring).
    """
    if not (0 < p < np.inf):
        raise ValueError("p must be in (0, inf)")
    if p == 2:
        parts = F.values.reshape(len(F.ladder), -1).view(float)
        energy = F.ladder.weights @ np.einsum("ij,ij->i", parts, parts)
        cross_section = unit_ball_volume(F.grid.dim) * wp.aperture**F.grid.dim
        return float(np.sqrt(cross_section * F.grid.cell_volume * energy))
    return lp_norm_grid(square_function(F, wp), F.grid, p)


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
    slabs = _along_ladder(slab_weights, F.square_spectrum)
    means, counts = _spectral_ball_means(slabs, grid, radii)
    measure = (counts * grid.cell_volume).reshape((-1,) + (1,) * grid.dim)
    # ball mass over |B|^(1 + 2 alpha / n) reduces to the ball average
    # of the slab over |B|^(2 alpha / n)
    mass = means * measure ** (-2.0 * alpha / grid.dim)
    return float(np.sqrt(max(mass.max(), 0.0)))


# (ladder, c0) pairs whose box window weights stay cached; a table is K x K
BOX_WINDOW_CACHE_SIZE = 32


@functools.lru_cache(maxsize=BOX_WINDOW_CACHE_SIZE)
def _box_window(t: tuple, weights: tuple, c0: float) -> np.ndarray:
    """Row j: the normalized dt weights of the ladder window (t_j / c0, c0 t_j).

    The window holds t_j itself as c0 > 1.  Read-only, as it is shared by
    every later call on the same ladder and c0.
    """
    t = np.asarray(t)
    window = (t > t[:, None] / c0) & (t < t[:, None] * c0)
    W = window * (np.asarray(weights) * t)
    W /= W.sum(axis=1, keepdims=True)
    W.setflags(write=False)
    return W


def _box_maximal(F: TentField, wp: WhitneyParams, alpha: float) -> np.ndarray:
    """nt_maximal with the box mean square at scale t weighted by t^(-2 alpha)."""
    grid = F.grid
    t = F.ladder.t
    # the box mean at t_j is the ball mean of the window-weighted sum of
    # |F|^2, as the ball radius depends on j only
    W = _box_window(tuple(t.tolist()), tuple(F.ladder.weights.tolist()), wp.c0)
    means, _ = _spectral_ball_means(_along_ladder(W, F.square_spectrum), grid, wp.c1 * t)
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
    hp = h.to_physical()
    increment = eigen_apply_scaled(T, UNIT_SEMIGROUP, ladder.t, hp)
    increment -= hp.values
    return _box_maximal(TentField(T.grid, ladder, increment), wp, alpha)


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
    with a tail estimate from the decay class of psi.  Both energies come
    from forms cached per psi object, so repeated calls should pass the
    same spec.
    """
    if not psi.is_psi_class:
        raise ValueError("quadratic norm requires Psi-class decay")
    per_octave = np.log(2.0)
    edge = ladder.weights.copy()
    u = np.log(ladder.t)
    inner_mask = (u > u[0] + per_octave) & (u < u[-1] - per_octave)
    edge[inner_mask] = 0.0
    total, edge_total = eigen_ladder_energy(T, psi, ladder.t, np.stack([ladder.weights, edge]), h)
    if total > 0:
        share = edge_total / total
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
    return float(total)

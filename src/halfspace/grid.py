"""Periodic grids, vector-valued fields and discrete function-space norms.

The computational domain is the flat torus [0, 2pi)^n with G points per
axis, n = 1 or 2.  Fields take values in C^N with N = m(1+n) channels:
the first m channels form the scalar ("perpendicular") slot and the
remaining m*n channels the tangential slot, grouped by direction.

A field lives either on the grid ("physical") or as Fourier-series
coefficients ("spectral").  Transforms use the series normalization
f(x) = sum_k fhat(k) exp(i k.x), which makes first-order differential
operators exact integer-frequency multipliers.

Every transform in the package runs through one backend: scipy.fft with
norm="forward", over the grid axes of a grid_shape + (channels,) array
with any leading batch axes, on one thread.  fft_values and ifft_values
are the complex pair; the ball means of the tent functionals use the
real pair rfftn / irfftn of the same module, and the dense assembly of
operators takes a symbol's kernel with its fftn / ifftn over the leading
grid axes of a grid_shape + (N, N) array.

Tables that depend on the grid alone (frequencies, their norms, torus
distances) are built once per GridSpec and shared read-only.  Every dense
object of the package, a dof x dof matrix or the r x r compression of a
multiplier, is refused beyond DENSE_LIMIT by check_dense_size before it is
allocated.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers

import numpy as np
import scipy.fft

TWO_PI = 2.0 * np.pi

# grids whose x-independent tables stay cached at once; each table is
# O(G^n N^2) at most, so a few grids in use cost little
GRID_CACHE_SIZE = 16


def cached_per_grid(build):
    """Run build(grid) once per GridSpec and share the result.

    An ndarray result is made read-only, so that an in-place write raises
    ValueError instead of corrupting every later caller.
    """

    def frozen(grid):
        out = build(grid)
        if isinstance(out, np.ndarray):
            out.setflags(write=False)
        return out

    return functools.lru_cache(maxsize=GRID_CACHE_SIZE)(functools.wraps(build)(frozen))


class GridError(ValueError):
    """Raised for invalid grid or field construction."""


class RepresentationError(ValueError):
    """Raised when an operation receives the wrong representation."""


@dataclasses.dataclass(frozen=True)
class GridSpec:
    """Discretization parameters: boundary dimension, points per axis, system size.

    Channel count is N = m(1+n); total degrees of freedom N * G^n.
    """

    dim: int
    points: int
    system_size: int = 1

    def __post_init__(self):
        for name in ("dim", "points", "system_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise GridError(f"{name} must be an integer, got {value!r}")
        if self.dim not in (1, 2):
            raise GridError(f"boundary dimension must be 1 or 2, got {self.dim}")
        G = self.points
        if G < 8 or (G & (G - 1)) != 0:
            raise GridError(f"points per axis must be a power of two >= 8, got {G}")
        if self.system_size < 1:
            raise GridError("system size must be >= 1")

    @property
    def channels(self) -> int:
        return self.system_size * (1 + self.dim)

    @property
    def shape(self) -> tuple:
        return (self.points,) * self.dim

    @property
    def dof(self) -> int:
        return self.channels * self.points**self.dim

    @property
    def cell_volume(self) -> float:
        return (TWO_PI / self.points) ** self.dim

    def axes_coordinates(self) -> np.ndarray:
        return np.arange(self.points) * (TWO_PI / self.points)

    def coordinates(self) -> tuple:
        """Meshgrid of physical coordinates, one array per axis."""
        x = self.axes_coordinates()
        return np.meshgrid(*([x] * self.dim), indexing="ij")

    @cached_per_grid
    def frequencies(self) -> np.ndarray:
        """Integer frequency vectors, shape grid_shape + (dim,); read-only."""
        k1 = np.fft.fftfreq(self.points, d=1.0 / self.points)
        axes = np.meshgrid(*([k1] * self.dim), indexing="ij")
        return np.stack(axes, axis=-1)

    @cached_per_grid
    def frequency_norms(self) -> np.ndarray:
        """|k| per frequency, shape grid_shape; read-only."""
        return np.sqrt((self.frequencies() ** 2).sum(axis=-1))

    @cached_per_grid
    def torus_distance_table(self) -> np.ndarray:
        """Distance from the origin grid point, with wraparound; read-only."""
        d1 = self.axes_coordinates()
        d1 = np.minimum(d1, TWO_PI - d1)
        axes = np.meshgrid(*([d1] * self.dim), indexing="ij")
        return np.sqrt(sum(a**2 for a in axes))


# degrees of freedom above which no dense dof x dof or r x r object is built
DENSE_LIMIT = 8192


class OperatorError(RuntimeError):
    pass


def check_dense_size(grid: GridSpec) -> None:
    """Raise OperatorError, before allocating, when grid.dof exceeds the dense limit.

    The message states the dof and the memory of one dense complex matrix.
    """
    dim = grid.dof
    if dim > DENSE_LIMIT:
        gib = dim * dim * np.dtype(complex).itemsize / 2**30
        raise OperatorError(
            f"dense assembly of size {dim} exceeds limit {DENSE_LIMIT}: one dense "
            f"matrix would take {gib:.2f} GiB; the contour calculus and the eigen path "
            "of DB and BD need it or the dense r x r compression of B; beyond the limit only "
            "resolvent_solve (GMRES) and the eigen calculus of D, P and D^+ run"
        )


PHYSICAL = "physical"
SPECTRAL = "spectral"

_FFT_NORM = "forward"


def _grid_axes(grid: GridSpec) -> tuple:
    return tuple(range(-1 - grid.dim, -1))


def fft_values(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Physical -> spectral over the grid axes of a (..., grid_shape, channels) array."""
    return scipy.fft.fftn(values, axes=_grid_axes(grid), norm=_FFT_NORM)


def ifft_values(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Spectral -> physical, the inverse of fft_values."""
    return scipy.fft.ifftn(values, axes=_grid_axes(grid), norm=_FFT_NORM)


def check_finite(values: np.ndarray) -> None:
    """Raise GridError naming the first non-finite entry of values."""
    if not np.all(np.isfinite(values)):
        bad = np.argwhere(~np.isfinite(values))[0]
        raise GridError(f"non-finite entry at index {tuple(bad.tolist())}")


class Field:
    """A C^N-valued function on the grid, physical or spectral.

    Values are immutable by convention: operations return new fields.
    Shape is grid_shape + (channels,).
    """

    __slots__ = ("grid", "values", "rep")

    def __init__(self, grid: GridSpec, values: np.ndarray, rep: str):
        values = np.asarray(values, dtype=complex)
        if values.shape != grid.shape + (grid.channels,):
            raise GridError(
                f"field shape {values.shape} does not match grid "
                f"{grid.shape + (grid.channels,)}"
            )
        if rep not in (PHYSICAL, SPECTRAL):
            raise GridError(f"unknown representation {rep!r}")
        check_finite(values)
        self.grid = grid
        self.values = values
        self.rep = rep

    @classmethod
    def physical(cls, grid: GridSpec, values: np.ndarray) -> "Field":
        return cls(grid, values, PHYSICAL)

    @classmethod
    def spectral(cls, grid: GridSpec, values: np.ndarray) -> "Field":
        return cls(grid, values, SPECTRAL)

    def to_spectral(self) -> "Field":
        if self.rep == SPECTRAL:
            return self
        return Field(self.grid, fft_values(self.values, self.grid), SPECTRAL)

    def to_physical(self) -> "Field":
        if self.rep == PHYSICAL:
            return self
        return Field(self.grid, ifft_values(self.values, self.grid), PHYSICAL)

    def in_rep(self, rep: str) -> "Field":
        return self.to_spectral() if rep == SPECTRAL else self.to_physical()

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy(), self.rep)

    def flat(self) -> np.ndarray:
        """Flattened physical values (grid-major, channel-minor)."""
        return self.to_physical().values.reshape(-1)

    @classmethod
    def from_flat(cls, grid: GridSpec, vec: np.ndarray) -> "Field":
        return cls(grid, np.asarray(vec, dtype=complex).reshape(grid.shape + (grid.channels,)), PHYSICAL)

    def mean(self) -> np.ndarray:
        """Per-channel mean, equal to the zero-frequency coefficient."""
        if self.rep == SPECTRAL:
            return self.values[(0,) * self.grid.dim]
        return self.values.mean(axis=tuple(range(self.grid.dim)))

    def remove_mean(self) -> "Field":
        s = self.to_spectral().values.copy()
        s[(0,) * self.grid.dim] = 0.0
        return Field(self.grid, s, SPECTRAL).in_rep(self.rep)

    # minimal arithmetic, preserving representation
    def __add__(self, other: "Field") -> "Field":
        o = other.in_rep(self.rep)
        return Field(self.grid, self.values + o.values, self.rep)

    def __sub__(self, other: "Field") -> "Field":
        o = other.in_rep(self.rep)
        return Field(self.grid, self.values - o.values, self.rep)

    def __mul__(self, c) -> "Field":
        return Field(self.grid, self.values * c, self.rep)

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return Field(self.grid, -self.values, self.rep)


def forward_transform(f: Field) -> Field:
    """Physical -> spectral, unitary in the L2 norms below."""
    if f.rep != PHYSICAL:
        raise RepresentationError("forward_transform expects a physical field")
    return f.to_spectral()


def inverse_transform(f: Field) -> Field:
    if f.rep != SPECTRAL:
        raise RepresentationError("inverse_transform expects a spectral field")
    return f.to_physical()


def inner(f: Field, g: Field) -> complex:
    """L2 pairing over the torus, conjugate-linear in the first slot."""
    if f.rep == g.rep == SPECTRAL:
        return complex(TWO_PI ** f.grid.dim * np.vdot(f.values, g.values))
    fp, gp = f.to_physical(), g.to_physical()
    return complex(fp.grid.cell_volume * np.vdot(fp.values, gp.values))


def l2_norm(f: Field) -> float:
    """L2 norm over the torus; identical in both representations."""
    if f.rep == SPECTRAL:
        return float(np.sqrt(TWO_PI ** f.grid.dim) * np.linalg.norm(f.values))
    return float(np.sqrt(f.grid.cell_volume) * np.linalg.norm(f.values))


def sobolev_norm(f: Field, s: float) -> float:
    """Homogeneous Sobolev norm of order s, as an |k|^s spectral weight.

    For s != 0 the zero-frequency coefficient must vanish: homogeneous
    norms on the torus are norms on the mean-zero subspace.
    """
    if s == 0:
        return l2_norm(f)
    fs = f.to_spectral()
    mean = fs.values[(0,) * f.grid.dim]
    scale = np.linalg.norm(fs.values)
    if np.linalg.norm(mean) > 1e-13 * max(scale, 1e-300):
        raise ValueError("nonzero mean in homogeneous norm")
    kn = f.grid.frequency_norms()
    w = np.zeros_like(kn)
    nz = kn > 0
    w[nz] = kn[nz] ** s
    weighted = fs.values * w[..., None]
    return float(np.sqrt(TWO_PI ** f.grid.dim) * np.linalg.norm(weighted))


def lp_norm_grid(values: np.ndarray, grid: GridSpec, p: float) -> float:
    """L^p norm of a scalar sample array over the torus, 0 < p < inf."""
    a = np.abs(np.asarray(values, dtype=float))
    return float((grid.cell_volume * (a**p).sum()) ** (1.0 / p))


def random_field(grid: GridSpec, rng: np.random.Generator, mean_zero: bool = False) -> Field:
    """Standard complex Gaussian samples per grid point and channel."""
    shape = grid.shape + (grid.channels,)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    f = Field.physical(grid, values)
    return f.remove_mean() if mean_zero else f


@dataclasses.dataclass(frozen=True)
class TLadder:
    """Logarithmic transversal scales t_1 < ... < t_K with dt/t weights.

    Trapezoid weights in log t, so the weights sum exactly to
    log(t_K / t_1).  t and weights are kept as the ladder's own read-only
    float arrays, whatever sequences were passed in.
    """

    t: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        t = np.array(self.t, dtype=float)
        w = np.array(self.weights, dtype=float)
        if t.ndim != 1 or len(t) < 2 or not (np.all(np.diff(t) > 0) and 0 < t[0]
                                             and t[-1] < np.inf):
            raise GridError("ladder must be strictly increasing, positive and finite")
        if w.shape != t.shape or not np.all(w > 0):
            raise GridError("ladder weights must be positive, one per scale")
        total = np.log(t[-1] / t[0])
        if not abs(w.sum() - total) <= 1e-12 * max(total, 1.0):
            raise GridError("ladder weights must sum to log(t_max/t_min)")
        for name, array in (("t", t), ("weights", w)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def __len__(self) -> int:
        return len(self.t)

    @classmethod
    def logspaced(cls, t_min: float, t_max: float, per_octave: int = 2) -> "TLadder":
        if not 0 < t_min < t_max:
            raise GridError(f"ladder needs 0 < t_min < t_max, got {t_min}, {t_max}")
        if not 0 < per_octave < np.inf:
            raise GridError(f"ladder needs a finite per_octave > 0, got {per_octave}")
        octaves = np.log2(t_max / t_min)
        count = max(int(round(octaves * per_octave)), 1) + 1
        u = np.linspace(np.log(t_min), np.log(t_max), count)
        du = u[1] - u[0]
        w = np.full(count, du)
        w[0] *= 0.5
        w[-1] *= 0.5
        return cls(t=np.exp(u), weights=w)

    @classmethod
    def default(cls, per_octave: int = 2) -> "TLadder":
        """Covers [2^-12, 2^8]: the spectral band [1, G/2] with margin."""
        return cls.logspaced(2.0**-12, 2.0**8, per_octave)

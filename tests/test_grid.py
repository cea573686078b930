import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace.grid import (
    Field,
    GridError,
    GridSpec,
    RepresentationError,
    TLadder,
    fft_values,
    forward_transform,
    ifft_values,
    inner,
    inverse_transform,
    l2_norm,
    random_field,
    sobolev_norm,
)


def test_grid_validation():
    with pytest.raises(GridError):
        GridSpec(dim=3, points=16)
    with pytest.raises(GridError):
        GridSpec(dim=1, points=48)  # not a power of two
    with pytest.raises(GridError):
        GridSpec(dim=1, points=4)  # below minimum
    g = GridSpec(dim=2, points=8, system_size=2)
    assert g.channels == 6
    assert g.dof == 6 * 64


TRANSFORM_GRIDS = [
    GridSpec(dim=1, points=32),
    GridSpec(dim=2, points=8),
    GridSpec(dim=1, points=16, system_size=2),
]


@pytest.mark.parametrize("grid", TRANSFORM_GRIDS, ids=lambda g: f"{g.dim}d-g{g.points}-m{g.system_size}")
def test_fft_values_match_numpy_and_round_trip(grid):
    rng = np.random.default_rng(5)
    shape = (3,) + grid.shape + (grid.channels,)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    axes = tuple(range(1, grid.dim + 1))
    for ours, reference in (
        (fft_values, np.fft.fftn(values, axes=axes, norm="forward")),
        (ifft_values, np.fft.ifftn(values, axes=axes, norm="forward")),
    ):
        out = ours(values, grid)
        assert np.linalg.norm(out - reference) <= 1e-15 * np.linalg.norm(reference)
    back = ifft_values(fft_values(values, grid), grid)
    assert np.linalg.norm(back - values) <= 1e-15 * np.linalg.norm(values)


def test_parseval_thousand_fields(g32):
    rng = np.random.default_rng(0)
    for _ in range(1000):
        f = random_field(g32, rng)
        fs = f.to_spectral()
        assert abs(l2_norm(f) - l2_norm(fs)) <= 1e-12 * l2_norm(f)


def test_round_trip_identity(g32, rng):
    f = random_field(g32, rng)
    back = inverse_transform(forward_transform(f))
    assert np.abs(back.values - f.values).max() <= 1e-12 * np.abs(f.values).max()


def test_constant_field_spectral_mass_at_zero(g32):
    vals = np.full(g32.shape + (g32.channels,), 2.5 + 1j)
    fs = Field.physical(g32, vals).to_spectral()
    nonzero = fs.values.copy()
    nonzero[(0,) * g32.dim] = 0.0
    assert np.abs(nonzero).max() < 1e-13
    assert np.allclose(fs.values[(0,) * g32.dim], 2.5 + 1j)


def test_single_mode_single_coefficient(g32):
    x = g32.coordinates()[0]
    vals = np.zeros(g32.shape + (2,), dtype=complex)
    vals[..., 0] = np.exp(1j * x)
    fs = Field.physical(g32, vals).to_spectral()
    mask = np.abs(fs.values) > 1e-12
    assert mask.sum() == 1
    assert mask[1, 0]


def test_transform_rejects_wrong_representation(g32, rng):
    f = random_field(g32, rng)
    with pytest.raises(RepresentationError):
        forward_transform(f.to_spectral())
    with pytest.raises(RepresentationError):
        inverse_transform(f)


def test_non_finite_rejected(g32):
    vals = np.zeros(g32.shape + (2,), dtype=complex)
    vals[3, 1] = np.nan
    with pytest.raises(GridError, match="non-finite"):
        Field.physical(g32, vals)


def test_sobolev_single_modes(g32):
    x = g32.coordinates()[0]
    vals = np.zeros(g32.shape + (2,), dtype=complex)
    vals[..., 0] = np.exp(1j * x)
    f = Field.physical(g32, vals)
    assert sobolev_norm(f, -0.5) == pytest.approx(l2_norm(f), rel=1e-12)

    vals2 = np.zeros(g32.shape + (2,), dtype=complex)
    vals2[..., 0] = np.exp(2j * x)
    f2 = Field.physical(g32, vals2)
    assert sobolev_norm(f2, 1.0) == pytest.approx(2.0 * l2_norm(f2), rel=1e-12)


def test_sobolev_rejects_nonzero_mean(g32):
    vals = np.ones(g32.shape + (2,), dtype=complex)
    with pytest.raises(ValueError, match="nonzero mean"):
        sobolev_norm(Field.physical(g32, vals), -0.5)


def test_sobolev_duality(g32, rng):
    for s in (0.5, -0.5, 1.0):
        f = random_field(g32, rng, mean_zero=True)
        g = random_field(g32, rng, mean_zero=True)
        lhs = abs(inner(f, g))
        rhs = sobolev_norm(f, s) * sobolev_norm(g, -s)
        assert lhs <= rhs * (1 + 1e-12)


def test_ladder_weights_sum():
    lad = TLadder.default()
    assert lad.t[0] == pytest.approx(2.0**-12)
    assert lad.t[-1] == pytest.approx(2.0**8)
    assert lad.weights.sum() == pytest.approx(np.log(lad.t[-1] / lad.t[0]), rel=1e-13)
    assert np.all(lad.weights > 0)
    fine = TLadder.logspaced(0.25, 4.0, per_octave=8)
    assert len(fine) == 33
    assert fine.weights.sum() == pytest.approx(np.log(16.0), rel=1e-13)


def test_ladder_validation():
    with pytest.raises(GridError):
        TLadder(t=np.array([1.0, 0.5]), weights=np.array([0.1, 0.1]))
    with pytest.raises(GridError):
        TLadder(t=np.array([0.5, 1.0]), weights=np.array([0.1, 0.1]))


def restrict(ladder, t_min, t_max):
    """The scales of ladder within [t_min, t_max], with their own trapezoid weights."""
    mask = (ladder.t >= t_min) & (ladder.t <= t_max)
    t = ladder.t[mask]
    u = np.log(t)
    du = np.diff(u)
    w = np.zeros_like(t)
    w[:-1] += 0.5 * du
    w[1:] += 0.5 * du
    return TLadder(t=t, weights=w)


def test_ladder_restrict():
    lad = TLadder.default(per_octave=4)
    sub = restrict(lad, 0.25, 4.0)
    assert sub.t[0] >= 0.25 and sub.t[-1] <= 4.0
    assert sub.weights.sum() == pytest.approx(np.log(sub.t[-1] / sub.t[0]), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    re=st.floats(-1e3, 1e3, allow_nan=False),
    im=st.floats(-1e3, 1e3, allow_nan=False),
    k=st.integers(-15, 15),
)
def test_parseval_single_modes_hypothesis(re, im, k):
    grid = GridSpec(dim=1, points=32)
    x = grid.coordinates()[0]
    vals = np.zeros(grid.shape + (2,), dtype=complex)
    vals[..., 1] = (re + 1j * im) * np.exp(1j * k * x)
    f = Field.physical(grid, vals)
    assert abs(l2_norm(f) - l2_norm(f.to_spectral())) <= 1e-11 * max(l2_norm(f), 1e-9)


def test_mean_and_remove_mean(g32, rng):
    f = random_field(g32, rng)
    g = f.remove_mean()
    assert np.abs(g.mean()).max() < 1e-13
    assert np.allclose((f - g).to_physical().values, f.mean(), atol=1e-12)


@pytest.mark.parametrize("table", ["frequencies", "frequency_norms", "torus_distance_table"])
def test_grid_tables_are_shared_and_read_only(table):
    a = getattr(GridSpec(dim=2, points=8), table)()
    assert getattr(GridSpec(dim=2, points=8, system_size=1), table)() is a
    assert getattr(GridSpec(dim=2, points=16), table)() is not a
    with pytest.raises(ValueError):
        a[(0,) * a.ndim] = 1.0
    with pytest.raises(ValueError):
        a += 1.0

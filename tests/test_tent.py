import numpy as np
import pytest
import scipy.fft

import halfspace.calculus as fc
from halfspace.bvp import FirstOrderSystem
from halfspace.coefficients import perturbation_of_identity
from halfspace.grid import Field, GridSpec, TLadder, l2_norm, lp_norm_grid, random_field
from halfspace.operators import bd_operator, d_operator, p_operator
from halfspace.tent import (
    TentField,
    WhitneyParams,
    carleson_norm,
    nt_maximal,
    nt_sharp,
    quadratic_norm,
    semigroup_tent_field,
    square_function,
    tent_norm,
    unit_ball_volume,
)

from conftest import count_ladder_work


def tent_from_function(grid, ladder, fn):
    """TentField of fn(t, coordinate arrays) -> channel array, one per scale."""
    coords = grid.coordinates()
    vals = np.stack([np.asarray(fn(t, *coords), dtype=complex) for t in ladder.t])
    return TentField(grid, ladder, vals)


def spacetime_square_integral(F) -> float:
    """Plain integral of |F|^2 dt dx / t over the sampled half-space."""
    sq = F.channel_square()
    per_scale = sq.reshape(len(F.ladder), -1).sum(axis=1) * F.grid.cell_volume
    return float((F.ladder.weights * per_scale).sum())


def tent_duality_pairing(F, G) -> complex:
    """Space-time pairing of two tent fields with dt dx / t."""
    prod = (F.values * np.conj(G.values)).sum(axis=tuple(range(1, F.values.ndim)))
    return complex((F.ladder.weights * prod).sum() * F.grid.cell_volume)


def direct_square_function(F, wp):
    """Independent cone sum: explicit loops over centers, scales, ball points."""
    grid = F.grid
    sq = F.channel_square()
    table = grid.torus_distance_table()
    npts = grid.points**grid.dim
    out2 = np.zeros(npts)
    sq_flat = sq.reshape(len(F.ladder), npts)
    for center in range(npts):
        # torus distance from this center to every point, by rolling
        idx = np.unravel_index(center, grid.shape)
        rolled = np.roll(
            table, shift=tuple(idx), axis=tuple(range(grid.dim))
        ).reshape(-1)
        acc = 0.0
        for j, (t, w) in enumerate(zip(F.ladder.t, F.ladder.weights)):
            ball = rolled <= wp.aperture * t + 1e-12
            acc += w * sq_flat[j][ball].mean()
        out2[center] = acc
    cross = unit_ball_volume(grid.dim) * wp.aperture**grid.dim
    return np.sqrt(cross * out2).reshape(grid.shape)


def slab_tent_field(grid, ladder, level=1.0):
    def fn(t, *coords):
        vals = np.zeros(coords[0].shape + (grid.channels,), dtype=complex)
        if 1.0 <= t <= 2.0:
            vals[...] = level
        return vals

    return tent_from_function(grid, ladder, fn)


def test_zero_field_zero_square_function(g32):
    ladder = TLadder.default()
    F = TentField(g32, ladder, np.zeros((len(ladder),) + g32.shape + (2,)))
    assert np.abs(square_function(F)).max() == 0.0
    assert tent_norm(F, 2.0) == 0.0
    assert carleson_norm(F) == 0.0


def test_slab_square_function_closed_form(g32):
    ladder = TLadder.logspaced(2.0**-6, 2.0**4, per_octave=2)
    F = slab_tent_field(g32, ladder, level=3.0)
    wp = WhitneyParams()
    sf = square_function(F, wp)
    # constant-in-space slab: closed form = channels * level^2 * sum of
    # dt/t weights over [1, 2], times the cone cross-section constant
    wsum = ladder.weights[(ladder.t >= 1.0) & (ladder.t <= 2.0)].sum()
    expected = np.sqrt(2.0 * 9.0 * wsum * unit_ball_volume(1))
    assert np.allclose(sf, expected, rtol=1e-12)
    assert wsum == pytest.approx(np.log(2.0), rel=1e-12)
    # and against the independent direct cone sum
    direct = direct_square_function(F, wp)
    assert np.allclose(sf, direct, rtol=1e-10)


def test_square_function_matches_direct_sum_random(g32, rng):
    ladder = TLadder.logspaced(2.0**-4, 2.0**2, per_octave=2)
    vals = rng.standard_normal((len(ladder),) + g32.shape + (2,)) + 1j * rng.standard_normal(
        (len(ladder),) + g32.shape + (2,)
    )
    F = TentField(g32, ladder, vals)
    wp = WhitneyParams(aperture=1.0)
    assert np.allclose(square_function(F, wp), direct_square_function(F, wp), rtol=1e-9)


def test_square_function_monotone_in_modulus(g32, rng):
    ladder = TLadder.logspaced(0.25, 4.0, 2)
    vals = rng.standard_normal((len(ladder),) + g32.shape + (2,))
    F_small = TentField(g32, ladder, vals)
    F_big = TentField(g32, ladder, 2.0 * vals)
    assert np.all(square_function(F_big) >= square_function(F_small) - 1e-14)


def test_aperture_doubling_factor(g32, g8x2, rng):
    for grid in (g32, g8x2):
        ladder = TLadder.logspaced(2.0**-5, 2.0**3, 2)
        shape = (len(ladder),) + grid.shape + (grid.channels,)
        F = TentField(grid, ladder, rng.standard_normal(shape))
        n1 = tent_norm(F, 2.0, WhitneyParams(aperture=1.0))
        n2 = tent_norm(F, 2.0, WhitneyParams(aperture=2.0))
        factor = n2 / n1
        assert 1.0 <= factor + 1e-12
        assert factor <= 2 ** (grid.dim / 2.0) * 1.1


def test_tent_p2_fubini(g32, rng):
    ladder = TLadder.logspaced(2.0**-5, 2.0**3, 2)
    shape = (len(ladder),) + g32.shape + (2,)
    F = TentField(g32, ladder, rng.standard_normal(shape) + 0.3)
    lhs = tent_norm(F, 2.0) ** 2
    rhs = unit_ball_volume(1) * spacetime_square_integral(F)
    assert abs(lhs - rhs) <= 0.01 * rhs


@pytest.mark.parametrize("grid", [GridSpec(dim=1, points=32), GridSpec(dim=2, points=8)],
                         ids=["g32", "g8x2"])
def test_tent_norm_p2_is_the_ladder_energy(grid, rng):
    # sum over x of a ball mean is the sum of the values: no square function needed
    ladder = TLadder.logspaced(2.0**-5, 2.0**3, 2)
    shape = (len(ladder),) + grid.shape + (grid.channels,)
    F = TentField(grid, ladder, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    for aperture in (1.0, 2.0):
        wp = WhitneyParams(aperture=aperture)
        ref = lp_norm_grid(square_function(F, wp), grid, 2)
        assert tent_norm(F, 2.0, wp) == pytest.approx(ref, rel=1e-12, abs=0)


def test_tent_norm_scaling(g32, rng):
    ladder = TLadder.logspaced(0.5, 8.0, 2)
    shape = (len(ladder),) + g32.shape + (2,)
    F = TentField(g32, ladder, rng.standard_normal(shape))
    for p in (0.7, 2.0, 4.0):
        base = tent_norm(F, p)
        scaled = tent_norm(TentField(g32, ladder, 3.0 * F.values), p)
        assert scaled == pytest.approx(3.0 * base, rel=1e-12)


def test_tent_duality_pairing_bound(g32, rng):
    ladder = TLadder.logspaced(0.25, 4.0, 2)
    shape = (len(ladder),) + g32.shape + (2,)
    for _ in range(5):
        F = TentField(g32, ladder, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        G = TentField(g32, ladder, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        pairing = abs(tent_duality_pairing(F, G))
        bound = tent_norm(F, 4.0) * tent_norm(G, 4.0 / 3.0) / unit_ball_volume(1)
        assert pairing <= bound * (1 + 1e-10)


def direct_carleson(F, alpha):
    grid = F.grid
    sq = F.channel_square()
    table = grid.torus_distance_table()
    best = 0.0
    h = 2 * np.pi / grid.points
    radii = []
    r = h
    while r <= 2 * np.pi + 1e-12:
        radii.append(r)
        r *= 2
    npts = grid.points**grid.dim
    for center in range(npts):
        idx = np.unravel_index(center, grid.shape)
        rolled = np.roll(table, shift=tuple(idx), axis=tuple(range(grid.dim))).reshape(-1)
        for r in radii:
            ball = rolled <= r + 1e-12
            measure = ball.sum() * grid.cell_volume
            tsel = F.ladder.t <= r + 1e-12
            mass = 0.0
            for j in np.nonzero(tsel)[0]:
                mass += F.ladder.weights[j] * sq[j].reshape(-1)[ball].sum() * grid.cell_volume
            best = max(best, mass / measure ** (1 + 2 * alpha / grid.dim))
    return np.sqrt(best)


def test_carleson_constant_field(g32):
    ladder = TLadder.logspaced(2.0**-5, 2.0**3, 2)
    F = TentField(g32, ladder, np.ones((len(ladder),) + g32.shape + (2,)))
    val = carleson_norm(F, 0.0)
    assert val == pytest.approx(direct_carleson(F, 0.0), rel=1e-10)


def test_carleson_alpha_zero_is_unweighted(g32, rng):
    ladder = TLadder.logspaced(0.125, 2.0, 2)
    shape = (len(ladder),) + g32.shape + (2,)
    F = TentField(g32, ladder, rng.standard_normal(shape))
    assert carleson_norm(F, 0.0) == pytest.approx(direct_carleson(F, 0.0), rel=1e-10)


def test_carleson_single_box(g32):
    ladder = TLadder.logspaced(0.125, 2.0, 2)
    vals = np.zeros((len(ladder),) + g32.shape + (2,))
    j = len(ladder) // 2
    vals[j, 3:6, 0] = 2.0
    F = TentField(g32, ladder, vals)
    for alpha in (0.0, 0.5):
        assert carleson_norm(F, alpha) == pytest.approx(
            direct_carleson(F, alpha), rel=1e-10
        )


def test_nt_maximal_constant(g32):
    ladder = TLadder.logspaced(2.0**-5, 2.0**3, 2)
    c = 1.5 - 2.0j
    F = TentField(g32, ladder, np.full((len(ladder),) + g32.shape + (2,), c))
    nt = nt_maximal(F)
    assert np.allclose(nt, abs(c) * np.sqrt(2.0), rtol=1e-12)


def test_nt_maximal_decaying_profile(g32):
    # exp(-t) profile: the sup of box averages sits at the smallest scale
    ladder = TLadder.logspaced(2.0**-6, 2.0**2, 4)

    def fn(t, *coords):
        vals = np.zeros(coords[0].shape + (2,), dtype=complex)
        vals[..., 0] = np.exp(-t)
        return vals

    F = tent_from_function(g32, ladder, fn)
    nt = nt_maximal(F, WhitneyParams(c0=2.0, c1=1.0))
    t0 = ladder.t[0]
    window = (ladder.t > t0 / 2) & (ladder.t < t0 * 2)
    w = (ladder.weights * ladder.t)[window]
    ref = np.sqrt((w * np.exp(-2 * ladder.t[window])).sum() / w.sum())
    assert np.allclose(nt, ref, rtol=1e-12)
    assert abs(nt[0] - np.exp(-t0)) <= 0.05


def test_nt_maximal_two_sided_for_flow(g64):
    rng = np.random.default_rng(21)
    D = d_operator(g64)
    ladder = TLadder.default()
    for _ in range(20):
        h = p_operator(g64).apply(random_field(g64, rng))
        F = semigroup_tent_field(D, h, ladder)
        ratio = lp_norm_grid(nt_maximal(F), g64, 2) / l2_norm(h)
        assert 0.1 <= ratio <= 10.0


def test_nt_sharp_vanishes_on_null_space(perturbed_system_32, rng):
    grid = perturbed_system_32.grid
    h = random_field(grid, rng)
    null = h - p_operator(grid).apply(h)
    ladder = TLadder.logspaced(2.0**-4, 2.0**2, 2)
    sharp = nt_sharp(null, perturbed_system_32.bd, ladder)
    assert np.abs(sharp).max() <= 1e-10 * max(l2_norm(null), 1e-300)


def test_nt_sharp_projection_relation(perturbed_system_32, rng):
    grid = perturbed_system_32.grid
    h = random_field(grid, rng)
    Ph = p_operator(grid).apply(h)
    ladder = TLadder.logspaced(2.0**-4, 2.0**2, 2)
    a = nt_sharp(h, perturbed_system_32.bd, ladder)
    b = nt_sharp(Ph, perturbed_system_32.bd, ladder)
    assert np.abs(a - b).max() <= 1e-8 * max(np.abs(a).max(), 1e-300)


def test_nt_sharp_converts_spectral_probe_once(perturbed_system_32, rng, monkeypatch):
    import halfspace.grid as grid_mod
    import halfspace.tent as tent_mod

    grid = perturbed_system_32.grid
    T = perturbed_system_32.bd
    h = random_field(grid, rng).to_spectral()
    ladder = TLadder.logspaced(2.0**-4, 2.0**2, 2)
    wp = WhitneyParams()
    increment = fc.eigen_apply_scaled(T, fc.UNIT_SEMIGROUP, ladder.t, h)
    increment -= h.to_physical().values
    expected = tent_mod._box_maximal(TentField(grid, ladder, increment), wp, 0.0)

    inverse = grid_mod.ifft_values
    conversions = []

    def counting(values, g):
        if values is h.values:
            conversions.append(1)
        return inverse(values, g)

    monkeypatch.setattr(grid_mod, "ifft_values", counting)
    sharp = nt_sharp(h, T, ladder, wp)
    assert len(conversions) == 1
    assert np.array_equal(sharp, expected)


def test_range_probe_takes_no_inverse_transform(perturbed_system_32, rng, monkeypatch):
    # P.apply returns physical values, so no functional converts the probe back
    import halfspace.grid as grid_mod

    grid = perturbed_system_32.grid
    db, bd = perturbed_system_32.db, perturbed_system_32.bd
    ladder = TLadder.logspaced(2.0**-12, 2.0**8, 2)
    psi = fc.z_over_one_plus_z2()
    fc.eigen_data(db)
    fc.eigen_data(bd)
    h = p_operator(grid).apply(random_field(grid, rng))
    inverse = grid_mod.ifft_values
    conversions = []

    def counting(values, g):
        conversions.append(values.shape)
        return inverse(values, g)

    for module in (grid_mod, fc):
        monkeypatch.setattr(module, "ifft_values", counting)
    semigroup_tent_field(db, h, ladder)
    quadratic_norm(db, psi, h, ladder)
    nt_sharp(h, bd, ladder)
    assert conversions == []


def test_nt_sharp_alpha_weight_shifts_to_small_scales(g32):
    # single high mode: the weighted sup must move to the smallest scales,
    # verified against a direct sweep of the weighted box averages
    from halfspace.coefficients import hat_transform, identity_coefficients
    from halfspace.grid import Field

    x = g32.coordinates()[0]
    vals = np.zeros(g32.shape + (2,), dtype=complex)
    vals[..., 0] = np.exp(8j * x)
    vals[..., 1] = -1j * np.exp(8j * x)
    h = Field.physical(g32, vals)
    T = bd_operator(hat_transform(identity_coefficients(g32)))
    ladder = TLadder.logspaced(2.0**-6, 2.0**2, 4)
    alpha = 0.5
    sharp = nt_sharp(h, T, ladder, alpha=alpha)

    from halfspace.calculus import semigroup

    fields = [(semigroup(T, t, h) - h).values for t in ladder.t]
    F = TentField(g32, ladder, np.stack(fields))
    sq = F.channel_square()
    w_lin = ladder.weights * ladder.t
    best = np.zeros(g32.shape)
    argbest = np.zeros(g32.shape, dtype=int)
    for j, tj in enumerate(ladder.t):
        window = (ladder.t > tj / 2.0) & (ladder.t < tj * 2.0)
        acc = np.zeros(g32.shape)
        tot = 0.0
        for s in np.nonzero(window)[0]:
            acc += w_lin[s] * complex_fft_ball_averages(sq[s][None], g32, [tj])[0][0]
            tot += w_lin[s]
        cand = tj ** (-2 * alpha) * acc / tot
        upd = cand > best
        best[upd] = cand[upd]
        argbest[upd] = j
    assert np.allclose(sharp, np.sqrt(best), rtol=1e-10)
    # the weighted sup concentrates at scales below the mode wavelength
    assert ladder.t[argbest.max()] <= 1.0


def test_quadratic_single_mode_half(g32):
    from halfspace.grid import Field

    x = g32.coordinates()[0]
    vals = np.zeros(g32.shape + (2,), dtype=complex)
    vals[..., 0] = np.exp(1j * x)
    vals[..., 1] = -1j * np.exp(1j * x)
    h = Field.physical(g32, vals)
    val = quadratic_norm(d_operator(g32), fc.z_over_one_plus_z2(), h, TLadder.default())
    assert abs(val / l2_norm(h) ** 2 - 0.5) <= 0.005


def test_quadratic_null_vector_zero(perturbed_system_32, rng):
    grid = perturbed_system_32.grid
    h = random_field(grid, rng)
    null = h - p_operator(grid).apply(h)
    val = quadratic_norm(
        perturbed_system_32.bd, fc.z_over_one_plus_z2(), null, TLadder.default()
    )
    assert val <= 1e-18 * max(l2_norm(h), 1.0) ** 2


def test_quadratic_two_sided_for_perturbation(perturbed_system_32, rng):
    sys_ = perturbed_system_32
    C = 10.0 * (sys_.report.sup_norm / sys_.report.kappa) ** 2
    ladder = TLadder.default()
    for _ in range(10):
        h = p_operator(sys_.grid).apply(random_field(sys_.grid, rng))
        ratio = quadratic_norm(sys_.db, fc.z_over_one_plus_z2(), h, ladder) / l2_norm(h) ** 2
        assert 1.0 / C <= ratio <= C


def test_quadratic_psi_change_equivalence(perturbed_system_32, rng):
    # two admissible kernels give comparable energies with a spread that
    # does not depend on the probe vector
    sys_ = perturbed_system_32
    ladder = TLadder.default()
    psis = (fc.z_over_one_plus_z2(), fc.z_exp_abs())
    ratios = []
    for _ in range(50):
        h = p_operator(sys_.grid).apply(random_field(sys_.grid, rng))
        v1 = quadratic_norm(sys_.db, psis[0], h, ladder)
        v2 = quadratic_norm(sys_.db, psis[1], h, ladder)
        ratios.append(v1 / v2)
    spread = max(ratios) / min(ratios)
    C = 10.0 * (sys_.report.sup_norm / sys_.report.kappa) ** 2
    assert spread < C**2


def test_quadratic_warns_on_narrow_ladder(g32, rng):
    h = p_operator(g32).apply(random_field(g32, rng))
    narrow = TLadder.logspaced(0.5, 2.0, 4)
    with pytest.warns(UserWarning, match="boundary"):
        quadratic_norm(d_operator(g32), fc.z_over_one_plus_z2(), h, narrow)


def test_quadratic_requires_decay(g32, rng):
    h = random_field(g32, rng)
    with pytest.raises(ValueError, match="decay"):
        quadratic_norm(d_operator(g32), fc.exp_abs(1.0), h, TLadder.default())


def test_whitney_validation():
    with pytest.raises(ValueError):
        WhitneyParams(c0=0.9)
    with pytest.raises(ValueError):
        WhitneyParams(c1=-1.0)
    with pytest.raises(ValueError):
        WhitneyParams(aperture=0.0)


# ---------------------------------------------------------------------------
# two-dimensional references and the batching guard
# ---------------------------------------------------------------------------


def direct_box_maximal(F, wp, alpha=0.0):
    """Independent box sup: explicit loops over centers, scales, window, ball points."""
    grid = F.grid
    sq = F.channel_square()
    table = grid.torus_distance_table()
    npts = grid.points**grid.dim
    sq_flat = sq.reshape(len(F.ladder), npts)
    t = F.ladder.t
    w_lin = F.ladder.weights * t
    out2 = np.zeros(npts)
    for center in range(npts):
        idx = np.unravel_index(center, grid.shape)
        rolled = np.roll(
            table, shift=tuple(idx), axis=tuple(range(grid.dim))
        ).reshape(-1)
        for j, tj in enumerate(t):
            ball = rolled <= wp.c1 * tj + 1e-12
            acc = tot = 0.0
            for s in range(len(t)):
                if tj / wp.c0 < t[s] < tj * wp.c0:
                    acc += w_lin[s] * sq_flat[s][ball].mean()
                    tot += w_lin[s]
            out2[center] = max(out2[center], tj ** (-2 * alpha) * acc / tot)
    return np.sqrt(out2).reshape(grid.shape)


def _random_tent_field(grid, ladder, rng):
    shape = (len(ladder),) + grid.shape + (grid.channels,)
    return TentField(grid, ladder, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_square_function_matches_direct_sum_2d(g8x2, rng):
    F = _random_tent_field(g8x2, TLadder.logspaced(2.0**-3, 2.0**2, 2), rng)
    for wp in (WhitneyParams(), WhitneyParams(aperture=2.0)):
        np.testing.assert_allclose(
            square_function(F, wp), direct_square_function(F, wp), rtol=1e-10, atol=0
        )


def test_carleson_matches_direct_2d(g8x2, rng):
    F = _random_tent_field(g8x2, TLadder.logspaced(2.0**-3, 2.0**2, 2), rng)
    for alpha in (0.0, 0.5):
        assert carleson_norm(F, alpha) == pytest.approx(direct_carleson(F, alpha), rel=1e-10)


def test_nt_maximal_matches_direct_2d(g8x2, rng):
    F = _random_tent_field(g8x2, TLadder.logspaced(2.0**-3, 2.0**2, 2), rng)
    for wp in (WhitneyParams(), WhitneyParams(c0=3.0, c1=0.5)):
        np.testing.assert_allclose(
            nt_maximal(F, wp), direct_box_maximal(F, wp), rtol=1e-10, atol=0
        )


def test_nt_sharp_matches_direct_2d(perturbed_system_2d, rng):
    grid = perturbed_system_2d.grid
    T = perturbed_system_2d.bd
    h = random_field(grid, rng)
    ladder = TLadder.logspaced(2.0**-3, 2.0**2, 2)
    fields = [(fc.semigroup(T, t, h) - h).values for t in ladder.t]
    F = TentField(grid, ladder, np.stack(fields))
    wp = WhitneyParams()
    for alpha in (0.0, 0.5):
        np.testing.assert_allclose(
            nt_sharp(h, T, ladder, wp, alpha=alpha),
            direct_box_maximal(F, wp, alpha),
            rtol=1e-10,
            atol=0,
        )


def test_tent_functionals_fft_count_independent_of_ladder(g8x2, rng, monkeypatch):
    calls = {"rfftn": 0, "irfftn": 0}
    for name in calls:
        original = getattr(scipy.fft, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, counted)

    functionals = (
        ("nt_maximal", lambda F: nt_maximal(F)),
        ("tent_norm", lambda F: tent_norm(F, 1.0)),
        ("tent_norm wide", lambda F: tent_norm(F, 1.0, WhitneyParams(aperture=2.0))),
        ("tent_norm p=2", lambda F: tent_norm(F, 2.0)),
        ("carleson_norm", lambda F: carleson_norm(F, 0.5)),
    )

    def count(ladder):
        warm = _random_tent_field(g8x2, ladder, rng)
        for _, fn in functionals:  # the ball kernels of (grid, radii) are cached after one call
            fn(warm)
        F = _random_tent_field(g8x2, ladder, rng)
        calls.update(rfftn=0, irfftn=0)
        inverse = {}
        for name, fn in functionals:
            before = calls["irfftn"]
            fn(F)
            inverse[name] = calls["irfftn"] - before
        return calls["rfftn"], inverse

    short, long = TLadder.logspaced(2.0**-2, 2.0**2, 2), TLadder.default()
    assert (len(short), len(long)) == (9, 41)
    # one forward transform for the field, one inverse transform per functional
    # but the p = 2 tent norm, which sums the layers' squared norms
    expected = (1, {name: int(name != "tent_norm p=2") for name, _ in functionals})
    assert count(short) == expected
    assert count(long) == expected


def test_tent_field_values_are_read_only(g32, rng):
    ladder = TLadder.logspaced(0.25, 4.0, 2)
    vals = rng.standard_normal((len(ladder),) + g32.shape + (2,)) + 0j
    F = TentField(g32, ladder, vals)
    before = tent_norm(F, 2.0)
    with pytest.raises(ValueError):
        F.values[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        F.values -= 1.0
    with pytest.raises(ValueError):
        F.square_spectrum[0] = 0.0
    # the given array stays writable, and writing to it leaves the field as it was
    vals[0, 0, 0] = 1.0
    assert F.values[0, 0, 0] != 1.0
    assert tent_norm(F, 2.0) == before


def test_ladder_functionals_build_no_field_per_scale(perturbed_system_32, rng, monkeypatch):
    T = perturbed_system_32.db
    h = p_operator(T.grid).apply(random_field(T.grid, rng))
    psi = fc.z_over_one_plus_z2()
    calls = []
    init = Field.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Field, "__init__", counted)

    def count(ladder):
        out = []
        for fn in (
            lambda: semigroup_tent_field(T, h, ladder),
            lambda: quadratic_norm(T, psi, h, ladder, warn_share=1.0),
        ):
            calls.clear()
            fn()
            out.append(len(calls))
        return out

    short, long = TLadder.logspaced(2.0**-2, 2.0**2, 2), TLadder.default()
    assert (len(short), len(long)) == (9, 41)
    assert count(short) == count(long)


def test_repeated_quadratic_norm_reads_its_forms(perturbed_system_2d, rng, monkeypatch):
    T = perturbed_system_2d.db
    psi = fc.z_over_one_plus_z2()
    ladder = TLadder.default()
    h = p_operator(T.grid).apply(random_field(T.grid, rng))
    applies, forms = count_ladder_work(monkeypatch)
    first = quadratic_norm(T, psi, h, ladder, warn_share=1.0)
    assert len(forms) == 1  # one entry: the forms of the total and of the edge share
    assert forms[0][0].shape[0] == 2
    for _ in range(3):
        assert quadratic_norm(T, psi, h, ladder, warn_share=1.0) == first
    assert len(forms) == 1
    assert not applies


def test_fresh_kernel_constructor_calls_share_one_ladder_form(g8x2, rng, monkeypatch):
    constructors = (fc.chi_plus, fc.chi_minus, fc.sgn, fc.one, fc.abs_value,
                    fc.z_over_one_plus_z2, fc.theta)
    assert all(make() is make() for make in constructors)
    T = FirstOrderSystem(perturbation_of_identity(g8x2, np.random.default_rng(3), 0.1)).db
    ladder = TLadder.default()
    h = p_operator(T.grid).apply(random_field(T.grid, rng))
    applies, forms = count_ladder_work(monkeypatch)
    first = quadratic_norm(T, fc.z_over_one_plus_z2(), h, ladder, warn_share=1.0)
    assert quadratic_norm(T, fc.z_over_one_plus_z2(), h, ladder, warn_share=1.0) == first
    assert len(forms) == 1
    assert not applies


def complex_fft_ball_averages(stack, grid, radii):
    """The ball means with full complex FFTs of the indicators, uncached."""
    radii = np.asarray(radii, dtype=float).reshape((-1,) + (1,) * grid.dim)
    masks = grid.torus_distance_table() <= radii + 1e-12
    counts = masks.sum(axis=tuple(range(1, grid.dim + 1)))
    axes = tuple(range(-grid.dim, 0))
    kernels = np.fft.fftn(masks, axes=axes) / counts.reshape(radii.shape)
    out = np.fft.ifftn(np.fft.fftn(stack, axes=axes) * kernels, axes=axes)
    return out.real, counts


@pytest.mark.parametrize("grid", [GridSpec(dim=1, points=64), GridSpec(dim=2, points=8)],
                         ids=["g64", "g8x2"])
def test_ball_averages_match_complex_fft(grid, rng):
    from halfspace.tent import _spectral_ball_means

    def _ball_averages(stack, grid, radii):
        return _spectral_ball_means(scipy.fft.rfftn(stack, axes=tuple(range(1, grid.dim + 1))),
                                    grid, radii)

    h = 2 * np.pi / grid.points
    # below the spacing (single points), across the band, beyond the period
    radii = np.array([0.3 * h, h, 2.5 * h, 1.0, np.pi, 2 * np.pi, 9.0])
    stack = np.abs(rng.standard_normal((len(radii),) + grid.shape)) ** 2
    means, counts = _ball_averages(stack, grid, radii)
    ref_means, ref_counts = complex_fft_ball_averages(stack, grid, radii)
    assert np.array_equal(counts, ref_counts)
    assert counts[0] == 1 and counts[-1] == grid.points**grid.dim
    assert np.abs(means - ref_means).max() <= 1e-13 * np.abs(stack).max()
    again, _ = _ball_averages(stack, grid, radii)
    assert np.array_equal(again, means)


def test_ball_kernel_cache_is_bounded(g32):
    from halfspace.tent import BALL_KERNEL_CACHE_SIZE, _ball_kernels

    assert 0 < BALL_KERNEL_CACHE_SIZE < 1000
    assert _ball_kernels.cache_info().maxsize == BALL_KERNEL_CACHE_SIZE
    kernels, counts = _ball_kernels(g32, (0.5, 1.0))
    assert _ball_kernels(g32, (0.5, 1.0))[0] is kernels
    with pytest.raises(ValueError):
        kernels[0, 0] = 0.0
    with pytest.raises(ValueError):
        counts[0] = 0


def test_box_window_is_built_once_per_ladder_and_c0(g32, rng):
    from halfspace.tent import BOX_WINDOW_CACHE_SIZE, _box_window

    assert 0 < BOX_WINDOW_CACHE_SIZE < 1000
    assert _box_window.cache_info().maxsize == BOX_WINDOW_CACHE_SIZE
    ladder = TLadder.logspaced(2.0**-4, 2.0**2, 3)
    F = _random_tent_field(g32, ladder, rng)
    wp = WhitneyParams(c0=2.5)
    _box_window.cache_clear()
    first = nt_maximal(F, wp)
    second = nt_maximal(F, wp)
    info = _box_window.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert np.array_equal(first, second)
    np.testing.assert_allclose(first, direct_box_maximal(F, wp), rtol=1e-10, atol=0)
    # the cached table is the direct construction of the normalized dt window
    t = ladder.t
    direct = ((t > t[:, None] / wp.c0) & (t < t[:, None] * wp.c0)) * (ladder.weights * t)
    direct /= direct.sum(axis=1, keepdims=True)
    W = _box_window(tuple(t.tolist()), tuple(ladder.weights.tolist()), wp.c0)
    assert np.array_equal(W, direct)
    with pytest.raises(ValueError):
        W[0, 0] = 0.0


def test_channel_square_of_a_non_contiguous_stack(g32, rng):
    ladder = TLadder.logspaced(0.25, 4.0, 2)
    shape = (g32.channels,) + g32.shape + (len(ladder),)
    vals = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).T  # reversed axes
    assert not vals.flags.c_contiguous
    F = TentField(g32, ladder, vals)
    assert F.values.flags.c_contiguous
    expected = (np.abs(vals) ** 2).sum(axis=-1)
    np.testing.assert_allclose(F.channel_square(), expected, rtol=1e-14, atol=0)

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad

import halfspace.calculus as fc
from halfspace.bvp import FirstOrderSystem
from halfspace.calculus import (
    ContourSpec,
    apply_calculus,
    calderon_pair,
    eigen_data,
    reproducing_residual_scalar,
    semigroup,
)
from halfspace.coefficients import (
    NotAccretiveError,
    TransformedB,
    accretivity_estimate,
    perturbation_of_identity,
)
from halfspace.grid import Field, GridError, GridSpec, TLadder, l2_norm, random_field
import halfspace.operators as operators
import halfspace.tent as tent
from halfspace.cli import ExperimentConfig, run_experiment
from halfspace.coefficients import hat_transform, identity_coefficients
from halfspace.operators import (
    OperatorError,
    d_operator,
    db_operator,
    inverse_d_operator,
    p_operator,
)

from conftest import range_null_split


def single_mode_field(grid, k, channel_vector):
    x = grid.coordinates()
    phase = np.exp(1j * sum(kj * xj for kj, xj in zip(np.atleast_1d(k), x)))
    vals = np.zeros(grid.shape + (grid.channels,), dtype=complex)
    for c, amp in enumerate(channel_vector):
        vals[..., c] = amp * phase
    return Field.physical(grid, vals)


def test_constant_function_is_identity(perturbed_system_32, rng):
    grid = perturbed_system_32.grid
    h = random_field(grid, rng)
    out = apply_calculus(fc.one(), perturbed_system_32.db, h)
    assert l2_norm(out - h) < 1e-10 * l2_norm(h)


def test_sgn_on_positive_mode(g32):
    h = single_mode_field(g32, 1, [1.0, -1j])
    out = apply_calculus(fc.sgn(), d_operator(g32), h)
    assert l2_norm(out - h) < 1e-10 * l2_norm(h)


def test_chi_sum_is_projection_for_selfadjoint(g32, rng):
    D = d_operator(g32)
    h = random_field(g32, rng)
    total = apply_calculus(fc.chi_plus(), D, h) + apply_calculus(fc.chi_minus(), D, h)
    Ph = p_operator(g32).apply(h)
    assert l2_norm(total - Ph) < 1e-10 * l2_norm(h)


def test_chi_sum_is_range_projection_in_general(perturbed_system_32, rng):
    T = perturbed_system_32.db
    grid = perturbed_system_32.grid
    h = random_field(grid, rng)
    total = apply_calculus(fc.chi_plus(), T, h) + apply_calculus(fc.chi_minus(), T, h)
    fr, _ = range_null_split(T, h)
    assert l2_norm(total - fr) < 1e-8 * l2_norm(h)


def test_multiplicativity(perturbed_system_32, rng):
    T = perturbed_system_32.db
    h = random_field(perturbed_system_32.grid, rng)
    b1 = fc.z_exp_abs()
    b2 = fc.resolvent_power(3)
    lhs = apply_calculus(b1.product(b2), T, h)
    rhs = apply_calculus(b1, T, apply_calculus(b2, T, h))
    assert l2_norm(lhs - rhs) < 1e-8 * l2_norm(h)


def test_sgn_squared_is_range_projection(perturbed_system_32, rng):
    T = perturbed_system_32.db
    h = random_field(perturbed_system_32.grid, rng)
    sq = apply_calculus(fc.sgn(), T, apply_calculus(fc.sgn(), T, h))
    fr, _ = range_null_split(T, h)
    assert l2_norm(sq - fr) < 1e-8 * l2_norm(h)


def test_intertwining_and_similarity(perturbed_system_32, rng):
    sys_ = perturbed_system_32
    grid = sys_.grid
    D = d_operator(grid)
    h = random_field(grid, rng)
    Dh = D.apply(h)
    for t in (0.1, 0.7):
        lhs = D.apply(semigroup(sys_.bd, t, h))
        rhs = semigroup(sys_.db, t, Dh)
        assert l2_norm(lhs - rhs) <= 1e-8 * l2_norm(Dh)
    b = fc.resolvent_power(2)
    lhs = apply_calculus(b, sys_.db, Dh)
    rhs = D.apply(apply_calculus(b, sys_.bd, h))
    assert l2_norm(lhs - rhs) <= 1e-8 * max(l2_norm(Dh), 1.0)


@pytest.mark.parametrize("spec_factory", [lambda: fc.resolvent_power(4),
                                          lambda: fc.z_exp_abs(),
                                          lambda: fc.theta()])
def test_contour_agrees_with_eigen(perturbed_system_32, rng, spec_factory):
    T = perturbed_system_32.db
    h = random_field(perturbed_system_32.grid, rng)
    b = spec_factory()
    u_eig = apply_calculus(b, T, h, path="eigen")
    u_con = apply_calculus(b, T, h, path="contour")
    assert l2_norm(u_eig - u_con) <= 1e-6 * max(l2_norm(u_eig), 1e-12)


NON_DECAYING = [fc.chi_plus, fc.chi_minus, fc.sgn,
                lambda: fc.exp_abs(0.01), lambda: fc.exp_abs(0.5), lambda: fc.exp_abs(10.0)]


@pytest.mark.parametrize("system", ["perturbed_system_32", "perturbed_system_2d"])
@pytest.mark.parametrize("tag", ["DB", "BD", "D", "P", "Dinv"])
def test_contour_computes_non_decaying_functions(system, tag, request, rng):
    # closed curves need no decay at 0 or infinity; on the multipliers the
    # contour path checks the closed form of the eigen path
    sys_ = request.getfixturevalue(system)
    T = {"DB": sys_.db, "BD": sys_.bd, "D": d_operator(sys_.grid), "P": p_operator(sys_.grid),
         "Dinv": inverse_d_operator(sys_.grid)}[tag]
    h = random_field(sys_.grid, rng)
    for factory in NON_DECAYING:
        b = factory()
        u_eig = apply_calculus(b, T, h, path="eigen")
        u_con = apply_calculus(b, T, h, path="contour")
        # chi-(P) = 0: an absolute floor far below the relative bound
        assert l2_norm(u_eig - u_con) <= max(1e-6 * l2_norm(u_eig), 1e-12 * l2_norm(h)), b.name


def test_contour_spec_validation():
    for lo, hi in ((np.nan, 1.0), (0.0, np.inf), (1.0, 0.5), (1.0, 1.0)):
        with pytest.raises(ValueError):
            ContourSpec(lo=lo, hi=hi, height=0.5)
    for height in (np.pi / 2, 2.0, 0.0, np.nan):
        with pytest.raises(ValueError):
            ContourSpec(lo=-1.0, hi=1.0, height=height)
    with pytest.raises(ValueError):
        ContourSpec.enclosing(1.0, 10.0, np.pi / 2)


def _inside(contour, z):
    """Whether z lies strictly inside the curve exp(s) or its mirror -exp(s)."""
    z = np.asarray(z, dtype=complex)
    with np.errstate(divide="ignore"):  # log 0 = -inf lies outside
        s = np.log(np.where(z.real >= 0, z, -z))
    half, mid = 0.5 * (contour.hi - contour.lo), 0.5 * (contour.hi + contour.lo)
    return ((s.real - mid) / half) ** 2 + (s.imag / contour.height) ** 2 < 1


@pytest.mark.parametrize("grid, size", [(GridSpec(1, 32, 1), 0.15), (GridSpec(2, 8, 1), 0.15),
                                        (GridSpec(1, 16, 2), 0.15), (GridSpec(1, 32, 1), 0.6)],
                         ids=["1d-g32", "2d-g8", "g16m2", "1d-g32-size0.6"])
def test_contour_encloses_the_range_spectrum(grid, size):
    sys_ = FirstOrderSystem(perturbation_of_identity(grid, np.random.default_rng(3), size))
    bare = db_operator(sys_.B)
    # both read the certificate cached on B, so a bare handle needs no angle handed to it
    assert fc._spectral_contour(bare) == fc._spectral_contour(sys_.db)
    r = 2 * grid.system_size * (grid.points**grid.dim - 1)
    for T in (sys_.db, sys_.bd, bare, d_operator(grid)):
        contour = fc._spectral_contour(T)
        lam = np.linalg.eigvals(T.dense_matrix())
        order = np.argsort(np.abs(lam))
        null, ranged = lam[order[: grid.dof - r]], lam[order[grid.dof - r :]]
        assert np.abs(null).max() <= 1e-10 * np.abs(ranged).min()
        assert _inside(contour, ranged).all(), T.tag
        assert not _inside(contour, 0.0) and not _inside(contour, null).any()


def test_bare_handle_contour_matches_eigen_path_on_a_wide_annulus():
    # size 0.6 at 1D G=128: the widest annulus and sector of the fields tested here
    grid = GridSpec(1, 128, 1)
    B = hat_transform(perturbation_of_identity(grid, np.random.default_rng(7919), 0.6))
    T = db_operator(B)
    h = random_field(grid, np.random.default_rng(0))
    for b in (fc.resolvent_power(4), fc.exp_abs(10.0), fc.z_exp_abs(), fc.sgn()):
        u_eig = apply_calculus(b, T, h, path="eigen")
        u_con = apply_calculus(b, T, h, path="contour")
        assert l2_norm(u_con - u_eig) <= 1e-8 * l2_norm(h), b.name


def test_non_accretive_multiplier_is_refused_before_any_factorization(monkeypatch):
    grid = GridSpec(1, 16, 1)
    eye = identity_coefficients(grid).values
    h = random_field(grid, np.random.default_rng(0))

    def forbidden(*args, **kwargs):
        raise AssertionError("the certificate must refuse first")

    monkeypatch.setattr(np.linalg, "eig", forbidden)
    monkeypatch.setattr(scipy.linalg, "schur", forbidden)
    # -I fails with a zero skew part, exp(2i) I with a nonzero one
    for values in (-eye, np.exp(2j) * eye):
        B = TransformedB(grid, values)
        with pytest.raises(NotAccretiveError):
            eigen_data(db_operator(B))
        with pytest.raises(NotAccretiveError):
            apply_calculus(fc.sgn(), db_operator(B), h, path="contour")


@pytest.mark.parametrize("points", [32, 128])
def test_contour_apply_solves_at_most_256_nodes(points, rng, monkeypatch):
    grid = GridSpec(1, points, 1)
    sys_ = FirstOrderSystem(perturbation_of_identity(grid, np.random.default_rng(5), 0.15))
    solves = _count_calls(monkeypatch, fc, "_shifted_triangular_solves")
    apply_calculus(fc.resolvent_power(4), sys_.db, random_field(grid, rng), path="contour")
    assert 0 < sum(inv.shape[1] for R, g, inv in solves) <= 256


def test_semigroup_single_mode(g32):
    h = single_mode_field(g32, 1, [1.0, -1j])
    for t in (0.2, 1.0, 3.0):
        out = semigroup(d_operator(g32), t, h)
        assert l2_norm(out - np.exp(-t) * h) < 1e-10 * l2_norm(h)


def test_semigroup_fixes_null_space(perturbed_system_32, rng):
    grid = perturbed_system_32.grid
    h = random_field(grid, rng)
    null = h - p_operator(grid).apply(h)  # null space of the symbol
    for t in (0.0, 0.5, 5.0):
        out = semigroup(perturbed_system_32.bd, t, null)
        assert l2_norm(out - null) < 1e-10 * max(l2_norm(null), 1e-300)


def test_semigroup_composition(perturbed_system_32, rng):
    T = perturbed_system_32.db
    h = random_field(perturbed_system_32.grid, rng)
    lhs = semigroup(T, 0.3, semigroup(T, 0.9, h))
    rhs = semigroup(T, 1.2, h)
    assert l2_norm(lhs - rhs) <= 1e-8 * l2_norm(h)


def test_semigroup_strong_continuity_slope(perturbed_system_32, rng):
    T = perturbed_system_32.db
    h = p_operator(perturbed_system_32.grid).apply(
        random_field(perturbed_system_32.grid, rng)
    )
    radius = eigen_data(T).radius
    prev = None
    for t in (1e-2, 1e-3, 1e-4):
        gap = l2_norm(semigroup(T, t, h) - h)
        assert gap <= t * radius * l2_norm(h) * 1.01
        if prev is not None:
            assert gap < prev
        prev = gap


def test_semigroup_rejects_negative_time(perturbed_system_32, rng):
    h = random_field(perturbed_system_32.grid, rng)
    with pytest.raises(ValueError):
        semigroup(perturbed_system_32.db, -0.1, h)


def test_semigroup_contour_path(perturbed_system_32, rng):
    T = perturbed_system_32.db
    h = random_field(perturbed_system_32.grid, rng)
    a = semigroup(T, 0.5, h, path="eigen")
    b = semigroup(T, 0.5, h, path="contour")
    assert l2_norm(a - b) <= 1e-8 * l2_norm(h)


@pytest.mark.parametrize("tag", ["BD", "D"])
def test_contour_agrees_with_eigen_on_other_splits(perturbed_system_32, g32, rng, tag):
    T = perturbed_system_32.bd if tag == "BD" else d_operator(g32)
    h = random_field(g32, rng)
    b = fc.resolvent_power(4)
    u_eig = apply_calculus(b, T, h, path="eigen")
    u_con = apply_calculus(b, T, h, path="contour")
    assert l2_norm(u_eig - u_con) <= 1e-6 * max(l2_norm(u_eig), 1e-12)


MULTIPLIERS = {"D": d_operator, "P": p_operator, "Dinv": inverse_d_operator}
SYMBOL_GRIDS = [GridSpec(1, 32, 1), GridSpec(2, 8, 1), GridSpec(1, 16, 2), GridSpec(2, 8, 2)]
SYMBOL_GRID_IDS = ["1d-g32", "2d-g8", "g16m2", "2d-g8-m2"]


@pytest.mark.parametrize("grid", SYMBOL_GRIDS, ids=SYMBOL_GRID_IDS)
@pytest.mark.parametrize("tag", list(MULTIPLIERS))
def test_multiplier_closed_form_matches_eigh(grid, tag):
    # the reference diagonalizes the dense Hermitian matrix here, with its
    # own null threshold, and never sees the symbol's modulus
    T = MULTIPLIERS[tag](grid)
    h = random_field(grid, np.random.default_rng(31))
    lam, V = np.linalg.eigh(T.dense_matrix())
    null = np.abs(lam) < 1e-9 * np.abs(lam).max()
    coords = V.conj().T @ h.flat()
    scales = TLadder.default().t
    for b in (fc.exp_abs(1.0), fc.sgn(), fc.chi_plus(), fc.chi_minus(), fc.z_exp_abs(),
              fc.resolvent_power(4), fc.theta()):
        parts = fc.eigen_apply_scaled(T, b, scales, h).reshape(len(scales), -1)
        for s, part in zip(scales, parts):
            expected = V @ (np.where(null, b.value_at_zero, b(s * lam)) * coords)
            assert np.linalg.norm(part - expected) <= 1e-12 * l2_norm(h), (b.name, s)


def test_multiplier_calculus_makes_no_dense_eig(monkeypatch, g32, rng):
    eigs = _count_calls(monkeypatch, np.linalg, "eig")
    assemblies = _count_calls(monkeypatch, operators, "assemble_dense")
    report = run_experiment(ExperimentConfig(experiment="sweep", variant="aperture",
                                             grid_points=32))
    assert report["passed"]
    field = tent.semigroup_tent_field(d_operator(g32), random_field(g32, rng),
                                      TLadder.default())
    assert np.isfinite(field.values).all()
    assert eigs == [] and assemblies == []


def _count_calls(monkeypatch, owner, name):
    """Wrap owner.name so that each call appends its arguments to a list."""
    calls = []
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_contour_factorizes_once_and_never_diagonalizes(perturbed_system_32, rng, monkeypatch):
    sys_ = perturbed_system_32
    T = db_operator(sys_.B)
    h = random_field(sys_.grid, rng)

    def forbidden(*args, **kwargs):
        raise AssertionError("the contour path must not diagonalize")

    monkeypatch.setattr(fc, "eigen_data", forbidden)
    monkeypatch.setattr(np.linalg, "eig", forbidden)
    schur_calls = _count_calls(monkeypatch, scipy.linalg, "schur")
    solves = _count_calls(monkeypatch, fc, "_shifted_triangular_solves")
    apply_calculus(fc.resolvent_power(4), T, h, path="contour")
    apply_calculus(fc.z_exp_abs(), T, h, path="contour")
    semigroup(T, 0.5, h, path="contour")
    assert len(schur_calls) == 1
    assert T._eigen is None
    # one batched back substitution per apply, over all nodes of both curves
    assert len(solves) == 3
    assert all(inv.shape == (T.grid.dof, 2 * fc._NODES_PER_CURVE) == (64, 256)
               for R, g, inv in solves)
    # the table of resolvent diagonals is built on the first apply and shared
    table = T._resolvent_diagonal
    assert all(inv is table for R, g, inv in solves) and not table.flags.writeable


@pytest.mark.parametrize("dof", [1, 2, 64, 150])
def test_shifted_triangular_solves_match_dense_solves(dof):
    rng = np.random.default_rng(dof)
    R = np.triu(rng.standard_normal((dof, dof)) + 1j * rng.standard_normal((dof, dof)))
    g = rng.standard_normal(dof) + 1j * rng.standard_normal(dof)
    lam = fc.ContourSpec(lo=-1.0, hi=2.0, height=1.0).nodes[0][::16]
    inv = 1.0 / (lam - R.diagonal()[:, None])
    out = fc._shifted_triangular_solves(R, g, inv)
    assert out.shape == (dof, len(lam))
    for k, shift in enumerate(lam):
        ref = np.linalg.solve(shift * np.eye(dof) - R, g)
        assert np.linalg.norm(out[:, k] - ref) <= 1e-12 * np.linalg.norm(ref)


def test_repeated_contour_apply_does_not_copy_the_schur_basis(rng):
    grid = GridSpec(2, 16, 1)  # dof 768
    T = db_operator(hat_transform(perturbation_of_identity(grid, np.random.default_rng(3), 0.15)))
    h = random_field(grid, rng)
    b = fc.resolvent_power(4)
    apply_calculus(b, T, h, path="contour")  # the Schur form and the diagonal table
    tracemalloc.start()
    try:
        apply_calculus(b, T, h, path="contour")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one dof x dof complex array is 9.4 MB; Z^* h must not copy Z
    assert peak < 0.5 * grid.dof**2 * 16


@pytest.mark.parametrize("tag", ["DB", "BD", "P"])
@pytest.mark.parametrize("factory", [lambda: fc.resolvent_power(4), lambda: fc.exp_abs(0.5)],
                         ids=["b0=0", "b0=1"])
def test_contour_gives_value_at_origin_on_null_fields(perturbed_system_32, rng, tag, factory):
    # the whole-field sum of (b - b(0)) vanishes on the null space, so the
    # contour path returns b(0) h_null with no range split
    sys_ = perturbed_system_32
    h = random_field(sys_.grid, rng)
    if tag == "P":
        T = p_operator(sys_.grid)
        h_null = h - T.apply(h)
    else:
        T = {"DB": sys_.db, "BD": sys_.bd}[tag]
        h_null = range_null_split(T, h)[1]
    b = factory()
    out = apply_calculus(b, T, h_null, path="contour")
    assert l2_norm(out - b.value_at_zero * h_null) <= 1e-12 * l2_norm(h_null)


def test_contour_apply_runs_no_range_split(rng, monkeypatch):
    import halfspace.coefficients as coefficients

    grid = GridSpec(1, 32, 1)
    B = hat_transform(perturbation_of_identity(grid, np.random.default_rng(3), 0.15))
    accretivity_estimate(B)  # the certificate, cached on B, builds the compression

    def forbidden(*args, **kwargs):
        raise AssertionError("the contour path must not map through the range basis")

    for owner in (coefficients, fc):
        monkeypatch.setattr(owner, "_range_synthesis", forbidden)
    h = random_field(grid, rng)
    for T in (db_operator(B), operators.bd_operator(B)):
        apply_calculus(fc.resolvent_power(4), T, h, path="contour")
        semigroup(T, 0.5, h, path="contour")


def test_contour_refuses_other_tags_before_certificate_and_schur(perturbed_system_32, rng,
                                                                 monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the tag must be refused first")

    T = operators.b_operator(hat_transform(perturbation_of_identity(
        perturbed_system_32.grid, np.random.default_rng(4), 0.15)))
    monkeypatch.setattr(fc, "accretivity_estimate", forbidden)
    monkeypatch.setattr(scipy.linalg, "schur", forbidden)
    h = random_field(T.grid, rng)
    with pytest.raises(OperatorError, match="tag B$"):
        apply_calculus(fc.resolvent_power(4), T, h, path="contour")
    with pytest.raises(OperatorError, match="tag B$"):
        semigroup(T, 0.5, h, path="contour")
    assert T._contour is None and T._schur is None


@pytest.mark.parametrize(
    "run",
    [
        lambda T, h: apply_calculus(fc.resolvent_power(4), T, h, path="eigen"),
        lambda T, h: apply_calculus(fc.resolvent_power(4), T, h, path="contour"),
        lambda T, h: semigroup(T, 0.5, h, path="contour"),
    ],
    ids=["eigen", "contour", "semigroup-contour"],
)
def test_calculus_refuses_beyond_dense_limit(run):
    grid = GridSpec(dim=2, points=64, system_size=1)  # dof 12288 > limit
    B = hat_transform(identity_coefficients(grid))
    T = db_operator(B)
    h = random_field(grid, np.random.default_rng(0))
    tracemalloc.start()
    try:
        with pytest.raises(OperatorError, match=r"size 12288 exceeds .* 2\.25 GiB"):
            run(T, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the range basis alone would take 1.5 GiB and the dense matrix 2.25 GiB
    assert peak < 16 * 2**20
    assert T._dense is None and "compression" not in vars(B)


def test_multiplier_calculus_runs_beyond_dense_limit():
    grid = GridSpec(dim=2, points=64, system_size=1)  # dof 12288 > limit
    T = d_operator(grid)
    h = single_mode_field(grid, (3, -4), [1.0, 0.6j, -0.8j])
    tracemalloc.start()
    try:
        out = semigroup(T, 0.7, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # h lies in the range of the symbol at |k| = 5
    assert l2_norm(out - np.exp(-0.7 * 5.0) * h) <= 1e-12 * l2_norm(h)
    assert peak < 16 * 2**20
    assert T._dense is None


# ---------------------------------------------------------------------------
# decay classes
# ---------------------------------------------------------------------------


def verify_decay(spec, mu: float, samples: int = 10000, seed: int = 0) -> float:
    """Largest ratio |psi| / (C min(|z|^sigma, |z|^-tau)) on both rays.

    A value <= 1 confirms the declared decay class at the sampled points.
    """
    rng = np.random.default_rng(seed)
    r = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), samples))
    angles = rng.uniform(-mu, mu, samples)
    worst = 0.0
    for half in (+1.0, -1.0):
        z = half * r * np.exp(1j * angles)
        vals = np.abs(spec(z))
        sigma, tau = spec.decay
        envelope = np.minimum(spec.origin_bound * r**sigma, spec.bound * r**-tau)
        worst = max(worst, float((vals / envelope).max()))
    return worst


@pytest.mark.parametrize(
    "spec_factory",
    [
        lambda: fc.z_exp_abs(),
        lambda: fc.bracket_exp_abs(),
        lambda: fc.theta(),
        lambda: fc.resolvent_power(4),
        lambda: fc.resolvent_power(2, t=0.5),
        lambda: fc.z_over_one_plus_z2(),
        lambda: fc.exp_abs(0.7),
        lambda: fc.rational([1.0, -0.5], k=2),
    ],
)
def test_declared_decay_holds_on_sample(spec_factory):
    spec = spec_factory()
    assert verify_decay(spec, mu=1.2, samples=10000) <= 1.0


# ---------------------------------------------------------------------------
# reproducing pairs
# ---------------------------------------------------------------------------


def test_calderon_pair_constants_and_identity():
    psi = fc.bracket_exp_abs()
    phi = calderon_pair(psi)
    for x in (1.0, -1.0, 2.0, -2.0, 0.5, -0.5):
        assert reproducing_residual_scalar(psi, phi, x) <= 1e-8


def test_calderon_pair_of_theta_is_symmetric():
    th = fc.theta()
    phi = calderon_pair(th)
    # equal weights on the two half-axes by symmetry of the seed function
    r = np.array([0.3, 1.0, 2.7])
    assert np.allclose(phi(r), phi(-r))
    assert reproducing_residual_scalar(th, phi, 1.0) <= 1e-8


def test_calderon_degenerate_rejected():
    half = fc.custom(
        1.0, 1.0, lambda z: z * np.exp(-fc.bracket(z)) * (z.real > 0), 0.0, name="half"
    )
    with pytest.raises(OperatorError, match="degenerate"):
        calderon_pair(half)


def test_calderon_operator_identity(perturbed_system_32, rng):
    sys_ = perturbed_system_32
    psi = fc.bracket_exp_abs()
    phi = calderon_pair(psi)
    h = p_operator(sys_.grid).apply(random_field(sys_.grid, rng))
    ladder = TLadder.logspaced(2.0**-12, 2.0**8, per_octave=8)
    parts = fc.eigen_apply_scaled(sys_.db, phi.product(psi), ladder.t, h)
    acc = Field.physical(sys_.grid, np.tensordot(ladder.weights, parts, axes=1))
    assert l2_norm(acc - h) <= 1e-3 * l2_norm(h)


def test_scalar_quadratic_integral_oracle():
    # adaptive quadrature oracle for the basic kernel energy
    val, err = quad(lambda s: s / (1 + s * s) ** 2, 0, np.inf)
    assert err < 1e-8
    assert val == pytest.approx(0.5, abs=1e-9)


def test_eigen_condition_guard():
    assert fc._checked_condition(0.5 * fc.EIG_CONDITION_LIMIT) == 0.5 * fc.EIG_CONDITION_LIMIT
    for cond in (2 * fc.EIG_CONDITION_LIMIT, np.nan):
        with pytest.raises(OperatorError, match="Schur"):
            fc._checked_condition(cond)


def test_bracket_branch():
    z = np.array([1 + 0.2j, -1 + 0.2j, 2j - 3, 4.0])
    bz = fc.bracket(z)
    assert np.allclose(bz, np.where(z.real >= 0, z, -z))
    assert np.all(bz.real >= 0)


def test_contour_weights_reproduce_scalar_rationals():
    # the quadrature on both curves must reproduce b(a) for points a
    # inside either of them, for rational b and for chi+
    contour = ContourSpec.enclosing(0.5, 4.0, 0.2)
    lam, w = contour.nodes
    points = (1.0, 2.0, -3.0, 1.5 * np.exp(0.15j), -0.7 * np.exp(-0.1j), 0.6 * np.exp(0.18j))
    for b in (fc.resolvent_power(3), fc.z_over_one_plus_z2(), fc.chi_plus()):
        for a in points:
            approx = np.sum(w * b(lam) / (1.0 - a / lam))
            assert abs(approx - b(np.array([a]))[0]) < 1e-10, (b.name, a)


class _CountingMatrix(np.ndarray):
    """Eigenvector matrix that counts its left products."""

    products = 0

    def __matmul__(self, other):
        type(self).products += 1
        return np.asarray(self) @ other


def test_eigen_apply_scaled_one_evaluation_one_eigenvector_product(perturbed_system_32, rng):
    T = perturbed_system_32.db
    h = random_field(T.grid, rng)
    ladder = TLadder.default()
    assert len(ladder) == 41
    base = fc.exp_abs(1.0)
    evaluations = []

    def counted(z):
        evaluations.append(z.shape)
        return base.evaluate(z)

    b = dataclasses.replace(base, evaluate=counted)
    ed = fc.eigen_data(T)
    T._eigen = dataclasses.replace(ed, V=ed.V.view(_CountingMatrix))
    _CountingMatrix.products = 0
    try:
        parts = fc.eigen_apply_scaled(T, b, ladder.t, h)
    finally:
        T._eigen = ed
    r = 2 * T.grid.system_size * (T.grid.points**T.grid.dim - 1)
    assert evaluations == [(41, r)]
    assert _CountingMatrix.products == 1
    assert parts.shape == (41,) + T.grid.shape + (T.grid.channels,)
    for t, part in zip(ladder.t, parts):
        ref = fc.semigroup(T, t, h).values
        assert np.linalg.norm(part - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("system", ["perturbed_system_32", "perturbed_system_2d"])
@pytest.mark.parametrize("handle", ["db", "bd"])
def test_eigen_apply_scaled_matches_scaled_specs(system, handle, request, rng):
    T = getattr(request.getfixturevalue(system), handle)
    h = random_field(T.grid, rng)
    scales = np.array([0.01, 0.3, 1.0, 2.5, 40.0])
    psi = fc.bracket_exp_abs()
    for b in (fc.exp_abs(1.0), psi, calderon_pair(psi).product(psi)):
        parts = fc.eigen_apply_scaled(T, b, scales, h)
        for s, part in zip(scales, parts):
            ref = apply_calculus(b.scaled(s), T, h, path="eigen").values
            assert np.linalg.norm(part - ref) <= 1e-12 * np.linalg.norm(ref)


def test_eigen_apply_scaled_refuses_non_finite_values(perturbed_system_32, rng):
    T = perturbed_system_32.db
    h = random_field(T.grid, rng)
    b = fc.custom(0.0, 0.0, lambda z: np.full_like(z, np.nan), name="nan")
    with pytest.raises(GridError, match="non-finite"):
        fc.eigen_apply_scaled(T, b, [1.0], h)


@pytest.mark.parametrize("scales", [[1.0, 0.0], [-0.5], [2.0, -1.0, 3.0]])
def test_eigen_apply_scaled_refuses_nonpositive_scales(perturbed_system_32, rng, scales):
    T = perturbed_system_32.db
    with pytest.raises(ValueError, match="scale must be positive"):
        fc.eigen_apply_scaled(T, fc.exp_abs(1.0), scales, random_field(T.grid, rng))


def _stack_energy(T, b, scales, weights, h):
    """sum_s w_s ||b(s T) h||^2 from the stack of eigen_apply_scaled."""
    stack = fc.eigen_apply_scaled(T, b, scales, h).reshape(len(scales), -1)
    return T.grid.cell_volume * float(weights @ (np.abs(stack) ** 2).sum(axis=1))


@pytest.mark.parametrize("system", ["perturbed_system_32", "perturbed_system_2d"])
@pytest.mark.parametrize("handle", ["db", "bd", "adjoint-db", "d"])
@pytest.mark.parametrize("spec", ["z/(1+z^2)", "unit semigroup"])
def test_eigen_ladder_energy_matches_stack(system, handle, spec, request, rng):
    sys_ = request.getfixturevalue(system)
    T = {"db": sys_.db, "bd": sys_.bd, "adjoint-db": sys_.adjoint().db,
         "d": d_operator(sys_.grid)}[handle]
    b = {"z/(1+z^2)": fc.z_over_one_plus_z2(), "unit semigroup": fc.UNIT_SEMIGROUP}[spec]
    ladder = TLadder.default()
    # a field with a null part, and weights that are not the ladder's alone
    h = random_field(T.grid, rng)
    rows = np.stack([ladder.weights, ladder.weights * ladder.t**2])
    refs = [_stack_energy(T, b, ladder.t, weights, h) for weights in rows]
    for _ in range(2):  # the first call builds the forms, the second reads them
        for weights, ref in zip(rows, refs):
            energy = fc.eigen_ladder_energy(T, b, ladder.t, weights, h)
            assert np.ndim(energy) == 0
            assert abs(energy - ref) <= 1e-12 * ref
        energies = fc.eigen_ladder_energy(T, b, ladder.t, rows, h)
        assert energies.shape == (2,)
        assert np.all(np.abs(energies - refs) <= 1e-12 * np.asarray(refs))


def test_eigen_ladder_energy_refuses_bad_input(perturbed_system_32, rng):
    T = perturbed_system_32.db
    h = random_field(T.grid, rng)
    with pytest.raises(ValueError, match="scale must be positive"):
        fc.eigen_ladder_energy(T, fc.UNIT_SEMIGROUP, [1.0, 0.0], [1.0, 1.0], h)
    b = fc.custom(0.0, 0.0, lambda z: np.full_like(z, np.nan), name="nan")
    with pytest.raises(GridError, match="non-finite"):
        fc.eigen_ladder_energy(T, b, [1.0], [1.0], h)


def test_ladder_forms_share_the_table_cache(g32, rng):
    sys_ = FirstOrderSystem(perturbation_of_identity(g32, np.random.default_rng(9), 0.15))
    T = sys_.db
    ed = eigen_data(T)
    h = random_field(g32, rng)
    ladder = TLadder.default()
    fc.eigen_ladder_energy(T, fc.UNIT_SEMIGROUP, ladder.t, ladder.weights, h)
    r = len(ed.lam)
    assert ed.gram.shape == (r, r) and not ed.gram.flags.writeable
    table_key = (id(fc.UNIT_SEMIGROUP), ladder.t.tobytes())
    form_key = table_key + (ladder.weights.shape, ladder.weights.tobytes())
    assert list(ed._tables) == [table_key, form_key]
    form = ed._tables[form_key][1]
    assert form.hermitian.shape == (r, r) and not form.hermitian.flags.writeable
    # other weights are another form on the same table; the entries stay bounded
    for c in range(2 * fc.SCALED_TABLE_LIMIT):
        fc.eigen_ladder_energy(T, fc.UNIT_SEMIGROUP, ladder.t, ladder.weights * (c + 2), h)
        assert len(ed._tables) <= fc.SCALED_TABLE_LIMIT
    assert form_key not in ed._tables


def _uncached_scaled(ed, b, scales, h):
    """eigen_apply_scaled's formula with a table evaluated here, not taken from the cache."""
    flat = h.flat()
    vals = b(ed.lam * scales[:, None]) - b.value_at_zero
    return (ed.V @ (vals * (ed.Vinv @ flat)).T).T + b.value_at_zero * flat


@pytest.mark.parametrize("handle", ["db", "bd", "adjoint-db"])
def test_scaled_tables_match_uncached_evaluation_bitwise(perturbed_system_32, handle, rng):
    sys_ = perturbed_system_32
    T = {"db": sys_.db, "bd": sys_.bd, "adjoint-db": sys_.adjoint().db}[handle]
    h = random_field(T.grid, rng)
    ed = eigen_data(T)
    ed._tables.clear()
    scales = TLadder.default().t
    for b in (fc.UNIT_SEMIGROUP, fc.z_over_one_plus_z2()):
        ref = _uncached_scaled(ed, b, scales, h)
        for _ in range(2):  # the first call fills the table, the second reads it
            out = fc.eigen_apply_scaled(T, b, scales, h)
            assert np.array_equal(out.reshape(len(scales), -1), ref)


def test_scaled_table_evaluated_once_per_spec_and_scales(g32, rng):
    sys_ = FirstOrderSystem(perturbation_of_identity(g32, np.random.default_rng(5), 0.15))
    T = sys_.db
    evaluations = []

    def counted(z):
        evaluations.append(z.shape)
        return np.exp(-fc.bracket(z))

    b = dataclasses.replace(fc.UNIT_SEMIGROUP, evaluate=counted)
    scales = TLadder.default().t
    outs = [fc.eigen_apply_scaled(T, b, scales, random_field(g32, rng)) for _ in range(5)]
    assert len(evaluations) == 1
    assert all(np.isfinite(out).all() for out in outs)
    table = eigen_data(T).scaled_table(b, scales)
    assert len(evaluations) == 1
    with pytest.raises(ValueError):
        table[0, 0] = 0.0
    # other scales are another table
    fc.eigen_apply_scaled(T, b, scales[:-1], random_field(g32, rng))
    assert len(evaluations) == 2


def test_scaled_tables_never_shared_between_spec_objects(g32, rng):
    sys_ = FirstOrderSystem(perturbation_of_identity(g32, np.random.default_rng(6), 0.15))
    T = sys_.db
    ed = eigen_data(T)
    h = random_field(g32, rng)
    scales = np.array([0.5, 2.0])
    first = fc.custom(0.0, 0.0, lambda z: np.exp(-fc.bracket(z)), name="custom")
    second = fc.custom(0.0, 0.0, lambda z: 1.0 / (1.0 + z * z), name="custom")
    assert first.name == second.name
    for b in (first, second, first):
        out = fc.eigen_apply_scaled(T, b, scales, h)
        assert np.array_equal(out.reshape(2, -1), _uncached_scaled(ed, b, scales, h))
    # specs made and dropped in a loop may reuse an id once their entry is evicted
    for c in range(3 * fc.SCALED_TABLE_LIMIT):
        b = fc.custom(0.0, 0.0, lambda z, _c=c: np.exp(-_c * fc.bracket(z)), 1.0)
        out = fc.eigen_apply_scaled(T, b, scales, h)
        assert np.array_equal(out.reshape(2, -1), _uncached_scaled(ed, b, scales, h))


def test_scaled_table_count_stays_at_the_limit(g32, rng):
    sys_ = FirstOrderSystem(perturbation_of_identity(g32, np.random.default_rng(8), 0.15))
    T = sys_.db
    h = random_field(g32, rng)
    assert 0 < fc.SCALED_TABLE_LIMIT < 50
    for t in np.linspace(0.1, 5.0, 50):
        semigroup(T, t, h, path="eigen")
        assert len(eigen_data(T)._tables) <= fc.SCALED_TABLE_LIMIT
    assert len(eigen_data(T)._tables) == fc.SCALED_TABLE_LIMIT
    # the newest entries stay, the oldest went first
    kept = [np.frombuffer(key[1])[0] for key in eigen_data(T)._tables]
    assert kept == list(np.linspace(0.1, 5.0, 50)[-fc.SCALED_TABLE_LIMIT:])


def test_contour_fitted_once_per_handle(perturbed_system_32, monkeypatch):
    sys_ = perturbed_system_32
    T = db_operator(sys_.B)
    fits = _count_calls(monkeypatch, fc.ContourSpec, "enclosing")
    norms = _count_calls(monkeypatch, np.linalg, "norm")
    first = fc._spectral_contour(T)
    assert fc._spectral_contour(T) is first
    assert len(fits) == 1
    assert not norms  # sup|B| is read from the certificate, computed with the system
    report = sys_.report
    assert accretivity_estimate(sys_.B) is report
    k = T.grid.frequency_norms()
    assert first == ContourSpec.enclosing(report.kappa * k[k > 0].min(),
                                          report.sup_norm * k.max(), report.omega)

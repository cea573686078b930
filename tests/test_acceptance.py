"""Acceptance suite at desk scale.

Each test prints one line per criterion.  Boundary dimensions one and
two are exercised at 64 and 16 points per axis respectively; the whole
module is budgeted to run in minutes on a laptop.
"""

import numpy as np
import pytest
from scipy.integrate import quad

import halfspace.calculus as fc
import halfspace.bvp as bvp
import halfspace.tent as tent
from halfspace.calculus import apply_calculus, calderon_pair, semigroup
from halfspace.coefficients import (
    block_diagonal_coefficients,
    identity_coefficients,
    perturbation_of_identity,
)
from halfspace.grid import Field, GridSpec, TLadder, l2_norm, lp_norm_grid, random_field
from halfspace.operators import (
    d_operator,
    offdiag_distance_sweep,
    p_operator,
)

from conftest import band_limited_scalar, range_null_split


def report(k: int, ok: bool, desc: str, value: float, bound: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {k:2d} {status} {desc}: value={value:.3e} bound={bound:.3e}")


@pytest.fixture(scope="module")
def G64():
    return GridSpec(dim=1, points=64, system_size=1)


@pytest.fixture(scope="module")
def G16x2():
    return GridSpec(dim=2, points=16, system_size=1)


@pytest.fixture(scope="module")
def system_identity_64(G64):
    return bvp.FirstOrderSystem(identity_coefficients(G64))


@pytest.fixture(scope="module")
def system_perturbed_64(G64):
    rng = np.random.default_rng(101)
    return bvp.FirstOrderSystem(perturbation_of_identity(G64, rng, 0.15))


@pytest.fixture(scope="module")
def system_perturbed_16x2(G16x2):
    rng = np.random.default_rng(103)
    return bvp.FirstOrderSystem(perturbation_of_identity(G16x2, rng, 0.1))


def test_criterion_01_quadratic_constant(G64):
    oracle, err = quad(lambda s: s / (1 + s * s) ** 2, 0, np.inf)
    assert err < 1e-7  # independent adaptive quadrature for the kernel energy
    assert oracle == pytest.approx(0.5, abs=1e-9)
    rng = np.random.default_rng(201)
    D = d_operator(G64)
    ladder = TLadder.default()
    psi = fc.z_over_one_plus_z2()
    worst = 0.0
    for _ in range(20):
        h = p_operator(G64).apply(random_field(G64, rng))
        ratio = tent.quadratic_norm(D, psi, h, ladder) / l2_norm(h) ** 2
        worst = max(worst, abs(ratio - oracle))
    ok = worst <= 0.01 * oracle
    report(1, ok, "quadratic-estimate constant", worst, 0.01 * oracle)
    assert ok


def test_criterion_02_calderon_reproducing(G64):
    rng = np.random.default_rng(202)
    A = perturbation_of_identity(G64, rng, 0.1)
    system = bvp.FirstOrderSystem(A)
    psi = fc.bracket_exp_abs()
    phi = calderon_pair(psi)
    ladder = TLadder.logspaced(2.0**-12, 2.0**8, per_octave=8)
    worst = 0.0
    for _ in range(5):
        h = p_operator(G64).apply(random_field(G64, rng))
        parts = fc.eigen_apply_scaled(system.db, phi.product(psi), ladder.t, h)
        acc = Field.physical(G64, np.tensordot(ladder.weights, parts, axes=1))
        worst = max(worst, l2_norm(acc - h) / l2_norm(h))
    ok = worst <= 1e-3
    report(2, ok, "reproducing formula on the range", worst, 1e-3)
    assert ok


def test_criterion_03_calculus_path_agreement(system_perturbed_64):
    system = system_perturbed_64
    assert system.report.omega <= 0.3
    rng = np.random.default_rng(203)
    psi = fc.resolvent_power(4)
    worst = 0.0
    for _ in range(20):
        h = random_field(system.grid, rng)
        u_eig = apply_calculus(psi, system.db, h, path="eigen")
        u_con = apply_calculus(psi, system.db, h, path="contour")
        worst = max(worst, l2_norm(u_eig - u_con) / l2_norm(u_eig))
    ok = worst <= 1e-6
    report(3, ok, "contour and eigen paths agree", worst, 1e-6)
    assert ok


def test_criterion_04_spectral_identities(system_perturbed_64, system_perturbed_16x2):
    rng = np.random.default_rng(204)
    worst = 0.0
    for system in (system_perturbed_64, system_perturbed_16x2):
        grid = system.grid
        h = random_field(grid, rng)
        T = system.db
        # chi+ + chi- equals the projection onto the closed range
        total = apply_calculus(fc.chi_plus(), T, h) + apply_calculus(fc.chi_minus(), T, h)
        fr, _ = range_null_split(T, h)
        worst = max(worst, l2_norm(total - fr) / l2_norm(h))
        # for the self-adjoint symbol the range projection is the multiplier
        D = d_operator(grid)
        totalD = apply_calculus(fc.chi_plus(), D, h) + apply_calculus(fc.chi_minus(), D, h)
        worst = max(worst, l2_norm(totalD - p_operator(grid).apply(h)) / l2_norm(h))
        # sign function squares to the range projection
        sq = apply_calculus(fc.sgn(), T, apply_calculus(fc.sgn(), T, h))
        worst = max(worst, l2_norm(sq - fr) / l2_norm(h))
        # one-parameter composition law
        lhs = semigroup(T, 0.4, semigroup(T, 0.8, h))
        rhs = semigroup(T, 1.2, h)
        worst = max(worst, l2_norm(lhs - rhs) / l2_norm(h))
    ok = worst <= 1e-8
    report(4, ok, "spectral projections, involution, composition", worst, 1e-8)
    assert ok


def test_criterion_05_jump_relations(G64, G16x2, system_perturbed_16x2):
    rng = np.random.default_rng(205)
    worst = 0.0
    systems = [
        bvp.FirstOrderSystem(perturbation_of_identity(G64, rng, 0.2)) for _ in range(8)
    ]
    systems.append(system_perturbed_16x2)
    systems.append(
        bvp.FirstOrderSystem(perturbation_of_identity(G16x2, rng, 0.15))
    )
    for system in systems:
        grid = system.grid
        f = band_limited_scalar(grid, rng)
        w = bvp.embed_scalar(grid, f).values
        gp = bvp.grad_single_layer(system, 0.0, f, side="+").to_physical().values
        gm = bvp.grad_single_layer(system, 0.0, f, side="-").to_physical().values
        worst = max(worst, np.linalg.norm(gp - gm - w) / np.linalg.norm(w))
        dp = bvp.double_layer(system, 0.0, f, side="+")
        dm = bvp.double_layer(system, 0.0, f, side="-")
        worst = max(worst, np.linalg.norm(dp - dm + f) / np.linalg.norm(f))
    ok = worst <= 1e-8
    report(5, ok, "jump relations across ten coefficient draws", worst, 1e-8)
    assert ok


def test_criterion_06_layer_duality(system_perturbed_64):
    rng = np.random.default_rng(206)
    grid = system_perturbed_64.grid
    f = band_limited_scalar(grid, rng)
    g = band_limited_scalar(grid, rng)
    # the check's own adjoint derives its eigendecomposition from the
    # primal one; the same identities also hold against an adjoint system
    # built from scratch, with its own eig and certificate
    independent = bvp.FirstOrderSystem(system_perturbed_64.A.adjoint())

    def gap(a, b):
        return abs(a - b) / max(abs(a), abs(b), 1e-300)

    worst = 0.0
    for t in (0.1, 0.3, 1.0):
        rs, rd = bvp.layer_duality_check(system_perturbed_64, t, f, g)
        Sf = bvp.single_layer(system_perturbed_64, t, f)
        Sg = bvp.single_layer(independent, -t, g)
        Df = bvp.double_layer(system_perturbed_64, t, f)
        Ng = bvp.conormal_single_layer(independent, -t, g)
        rs_ind = gap(np.vdot(g, Sf), np.vdot(Sg, f))
        rd_ind = gap(np.vdot(g, Df), np.vdot(Ng, f))
        worst = max(worst, rs, rd, rs_ind, rd_ind)
    ok = worst <= 1e-6
    report(6, ok, "layer duality at three heights", worst, 1e-6)
    assert ok


def test_criterion_07_flat_coefficient_oracle(system_identity_64):
    system = system_identity_64
    grid = system.grid
    x = grid.coordinates()[0]
    worst = 0.0
    for k in (1, 2, 3):
        # independent mode oracle: the decaying branch of the
        # characteristic equation r^2 = k^2 has rate -k
        roots = np.roots([1.0, 0.0, -float(k) ** 2])
        rate = float(roots[roots < 0][0])
        assert rate == pytest.approx(-k, abs=1e-12)
        f = np.cos(k * x)
        sol = bvp.solve_dirichlet(system, f)
        for t in (0.2, 0.8):
            u = sol.scalar_value(t)
            exact = np.exp(rate * t) * f
            worst = max(worst, np.linalg.norm(u - exact) / np.linalg.norm(exact))
        dtn = bvp.dirichlet_to_neumann(system, f)
        worst = max(worst, np.linalg.norm(dtn - rate * f) / np.linalg.norm(rate * f))
    ok = worst <= 1e-8
    report(7, ok, "flat-coefficient interior and boundary symbols", worst, 1e-8)
    assert ok


def test_criterion_08_intertwining(system_perturbed_64):
    system = system_perturbed_64
    grid = system.grid
    D = d_operator(grid)
    rng = np.random.default_rng(208)
    h = random_field(grid, rng)
    Dh = D.apply(h)
    worst = 0.0
    for t in TLadder.default().t:
        lhs = D.apply(semigroup(system.bd, t, h))
        rhs = semigroup(system.db, t, Dh)
        worst = max(worst, l2_norm(lhs - rhs) / l2_norm(Dh))
    ok = worst <= 1e-8
    report(8, ok, "gradient intertwines the two flows across the ladder", worst, 1e-8)
    assert ok


def _inject_to_finer(h: Field, fine: GridSpec) -> Field:
    coarse = h.grid
    spec = h.to_spectral().values
    out = np.zeros(fine.shape + (fine.channels,), dtype=complex)
    G = coarse.points
    half = G // 2
    idx = np.fft.fftfreq(G, 1.0 / G).astype(int)
    if coarse.dim == 1:
        for i, k in enumerate(idx):
            if abs(k) <= half:
                out[k % fine.points] = spec[i]
    else:
        for i, ki in enumerate(idx):
            for j, kj in enumerate(idx):
                out[ki % fine.points, kj % fine.points] = spec[i, j]
    return Field.spectral(fine, out)


def test_criterion_09_nt_two_sided_and_stable(G64):
    rng = np.random.default_rng(209)
    fine = GridSpec(dim=1, points=128, system_size=1)
    ladder = TLadder.default()
    wp = tent.WhitneyParams()
    worst_drift = 0.0
    ratios = []
    for _ in range(20):
        h = p_operator(G64).apply(random_field(G64, rng))
        F = tent.semigroup_tent_field(d_operator(G64), h, ladder)
        ratio = lp_norm_grid(tent.nt_maximal(F, wp), G64, 2) / l2_norm(h)
        ratios.append(ratio)
        h_fine = _inject_to_finer(h, fine)
        F_fine = tent.semigroup_tent_field(d_operator(fine), h_fine, ladder)
        ratio_fine = lp_norm_grid(tent.nt_maximal(F_fine, wp), fine, 2) / l2_norm(h_fine)
        worst_drift = max(worst_drift, abs(ratio_fine - ratio) / ratio)
    ok_band = min(ratios) >= 0.1 and max(ratios) <= 10.0
    ok_drift = worst_drift < 0.10
    report(9, ok_band and ok_drift,
           "maximal-function ratio in band and refinement-stable",
           worst_drift, 0.10)
    assert ok_band and ok_drift


def test_criterion_10_representation_all_solvers(G64):
    rng = np.random.default_rng(210)
    A = perturbation_of_identity(G64, rng, 0.2)
    system = bvp.FirstOrderSystem(A)
    worst = 0.0
    f = band_limited_scalar(G64, rng)
    solutions = [
        bvp.solve_regularity(system, bvp.tangential_gradient(G64, f)),
        bvp.solve_neumann(system, band_limited_scalar(G64, rng)),
        bvp.solve_dirichlet(system, band_limited_scalar(G64, rng)),
    ]
    for sol in solutions:
        worst = max(worst, bvp.boundary_layer_representation_check(system, sol))
    ok = worst <= 1e-6
    report(10, ok, "layer representation on every solver output", worst, 1e-6)
    assert ok


def test_criterion_11_offdiag_decay(system_perturbed_64):
    rng = np.random.default_rng(211)
    t = 0.7
    est = offdiag_distance_sweep(
        system_perturbed_64.db, t, np.geomspace(0.4 * t, 4.0 * t, 6), trials=6, rng=rng
    )
    ok = est.exponent >= 2.0
    report(11, ok, "resolvent localization exponent over one decade",
           est.exponent, 2.0)
    assert ok


def test_criterion_12_block_square_root_identity(G64):
    rng = np.random.default_rng(212)
    x = G64.coordinates()[0]
    d = 1.0 + 0.5 * np.cos(x) + 0.3 * np.sin(2 * x)
    assert np.all(d > 0)
    A = block_diagonal_coefficients(G64, 1.0, d)
    system = bvp.FirstOrderSystem(A)
    worst = 0.0
    for _ in range(5):
        u = band_limited_scalar(G64, rng)
        h = bvp.embed_scalar(G64, u)
        habs = apply_calculus(fc.abs_value(), system.db, h, path="eigen")
        lhs = l2_norm(habs) ** 2
        grad = bvp.tangential_gradient(G64, u)
        rhs = float(np.real(G64.cell_volume * np.vdot(grad, d * grad)))
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    ok = worst <= 1e-6
    report(12, ok, "block-diagonal square-root energy identity", worst, 1e-6)
    assert ok

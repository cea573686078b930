import numpy as np
import pytest

from halfspace.coefficients import (
    CoefficientError,
    CoefficientMatrix,
    NotAccretiveError,
    TransformedB,
    _range_analysis,
    _range_synthesis,
    accretivity_estimate,
    block_diagonal_coefficients,
    hat_transform,
    identity_coefficients,
    perturbation_of_identity,
)
from halfspace.grid import GridSpec, inner, l2_norm, random_field
from halfspace.operators import assemble_dense, b_operator, p_operator

from conftest import dense_range_basis, loop_range_basis_coefficients


def block_identity_residual(A, B):
    grid = A.grid
    m = grid.system_size
    N = grid.channels
    lower = np.zeros(grid.shape + (N, N), dtype=complex)
    lower[..., :m, :m] = A.a
    lower[..., :m, m:] = A.b
    for i in range(m, N):
        lower[..., i, i] = 1.0
    target = np.zeros_like(lower)
    for i in range(m):
        target[..., i, i] = 1.0
    target[..., m:, :m] = A.c
    target[..., m:, m:] = A.d
    prod = np.einsum("...ij,...jk->...ik", B.values, lower)
    return np.abs(prod - target).max()


def test_hat_identity(g32):
    A = identity_coefficients(g32)
    B = hat_transform(A)
    assert np.abs(B.values - A.values).max() < 1e-14


def test_hat_block_diagonal(g32):
    x = g32.coordinates()[0]
    a = 1.0 + 0.5 * np.cos(x)
    d = 2.0 + np.sin(x) ** 2
    A = block_diagonal_coefficients(g32, a, d)
    B = hat_transform(A)
    assert np.allclose(B.values[..., 0, 0], 1.0 / a)
    assert np.allclose(B.values[..., 1, 1], d)
    assert np.abs(B.values[..., 0, 1]).max() < 1e-14
    assert np.abs(B.values[..., 1, 0]).max() < 1e-14


def test_hat_block_identity_random(g32, rng):
    A = perturbation_of_identity(g32, rng, 0.3)
    B = hat_transform(A)
    assert block_identity_residual(A, B) < 1e-12


def test_hat_involution_on_block_diagonal(g32):
    # on the block-diagonal subclass the transform is (a, d) -> (1/a, d),
    # so applying it twice returns the original coefficients
    x = g32.coordinates()[0]
    a = 1.5 + 0.25 * np.sin(x)
    d = 1.0 + 0.5 * np.cos(2 * x)
    A = block_diagonal_coefficients(g32, a, d)
    once = hat_transform(A)
    twice = hat_transform(CoefficientMatrix(g32, once.values))
    assert np.abs(twice.values - A.values).max() < 1e-12


def test_hat_singular_block_names_point(g32):
    A = identity_coefficients(g32)
    vals = A.values.copy()
    vals[5, 0, 0] = 0.0
    with pytest.raises(CoefficientError, match=r"grid point \(5,\)"):
        hat_transform(CoefficientMatrix(g32, vals))


def sector_contains(C, phi, tol):
    """Reference predicate: the numerical range of C lies in the sector of half-angle phi."""
    for sign in (+1.0, -1.0):
        rot = np.exp(1j * sign * (np.pi / 2 - phi)) * C
        herm = 0.5 * (rot + rot.conj().T)
        if np.linalg.eigvalsh(herm)[0] < -tol:
            return False
    return True


def bisection_certificate(B):
    """Reference (kappa, omega) by bisection of the sector-containment predicate.

    It searches the angle on the compression the certificate reads, so the
    comparison is exact; test_range_maps_and_compression_match_dense_basis
    checks that compression against Q^* B Q.
    """
    C = B.compression
    kappa = float(np.linalg.eigvalsh(0.5 * (C + C.conj().T))[0])
    tol = 1e-12 * max(np.linalg.norm(C, 2), 1.0)
    lo, hi = 0.0, np.pi / 2 - 1e-9
    if sector_contains(C, lo, tol):
        return kappa, 0.0
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if sector_contains(C, mid, tol):
            hi = mid
        else:
            lo = mid
    return kappa, hi


def test_accretivity_identity(g32):
    B = hat_transform(identity_coefficients(g32))
    report = accretivity_estimate(B)
    assert report.kappa == pytest.approx(1.0, abs=1e-10)
    assert report.omega == pytest.approx(0.0, abs=2e-3)
    assert report.pointwise_accretive
    assert (report.kappa, report.omega) == bisection_certificate(B)
    assert report.method["omega_exact"] == 0.0
    assert report.method["pencil_max_abs_eigenvalue"] is None


@pytest.mark.parametrize("theta", [0.2, 0.45, -0.3])
def test_accretivity_rotated_identity(g32, theta):
    B = TransformedB(g32, np.exp(1j * theta) * identity_coefficients(g32).values)
    report = accretivity_estimate(B)
    assert report.kappa == pytest.approx(np.cos(theta), rel=1e-9)
    assert report.omega == pytest.approx(abs(theta), abs=2e-3)
    assert report.sup_norm == pytest.approx(1.0, rel=1e-12)
    assert (report.kappa, report.omega) == bisection_certificate(B)
    assert report.method["omega_exact"] == pytest.approx(abs(theta), abs=1e-12)


def test_accretivity_hermitian_perturbation(g32, rng):
    E = rng.standard_normal(g32.shape + (2, 2)) + 1j * rng.standard_normal(
        g32.shape + (2, 2)
    )
    E = 0.5 * (E + np.conj(np.swapaxes(E, -1, -2)))
    E /= np.abs(np.linalg.eigvalsh(E)).max()
    A = CoefficientMatrix(g32, identity_coefficients(g32).values + 0.1 * E)
    report = accretivity_estimate(hat_transform(A))
    assert report.kappa >= 0.5


def test_accretivity_rejects_non_accretive(g32):
    # exp(2i) I has a nonzero skew part, so the refusal must come before the pencil
    for scale in (-1.0, np.exp(2j)):
        B = TransformedB(g32, scale * identity_coefficients(g32).values)
        with pytest.raises(NotAccretiveError):
            accretivity_estimate(B)


def test_quadratic_form_bounds_on_range(g32):
    # the certificate must bound the form on a large sample of range vectors
    rng = np.random.default_rng(42)
    A = perturbation_of_identity(g32, rng, 0.2)
    B = hat_transform(A)
    report = accretivity_estimate(B)
    assert 0 < report.kappa <= report.sup_norm
    P, Bop = p_operator(g32), b_operator(B)
    for _ in range(1000):
        u = P.apply(random_field(g32, rng))
        Bu = Bop.apply(u)
        form = inner(u, Bu)
        norm2 = l2_norm(u) ** 2
        assert form.real >= report.kappa * norm2 * (1 - 1e-9)
        assert abs(np.angle(form)) <= report.omega + 1e-9


def a_condition(A):
    """Worst condition number of the scalar-slot block over the grid."""
    return float(np.linalg.cond(A.a).max())


def test_sup_norm_and_condition(g32, rng):
    A = perturbation_of_identity(g32, rng, 0.25)
    assert A.sup_norm() <= 1.25 + 1e-12
    assert a_condition(A) >= 1.0
    adj = A.adjoint()
    assert np.allclose(adj.values, np.conj(np.swapaxes(A.values, -1, -2)))


def test_hat_of_adjoint_parity_relation(g32, rng):
    # the transform of the adjoint coefficients equals the parity-signed
    # conjugate transpose of the transform: with N = diag(I, -I) on the
    # scalar/tangential slots, hat(A*) = N hat(A)* N
    A = perturbation_of_identity(g32, rng, 0.3)
    B = hat_transform(A)
    B_adj = hat_transform(A.adjoint())
    m = g32.system_size
    parity = np.diag([1.0] * m + [-1.0] * (g32.channels - m))
    expected = parity @ B.adjoint_values() @ parity
    assert np.abs(B_adj.values - expected).max() < 1e-12
    # so both transforms have one certificate, which the adjoint system shares
    for grid in (g32, GridSpec(2, 8, 1), GridSpec(1, 16, 2), GridSpec(2, 8, 2)):
        A = perturbation_of_identity(grid, rng, 0.3)
        B = hat_transform(A)
        primal = accretivity_estimate(B)
        dual = accretivity_estimate(hat_transform(A.adjoint()))
        assert abs(dual.kappa - primal.kappa) <= 1e-12 and dual.omega == primal.omega
        # B.adjoint() is N B^* N exactly, sign flips of B^*, and takes B's certificate
        m = grid.system_size
        signs = np.where(np.arange(grid.channels) < m, 1.0, -1.0)
        adjoint = B.adjoint()
        assert np.array_equal(adjoint.values, B.adjoint_values() * np.outer(signs, signs))
        assert np.abs(adjoint.values - hat_transform(A.adjoint()).values).max() <= 1e-12
        assert accretivity_estimate(adjoint) is primal


@pytest.mark.parametrize(
    "grid", [GridSpec(dim=1, points=32, system_size=2), GridSpec(dim=2, points=8)]
)
def test_range_basis_coefficients_match_loop(grid):
    from halfspace.coefficients import _range_basis_coefficients

    nonzero, vectors = _range_basis_coefficients(grid)
    ref_positions, ref_vectors = loop_range_basis_coefficients(grid)
    assert np.array_equal(np.repeat(nonzero, 2 * grid.system_size), ref_positions)
    assert np.array_equal(vectors.reshape(-1, grid.channels), ref_vectors)


def test_compression_is_range_basis_pairing(g8x2, rng):
    B = hat_transform(perturbation_of_identity(g8x2, rng, 0.2))
    Q = dense_range_basis(g8x2)
    assert Q.shape == (g8x2.dof, 2 * (g8x2.points**2 - 1))
    assert np.abs(Q.conj().T @ Q - np.eye(Q.shape[1])).max() < 1e-13
    assert np.abs(assemble_dense(p_operator(g8x2)) @ Q - Q).max() < 1e-13
    C = B.compression
    dense = Q.conj().T @ assemble_dense(b_operator(B)) @ Q
    assert np.abs(C - dense).max() < 1e-13


@pytest.mark.parametrize("grid", [GridSpec(1, 32, 1), GridSpec(2, 8, 1), GridSpec(1, 16, 2),
                                  GridSpec(2, 8, 2)], ids=str)
def test_range_maps_and_compression_match_dense_basis(grid):
    rng = np.random.default_rng(3)
    Q = dense_range_basis(grid)
    r = Q.shape[1]
    X = rng.standard_normal((r, 5)) + 1j * rng.standard_normal((r, 5))
    QX = _range_synthesis(grid, X)
    assert QX.shape == (grid.dof, 5)
    assert np.abs(QX - Q @ X).max() <= 1e-13
    assert np.abs(_range_synthesis(grid, X[:, 0]) - Q @ X[:, 0]).max() <= 1e-13
    B = hat_transform(perturbation_of_identity(grid, rng, 0.3))
    C = B.compression
    dense = Q.conj().T @ assemble_dense(b_operator(B)) @ Q
    assert np.abs(C - dense).max() <= 1e-14 * np.abs(dense).max()


@pytest.mark.parametrize("grid", [GridSpec(1, 32, 1), GridSpec(2, 8, 1), GridSpec(1, 16, 2)],
                         ids=str)
def test_range_analysis_is_adjoint_and_left_inverse_of_synthesis(grid):
    rng = np.random.default_rng(4)
    r = 2 * grid.system_size * (grid.points**grid.dim - 1)
    X = rng.standard_normal((r, 3)) + 1j * rng.standard_normal((r, 3))
    Y = rng.standard_normal((grid.dof, 3)) + 1j * rng.standard_normal((grid.dof, 3))
    QX, QY = _range_synthesis(grid, X), _range_analysis(grid, Y)
    assert QY.shape == (r, 3)
    # Q^* Q = I_r, and <Q x, y> = <x, Q^* y>
    assert np.abs(_range_analysis(grid, QX) - X).max() <= 1e-14 * np.abs(X).max()
    assert np.abs(QX.conj().T @ Y - X.conj().T @ QY).max() <= 1e-14 * np.abs(QX.conj().T @ Y).max()
    assert np.abs(_range_analysis(grid, Y[:, 0]) - QY[:, 0]).max() <= 1e-14 * np.abs(QY).max()
    Q = dense_range_basis(grid)
    assert np.abs(QY - Q.conj().T @ Y).max() <= 1e-13


def test_certificate_takes_no_dense_spectral_norm(g32, rng, monkeypatch):
    B = hat_transform(perturbation_of_identity(g32, rng, 0.3))
    calls = []
    norm = np.linalg.norm

    def counted(x, ord=None, axis=None, **kwargs):
        if ord == 2 and axis is None:
            calls.append(np.shape(x))
        return norm(x, ord=ord, axis=axis, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    rep = accretivity_estimate(B)
    assert rep.omega > 0  # the angle search ran
    # sup |B| bounds ||C||_2 for the roundoff tolerance, so no SVD runs
    assert calls == []


def _benchmark_input(dim, points, size, seed, system_size=1):
    grid = GridSpec(dim=dim, points=points, system_size=system_size)
    return hat_transform(perturbation_of_identity(grid, np.random.default_rng([seed, 0]), size))


# the benchmark's grids and perturbation sizes (bvp2d, probes1d, contour1d)
# at its default and held-out seeds, and a system of two equations
CERTIFICATE_INPUTS = [
    pytest.param(dim, points, size, seed, m, id=f"{dim}d-g{points}-m{m}-s{seed}")
    for dim, points, size, m in [(2, 8, 0.1, 1), (1, 64, 0.15, 1), (1, 32, 0.15, 1),
                                 (1, 32, 0.3, 2)]
    for seed in (0, 7919)
]


@pytest.mark.parametrize("dim, points, size, seed, m", CERTIFICATE_INPUTS)
def test_pencil_angle_matches_bisection(dim, points, size, seed, m):
    B = _benchmark_input(dim, points, size, seed, m)
    report = accretivity_estimate(B)
    assert (report.kappa, report.omega) == bisection_certificate(B)
    assert report.method["angle_search"] == "generalized Hermitian eigenproblem (K, H)"
    assert report.method["omega_exact"] <= report.omega <= report.method["omega_exact"] + 1e-3
    assert report.method["omega_exact"] == np.arctan(report.method["pencil_max_abs_eigenvalue"])


def test_pencil_angle_is_attained_and_bounds_the_range():
    import scipy.linalg

    B = _benchmark_input(1, 32, 0.4, 1)
    grid = B.grid
    exact = accretivity_estimate(B).method["omega_exact"]
    C = B.compression
    herm, skew = 0.5 * (C + C.conj().T), -0.5j * (C - C.conj().T)
    mu, X = scipy.linalg.eigh(skew, herm)
    x = X[:, np.argmax(np.abs(mu))]
    assert abs(np.angle(x.conj() @ C @ x)) == pytest.approx(exact, abs=1e-12)
    # forms <u, Bu> of random range vectors u = Q y, evaluated pointwise in physical space
    Q = dense_range_basis(grid)
    rng = np.random.default_rng(5)
    Y = rng.standard_normal((Q.shape[1], 1000)) + 1j * rng.standard_normal((Q.shape[1], 1000))
    U = Q @ Y
    cols = U.reshape(grid.shape + (grid.channels, -1))
    BU = np.einsum("...ij,...jr->...ir", B.values, cols).reshape(U.shape)
    forms = np.einsum("ir,ir->r", U.conj(), BU)
    assert np.abs(np.angle(forms)).max() <= exact + 1e-12


def test_certificate_runs_at_most_three_solves(monkeypatch):
    import scipy.linalg

    calls = []
    eigvalsh, eigh = np.linalg.eigvalsh, scipy.linalg.eigh

    def counted(solver):
        def call(*args, **kwargs):
            calls.append(solver)
            return solver(*args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "eigvalsh", counted(eigvalsh))
    monkeypatch.setattr(scipy.linalg, "eigh", counted(eigh))
    B = _benchmark_input(1, 32, 0.3, 3)
    report = accretivity_estimate(B)
    assert report.omega > 0 and 0 < len(calls) <= 3
    # the certificate is cached on B: a second call returns it and solves nothing
    solves = len(calls)
    assert accretivity_estimate(B) is report and len(calls) == solves


def test_kappa_is_computed_once_per_multiplier(monkeypatch):
    import scipy.linalg

    from halfspace import calculus as fc
    from halfspace.grid import random_field
    from halfspace.operators import bd_operator, db_operator

    B = _benchmark_input(1, 32, 0.3, 3)
    r = 2 * (B.grid.points - 1)
    shapes = {"eigvalsh": [], "eigh": []}

    def recording(name, inner):
        def call(M, *args, **kwargs):
            shapes[name].append(np.shape(M))
            return inner(M, *args, **kwargs)
        return call

    for owner in (np, scipy):
        monkeypatch.setattr(owner.linalg, "eigvalsh",
                            recording("eigvalsh", owner.linalg.eigvalsh))
    monkeypatch.setattr(scipy.linalg, "eigh", recording("eigh", scipy.linalg.eigh))
    report = accretivity_estimate(B)
    db, bd = db_operator(B), bd_operator(B)
    fc.eigen_data(db)
    h = random_field(B.grid, np.random.default_rng(0))
    fc.apply_calculus(fc.chi_plus(), bd, h, path="contour")
    # kappa and the pencil solve of the angle, once each, all read from B's report
    assert shapes["eigvalsh"].count((r, r)) == 1 and shapes["eigh"] == [(r, r)]
    assert accretivity_estimate(B) is report

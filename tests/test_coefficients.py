import numpy as np
import pytest

from halfspace.coefficients import (
    CoefficientError,
    CoefficientMatrix,
    NotAccretiveError,
    TransformedB,
    accretivity_estimate,
    block_diagonal_coefficients,
    hat_transform,
    identity_coefficients,
    perturbation_of_identity,
)
from halfspace.grid import GridSpec, l2_norm, random_field
from halfspace.operators import p_operator


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


def test_accretivity_identity(g32):
    report = accretivity_estimate(hat_transform(identity_coefficients(g32)))
    assert report.kappa == pytest.approx(1.0, abs=1e-10)
    assert report.omega == pytest.approx(0.0, abs=2e-3)
    assert report.pointwise_accretive


@pytest.mark.parametrize("theta", [0.2, 0.45, -0.3])
def test_accretivity_rotated_identity(g32, theta):
    B = TransformedB(g32, np.exp(1j * theta) * identity_coefficients(g32).values)
    report = accretivity_estimate(B)
    assert report.kappa == pytest.approx(np.cos(theta), rel=1e-9)
    assert report.omega == pytest.approx(abs(theta), abs=2e-3)
    assert report.sup_norm == pytest.approx(1.0, rel=1e-12)


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
    B = TransformedB(g32, -identity_coefficients(g32).values)
    with pytest.raises(NotAccretiveError):
        accretivity_estimate(B)


def test_quadratic_form_bounds_on_range(g32):
    # the certificate must bound the form on a large sample of range vectors
    rng = np.random.default_rng(42)
    A = perturbation_of_identity(g32, rng, 0.2)
    B = hat_transform(A)
    report = accretivity_estimate(B)
    assert 0 < report.kappa <= report.sup_norm
    P = p_operator(g32)
    for _ in range(1000):
        u = P.apply(random_field(g32, rng))
        Bu = B.apply(u)
        from halfspace.grid import inner

        form = inner(u, Bu)
        norm2 = l2_norm(u) ** 2
        assert form.real >= report.kappa * norm2 * (1 - 1e-9)
        assert abs(np.angle(form)) <= report.omega + 1e-9


def test_sup_norm_and_condition(g32, rng):
    A = perturbation_of_identity(g32, rng, 0.25)
    assert A.sup_norm() <= 1.25 + 1e-12
    assert A.a_condition() >= 1.0
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


def loop_range_basis_coefficients(grid):
    """Per-frequency reference: m scalar-slot then m tangential vectors per k != 0."""
    m = grid.system_size
    freqs = grid.frequencies().reshape(-1, grid.dim)
    positions, vectors = [], []
    for idx, k in enumerate(freqs):
        if np.all(k == 0):
            continue
        khat = k / np.linalg.norm(k)
        for alpha in range(m):
            e = np.zeros(grid.channels, dtype=complex)
            e[alpha] = 1.0
            vectors.append(e)
            positions.append(idx)
        for alpha in range(m):
            e = np.zeros(grid.channels, dtype=complex)
            for j in range(grid.dim):
                e[m + j * m + alpha] = khat[j]
            vectors.append(e)
            positions.append(idx)
    return np.asarray(positions), np.asarray(vectors)


@pytest.mark.parametrize(
    "grid", [GridSpec(dim=1, points=32, system_size=2), GridSpec(dim=2, points=8)]
)
def test_range_basis_coefficients_match_loop(grid):
    from halfspace.coefficients import _range_basis_coefficients

    positions, vectors = _range_basis_coefficients(grid)
    ref_positions, ref_vectors = loop_range_basis_coefficients(grid)
    assert np.array_equal(positions, ref_positions)
    assert np.array_equal(vectors, ref_vectors)


def test_compression_is_range_basis_pairing(g8x2, rng):
    from halfspace.coefficients import _range_basis_fields, compressed_quadratic_form
    from halfspace.operators import assemble_dense, b_operator

    B = hat_transform(perturbation_of_identity(g8x2, rng, 0.2))
    Q = _range_basis_fields(g8x2)
    assert Q.shape == (g8x2.dof, 2 * (g8x2.points**2 - 1))
    assert np.abs(Q.conj().T @ Q - np.eye(Q.shape[1])).max() < 1e-13
    assert np.abs(assemble_dense(p_operator(g8x2)) @ Q - Q).max() < 1e-13
    C = compressed_quadratic_form(B)
    dense = Q.conj().T @ assemble_dense(b_operator(B)) @ Q
    assert np.abs(C - dense).max() < 1e-13


def test_certificate_takes_one_spectral_norm(g32, rng, monkeypatch):
    B = hat_transform(perturbation_of_identity(g32, rng, 0.3))
    calls = []
    norm = np.linalg.norm

    def counted(x, ord=None, axis=None, **kwargs):
        if ord == 2 and axis is None:
            calls.append(np.shape(x))
        return norm(x, ord=ord, axis=axis, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    rep = accretivity_estimate(B)
    assert rep.omega > 0  # the angle bisection ran
    assert len(calls) == 1

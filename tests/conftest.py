import numpy as np
import pytest

from halfspace import GridSpec, identity_coefficients, perturbation_of_identity
from halfspace.bvp import FirstOrderSystem
from halfspace.grid import Field
from halfspace.operators import assemble_dense, b_operator


@pytest.fixture(scope="session")
def g32():
    return GridSpec(dim=1, points=32, system_size=1)


@pytest.fixture(scope="session")
def g64():
    return GridSpec(dim=1, points=64, system_size=1)


@pytest.fixture(scope="session")
def g8x2():
    return GridSpec(dim=2, points=8, system_size=1)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def identity_system_32(g32):
    return FirstOrderSystem(identity_coefficients(g32))


@pytest.fixture(scope="session")
def perturbed_system_32(g32):
    rng = np.random.default_rng(7)
    return FirstOrderSystem(perturbation_of_identity(g32, rng, 0.15))


@pytest.fixture(scope="session")
def perturbed_system_2d(g8x2):
    rng = np.random.default_rng(11)
    return FirstOrderSystem(perturbation_of_identity(g8x2, rng, 0.1))


def band_limited_scalar(grid, rng, decay=6.0):
    shape = grid.shape + (grid.system_size,)
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    kn = grid.frequency_norms()
    w = np.exp(-kn / decay)
    w[(0,) * grid.dim] = 0.0
    spec = np.fft.fftn(noise, axes=tuple(range(grid.dim)), norm="forward") * w[..., None]
    out = np.fft.ifftn(spec, axes=tuple(range(grid.dim)), norm="forward")
    return out[..., 0] if grid.system_size == 1 else out


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


def dense_range_basis(grid):
    """The orthonormal range basis Q as a dense dof x r matrix, for tests only.

    Column (k, v) of loop_range_basis_coefficients is the mode exp(i k x) v
    on the flattened physical grid, scaled to unit norm.
    """
    positions, vectors = loop_range_basis_coefficients(grid)
    r = len(positions)
    spec = np.zeros((r, grid.points**grid.dim, grid.channels), dtype=complex)
    spec[np.arange(r), positions] = vectors
    spec = spec.reshape((r,) + grid.shape + (grid.channels,))
    phys = np.fft.ifftn(spec, axes=tuple(range(1, grid.dim + 1)), norm="forward")
    return phys.reshape(r, -1).T * grid.points ** (-grid.dim / 2.0)


def range_null_split(T, f):
    """Reference split f = f_range + f_null along the range and the null space of DB or BD.

    From the dense basis Q and a dense C = Q^* B Q, so it shares nothing
    with the gathered compression: DB has f_range = Q C^-1 Q^* B f in the
    range of D, and BD has f_range = B Q C^-1 Q^* f; f_null = f - f_range
    lies in the null space of T.
    """
    Q = dense_range_basis(T.grid)
    Bmat = assemble_dense(b_operator(T.multiplier_matrix))
    C = Q.conj().T @ Bmat @ Q
    v = f.flat()
    if T.tag == "DB":
        fr = Q @ np.linalg.solve(C, Q.conj().T @ (Bmat @ v))
    elif T.tag == "BD":
        fr = Bmat @ (Q @ np.linalg.solve(C, Q.conj().T @ v))
    else:
        raise ValueError(f"no reference split for tag {T.tag}")
    return Field.from_flat(T.grid, fr), Field.from_flat(T.grid, v - fr)

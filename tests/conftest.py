import numpy as np
import pytest

import halfspace.bvp as bvp
import halfspace.calculus as fc
import halfspace.tent as tent
from halfspace import GridSpec, identity_coefficients, perturbation_of_identity
from halfspace.bvp import FirstOrderSystem
from halfspace.grid import PHYSICAL, Field, fft_values
from halfspace.operators import assemble_dense, b_operator, d_operator


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


def count_ladder_work(monkeypatch):
    """Lists of the eigen_apply_scaled calls, made no-ops, and of the ladder forms built."""
    applies, forms = [], []
    for module in (fc, tent):
        monkeypatch.setattr(module, "eigen_apply_scaled", lambda *args: applies.append(args))
    form = fc.LadderForm

    def counted(*args):
        forms.append(args)
        return form(*args)

    monkeypatch.setattr(fc, "LadderForm", counted)
    return applies, forms


def basis_apply_dense(T):
    """Reference matrix of T: T applied to the dof-column identity, one column per basis field."""
    dof = T.grid.dof
    basis = np.eye(dof, dtype=complex).reshape((dof,) + T.grid.shape + (T.grid.channels,))
    return T.apply_array(basis, PHYSICAL).reshape(dof, dof).T


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


def physical_trace_maps(system):
    """Reference trace maps in the physical layout, as {slot: (basis, matrix)}.

    The positive Hardy bases are the QR factorizations of the positive
    eigenvectors with dof rows.  "scalar" and "tangential" read those
    channels of the basis of DB at every grid point; "potential" applies D
    to the basis of BD.
    """
    grid = system.grid
    bases = {}
    for T in (system.db, system.bd):
        ed = fc.eigen_data(T)
        bases[T.tag], _ = np.linalg.qr(ed.V[:, ed.lam.real > 0])
    Q, m = bases["DB"], grid.system_size
    values = Q.reshape(grid.shape + (grid.channels, -1))
    maps = {slot: (Q, values[..., channels, :].reshape(-1, Q.shape[1]))
            for slot, channels in (("scalar", slice(None, m)), ("tangential", slice(m, None)))}
    Q = bases["BD"]
    columns = Q.T.reshape((-1,) + grid.shape + (grid.channels,))
    applied = d_operator(grid).apply_array(columns, PHYSICAL).reshape(Q.shape[1], -1).T
    maps["potential"] = (Q, applied)
    return maps


def curl_free_residual(grid, g):
    """Relative distance of tangential data to the gradients, per frequency.

    The share of the spectrum at k = 0 or transverse to k/|k|, from one
    forward transform.
    """
    rows = bvp._flat_rows(grid, fft_values(bvp._as_tangential_data(grid, g), grid))
    return bvp._tangential_datum(grid, rows).outside_share

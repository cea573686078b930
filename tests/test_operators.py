import tracemalloc

import numpy as np
import pytest

import halfspace.calculus as fc
from halfspace.calculus import apply_calculus, eigen_data
from halfspace.coefficients import (
    _range_symbol_product,
    accretivity_estimate,
    hat_transform,
    identity_coefficients,
    perturbation_of_identity,
)
from halfspace import grid as grid_module
from halfspace.bvp import FirstOrderSystem
from halfspace.grid import PHYSICAL, SPECTRAL, Field, GridSpec, TLadder, l2_norm, random_field
from halfspace.operators import (
    DENSE_LIMIT,
    OperatorError,
    assemble_dense,
    b_operator,
    bd_operator,
    build_D_symbol,
    build_P_symbol,
    build_inverse_D_symbol,
    d_operator,
    db_operator,
    inverse_d_operator,
    offdiag_distance_sweep,
    offdiag_probe,
    p_operator,
    range_splitter,
    resolvent_solve,
    torus_mask_distance,
)
from halfspace import coefficients, operators

from conftest import basis_apply_dense, dense_range_basis, range_null_split


def single_mode_field(grid, k, channel_vector):
    x = grid.coordinates()
    phase = np.exp(1j * sum(kj * xj for kj, xj in zip(np.atleast_1d(k), x)))
    vals = np.zeros(grid.shape + (grid.channels,), dtype=complex)
    for c, amp in enumerate(channel_vector):
        vals[..., c] = amp * phase
    return Field.physical(grid, vals)


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------


def test_d_symbol_matrix_1d(g32):
    sym = build_D_symbol(g32)
    expected = np.array([[0, 1j], [-1j, 0]])
    assert np.allclose(sym.at([1]), expected)
    assert np.abs(sym.at([0])).max() == 0.0
    # independent 2x2 eigensolve as oracle for the eigenpairs
    lam, V = np.linalg.eigh(sym.at([1]))
    assert np.allclose(sorted(lam), [-1.0, 1.0])
    vplus = V[:, np.argmax(lam)]
    ratio = vplus / (np.array([1.0, -1j]) / np.sqrt(2))
    assert np.allclose(ratio, ratio[0])


def test_d_symbol_hermitian_and_coercive(g8x2):
    sym = build_D_symbol(g8x2)
    mats = sym.matrices
    assert np.abs(mats - np.conj(np.swapaxes(mats, -1, -2))).max() < 1e-14
    freqs = g8x2.frequencies()
    kn = np.sqrt((freqs**2).sum(axis=-1))
    lam = np.linalg.eigvalsh(mats.reshape(-1, 3, 3))
    kn_flat = kn.reshape(-1)
    for row, k in zip(lam, kn_flat):
        nonzero = row[np.abs(row) > 1e-12]
        if k == 0:
            assert nonzero.size == 0
        else:
            assert np.allclose(sorted(np.abs(nonzero)), [k, k])


SYMBOL_GRIDS = [
    GridSpec(dim=1, points=32),
    GridSpec(dim=2, points=8),
    GridSpec(dim=1, points=16, system_size=2),
]


@pytest.mark.parametrize("build", [build_D_symbol, build_P_symbol, build_inverse_D_symbol])
def test_symbols_are_shared_and_read_only(build):
    sym = build(GridSpec(dim=2, points=8))
    assert build(GridSpec(dim=2, points=8, system_size=1)) is sym
    with pytest.raises(ValueError):
        sym.matrices[0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        sym.matrices *= 2.0


@pytest.mark.parametrize("grid", SYMBOL_GRIDS, ids=["g32", "g8x2", "g16m2"])
def test_inverse_d_symbol_is_the_pseudo_inverse(grid):
    D = build_D_symbol(grid).matrices
    Dp = build_inverse_D_symbol(grid).matrices
    assert np.abs(Dp - np.linalg.pinv(D, rcond=1e-12)).max() <= 1e-14
    assert np.abs(D @ Dp @ D - D).max() <= 1e-14
    assert np.abs(Dp @ D @ Dp - Dp).max() <= 1e-14


@pytest.mark.parametrize("grid", SYMBOL_GRIDS, ids=["g32", "g8x2", "g16m2"])
def test_resolvent_preconditioner_is_the_inverse(grid):
    D = build_D_symbol(grid).matrices
    eye = np.eye(grid.channels)
    for t in (0.05, 0.3, 1.0, 3.0, 40.0):
        exact = np.linalg.inv(eye + 1j * t * D)
        closed = operators._resolvent_of_D_symbol(grid, t).matrices
        assert np.abs(closed - exact).max() <= 1e-13


def test_d_apply_gradient_example(g32):
    h = single_mode_field(g32, 1, [1.0, 0.0])
    Dh = d_operator(g32).apply(h).to_physical()
    x = g32.coordinates()[0]
    assert np.abs(Dh.values[..., 0]).max() < 1e-13
    assert np.allclose(Dh.values[..., 1], -1j * np.exp(1j * x))


def test_p_symbol_1d_is_identity_off_zero(g32):
    sym = build_P_symbol(g32)
    assert np.allclose(sym.at([3]), np.eye(2))
    assert np.abs(sym.at([0])).max() == 0.0


def test_p_symbol_2d_rank_one_tangential(g8x2):
    sym = build_P_symbol(g8x2)
    mat = sym.at([1, 0])
    assert np.allclose(mat[0, 0], 1.0)
    assert np.allclose(mat[1:, 1:], np.diag([1.0, 0.0]))
    full = sym.matrices
    assert np.abs(np.einsum("...ij,...jk->...ik", full, full) - full).max() < 1e-13
    assert np.abs(full - np.conj(np.swapaxes(full, -1, -2))).max() < 1e-13


def test_p_annihilates_constants(g32):
    vals = np.ones(g32.shape + (2,), dtype=complex)
    out = p_operator(g32).apply(Field.physical(g32, vals))
    assert l2_norm(out) < 1e-13


def test_pd_and_dp_equal_d(g32, rng):
    f = random_field(g32, rng)
    D, P = d_operator(g32), p_operator(g32)
    df = D.apply(f)
    assert l2_norm(P.apply(df) - df) < 1e-12 * l2_norm(df)
    assert l2_norm(D.apply(P.apply(f)) - df) < 1e-12 * l2_norm(df)


def test_db_with_identity_is_d(g32, rng):
    B = hat_transform(identity_coefficients(g32))
    f = random_field(g32, rng)
    lhs = db_operator(B).apply(f)
    rhs = d_operator(g32).apply(f)
    assert l2_norm(lhs - rhs) < 1e-12 * l2_norm(rhs)


def test_block_diagonal_multiplier_decouples(g32):
    from halfspace.coefficients import block_diagonal_coefficients

    x = g32.coordinates()[0]
    B = hat_transform(block_diagonal_coefficients(g32, 1.0, 2.0 + np.cos(x)))
    f = single_mode_field(g32, 2, [1.0, 0.0])
    out = b_operator(B).apply(f).to_physical()
    assert np.abs(out.values[..., 1]).max() < 1e-13


# ---------------------------------------------------------------------------
# resolvents
# ---------------------------------------------------------------------------


def test_resolvent_small_t_limit(g32, rng):
    B = hat_transform(perturbation_of_identity(g32, rng, 0.2))
    T = db_operator(B)
    f = random_field(g32, rng)
    u = resolvent_solve(T, 1e-8, f)
    assert l2_norm(u - f) < 1e-6 * l2_norm(f)


def test_resolvent_single_mode(g32):
    h = single_mode_field(g32, 1, [1.0, -1j])
    for t in (0.3, -0.7, 2.0):
        u = resolvent_solve(d_operator(g32), t, h)
        expected = h.to_physical().values / (1 + 1j * t)
        assert np.abs(u.values - expected).max() < 1e-10


def test_resolvent_uniform_bound_over_ladder(g32):
    rng = np.random.default_rng(5)
    from halfspace.coefficients import accretivity_estimate

    A = perturbation_of_identity(g32, rng, 0.15)
    B = hat_transform(A)
    report = accretivity_estimate(B)
    T = db_operator(B)
    bound = (report.sup_norm / report.kappa) / np.cos(report.omega)
    ladder = TLadder.default(per_octave=1)
    worst = 0.0
    for t in ladder.t:
        for _ in range(3):
            f = random_field(g32, rng)
            u = resolvent_solve(T, t, f)
            worst = max(worst, l2_norm(u) / l2_norm(f))
    # 100 probes total across the ladder
    assert worst <= bound * 1.01


def test_resolvent_gmres_matches_dense(g32, rng):
    B = hat_transform(perturbation_of_identity(g32, rng, 0.15))
    T = db_operator(B)
    f = random_field(g32, rng)
    dense = resolvent_solve(T, 0.4, f, method="dense")
    krylov = resolvent_solve(T, 0.4, f, method="gmres")
    assert l2_norm(dense - krylov) < 1e-8 * l2_norm(f)


@pytest.mark.parametrize("method", ["Dense", "gmers", ""])
def test_resolvent_refuses_unknown_method_before_solving(g32, rng, method):
    T = db_operator(hat_transform(perturbation_of_identity(g32, rng, 0.15)))
    f = random_field(g32, rng)
    for t in (0.4, 0.0):
        with pytest.raises(ValueError, match=f"unknown resolvent method {method!r}"):
            resolvent_solve(T, t, f, method=method)
    assert T._lu is None and T._dense is None


def test_resolvent_residual_certified(g32, rng):
    B = hat_transform(perturbation_of_identity(g32, rng, 0.1))
    T = db_operator(B)
    f = random_field(g32, rng)
    u = resolvent_solve(T, 0.9, f, tol=1e-10)
    applied = T.apply(u).to_physical()
    res = l2_norm(u + 1j * 0.9 * applied - f)
    assert res <= 1e-10 * l2_norm(f) * 1.01


# ---------------------------------------------------------------------------
# dense assembly
# ---------------------------------------------------------------------------


def test_dense_matches_apply(g32, rng):
    B = hat_transform(perturbation_of_identity(g32, rng, 0.2))
    T = db_operator(B)
    M = assemble_dense(T)
    for _ in range(100):
        f = random_field(g32, rng)
        direct = T.apply(f).to_physical().values.reshape(-1)
        assert np.linalg.norm(M @ f.flat() - direct) < 1e-12 * np.linalg.norm(direct)


def _every_handle_kind(grid):
    """D, P, D^+, B, DB, BD and the adjoint system's DB and BD on a perturbed field."""
    system = FirstOrderSystem(perturbation_of_identity(grid, np.random.default_rng(5), 0.3))
    adjoint = system.adjoint()
    return [d_operator(grid), p_operator(grid), inverse_d_operator(grid),
            b_operator(system.B), system.db, system.bd, adjoint.db, adjoint.bd]


@pytest.mark.parametrize("grid", [GridSpec(1, 32), GridSpec(2, 8), GridSpec(1, 16, 2)],
                         ids=["1d-g32", "2d-g8", "1d-g16-m2"])
def test_assemble_dense_matches_basis_apply(grid):
    for T in _every_handle_kind(grid):
        reference = basis_apply_dense(T)
        M = assemble_dense(T)
        assert M.shape == reference.shape
        assert np.linalg.norm(M - reference) <= 1e-13 * np.linalg.norm(reference), T.tag


@pytest.mark.parametrize("grid", [GridSpec(1, 32), GridSpec(2, 8), GridSpec(1, 16, 2)],
                         ids=["1d-g32", "2d-g8", "1d-g16-m2"])
def test_apply_array_returns_physical_values_of_the_dense_matrix(grid):
    rng = np.random.default_rng(3)
    shape = (3,) + grid.shape + (grid.channels,)
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    spectral = grid_module.fft_values(stack, grid)
    for T in _every_handle_kind(grid):
        M = assemble_dense(T)
        expected = stack.reshape(3, -1) @ M.T
        scale = np.linalg.norm(expected)
        for values, rep in ((stack, PHYSICAL), (spectral, SPECTRAL)):
            batched = T.apply_array(values, rep)
            assert batched.shape == shape, (T.tag, rep)
            assert np.linalg.norm(batched.reshape(3, -1) - expected) <= 1e-13 * scale, (T.tag, rep)
            single = T.apply_array(values[1], rep)
            assert np.linalg.norm(single.reshape(-1) - expected[1]) <= 1e-13 * scale, (T.tag, rep)
            field = T.apply(Field(grid, values[1], rep))
            assert field.rep == PHYSICAL and np.array_equal(field.values, single), (T.tag, rep)


def test_assemble_dense_runs_no_transform_or_apply(monkeypatch, g8x2):
    handles = _every_handle_kind(g8x2)
    calls = []
    for owner in (operators, grid_module):
        for name in ("fft_values", "ifft_values"):
            monkeypatch.setattr(owner, name, lambda *args, name=name: calls.append(name))
    monkeypatch.setattr(operators.LinearOperatorHandle, "apply_array",
                        lambda *args: calls.append("apply_array"))
    for T in handles:
        assemble_dense(T)
    assert calls == []


def test_assemble_dense_peak_memory():
    grid = GridSpec(2, 16)  # dof 768, a 9 MiB matrix
    B = hat_transform(perturbation_of_identity(grid, np.random.default_rng(2), 0.3))
    for T in (db_operator(B), bd_operator(B)):
        tracemalloc.start()
        try:
            M = assemble_dense(T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * M.nbytes, (T.tag, peak / M.nbytes)


def test_assemble_dense_refuses_other_compositions_before_allocating():
    grid = GridSpec(2, 32)  # dof 3072: a dense matrix would take 144 MiB
    B = hat_transform(identity_coefficients(grid))
    others = [
        operators.LinearOperatorHandle("BDB", grid, symbol=build_D_symbol(grid), left=B, right=B),
        operators.LinearOperatorHandle("BB", grid, left=B, right=B),
    ]
    for T in others:
        tracemalloc.start()
        try:
            with pytest.raises(OperatorError, match=repr(T.tag)):
                assemble_dense(T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (T.tag, peak)


def test_dense_identity_b_is_hermitian_with_symmetric_spectrum(g32):
    B = hat_transform(identity_coefficients(g32))
    M = assemble_dense(db_operator(B))
    assert np.abs(M - M.conj().T).max() < 1e-11
    lam = np.sort(np.linalg.eigvalsh(M))
    assert np.allclose(lam, -lam[::-1], atol=1e-10)


def test_dense_scalar_rotation_scales_spectrum(g32):
    from halfspace.coefficients import TransformedB

    theta = 0.25
    B = TransformedB(g32, np.exp(1j * theta) * identity_coefficients(g32).values)
    M = assemble_dense(db_operator(B))
    D = assemble_dense(d_operator(g32))
    lam_db = np.sort_complex(np.linalg.eigvals(M))
    lam_d = np.sort_complex(np.exp(1j * theta) * np.linalg.eigvals(D))
    assert np.allclose(lam_db, lam_d, atol=1e-8)


def test_dense_spectrum_in_bisector(g32, rng):
    from halfspace.coefficients import accretivity_estimate

    A = perturbation_of_identity(g32, rng, 0.2)
    B = hat_transform(A)
    report = accretivity_estimate(B)
    lam = np.linalg.eigvals(assemble_dense(db_operator(B)))
    lam = lam[np.abs(lam) > 1e-8]
    angles = np.minimum(np.abs(np.angle(lam)), np.abs(np.angle(-lam)))
    assert angles.max() <= report.omega + 0.05


def test_dense_size_limit():
    grid = GridSpec(dim=2, points=64, system_size=1)  # dof 12288 > limit
    with pytest.raises(OperatorError, match="contour"):
        assemble_dense(d_operator(grid))
    assert DENSE_LIMIT == 8192


def test_dense_limit_has_one_owner():
    # grid owns the limit, so that coefficients can refuse with it; operators re-exports it
    assert operators.OperatorError is grid_module.OperatorError
    assert operators.DENSE_LIMIT is grid_module.DENSE_LIMIT
    assert operators.check_dense_size is grid_module.check_dense_size


def test_one_d_kernel_only_at_zero_mode(g32, rng):
    B = hat_transform(perturbation_of_identity(g32, rng, 0.2))
    M = assemble_dense(db_operator(B))
    sv = np.linalg.svd(M, compute_uv=False)
    # invertible symbol off the zero frequency: kernel dimension = channels
    assert (sv < 1e-8 * sv[0]).sum() == g32.channels


# ---------------------------------------------------------------------------
# kernel / range machinery
# ---------------------------------------------------------------------------


def test_range_null_split_db(g32, rng):
    B = hat_transform(perturbation_of_identity(g32, rng, 0.2))
    T = db_operator(B)
    f = random_field(g32, rng)
    fr, fn = range_null_split(T, f)
    assert l2_norm(fr + fn - f) < 1e-9 * l2_norm(f)
    assert l2_norm(T.apply(fn)) < 1e-9 * l2_norm(f)
    Pfr = p_operator(g32).apply(fr)
    assert l2_norm(Pfr - fr) < 1e-9 * l2_norm(f)


def test_null_of_bd_equals_null_of_d(g32, rng):
    B = hat_transform(perturbation_of_identity(g32, rng, 0.2))
    T = bd_operator(B)
    f = random_field(g32, rng)
    null_d = f - p_operator(g32).apply(f)
    for t in (0.1, 1.0, 10.0):
        fixed = resolvent_solve(T, t, null_d)
        assert l2_norm(fixed - null_d) <= 1e-10 * max(l2_norm(null_d), 1e-300)


def compression_condition(splitter):
    return float(np.linalg.cond(splitter))


def test_projection_restricted_is_invertible(g32, rng):
    B = hat_transform(perturbation_of_identity(g32, rng, 0.2))
    splitter = range_splitter(bd_operator(B))
    cond = compression_condition(splitter)
    assert np.isfinite(cond)
    assert cond < 100


DECLARED_STATE = {
    "tag", "grid", "symbol", "left", "right",
    "_dense", "_eigen", "_schur", "_contour",
    "_resolvent_diagonal", "_lu",
}
# TransformedB keeps its values, the certificate, the primal of an adjoint
# and its three cached properties
B_STATE = {"grid", "values", "_report", "_primal", "compression", "range_eigen",
           "range_syntheses"}


def test_handle_state_is_declared(g32, rng):
    B = hat_transform(perturbation_of_identity(g32, rng, 0.2))
    D, db, bd = d_operator(g32), db_operator(B), bd_operator(B)
    assert D.multiplier_matrix is None
    assert db.multiplier_matrix is B and bd.multiplier_matrix is B
    assert b_operator(B).multiplier_matrix is B
    f = random_field(g32, rng)
    range_splitter(db)
    resolvent_solve(db, 0.5, f, method="dense")
    for T in (D, db, bd, p_operator(g32)):
        assert set(vars(T)) == DECLARED_STATE
    assert db._lu[0] == 0.5
    eigen_data(db)
    apply_calculus(fc.resolvent_power(4), bd, f, path="contour")
    assert set(vars(bd)) == DECLARED_STATE
    assert bd._resolvent_diagonal.shape == (g32.dof, 2 * fc._NODES_PER_CURVE)
    assert set(vars(B)) == B_STATE
    assert range_splitter(bd) is B.compression
    assert B._report is accretivity_estimate(B)


def test_transformed_b_owns_compression_and_range_eigen(g32, rng, monkeypatch):
    compressions = []
    eigs = []
    compress, eig = coefficients._range_compression, np.linalg.eig

    def counted_compression(B):
        compressions.append(B)
        return compress(B)

    def counted_eig(M):
        eigs.append(M.shape)
        return eig(M)

    monkeypatch.setattr(coefficients, "_range_compression", counted_compression)
    monkeypatch.setattr(np.linalg, "eig", counted_eig)
    B = hat_transform(perturbation_of_identity(g32, rng, 0.2))
    db, bd = db_operator(B), bd_operator(B)
    accretivity_estimate(B)
    eigen_data(db)
    eigen_data(bd)
    apply_calculus(fc.resolvent_power(4), db, random_field(g32, rng), path="contour")
    assert range_splitter(b_operator(B)) is B.compression
    assert range_splitter(db) is range_splitter(bd) is B.compression
    assert compressions == [B]
    r = 2 * (g32.points - 1)
    assert eigs == [(r, r)]
    assert set(vars(B)) == B_STATE


@pytest.mark.parametrize("grid", [GridSpec(1, 32, 1), GridSpec(2, 8, 1), GridSpec(1, 16, 2),
                                  GridSpec(2, 8, 2)], ids=str)
def test_symbols_square_to_modulus_times_projection(grid):
    # S(k)^2 = sigma(k)^2 P(k), the precondition of the closed-form calculus
    k = grid.frequency_norms()
    inv = np.where(k > 0, 1.0 / np.where(k > 0, k, 1.0), 0.0)
    P = build_P_symbol(grid).matrices
    for T, sigma in ((d_operator(grid), k), (p_operator(grid), (k > 0) * 1.0),
                     (inverse_d_operator(grid), inv)):
        S = T.symbol.matrices
        assert np.abs(S @ S - sigma[..., None, None] ** 2 * P).max() <= 1e-13
        assert np.abs(fc._range_modulus(T) - sigma).max() <= 1e-13


@pytest.mark.parametrize("grid", [GridSpec(1, 32, 1), GridSpec(2, 8, 1), GridSpec(1, 16, 2),
                                  GridSpec(2, 8, 2)], ids=str)
def test_range_symbol_is_compressed_D(grid):
    Q = dense_range_basis(grid)
    compressed = Q.conj().T @ d_operator(grid).dense_matrix() @ Q
    closed_form = _range_symbol_product(grid, np.eye(Q.shape[1]))
    assert np.abs(closed_form - compressed).max() <= 1e-13 * grid.points


@pytest.mark.parametrize("grid", [GridSpec(1, 32, 1), GridSpec(2, 8, 1), GridSpec(1, 16, 2),
                                  GridSpec(2, 8, 2)], ids=str)
def test_range_eigenvectors_match_dense_basis(grid):
    # DB: V = Q W, Vinv = W^-1 C^-1 Q^* B; BD: V = B Q W, Vinv = W^-1 C^-1 Q^*
    B = hat_transform(perturbation_of_identity(grid, np.random.default_rng(9), 0.3))
    Q = dense_range_basis(grid)
    Bmat = assemble_dense(b_operator(B))
    db, bd = eigen_data(db_operator(B)), eigen_data(bd_operator(B))
    compression, core = B.compression, B.range_eigen
    M = np.linalg.inv(core.W) @ np.linalg.inv(compression)
    assert np.abs(core.M - M).max() <= 1e-13 * np.abs(M).max()
    expected = [(db, Q @ core.W, M @ Q.conj().T @ Bmat),
                (bd, Bmat @ Q @ core.W, M @ Q.conj().T)]
    r = Q.shape[1]
    for ed, V, Vinv in expected:
        assert np.abs(ed.V - V).max() <= 1e-13 * max(np.abs(V).max(), 1.0)
        assert np.abs(ed.Vinv - Vinv).max() <= 1e-13 * max(np.abs(Vinv).max(), 1.0)
        assert np.abs(ed.Vinv @ ed.V - np.eye(r)).max() <= 1e-13
    # the compression and the factorization keep no array with a dof-long
    # axis: no dense basis; the two syntheses Q W and M Q^* are B's own
    assert isinstance(compression, np.ndarray) and not compression.flags.writeable
    arrays = [compression] + [v for v in vars(core).values() if isinstance(v, np.ndarray)]
    assert all(grid.dof not in np.shape(a) for a in arrays)
    QW, MQ = B.range_syntheses
    assert np.abs(QW - Q @ core.W).max() <= 1e-13 * np.abs(QW).max()
    assert np.abs(MQ - core.M @ Q.conj().T).max() <= 1e-13 * np.abs(MQ).max()
    assert db.V is QW and bd.Vinv is MQ


def test_range_split_refuses_beyond_dense_limit():
    grid = GridSpec(dim=2, points=64, system_size=1)  # dof 12288 > limit
    B = hat_transform(identity_coefficients(grid))
    refusals = [lambda: B.compression, lambda: accretivity_estimate(B),
                lambda: range_splitter(db_operator(B)), lambda: eigen_data(bd_operator(B))]
    for refused in refusals:
        with pytest.raises(OperatorError, match="size 12288 exceeds"):
            refused()
    assert "compression" not in vars(B) and B._report is None


def test_d_contour_builds_no_compression(g32, rng, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("D needs no compression")

    for name in ("_range_compression", "_range_synthesis"):
        monkeypatch.setattr(coefficients, name, forbidden)
    T = d_operator(g32)
    f = random_field(g32, rng)
    # the contour path gives 1 on the range and the value at the origin,
    # here 0 and 2, on the null space, with no split of f
    Pf = p_operator(g32).apply(f)
    both = fc.custom(0.0, 0.0, lambda z: np.ones_like(z), 2.0, name="one-on-range")
    out = apply_calculus(both, T, f, path="contour")
    assert l2_norm(out - (Pf + (f - Pf) * 2.0)) <= 1e-10 * l2_norm(f)
    assert l2_norm(apply_calculus(fc.chi_plus(), T, f, path="contour")
                   + apply_calculus(fc.chi_minus(), T, f, path="contour") - Pf) <= 1e-10 * l2_norm(f)


def test_range_split_refuses_other_symbols(g32, rng):
    for T in (d_operator(g32), p_operator(g32), inverse_d_operator(g32)):
        with pytest.raises(OperatorError, match="no range split"):
            range_splitter(T)
        with pytest.raises(OperatorError, match="no range eigendecomposition"):
            eigen_data(T)
        assert T._eigen is None and T._dense is None
    # B alone has a compression but no range eigendecomposition, and the
    # refusal comes before any compression is built and cached on B
    B = b_operator(hat_transform(perturbation_of_identity(g32, rng, 0.2)))
    with pytest.raises(OperatorError, match="no range eigendecomposition"):
        eigen_data(B)
    assert "compression" not in vars(B.multiplier_matrix) and B._eigen is None


# ---------------------------------------------------------------------------
# off-diagonal decay
# ---------------------------------------------------------------------------


def test_offdiag_same_set_bounded_by_resolvent(g32, rng):
    B = hat_transform(identity_coefficients(g32))
    T = db_operator(B)
    mask = g32.torus_distance_table() <= np.pi / 4
    est = offdiag_probe(T, 0.5, mask, mask, trials=4, rng=rng)
    assert est.norms[0] <= 1.0 + 1e-10  # self-adjoint resolvent bound


def test_offdiag_distance_sweep_exponent(g64):
    rng = np.random.default_rng(2)
    B = hat_transform(perturbation_of_identity(g64, rng, 0.15))
    T = db_operator(B)
    t = 0.7
    est = offdiag_distance_sweep(T, t, np.geomspace(0.4 * t, 4 * t, 6), trials=5, rng=rng)
    assert est.exponent >= 2.0
    assert not est.saturated


def test_offdiag_factorizes_once_per_scale(g32, rng, monkeypatch):
    T = db_operator(hat_transform(identity_coefficients(g32)))
    dist = g32.torus_distance_table()
    factorizations = []
    lu_factor = operators.scipy.linalg.lu_factor

    def counted(M, *args, **kwargs):
        factorizations.append(M.shape)
        return lu_factor(M, *args, **kwargs)

    def refactorize(*args, **kwargs):
        raise AssertionError("a dense solve factorizes again for each trial")

    monkeypatch.setattr(operators.scipy.linalg, "lu_factor", counted)
    monkeypatch.setattr(operators.scipy.linalg, "solve", refactorize)
    est = offdiag_probe(T, np.array([0.3, 1.0]), dist <= 0.3, dist >= 2.0, trials=4, rng=rng)
    assert len(factorizations) == 2
    assert np.all(est.norms > 0)


def test_offdiag_saturation_flag(g32, rng):
    B = hat_transform(identity_coefficients(g32))
    T = db_operator(B)
    dist = g32.torus_distance_table()
    est = offdiag_probe(
        T, np.array([1.0, 10.0]), dist <= 0.3, dist >= 2.8, trials=2, rng=rng
    )
    assert est.saturated


def test_torus_distance(g32):
    dist = g32.torus_distance_table()
    maskA = dist <= 0.1
    maskB = (dist >= 1.0) & (dist <= 1.3)
    d = torus_mask_distance(g32, maskA, maskB)
    assert 0.8 <= d <= 1.3


def test_linearity_probe(g32, rng):
    B = hat_transform(perturbation_of_identity(g32, rng, 0.3))
    T = bd_operator(B)
    f, g = random_field(g32, rng), random_field(g32, rng)
    a, b = 1.3 - 0.2j, -0.7 + 1.1j
    lhs = T.apply(a * f + b * g)
    rhs = a * T.apply(f) + b * T.apply(g)
    assert l2_norm(lhs - rhs) < 1e-12 * (l2_norm(lhs) + 1)


def test_dense_resolvent_lu_cached_per_t(g32, rng, monkeypatch):
    T = db_operator(hat_transform(perturbation_of_identity(g32, rng, 0.2)))
    factorizations = []
    lu_factor = operators.scipy.linalg.lu_factor

    def counted(M, *args, **kwargs):
        factorizations.append(M.shape)
        return lu_factor(M, *args, **kwargs)

    monkeypatch.setattr(operators.scipy.linalg, "lu_factor", counted)
    for t in (0.6, 0.6, 0.2):
        f = random_field(g32, rng)
        u = resolvent_solve(T, t, f, method="dense")
        back = u + 1j * t * T.apply(u)
        assert l2_norm(back - f) <= 1e-10 * l2_norm(f)
    # the repeated t reuses the cached LU; the new t replaces it
    assert len(factorizations) == 2

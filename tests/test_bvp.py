import dataclasses
import gc
import json
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

import halfspace.bvp as bvp
import halfspace.calculus as fc
from halfspace.bvp import (
    DatumError,
    FirstOrderSystem,
    TraceMapError,
    boundary_layer_representation_check,
    dirichlet_to_neumann,
    double_layer,
    embed_scalar,
    grad_single_layer,
    layer_duality_check,
    neumann_to_dirichlet,
    scalar_potential,
    single_layer,
    solve_dirichlet,
    solve_neumann,
    solve_regularity,
    spectral_split,
    tangential_gradient,
)
from halfspace.coefficients import (
    _range_symbol_product,
    _range_synthesis,
    block_diagonal_coefficients,
    hat_transform,
    perturbation_of_identity,
)
from halfspace.grid import (
    Field,
    GridError,
    GridSpec,
    TLadder,
    l2_norm,
    random_field,
    sobolev_norm,
)
from halfspace.operators import (
    OperatorError,
    assemble_dense,
    bd_operator,
    d_operator,
    db_operator,
    p_operator,
    range_splitter,
    resolvent_solve,
)
from halfspace.tent import (
    TentField,
    carleson_norm,
    nt_maximal,
    nt_sharp,
    quadratic_norm,
    semigroup_tent_field,
    tent_norm,
    unit_ball_volume,
)

from conftest import (
    band_limited_scalar,
    count_ladder_work,
    curl_free_residual,
    physical_trace_maps,
)


def scalar_norm(grid, f):
    return float(np.sqrt(grid.cell_volume) * np.linalg.norm(f))


# ---------------------------------------------------------------------------
# trace solvers against closed-form oracles
# ---------------------------------------------------------------------------


def test_regularity_flat_coefficients_poisson(identity_system_32):
    sys_ = identity_system_32
    grid = sys_.grid
    x = grid.coordinates()[0]
    f = -np.sin(x)  # tangential gradient of cos x
    sol = solve_regularity(sys_, f)
    h = sol.h.to_physical().values
    assert np.allclose(h[..., 0], -np.cos(x), atol=1e-10)
    assert np.allclose(h[..., 1], -np.sin(x), atol=1e-10)
    for t in (0.2, 1.0):
        F = sol.evaluate(t).to_physical().values
        assert np.allclose(F[..., 0], -np.exp(-t) * np.cos(x), atol=1e-10)
        assert np.allclose(F[..., 1], -np.exp(-t) * np.sin(x), atol=1e-10)
    assert sol.diagnostics["trace_residual"] <= 1e-8


def test_regularity_zero_datum(identity_system_32):
    sol = solve_regularity(identity_system_32, np.zeros(identity_system_32.grid.shape))
    assert l2_norm(sol.h) <= 1e-12


def test_regularity_block_diagonal_mode_oracle(g32):
    # constant block-diagonal coefficients: each mode solves a scalar
    # two-point ODE whose decaying branch has rate sqrt(d) |k|
    d = 2.3
    sys_ = FirstOrderSystem(block_diagonal_coefficients(g32, 1.0, d))
    x = g32.coordinates()[0]
    f = -np.sin(x)
    sol = solve_regularity(sys_, f)
    rate = np.sqrt(d)
    h = sol.h.to_physical().values
    assert np.allclose(h[..., 1], -np.sin(x), atol=1e-9)
    assert np.allclose(h[..., 0], -rate * np.cos(x), atol=1e-9)
    for t in (0.3, 1.1):
        F = sol.evaluate(t).to_physical().values
        decay = np.exp(-rate * t)
        assert np.allclose(F[..., 0], -rate * decay * np.cos(x), atol=1e-9)
        assert np.allclose(F[..., 1], -decay * np.sin(x), atol=1e-9)


def test_neumann_matches_regularity_for_flat(identity_system_32):
    grid = identity_system_32.grid
    x = grid.coordinates()[0]
    sol_n = solve_neumann(identity_system_32, -np.cos(x))
    sol_r = solve_regularity(identity_system_32, -np.sin(x))
    assert l2_norm(sol_n.h - sol_r.h) <= 1e-9


def test_neumann_zero_datum(identity_system_32):
    sol = solve_neumann(identity_system_32, np.zeros(identity_system_32.grid.shape))
    assert l2_norm(sol.h) <= 1e-12


def test_neumann_random_near_identity(g32):
    rng = np.random.default_rng(17)
    sys_ = FirstOrderSystem(perturbation_of_identity(g32, rng, 0.1))
    g = band_limited_scalar(g32, rng)
    sol = solve_neumann(sys_, g)
    assert sol.diagnostics["trace_residual"] < 1e-8
    assert sol.diagnostics["trace_condition"] < 100


def test_solver_requires_mean_zero(identity_system_32):
    grid = identity_system_32.grid
    with pytest.raises(DatumError, match="zero mean"):
        solve_neumann(identity_system_32, np.ones(grid.shape))
    with pytest.raises(DatumError, match="zero mean"):
        solve_dirichlet(identity_system_32, np.ones(grid.shape))


def test_regularity_requires_gradient_datum(perturbed_system_2d):
    grid = perturbed_system_2d.grid
    rng = np.random.default_rng(3)
    raw = rng.standard_normal(grid.shape + (2,))
    raw -= raw.mean(axis=(0, 1))
    with pytest.raises(DatumError, match="gradient"):
        solve_regularity(perturbed_system_2d, raw)


def test_trace_condition_guard(identity_system_32, monkeypatch):
    grid = identity_system_32.grid
    x = grid.coordinates()[0]
    monkeypatch.setattr(bvp, "TRACE_CONDITION_LIMIT", 0.5)
    with pytest.raises(TraceMapError, match="^regularity problem numerically not solvable"):
        solve_regularity(identity_system_32, -np.sin(x))
    with pytest.raises(TraceMapError, match="^neumann problem numerically not solvable"):
        solve_neumann(identity_system_32, np.cos(x))
    with pytest.raises(TraceMapError, match=r"^dirichlet problem \(solved as the regularity "
                                            r"problem for its gradient\) numerically not"):
        solve_dirichlet(identity_system_32, np.cos(x))


# ---------------------------------------------------------------------------
# interior consistency
# ---------------------------------------------------------------------------


def equation_residual_at(sol, t: float, rel_delta: float = 1e-4) -> float:
    """Pointwise evolution residual with a tight centered difference."""
    dt = rel_delta * t
    fp = sol.evaluate(t + dt).to_physical().values
    fm = sol.evaluate(t - dt).to_physical().values
    ddt = (fp - fm) / (2 * dt)
    Tf = sol.system.db.apply(sol.evaluate(t)).to_physical().values
    return float(np.linalg.norm(ddt + Tf) / max(np.linalg.norm(Tf), 1e-300))


def test_equation_residual_bounds(perturbed_system_32):
    rng = np.random.default_rng(4)
    grid = perturbed_system_32.grid
    f = band_limited_scalar(grid, rng)
    sol = solve_neumann(perturbed_system_32, f)
    ladder = TLadder.logspaced(2.0**-4, 2.0**2, 8)
    assert sol.equation_residual(ladder) <= 1e-4
    for t in (0.1, 0.9):
        assert equation_residual_at(sol, t) <= 1e-6


def test_trace_continuity_monotone(perturbed_system_32):
    rng = np.random.default_rng(9)
    grid = perturbed_system_32.grid
    sol = solve_neumann(perturbed_system_32, band_limited_scalar(grid, rng))
    gaps = []
    for t in (0.5, 0.25, 0.125, 0.0625, 0.03125):
        gaps.append(l2_norm(sol.evaluate(t) - sol.h))
    for a, b in zip(gaps, gaps[1:]):
        assert b <= a * 1.05
    assert gaps[-1] < 0.2 * gaps[0]


def test_dirichlet_poisson_modes(identity_system_32):
    grid = identity_system_32.grid
    x = grid.coordinates()[0]
    sol = solve_dirichlet(identity_system_32, np.cos(x))
    for t in (0.2, 1.0, 2.5):
        u = sol.scalar_value(t)
        assert np.allclose(u, np.exp(-t) * np.cos(x), atol=1e-10)
    assert sol.diagnostics["boundary_value_error"] <= 1e-8
    # the potential vector behind scalar_value is cached on the solution, not in diagnostics
    assert sol.diagnostics["potential_residual"] <= 1e-8
    json.dumps(sol.diagnostics)


def test_dirichlet_zero(identity_system_32):
    sol = solve_dirichlet(identity_system_32, np.zeros(identity_system_32.grid.shape))
    assert l2_norm(sol.h) <= 1e-12
    assert scalar_norm(identity_system_32.grid, sol.scalar_value(0.5)) <= 1e-12


def test_dirichlet_tent_diagnostic(perturbed_system_32):
    rng = np.random.default_rng(10)
    grid = perturbed_system_32.grid
    ladder = TLadder.logspaced(2.0**-5, 2.0**3, 2)
    sol = solve_dirichlet(perturbed_system_32, band_limited_scalar(grid, rng), ladder=ladder)
    assert sol.diagnostics["tent_norm_t_grad"] > 0
    # the batched ladder against one semigroup evaluation per height
    fields = [(sol.evaluate(t) * t).values for t in ladder.t]
    reference = tent_norm(TentField(grid, ladder, np.stack(fields)), 2.0)
    assert sol.diagnostics["tent_norm_t_grad"] == pytest.approx(reference, rel=1e-12)


def test_repeated_dirichlet_diagnostic_reads_its_form(g8x2, monkeypatch):
    rng = np.random.default_rng(48)
    sys_ = FirstOrderSystem(perturbation_of_identity(g8x2, rng, 0.1))
    ladder = TLadder.logspaced(2.0**-4, 2.0**2, 8)
    f = band_limited_scalar(g8x2, rng)
    applies, forms = count_ladder_work(monkeypatch)
    first = solve_dirichlet(sys_, f, ladder=ladder).diagnostics["tent_norm_t_grad"]
    assert len(forms) == 1
    for _ in range(3):
        sol = solve_dirichlet(sys_, f, ladder=ladder)
        assert sol.diagnostics["tent_norm_t_grad"] == first
    assert len(forms) == 1
    assert not applies


def test_warm_dirichlet_solves_one_triangular_system(perturbed_system_2d, monkeypatch):
    # the potential, the boundary value, its residual and the ladder
    # diagnostic all read the one R^-1 c, and the form is read as cached
    system = perturbed_system_2d
    rng = np.random.default_rng(50)
    ladder = TLadder.logspaced(2.0**-4, 2.0**2, 8)
    f = band_limited_scalar(system.grid, rng)
    solve_dirichlet(system, f, ladder=ladder)
    solves, gathers = [], []
    triangular, ix = bvp._triangular_solve, np.ix_
    monkeypatch.setattr(bvp, "_triangular_solve",
                        lambda *args: solves.append(args) or triangular(*args))
    monkeypatch.setattr(scipy.linalg, "solve_triangular",
                        lambda *args, **kwargs: solves.append(args))
    monkeypatch.setattr(np, "ix_", lambda *args: gathers.append(args) or ix(*args))
    sol = solve_dirichlet(system, f, ladder=ladder)
    assert len(solves) == 1 and not gathers
    assert sol.diagnostics["potential_residual"] <= 1e-12


def test_dirichlet_diagnostics_match_explicit_reference(perturbed_system_2d):
    # against scipy's triangular solve and the explicit positive block of the form
    system = perturbed_system_2d
    grid = system.grid
    rng = np.random.default_rng(51)
    ladder = TLadder.logspaced(2.0**-4, 2.0**2, 8)
    f = band_limited_scalar(grid, rng)
    sol = solve_dirichlet(system, f, ladder=ladder)
    hardy, ed = system.hardy("DB"), fc.eigen_data(system.db)
    positive, R = ed.lam.real > 0, hardy._R
    c = sol._coordinates[0]
    x = scipy.linalg.solve_triangular(R, c)
    lam = ed.lam[positive]
    image = R @ (lam * (x / lam))
    assert np.linalg.norm(c - image) / np.linalg.norm(c) <= 1e-12
    assert sol.diagnostics["potential_residual"] <= 1e-12
    scales = np.asarray(ladder.t, dtype=float)
    weights = np.asarray(ladder.weights, dtype=float) * scales**2
    block = ed.ladder_form(fc.UNIT_SEMIGROUP, scales, weights).hermitian[np.ix_(positive,
                                                                                positive)]
    energy = grid.cell_volume * (x.conj() @ block @ x).real
    reference = np.sqrt(unit_ball_volume(grid.dim) * energy)
    assert sol.diagnostics["tent_norm_t_grad"] == pytest.approx(reference, rel=1e-12)
    # the boundary value of the potential against f, by its scalar slot in physical space
    value = sol.scalar_value(0.0)
    assert np.linalg.norm(value - f) <= 1e-12 * np.linalg.norm(f)
    assert sol.diagnostics["boundary_value_error"] <= 1e-12


def test_warm_neumann_copies_no_trace_map_factor(system_2d_g16):
    # at 2D G=16 r/2 = 255, and one (r/2)^2 complex array is 1.0 MB
    system = system_2d_g16
    grid = system.grid
    g = band_limited_scalar(grid, np.random.default_rng(52))
    solve_neumann(system, g)
    half = system.hardy("DB").dim_plus
    tracemalloc.start()
    try:
        solve_neumann(system, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < half**2 * 16


def test_representation_checks_evaluate_the_extension_once_per_handle(g8x2, monkeypatch):
    rng = np.random.default_rng(49)
    sys_ = FirstOrderSystem(perturbation_of_identity(g8x2, rng, 0.1))
    sol = solve_dirichlet(sys_, band_limited_scalar(g8x2, rng))
    extension = bvp._EXTENSION_PLUS
    evaluations = []
    call = fc.HolomorphicFunctionSpec.__call__

    def counted(self, z):
        if self is extension:
            evaluations.append(z.shape)
        return call(self, z)

    monkeypatch.setattr(fc.HolomorphicFunctionSpec, "__call__", counted)
    residuals = [boundary_layer_representation_check(sys_, sol) for _ in range(5)]
    assert len(evaluations) == 2  # one table on DB, one on BD
    assert len(set(residuals)) == 1
    for T in (sys_.db, sys_.bd):
        entries = fc.eigen_data(T)._tables.values()
        assert sum(spec is extension for spec, _ in entries) == 1


def test_factored_map_matches_lstsq():
    rng = np.random.default_rng(15)
    M = rng.standard_normal((40, 12)) + 1j * rng.standard_normal((40, 12))
    M[:, -1] = M[:, 0]  # rank deficient: lstsq's cutoff drops one singular value
    rhs = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    tm = bvp._FactoredMap.of(M)
    ref, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    c, fitted = tm.solve(rhs)
    assert np.linalg.norm(c - ref) <= 1e-12 * np.linalg.norm(ref)
    assert np.linalg.norm(fitted - M @ ref) <= 1e-12 * np.linalg.norm(M @ ref)
    assert tm.condition > 1e12


# ---------------------------------------------------------------------------
# boundary maps
# ---------------------------------------------------------------------------


def test_dtn_symbol_flat(identity_system_32):
    grid = identity_system_32.grid
    x = grid.coordinates()[0]
    for k in (1, 2, 3):
        out = dirichlet_to_neumann(identity_system_32, np.cos(k * x))
        assert np.allclose(out, -k * np.cos(k * x), atol=1e-9 * k)


def test_dtn_ntd_inverse_pair(perturbed_system_32):
    rng = np.random.default_rng(12)
    grid = perturbed_system_32.grid
    f = band_limited_scalar(grid, rng)
    g = dirichlet_to_neumann(perturbed_system_32, f)
    back = neumann_to_dirichlet(perturbed_system_32, g)
    assert scalar_norm(grid, back - f) <= 1e-8 * scalar_norm(grid, f)


def test_dtn_adjoint_consistency(perturbed_system_32):
    # the boundary map of the adjoint coefficients is the conjugate
    # transpose of the boundary map on the mode basis
    sys_ = perturbed_system_32
    grid = sys_.grid
    adj = sys_.adjoint()
    x = grid.coordinates()[0]
    modes = [np.exp(1j * k * x) for k in (-3, -2, -1, 1, 2, 3)]
    M = np.zeros((len(modes), len(modes)), dtype=complex)
    Mstar = np.zeros_like(M)
    for j, f in enumerate(modes):
        out = dirichlet_to_neumann(sys_, f)
        out_star = dirichlet_to_neumann(adj, f)
        for i, g in enumerate(modes):
            M[i, j] = grid.cell_volume * np.vdot(g, out)
            Mstar[i, j] = grid.cell_volume * np.vdot(g, out_star)
    assert np.abs(M - Mstar.conj().T).max() <= 1e-8 * np.abs(M).max()


def test_trace_inversion_identity_on_hardy_basis(perturbed_system_32):
    # reconstructing from the tangential trace returns the same vector:
    # the inversion composed with the trace is the identity on the subspace
    rng = np.random.default_rng(14)
    sys_ = perturbed_system_32
    Q = _range_synthesis(sys_.grid, sys_.hardy("DB")._range_coordinates)
    coeff = rng.standard_normal(Q.shape[1]) + 1j * rng.standard_normal(Q.shape[1])
    h = Field.from_flat(sys_.grid, Q @ coeff)
    f = h.to_physical().values[..., 1:]
    sol = solve_regularity(sys_, f)
    assert l2_norm(sol.h - h) <= 1e-8 * l2_norm(h)


# ---------------------------------------------------------------------------
# spectral split
# ---------------------------------------------------------------------------


def test_spectral_split_single_mode(identity_system_32):
    grid = identity_system_32.grid
    x = grid.coordinates()[0]
    vals = np.zeros(grid.shape + (2,), dtype=complex)
    vals[..., 0] = np.exp(1j * x)
    vals[..., 1] = -1j * np.exp(1j * x)
    h = Field.physical(grid, vals)
    hp, hm = spectral_split(identity_system_32, h)
    assert l2_norm(hp - h) <= 1e-10 * l2_norm(h)
    assert l2_norm(hm) <= 1e-10 * l2_norm(h)


def test_spectral_split_constant(perturbed_system_32):
    grid = perturbed_system_32.grid
    h = Field.physical(grid, np.ones(grid.shape + (2,), dtype=complex))
    hp, hm = spectral_split(perturbed_system_32, h)
    assert l2_norm(hp) <= 1e-12
    assert l2_norm(hm) <= 1e-12


def test_spectral_split_sum_and_lower_bound(perturbed_system_32):
    rng = np.random.default_rng(15)
    grid = perturbed_system_32.grid
    for _ in range(5):
        h = random_field(grid, rng)
        Ph = p_operator(grid).apply(h)
        hp, hm = spectral_split(perturbed_system_32, h)
        assert l2_norm(hp + hm - Ph) <= 1e-8 * l2_norm(h)
        # parallelogram lower bound with constant two
        assert l2_norm(hp) ** 2 + l2_norm(hm) ** 2 >= 0.5 * l2_norm(Ph) ** 2 * (1 - 1e-12)


def test_hardy_dimensions(perturbed_system_32):
    basis = perturbed_system_32.hardy("DB")
    grid = perturbed_system_32.grid
    dim_minus = len(fc.eigen_data(perturbed_system_32.db).lam) - basis.dim_plus
    assert basis.dim_plus + dim_minus == 2 * (grid.points - 1)
    assert basis.dim_plus == dim_minus


# ---------------------------------------------------------------------------
# one eigendecomposition per system
# ---------------------------------------------------------------------------


def _four_handles(sys_):
    adj = sys_.adjoint()
    return {"BD": sys_.bd, "adjoint DB": adj.db, "adjoint BD": adj.bd, "DB": sys_.db}


def _bare_pair(sys_):
    """DB and BD built straight from the system's multiplier, outside any system."""
    B = hat_transform(sys_.A)
    return {"bare DB": db_operator(B), "bare BD": bd_operator(B)}


@pytest.fixture(params=["g32", "g8x2", "g16m2"])
def fresh_system(request):
    if request.param == "g16m2":
        grid = GridSpec(dim=1, points=16, system_size=2)
    else:
        grid = request.getfixturevalue(request.param)
    return FirstOrderSystem(perturbation_of_identity(grid, np.random.default_rng(21), 0.15))


def _range_dim(grid):
    return 2 * grid.system_size * (grid.points**grid.dim - 1)


def test_derived_eigen_data_matches_dense_eig(fresh_system):
    # the reference diagonalizes the dense matrix here and never sees the
    # compression of B, so it witnesses the range eigendecomposition independently
    grid = fresh_system.grid
    h = random_field(grid, np.random.default_rng(22))
    for name, T in {**_four_handles(fresh_system), **_bare_pair(fresh_system)}.items():
        ed = fc.eigen_data(T)
        M = T.dense_matrix()
        residual = np.linalg.norm(M @ ed.V - ed.V * ed.lam)
        assert residual <= 1e-12 * np.linalg.norm(M) * np.linalg.norm(ed.V), name
        lam, V = np.linalg.eig(M)
        Vinv = np.linalg.inv(V)
        null = np.abs(lam) < 1e-10 * np.abs(lam).max()
        assert grid.dof - len(ed.lam) == null.sum(), name
        assert len(ed.lam) == _range_dim(grid), name
        rows, cols = linear_sum_assignment(np.abs(ed.lam[:, None] - lam[~null][None, :]))
        assert np.abs(ed.lam[rows] - lam[~null][cols]).max() <= 1e-10 * ed.radius, name
        for b in (fc.chi_plus(), fc.sgn(), fc.exp_abs(1.0), fc.resolvent_power(4)):
            vals = np.where(null, b.value_at_zero, b(lam))
            expected = V @ (vals * (Vinv @ h.flat()))
            got = fc.apply_calculus(b, T, h, path="eigen").flat()
            err = np.linalg.norm(got - expected) / np.linalg.norm(expected)
            assert err <= 1e-10, (name, b.name, err)


def test_range_eigen_data_null_part_is_exact(fresh_system):
    # h in the null space of DB is B^-1 (I - P) g, and of BD is (I - P) g;
    # every function then acts by its value at the origin, with no threshold
    grid = fresh_system.grid
    g = random_field(grid, np.random.default_rng(26))
    null_d = (g - p_operator(grid).apply(g)).to_physical()
    for sys_ in (fresh_system, fresh_system.adjoint()):
        null_db = np.linalg.solve(sys_.B.values, null_d.values[..., None])[..., 0]
        for handle, v in ((sys_.db, Field.physical(grid, null_db)), (sys_.bd, null_d)):
            for b in (fc.chi_plus(), fc.sgn(), fc.exp_abs(1.0), fc.one(),
                      fc.resolvent_power(4)):
                got = fc.apply_calculus(b, handle, v, path="eigen")
                assert l2_norm(got - b.value_at_zero * v) <= 1e-12 * l2_norm(v), (
                    handle.tag, b.name)


def test_one_eig_and_one_certificate_per_system(g8x2, monkeypatch):
    import halfspace.coefficients as coefficients

    shapes = {"eig": [], "eigvalsh": [], "eigh": [], "synthesis": []}

    def recording(name, inner):
        def call(M, *args, **kwargs):
            shapes[name].append(np.shape(M))
            return inner(M, *args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "eig", recording("eig", np.linalg.eig))
    monkeypatch.setattr(np.linalg, "eigvalsh", recording("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(scipy.linalg, "eigh", recording("eigh", scipy.linalg.eigh))
    synthesis = coefficients._range_synthesis
    monkeypatch.setattr(coefficients, "_range_synthesis", lambda grid, X: (
        shapes["synthesis"].append(X.shape) or synthesis(grid, X)))
    sys_ = FirstOrderSystem(perturbation_of_identity(g8x2, np.random.default_rng(23), 0.1))
    for T in _four_handles(sys_).values():
        fc.eigen_data(T)
    h = random_field(g8x2, np.random.default_rng(0))
    for T in (sys_.db, sys_.adjoint().bd):
        fc.apply_calculus(fc.chi_plus(), T, h, path="contour")
    r = _range_dim(g8x2)
    # one certificate, kappa and the pencil solve of the angle, serves B and its adjoint
    assert shapes["eigvalsh"].count((r, r)) == 1 and shapes["eigh"] == [(r, r)]
    assert sys_.adjoint().report is sys_.report
    assert shapes["eig"] == [(r, r)]
    # two syntheses of r columns, Q W and Q M^*, serve all four handles
    assert shapes["synthesis"] == [(r, r), (r, r)]
    # a bare DB/BD pair on one multiplier shares its compression, certificate and eig too
    db, bd = _bare_pair(sys_).values()
    fc.eigen_data(db)
    fc.eigen_data(bd)
    fc.apply_calculus(fc.chi_plus(), bd, h, path="contour")
    assert shapes["eig"] == [(r, r), (r, r)]
    assert shapes["eigvalsh"].count((r, r)) == 2 and shapes["eigh"] == [(r, r)] * 2
    assert range_splitter(db) is range_splitter(bd)


def test_bd_eigen_data_after_db_runs_no_synthesis(fresh_system, monkeypatch):
    # DB and BD share the syntheses Q W and M Q^* = (Q M^*)^* of their
    # multiplier: V = B Q W and Vinv = M Q^* itself, with no rescaling of the columns
    import halfspace.coefficients as coefficients

    db = fc.eigen_data(fresh_system.db)
    calls = []
    synthesis = coefficients._range_synthesis
    monkeypatch.setattr(coefficients, "_range_synthesis",
                        lambda *args: calls.append(args) or synthesis(*args))
    bd = fc.eigen_data(fresh_system.bd)
    assert calls == []
    BV = (fresh_system.B.values @ db.V.reshape(fresh_system.grid.shape + (-1, db.V.shape[1])))
    BV = BV.reshape(db.V.shape)
    assert np.abs(bd.V - BV).max() <= 1e-13 * np.abs(BV).max()
    assert bd.Vinv is fresh_system.B.range_syntheses[1]
    assert bd.coordinates is None and db.coordinates is fresh_system.B.range_eigen.W


def test_adjoint_eigen_data_runs_no_factorization(fresh_system, monkeypatch):
    # the adjoint multiplier N B^* N takes the primal's certificate, its eig
    # as lam' = -conj(lam), W' = n M^*, M' = W^* n, and its syntheses
    import halfspace.coefficients as coefficients

    for T in (fresh_system.db, fresh_system.bd):
        fc.eigen_data(T)

    def forbidden(*args, **kwargs):
        raise AssertionError("the adjoint factorized")

    for owner, name in ((np.linalg, "eig"), (np.linalg, "eigvalsh"), (np.linalg, "svd"),
                        (np.linalg, "cond"), (scipy.linalg, "eigh"), (scipy.linalg, "svd"),
                        (coefficients, "_range_synthesis")):
        monkeypatch.setattr(owner, name, forbidden)
    adj = fresh_system.adjoint()
    for T in (adj.db, adj.bd):
        fc.eigen_data(T)
    core, dual = fresh_system.B.range_eigen, adj.B.range_eigen
    assert adj.B._primal is fresh_system.B and adj.report is fresh_system.report
    # lam -> -conj(lam) swaps the half-planes, and the adjoint swaps the halves back
    half = len(core.lam) // 2
    assert np.array_equal(dual.lam, -np.roll(core.lam, half).conj())
    # against the compression gathered from the adjoint's own values
    C = adj.B.compression
    DCW = _range_symbol_product(fresh_system.grid, C @ dual.W)
    assert np.abs(DCW - dual.W * dual.lam).max() <= 1e-12 * np.abs(DCW).max()
    assert np.abs(dual.M @ C @ dual.W - np.eye(len(core.lam))).max() <= 1e-12


def test_bd_inverse_is_the_stored_synthesis(fresh_system):
    # BD's Vinv is the conjugated synthesis M Q^* as B keeps it, for the
    # primal and for the adjoint, whose pair comes from the primal's
    for sys_ in (fresh_system, fresh_system.adjoint()):
        fc.eigen_data(sys_.db)
        assert np.shares_memory(fc.eigen_data(sys_.bd).Vinv, sys_.B.range_syntheses[1])


@pytest.fixture(scope="module")
def system_2d_g16():
    return FirstOrderSystem(perturbation_of_identity(GridSpec(2, 16), np.random.default_rng(21),
                                                     0.1))


def test_bd_eigen_data_after_db_adds_only_its_eigenvectors(system_2d_g16):
    # at 2D G=16 one dof x r complex array is 6.3 MB: BD adds its V = B Q W
    # and takes Vinv from B, where it kept a conjugate copy of Q M^* before
    system = system_2d_g16
    grid = system.grid
    db = fc.eigen_data(system.db)
    block = grid.dof * db.V.shape[1] * 16
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fc.eigen_data(system.bd)
        net = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert net - block < 0.5 * block


def test_every_handle_records_the_primal_condition_bound(fresh_system):
    # V = L Q W, Vinv = M Q^* R: one bound cond(W) sup|B| / kappa for all four
    bound = fresh_system.B.range_eigen.condition
    handles = {**_four_handles(fresh_system), **_bare_pair(fresh_system)}
    for name, T in handles.items():
        assert fc.eigen_data(T).condition == bound, name
    assert fresh_system.adjoint().B.range_eigen.condition == bound


def test_range_eigen_data_has_no_dof_sized_svd(fresh_system, monkeypatch):
    shapes = []

    def recording(inner):
        def wrapped(M, *args, **kwargs):
            shapes.append(np.shape(M))
            return inner(M, *args, **kwargs)
        return wrapped

    handles = {**_four_handles(fresh_system), **_bare_pair(fresh_system)}
    for owner, name in ((np.linalg, "svd"), (np.linalg, "cond"), (scipy.linalg, "svd")):
        monkeypatch.setattr(owner, name, recording(getattr(owner, name)))
    for T in handles.values():
        fc.eigen_data(T)
    dof = fresh_system.grid.dof
    assert shapes and all(shape[-2] != dof for shape in shapes), shapes


def test_condition_bounds_eigenvector_condition(fresh_system):
    handles = {**_four_handles(fresh_system), **_bare_pair(fresh_system)}
    for name, T in handles.items():
        ed = fc.eigen_data(T)
        norm_v = np.linalg.svd(ed.V, compute_uv=False)[0]
        norm_vinv = np.linalg.svd(ed.Vinv, compute_uv=False)[0]
        assert ed.condition >= norm_v * norm_vinv, name


@pytest.mark.parametrize("handle", ["db", "bd"])
def test_range_condition_guard(g8x2, monkeypatch, handle):
    A = perturbation_of_identity(g8x2, np.random.default_rng(28), 0.1)
    ed = fc.eigen_data(getattr(FirstOrderSystem(A), handle))
    norm = (np.linalg.svd(ed.V, compute_uv=False)[0]
            * np.linalg.svd(ed.Vinv, compute_uv=False)[0])
    monkeypatch.setattr(fc, "EIG_CONDITION_LIMIT", 0.5 * norm)
    with pytest.raises(OperatorError, match="condition number"):
        fc.eigen_data(getattr(FirstOrderSystem(A), handle))


def test_system_with_derived_eigen_data_freed_without_gc(g8x2):
    sys_ = FirstOrderSystem(perturbation_of_identity(g8x2, np.random.default_rng(24), 0.1))
    for T in _four_handles(sys_).values():
        fc.eigen_data(T)
    refs = [weakref.ref(sys_), weakref.ref(sys_.adjoint())]
    gc.disable()
    try:
        del sys_
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# layer potentials
# ---------------------------------------------------------------------------


def test_single_layer_flat_symbol(identity_system_32):
    # flat coefficients: the layer kernel is exponential with the mode
    # modulus, normalized by twice the modulus; signs follow the jump
    # convention, making this the negative of the classical kernel
    grid = identity_system_32.grid
    x = grid.coordinates()[0]
    f = np.exp(1j * x)
    for t in (0.4, 1.0):
        out = single_layer(identity_system_32, t, f)
        expected = -np.exp(-t) / 2.0 * np.exp(1j * x)
        assert np.allclose(out, expected, atol=1e-12)
        out_m = single_layer(identity_system_32, -t, f)
        assert np.allclose(out_m, expected, atol=1e-12)


def test_layer_jump_relations_random(g32):
    rng = np.random.default_rng(18)
    for trial in range(3):
        sys_ = FirstOrderSystem(perturbation_of_identity(g32, rng, 0.2))
        f = band_limited_scalar(g32, rng)
        w = embed_scalar(g32, f).values
        gp = grad_single_layer(sys_, 0.0, f, side="+").to_physical().values
        gm = grad_single_layer(sys_, 0.0, f, side="-").to_physical().values
        assert np.linalg.norm(gp - gm - w) <= 1e-8 * np.linalg.norm(w)
        dp = double_layer(sys_, 0.0, f, side="+")
        dm = double_layer(sys_, 0.0, f, side="-")
        assert np.linalg.norm(dp - dm + f) <= 1e-8 * np.linalg.norm(f)


def test_layer_limits_attained(perturbed_system_32):
    rng = np.random.default_rng(19)
    grid = perturbed_system_32.grid
    f = band_limited_scalar(grid, rng)
    lim = grad_single_layer(perturbed_system_32, 0.0, f, side="+")
    gaps = [
        l2_norm(grad_single_layer(perturbed_system_32, t, f) - lim)
        for t in (0.1, 0.01, 0.001)
    ]
    assert gaps[2] < gaps[1] < gaps[0]


def test_layer_requires_side_at_zero(identity_system_32):
    grid = identity_system_32.grid
    x = grid.coordinates()[0]
    with pytest.raises(DatumError, match="side"):
        single_layer(identity_system_32, 0.0, np.cos(x))


def test_layer_refuses_a_side_against_the_sign_of_t(identity_system_32):
    system = identity_system_32
    f = np.cos(system.grid.coordinates()[0])
    for layer in (grad_single_layer, single_layer, double_layer):
        for t, side in ((0.5, "-"), (0.5, -1), (-0.5, "plus"), (-0.5, +1), (0.5, "up")):
            with pytest.raises(DatumError, match="contradicts"):
                layer(system, t, f, side=side)
        # a side that names the sign of t is accepted, and gives the layer without it
        for t, side in ((0.5, "+"), (-0.5, "minus")):
            given, plain = layer(system, t, f, side=side), layer(system, t, f)
            assert np.array_equal(getattr(given, "values", given), getattr(plain, "values", plain))


@pytest.mark.parametrize("t", [0.0, -0.0, 0.1, -0.3, 1.0, -2.0])
def test_layer_flows_match_the_extension_at_each_height(fresh_system, t):
    # the two fixed extensions at the scale |t| give the flows of exp(-t z)
    # on the side's spectral half at scale one, bit for bit
    grid = fresh_system.grid
    f = band_limited_scalar(grid, np.random.default_rng(78))
    w = embed_scalar(grid, f)
    for sgn in ((+1, -1) if t == 0 else (1 if t > 0 else -1,)):
        side = "+" if sgn > 0 else "-"
        half = (lambda z: z.real > 0) if sgn > 0 else (lambda z: z.real < 0)
        spec = fc.custom(0.0, 0.0, lambda z: np.exp(-t * z) * half(z), 0.0)
        single = fc.apply_calculus(spec, fresh_system.db, w)
        double = p_operator(grid).apply(fc.apply_calculus(spec, fresh_system.bd, w))
        double = np.reshape(double.values[..., : grid.system_size], np.shape(f))
        assert np.array_equal(grad_single_layer(fresh_system, t, f, side=side).values,
                              (single if sgn > 0 else -single).values), side
        assert np.array_equal(double_layer(fresh_system, t, f, side=side),
                              -double if sgn > 0 else double), side


def test_layer_rejects_nonzero_mean(identity_system_32):
    grid = identity_system_32.grid
    with pytest.raises(DatumError, match="zero mean"):
        single_layer(identity_system_32, 0.5, np.ones(grid.shape))


def test_layer_duality_identity_selfadjoint(identity_system_32):
    grid = identity_system_32.grid
    rng = np.random.default_rng(20)
    f = band_limited_scalar(grid, rng)
    g = band_limited_scalar(grid, rng)
    rs, rd = layer_duality_check(identity_system_32, 0.3, f, g)
    assert rs < 1e-10 and rd < 1e-10


def test_layer_duality_random(perturbed_system_32):
    rng = np.random.default_rng(22)
    grid = perturbed_system_32.grid
    f = band_limited_scalar(grid, rng)
    g = band_limited_scalar(grid, rng)
    worst = 0.0
    for t in TLadder.logspaced(0.125, 2.0, 1).t:
        rs, rd = layer_duality_check(perturbed_system_32, t, f, g)
        worst = max(worst, rs, rd)
    assert worst <= 1e-6


def test_representation_poisson(identity_system_32):
    grid = identity_system_32.grid
    x = grid.coordinates()[0]
    sol = solve_dirichlet(identity_system_32, np.cos(x))
    assert boundary_layer_representation_check(identity_system_32, sol) <= 1e-8


def test_representation_random_coefficients(perturbed_system_32):
    rng = np.random.default_rng(23)
    grid = perturbed_system_32.grid
    for solver, datum in (
        (solve_dirichlet, band_limited_scalar(grid, rng)),
        (solve_neumann, band_limited_scalar(grid, rng)),
    ):
        sol = solver(perturbed_system_32, datum)
        assert boundary_layer_representation_check(perturbed_system_32, sol) <= 1e-6


def test_representation_zero_solution(identity_system_32):
    sol = solve_dirichlet(identity_system_32, np.zeros(identity_system_32.grid.shape))
    assert boundary_layer_representation_check(identity_system_32, sol) == 0.0


def test_representation_refuses_a_solution_of_another_system(perturbed_system_32,
                                                             identity_system_32):
    f = band_limited_scalar(perturbed_system_32.grid, np.random.default_rng(79))
    sol = solve_dirichlet(perturbed_system_32, f)
    with pytest.raises(DatumError, match="another system"):
        boundary_layer_representation_check(identity_system_32, sol)
    with pytest.raises(DatumError, match="another system"):
        boundary_layer_representation_check(perturbed_system_32.adjoint(), sol)


def per_height_representation_check(system, solution, ladder):
    """The representation defect evaluated one height at a time."""
    grid = system.grid
    conormal0 = solution.conormal_trace()
    value0 = solution.scalar_trace()

    def l2(f):
        return np.sqrt(grid.cell_volume) * np.linalg.norm(f)

    worst = 0.0
    for t in ladder.t:
        u_t = solution.scalar_value(t)
        rep = single_layer(system, t, conormal0) - double_layer(system, t, value0)
        scale = max(l2(u_t), l2(rep), 1e-12 * l2(value0))
        worst = max(worst, l2(u_t - rep) / max(scale, 1e-300))
    return worst


@pytest.mark.parametrize("name", ["perturbed_system_32", "perturbed_system_2d"])
def test_representation_heights_match_per_height_loop(name, request):
    system = request.getfixturevalue(name)
    grid = system.grid
    rng = np.random.default_rng(41)
    sol = solve_dirichlet(system, band_limited_scalar(grid, rng))
    # a trace off the positive subspace, so the defect is far above roundoff
    h = sol.h + random_field(grid, rng, mean_zero=True)
    ladder = TLadder.logspaced(2.0**-6, 2.0**2, per_octave=1)
    expected = per_height_representation_check(
        system, bvp.BVPSolution("dirichlet", system, h, {}), ladder
    )
    got = boundary_layer_representation_check(
        system, bvp.BVPSolution("dirichlet", system, h, {}), ladder
    )
    assert expected > 1e-3
    assert abs(got - expected) <= 1e-10 * expected


# ---------------------------------------------------------------------------
# scalar/tangential helpers
# ---------------------------------------------------------------------------


def test_gradient_potential_roundtrip(g32, rng):
    f = band_limited_scalar(g32, rng)
    grad = tangential_gradient(g32, f)
    back = scalar_potential(g32, grad)
    assert np.allclose(back, f, atol=1e-12 * np.abs(f).max())


def test_gradient_potential_roundtrip_2d(g8x2, rng):
    f = band_limited_scalar(g8x2, rng)
    grad = tangential_gradient(g8x2, f)
    back = scalar_potential(g8x2, grad)
    assert np.allclose(back, f, atol=1e-12 * np.abs(f).max())


def test_two_dimensional_poisson(perturbed_system_2d):
    # full pipeline touch at boundary dimension two
    rng = np.random.default_rng(29)
    grid = perturbed_system_2d.grid
    f = band_limited_scalar(grid, rng, decay=2.0)
    sol = solve_dirichlet(perturbed_system_2d, f)
    assert sol.diagnostics["trace_residual"] <= 1e-8
    assert sol.diagnostics["boundary_value_error"] <= 1e-8
    assert boundary_layer_representation_check(perturbed_system_2d, sol) <= 1e-6


def test_layer_jumps_far_from_identity(g32):
    # the jumps are projection-sum identities, valid for any accretive
    # coefficients, not only near-identity ones
    rng = np.random.default_rng(31)
    base = perturbation_of_identity(g32, rng, 0.45)
    from halfspace.coefficients import CoefficientMatrix

    A = CoefficientMatrix(g32, np.exp(0.4j) * base.values)
    sys_ = FirstOrderSystem(A)
    assert sys_.report.kappa > 0
    assert sys_.report.omega > 0.3
    f = band_limited_scalar(g32, rng)
    w = embed_scalar(g32, f).values
    gp = grad_single_layer(sys_, 0.0, f, side="+").to_physical().values
    gm = grad_single_layer(sys_, 0.0, f, side="-").to_physical().values
    assert np.linalg.norm(gp - gm - w) <= 1e-8 * np.linalg.norm(w)
    dp = double_layer(sys_, 0.0, f, side="+")
    dm = double_layer(sys_, 0.0, f, side="-")
    assert np.linalg.norm(dp - dm + f) <= 1e-8 * np.linalg.norm(f)


def test_grid_objects_are_built_once_per_grid(monkeypatch):
    # x-independent tables and symbols are cached per GridSpec: after the
    # caches are emptied, a Dirichlet solve and both layer checks build the
    # frequency table once and never take a pseudo-inverse
    import halfspace.operators as ops
    import halfspace.tent as tent

    for cached in (GridSpec.frequencies, GridSpec.frequency_norms,
                   GridSpec.torus_distance_table, ops.build_D_symbol,
                   ops.build_P_symbol, ops.build_inverse_D_symbol, tent._ball_kernels):
        cached.cache_clear()
    calls = {"fftfreq": 0, "pinv": 0}
    fftfreq, pinv = np.fft.fftfreq, np.linalg.pinv

    def counted_fftfreq(*args, **kwargs):
        calls["fftfreq"] += 1
        return fftfreq(*args, **kwargs)

    def counted_pinv(*args, **kwargs):
        calls["pinv"] += 1
        return pinv(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fftfreq", counted_fftfreq)
    monkeypatch.setattr(np.linalg, "pinv", counted_pinv)
    grid = GridSpec(dim=2, points=8)
    rng = np.random.default_rng(41)
    sys_ = FirstOrderSystem(perturbation_of_identity(grid, rng, 0.1))
    f, g = (band_limited_scalar(grid, rng) for _ in range(2))
    sol = solve_dirichlet(sys_, f, ladder=TLadder.logspaced(2.0**-4, 2.0**2, 8))
    assert boundary_layer_representation_check(sys_, sol) <= 1e-6
    for t in (0.1, 1.0):
        assert max(layer_duality_check(sys_, t, f, g)) <= 1e-6
    assert calls == {"fftfreq": 1, "pinv": 0}


NUMPY_TRANSFORMS = ("fft", "ifft", "fftn", "ifftn", "rfftn", "irfftn")


def test_no_numpy_transform_runs(g8x2, monkeypatch):
    rng = np.random.default_rng(43)
    A = perturbation_of_identity(g8x2, rng, 0.1)
    f, g = band_limited_scalar(g8x2, rng), band_limited_scalar(g8x2, rng)
    h = random_field(g8x2, rng, mean_zero=True)
    ladder = TLadder.logspaced(2.0**-2, 2.0**2, 2)

    def refuse(*args, **kwargs):
        raise AssertionError("a numpy.fft transform ran")

    for name in NUMPY_TRANSFORMS:
        monkeypatch.setattr(np.fft, name, refuse)

    system = FirstOrderSystem(A)
    solve_neumann(system, f)
    solve_regularity(system, tangential_gradient(g8x2, f))
    solve_dirichlet(system, f)
    sol = solve_dirichlet(system, f, ladder=ladder)
    for side in "+-":
        grad_single_layer(system, 0.0, f, side=side)
        double_layer(system, 0.0, f, side=side)
    boundary_layer_representation_check(system, sol)
    layer_duality_check(system, 0.3, f, g)
    F = semigroup_tent_field(system.db, h, ladder)
    nt_maximal(F)
    tent_norm(F, 2.0)
    carleson_norm(F)
    quadratic_norm(system.db, fc.z_over_one_plus_z2(), h, ladder, warn_share=1.0)
    nt_sharp(h, system.bd, ladder)
    assemble_dense(system.db)
    resolvent_solve(system.db, 0.5, h, method="gmres")


def test_dirichlet_solves_share_one_ladder_table(g8x2):
    rng = np.random.default_rng(47)
    sys_ = FirstOrderSystem(perturbation_of_identity(g8x2, rng, 0.1))
    ladder = TLadder.logspaced(2.0**-4, 2.0**2, 8)
    assert len(ladder) == 49
    data = [band_limited_scalar(g8x2, rng) for _ in range(3)]
    first = solve_dirichlet(sys_, data[0], ladder=ladder)
    tables = fc.eigen_data(sys_.db)._tables
    table = tables[(id(fc.UNIT_SEMIGROUP), ladder.t.tobytes())][1]
    assert table.shape == (49, 2 * (g8x2.points**g8x2.dim - 1))
    count = len(tables)
    norms = [solve_dirichlet(sys_, f, ladder=ladder).diagnostics["tent_norm_t_grad"]
             for f in data]
    assert len(tables) == count
    assert tables[(id(fc.UNIT_SEMIGROUP), ladder.t.tobytes())][1] is table
    # the cached table gives the value of the first, uncached solve
    assert norms[0] == first.diagnostics["tent_norm_t_grad"]


# ---------------------------------------------------------------------------
# the trace layer in the range coordinates of D
# ---------------------------------------------------------------------------


def _embedded(grid, datum, slot):
    """The datum in its slot of a field, zero in the other slot."""
    m = grid.system_size
    vals = np.zeros(grid.shape + (grid.channels,), dtype=complex)
    vals[..., slice(None, m) if slot == "scalar" else slice(m, None)] = np.reshape(
        datum, grid.shape + (-1,))
    return Field.physical(grid, vals)


def _three_solves(system, f):
    """(solution, trace datum, slot) of a Neumann, regularity and Dirichlet solve."""
    grad = tangential_gradient(system.grid, f)
    return (
        (solve_neumann(system, f), f, "scalar"),
        (solve_regularity(system, grad), grad, "tangential"),
        (solve_dirichlet(system, f, ladder=TLadder.logspaced(2.0**-4, 2.0**2, 8)), grad,
         "tangential"),
    )


def test_every_solve_reports_its_datum_sobolev_norm(fresh_system):
    grid = fresh_system.grid
    f = band_limited_scalar(grid, np.random.default_rng(50))
    for sol, datum, slot in _three_solves(fresh_system, f):
        expected = sobolev_norm(_embedded(grid, datum, slot), -0.5)
        assert sol.diagnostics["datum_sobolev_-1/2"] == pytest.approx(expected, rel=1e-12), sol.kind
    # a Dirichlet solution keeps its boundary value, not the gradient it solved for
    assert np.array_equal(np.reshape(sol.datum, np.shape(f)), f)


def test_coordinate_trace_maps_match_physical_maps(fresh_system):
    grid = fresh_system.grid
    maps = physical_trace_maps(fresh_system)
    for slot in ("scalar", "tangential"):
        s = np.linalg.svd(maps[slot][1], compute_uv=False)
        assert np.abs(fresh_system.trace_map(slot).s - s).max() <= 1e-12 * s.min(), slot
    f = band_limited_scalar(grid, np.random.default_rng(51))
    for sol, datum, slot in _three_solves(fresh_system, f):
        basis, matrix = maps[slot]
        coords, *_ = np.linalg.lstsq(matrix, np.reshape(datum, -1), rcond=None)
        expected = basis @ coords
        assert np.linalg.norm(sol.h.flat() - expected) <= 1e-12 * np.linalg.norm(expected), slot
        basis, matrix = maps["potential"]
        coords, *_ = np.linalg.lstsq(matrix, -expected, rcond=None)
        potential = sol._potential_vector().flat()
        assert np.linalg.norm(potential - basis @ coords) <= 1e-12 * np.linalg.norm(potential)


def test_curl_free_residual_matches_four_transform_reference(fresh_system):
    grid = fresh_system.grid
    rng = np.random.default_rng(52)
    shape = grid.shape + (grid.system_size * grid.dim,)
    for _ in range(3):
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        grad = np.reshape(tangential_gradient(grid, scalar_potential(grid, g)), shape)
        expected = np.linalg.norm(grad - g) / np.linalg.norm(g)
        assert curl_free_residual(grid, g) == pytest.approx(expected, rel=1e-12)
    f = band_limited_scalar(grid, rng)
    assert curl_free_residual(grid, tangential_gradient(grid, f)) <= 1e-14


def test_solves_transform_each_datum_once(g8x2, monkeypatch):
    import scipy.fft

    rng = np.random.default_rng(53)
    sys_ = FirstOrderSystem(perturbation_of_identity(g8x2, rng, 0.1))
    f = band_limited_scalar(g8x2, rng)
    grad = tangential_gradient(g8x2, f)
    ladder = TLadder.logspaced(2.0**-4, 2.0**2, 8)
    solves = {
        "neumann": lambda: solve_neumann(sys_, f),
        "regularity": lambda: solve_regularity(sys_, grad),
        "dirichlet": lambda: solve_dirichlet(sys_, f, ladder=ladder),
    }
    for solve in solves.values():  # the eigendecompositions, Hardy bases and trace maps
        solve()
    calls = []
    for name in ("fftn", "ifftn"):
        inner = getattr(scipy.fft, name)
        monkeypatch.setattr(scipy.fft, name,
                            lambda *a, _n=name, _f=inner, **k: calls.append(_n) or _f(*a, **k))
    counts = {}
    for kind, solve in solves.items():
        calls.clear()
        solve()
        counts[kind] = list(calls)
    assert counts["neumann"] == counts["regularity"] == counts["dirichlet"] == ["fftn"]


def test_dirichlet_to_neumann_transforms_its_datum_once(g8x2, monkeypatch):
    # the gradient enters as its coordinates i|k| f-hat: no gradient field
    # is synthesized and transformed back, and no curl check runs
    import scipy.fft

    rng = np.random.default_rng(54)
    sys_ = FirstOrderSystem(perturbation_of_identity(g8x2, rng, 0.1))
    f = band_limited_scalar(g8x2, rng)
    expected = solve_regularity(sys_, tangential_gradient(g8x2, f)).conormal_trace()
    calls = []
    for name in ("fftn", "ifftn"):
        inner = getattr(scipy.fft, name)
        monkeypatch.setattr(scipy.fft, name,
                            lambda *a, _n=name, _f=inner, **k: calls.append(_n) or _f(*a, **k))
    got = dirichlet_to_neumann(sys_, f)
    # one forward transform of f, one inverse transform of the conormal slot
    assert calls == ["fftn", "ifftn"]
    assert scalar_norm(g8x2, got - expected) <= 1e-12 * scalar_norm(g8x2, expected)


def test_trace_maps_build_without_dof_rows_or_applies(fresh_system, monkeypatch):
    import halfspace.operators as ops

    fc.eigen_data(fresh_system.db)
    f = band_limited_scalar(fresh_system.grid, np.random.default_rng(55))
    shapes, applies = [], []

    def recording(inner):
        def wrapped(M, *args, **kwargs):
            shapes.append(np.shape(M))
            return inner(M, *args, **kwargs)
        return wrapped

    for name in ("qr", "svd"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    apply_array = ops.LinearOperatorHandle.apply_array
    monkeypatch.setattr(ops.LinearOperatorHandle, "apply_array",
                        lambda T, *a: applies.append(T.tag) or apply_array(T, *a))
    fresh_system.hardy("DB")
    for slot in ("scalar", "tangential"):
        fresh_system.trace_map(slot)
    solve_dirichlet(fresh_system, f)._potential_vector()
    # one QR of W+, r x r/2, and one SVD of the square scalar rows, which
    # also gives the tangential map; the potential -B (DB)^-1 h takes two
    # triangular products with R and B pointwise, and nothing of BD
    half = _range_dim(fresh_system.grid) // 2
    assert shapes == [(2 * half, half), (half, half)], shapes
    assert not applies
    assert fresh_system.bd._eigen is None and "BD" not in fresh_system._hardy


@pytest.mark.parametrize("grid, size", [(GridSpec(2, 8), 0.6), (GridSpec(1, 32), 0.6),
                                        (GridSpec(1, 16, 2), 0.3), (GridSpec(2, 8, 2), 0.15)],
                         ids=["2d-g8-size0.6", "1d-g32-size0.6", "1d-g16-m2", "2d-g8-m2"])
def test_cs_and_core_trace_maps_match_physical_maps(grid, size):
    # the tangential map from the SVD of the scalar rows (S^* S + T^* T = I)
    # and the potential -B (DB)^-1 h from the Hardy QR of DB, for a system
    # and for its adjoint, whose factors come from the primal's
    system = FirstOrderSystem(perturbation_of_identity(grid, np.random.default_rng(61), size))
    f = band_limited_scalar(grid, np.random.default_rng(62))
    grad = tangential_gradient(grid, f)
    for sys_ in (system, system.adjoint()):
        maps = physical_trace_maps(sys_)
        for slot in ("scalar", "tangential"):
            s = np.linalg.svd(maps[slot][1], compute_uv=False)
            tm = sys_.trace_map(slot)
            assert np.abs(tm.s - s).max() <= 1e-12 * s.min(), slot
            assert np.abs(tm.U.conj().T @ tm.U - np.eye(len(s))).max() <= 1e-12, slot
        U = sys_.hardy("DB")._range_coordinates
        rows = U.reshape(-1, 2, grid.system_size, U.shape[1])[:, 1].reshape(U.shape[0] // 2, -1)
        tm = sys_.trace_map("tangential")
        assert np.abs((tm.U * tm.s) @ tm.Vh - rows).max() <= 1e-13
        sol = solve_regularity(sys_, grad)
        basis, matrix = maps["tangential"]
        coords, *_ = np.linalg.lstsq(matrix, np.reshape(grad, -1), rcond=None)
        expected = basis @ coords
        assert np.linalg.norm(sol.h.flat() - expected) <= 1e-12 * np.linalg.norm(expected)
        basis, matrix = maps["potential"]
        coords, *_ = np.linalg.lstsq(matrix, -expected, rcond=None)
        potential = sol._potential_vector().flat()
        assert np.linalg.norm(potential - basis @ coords) <= 1e-12 * np.linalg.norm(potential)
        h = sol.h.flat()
        Dv = d_operator(grid).apply(Field.from_flat(grid, potential)).flat()
        assert np.linalg.norm(Dv + h) <= 1e-12 * np.linalg.norm(h)


def test_off_hardy_potential_fit_matches_lstsq(perturbed_system_2d):
    # a trace off the positive subspace, with a mean: its Hardy coordinates
    # and their rest come from one analysis, and -B (DB)^-1 of their fit
    # gives the least-squares potential of the physical map and its residual
    system = perturbed_system_2d
    grid = system.grid
    rng = np.random.default_rng(63)
    h = solve_dirichlet(system, band_limited_scalar(grid, rng)).h + random_field(grid, rng)
    sol = bvp.BVPSolution("dirichlet", system, h, {})
    potential = sol._potential_vector().flat()
    basis, matrix = physical_trace_maps(system)["potential"]
    coords, *_ = np.linalg.lstsq(matrix, -h.flat(), rcond=None)
    expected = np.linalg.norm(matrix @ coords + h.flat()) / np.linalg.norm(h.flat())
    assert expected > 1e-2
    assert sol.diagnostics["potential_residual"] == pytest.approx(expected, rel=1e-12)
    assert np.linalg.norm(potential - basis @ coords) <= 1e-12 * np.linalg.norm(potential)


# ---------------------------------------------------------------------------
# solutions hold their Hardy coordinates; one datum transform for every check
# ---------------------------------------------------------------------------


def _warm_solves(system, f):
    """The three solves of f, each run once so that every cached factor is built."""
    grad = tangential_gradient(system.grid, f)
    ladder = TLadder.logspaced(2.0**-4, 2.0**2, 8)
    solves = {
        "neumann": lambda: solve_neumann(system, f),
        "regularity": lambda: solve_regularity(system, grad),
        "dirichlet": lambda: solve_dirichlet(system, f, ladder=ladder),
    }
    for solve in solves.values():
        solve()
    return solves


def test_warm_solves_form_the_trace_on_first_read(perturbed_system_2d, monkeypatch):
    system = perturbed_system_2d
    solves = _warm_solves(system, band_limited_scalar(system.grid, np.random.default_rng(70)))
    fields = []
    init = Field.__init__
    monkeypatch.setattr(Field, "__init__",
                        lambda self, *args: fields.append(args[-1]) or init(self, *args))
    for kind, solve in solves.items():
        sol = solve()
        assert not fields, kind
        h = sol.h
        assert len(fields) == 1, kind
        assert sol.h is h and len(fields) == 1, kind
        fields.clear()


def test_lazy_trace_is_the_hardy_synthesis(perturbed_system_2d):
    system = perturbed_system_2d
    grid = system.grid
    U = system.hardy("DB")._range_coordinates
    solves = _warm_solves(system, band_limited_scalar(grid, np.random.default_rng(71)))
    for kind, solve in solves.items():
        sol = solve()
        c, rest = sol._coordinates
        assert rest == 0.0, kind
        synthesis = Field.from_flat(grid, _range_synthesis(grid, U @ c))
        assert np.array_equal(sol.h.values, synthesis.values), kind
    # an explicit trace is kept as given
    h = random_field(grid, np.random.default_rng(72), mean_zero=True)
    assert bvp.BVPSolution("dirichlet", system, h, {}).h is h


def test_hardy_basis_of_db_synthesizes_nothing(monkeypatch):
    # the basis is held as its range coordinates U; Q U is never formed
    grid = GridSpec(dim=2, points=8)
    system = FirstOrderSystem(perturbation_of_identity(grid, np.random.default_rng(73), 0.15))
    fc.eigen_data(system.db)
    calls = []
    synthesis = bvp._range_synthesis
    monkeypatch.setattr(bvp, "_range_synthesis",
                        lambda *args: calls.append(args) or synthesis(*args))
    system.hardy("DB")
    assert calls == []


def test_trace_and_potential_match_the_synthesized_hardy_basis(fresh_system):
    # h = Q (U c) and V+ z = Q W+ z against the dof x r/2 basis plus = Q U
    # and plus R z, for the system and for its adjoint
    grid = fresh_system.grid
    f = band_limited_scalar(grid, np.random.default_rng(74))

    def close(got, expected):
        return np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)

    for sys_ in (fresh_system, fresh_system.adjoint()):
        hardy = sys_.hardy("DB")
        plus = _range_synthesis(grid, hardy._range_coordinates)
        for kind, solve in _warm_solves(sys_, f).items():
            sol = solve()
            c, _ = sol._coordinates
            assert close(sol.h.to_physical().values.reshape(-1), plus @ c), kind
            w = (plus @ (hardy._R @ sol._potential_coordinates().z)).reshape(
                grid.shape + (grid.channels,))
            expected = -np.einsum("...ij,...j->...i", sys_.B.values, w)
            assert close(sol._potential_vector().to_physical().values, expected), kind


def test_trace_slots_read_from_range_coordinates_match_the_physical_route(fresh_system):
    # the conormal slot is the scalar slot of h and the value slot the
    # potential of its tangential slot; both are read without forming h
    grid = fresh_system.grid
    m = grid.system_size
    rng = np.random.default_rng(75)
    f, g = band_limited_scalar(grid, rng), band_limited_scalar(grid, rng)

    def close(got, expected):
        return scalar_norm(grid, got - expected) <= 1e-13 * scalar_norm(grid, expected)

    for sys_ in (fresh_system, fresh_system.adjoint()):
        for kind, solve in _warm_solves(sys_, f).items():
            sol = solve()
            conormal, value = sol.conormal_trace(), sol.scalar_trace()
            assert sol._h is None, kind
            h = sol.h.to_physical().values
            assert close(conormal, np.reshape(h[..., :m], np.shape(conormal))), kind
            assert close(value, scalar_potential(grid, h[..., m:])), kind
        regularity = solve_regularity(sys_, tangential_gradient(grid, f)).h.to_physical()
        dtn = dirichlet_to_neumann(sys_, f)
        assert close(dtn, np.reshape(regularity.values[..., :m], np.shape(dtn)))
        neumann = solve_neumann(sys_, g).h.to_physical()
        ntd = neumann_to_dirichlet(sys_, g)
        assert close(ntd, scalar_potential(grid, neumann.values[..., m:]))


@pytest.mark.parametrize("grid", [GridSpec(1, 32), GridSpec(2, 8), GridSpec(1, 16, 2),
                                  GridSpec(2, 8, 2)], ids=["g32", "g8x2", "g16m2", "g8x2m2"])
def test_trace_l2_is_the_norm_of_the_hardy_coordinates(grid):
    # plus = Q U+ has orthonormal columns in the flat inner product
    system = FirstOrderSystem(perturbation_of_identity(grid, np.random.default_rng(73), 0.15))
    f = band_limited_scalar(grid, np.random.default_rng(74))
    for sys_ in (system, system.adjoint()):
        for kind, solve in _warm_solves(sys_, f).items():
            sol = solve()
            assert sol.diagnostics["trace_l2"] == pytest.approx(l2_norm(sol.h), rel=1e-12), kind


def test_transform_mean_refusal_matches_physical_check(perturbed_system_2d):
    # a mean of 1e-9 ||f|| is refused and one of 1e-11 ||f|| accepted, by the
    # solves from the datum's transform and by _require_mean_zero alike
    system = perturbed_system_2d
    grid = system.grid
    f = np.reshape(band_limited_scalar(grid, np.random.default_rng(75)), grid.shape + (1,))
    grad = np.reshape(tangential_gradient(grid, f), grid.shape + (grid.dim,))
    solves = {
        "neumann": (f, lambda d: solve_neumann(system, d)),
        "regularity": (grad, lambda d: solve_regularity(system, d)),
        "dirichlet": (f, lambda d: solve_dirichlet(system, d)),
    }
    for kind, (datum, solve) in solves.items():
        for share, refused in ((1e-9, True), (1e-11, False)):
            shifted = datum.copy()
            shifted[..., 0] += share * np.linalg.norm(datum)
            if refused:
                with pytest.raises(DatumError, match="zero mean"):
                    bvp._require_mean_zero(grid, shifted, kind)
                with pytest.raises(DatumError, match=f"^{kind} datum must have zero mean"):
                    solve(shifted)
            else:
                bvp._require_mean_zero(grid, shifted, kind)
                assert solve(shifted).diagnostics["trace_residual"] <= 1e-8, kind


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_datum_is_refused_by_its_index(perturbed_system_2d, bad):
    system = perturbed_system_2d
    grid = system.grid
    f = np.reshape(band_limited_scalar(grid, np.random.default_rng(76)), grid.shape + (1,))
    grad = np.reshape(tangential_gradient(grid, f), grid.shape + (grid.dim,))
    calls = {
        "neumann": (f, (3, 5, 0), lambda d: solve_neumann(system, d)),
        "regularity": (grad, (3, 5, 1), lambda d: solve_regularity(system, d)),
        "dirichlet": (f, (3, 5, 0), lambda d: solve_dirichlet(system, d)),
        "dirichlet_to_neumann": (f, (3, 5, 0), lambda d: dirichlet_to_neumann(system, d)),
    }
    for kind, (datum, index, call) in calls.items():
        broken = datum.astype(complex)
        broken[index] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridError, match=rf"^non-finite entry at index \({index[0]}, "
                                                rf"{index[1]}, {index[2]}\)$"):
                call(broken)


def test_range_eigen_orders_the_positive_half_first(fresh_system):
    adj = fresh_system.adjoint()
    for name, B in (("primal", fresh_system.B), ("adjoint", adj.B)):
        lam = B.range_eigen.lam
        half = len(lam) // 2
        assert np.all(lam[:half].real > 0) and np.all(lam[half:].real < 0), name
    for name, T in _four_handles(fresh_system).items():
        lam = fc.eigen_data(T).lam
        half = len(lam) // 2
        assert np.all(lam[:half].real > 0) and np.all(lam[half:].real < 0), name
    for sys_ in (fresh_system, adj):
        lam = sys_.B.range_eigen.lam
        assert np.array_equal(sys_.hardy("DB")._lam_plus, lam[: len(lam) // 2])


def test_hardy_basis_refuses_an_unordered_split(g8x2):
    T = db_operator(hat_transform(perturbation_of_identity(g8x2, np.random.default_rng(77), 0.1)))
    ed = fc.eigen_data(T)
    T._eigen = dataclasses.replace(ed, lam=ed.lam[::-1])
    with pytest.raises(TraceMapError, match="spectrum splits"):
        bvp.SpectralHardyBasis(T)

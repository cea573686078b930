"""Command-line experiment runner.

Runs one named experiment per invocation and writes a JSON report of
check records (name, value, bound, pass).  EXPERIMENTS maps each
experiment to its variants and each variant to its runner; a
configuration without a variant runs the first one listed.
Configuration comes from a JSON file plus flag overrides and is checked
before any work: the experiment and variant against EXPERIMENTS, the
integer grid, the coefficient source with its keys and real parameters,
the probe count, and the ladder and Whitney objects, whose unknown keys
are refused.  The exit status is 0 when every check passes, 1 when a
check fails, and 2 for a configuration error, with no report written.
Identical configuration and seed reproduce identical numeric records.

The HALFSPACE_THREADS environment variable sets the worker threads used
for independent probe loops; by default they fill the cores that BLAS
leaves free (see max_workers).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import math
import numbers
import os
import platform
import sys
import tempfile

import numpy as np
import scipy

from . import __version__
from .bvp import TraceMapError
from .calculus import (
    bracket_exp_abs,
    calderon_pair,
    reproducing_residual_scalar,
    z_over_one_plus_z2,
)
from .coefficients import (
    CoefficientError,
    CoefficientMatrix,
    NotAccretiveError,
    block_diagonal_coefficients,
    identity_coefficients,
    perturbation_of_identity,
)
from .grid import (Field, GridSpec, TLadder, fft_values, ifft_values, l2_norm, lp_norm_grid,
                   random_field)
from .io import load_coefficients
from .operators import (
    OperatorError,
    d_operator,
    offdiag_distance_sweep,
    p_operator,
)
from . import bvp as bvp_mod
from . import calculus as fc
from . import tent as tent_mod

# the ladder a configuration's "ladder" keys override
LADDER = {"t_min": 2.0**-12, "t_max": 2.0**8, "per_octave": 2}

# coefficient source -> builder(spec, grid, rng), spec being the configuration's
# "coefficients" object
COEFFICIENT_SOURCES = {
    "identity": lambda spec, grid, rng: identity_coefficients(grid),
    "perturbation": lambda spec, grid, rng: perturbation_of_identity(
        grid, rng, spec.get("size", 0.1)
    ),
    "file": lambda spec, grid, rng: load_coefficients(spec["path"], grid),
    "inline": lambda spec, grid, rng: CoefficientMatrix(
        grid, np.asarray(spec["values_re"], dtype=float)
        + 1j * np.asarray(spec.get("values_im", 0.0), dtype=float)
    ),
    "block": lambda spec, grid, rng: block_diagonal_coefficients(
        grid, 1.0, 1.0 + spec.get("contrast", 0.5) * np.cos(grid.coordinates()[0])
    ),
}

# keys a coefficient source reads without a default
REQUIRED_SOURCE_KEYS = {"file": ("path",), "inline": ("values_re",)}
# real parameters a coefficient source reads with a default
REAL_SOURCE_KEYS = {"perturbation": ("size",), "block": ("contrast",)}


def max_workers() -> int:
    """Worker threads for independent probe loops.

    HALFSPACE_THREADS sets the count.  Otherwise the workers share the
    cores with their BLAS threads, OPENBLAS_NUM_THREADS each (OpenBLAS
    uses every core when it is unset), so that the two never
    oversubscribe the cores: with multithreaded BLAS the loop runs on
    one worker.
    """
    cap = os.environ.get("HALFSPACE_THREADS")
    if cap:
        try:
            return max(1, int(cap))
        except ValueError:
            pass
    cores = os.cpu_count() or 1
    blas = os.environ.get("OPENBLAS_NUM_THREADS", "")
    blas_threads = int(blas) if blas.isdigit() and int(blas) > 0 else cores
    return min(8, max(1, cores // blas_threads))


@dataclasses.dataclass
class ExperimentConfig:
    experiment: str
    variant: str | None = None
    grid_dim: int = 1
    grid_points: int = 32
    system_size: int = 1
    coefficients: dict = dataclasses.field(default_factory=lambda: {"source": "identity"})
    ladder: dict = dataclasses.field(default_factory=lambda: dict(LADDER))
    whitney: dict = dataclasses.field(
        default_factory=lambda: dataclasses.asdict(tent_mod.WhitneyParams())
    )
    seed: int = 0
    probes: int = 8
    tolerance_scale: float = 1.0
    out: str | None = None

    def __post_init__(self):
        """Check the configuration before any work; a missing variant is the first listed."""
        variants = EXPERIMENTS[self.experiment]
        if self.variant is None:
            self.variant = next(iter(variants))
        if self.variant not in variants:
            raise ValueError(f"{self.experiment} has no variant {self.variant!r}")
        if (self.experiment, self.variant) == ("oracle", "one-d") and self.grid_dim != 1:
            raise ValueError("the one-d oracle needs dim=1")
        for name in ("coefficients", "ladder", "whitney"):
            if not isinstance(getattr(self, name), dict):
                raise ValueError(f"{name} must be an object, got {getattr(self, name)!r}")
        source = self.coefficients.get("source", "identity")
        if source not in COEFFICIENT_SOURCES:
            raise ValueError(f"unknown coefficient source {source!r}")
        missing = [k for k in REQUIRED_SOURCE_KEYS.get(source, ()) if k not in self.coefficients]
        if missing:
            raise ValueError(f"coefficient source {source!r} needs {', '.join(missing)}")
        for key in REAL_SOURCE_KEYS.get(source, ()):
            value = self.coefficients.get(key, 0.0)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ValueError(f"coefficient {key} must be a finite real, got {value!r}")
        # a bool is an Integral: JSON true would pass as 1
        for name, low in (("seed", 0), ("probes", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        scale = self.tolerance_scale
        if isinstance(scale, bool) or not isinstance(scale, numbers.Real) or not 0 < scale < math.inf:
            raise ValueError(f"tolerance_scale must be finite and > 0, got {scale!r}")
        self.grid()
        self.make_ladder()
        self.make_whitney()

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)

    def grid(self) -> GridSpec:
        return GridSpec(self.grid_dim, self.grid_points, self.system_size)

    def make_ladder(self, **override) -> TLadder:
        return TLadder.logspaced(**{**LADDER, **self.ladder, **override})

    def make_whitney(self) -> tent_mod.WhitneyParams:
        return tent_mod.WhitneyParams(**self.whitney)


def record(name, value, bound, passed, operation, anchor) -> dict:
    return {
        "name": name,
        "value": None if value is None else float(value),
        "bound": None if bound is None else float(bound),
        "pass": bool(passed),
        "operation": operation,
        "anchor": anchor,
    }


def upper(name, value, bound, operation, anchor, scale=1.0) -> dict:
    b = bound * scale
    return record(name, value, b, value <= b, operation, anchor)


def build_coefficients(spec: dict, grid: GridSpec, rng) -> CoefficientMatrix:
    return COEFFICIENT_SOURCES[spec.get("source", "identity")](spec, grid, rng)


def _system(cfg: ExperimentConfig, grid: GridSpec, rng) -> bvp_mod.FirstOrderSystem:
    """The system of the configured coefficients, whose draws come first from rng."""
    return bvp_mod.FirstOrderSystem(build_coefficients(cfg.coefficients, grid, rng))


def random_scalar_datum(grid: GridSpec, rng, decay: float = 6.0) -> np.ndarray:
    """Band-weighted random mean-zero scalar data, reproducible per seed."""
    shape = grid.shape + (grid.system_size,)
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    kn = grid.frequency_norms()
    weight = np.exp(-kn / decay)
    weight[(0,) * grid.dim] = 0.0
    out = ifft_values(fft_values(noise, grid) * weight[..., None], grid)
    return out[..., 0] if grid.system_size == 1 else out


def range_probe(grid: GridSpec, rng) -> Field:
    return p_operator(grid).apply(random_field(grid, rng))


# ---------------------------------------------------------------------------
# experiment implementations: runner(cfg, grid, rng) -> records, where
# grid = cfg.grid() and rng = np.random.default_rng(cfg.seed)
# ---------------------------------------------------------------------------


def run_accretivity(cfg: ExperimentConfig, grid: GridSpec, rng) -> list:
    system = _system(cfg, grid, rng)
    rep = system.report
    blockid = _block_identity_residual(system.A, system.B)
    return [
        record("kappa_positive", rep.kappa, 0.0, rep.kappa > 0,
               "accretivity_estimate", "lower accretivity bound on the symbol range"),
        record("omega_below_half_pi", rep.omega, np.pi / 2, rep.omega < np.pi / 2,
               "accretivity_estimate", "numerical-range sector angle"),
        record("kappa_le_sup", rep.kappa, rep.sup_norm, rep.kappa <= rep.sup_norm + 1e-12,
               "accretivity_estimate", "certificate consistency"),
        upper("block_identity", blockid, 1e-12, "hat_transform",
              "defining block identity of the first-order transform",
              cfg.tolerance_scale),
        record("pointwise_accretive", 1.0 if rep.pointwise_accretive else 0.0, None,
               True, "accretivity_estimate", "pointwise accretivity flag"),
    ]


def _block_identity_residual(A: CoefficientMatrix, B) -> float:
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
    return float(
        np.linalg.norm((prod - target).reshape(-1))
        / max(np.linalg.norm(target.reshape(-1)), 1e-300)
    )


def run_quadratic(cfg: ExperimentConfig, grid: GridSpec, rng) -> list:
    system = _system(cfg, grid, rng)
    rep = system.report
    ladder = cfg.make_ladder()
    psi = z_over_one_plus_z2()
    identity_like = cfg.coefficients.get("source", "identity") == "identity"
    T = system.db
    ratios = []
    for _ in range(cfg.probes):
        h = range_probe(grid, rng)
        val = tent_mod.quadratic_norm(T, psi, h, ladder)
        ratios.append(val / l2_norm(h) ** 2)
    recs = []
    if identity_like:
        err = max(abs(r - 0.5) for r in ratios)
        recs.append(upper("ratio_error_to_half", err, 0.005, "quadratic_norm",
                          "square-function energy for the self-adjoint symbol",
                          cfg.tolerance_scale))
    else:
        C = 10.0 * (rep.sup_norm / rep.kappa) ** 2
        ok = all(1.0 / C <= r <= C for r in ratios)
        recs.append(record("ratio_in_certificate_window", max(ratios), C, ok,
                           "quadratic_norm",
                           "two-sided square-function energy bound"))
    recs.append(record("ratio_min", min(ratios), None, True, "quadratic_norm",
                       "sampled lower ratio"))
    recs.append(record("ratio_max", max(ratios), None, True, "quadratic_norm",
                       "sampled upper ratio"))
    return recs


def run_calderon(cfg: ExperimentConfig, grid: GridSpec, rng) -> list:
    system = _system(cfg, grid, rng)
    psi = bracket_exp_abs()
    phi = calderon_pair(psi)
    recs = []
    worst_scalar = max(
        reproducing_residual_scalar(psi, phi, xv) for xv in (1.0, -1.0, 2.0, -2.0, 0.5, -0.5)
    )
    recs.append(upper("scalar_reproducing", worst_scalar, 1e-8, "calderon_pair",
                      "scale-mean of the pair is one on both half-axes",
                      cfg.tolerance_scale))
    T = system.db
    ladder = cfg.make_ladder(per_octave=8)
    worst_op = 0.0
    for _ in range(max(2, cfg.probes // 4)):
        h = range_probe(grid, rng)
        parts = fc.eigen_apply_scaled(T, phi.product(psi), ladder.t, h)
        acc = Field.physical(grid, np.tensordot(ladder.weights, parts, axes=1))
        worst_op = max(worst_op, l2_norm(acc - h) / l2_norm(h))
    recs.append(upper("operator_reproducing", worst_op, 1e-3,
                      "calderon_pair + quadrature",
                      "composed analysis/synthesis reproduces range vectors",
                      cfg.tolerance_scale))
    return recs


def run_nt_max(cfg: ExperimentConfig, grid: GridSpec, rng) -> list:
    T = _system(cfg, grid, rng).db
    ladder = cfg.make_ladder()
    wp = cfg.make_whitney()
    ratios = []
    for _ in range(cfg.probes):
        h = range_probe(grid, rng)
        F = tent_mod.semigroup_tent_field(T, h, ladder)
        nt = tent_mod.nt_maximal(F, wp)
        ratios.append(lp_norm_grid(nt, grid, 2) / l2_norm(h))
    ok = all(0.1 <= r <= 10.0 for r in ratios)
    return [
        record("two_sided_ratio_min", min(ratios), 0.1, ok, "nt_maximal",
               "lower maximal-function bound at exponent two"),
        record("two_sided_ratio_max", max(ratios), 10.0, ok, "nt_maximal",
               "upper maximal-function bound at exponent two"),
    ]


def run_nt_sharp(cfg: ExperimentConfig, grid: GridSpec, rng) -> list:
    T = _system(cfg, grid, rng).bd
    ladder = cfg.make_ladder()
    wp = cfg.make_whitney()
    h = random_field(grid, rng)
    Ph = p_operator(grid).apply(h)
    a = tent_mod.nt_sharp(h, T, ladder, wp)
    b = tent_mod.nt_sharp(Ph, T, ladder, wp)
    rel = float(np.abs(a - b).max() / max(np.abs(a).max(), 1e-300))
    # a null vector of the composition is fixed by the flow
    null_vec = h - Ph
    sharp_null = tent_mod.nt_sharp(null_vec, T, ladder, wp)
    return [
        upper("projection_invariance", rel, 1e-8, "nt_sharp",
              "sharp function is unchanged by the range projection",
              cfg.tolerance_scale),
        upper("null_vector_sharp", float(np.abs(sharp_null).max()),
              1e-10 * max(l2_norm(h), 1.0), "nt_sharp",
              "flow fixes the null space", cfg.tolerance_scale),
    ]


def run_offdiag(cfg: ExperimentConfig, grid: GridSpec, rng) -> list:
    T = _system(cfg, grid, rng).db
    t = 0.7
    est = offdiag_distance_sweep(
        T, t, np.geomspace(0.4 * t, 4 * t, 6), trials=max(4, cfg.probes // 2), rng=rng
    )
    return [
        record("fitted_exponent", est.exponent, 2.0, est.exponent >= 2.0,
               "offdiag_distance_sweep", "resolvent localization decay"),
        record("saturated", 1.0 if est.saturated else 0.0, None, True,
               "offdiag_distance_sweep", "torus wraparound flag"),
    ]


def run_bvp(cfg: ExperimentConfig, grid: GridSpec, rng) -> list:
    system = _system(cfg, grid, rng)
    datum = random_scalar_datum(grid, rng)
    ladder = TLadder.logspaced(2.0**-4, 2.0**2, 8)
    kind = cfg.variant
    if kind == "regularity":
        # the tangential gradient of the datum, in its coordinates i|k| f-hat
        sol = bvp_mod._gradient_solution(system, datum, "regularity")[0]
    elif kind == "neumann":
        sol = bvp_mod.solve_neumann(system, datum)
    else:
        sol = bvp_mod.solve_dirichlet(system, datum, ladder=ladder)
    recs = [
        upper("trace_residual", sol.diagnostics["trace_residual"], 1e-8,
              f"solve_{kind}", "prescribed trace is met on the spectral subspace",
              cfg.tolerance_scale),
        record("trace_condition", sol.diagnostics["trace_condition"], 1e6,
               sol.diagnostics["trace_condition"] < 1e6, f"solve_{kind}",
               "trace-map invertibility certificate"),
        upper("equation_residual", sol.equation_residual(ladder), 1e-4,
              f"solve_{kind}", "interior first-order evolution at ladder resolution",
              cfg.tolerance_scale),
    ]
    if kind == "dirichlet":
        recs.append(upper("boundary_value_error",
                          sol.diagnostics["boundary_value_error"], 1e-8,
                          "solve_dirichlet", "boundary trace of the potential",
                          cfg.tolerance_scale))
    return recs


def _jump_residuals(args):
    grid, seed, size = args
    rng = np.random.default_rng(seed)
    A = perturbation_of_identity(grid, rng, size)
    system = bvp_mod.FirstOrderSystem(A)
    f = random_scalar_datum(grid, rng)
    w = bvp_mod.embed_scalar(grid, f).values
    gp = bvp_mod.grad_single_layer(system, 0.0, f, side="+").to_physical().values
    gm = bvp_mod.grad_single_layer(system, 0.0, f, side="-").to_physical().values
    r1 = np.linalg.norm(gp - gm - w) / np.linalg.norm(w)
    dp = bvp_mod.double_layer(system, 0.0, f, side="+")
    dm = bvp_mod.double_layer(system, 0.0, f, side="-")
    r2 = np.linalg.norm(dp - dm + f) / np.linalg.norm(f)
    return float(r1), float(r2)


def run_layers_jump(cfg: ExperimentConfig, grid: GridSpec, rng) -> list:
    seeds = rng.integers(0, 2**63 - 1, max(3, cfg.probes // 2))
    jobs = [(grid, int(s), 0.2) for s in seeds]
    with concurrent.futures.ThreadPoolExecutor(max_workers=max_workers()) as ex:
        results = list(ex.map(_jump_residuals, jobs))
    worst_s = max(r[0] for r in results)
    worst_d = max(r[1] for r in results)
    return [
        upper("single_layer_jump", worst_s, 1e-8, "grad_single_layer",
              "conormal jump equals the density", cfg.tolerance_scale),
        upper("double_layer_jump", worst_d, 1e-8, "double_layer",
              "value jump equals minus the density", cfg.tolerance_scale),
    ]


def run_layers_duality(cfg: ExperimentConfig, grid: GridSpec, rng) -> list:
    system = _system(cfg, grid, rng)
    f = random_scalar_datum(grid, rng)
    g = random_scalar_datum(grid, rng)
    worst_s = worst_d = 0.0
    for t in (0.1, 0.3, 1.0):
        rs, rd = bvp_mod.layer_duality_check(system, t, f, g)
        worst_s, worst_d = max(worst_s, rs), max(worst_d, rd)
    return [
        upper("single_layer_duality", worst_s, 1e-6, "layer_duality_check",
              "adjoint-system pairing of the single layer", cfg.tolerance_scale),
        upper("double_layer_duality", worst_d, 1e-6, "layer_duality_check",
              "double layer pairs with the adjoint conormal", cfg.tolerance_scale),
    ]


def run_layers_representation(cfg: ExperimentConfig, grid: GridSpec, rng) -> list:
    system = _system(cfg, grid, rng)
    sol = bvp_mod.solve_dirichlet(system, random_scalar_datum(grid, rng))
    res = bvp_mod.boundary_layer_representation_check(system, sol)
    return [
        upper("representation_residual", res, 1e-6,
              "boundary_layer_representation_check",
              "interior value equals single minus double layer", cfg.tolerance_scale),
    ]


def run_oracle_laplacian(cfg: ExperimentConfig, grid: GridSpec, rng) -> list:
    system = bvp_mod.FirstOrderSystem(identity_coefficients(grid))
    x = grid.coordinates()[0]
    worst_mode = 0.0
    worst_dtn = 0.0
    for k in (1, 2, 3):
        f = np.cos(k * x)
        sol = bvp_mod.solve_dirichlet(system, f)
        for t in (0.25, 1.0):
            u = sol.scalar_value(t)
            exact = np.exp(-k * t) * f
            worst_mode = max(
                worst_mode, np.linalg.norm(u - exact) / np.linalg.norm(exact)
            )
        dtn = bvp_mod.dirichlet_to_neumann(system, f)
        worst_dtn = max(
            worst_dtn, np.linalg.norm(dtn + k * f) / np.linalg.norm(k * f)
        )
    return [
        upper("poisson_modes", worst_mode, 1e-8, "solve_dirichlet",
              "flat-coefficient decay per mode", cfg.tolerance_scale),
        upper("dtn_symbol", worst_dtn, 1e-8, "dirichlet_to_neumann",
              "boundary map symbol is minus the frequency modulus", cfg.tolerance_scale),
    ]


def run_oracle_block(cfg: ExperimentConfig, grid: GridSpec, rng) -> list:
    A = build_coefficients({"source": "block", "contrast": 0.5}, grid, rng)
    system = bvp_mod.FirstOrderSystem(A)
    u = random_scalar_datum(grid, rng)
    h = bvp_mod.embed_scalar(grid, u)
    habs = fc.apply_calculus(fc.abs_value(), system.db, h, path="eigen")
    lhs = l2_norm(habs) ** 2
    grad = bvp_mod._as_tangential_data(grid, bvp_mod.tangential_gradient(grid, u))
    d_field = np.einsum("...ij,...j->...i", A.d, grad)
    rhs = float(np.real(grid.cell_volume * np.vdot(grad, d_field)))
    rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return [
        upper("square_root_energy", rel, 1e-6, "apply_calculus",
              "modulus of the composition matches the quadratic form", cfg.tolerance_scale),
    ]


def run_oracle_one_d(cfg: ExperimentConfig, grid: GridSpec, rng) -> list:
    system = bvp_mod.FirstOrderSystem(perturbation_of_identity(grid, rng, 0.15))
    # counted from a dense eig with its own null threshold, independent
    # of the range eigendecomposition that eigen_data builds its null part from
    lam = np.abs(np.linalg.eigvals(system.db.dense_matrix()))
    null_dim = int((lam < 1e-10 * lam.max()).sum())
    expected = 2 * grid.system_size
    return [
        record("kernel_dimension", null_dim, expected, null_dim == expected,
               "assemble_dense + eigendecomposition",
               "one-dimensional symbol is invertible off the zero mode"),
    ]


def run_sweep_aperture(cfg: ExperimentConfig, grid: GridSpec, rng) -> list:
    recs = []
    ratios = []
    ladder = cfg.make_ladder()
    for points in (cfg.grid_points, 2 * cfg.grid_points):
        g = GridSpec(cfg.grid_dim, points, cfg.system_size)
        h = range_probe(g, np.random.default_rng(cfg.seed))
        F = tent_mod.semigroup_tent_field(d_operator(g), h, ladder)
        n1 = tent_mod.tent_norm(F, 2.0, tent_mod.WhitneyParams(aperture=1.0))
        n2 = tent_mod.tent_norm(F, 2.0, tent_mod.WhitneyParams(aperture=2.0))
        ratios.append(n2 / n1)
        recs.append(record(f"aperture_ratio_G{points}", n2 / n1, None, True,
                           "tent_norm", "change of aperture at exponent two"))
    drift = abs(ratios[1] - ratios[0]) / ratios[0]
    recs.append(upper("refinement_drift", drift, 0.10, "tent_norm",
                      "aperture ratio is stable under grid refinement",
                      cfg.tolerance_scale))
    return recs


def run_sweep_perturbation(cfg: ExperimentConfig, grid: GridSpec, rng) -> list:
    A = build_coefficients(cfg.coefficients, grid, rng)
    E = perturbation_of_identity(grid, rng, 1.0).values - np.eye(grid.channels)
    recs = []
    for eps in (0.0, 0.05, 0.1, 0.2, 0.4):
        Ap = CoefficientMatrix(grid, A.values + eps * E)
        operation = "solve_neumann"
        try:
            system = bvp_mod.FirstOrderSystem(Ap)
            sol = bvp_mod.solve_neumann(
                system, random_scalar_datum(grid, np.random.default_rng(cfg.seed))
            )
            cond = sol.diagnostics["trace_condition"]
            ok = True
        except (TraceMapError, NotAccretiveError, OperatorError, CoefficientError) as exc:
            # a refused perturbation; any other error is a fault and propagates
            cond = float("inf")
            ok = False
            operation = f"solve_neumann: {type(exc).__name__}"
        recs.append(record(f"trace_condition_eps_{eps:g}", cond, None, ok, operation,
                           "trace conditioning under coefficient perturbation"))
    return recs


# experiment -> {variant: runner}, the first variant being the default; an
# experiment without variants maps None to its runner
EXPERIMENTS = {
    "accretivity": {None: run_accretivity},
    "quadratic": {None: run_quadratic},
    "calderon": {None: run_calderon},
    "nt-max": {None: run_nt_max},
    "nt-sharp": {None: run_nt_sharp},
    "offdiag": {None: run_offdiag},
    "bvp": {"regularity": run_bvp, "neumann": run_bvp, "dirichlet": run_bvp},
    "layers": {
        "jump": run_layers_jump,
        "duality": run_layers_duality,
        "representation": run_layers_representation,
    },
    "oracle": {
        "laplacian": run_oracle_laplacian,
        "block": run_oracle_block,
        "one-d": run_oracle_one_d,
    },
    "sweep": {"aperture": run_sweep_aperture, "perturbation": run_sweep_perturbation},
}


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def environment_fingerprint() -> dict:
    return {
        "package_version": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_experiment(cfg: ExperimentConfig) -> dict:
    runner = EXPERIMENTS[cfg.experiment][cfg.variant]
    records = runner(cfg, cfg.grid(), np.random.default_rng(cfg.seed))
    return {
        "experiment": cfg.experiment
        + (f" {cfg.variant}" if cfg.variant else ""),
        "config": cfg.to_dict(),
        "records": records,
        "passed": all(r["pass"] for r in records),
        "environment": environment_fingerprint(),
    }


def write_report(report: dict, path: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_config(path: str) -> dict:
    with open(path) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemExit(
            f"config parse error in {path} at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfspace",
        description="run a named verification experiment and write a JSON report",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, variants in EXPERIMENTS.items():
        p = sub.add_parser(name)
        if None not in variants:
            p.add_argument("variant", choices=tuple(variants))
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out", help="report path (default: report.json)")
        p.add_argument("--seed", type=int, help="probe seed")
        p.add_argument("--grid", type=int, dest="grid_points", help="points per axis")
        p.add_argument("--dim", type=int, choices=(1, 2), dest="grid_dim")
        p.add_argument("--tolerance-scale", type=float, dest="tolerance_scale")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    doc = load_config(args.config) if args.config else {}
    doc["experiment"] = args.experiment
    if getattr(args, "variant", None):
        doc["variant"] = args.variant
    for key in ("seed", "grid_points", "grid_dim", "tolerance_scale", "out"):
        val = getattr(args, key, None)
        if val is not None:
            doc[key] = val
    try:
        cfg = ExperimentConfig.from_dict(doc)
    except (TypeError, ValueError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    report = run_experiment(cfg)
    out = cfg.out or "report.json"
    write_report(report, out)
    for rec in report["records"]:
        status = "pass" if rec["pass"] else "FAIL"
        print(f"[{status}] {rec['name']}: value={rec['value']} bound={rec['bound']}")
    print(f"report written to {out}")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

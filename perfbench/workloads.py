"""The four workloads.  Each mirrors a CLI experiment family but calls the
library directly, so every call into a layer is visible to the tracer.

``setup(workload, seed, workdir)`` makes every input from the seed and
returns them; ``job(tracer, job, inputs)`` runs the build phase and the
operation loop once.
Where a library call would build a lazily cached factorization, the job
first calls its public constructor, just before the first operation that
needs it, so that cost lands in its own span.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Callable

import numpy as np

from halfspace import bvp, calculus, coefficients, grid, io, operators, tent
from halfspace.cli import random_scalar_datum
from halfspace.grid import GridSpec, TLadder
from halfspace.tent import WhitneyParams


@dataclasses.dataclass
class Workload:
    name: str
    grid: GridSpec
    size: float  # sup norm of the coefficient perturbation
    setup: Callable
    job: Callable


def _coefficients(w: Workload, seed: int):
    rng = np.random.default_rng([seed, 0])
    return coefficients.perturbation_of_identity(w.grid, rng, w.size), rng


def _op_rng(seed: int):
    """Generator for inputs made inside the operation loop; every job of a
    run draws the same sequence."""
    return np.random.default_rng([seed, 1])


def _constructors(job, T) -> None:
    """Dense matrix and eigendecomposition of a handle, each in its span."""
    job.step_as("operators.assemble_dense", T.dense_matrix)
    job.step(calculus.eigen_data, T)


# ---------------------------------------------------------------------------
# bvp2d: boundary value problems and layer potentials, factorize-bound
# ---------------------------------------------------------------------------

BVP_SOLVES = 10  # per kind: Neumann and regularity
# the Dirichlet solves are the slowest operations; with more of them than ten
# the tail percentile falls inside their group, not on its edge
BVP_DIRICHLET = 13
BVP_JUMPS = 2
DUALITY_HEIGHTS = (0.1, 0.3, 1.0)


def bvp2d_setup(w: Workload, seed: int, workdir: str) -> dict:
    A, rng = _coefficients(w, seed)
    path = os.path.join(workdir, "bvp2d.coef")
    io.save_coefficient_samples(path, A)
    counts = {"neumann": BVP_SOLVES, "regularity": BVP_SOLVES,
              "dirichlet": BVP_DIRICHLET, "jump": BVP_JUMPS, "duality": 2}
    inputs = {kind: [random_scalar_datum(w.grid, rng) for _ in range(n)]
              for kind, n in counts.items()}
    inputs.update({
        "grid": w.grid,
        "path": path,
        "ladder": TLadder.logspaced(2.0**-4, 2.0**2, 8),
    })
    return inputs


def _check_trace(job, sol) -> None:
    job.upper("trace_residual", sol.diagnostics["trace_residual"], 1e-8)
    job.upper("trace_condition", sol.diagnostics["trace_condition"], 1e6)


def bvp2d_job(tr, job, inp: dict) -> None:
    g = inp["grid"]
    A = job.step(io.load_coefficients, inp["path"], g)
    B = job.step(coefficients.hat_transform, A)
    report = job.step(coefficients.accretivity_estimate, B)
    system = job.step(bvp.FirstOrderSystem, A, report)

    _constructors(job, system.db)
    job.step_as("bvp.hardy", system.hardy, "DB")
    for datum in inp["neumann"]:
        with job.op("neumann"):
            _check_trace(job, tr.call(bvp.solve_neumann, system, datum))
    for datum in inp["regularity"]:
        with job.op("regularity"):
            grad = tr.call(bvp.tangential_gradient, g, datum)
            _check_trace(job, tr.call(bvp.solve_regularity, system, grad))

    _constructors(job, system.bd)
    job.step_as("bvp.hardy", system.hardy, "BD")
    dirichlet = None
    for datum in inp["dirichlet"]:
        with job.op("dirichlet"):
            dirichlet = tr.call(bvp.solve_dirichlet, system, datum, ladder=inp["ladder"])
            _check_trace(job, dirichlet)
            job.upper("boundary_value_error", dirichlet.diagnostics["boundary_value_error"],
                      1e-8)
    for datum in inp["jump"]:
        with job.op("jump"):
            w = tr.call(bvp.embed_scalar, g, datum).values
            gp = tr.call(bvp.grad_single_layer, system, 0.0, datum, side="+")
            gm = tr.call(bvp.grad_single_layer, system, 0.0, datum, side="-")
            dp = tr.call(bvp.double_layer, system, 0.0, datum, side="+")
            dm = tr.call(bvp.double_layer, system, 0.0, datum, side="-")
            single = gp.to_physical().values - gm.to_physical().values - w
            job.upper("jump", np.linalg.norm(single) / np.linalg.norm(w), 1e-8)
            job.upper("jump", np.linalg.norm(dp - dm + datum) / np.linalg.norm(datum), 1e-8)
    with job.op("representation"):
        residual = tr.call(bvp.boundary_layer_representation_check, system, dirichlet)
        job.upper("representation", residual, 1e-6)

    adjoint = job.step_as("bvp.adjoint", system.adjoint)
    _constructors(job, adjoint.db)
    f, h = inp["duality"]
    for t in DUALITY_HEIGHTS:
        with job.op("duality"):
            res_single, res_double = tr.call(bvp.layer_duality_check, system, t, f, h)
            job.upper("duality", res_single, 1e-6)
            job.upper("duality", res_double, 1e-6)


# ---------------------------------------------------------------------------
# contour1d: contour quadrature of the calculus against the eigen path
# ---------------------------------------------------------------------------

CONTOUR_OPS = 2
SEMIGROUP_TIMES = (0.5,)


def dense_setup(w: Workload, seed: int, workdir: str) -> dict:
    A, _ = _coefficients(w, seed)
    return {"A": A, "seed": seed, "grid": w.grid}


def _gap(tr, a, b) -> float:
    return tr.call(grid.l2_norm, a - b) / tr.call(grid.l2_norm, b)


def contour1d_job(tr, job, inp: dict) -> None:
    g = inp["grid"]
    rng = _op_rng(inp["seed"])
    B = job.step(coefficients.hat_transform, inp["A"])
    report = job.step(coefficients.accretivity_estimate, B)
    T = job.step(operators.db_operator, B)
    T.accretivity_angle = report.omega
    psi = job.step(calculus.resolvent_power, 4)

    job.step_as("operators.assemble_dense", T.dense_matrix)
    job.step(operators.range_splitter, T)
    job.step(calculus.eigen_data, T)
    for _ in range(CONTOUR_OPS):
        with job.op("contour"):
            h = tr.call(grid.random_field, g, rng)
            u_con = tr.call_as("calculus.apply_calculus.contour", calculus.apply_calculus,
                               psi, T, h, path="contour")
            u_eig = tr.call_as("calculus.apply_calculus.eigen", calculus.apply_calculus,
                               psi, T, h, path="eigen")
            job.upper("contour_gap", _gap(tr, u_con, u_eig), 1e-6)
    for t in SEMIGROUP_TIMES:
        with job.op("semigroup"):
            h = tr.call(grid.random_field, g, rng)
            s_con = tr.call_as("calculus.semigroup.contour", calculus.semigroup,
                               T, t, h, path="contour")
            s_eig = tr.call_as("calculus.semigroup.eigen", calculus.semigroup,
                               T, t, h, path="eigen")
            job.upper("contour_gap", _gap(tr, s_con, s_eig), 1e-6)


# ---------------------------------------------------------------------------
# probes1d: many cheap tent-space functionals on one decomposition
# ---------------------------------------------------------------------------

PROBES = 40


def probes1d_job(tr, job, inp: dict) -> None:
    g = inp["grid"]
    rng = _op_rng(inp["seed"])
    B = job.step(coefficients.hat_transform, inp["A"])
    report = job.step(coefficients.accretivity_estimate, B)
    db = job.step(operators.db_operator, B)
    bd = job.step(operators.bd_operator, B)
    db.accretivity_angle = bd.accretivity_angle = report.omega
    P = job.step(operators.p_operator, g)
    psi = job.step(calculus.z_over_one_plus_z2)
    ladder = TLadder.logspaced(2.0**-12, 2.0**8, 2)
    narrow, wide = WhitneyParams(), WhitneyParams(aperture=2.0)
    window = 10.0 * (report.sup_norm / report.kappa) ** 2  # the quadratic experiment's

    _constructors(job, db)
    _constructors(job, bd)
    for _ in range(PROBES):
        with job.op("probe"):
            h = tr.call_as("operators.apply", P.apply, tr.call(grid.random_field, g, rng))
            F = tr.call(tent.semigroup_tent_field, db, h, ladder)
            nt = tr.call(tent.nt_maximal, F, narrow)
            n1 = tr.call(tent.tent_norm, F, 2.0, narrow)
            n2 = tr.call(tent.tent_norm, F, 2.0, wide)
            carleson = tr.call(tent.carleson_norm, F)
            quad = tr.call(tent.quadratic_norm, db, psi, h, ladder)
            sharp = tr.call(tent.nt_sharp, h, bd, ladder, narrow)
            norm = tr.call(grid.l2_norm, h)
            job.window("nt_ratio", tr.call(grid.lp_norm_grid, nt, g, 2) / norm, 0.1, 10.0)
            job.window("quadratic_ratio", quad / norm**2, 1.0 / window, window)
            job.finite("tent functionals", n1, n2, carleson, np.abs(sharp).max())


# ---------------------------------------------------------------------------
# matfree2d: matrix-free resolvent solves beyond the dense limit
# ---------------------------------------------------------------------------

RESOLVENT_SOLVES = 48  # 12 per t, so the tail falls inside the slowest group
RESOLVENT_TIMES = (0.05, 0.3, 1.0, 3.0)
RESOLVENT_TOL = 1e-10  # resolvent_solve's default tolerance


class CountingHandle:
    """Counts operator applications; the GMRES path uses only these two names."""

    def __init__(self, T):
        self.T = T
        self.grid = T.grid
        self.matvecs = 0

    def apply_array(self, values, rep):
        self.matvecs += 1
        return self.T.apply_array(values, rep)


def matfree2d_job(tr, job, inp: dict) -> None:
    g = inp["grid"]
    rng = _op_rng(inp["seed"])
    B = job.step(coefficients.hat_transform, inp["A"])
    T = job.step(operators.db_operator, B)
    handle = CountingHandle(T) if tr.enabled else T
    for i in range(RESOLVENT_SOLVES):
        t = RESOLVENT_TIMES[i % len(RESOLVENT_TIMES)]
        with job.op("resolvent"):
            f = tr.call(grid.random_field, g, rng)
            u = tr.call(operators.resolvent_solve, handle, t, f)
            Tu = tr.call_as("operators.apply", T.apply, u).to_physical().values
            residual = np.linalg.norm(u.values + 1j * t * Tu - f.values)
            job.upper("gmres_residual", residual / np.linalg.norm(f.values), RESOLVENT_TOL)
    if tr.enabled:
        job.counts["operators.resolvent_solve.matvecs"] = handle.matvecs


BVP2D = Workload("bvp2d", GridSpec(2, 8, 1), 0.1, bvp2d_setup, bvp2d_job)
# the ROADMAP baseline size; not in BENCHMARK.json, run by hand for the
# baseline cross-check, as its 14 s jobs are too long to repeat within a run
BVP2D_G16 = Workload("bvp2d-g16", GridSpec(2, 16, 1), 0.1, bvp2d_setup, bvp2d_job)
CONTOUR1D = Workload("contour1d", GridSpec(1, 32, 1), 0.15, dense_setup, contour1d_job)
PROBES1D = Workload("probes1d", GridSpec(1, 64, 1), 0.15, dense_setup, probes1d_job)
# not in BENCHMARK.json: this FFT-bound job slows under a busy host by more
# than the reference loop run.py rescales by, so its spread over seeds reached
# the bound; run it by hand (--trace 1 for resolvent_solve and its matvecs)
MATFREE2D = Workload("matfree2d", GridSpec(2, 64, 1), 0.3, dense_setup, matfree2d_job)

WORKLOADS = {w.name: w for w in (BVP2D, BVP2D_G16, CONTOUR1D, PROBES1D, MATFREE2D)}

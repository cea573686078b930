"""The first-order operator, its transform, and transversal resolvents.

Divergence-form coefficients A become a pointwise multiplier B through
the block transform; the composition of the symbol with B drives
everything downstream, gated by an accretivity certificate computed on
the compressed quadratic form.
"""

import numpy as np

from halfspace import (
    GridSpec,
    accretivity_estimate,
    assemble_dense,
    db_operator,
    hat_transform,
    perturbation_of_identity,
    random_field,
    resolvent_solve,
)
from halfspace.grid import l2_norm
from halfspace.operators import offdiag_distance_sweep

grid = GridSpec(dim=1, points=64)
rng = np.random.default_rng(1)

A = perturbation_of_identity(grid, rng, 0.2)
B = hat_transform(A)
report = accretivity_estimate(B)
print(f"accretivity: kappa = {report.kappa:.4f}, angle = {report.omega:.4f} rad, "
      f"sup norm = {report.sup_norm:.4f}, pointwise = {report.pointwise_accretive}")

T = db_operator(B)

lam = np.linalg.eigvals(assemble_dense(T))
lam = lam[np.abs(lam) > 1e-8]
worst_angle = np.minimum(np.abs(np.angle(lam)), np.abs(np.angle(-lam))).max()
print(f"spectrum: {len(lam)} nonzero eigenvalues inside the double sector "
      f"of half-angle {worst_angle:.4f} (certificate {report.omega:.4f})")

f = random_field(grid, rng)
for t in (0.01, 0.3, 3.0):
    u = resolvent_solve(T, t, f)
    print(f"resolvent at t = {t:5.2f}: |u| / |f| = {l2_norm(u) / l2_norm(f):.4f}")

t = 0.7
est = offdiag_distance_sweep(T, t, np.geomspace(0.4 * t, 4 * t, 6), trials=4, rng=rng)
print("localization decay: separations/t =",
      np.array2string(est.distances_over_t, precision=2),
      f"-> fitted exponent {est.exponent:.2f}")

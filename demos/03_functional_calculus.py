"""Functions of the first-order composition, two independent ways.

The eigendecomposition path is the desk-scale reference; the contour
path sums the resolvent over two closed curves around the range
spectrum, an ellipse in log(lambda) and its mirror image, with one
unitary complex Schur form of the operator and a triangular shifted
solve per node, and never sees the eigenvectors.  The curves avoid 0
and infinity, so functions that do not decay there, such as chi+, are
computed on both paths.  Spectral
projections, the sign involution and the decay semigroup all come from
the same machinery, and a companion function reproduces the identity as
a mean over scales: the whole scale ladder is one call of the
eigendecomposition kernel, which returns every scale in one array.
"""

import numpy as np

import halfspace.calculus as fc
from halfspace import (
    GridSpec,
    accretivity_estimate,
    apply_calculus,
    calderon_pair,
    db_operator,
    hat_transform,
    perturbation_of_identity,
    random_field,
    semigroup,
)
from halfspace.grid import Field, TLadder, l2_norm
from halfspace.operators import p_operator

grid = GridSpec(dim=1, points=64)
rng = np.random.default_rng(2)
B = hat_transform(perturbation_of_identity(grid, rng, 0.15))
report = accretivity_estimate(B)
T = db_operator(B)
T.accretivity_angle = report.omega

h = random_field(grid, rng)
psi = fc.resolvent_power(4)
u_eig = apply_calculus(psi, T, h, path="eigen")
u_con = apply_calculus(psi, T, h, path="contour")
print(f"path agreement on a rational kernel: "
      f"{l2_norm(u_eig - u_con) / l2_norm(u_eig):.2e}")

hp = apply_calculus(fc.chi_plus(), T, h)
hp_con = apply_calculus(fc.chi_plus(), T, h, path="contour")
print(f"path agreement on the spectral projection chi+: "
      f"{l2_norm(hp - hp_con) / l2_norm(hp):.2e}")
hm = apply_calculus(fc.chi_minus(), T, h)
sgn2 = apply_calculus(fc.sgn(), T, apply_calculus(fc.sgn(), T, h))
print(f"projections: |chi+ h| = {l2_norm(hp):.3f}, |chi- h| = {l2_norm(hm):.3f}, "
      f"sign involution defect = {l2_norm(sgn2 - (hp + hm)) / l2_norm(h):.2e}")

s, t = 0.4, 0.9
comp = l2_norm(semigroup(T, s, semigroup(T, t, h)) - semigroup(T, s + t, h))
print(f"semigroup composition defect: {comp / l2_norm(h):.2e}")

psi2 = fc.bracket_exp_abs()
phi = calderon_pair(psi2)
ladder = TLadder.logspaced(2.0**-12, 2.0**8, per_octave=8)
hr = p_operator(grid).apply(h)
# phi(tT) psi(tT) hr at every ladder scale t, from one evaluation of the
# base function phi psi on the scaled eigenvalues and one eigenvector product
parts = fc.eigen_apply_scaled(T, phi.product(psi2), ladder.t, hr)
acc = Field.physical(grid, np.tensordot(ladder.weights, parts, axes=1))
print(f"{len(ladder)} scales as one array of shape {parts.shape}")
print(f"reproducing formula defect on the range: "
      f"{l2_norm(acc - hr) / l2_norm(hr):.2e}")

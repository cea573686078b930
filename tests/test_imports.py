"""Import contract: a fresh process loads only the scipy subpackages that run.

scipy.integrate (the Calderon pair's quadrature) and scipy.sparse.linalg
(GMRES beyond the dense limit) are imported at their one call site, so
`import halfspace.cli` must not load them or what they pull in.  The
contract is about module presence only, never timing.
"""

import os
import subprocess
import sys

import halfspace

SRC = os.path.dirname(os.path.dirname(os.path.abspath(halfspace.__file__)))

CHILD = """
import sys
import halfspace, halfspace.cli

deferred = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.spatial")
loaded = [name for name in deferred if name in sys.modules]
assert not loaded, f"loaded at import: {loaded}"
assert "scipy.linalg" in sys.modules and "scipy.fft" in sys.modules

import numpy as np
from halfspace.coefficients import hat_transform, perturbation_of_identity
from halfspace.grid import GridSpec, random_field
from halfspace.operators import db_operator, resolvent_solve

grid = GridSpec(dim=1, points=16, system_size=1)
rng = np.random.default_rng(3)
T = db_operator(hat_transform(perturbation_of_identity(grid, rng, 0.1)))
f = random_field(grid, rng)
resolvent_solve(T, 0.5, f, method="gmres")  # raises unless the residual bound holds
assert "scipy.sparse.linalg" in sys.modules
print("ok")
"""


def test_import_loads_only_what_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"

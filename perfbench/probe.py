"""A fixed reference workload that tracks the machine's current speed.

On a shared 2-core machine the same pass runs up to 1.4x slower from one
minute to the next, for reasons outside the process (neighbouring load).
Timing this probe between passes measures that drift with the same kinds of
work the workloads do: interpreter loops, a sparse LU factorization and numpy
array passes, about 10 ms each.  It is independent of singell, so a change to
singell does not move it.
"""

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu   # bound here: traced runs patch the module

# Probe time that defines the reference speed; normalised times are seconds
# at the speed where one probe takes this long.
PROBE_REF_S = 0.020


GRID = 40                 # the probe's 2-D Laplacian is GRID^2 x GRID^2


class SpeedProbe:
    def __init__(self):
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(GRID, GRID))
        eye = sp.eye(GRID)
        self.matrix = (sp.kron(eye, line) + sp.kron(line, eye)).tocsc()
        self.rhs = np.ones(GRID * GRID)
        self.x = np.random.default_rng(0).random(100_000)

    def __call__(self) -> float:
        """Seconds for one run of the reference work."""
        start = time.perf_counter()
        acc = 0
        for i in range(50_000):
            acc += i * i
        for _ in range(2):
            splu(self.matrix).solve(self.rhs)
        x = self.x
        for _ in range(30):
            x = np.sqrt(x * x + 1.0)
        return time.perf_counter() - start

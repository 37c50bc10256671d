"""One program, the same bits on any device count, OCC level and replay mode.

Every reduction deposits one sum per owned axis-0 slice and the host
combines the slots in global slice order, so CG's two scalars — hence the
whole trajectory — depend only on the domain, never on where the slab
cuts fall or how a launch is split.  This holds on element-sparse grids as
well as dense ones: sparse owned cells are stored in slice order, and a
reduce launch cuts its cells at each slice's first cell.
"""

import functools

import numpy as np
import pytest

from repro.skeleton import Occ
from repro.solvers.elasticity import ElasticitySolver
from repro.system import Backend

SIZE, ITERATIONS = 8, 8


@functools.cache
def solve(sparse: bool, devices: int, occ: Occ, mode: str) -> tuple[bytes, bytes]:
    backend = Backend.sim_gpus(devices)
    solver = ElasticitySolver.solid_cube(backend, SIZE, solid_fraction=0.5, sparse=sparse, occ=occ)
    solver.cg.mode = mode
    result = solver.cg.solve(max_iterations=ITERATIONS, tolerance=0.0)
    assert result.iterations == ITERATIONS
    return solver.displacement().tobytes(), np.array(result.residual_norms).tobytes()


@pytest.mark.parametrize("devices", [1, 2, 3, 4])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_elasticity_is_bitwise_partition_invariant(sparse, devices):
    ref = solve(sparse, 1, Occ.STANDARD, "serial")
    for occ in Occ:
        for mode in ("serial", "parallel"):
            disp, norms = solve(sparse, devices, occ, mode)
            assert disp == ref[0], (occ, mode)
            assert norms == ref[1], (occ, mode)

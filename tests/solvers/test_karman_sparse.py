"""Sparse-grid Kármán flow: the cylinder as a truly free-form hole.

On the element-sparse grid the obstacle's cells are not stored at all;
bounce-back emerges from the mask field's outside_value at absent
neighbours.  The trajectory must match the dense run on every fluid
cell — Listing 1's circular-domain idea applied to a full application.
"""

import pytest

from repro.solvers.lbm import KarmanVortexStreet
from repro.system import Backend


def test_sparse_karman_matches_dense_on_fluid_cells():
    shape = (24, 48)
    dense = KarmanVortexStreet(Backend.sim_gpus(2), shape, reynolds=100.0)
    sparse = KarmanVortexStreet(Backend.sim_gpus(2), shape, reynolds=100.0, sparse=True)
    dense.step(25)
    sparse.step(25)
    fd = dense.current.to_numpy()
    fs = sparse.current.to_numpy()
    fluid = sparse.grid.mask
    assert fd[:, fluid].tobytes() == fs[:, fluid].tobytes()


def test_sparse_karman_stores_fewer_cells():
    shape = (24, 48)
    sparse = KarmanVortexStreet(Backend.sim_gpus(1), shape, sparse=True)
    assert sparse.grid.num_active < shape[0] * shape[1]
    assert sparse.grid.num_active == int(sparse.grid.mask.sum())


def test_sparse_karman_multi_device_consistent():
    outs = {}
    for ndev in (1, 2):
        k = KarmanVortexStreet(Backend.sim_gpus(ndev), (24, 48), reynolds=90.0, sparse=True)
        k.step(15)
        outs[ndev] = k.current.to_numpy()
    assert outs[1].tobytes() == outs[2].tobytes()


def test_sparse_karman_virtual_rejected():
    with pytest.raises(ValueError, match="virtual"):
        KarmanVortexStreet(Backend.sim_gpus(1), (24, 48), sparse=True, virtual=True)

"""OCC levels must actually change simulated timing the way the paper says."""

import numpy as np
import pytest

from repro.domain import STENCIL_7PT, DenseGrid
from repro.sim import SpanKind, dgx_a100, pcie_gv100
from repro.skeleton import Occ, Skeleton
from repro.system import Backend

from .conftest import make_axpy, make_dot, make_laplace


def build(ndev, occ, shape=(24, 8, 8), virtual=False, machine=None):
    backend = Backend.sim_gpus(ndev, machine=machine)
    grid = DenseGrid(backend, shape, stencils=[STENCIL_7PT], virtual=virtual)
    x, y = grid.new_field("X"), grid.new_field("Y")
    if not virtual:
        x.fill(1.0)
        y.fill(2.0)
        x.sync_halo_now()
    partial = grid.new_reduce_partial("p")
    containers = [make_axpy(grid, 0.5, x, y), make_laplace(grid, x, y), make_dot(grid, x, y, partial)]
    return Skeleton(backend, containers, occ=occ)


def makespan(occ, ndev=4, shape=(256, 64, 64), machine=None):
    sk = build(ndev, occ, shape=shape, virtual=True, machine=machine)
    return sk.trace(result=sk.record()).makespan


def test_standard_occ_beats_none_on_slow_interconnect():
    # PCIe makes communication expensive: overlap must pay off clearly
    m_none = makespan(Occ.NONE, shape=(256, 256, 256), machine=pcie_gv100(4))
    m_std = makespan(Occ.STANDARD, shape=(256, 256, 256), machine=pcie_gv100(4))
    assert m_std < m_none


def test_occ_gains_grow_with_communication_cost():
    """The paper's Fig 7 trend: slower links -> bigger OCC payoff."""
    gain_pcie = makespan(Occ.NONE, shape=(256, 256, 256), machine=pcie_gv100(4)) / makespan(
        Occ.STANDARD, shape=(256, 256, 256), machine=pcie_gv100(4)
    )
    gain_dgx = makespan(Occ.NONE, shape=(256, 256, 256), machine=dgx_a100(4)) / makespan(
        Occ.STANDARD, shape=(256, 256, 256), machine=dgx_a100(4)
    )
    assert gain_pcie > gain_dgx


def test_small_domains_do_not_benefit_from_occ():
    """Launch overhead of split kernels outweighs tiny transfers — the
    reason the paper stresses OCC pays off 'given enough parallelism'."""
    m_none = makespan(Occ.NONE, shape=(24, 8, 8), machine=dgx_a100(4))
    m_std = makespan(Occ.STANDARD, shape=(24, 8, 8), machine=dgx_a100(4))
    assert m_std >= m_none


def test_standard_occ_fully_hides_halo_traffic():
    sk_none = build(4, Occ.NONE, shape=(256, 256, 256), virtual=True, machine=pcie_gv100(4))
    sk_std = build(4, Occ.STANDARD, shape=(256, 256, 256), virtual=True, machine=pcie_gv100(4))
    t_none = sk_none.trace(result=sk_none.record())
    t_std = sk_std.trace(result=sk_std.record())
    assert t_none.copy_exposed_time() > 0
    assert t_std.copy_exposed_time() == pytest.approx(0.0, abs=1e-9)


def test_single_device_has_no_copies():
    sk = build(1, Occ.STANDARD, virtual=True)
    trace = sk.trace(result=sk.record())
    assert not [s for s in trace.spans if s.kind is SpanKind.COPY]


def test_trace_covers_all_kernels():
    sk = build(3, Occ.STANDARD)
    result = sk.run()
    trace = sk.trace(result=result)
    kernels = [s for s in trace.spans if s.kind is SpanKind.KERNEL]
    assert len(kernels) == result.stats.num_kernels
    copies = [s for s in trace.spans if s.kind is SpanKind.COPY]
    assert len(copies) == result.stats.num_copies


def test_stats_event_economy():
    """Same-queue dependencies must not burn events (paper V-C b)."""
    sk = build(3, Occ.NONE)
    result = sk.run()
    assert result.stats.waits_skipped_same_queue > 0


def test_functional_and_virtual_costs_agree():
    """A virtual (planning-only) run must time identically to a real one."""
    real = build(3, Occ.STANDARD, shape=(24, 8, 8), virtual=False)
    virt = build(3, Occ.STANDARD, shape=(24, 8, 8), virtual=True)
    t_real = real.trace(result=real.run())
    t_virt = virt.trace(result=virt.record())
    assert t_real.makespan == pytest.approx(t_virt.makespan)

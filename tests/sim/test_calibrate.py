import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.calibrate import (
    KernelSample,
    TransferSample,
    fit_device,
    fit_link,
    fit_quality,
)
from repro.sim.costmodel import kernel_duration
from repro.sim.machine import pcie_a100
from repro.system.queue import KernelCost


def synth_kernels(bw, overhead, rng, n=8, noise=0.0):
    out = []
    for _ in range(n):
        b = rng.uniform(1e6, 1e9)
        launches = rng.integers(1, 4)
        t = launches * overhead + b / bw
        out.append(KernelSample(b, int(launches), t * (1 + noise * rng.standard_normal())))
    return out


def test_exact_recovery_from_clean_samples():
    rng = np.random.default_rng(0)
    samples = synth_kernels(1.4e12, 4e-6, rng)
    spec = fit_device(samples)
    assert spec.mem_bandwidth == pytest.approx(1.4e12, rel=1e-6)
    assert spec.launch_overhead == pytest.approx(4e-6, rel=1e-6)
    assert fit_quality(samples, spec) < 1e-9


def test_fit_inverts_the_cost_model():
    """Feeding ``kernel_duration``'s own predictions back through the fit
    recovers the DeviceSpec the DES scored them with."""
    spec = pcie_a100(2).device_spec(0)
    samples = []
    for nbytes in (1e6, 4e6, 1.6e7, 6.4e7, 2.56e8):
        cost = KernelCost(bytes_moved=nbytes, flops=0.0, launches=1)
        samples.append(KernelSample(nbytes, 1, kernel_duration(cost, spec)))
    fitted = fit_device(samples, flops=spec.flops)
    assert fitted.mem_bandwidth == pytest.approx(spec.mem_bandwidth, rel=1e-6)
    assert fitted.launch_overhead == pytest.approx(spec.launch_overhead, rel=1e-6)
    assert fit_quality(samples, spec) < 1e-9


def test_noisy_samples_recover_within_tolerance():
    rng = np.random.default_rng(1)
    samples = synth_kernels(8e11, 6e-6, rng, n=30, noise=0.02)
    spec = fit_device(samples)
    assert spec.mem_bandwidth == pytest.approx(8e11, rel=0.1)
    # residuals on 2%-noisy data stay commensurate with the noise level
    assert fit_quality(samples, spec) < 0.08


def test_link_fit_recovers_parameters():
    link_samples = [
        TransferSample(n, 1.2e-5 + n / 2.4e11) for n in (1e4, 1e6, 1e7, 1e8)
    ]
    link = fit_link(link_samples)
    assert link.bandwidth == pytest.approx(2.4e11, rel=1e-6)
    assert link.latency == pytest.approx(1.2e-5, rel=1e-6)


def test_insufficient_samples_rejected():
    with pytest.raises(ValueError):
        fit_device([KernelSample(1e6, 1, 1e-3)])
    with pytest.raises(ValueError):
        fit_link([TransferSample(1e6, 1e-3)])


def test_non_bandwidth_bound_samples_rejected():
    # durations shrink as bytes grow: nonsense data must be refused
    samples = [KernelSample(1e6, 1, 1.0), KernelSample(1e9, 1, 0.1), KernelSample(1e8, 1, 0.5)]
    with pytest.raises(ValueError):
        fit_device(samples)


@settings(max_examples=25, deadline=None)
@given(
    bw=st.floats(1e10, 2e12),
    overhead=st.floats(0.0, 1e-4),
    seed=st.integers(0, 10_000),
)
def test_roundtrip_property(bw, overhead, seed):
    rng = np.random.default_rng(seed)
    samples = synth_kernels(bw, overhead, rng, n=10)
    spec = fit_device(samples)
    assert spec.mem_bandwidth == pytest.approx(bw, rel=1e-4)
    assert fit_quality(samples, spec) < 1e-6

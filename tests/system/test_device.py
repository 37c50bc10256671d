import pytest

from repro.system import Device, DeviceSet, DeviceType


def test_gpus_factory_builds_ranked_devices():
    ds = DeviceSet.gpus(4)
    assert len(ds) == 4
    assert [d.index for d in ds] == [0, 1, 2, 3]
    assert all(d.kind is DeviceType.GPU for d in ds)


def test_cpu_factory_is_single_cpu_device():
    ds = DeviceSet.cpu()
    assert len(ds) == 1
    assert ds[0].kind is DeviceType.CPU


def test_device_uids_are_unique():
    ds = DeviceSet.gpus(8)
    assert len({d.uid for d in ds}) == 8


def test_neighbours_slab_decomposition():
    ds = DeviceSet.gpus(4)
    assert ds.neighbours(0) == [1]
    assert ds.neighbours(1) == [0, 2]
    assert ds.neighbours(3) == [2]


def test_single_device_has_no_neighbours():
    assert DeviceSet.gpus(1).neighbours(0) == []


def test_empty_device_set_rejected():
    with pytest.raises(ValueError):
        DeviceSet([])


def test_bad_rank_order_rejected():
    with pytest.raises(ValueError):
        DeviceSet([Device(index=1), Device(index=0)])


def test_zero_gpu_count_rejected():
    with pytest.raises(ValueError):
        DeviceSet.gpus(0)


def test_host_device_flag():
    from repro.system import HOST

    assert HOST.kind is DeviceType.CPU
    assert HOST.index == -1
    assert DeviceSet.gpus(1)[0].kind is DeviceType.GPU

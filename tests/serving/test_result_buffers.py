"""Warm jobs recycle their result arrays, and never one a caller still holds.

A built application keeps every result array it hands out and reads the
next result into one nothing else references (``repro.workloads._App``).
A lost recycle is bitwise-invisible, and so is a held array that was
overwritten with the same bytes, so every check here marks what the
caller holds and asks where the next result went.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import workloads
from repro.serving import Gateway, PlanCache
from repro.skeleton import Occ
from repro.workloads import EXPERIMENTS, build

from ..conformance.harness import assert_bitwise_equal, served_spec

MARK = -7.25  # what the test writes into an array it holds


@pytest.fixture(params=["cc", "REPRO_DISABLE_CC"])
def compiler(request, monkeypatch):
    if request.param == "REPRO_DISABLE_CC":
        monkeypatch.setenv("REPRO_DISABLE_CC", "1")
    return request.param


def spec_of(experiment: str):
    return served_spec(experiment, 2, Occ.STANDARD, "serial", None)


def key_of(fingerprints: dict) -> str:
    """The field result's name (``residual_norms`` is a fresh small array)."""
    (key,) = set(fingerprints) - {"residual_norms"}
    return key


def address(array: np.ndarray) -> int:
    return array.__array_interface__["data"][0]


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_a_held_result_is_never_written_again(experiment, compiler):
    spec = spec_of(experiment)
    fresh = build(spec).run()
    app = build(spec)
    first = app.run()
    assert_bitwise_equal(first, fresh, f"{experiment}: job 1 vs a fresh app")
    key = key_of(first)
    first[key][...] = MARK
    app.reset()
    second = app.run()
    assert_bitwise_equal(second, fresh, f"{experiment}: job 2 vs a fresh app")
    assert (first[key] == MARK).all(), "job 2 wrote into job 1's result"
    assert not np.shares_memory(first[key], second[key])


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_a_held_view_keeps_its_whole_array(experiment, compiler):
    """Holding ``solution`` (a ``[0]`` view) or any slice (``f[1:]``) keeps the
    buffer busy: every NumPy view holds its base."""
    spec = spec_of(experiment)
    fresh = build(spec).run()
    app = build(spec)
    fingerprints = app.run()
    key = key_of(fingerprints)
    held = fingerprints[key][1:]
    del fingerprints
    held[...] = MARK
    app.reset()
    second = app.run()
    assert_bitwise_equal(second, fresh, f"{experiment}: job 2 vs a fresh app")
    assert (held == MARK).all(), "job 2 wrote into the held view's array"
    assert not np.shares_memory(held, second[key])


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_a_dropped_result_is_reused(experiment, compiler):
    spec = spec_of(experiment)
    fresh = build(spec).run()
    app = build(spec)
    first = app.run()
    app.reset()
    second = app.run()
    key = key_of(first)
    earlier = {address(first[key]), address(second[key])}
    assert len(earlier) == 2, "two held results, two arrays"
    del first, second
    for _ in range(2):
        app.reset()
        third = app.run()
        assert_bitwise_equal(third, fresh, f"{experiment}: a recycled job vs a fresh app")
        assert address(third[key]) in earlier, "a dropped result array was not reused"
        del third
    assert len(app._kept[key]) == 2, "no array beyond the most held at once"
    app.close()
    assert app._kept == {}, "close() drops the kept arrays"


def test_without_reference_counts_every_result_is_new(monkeypatch):
    monkeypatch.setattr(workloads, "_refcount", None)
    app = build(spec_of("lbm"))
    fresh = app.run()
    app.reset()
    assert_bitwise_equal(app.run(), fresh, "lbm: an unkept result")
    assert app._kept == {"f": []}, "nothing is kept"


def test_two_clients_keep_every_result_intact(compiler):
    """Two workers, two closed-loop clients that hold all their results:
    after the stream every result is still its spec's fresh bytes and no
    two held results share memory."""
    specs = [spec_of(e) for e in ("lbm", "poisson", "karman")]
    fresh = [build(spec).run() for spec in specs]
    streams = [[0, 1, 2, 0, 0, 1, 2, 0], [1, 0, 0, 2, 1, 1, 0, 2]]
    held: list[list[tuple[int, dict]]] = [[], []]
    with Gateway(cache=PlanCache(root=None), workers=2) as gw:
        for i, spec in enumerate(specs):  # warm every program first
            gw.submit("warm", spec).result(timeout=120)

        def client(k: int) -> None:
            for i in streams[k]:
                held[k].append((i, gw.submit(f"tenant-{k}", specs[i]).result(timeout=120).fingerprints))

        threads = [threading.Thread(target=client, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
            assert not t.is_alive(), "a client did not finish its stream"
    results = [pair for client_results in held for pair in client_results]
    assert len(results) == sum(map(len, streams))
    for i, fingerprints in results:
        assert_bitwise_equal(fingerprints, fresh[i], f"{specs[i].experiment}: a held gateway result")
    arrays = [fingerprints[key_of(fingerprints)] for _, fingerprints in results]
    for a in range(len(arrays)):
        for b in range(a):
            assert not np.shares_memory(arrays[a], arrays[b]), "two held results share an array"

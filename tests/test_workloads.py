"""The registry's contract, written once (``repro.workloads``).

Every consumer — trace, report, sanitize, tune, faults, chaos, the
gateway — builds its application through :func:`repro.workloads.build`,
so what they all rely on is pinned here, per experiment: a built
application computes the native baseline bit for bit, ``reset()`` is the
exact cold state, a virtual build allocates nothing yet compiles the
same schedule, and the CLI knows the experiments by the registry's names
and no others.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import observability as obs
from repro.skeleton import Occ
from repro.workloads import EXPERIMENTS, JobSpec, UnknownExperiment, build, check_experiment

from .conformance.harness import SOLVERS, assert_bitwise_equal, served_spec

DEVICES = 2


def spec_of(experiment: str, **changes) -> JobSpec:
    """The conformance matrix's configuration of one experiment."""
    return dataclasses.replace(served_spec(experiment, DEVICES, Occ.STANDARD, "serial", None), **changes)


def state_fields(app) -> dict[str, np.ndarray]:
    """Every field the next step reads, as global arrays.

    CG's r/p/q scratch is excluded on purpose: ``begin()`` rebuilds it
    from the iterate and the right-hand side, so it is not state.  So is
    twoPop's other population: the next step writes every cell of it
    before any step reads it (tests/solvers/test_lbm_dead_population.py).
    """
    solver = app.solver
    if hasattr(solver, "cg"):
        fields = [solver.cg.x, solver.cg.b]
    else:
        fields = [solver.current, *([solver.mask] if hasattr(solver, "mask") else [])]
    return {f.name: f.to_numpy() for f in fields}


def test_the_registry_names_the_four_experiments():
    assert EXPERIMENTS == ("lbm", "karman", "poisson", "elasticity")
    assert sorted(SOLVERS) == sorted(EXPERIMENTS)  # the conformance matrix covers all of them


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_run_matches_the_native_baseline_bitwise(experiment):
    _run, native = SOLVERS[experiment]
    app = build(spec_of(experiment))
    assert_bitwise_equal(app.run(), native(), f"{experiment}/build().run() vs native")


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_reset_then_run_is_bitwise_the_cold_run(experiment):
    app = build(spec_of(experiment))
    cold = app.run()
    app.reset()
    assert_bitwise_equal(app.run(), cold, f"{experiment}/reset()+run() vs cold run")


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_solver_reset_after_stepping_equals_a_fresh_solver(experiment):
    """``reset()`` is a fresh solver on everything the next step reads:
    the live fields and the host-side loop state."""
    spec = spec_of(experiment)
    fresh, used = build(spec), build(spec)
    used.run()
    used.solver.reset()
    want, got = state_fields(fresh), state_fields(used)
    assert set(got) == set(want)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), f"{experiment}: field '{name}' is not cold"
    # the host-side loop state restarts too
    assert used.scalars() == fresh.scalars()


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_stepwise_driver_protocol_equals_run(experiment):
    """``step(i)`` x steps — how a ResilientDriver advances the application
    — is the same computation as ``run()``."""
    spec = spec_of(experiment)
    whole, stepped = build(spec), build(spec)
    want = whole.run()
    for i in range(spec.steps):
        stepped.step(i)
    assert_bitwise_equal(stepped.fingerprints(), want, f"{experiment}/step loop vs run()")
    assert np.array_equal(stepped.result_array(), whole.result_array())
    assert [f.name for f in stepped.fields()] == [f.name for f in whole.fields()]


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_virtual_build_allocates_nothing_and_compiles_the_same_schedule(experiment):
    spec = spec_of(experiment)
    real, virtual = build(spec), build(spec, virtual=True)
    assert virtual.grid.virtual and not real.grid.virtual
    buffers = [buf for f in virtual.fields() for buf in f.buffers]
    assert buffers and all(buf.array is None for buf in buffers)
    counts = ("num_streams", "num_kernels", "num_copies", "num_events", "num_waits", "copy_bytes")
    for sk_real, sk_virtual in zip(real.skeletons, virtual.skeletons, strict=True):
        want, got = sk_real.record().stats, sk_virtual.record().stats
        assert {c: getattr(got, c) for c in counts} == {c: getattr(want, c) for c in counts}, sk_real.name
    assert virtual.estimate_seconds() == real.estimate_seconds()  # DES time needs no payload


def test_unknown_names_get_the_one_message():
    with pytest.raises(UnknownExperiment, match="unknown experiment 'navier'; expected one of: lbm, karman"):
        JobSpec.make("navier", (8, 8, 8), 2)
    with pytest.raises(UnknownExperiment, match="expected one of: lbm, poisson"):
        check_experiment("karman", ("lbm", "poisson"))
    with pytest.raises(UnknownExperiment):  # a spec built without make() is checked at build()
        build(JobSpec("navier", (8, 8, 8), 2))
    with pytest.raises(ValueError, match="unknown poisson rhs 'sine'"):
        build(spec_of("poisson", params=(("rhs", "sine"),)))


# -- the CLI knows the experiments by these names and no others ------------------
def _experiment_subcommands() -> dict[str, tuple[str, ...]]:
    """Subcommand -> the experiments it declares, for every subcommand
    whose parser takes the positional experiment argument."""
    from repro.__main__ import build_parser
    from repro.bench.chaos import CHAOS_SPECS

    subsets = {"chaos": tuple(CHAOS_SPECS)}
    subparsers = next(a for a in build_parser()._actions if hasattr(a, "choices") and a.dest == "command")
    return {
        name: subsets.get(name, EXPERIMENTS)
        for name, parser in subparsers.choices.items()
        if any(a.dest == "name" and not a.option_strings for a in parser._actions)
    }


def test_cli_subcommands_that_take_an_experiment():
    accepted = _experiment_subcommands()
    assert set(accepted) == {"trace", "sanitize", "tune", "chaos"}
    assert set(accepted["chaos"]) == {"lbm", "poisson"}
    for names in accepted.values():
        assert set(names) <= set(EXPERIMENTS)


@pytest.mark.parametrize("command", ["trace", "sanitize", "tune", "chaos"])
def test_cli_rejects_any_other_name_with_the_same_message_and_disarms(command, tmp_path, capsys):
    """A bad experiment name -> exit 2, the registry's message listing the
    subcommand's names, and no process-global layer left armed."""
    from repro.__main__ import main

    obs.disable()
    output = ["-o", str(tmp_path / "out.json")] if command == "trace" else []
    assert main([command, "fig99", *output]) == 2
    expected = ", ".join(_experiment_subcommands()[command])
    assert f"unknown experiment 'fig99'; expected one of: {expected}" in capsys.readouterr().err
    assert not obs.OBS.active


def test_cli_usage_errors_after_arming_still_disarm(tmp_path):
    """The exit-2 paths that fire *after* observability is armed."""
    from repro.__main__ import main

    obs.disable()
    out = str(tmp_path / "chaos.json")
    assert main(["chaos", "poisson", "--profile", "transient+loss", "--devices", "2", "-o", out]) == 2
    assert main(["chaos", "poisson", "--profile", "hurricane"]) == 2
    assert main(["sanitize", "lbm", "--occ", "warp-speed"]) == 2
    assert main(["chaos", "lbm", "--events", "0"]) == 2
    assert not obs.OBS.active
    with pytest.raises(SystemExit) as exc:  # the one devices check, in the argument type
        main(["trace", "lbm", "--devices", "0"])
    assert exc.value.code == 2

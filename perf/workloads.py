"""The four benchmark workloads, framework side and hand-written native side.

Every workload offers the same small surface to ``child.py``:

``build()``    construct the application(s): domain + skeleton compilation
``freeze()``   freeze every program, so the next call only replays
``reset()``    restore the exact cold field state (public field API only)
``sample()``   the timed unit of work; ``units`` says how many steps /
               iterations / jobs one sample holds, so legs with different
               sample sizes compare per unit
``verify()``   a short solve from cold state -> ``{label: sha256}``; the
               runner compares framework legs with the native leg bitwise
``exact()``    numbers that must repeat exactly (schedule counts, DES time)
``close()``    retire engines and shared-memory arenas

Why these four (see README.md for the full argument):

* ``lbm64x2``   kernel-body bound: fused C kernels over an ~80 MB working
                set; dispatch and host work are negligible.
* ``cg96x2``    NumPy-kernel and allocator bound, two host reductions per
                iteration, no codegen.
* ``cg24x8``    dispatch/copy/event bound: tens-of-microsecond kernels, so
                per-unit interpreter overhead sets the time.
* ``serve_mix`` the serving path: a seeded closed-loop job stream over six
                specs through ``Gateway``; compile beside replay, ``reset()``
                writes beside reads, plus the 2-D and extended-OCC paths.

The seed reaches the program only through generated inputs: the lid
velocity (LBM), the right-hand side (CG), the job order and tenants
(serving).  None of them changes the amount of arithmetic.
"""

from __future__ import annotations

import hashlib
import os
import random
import threading
from time import perf_counter

import numpy as np

WORKLOADS = ("lbm64x2", "cg96x2", "cg24x8", "serve_mix")
CONCURRENT_MODES = ("parallel", "process")
#: workloads whose untraced runs include the concurrent legs.  On cg24x8
#: eight workers share two cores (threads 7x, processes 3x slower than
#: serial, +-13 % run to run) and serve_mix's jobs are serial by spec, so
#: there the concurrent legs run in the traced run only and
#: ``solve_best_s`` is the serial time.
E2E_CONCURRENT = ("lbm64x2", "cg96x2")
#: round-robin passes over the legs in an untraced run, sized so that a run
#: lasts 25-32 s here: a four-leg round costs ~10 s, a serve_mix round ~7 s,
#: a cg24x8 round (children start in 0.7 s) under 4 s
ROUNDS = {"lbm64x2": 3, "cg96x2": 3, "cg24x8": 8, "serve_mix": 4}
#: legs that replay serially through a slower path: registry on, no fusion, no C kernels
SLOW_LEGS = ("traced", "unfused", "nocc")
#: legs that need every CPU; all others are single-threaded and pin themselves
#: to the CPU that is faster when they start (child.py)
UNPINNED_LEGS = (*CONCURRENT_MODES, "gateway")


def digest(arrays: dict) -> str:
    """SHA-256 over named arrays: dtype, shape and every byte."""
    h = hashlib.sha256()
    for key in sorted(arrays):
        a = np.ascontiguousarray(arrays[key])
        h.update(f"{key}:{a.dtype}:{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def schedule_counts(skeletons_per_unit) -> dict:
    """Static per-unit schedule counts summed over ``(skeleton, runs)`` pairs.

    ``Skeleton.record()`` returns the frozen program's ``ScheduleStats``
    without running a kernel, so these are exact and repeat bit for bit.
    """
    out = dict.fromkeys(
        ("compiled_steps", "dispatch_units", "kernel_launches", "copies",
         "event_waits", "kernel_bytes", "copy_bytes", "replays"), 0.0)
    for sk, runs in skeletons_per_unit:
        st = sk.record().stats
        steps = st.num_kernels + st.num_copies
        out["compiled_steps"] += runs * steps
        out["dispatch_units"] += runs * (st.dispatch_units or steps)
        out["kernel_launches"] += runs * st.num_kernels
        out["copies"] += runs * st.num_copies
        out["event_waits"] += runs * st.num_waits
        out["kernel_bytes"] += runs * st.kernel_bytes
        out["copy_bytes"] += runs * st.copy_bytes
        out["replays"] += runs
    return out


# -- lbm64x2 -------------------------------------------------------------------
class LbmCavity:
    """D3Q19 lid-driven cavity, 2 devices, standard OCC, fused + C codegen."""

    unit = "step"
    compiles_c = True  # the traced child must see calls into repro.codegen when cc is there

    def __init__(self, seed: int, smoke: bool, mode: str, slow: bool = False):
        n = 12 if smoke else 64
        self.shape, self.devices, self.mode = (n, n, n), 2, mode
        # even step counts only: the two-population parity then returns to
        # field 0, so reset() needs nothing but the public fill/sync calls.
        # The slow legs run the interpreted kernels (6-8x slower per step);
        # they take shorter samples and are compared per step.
        self.units = 4 if smoke or slow else 12
        self.verify_units = 2
        self.lid_velocity = 0.05 + 0.05 * float(np.random.default_rng(seed).random())

    def build(self) -> None:
        from repro.solvers.lbm import LidDrivenCavity
        from repro.system import Backend

        self.backend = Backend.sim_gpus(self.devices)
        self.app = LidDrivenCavity(self.backend, self.shape, omega=1.0, lid_velocity=self.lid_velocity)
        self.skeletons = list(self.app.skeletons)

    def freeze(self) -> None:
        for sk in self.skeletons:
            sk.record()

    def reset(self) -> None:
        lattice = self.app.lattice
        for fld in self.app.f:
            for q in range(lattice.q):
                fld.fill(1.0 * lattice.weights[q], comp=q)  # rho0 = 1 equilibrium at rest
            fld.sync_halo_now()

    def _step(self, units: int) -> None:
        self.app.step(units, mode=self.mode)

    def sample(self) -> None:
        self._step(self.units)

    def result(self) -> dict:
        return {"f": self.app.current.to_numpy()}

    def verify(self) -> dict:
        self.reset()
        self._step(self.verify_units)
        return {"verify": digest(self.result())}

    def sim_us_per_unit(self) -> float:
        """DES makespan of one step on the backend's machine model (dgx_a100)."""
        return self.app.iteration_makespan() * 1e6

    def exact(self) -> dict:
        out = schedule_counts([(self.skeletons[0], 0.5), (self.skeletons[1], 0.5)])
        out["sim_us_per_unit"] = self.sim_us_per_unit()
        out["solver_iterations"] = float(self.units)
        return out

    def close(self) -> None:
        for sk in self.skeletons:
            sk.close()
        self.backend.close()


class NativeLbm:
    unit = "step"

    def __init__(self, seed: int, smoke: bool):
        fw = LbmCavity(seed, smoke, "serial")
        self.shape, self.lid_velocity = fw.shape, fw.lid_velocity
        self.units = self.verify_units = fw.verify_units

    def build(self) -> None:
        from repro.baselines import NativeCavity

        self.app = NativeCavity(self.shape, omega=1.0, lid_velocity=self.lid_velocity)
        self.cold = self.app.f.copy()

    def reset(self) -> None:
        np.copyto(self.app.f, self.cold)  # in place: a fresh 40 MB array would page-fault for 0.25 s

    def sample(self) -> None:
        self.app.step(self.units)

    def verify(self) -> dict:
        self.reset()
        self.app.step(self.verify_units)
        return {"verify": digest({"f": self.app.f})}


# -- cg96x2 / cg24x8 -----------------------------------------------------------
class PoissonCG:
    """Poisson CG from x = 0 with a seeded right-hand side.

    ``tolerance=1e-30`` is unreachable, so every solve runs exactly
    ``iterations`` iterations; a sample is ``reps`` x [reset; solve].
    """

    unit = "iteration"
    compiles_c = False
    TOLERANCE = 1e-30

    def __init__(self, seed: int, smoke: bool, mode: str, n: int, devices: int, iterations: int, reps: int):
        if smoke:
            n, iterations, reps = max(devices * 2, 12), 4, min(reps, 2)
        self.shape, self.devices, self.mode = (n, n, n), devices, mode
        self.iterations, self.reps = iterations, reps
        self.units = iterations * reps
        self.verify_iterations = 3
        # uniform(0,1) excites every Laplacian eigenmode, so CG sustains
        # full iterations (the manufactured problem converges in two)
        self.rhs = np.random.default_rng(seed).random(self.shape)

    def build(self) -> None:
        from repro.solvers import PoissonSolver
        from repro.system import Backend

        self.backend = Backend.sim_gpus(self.devices)
        self.app = PoissonSolver(self.backend, self.shape)
        rhs = self.rhs
        self.app.set_rhs(lambda z, y, x: rhs[z, y, x])
        self.app.cg.mode = self.mode
        cg = self.app.cg
        self.skeletons = [cg.sk_init, cg.sk_a, cg.sk_b]

    def freeze(self) -> None:
        for sk in self.skeletons:
            sk.record()

    def reset(self) -> None:
        x = self.app.cg.x
        x.fill(0.0)
        x.sync_halo_now()

    def sample(self) -> None:
        for rep in range(self.reps):
            if rep:
                self.reset()
            self.last = self.app.solve(max_iterations=self.iterations, tolerance=self.TOLERANCE)

    def result(self) -> dict:
        return {"solution": self.app.solution(), "residual_norms": np.asarray(self.last.residual_norms)}

    def verify(self) -> dict:
        self.reset()
        self.last = self.app.solve(max_iterations=self.verify_iterations, tolerance=self.TOLERANCE)
        return {"verify": digest(self.result())}

    def sim_us_per_unit(self) -> float:
        return self.app.iteration_makespan() * 1e6

    def exact(self) -> dict:
        init, a, b = self.skeletons
        out = schedule_counts([(init, 1.0 / self.iterations), (a, 1.0), (b, 1.0)])
        out["sim_us_per_unit"] = self.sim_us_per_unit()
        out["solver_iterations"] = float(self.units)
        return out

    def close(self) -> None:
        for sk in self.skeletons:
            sk.close()
        self.backend.close()


class NativePoisson:
    unit = "iteration"

    def __init__(self, seed: int, smoke: bool, n: int, devices: int, iterations: int, reps: int):
        fw = PoissonCG(seed, smoke, "serial", n, devices, iterations, 1)
        self.shape, self.rhs, self.iterations = fw.shape, fw.rhs, fw.iterations
        self.verify_iterations = fw.verify_iterations
        self.reps = 2 if smoke else reps
        self.units = self.iterations * self.reps

    def build(self) -> None:
        from repro.baselines import NativePoissonCG

        self.app = NativePoissonCG(self.shape)
        self.app.set_rhs(self.rhs)

    def reset(self) -> None:
        self.app.u[...] = 0.0

    def sample(self) -> None:
        for rep in range(self.reps):
            if rep:
                self.reset()
            self.app.solve(max_iterations=self.iterations, tolerance=PoissonCG.TOLERANCE)

    def verify(self) -> dict:
        self.reset()
        res = self.app.solve(max_iterations=self.verify_iterations, tolerance=PoissonCG.TOLERANCE)
        return {"verify": digest({"solution": self.app.solution(), "residual_norms": np.asarray(res.residual_norms)})}


# -- serve_mix -----------------------------------------------------------------
#: (weight, experiment, shape, steps, keyword arguments of JobSpec.make)
_SERVE_SPECS = (
    (5, "lbm", (24, 24, 24), 10, dict(devices=4)),
    (2, "lbm", (32, 32, 32), 6, dict(devices=2, omega=1.2)),
    (5, "poisson", (32, 32, 32), 12, dict(devices=2)),
    (2, "poisson", (24, 24, 24), 12, dict(devices=4, occ="extended")),
    (3, "karman", (48, 192), 20, dict(devices=2)),
    (3, "elasticity", (20, 20, 20), 15, dict(devices=2)),
)
_SMOKE_SHAPES = {"lbm": (8, 8, 8), "poisson": (8, 8, 8), "karman": (16, 48), "elasticity": (8, 8, 8)}
TENANTS = ("tenant-a", "tenant-b", "tenant-c")


def serve_specs(smoke: bool) -> list:
    from repro.serving import JobSpec

    specs = []
    for _, exp, shape, steps, kw in _SERVE_SPECS:
        if smoke:
            shape, steps = _SMOKE_SHAPES[exp], min(steps, 4)
        specs.append(JobSpec.make(exp, shape, steps, **kw))
    return specs


def serve_stream(seed: int) -> list[tuple[str, int]]:
    """One pass of the job stream: ``(tenant, spec index)`` in seeded order.

    The composition is fixed (each spec appears ``weight`` times, 20 jobs)
    so every seed does the same arithmetic; the seed decides the order —
    hence which jobs meet a warm worker — and the tenant of each job.
    """
    rng = random.Random(seed)
    jobs = [i for i, spec in enumerate(_SERVE_SPECS) for _ in range(spec[0])]
    rng.shuffle(jobs)
    return [(rng.choice(TENANTS), i) for i in jobs]


def spec_label(spec) -> str:
    return f"{spec.experiment}{'x'.join(map(str, spec.shape))}d{spec.devices}{spec.occ[0]}"


class ServeMix:
    """The seeded stream through ``Gateway`` (``mode`` = ``serial``: one
    worker, one client; ``gateway``: ``nproc`` workers and closed-loop
    clients) or, for ``mode="direct"``, the same jobs as plain
    ``reset()`` + ``run()`` calls with no gateway in between."""

    unit = "job"
    compiles_c = True  # two of the six specs are LBM

    def __init__(self, seed: int, smoke: bool, mode: str):
        self.mode = mode
        self.specs = serve_specs(smoke)
        self.stream = serve_stream(seed)
        self.units = len(self.stream)
        self.workers = (os.cpu_count() or 1) if mode == "gateway" else 1
        self.build_latency: list[float] = []  # direct mode: one build_served() per spec
        self.cold_latency: list[float] = []  # first job (or first direct run) per spec
        self.jobs: list[tuple] = []  # (spec index, submit s, latency s, queue wait s) of timed samples
        self._unchecked: list[tuple] = []  # (spec index, fingerprints) awaiting their digest check
        self.errors = self.mismatches = 0

    def build(self) -> None:
        from repro.serving import Gateway, PlanCache, build_served

        if self.mode == "direct":
            self.apps = []
            for spec in self.specs:
                t0 = perf_counter()
                self.apps.append(build_served(spec))
                self.build_latency.append(perf_counter() - t0)
        else:
            # an empty in-memory cache: six keys < max_programs, so LRU
            # eviction is deliberately not exercised
            self.gateway = Gateway(cache=PlanCache(root=None), workers=self.workers)

    def freeze(self) -> None:
        """Serve (or run) every spec once: compiles and freezes its programs."""
        self.cold, self.iterations = {}, []
        for i, spec in enumerate(self.specs):
            t0 = perf_counter()
            if self.mode == "direct":
                fingerprints = self.apps[i].run()
            else:
                fingerprints = self.gateway.submit(TENANTS[i % len(TENANTS)], spec).result().fingerprints
            self.cold_latency.append(perf_counter() - t0)
            # CG jobs stop at convergence: the residual history says how many iterations ran
            norms = fingerprints.get("residual_norms")
            self.iterations.append(spec.steps if norms is None else len(norms) - 1)
            self.cold[spec_label(spec)] = digest(fingerprints)

    def reset(self) -> None:
        """Between samples: digest the last sample's results and let them go.

        Every job resets its own program, so there is no field state to
        restore here; hashing outside the clock keeps it out of the
        latencies, and dropping the arrays keeps them out of the peak RSS.
        """
        for i, fingerprints in self._unchecked:
            self.mismatches += digest(fingerprints) != self.cold[spec_label(self.specs[i])]
        self._unchecked.clear()

    def _client(self, jobs) -> None:
        from repro.serving import GatewayError

        for tenant, i in jobs:
            t0 = perf_counter()
            try:
                if self.mode == "direct":
                    app = self.apps[i]
                    app.reset()
                    fingerprints, submit_s, queue_s = app.run(), 0.0, 0.0
                else:
                    job = self.gateway.submit(tenant, self.specs[i])
                    submit_s = perf_counter() - t0
                    result = job.result()
                    fingerprints, queue_s = result.fingerprints, result.queue_wait_seconds
            except GatewayError:
                self.errors += 1
                continue
            self.jobs.append((i, submit_s, perf_counter() - t0, queue_s))
            self._unchecked.append((i, fingerprints))

    def sample(self) -> None:
        if self.workers == 1:
            self._client(self.stream)
            return
        clients = [
            threading.Thread(target=self._client, args=(self.stream[k :: self.workers],))
            for k in range(self.workers)
        ]
        for t in clients:
            t.start()
        for t in clients:
            t.join()

    def verify(self) -> dict:
        return dict(self.cold)

    def check_jobs(self) -> tuple[int, int]:
        """(attempted, failed): every job's digest against its spec's first result."""
        self.reset()
        return len(self.jobs) + self.errors, self.mismatches + self.errors

    def programs(self) -> list:
        if self.mode == "direct":
            return self.apps
        from repro.serving import plan_key

        return [self.gateway.cache.peek(plan_key(s, self.gateway.machine_factory(s.devices).name)).program
                for s in self.specs]

    def sim_us_per_unit(self) -> float:
        """Weighted mean of the specs' ``estimate_seconds()`` (DES, whole job)."""
        return sum(w[0] * app.estimate_seconds() for w, app in zip(_SERVE_SPECS, self.programs())) / self.units * 1e6

    def exact(self) -> dict:
        out = dict.fromkeys(schedule_counts([]), 0.0)
        iterations = 0.0
        for (weight, *_), its, app in zip(_SERVE_SPECS, self.iterations, self.programs()):
            share = weight / self.units
            if len(app.skeletons) == 2:  # LBM: the two parity skeletons alternate
                per_job = [(sk, its / 2) for sk in app.skeletons]
            else:  # CG: init once, then A and B per iteration
                init, a, b = app.skeletons
                per_job = [(init, 1), (a, its), (b, its)]
            for key, value in schedule_counts(per_job).items():
                out[key] += share * value
            iterations += weight * its
        out["sim_us_per_unit"] = self.sim_us_per_unit()
        out["solver_iterations"] = float(iterations)
        return out

    def close(self) -> None:
        if self.mode == "direct":
            for app in self.apps:
                app.close()
                app.backend.close()
        else:
            backends = [app.backend for app in self.programs()]
            self.gateway.close()
            for backend in backends:
                backend.close()


class NativeServe:
    """The same 20-job stream on the hand-written baselines.

    Objects are constructed before the clock starts (the counterpart of a
    warm program's ``reset()`` being cheap); only the solves are timed.
    """

    unit = "job"

    def __init__(self, seed: int, smoke: bool):
        self.specs = serve_specs(smoke)
        self.stream = serve_stream(seed)
        self.units = len(self.stream)

    @staticmethod
    def _make(spec):
        from repro import baselines
        from repro.solvers import manufactured_problem

        if spec.experiment == "lbm":
            app = baselines.NativeCavity(spec.shape, omega=float(spec.param("omega", 1.0)), lid_velocity=0.05)
            return app, lambda: app.step(spec.steps) or {"f": app.f}
        if spec.experiment == "karman":
            app = baselines.NativeKarman(spec.shape)
            return app, lambda: app.step(spec.steps) or {"f": app.f}
        if spec.experiment == "poisson":
            app = baselines.NativePoissonCG(spec.shape)
            app.set_rhs(manufactured_problem(spec.shape)[1])
            field = "solution"
            solution = app.solution
        else:
            app = baselines.NativeElasticity(spec.shape[0])
            field = "displacement"
            solution = app.displacement

        def run():
            res = app.solve(max_iterations=spec.steps, tolerance=1e-12)
            return {field: solution(), "residual_norms": np.asarray(res.residual_norms)}

        return app, run

    def build(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.runs = [self._make(self.specs[i])[1] for _, i in self.stream]

    def sample(self) -> None:
        for run in self.runs:
            run()

    def verify(self) -> dict:
        return {spec_label(spec): digest(self._make(spec)[1]()) for spec in self.specs}


# -- registry ------------------------------------------------------------------
_CG_SHAPES = {
    # name: n, devices, iterations, reps of [reset; solve] per sample for the
    # serial, concurrent and native legs (each sample lasts 0.25-0.5 s here)
    "cg96x2": (96, 2, 10, 1, 1, 2),
    # 8 workers on 2 cores measure the OS scheduler: one solve per
    # concurrent sample is plenty for the traced run that wants them
    "cg24x8": (24, 8, 40, 6, 1, 18),
}


def make_workload(name: str, seed: int, smoke: bool, leg: str):
    """The framework side of ``name`` as leg ``leg`` runs it."""
    mode = "serial" if leg in SLOW_LEGS else leg
    if name == "lbm64x2":
        return LbmCavity(seed, smoke, mode, slow=leg in SLOW_LEGS)
    if name == "serve_mix":
        return ServeMix(seed, smoke, mode)
    n, devices, iterations, reps, concurrent_reps, _ = _CG_SHAPES[name]
    return PoissonCG(seed, smoke, mode, n, devices, iterations, concurrent_reps if mode in CONCURRENT_MODES else reps)


def make_native(name: str, seed: int, smoke: bool):
    if name == "lbm64x2":
        return NativeLbm(seed, smoke)
    if name == "serve_mix":
        return NativeServe(seed, smoke)
    n, devices, iterations, *_, native_reps = _CG_SHAPES[name]
    return NativePoisson(seed, smoke, n, devices, iterations, native_reps)

"""Mutation-tested guarantees: no false positives, no escapes.

Two halves of the ISSUE's acceptance bar:

* the sanitizer reports **zero** violations on every unmutated
  experiment across OCC levels and 1/2/4/8 devices (serial and
  parallel replays);
* every confirmed-broken schedule mutant the mutator emits is flagged
  (100% kill), with multiple mutant kinds represented.

The full lbm+poisson x (2,4,8) x all-OCC matrix runs in the CI
sanitize-smoke job via ``python -m repro sanitize``; here a
representative fast slice keeps the default suite quick while still
crossing 20 distinct mutants.
"""

import pytest

from repro.sanitizer import mutation_matrix, sanitize_workload
from repro.skeleton import Occ
from repro.workloads import EXPERIMENTS


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_unmutated_experiments_are_clean_everywhere(name):
    for occ in Occ:
        for devices in (1, 2, 4, 8):
            report = sanitize_workload(name, devices=devices, occ=occ, mode="serial")
            assert report.ok, (
                f"{name} devices={devices} occ={occ.value}: "
                + "; ".join(f"{sk}: {v}" for sk, v in report.violations)
            )
            assert report.commands > 0 and report.log_entries > 0


@pytest.mark.parametrize(
    ("name", "devices", "occ"),
    [
        ("lbm", 4, Occ.STANDARD),
        ("poisson", 2, Occ.TWO_WAY),
        ("karman", 2, Occ.EXTENDED),
    ],
)
def test_unmutated_parallel_replays_are_clean(name, devices, occ):
    report = sanitize_workload(name, devices=devices, occ=occ, mode="parallel")
    assert report.ok, "; ".join(f"{sk}: {v}" for sk, v in report.violations)


def test_mutation_matrix_kills_every_mutant():
    report = mutation_matrix(
        workloads=("poisson",), devices=(2, 4, 8), occs=tuple(Occ), max_per_kind=1
    )
    lbm = mutation_matrix(
        workloads=("lbm",), devices=(2,), occs=(Occ.STANDARD,), max_per_kind=None
    )
    report.rows.extend(lbm.rows)
    assert report.total >= 20
    assert report.killed == report.total, [
        (r.workload, r.devices, r.occ, r.mutant) for r in report.escaped
    ]
    # the matrix must exercise both defect families, not one lucky kind
    assert {"drop-wait", "drop-record", "drop-copy", "truncate-copy"} <= set(report.kinds)
    # every flagged mutant carries at least one concrete finding kind
    assert all(r.finding_kinds for r in report.rows)


def test_single_device_programs_produce_no_copy_mutants():
    report = mutation_matrix(workloads=("poisson",), devices=(1,), occs=(Occ.NONE,), max_per_kind=None)
    assert not any(r.kind in ("drop-copy", "truncate-copy") for r in report.rows)
    assert report.killed == report.total

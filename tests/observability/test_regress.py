"""``report --compare`` label-parity: typed errors, not silent holes.

Regression test for the gate fix: when two bench files disagree on
which result labels exist, ``check_regression`` used to silently skip
the unmatched rows — a comparison that looked green while ignoring a
whole configuration.  It now raises
:class:`~repro.bench.regress.BenchLabelMismatch` (a ``ValueError``, so
the CLI exits 2 with a message instead of a traceback), with no
excusals: there is one schema, so a missing label is always a hole.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.harness import BENCH_SCHEMA
from repro.bench.regress import BenchLabelMismatch, check_regression, compare_docs


def _doc(labels=("lbm-serial",), schema=BENCH_SCHEMA, params=None, wall=1.0):
    return {
        "schema": schema,
        "exp": "lbm",
        "params": dict(params or {}),
        "env": {},
        "results": [
            {"label": lb, "mode": "serial", "wall_clock_s": wall, "mlups": 100.0}
            for lb in labels
        ],
    }


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def test_label_mismatch_raises_typed_error(tmp_path):
    old = _write(tmp_path, "old.json", _doc(labels=("lbm-serial", "lbm-parallel")))
    new = _write(tmp_path, "new.json", _doc(labels=("lbm-serial",)))
    with pytest.raises(BenchLabelMismatch) as exc_info:
        check_regression(old, new)
    err = exc_info.value
    assert isinstance(err, ValueError) and not isinstance(err, KeyError)
    assert err.only_old == {"lbm-parallel"} and err.only_new == frozenset()
    assert "lbm-parallel" in str(err) and "only in the old file" in str(err)

    # symmetric: a label only the *new* file has also fails the parity
    with pytest.raises(BenchLabelMismatch) as exc_info:
        check_regression(new, old)
    assert exc_info.value.only_new == {"lbm-parallel"}


def test_cross_schema_compare_is_refused(tmp_path):
    old = _write(tmp_path, "old.json", _doc(labels=("lbm-serial",), schema="repro-bench/4"))
    new = _write(tmp_path, "new.json", _doc(labels=("lbm-serial",)))
    with pytest.raises(ValueError, match="unknown bench schema 'repro-bench/4'"):
        check_regression(old, new)


def test_compare_docs_itself_remains_lenient():
    """The document-level join keeps skipping unmatched labels — the
    typed parity check is a *file-level* gate in check_regression."""
    a = _doc(labels=("lbm-serial",))
    b = _doc(labels=("lbm-parallel",))
    assert compare_docs(a, b) == []


def test_cli_compare_exits_2_with_message_on_mismatch(tmp_path, capsys):
    from repro.__main__ import main

    old = _write(tmp_path, "old.json", _doc(labels=("lbm-serial", "lbm-parallel")))
    new = _write(tmp_path, "new.json", _doc(labels=("lbm-serial",)))
    rc = main(["report", "--compare", str(old), str(new)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "cannot compare" in captured.err and "lbm-parallel" in captured.err

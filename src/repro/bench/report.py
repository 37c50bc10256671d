"""Result persistence: every bench writes its series to JSON so the
paper-vs-measured tables in EXPERIMENTS.md are regenerable."""

from __future__ import annotations

import json
import pathlib
from typing import Any

RESULTS_DIR = pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "out"


def save_result(name: str, data: Any) -> pathlib.Path:
    """Write one experiment's data as benchmarks/out/<name>.json."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


"""Shared benchmark infrastructure.

Every benchmark regenerates one of the paper's evaluation artifacts
(Table IV, Figs 5-9) or an ablation, prints the series the paper reports,
and archives them under ``benchmarks/results/`` (in quick mode, under a
temporary directory instead: the committed results are full-mode ones).

Environment knobs:

``REPRO_REPLICATES``
    Runs per cell (default 3; the paper used >= 5).
``REPRO_QUICK``
    Set to 1 to shrink sweeps (smoke mode) — grids lose interior points
    but keep their endpoints so shape assertions still apply.
"""

import json
import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def replicates() -> int:
    return int(os.environ.get("REPRO_REPLICATES", "3"))


@pytest.fixture(scope="session")
def quick() -> bool:
    return os.environ.get("REPRO_QUICK", "0") == "1"


@pytest.fixture(scope="session")
def stream_sweep(quick):
    return (4, 8, 12) if quick else (4, 6, 8, 10, 12)


@pytest.fixture(scope="session")
def results_dir(quick, tmp_path_factory) -> pathlib.Path:
    """Where :func:`archive` writes: results/ in full mode only."""
    return tmp_path_factory.mktemp("results") if quick else RESULTS_DIR


@pytest.fixture
def archive(results_dir):
    """Persist a benchmark's series + report text under ``results_dir``."""

    def _archive(name: str, payload: dict, report: str) -> None:
        results_dir.mkdir(exist_ok=True)
        (results_dir / f"{name}.json").write_text(json.dumps(payload, indent=2))
        (results_dir / f"{name}.txt").write_text(report + "\n")
        print()
        print(report)

    return _archive

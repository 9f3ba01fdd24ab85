"""Shared fixtures and reporting for the benchmark harness.

Every benchmark regenerates one table or figure from the paper's
evaluation (see DESIGN.md's per-experiment index), prints it, and
writes it under ``benchmarks/output/`` so EXPERIMENTS.md can cite the
numbers.  The workload scale is controlled by the ``REPRO_SCALE``
environment variable (default 0.01; 1.0 reproduces the full Table 1
trace lengths — slow).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.workloads import dacapo

SCALE = float(os.environ.get("REPRO_SCALE", "0.01"))
OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def scale() -> float:
    return SCALE


@pytest.fixture(scope="session")
def suite():
    """The nine Table-1 benchmarks at the configured scale."""
    return dacapo.load_suite(scale=SCALE)


@pytest.fixture(scope="session")
def report():
    """Print a rendered table and persist it as
    ``benchmarks/output/{name}.txt``."""

    def _report(name: str, text: str) -> None:
        OUTPUT_DIR.mkdir(exist_ok=True)
        (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
        print()
        print(text)

    return _report

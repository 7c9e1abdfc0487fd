"""Fixtures for the benchmark's own tests.

Run them from the repository root with
``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

import pytest
import run

run.pin_environment()  # the same BLAS threads and router as a benchmark run

import workloads  # noqa: E402


def _no_warm_up() -> None:
    return None


@pytest.fixture
def tiny():
    """A two-network workload that runs the full flow in well under a second."""
    return workloads.Workload("tiny", workloads.scale_free(40, 2), workloads.autoncs_flow)


@pytest.fixture
def no_warm_up():
    return _no_warm_up

"""The maze-search engine name, for run headers.

The router has one engine, the python search of
:mod:`repro.physical.routing.maze`.
"""

__all__ = ["resolve_kernel"]


# Kept for benchmarks/e2e/measure.py, which prints the engine in its run header.
def resolve_kernel(choice: str) -> str:
    """The maze-search engine that runs for ``choice``: always ``"python"``."""
    return "python"

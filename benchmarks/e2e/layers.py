"""Per-layer timing by interposition on module globals.

The flow calls its layers through module-level names that Python looks up
at call time (``kmeans(...)`` inside :mod:`repro.clustering.gcp`,
``place(...)`` inside :mod:`repro.core.autoncs`, ...).  Replacing such a
global with a timing wrapper measures every call the flow makes through
it without changing a line under ``src/``.  :data:`TARGETS` is the one
table of those globals and the layer metric each one feeds;
:func:`interposed` installs the wrappers for the duration of a block and
always puts the originals back.

Self time is computed on the clock's own call stack: a wrapper's duration
minus the durations of the wrapped calls made inside it.  The spans of
:mod:`repro.observability` cannot be used for this, because a span names
its parent but does not identify it.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (module, global name, layer metric).  Several globals may feed one
#: metric: both mappers, both placers and the maze search of both routing
#: algorithms.  A layer the table misses shows up as unattributed time.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.autoncs", "iterative_spectral_clustering", "clustering.busy"),
    ("repro.clustering.gcp", "spectral_embedding", "clustering.eigensolve"),
    ("repro.clustering.gcp", "kmeans", "clustering.kmeans"),
    ("repro.core.autoncs", "autoncs_mapping", "mapping.busy"),
    ("repro.core.autoncs", "fullcro_mapping", "mapping.busy"),
    ("repro.core.autoncs", "place", "placement.busy"),
    ("repro.core.autoncs", "anneal_place", "placement.busy"),
    ("repro.physical.placement.placer", "conjugate_gradient", "placement.cg"),
    ("repro.physical.placement.objective", "wa_wirelength_and_grad", "placement.wa"),
    ("repro.physical.placement.objective", "density_value_and_grad", "placement.density"),
    ("repro.physical.placement.placer", "grid_snap", "placement.legalize"),
    ("repro.physical.placement.placer", "compact", "placement.legalize"),
    ("repro.core.autoncs", "route", "routing.busy"),
    ("repro.physical.routing.router", "maze_route", "routing.maze"),
    ("repro.physical.routing.negotiated", "maze_route", "routing.maze"),
    ("repro.core.autoncs", "evaluate_cost", "cost.busy"),
    ("repro.verify.verifier", "check_coverage", "verify.coverage"),
    ("repro.verify.verifier", "check_hardware", "verify.hardware"),
    ("repro.verify.verifier", "check_physical", "verify.physical"),
    ("repro.verify.verifier", "check_functional", "verify.functional"),
)


class LayerClock:
    """Inclusive time, self time and call counts per layer metric.

    Single-threaded by design: the benchmark drives one flow at a time.
    ``span``, when given, is a ``name -> context manager`` factory (such as
    ``Recorder.span``) so every wrapped call also lands in the trace.
    ``timer`` is the clock read at call entry and exit.
    """

    def __init__(
        self, span: Optional[Callable] = None, timer: Callable[[], float] = time.perf_counter
    ) -> None:
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._stack: List[list] = []  # [metric, seconds spent in wrapped children]
        self._span = span
        self._timer = timer

    @contextmanager
    def timing(self, metric: str) -> Iterator[None]:
        """Time one call of ``metric``; nesting is tracked on the stack."""
        frame = [metric, 0.0]
        self._stack.append(frame)
        self.calls[metric] += 1
        start = self._timer()
        try:
            if self._span is None:
                yield
            else:
                with self._span(f"layer.{metric}"):
                    yield
        finally:
            elapsed = self._timer() - start
            self._stack.pop()
            self.self_time[metric] += elapsed - frame[1]
            if self._stack:
                self._stack[-1][1] += elapsed
            # Inclusive time counts only the outermost call of a metric.
            if all(outer[0] != metric for outer in self._stack):
                self.inclusive[metric] += elapsed

    def attributed(self) -> float:
        """Seconds spent inside any wrapped call (the sum of all self times)."""
        return sum(self.self_time.values())


def resolve(targets=TARGETS) -> List[Tuple[object, str, str, Callable]]:
    """Look up every target: ``(module, name, metric, original)``.

    Raises ``LookupError`` naming the target when a module or global no
    longer exists, so a rename under ``src/`` fails loudly.
    """
    resolved = []
    for module_name, attribute, metric in targets:
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            raise LookupError(f"layer target module {module_name} is gone: {exc}") from exc
        original = getattr(module, attribute, None)
        if not callable(original):
            raise LookupError(f"layer target {module_name}.{attribute} is not a callable global")
        resolved.append((module, attribute, metric, original))
    return resolved


def _wrap(original: Callable, metric: str, clock: LayerClock) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with clock.timing(metric):
            return original(*args, **kwargs)

    return wrapper


@contextmanager
def interposed(clock: LayerClock, targets=TARGETS) -> Iterator[LayerClock]:
    """Install timing wrappers on every target for the ``with`` block.

    The originals are restored on exit, including when the block raises.
    """
    installed = []
    try:
        for module, attribute, metric, original in resolve(targets):
            setattr(module, attribute, _wrap(original, metric, clock))
            installed.append((module, attribute, original))
        yield clock
    finally:
        for module, attribute, original in reversed(installed):
            setattr(module, attribute, original)

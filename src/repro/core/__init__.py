"""The AutoNCS pipeline (paper Fig. 2): ISC → mapping → placement → routing.

* :mod:`~repro.core.config` — one configuration object for the whole flow.
* :mod:`~repro.core.autoncs` — the :class:`AutoNCS` driver plus the FullCro
  baseline flow.
* :mod:`~repro.core.report` — design-vs-baseline comparison reports
  (Table 1 rows).
"""

from repro.core.autoncs import AutoNCS, AutoNcsResult, StageError, implement_mapping
from repro.core.config import AutoNcsConfig
from repro.core.report import ComparisonReport, reduction_percent
from repro.core.summary import DesignSummary, summarize_design

__all__ = [
    "AutoNCS",
    "AutoNcsConfig",
    "AutoNcsResult",
    "ComparisonReport",
    "DesignSummary",
    "StageError",
    "implement_mapping",
    "reduction_percent",
    "summarize_design",
]

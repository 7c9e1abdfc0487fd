"""The clustering result shared by MSC / GCP / traversing / ISC: one label per neuron."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np


@dataclass
class ClusteringResult:
    """Output of a clustering run: a partition of ``range(n)`` as a label array.

    Attributes
    ----------
    labels:
        Read-only ``int64`` array, one cluster index per neuron.  On
        construction the clusterer's labels are renumbered to ``0..k-1`` in
        ascending order of value, skipping values no neuron carries, so
        every neuron lies in exactly one non-empty cluster.
    method:
        Human-readable algorithm name ("msc", "gcp", "traversing").
    """

    labels: np.ndarray
    method: str = "msc"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels)
        if labels.ndim != 1 or not np.issubdtype(labels.dtype, np.integer):
            raise ValueError(
                f"labels must be one integer per neuron, got a {labels.dtype} "
                f"array of shape {labels.shape}"
            )
        if labels.size and labels.min() < 0:
            raise ValueError(f"labels must be non-negative, got {labels.min()}")
        labels = np.unique(labels, return_inverse=True)[1].astype(np.int64)
        labels.flags.writeable = False
        self.labels = labels

    @property
    def n(self) -> int:
        """Number of neurons that were clustered."""
        return self.labels.size

    @property
    def k(self) -> int:
        """Number of clusters."""
        return int(self.labels.max()) + 1 if self.labels.size else 0

    def sizes(self) -> List[int]:
        """Cluster sizes in cluster order."""
        return np.bincount(self.labels).tolist()

    def max_size(self) -> int:
        """Size of the largest cluster (0 for an empty result)."""
        return max(self.sizes(), default=0)

    def permutation(self) -> np.ndarray:
        """Neuron order grouping clusters contiguously (for matrix plots)."""
        return np.argsort(self.labels, kind="stable")

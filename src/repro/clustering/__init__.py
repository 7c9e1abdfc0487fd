"""Connection clustering — the algorithmic core of AutoNCS (paper Sec. 3).

* :mod:`~repro.clustering.kmeans` — Lloyd's k-means with explicit centroid
  control (Algorithm 2 manipulates centroids directly).
* :mod:`~repro.clustering.spectral` — modified spectral clustering, MSC
  (Algorithm 1).
* :mod:`~repro.clustering.gcp` — greedy cluster size prediction, GCP
  (Algorithm 2).
* :mod:`~repro.clustering.traversing` — the traversing baseline of Sec. 3.3.
* :mod:`~repro.clustering.preference` — crossbar preference CP (Sec. 3.1).
* :mod:`~repro.clustering.isc` — iterative spectral clustering, ISC
  (Algorithm 3).
* :mod:`~repro.clustering.hierarchical` — tiered (Group-Scissor-style)
  clustering for 50k+ neuron networks.
"""

from repro.clustering.gcp import greedy_cluster_size_prediction
from repro.clustering.hierarchical import (
    DEFAULT_TIER_SIZE,
    cluster_hierarchical,
    coarse_partition,
)
from repro.clustering.isc import (
    IscIterationRecord,
    IscResult,
    iterative_spectral_clustering,
)
from repro.clustering.kmeans import KMeansResult, kmeans, kmeans_plus_plus_centroids
from repro.clustering.modularity import modularity_clustering
from repro.clustering.preference import crossbar_preference, minimum_satisfiable_size
from repro.clustering.result import ClusteringResult
from repro.clustering.spectral import (
    modified_spectral_clustering,
    spectral_embedding,
)
from repro.clustering.traversing import traversing_clustering

__all__ = [
    "ClusteringResult",
    "DEFAULT_TIER_SIZE",
    "IscIterationRecord",
    "IscResult",
    "KMeansResult",
    "cluster_hierarchical",
    "coarse_partition",
    "crossbar_preference",
    "greedy_cluster_size_prediction",
    "iterative_spectral_clustering",
    "kmeans",
    "kmeans_plus_plus_centroids",
    "minimum_satisfiable_size",
    "modified_spectral_clustering",
    "modularity_clustering",
    "spectral_embedding",
    "traversing_clustering",
]

"""Modified spectral clustering, MSC (paper Algorithm 1).

The paper redefines the similarity of classic spectral clustering as the
*number of connections* between neurons: the goal becomes minimizing the
between-cluster connections (the outliers that fall back to discrete
synapses) and maximizing the within-cluster connections (the ones a crossbar
absorbs).

Algorithm 1, verbatim:

1. degree matrix ``D`` with ``d_ii = Σ_j w_ij``;
2. unnormalized Laplacian ``L = D - W``;
3. the ``k`` generalized eigenvectors of ``L u = λ D u`` with the smallest
   eigenvalues (this is the Shi–Malik normalized-cut relaxation [11]);
4. rows of the ``n × k`` eigenvector matrix become points ``y_i``;
5. k-means on the ``y_i``.

Eigensolvers
------------
Two interchangeable solvers compute step 3:

* **dense** — ``scipy.linalg.eigh`` on the full generalized problem.  Exact
  and used whenever ``n <= DENSE_EIGENSOLVER_CUTOFF`` or the *full* basis is
  requested, so the paper-scale testbenches (tb1–tb3, N = 300–500) produce
  bit-identical results to the historical implementation.  When the
  subset driver fails to converge (blocks dominated by isolated neurons,
  whose eigenvalue 0 repeats), the same pencil is re-solved in full with
  the divide-and-conquer driver and its first ``k`` pairs are kept.
* **sparse** — ``scipy.sparse.linalg.eigsh`` on the equivalent normalized
  Laplacian ``L_sym = I − D^{−1/2} W D^{−1/2}``: its spectrum lies in
  ``[0, 2]``, so the *k smallest* eigenpairs are the *k largest* of
  ``2I − L_sym`` — a well-conditioned ``which="LA"`` Lanczos run that never
  builds an ``n × n`` dense array.  Generalized eigenvectors are recovered
  as ``u = D^{−1/2} v`` (automatically ``D``-orthonormal, matching the
  dense convention).  LOBPCG is the fallback when ARPACK fails to converge.

Both solvers span the same eigenspaces; per-vector sign and (for repeated
eigenvalues) basis rotation are not pinned down by either, which is
irrelevant to the k-means step.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy import sparse as sp
from scipy.sparse import linalg as spla
from typing import Optional, Tuple, Union

from repro.clustering.kmeans import kmeans
from repro.clustering.result import ClusteringResult, clusters_from_labels
from repro.networks.connection_matrix import ConnectionMatrix
from repro.utils.rng import RngLike, ensure_rng

#: Degree floor inserted for isolated neurons so that D stays positive
#: definite in the generalized eigenproblem.  Isolated neurons carry no
#: connections, so their cluster membership cannot change any outlier count.
_DEGREE_FLOOR = 1e-9

#: Below (or at) this size the dense generalized ``eigh`` solver is always
#: used — it is exact, fast at this scale, and keeps the tb1–tb3 golden
#: fixtures bit-identical.  Above it, truncated requests go to ARPACK.
DENSE_EIGENSOLVER_CUTOFF = 1024

#: Fixed seed for the LOBPCG fallback's initial block.  Internal so the
#: caller's RNG stream is identical whether or not the fallback triggers.
_LOBPCG_SEED = 0x5CA1AB1E


def _similarity(network) -> Union[np.ndarray, sp.csr_array]:
    """Extract the symmetric similarity the Laplacian is built from.

    Returns a ``csr_array`` for a :class:`ConnectionMatrix` and sparse
    input, a dense ndarray for raw arrays.
    """
    if isinstance(network, ConnectionMatrix):
        return network.similarity()
    if sp.issparse(network):
        matrix = sp.csr_array(network).astype(np.float64)
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"similarity must be square, got shape {matrix.shape}")
        return sp.csr_array(matrix.maximum(matrix.T))
    matrix = np.asarray(network, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"similarity must be square, got shape {matrix.shape}")
    return np.maximum(matrix, matrix.T)


def dense_embedding(
    w: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``k`` smallest pairs of ``L u = λ D u`` for a dense symmetric ``w``.

    Returns ``(eigenvectors, eigenvalues)`` in ascending order; a zero
    degree is floored at ``_DEGREE_FLOOR``.  The placement seed orders
    crossbars with it too.
    """
    degrees = w.sum(axis=1)
    degrees = np.maximum(degrees, _DEGREE_FLOOR)
    laplacian = np.diag(degrees) - w
    # Generalized symmetric-definite problem; scipy returns ascending order.
    try:
        eigenvalues, eigenvectors = scipy.linalg.eigh(
            laplacian, np.diag(degrees), subset_by_index=(0, k - 1)
        )
    except scipy.linalg.LinAlgError:
        # The subset driver ("gvx") can fail to converge on a repeated
        # eigenvalue; "gvd" takes no subset, so solve the whole pencil.
        eigenvalues, eigenvectors = scipy.linalg.eigh(
            laplacian, np.diag(degrees), driver="gvd"
        )
        eigenvalues, eigenvectors = eigenvalues[:k], eigenvectors[:, :k]
    return eigenvectors, eigenvalues


def _sparse_embedding(
    w: sp.csr_array, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Truncated solve of ``L u = λ D u`` via the normalized Laplacian."""
    n = w.shape[0]
    degrees = np.maximum(np.asarray(w.sum(axis=1)).ravel(), _DEGREE_FLOOR)
    d_inv_sqrt = 1.0 / np.sqrt(degrees)
    scaling = sp.dia_array((d_inv_sqrt[None, :], [0]), shape=(n, n))
    normalized = sp.csr_array(scaling @ w @ scaling)
    # shifted = 2I − L_sym = I + D^{−1/2} W D^{−1/2}; its k LARGEST
    # eigenpairs are L_sym's k smallest, and "LA" is the mode Lanczos
    # converges fastest on.
    shifted = sp.csr_array(sp.eye_array(n, format="csr") + normalized)
    v0 = np.full(n, 1.0 / np.sqrt(n))
    try:
        shifted_values, vectors = spla.eigsh(shifted, k=k, which="LA", v0=v0)
    except (spla.ArpackError, RuntimeError):
        lobpcg_rng = np.random.default_rng(_LOBPCG_SEED)
        block = lobpcg_rng.standard_normal((n, k))
        block[:, 0] = v0
        shifted_values, vectors = spla.lobpcg(
            shifted, block, largest=True, maxiter=200, tol=1e-8
        )
    eigenvalues = 2.0 - shifted_values
    order = np.argsort(eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    vectors = vectors[:, order]
    # u = D^{−1/2} v maps L_sym eigenvectors to generalized ones and is
    # automatically D-orthonormal (uᵀ D u = vᵀ v = 1), matching eigh.
    eigenvectors = vectors * d_inv_sqrt[:, None]
    return eigenvectors, eigenvalues


def spectral_embedding(
    network,
    k: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve ``L u = λ D u`` and return eigenvectors sorted ascending.

    Parameters
    ----------
    network:
        A :class:`ConnectionMatrix`, a raw similarity matrix, or a scipy
        sparse similarity.
    k:
        Number of smallest eigenpairs wanted; ``None`` returns the full
        basis (GCP needs all ``n`` eigenvectors, Algorithm 2 line 1).

    Returns
    -------
    (eigenvectors, eigenvalues):
        ``eigenvectors`` has shape ``(n, k)`` with columns in ascending
        eigenvalue order; ``eigenvalues`` has shape ``(k,)``.

    Notes
    -----
    Small problems (``n <= DENSE_EIGENSOLVER_CUTOFF``) and full-basis
    requests always use the exact dense solver; larger truncated requests
    use ARPACK/LOBPCG on the sparse normalized Laplacian and never
    materialize an ``n × n`` dense array when the input is sparse.
    """
    w = _similarity(network)
    n = w.shape[0]
    if k is None:
        k = n
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    # ARPACK needs k < n; full-basis and near-full requests are dense anyway.
    if n <= DENSE_EIGENSOLVER_CUTOFF or k >= n - 1:
        if sp.issparse(w):
            w = w.toarray()
        return dense_embedding(w, k)
    if not sp.issparse(w):
        w = sp.csr_array(w)
    return _sparse_embedding(w, k)


def modified_spectral_clustering(
    network,
    k: int,
    rng: RngLike = None,
    max_kmeans_iterations: int = 100,
) -> ClusteringResult:
    """Run MSC (Algorithm 1): spectral embedding + k-means into ``k`` clusters."""
    rng = ensure_rng(rng)
    w = _similarity(network)
    n = w.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    embedding, _ = spectral_embedding(w, k)
    km = kmeans(embedding, k, max_iterations=max_kmeans_iterations, rng=rng)
    clusters = clusters_from_labels(km.labels)
    return ClusteringResult(
        clusters=clusters,
        n=n,
        method="msc",
        metadata={"requested_k": k, "kmeans_iterations": km.n_iterations},
    )

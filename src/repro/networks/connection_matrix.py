"""Binary connection matrices — the central data structure of AutoNCS.

The paper (Sec. 2.1) represents a neural network by a connection matrix
``W ∈ R^{n×n}`` whose entry ``w_ij`` is 1 when input neuron *i* connects to
output neuron *j* and 0 otherwise ("connection matrix" and "network" are used
interchangeably).  :class:`ConnectionMatrix` wraps such a matrix with the
operations the clustering flow needs:

* counting connections inside / outside the clusters of a label array
  (one integer per neuron, -1 meaning "in no cluster"),
* removing within-cluster connections (building the "remaining network" of
  ISC, Sec. 3.4),
* extracting submatrices for crossbar mapping,
* the symmetric similarity ``max(W, Wᵀ)`` for spectral clustering on
  directed topologies.

Storage
-------
The networks the paper targets are over 99 % sparse (Sec. 2.2), so at every
size the matrix is stored as one canonical ``uint8``
:class:`scipy.sparse.csr_array`: sorted column indices, no explicit zeros,
no duplicates.  Canonical CSR encodes a topology uniquely, so equality
compares the row-major edge lists and :meth:`~ConnectionMatrix.digest`
hashes them (the runtime cache and the service dedup layer key on it).
Every count is an integer sum over the edges.

Construction goes through :meth:`~ConnectionMatrix.from_dense`,
:meth:`~ConnectionMatrix.from_sparse` and
:meth:`~ConnectionMatrix.from_edges`.  :attr:`~ConnectionMatrix.matrix`
materializes the dense array for rendering;
:meth:`~ConnectionMatrix.adjacency` and :meth:`~ConnectionMatrix.similarity`
are the CSR forms the clustering code builds Laplacians from and the
simulator reads weights from.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse as sp

from repro.utils.validation import check_binary_matrix, check_square


def _canonical_csr(matrix) -> sp.csr_array:
    """Canonical ``uint8`` CSR of an array or sparse matrix: sorted, no zeros/dupes."""
    matrix = sp.csr_array(matrix)
    matrix.sum_duplicates()
    matrix.eliminate_zeros()
    matrix.sort_indices()
    # Any duplicate summation or non-binary input must still be 0/1.
    if matrix.nnz and not np.all(matrix.data == 1):
        bad = np.unique(matrix.data[matrix.data != 1])[:8]
        raise ValueError(f"matrix must contain only 0/1 entries, found values {bad}")
    return matrix.astype(np.uint8)


class ConnectionMatrix:
    """An immutable-by-convention binary ``n × n`` connection matrix.

    Build one with the explicit constructors :meth:`from_dense`,
    :meth:`from_sparse` or :meth:`from_edges`.
    """

    # Constructed via classmethods; these annotations document the state.
    _sparse: sp.csr_array
    name: str

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def _build(cls, sparse: sp.csr_array, name: str = "network") -> "ConnectionMatrix":
        """Internal trusted constructor — ``sparse`` must already be canonical."""
        self = cls.__new__(cls)
        self._sparse = sparse
        self.name = str(name)
        return self

    @classmethod
    def from_dense(
        cls,
        matrix: Union[np.ndarray, Sequence[Sequence[int]]],
        name: str = "network",
    ) -> "ConnectionMatrix":
        """Build from a square 0/1 array-like."""
        matrix = np.asarray(matrix)
        check_square("matrix", matrix)
        check_binary_matrix("matrix", matrix)
        return cls._build(_canonical_csr(matrix.astype(np.uint8)), name=name)

    @classmethod
    def from_sparse(cls, matrix, name: str = "network") -> "ConnectionMatrix":
        """Build from any scipy sparse matrix/array of 0/1 entries."""
        if not sp.issparse(matrix):
            raise TypeError(
                f"from_sparse expects a scipy sparse matrix, got "
                f"{type(matrix).__name__} (use from_dense for arrays)"
            )
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError(
                f"matrix must be a square 2-D matrix, got shape {matrix.shape}"
            )
        return cls._build(_canonical_csr(matrix), name=name)

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Union[Iterable[Tuple[int, int]], np.ndarray, Tuple[np.ndarray, np.ndarray]],
        name: str = "network",
    ) -> "ConnectionMatrix":
        """Build from ``(i, j)`` connection pairs (duplicates collapse to 1).

        ``edges`` may be an iterable of pairs, an ``(m, 2)`` array, or a
        ``(rows, cols)`` tuple of index arrays.
        """
        n = int(n)
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if isinstance(edges, tuple) and len(edges) == 2 and not np.isscalar(edges[0]):
            rows = np.asarray(edges[0], dtype=np.int64).ravel()
            cols = np.asarray(edges[1], dtype=np.int64).ravel()
        else:
            pairs = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
            if pairs.size == 0:
                pairs = pairs.reshape(0, 2)
            if pairs.ndim != 2 or pairs.shape[1] != 2:
                raise ValueError(
                    f"edges must be (i, j) pairs, got an array of shape {pairs.shape}"
                )
            rows = pairs[:, 0].astype(np.int64)
            cols = pairs[:, 1].astype(np.int64)
        if rows.shape != cols.shape:
            raise ValueError("rows and cols must have the same length")
        if rows.size and (
            rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n
        ):
            raise IndexError(f"edge endpoints must lie in [0, {n})")
        data = np.ones(rows.size, dtype=np.int64)
        matrix = sp.csr_array(sp.coo_array((data, (rows, cols)), shape=(n, n)))
        matrix.data[:] = 1  # COO → CSR summed repeated pairs; each is one connection
        return cls._build(_canonical_csr(matrix), name=name)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def matrix(self) -> np.ndarray:
        """A read-only dense ``uint8`` copy of the 0/1 matrix.

        This **materializes** the full ``n × n`` array — fine for rendering
        small networks, ruinous at 100k neurons.
        Scale-sensitive code should use :meth:`connection_arrays`,
        :meth:`submatrix` or :meth:`adjacency` instead.
        """
        view = self._sparse.toarray()
        view.flags.writeable = False
        return view

    def adjacency(self, dtype=np.float64) -> sp.csr_array:
        """A CSR copy of the adjacency cast to ``dtype``.

        The scale-safe accessor for consumers that only need matrix
        products (Laplacians, indicator contractions).
        """
        return self._sparse.astype(dtype)

    @property
    def size(self) -> int:
        """Number of neurons ``n``."""
        return self._sparse.shape[0]

    @property
    def num_connections(self) -> int:
        """Total number of 1-entries (synapses) in the network."""
        return int(self._sparse.nnz)

    @property
    def sparsity(self) -> float:
        """``1 - connections / n²`` — the paper's sparsity definition (Sec. 2.2)."""
        n = self.size
        if n == 0:
            return 1.0
        return 1.0 - self.num_connections / float(n * n)

    @property
    def density(self) -> float:
        """``connections / n²`` — the complement of :attr:`sparsity`."""
        return 1.0 - self.sparsity

    def connection_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, cols)`` index arrays of all connections, row-major order.

        The sparse-first primitive: O(connections), never materializes the
        dense matrix.
        """
        coo = self._sparse.tocoo()  # canonical CSR → row-major, sorted cols
        return coo.row.astype(np.int64), coo.col.astype(np.int64)

    def out_degrees(self) -> np.ndarray:
        """Per-neuron fanout (row sums) as ``int64``."""
        return np.asarray(self._sparse.sum(axis=1)).ravel().astype(np.int64)

    def in_degrees(self) -> np.ndarray:
        """Per-neuron fanin (column sums) as ``int64``."""
        return np.asarray(self._sparse.sum(axis=0)).ravel().astype(np.int64)

    def digest(self) -> str:
        """A stable SHA-256 content hash of the topology.

        Two networks with the same connection matrix share a digest
        regardless of their :attr:`name`; the digest is stable across
        processes and sessions, so it can key on-disk caches (see
        :mod:`repro.runtime.cache`).  Computed from the canonical edge
        list — O(connections), never densifies.
        """
        rows, cols = self.connection_arrays()
        h = hashlib.sha256()
        h.update(f"connection-matrix:{self.size}:{rows.size}:".encode("ascii"))
        h.update(np.ascontiguousarray(rows, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(cols, dtype="<i8").tobytes())
        return h.hexdigest()

    def is_symmetric(self) -> bool:
        """True when the topology is undirected (``W == Wᵀ``)."""
        return (self._sparse != self._sparse.T).nnz == 0

    def copy(self, name: Optional[str] = None) -> "ConnectionMatrix":
        """Return an independent copy, optionally renamed."""
        return ConnectionMatrix._build(
            self._sparse.copy(), name=self.name if name is None else name
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConnectionMatrix):
            return NotImplemented
        if self.size != other.size:
            return False
        mine = self.connection_arrays()
        theirs = other.connection_arrays()
        return np.array_equal(mine[0], theirs[0]) and np.array_equal(mine[1], theirs[1])

    def __hash__(self) -> int:  # pragma: no cover - identity hashing only
        return id(self)

    def __repr__(self) -> str:
        return (
            f"ConnectionMatrix(name={self.name!r}, n={self.size}, "
            f"connections={self.num_connections}, sparsity={self.sparsity:.4f})"
        )

    # ------------------------------------------------------------------
    # Cluster-oriented operations
    # ------------------------------------------------------------------
    def similarity(self) -> sp.csr_array:
        """``max(W, Wᵀ)`` as a float ``csr_array`` with sorted indices.

        Spectral clustering requires an undirected similarity; for directed
        topologies a connection in either direction makes the pair similar.
        """
        m = self._sparse.astype(np.float64)
        sym = m.maximum(m.T)
        sym = sp.csr_array(sym)
        sym.sort_indices()
        return sym

    def submatrix(
        self, rows: Sequence[int], cols: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Extract the block ``W[rows, cols]`` (``cols`` defaults to ``rows``).

        Returns a dense ``uint8`` block — callers request cluster- or
        crossbar-sized windows, which stay small even on huge networks.
        """
        rows = np.asarray(list(rows), dtype=int)
        cols = rows if cols is None else np.asarray(list(cols), dtype=int)
        self._check_indices(rows)
        self._check_indices(cols)
        if rows.size == 0 or cols.size == 0:
            return np.zeros((rows.size, cols.size), dtype=np.uint8)
        return self._sparse[rows][:, cols].toarray()

    def within_clusters(self, labels) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All connections and which of them lie inside a cluster.

        Returns ``(rows, cols, within)``: the :meth:`connection_arrays` in
        row-major order and the mask of the connections whose endpoints carry
        the same label ``>= 0``.  This is the one within-cluster edge test;
        ``labels`` holds one integer per neuron, -1 meaning "in no cluster".
        """
        try:
            labels = np.asarray(labels)
        except ValueError:  # a ragged sequence, such as a list of member lists
            raise ValueError("labels must be one integer per neuron") from None
        if labels.shape != (self.size,) or not np.issubdtype(labels.dtype, np.integer):
            raise ValueError(
                f"labels must be one integer per neuron ({self.size}), got a "
                f"{labels.dtype} array of shape {labels.shape}"
            )
        if labels.size and labels.min() < -1:
            raise ValueError(f"labels must be >= -1 (-1: in no cluster), got {labels.min()}")
        rows, cols = self.connection_arrays()
        return rows, cols, (labels[rows] >= 0) & (labels[rows] == labels[cols])

    def connections_within_many(self, labels) -> np.ndarray:
        """Within-cluster connection counts, indexed by label.

        Entry ``c`` is the crossbar-utilized-connection count *m* of
        Sec. 3.1 for the neurons labelled ``c``; one O(connections) pass
        serves every cluster, as the ISC scoring loop needs each iteration.
        """
        rows, _, within = self.within_clusters(labels)
        labels = np.asarray(labels)
        k = int(labels.max()) + 1 if labels.size else 0
        return np.bincount(labels[rows[within]], minlength=k)

    def outlier_ratio(self, labels) -> float:
        """Fraction of connections outside every cluster — the paper's *outliers*.

        0 when the network has no connections.
        """
        _, _, within = self.within_clusters(labels)
        total = self.num_connections
        if total == 0:
            return 0.0
        return (total - int(np.count_nonzero(within))) / total

    def remove_clusters(self, labels) -> "ConnectionMatrix":
        """Return a new network with every within-cluster connection deleted.

        ISC (Algorithm 3, line 12) calls this once per iteration with the
        clusters it realized labelled and every other neuron at -1.
        """
        rows, cols, within = self.within_clusters(labels)
        return ConnectionMatrix.from_edges(
            self.size, (rows[~within], cols[~within]), name=self.name
        )

    def permuted(self, order: Sequence[int]) -> "ConnectionMatrix":
        """Reorder neurons by ``order`` (used to draw clustered matrices)."""
        idx = np.asarray(list(order), dtype=int)
        if sorted(idx.tolist()) != list(range(self.size)):
            raise ValueError("order must be a permutation of range(n)")
        # result[a, b] = W[order[a], order[b]]  ⇒  edge (i, j) lands at
        # (inverse[i], inverse[j]).
        inverse = np.empty(self.size, dtype=np.int64)
        inverse[idx] = np.arange(self.size, dtype=np.int64)
        rows, cols = self.connection_arrays()
        return ConnectionMatrix.from_edges(
            self.size, (inverse[rows], inverse[cols]), name=self.name
        )

    # ------------------------------------------------------------------
    def _check_indices(self, idx: np.ndarray) -> None:
        if idx.size and (idx.min() < 0 or idx.max() >= self.size):
            raise IndexError(
                f"neuron indices must lie in [0, {self.size}), got range "
                f"[{idx.min()}, {idx.max()}]"
            )

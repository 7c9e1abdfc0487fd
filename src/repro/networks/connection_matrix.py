"""Binary connection matrices — the central data structure of AutoNCS.

The paper (Sec. 2.1) represents a neural network by a connection matrix
``W ∈ R^{n×n}`` whose entry ``w_ij`` is 1 when input neuron *i* connects to
output neuron *j* and 0 otherwise ("connection matrix" and "network" are used
interchangeably).  :class:`ConnectionMatrix` wraps such a matrix with the
operations the clustering flow needs:

* counting connections inside / outside a set of clusters,
* removing within-cluster connections (building the "remaining network" of
  ISC, Sec. 3.4),
* extracting submatrices for crossbar mapping,
* symmetrization for spectral clustering on directed topologies.

Backends
--------
The matrix is stored in one of two interchangeable backends:

``dense``
    A ``uint8`` :class:`numpy.ndarray` — exact, cache-friendly, and the
    representation every small-network code path has always used.
``sparse``
    A canonical ``uint8`` :class:`scipy.sparse.csr_array` (sorted
    indices, no explicit zeros or duplicates) — the only representation
    that scales to the 50k–100k-neuron networks the Group-Scissor-style
    tiered clustering targets, where a dense ``n × n`` array would not
    even fit in memory.

Construction goes through the explicit classmethods
:meth:`~ConnectionMatrix.from_dense`, :meth:`~ConnectionMatrix.from_sparse`
and :meth:`~ConnectionMatrix.from_edges`; each accepts
``backend="auto"|"dense"|"sparse"``.  The ``auto`` rule (documented in
DESIGN.md) keeps small networks dense — so the paper-scale flows and the
tb1–tb3 goldens are bit-identical to the historical dense-only class —
and flips to sparse when the network is large or large-and-sparse:

* ``n >= SPARSE_MIN_SIZE`` (always sparse), or
* ``n >= SPARSE_DENSITY_SIZE`` and density ``<= SPARSE_MAX_DENSITY``.

Every operation is backend-agnostic and returns a result in the same
backend family; :meth:`~ConnectionMatrix.digest` hashes the canonical
edge list, so the two backends of the same topology share a digest (the
runtime cache and the service dedup layer key on it).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse as sp

from repro.utils.validation import check_binary_matrix, check_square

#: Networks at least this large always take the sparse backend.
SPARSE_MIN_SIZE = 4096

#: Networks at least this large take the sparse backend when sparse enough.
SPARSE_DENSITY_SIZE = 1024

#: Density at or below which a ``SPARSE_DENSITY_SIZE``-sized network is sparse.
SPARSE_MAX_DENSITY = 0.05

#: Valid ``backend=`` arguments of the constructors.
BACKENDS = ("auto", "dense", "sparse")


def select_backend(n: int, num_connections: int) -> str:
    """The ``auto`` backend rule: ``"dense"`` or ``"sparse"`` for a topology.

    Small networks stay dense (bit-identical to the historical dense-only
    implementation); large networks — or moderately large ones whose
    density is at most :data:`SPARSE_MAX_DENSITY` — go sparse.
    """
    if n >= SPARSE_MIN_SIZE:
        return "sparse"
    if n >= SPARSE_DENSITY_SIZE and num_connections <= SPARSE_MAX_DENSITY * n * n:
        return "sparse"
    return "dense"


def _check_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    return backend


def _canonical_csr(matrix: sp.csr_array) -> sp.csr_array:
    """Canonicalize a CSR matrix: uint8, sorted indices, no zeros/dupes."""
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
    _dense: Optional[np.ndarray]
    _sparse: Optional[sp.csr_array]
    name: str

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def _build(
        cls,
        *,
        dense: Optional[np.ndarray] = None,
        sparse: Optional[sp.csr_array] = None,
        name: str = "network",
    ) -> "ConnectionMatrix":
        """Internal trusted constructor — exactly one backend payload."""
        self = cls.__new__(cls)
        self._dense = dense
        self._sparse = sparse
        self.name = str(name)
        return self

    @classmethod
    def from_dense(
        cls,
        matrix: Union[np.ndarray, Sequence[Sequence[int]]],
        name: str = "network",
        backend: str = "auto",
    ) -> "ConnectionMatrix":
        """Build from a square 0/1 array-like (copied, stored as ``uint8``)."""
        _check_backend(backend)
        matrix = np.asarray(matrix)
        check_square("matrix", matrix)
        check_binary_matrix("matrix", matrix)
        dense = matrix.astype(np.uint8, copy=True)
        if backend == "auto":
            backend = select_backend(dense.shape[0], int(np.count_nonzero(dense)))
        if backend == "dense":
            return cls._build(dense=dense, name=name)
        return cls._build(sparse=_canonical_csr(sp.csr_array(dense)), name=name)

    @classmethod
    def from_sparse(
        cls,
        matrix,
        name: str = "network",
        backend: str = "auto",
    ) -> "ConnectionMatrix":
        """Build from any scipy sparse matrix/array of 0/1 entries."""
        _check_backend(backend)
        if not sp.issparse(matrix):
            raise TypeError(
                f"from_sparse expects a scipy sparse matrix, got "
                f"{type(matrix).__name__} (use from_dense for arrays)"
            )
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError(
                f"matrix must be a square 2-D matrix, got shape {matrix.shape}"
            )
        canonical = _canonical_csr(sp.csr_array(matrix))
        if backend == "auto":
            backend = select_backend(canonical.shape[0], int(canonical.nnz))
        if backend == "sparse":
            return cls._build(sparse=canonical, name=name)
        return cls._build(dense=canonical.toarray(), name=name)

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Union[Iterable[Tuple[int, int]], np.ndarray, Tuple[np.ndarray, np.ndarray]],
        name: str = "network",
        backend: str = "auto",
    ) -> "ConnectionMatrix":
        """Build from ``(i, j)`` connection pairs (duplicates collapse to 1).

        ``edges`` may be an iterable of pairs, an ``(m, 2)`` array, or a
        ``(rows, cols)`` tuple of index arrays.
        """
        _check_backend(backend)
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
        data = np.ones(rows.size, dtype=np.uint8)
        canonical = _canonical_csr(
            sp.csr_array(sp.coo_array((data, (rows, cols)), shape=(n, n)))
        )
        if backend == "auto":
            backend = select_backend(n, int(canonical.nnz))
        if backend == "sparse":
            return cls._build(sparse=canonical, name=name)
        return cls._build(dense=canonical.toarray(), name=name)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """The storage backend: ``"dense"`` or ``"sparse"``."""
        return "dense" if self._dense is not None else "sparse"

    @property
    def matrix(self) -> np.ndarray:
        """A read-only dense view of the 0/1 matrix.

        On the sparse backend this **materializes** the full ``n × n``
        array — fine for rendering or simulating small networks, ruinous
        at 100k neurons.  Scale-sensitive code should use
        :meth:`connection_arrays`, :meth:`submatrix` or :meth:`adjacency`
        instead.
        """
        if self._dense is not None:
            view = self._dense.view()
        else:
            view = self._sparse.toarray()
        view.flags.writeable = False
        return view

    def to_dense(self) -> np.ndarray:
        """A writable dense ``uint8`` copy of the matrix."""
        if self._dense is not None:
            return self._dense.copy()
        return self._sparse.toarray()

    def to_sparse(self) -> sp.csr_array:
        """A canonical ``csr_array`` copy of the matrix."""
        if self._sparse is not None:
            return self._sparse.copy()
        return _canonical_csr(sp.csr_array(self._dense))

    def adjacency(self, dtype=np.float64):
        """The adjacency in its backend-native form (ndarray or csr_array).

        This is the scale-safe accessor: sparse-backed networks return a
        CSR copy, dense ones an ndarray copy, both cast to ``dtype``.
        Consumers that only need matrix products (Laplacians, indicator
        contractions) stay backend-agnostic by operating on this.
        """
        if self._dense is not None:
            return self._dense.astype(dtype, copy=True)
        return self._sparse.astype(dtype)

    def with_backend(self, backend: str) -> "ConnectionMatrix":
        """This network stored in ``backend`` (same object semantics, copied)."""
        _check_backend(backend)
        if backend == "auto":
            backend = select_backend(self.size, self.num_connections)
        if backend == self.backend:
            return self.copy()
        if backend == "dense":
            return ConnectionMatrix._build(dense=self.to_dense(), name=self.name)
        return ConnectionMatrix._build(sparse=self.to_sparse(), name=self.name)

    @property
    def size(self) -> int:
        """Number of neurons ``n``."""
        store = self._dense if self._dense is not None else self._sparse
        return store.shape[0]

    @property
    def num_connections(self) -> int:
        """Total number of 1-entries (synapses) in the network."""
        if self._dense is not None:
            return int(self._dense.sum())
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

        The sparse-first primitive: O(connections) on both backends, never
        materializes the dense matrix.
        """
        if self._dense is not None:
            rows, cols = np.nonzero(self._dense)
            return rows.astype(np.int64), cols.astype(np.int64)
        coo = self._sparse.tocoo()  # canonical CSR → row-major, sorted cols
        return coo.row.astype(np.int64), coo.col.astype(np.int64)

    def out_degrees(self) -> np.ndarray:
        """Per-neuron fanout (row sums) as ``int64``."""
        if self._dense is not None:
            return self._dense.sum(axis=1, dtype=np.int64)
        return np.asarray(self._sparse.sum(axis=1)).ravel().astype(np.int64)

    def in_degrees(self) -> np.ndarray:
        """Per-neuron fanin (column sums) as ``int64``."""
        if self._dense is not None:
            return self._dense.sum(axis=0, dtype=np.int64)
        return np.asarray(self._sparse.sum(axis=0)).ravel().astype(np.int64)

    def digest(self) -> str:
        """A stable SHA-256 content hash of the topology.

        Two networks with the same connection matrix share a digest
        regardless of their :attr:`name` **or storage backend**; the
        digest is stable across processes and sessions, so it can key
        on-disk caches (see :mod:`repro.runtime.cache`).  Computed from
        the canonical edge list — O(connections), never densifies.
        """
        rows, cols = self.connection_arrays()
        h = hashlib.sha256()
        h.update(f"connection-matrix:{self.size}:{rows.size}:".encode("ascii"))
        h.update(np.ascontiguousarray(rows, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(cols, dtype="<i8").tobytes())
        return h.hexdigest()

    def is_symmetric(self) -> bool:
        """True when the topology is undirected (``W == Wᵀ``)."""
        if self._dense is not None:
            return bool(np.array_equal(self._dense, self._dense.T))
        return (self._sparse != self._sparse.T).nnz == 0

    def copy(self, name: Optional[str] = None) -> "ConnectionMatrix":
        """Return an independent copy, optionally renamed."""
        return ConnectionMatrix._build(
            dense=None if self._dense is None else self._dense.copy(),
            sparse=None if self._sparse is None else self._sparse.copy(),
            name=self.name if name is None else name,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConnectionMatrix):
            return NotImplemented
        if self.size != other.size:
            return False
        if self._dense is not None and other._dense is not None:
            return np.array_equal(self._dense, other._dense)
        mine = self.connection_arrays()
        theirs = other.connection_arrays()
        return np.array_equal(mine[0], theirs[0]) and np.array_equal(mine[1], theirs[1])

    def __hash__(self) -> int:  # pragma: no cover - identity hashing only
        return id(self)

    def __repr__(self) -> str:
        return (
            f"ConnectionMatrix(name={self.name!r}, n={self.size}, "
            f"connections={self.num_connections}, sparsity={self.sparsity:.4f}, "
            f"backend={self.backend!r})"
        )

    # ------------------------------------------------------------------
    # Cluster-oriented operations
    # ------------------------------------------------------------------
    def symmetrized(self) -> np.ndarray:
        """Return ``max(W, Wᵀ)`` as a **dense** float array.

        Spectral clustering requires an undirected similarity; for directed
        topologies a connection in either direction makes the pair similar.
        Kept for the small-network code paths; scale-sensitive consumers
        use :meth:`similarity`, which never densifies a sparse backend.
        """
        if self._dense is not None:
            m = self._dense
            return np.maximum(m, m.T).astype(float)
        return self.similarity().toarray()

    def similarity(self):
        """``max(W, Wᵀ)`` as float in the backend-native form.

        Dense backends return an ndarray (bit-identical to
        :meth:`symmetrized`); sparse backends return a ``csr_array``.
        """
        if self._dense is not None:
            m = self._dense
            return np.maximum(m, m.T).astype(float)
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
        if self._dense is not None:
            return self._dense[np.ix_(rows, cols)].copy()
        if rows.size == 0 or cols.size == 0:
            return np.zeros((rows.size, cols.size), dtype=np.uint8)
        return self._sparse[rows][:, cols].toarray()

    def _membership(self, cluster: Sequence[int]) -> np.ndarray:
        idx = np.asarray(list(cluster), dtype=int)
        self._check_indices(idx)
        return idx

    def connections_within(self, cluster: Sequence[int]) -> int:
        """Number of connections with both endpoints inside ``cluster``.

        This is the crossbar-utilized-connection count *m* of Sec. 3.1 for a
        cluster mapped to a crossbar.
        """
        idx = self._membership(cluster)
        if idx.size == 0:
            return 0
        if self._dense is not None:
            return int(self._dense[np.ix_(idx, idx)].sum())
        rows, cols = self.connection_arrays()
        mask = np.zeros(self.size, dtype=bool)
        mask[idx] = True
        return int(np.count_nonzero(mask[rows] & mask[cols]))

    def connections_within_many(
        self, clusters: Sequence[Sequence[int]]
    ) -> np.ndarray:
        """Within-cluster connection counts for many **disjoint** clusters.

        One O(connections) pass instead of one scan per cluster — the
        primitive the ISC scoring loop runs every iteration.  Returns an
        ``int64`` array aligned with ``clusters``.
        """
        label = np.full(self.size, -1, dtype=np.int64)
        for position, cluster in enumerate(clusters):
            idx = self._membership(cluster)
            if np.any(label[idx] != -1):
                raise ValueError("clusters must be disjoint")
            label[idx] = position
        counts = np.zeros(len(clusters), dtype=np.int64)
        if not len(clusters):
            return counts
        rows, cols = self.connection_arrays()
        if rows.size == 0:
            return counts
        within = (label[rows] >= 0) & (label[rows] == label[cols])
        counts += np.bincount(label[rows][within], minlength=len(clusters))
        return counts

    def connections_within_clusters(self, clusters: Iterable[Sequence[int]]) -> int:
        """Total within-cluster connections over a disjoint cluster list."""
        return int(self.connections_within_many(list(clusters)).sum())

    def outlier_count(self, clusters: Iterable[Sequence[int]]) -> int:
        """Connections not covered by any cluster — the paper's *outliers*."""
        return self.num_connections - self.connections_within_clusters(clusters)

    def outlier_ratio(self, clusters: Iterable[Sequence[int]]) -> float:
        """Fraction of connections that are outliers (0 when the net is empty)."""
        total = self.num_connections
        if total == 0:
            return 0.0
        return self.outlier_count(clusters) / total

    def remove_cluster(self, cluster: Sequence[int]) -> "ConnectionMatrix":
        """Return a new network with within-``cluster`` connections deleted.

        Used by ISC (Algorithm 3, line 12) to build the remaining network
        after a cluster has been realized on a crossbar.
        """
        return self.remove_clusters([cluster])

    def remove_clusters(self, clusters: Iterable[Sequence[int]]) -> "ConnectionMatrix":
        """Delete within-cluster connections for every cluster in one pass."""
        clusters = list(clusters)
        if self._dense is not None:
            result = self._dense.copy()
            for cluster in clusters:
                idx = self._membership(cluster)
                if idx.size:
                    result[np.ix_(idx, idx)] = 0
            return ConnectionMatrix._build(dense=result, name=self.name)
        label = np.full(self.size, -1, dtype=np.int64)
        for position, cluster in enumerate(clusters):
            idx = self._membership(cluster)
            label[idx] = position
        rows, cols = self.connection_arrays()
        keep = ~((label[rows] >= 0) & (label[rows] == label[cols]))
        return ConnectionMatrix.from_edges(
            self.size, (rows[keep], cols[keep]), name=self.name, backend="sparse"
        )

    def connection_list(self) -> List[Tuple[int, int]]:
        """All ``(i, j)`` pairs with ``w_ij == 1`` in row-major order."""
        rows, cols = self.connection_arrays()
        return list(zip(rows.tolist(), cols.tolist()))

    def permuted(self, order: Sequence[int]) -> "ConnectionMatrix":
        """Reorder neurons by ``order`` (used to draw clustered matrices)."""
        idx = np.asarray(list(order), dtype=int)
        if sorted(idx.tolist()) != list(range(self.size)):
            raise ValueError("order must be a permutation of range(n)")
        if self._dense is not None:
            return ConnectionMatrix._build(
                dense=self._dense[np.ix_(idx, idx)], name=self.name
            )
        # result[a, b] = W[order[a], order[b]]  ⇒  edge (i, j) lands at
        # (inverse[i], inverse[j]).
        inverse = np.empty(self.size, dtype=np.int64)
        inverse[idx] = np.arange(self.size, dtype=np.int64)
        rows, cols = self.connection_arrays()
        return ConnectionMatrix.from_edges(
            self.size, (inverse[rows], inverse[cols]), name=self.name, backend="sparse"
        )

    # ------------------------------------------------------------------
    def _check_indices(self, idx: np.ndarray) -> None:
        if idx.size and (idx.min() < 0 or idx.max() >= self.size):
            raise IndexError(
                f"neuron indices must lie in [0, {self.size}), got range "
                f"[{idx.min()}, {idx.max()}]"
            )

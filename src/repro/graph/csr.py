"""Compressed sparse row (CSR) graph representation.

This is the data-graph substrate FlexMiner operates on (paper §VII-A):
symmetric graphs without self loops or duplicate edges, stored in CSR with
each neighbor list sorted by ascending vertex id.  Sorted adjacency is what
makes the merge-based SIU/SDU set operations (paper Fig. 9) and the binary
search connectivity check possible.

The same class also represents *directed* graphs, which is how the k-clique
orientation optimization (paper §V-C) stores the DAG version of a data
graph.
"""

from __future__ import annotations

from typing import (
    Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from ..errors import GraphFormatError

__all__ = [
    "ARC_MAP_MAX_BYTES",
    "CSRGraph",
    "SharedCSRBuffers",
    "attach_array",
    "attach_shared_csr",
    "expand_segments",
    "share_array",
    "worker_context",
]

_INDEX_DTYPE = np.int64
_VERTEX_DTYPE = np.int32
#: One past the largest vertex id ``_VERTEX_DTYPE`` holds.
_MAX_VERTICES = int(np.iinfo(_VERTEX_DTYPE).max) + 1

#: Largest :meth:`CSRGraph.arc_map` a graph will build, in bytes (one
#: ``bool`` per ordered vertex pair, so ``num_vertices <= 4096``).
#: Past it the map is ``None`` and callers fall back to merging sorted
#: neighbor lists — the software shape of the paper's c-map overflow
#: -> SIU/SDU fallback, selected by graph size alone.
ARC_MAP_MAX_BYTES = 1 << 24

#: The shared read-only ``0, 1, 2, ...`` ramp of :func:`expand_segments`,
#: at most ``_RAMP_MAX`` long: the walker's band budget (a band's
#: gathers fit), 128 KB.  It grows only by replacement, so a thread
#: holding the old one still reads a valid array.
_RAMP_MAX = 1 << 14
_ramp = np.arange(0, dtype=np.int64)


def expand_segments(starts, lengths) -> Tuple[np.ndarray, np.ndarray]:
    """Positions ``starts[i] .. starts[i] + lengths[i] - 1`` of every
    segment laid end to end (never a view of the ramp), and offsets.

    Two passes over the elements: one ``repeat`` of each segment's
    shift, one add of the shared ramp."""
    global _ramp
    lengths = np.asarray(lengths, dtype=np.int64)
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    total = int(offsets[-1])
    ramp = _ramp
    if total > len(ramp):
        ramp = np.arange(max(total, min(2 * total, _RAMP_MAX)))
        if total <= _RAMP_MAX:
            ramp.flags.writeable = False
            _ramp = ramp
    positions = (np.asarray(starts) - offsets[:-1]).repeat(lengths)
    positions += ramp[:total]
    return positions, offsets


class CSRGraph:
    """An immutable graph in compressed sparse row form.

    Parameters
    ----------
    indptr:
        Array of ``num_vertices + 1`` offsets into ``indices``.
    indices:
        Concatenated neighbor lists.  Each per-vertex slice must be sorted
        in ascending order and free of duplicates.
    directed:
        ``False`` (default) means the adjacency is symmetric: for every
        edge (u, v), v appears in u's list and u in v's list.  ``True`` is
        used for oriented (DAG) graphs where each undirected edge is kept
        exactly once.
    name:
        Optional human-readable dataset name (e.g. ``"Mi"``).

    Notes
    -----
    The arrays are stored with ``writeable = False`` so neighbor-list views
    handed out by :meth:`neighbors` cannot be mutated by accident.
    """

    __slots__ = (
        "_indptr", "_indices", "_directed", "_name", "_degrees",
        "_arc_map", "_arc_keys", "_oriented", "_shm",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        *,
        directed: bool = False,
        name: str = "",
        validate: bool = True,
    ) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=_INDEX_DTYPE)
        indices = np.ascontiguousarray(indices, dtype=_VERTEX_DTYPE)
        if validate:
            _validate_csr(indptr, indices, directed)
        indptr.flags.writeable = False
        indices.flags.writeable = False
        self._indptr = indptr
        self._indices = indices
        self._directed = bool(directed)
        self._name = name
        self._degrees: Optional[np.ndarray] = None
        self._arc_map: Optional[np.ndarray] = None
        self._arc_keys: Optional[np.ndarray] = None
        #: Degree-oriented DAG of this graph, filled in by
        #: :func:`repro.graph.orient_by_degree` on first use.
        self._oriented: Optional["CSRGraph"] = None
        #: Shared-memory handles keeping attached buffers mapped for the
        #: lifetime of the graph (see :func:`attach_shared_csr`).
        self._shm: Tuple = ()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Union[np.ndarray, Iterable[Tuple[int, int]]],
        *,
        num_vertices: int | None = None,
        directed: bool = False,
        name: str = "",
    ) -> "CSRGraph":
        """Build a graph from an ``(m, 2)`` integer array or an iterable
        of (u, v) pairs.

        For undirected graphs each input edge is inserted in both
        directions.  Self loops and duplicate edges are silently dropped,
        matching the paper's preprocessed inputs (Table I caption).
        Vertex ids must fit the int32 ``indices`` dtype; the check runs
        before anything graph-sized is allocated.
        """
        if not isinstance(edges, (np.ndarray, list, tuple)):
            edges = list(edges)
        pairs = np.asarray(edges, dtype=np.int64)
        if num_vertices is not None and not 0 <= num_vertices <= _MAX_VERTICES:
            raise GraphFormatError(
                f"num_vertices={num_vertices} is out of range for "
                f"{np.dtype(_VERTEX_DTYPE)} vertex ids"
            )
        if pairs.size == 0:
            n = int(num_vertices or 0)
            return cls(
                np.zeros(n + 1, dtype=_INDEX_DTYPE),
                np.empty(0, dtype=_VERTEX_DTYPE),
                directed=directed,
                name=name,
            )
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise GraphFormatError("edges must be (u, v) pairs")
        if pairs.min() < 0:
            raise GraphFormatError("vertex ids must be non-negative")
        if pairs.max() >= _MAX_VERTICES:
            raise GraphFormatError(
                f"vertex id {int(pairs.max())} does not fit "
                f"{np.dtype(_VERTEX_DTYPE)}"
            )

        src, dst = pairs[:, 0], pairs[:, 1]
        loops = src == dst
        if loops.any():
            src, dst = src[~loops], dst[~loops]
        top = int(max(src.max(), dst.max())) if len(src) else -1
        n = int(num_vertices) if num_vertices is not None else top + 1
        if top >= n:
            raise GraphFormatError(
                f"edge endpoint {top} out of range for {n} vertices"
            )

        # One int64 key u*n+v per arc (ids < 2**31 keep it in range):
        # sort, drop repeats, split back into rows and columns.
        keys = src * n + dst
        if not directed:
            keys = np.concatenate([keys, dst * n + src])
        keys.sort()
        fresh = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        keys = keys[fresh]
        rows = keys // n
        indptr = np.zeros(n + 1, dtype=_INDEX_DTYPE)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        indices = (keys - rows * n).astype(_VERTEX_DTYPE)
        return cls(indptr, indices, directed=directed, name=name, validate=False)

    @classmethod
    def from_adjacency(
        cls,
        adjacency: Sequence[Sequence[int]],
        *,
        directed: bool = False,
        name: str = "",
    ) -> "CSRGraph":
        """Build a graph from a list of neighbor lists (need not be sorted)."""
        edges = [
            (u, v) for u, neighbors in enumerate(adjacency) for v in neighbors
        ]
        return cls.from_edges(
            edges, num_vertices=len(adjacency), directed=directed, name=name
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def directed(self) -> bool:
        return self._directed

    @property
    def num_vertices(self) -> int:
        return len(self._indptr) - 1

    @property
    def num_directed_edges(self) -> int:
        """Number of stored adjacency entries."""
        return len(self._indices)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (entries / 2 for symmetric graphs)."""
        if self._directed:
            return len(self._indices)
        return len(self._indices) // 2

    @property
    def indptr(self) -> np.ndarray:
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        return self._indices

    def degree(self, v: int) -> int:
        """Out-degree of ``v`` (degree for symmetric graphs)."""
        return int(self._indptr[v + 1] - self._indptr[v])

    def degrees(self) -> np.ndarray:
        """Vector of all vertex degrees (computed once, then cached).

        Orientation, scheduling, and parallel dispatch all consult this
        vector; the graph is immutable, so the ``np.diff`` runs once.
        """
        if self._degrees is None:
            degrees = np.diff(self._indptr)
            degrees.flags.writeable = False
            self._degrees = degrees
        return self._degrees

    def arc_map(self) -> Optional[np.ndarray]:
        """Flat connectivity map: ``arc_map()[u * n + v]`` is true iff
        ``v in neighbors(u)`` *in this graph* (an oriented DAG's map is
        asymmetric), or ``None`` when ``n * n`` exceeds
        :data:`ARC_MAP_MAX_BYTES`.

        The software c-map: built once in O(E), cached beside
        ``degrees()`` and read-only, it turns "is this candidate
        adjacent to that embedding vertex" into one indexed load
        instead of a search of a gathered neighbor list.  Unpacked
        ``bool`` on purpose — a bit-packed map measured 1.2-1.6x slower
        end to end (shift + mask per probe).
        """
        n = self.num_vertices
        if n * n > ARC_MAP_MAX_BYTES:
            return None
        if self._arc_map is None:
            # Build into a local, freeze, then publish with a single
            # assignment: racing threads each see None or a finished map.
            arcs = np.zeros(n * n, dtype=bool)
            arcs[self.arc_keys()] = True
            arcs.flags.writeable = False
            self._arc_map = arcs
        return self._arc_map

    def arc_keys(self) -> np.ndarray:
        """Sorted int64 key ``u * n + v`` of every arc, in ``indices``
        order (``n`` = ``num_vertices``; int32 ids keep keys in range),
        cached and read-only like :meth:`arc_map`.  The rank of ``b`` in
        ``N(u)`` is ``arc_keys().searchsorted(u * n + b) - indptr[u]``:
        one binary search per row instead of a gather of the list.  Not
        exported to shared memory; each process builds its own.
        """
        if self._arc_keys is None:
            n = self.num_vertices
            keys = np.repeat(np.arange(n, dtype=np.int64) * n, self.degrees())
            keys += self._indices
            keys.flags.writeable = False
            self._arc_keys = keys
        return self._arc_keys

    def max_degree(self) -> int:
        if self.num_vertices == 0:
            return 0
        return int(self.degrees().max())

    def avg_degree(self) -> float:
        if self.num_vertices == 0:
            return 0.0
        return len(self._indices) / self.num_vertices

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor list of ``v`` as a read-only array view."""
        return self._indices[self._indptr[v] : self._indptr[v + 1]]

    def gather_neighbors(
        self, vertices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated neighbor lists of many vertices plus offsets.

        Returns ``(concat, offsets)`` where the neighbor list of
        ``vertices[i]`` is ``concat[offsets[i]:offsets[i+1]]``.  The
        gather is one :func:`expand_segments` and one ``take`` over
        ``indices``; it loads the walkers' unmemoized first operands
        (and past the arc map's cap their other operands), the trace
        walker's c-map inserts and the k-MC codegree pass's lists.
        """
        verts = np.asarray(vertices, dtype=np.int64)
        positions, offsets = expand_segments(
            self._indptr[verts], self.degrees()[verts]
        )
        return self._indices.take(positions), offsets

    def has_edge(self, u: int, v: int) -> bool:
        """Connectivity test via binary search on u's sorted neighbor list."""
        lst = self.neighbors(u)
        pos = int(np.searchsorted(lst, v))
        return pos < len(lst) and int(lst[pos]) == v

    def vertices(self) -> range:
        return range(self.num_vertices)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate undirected edges once as (u, v) with u < v.

        For directed graphs, iterate every stored arc.
        """
        for u in self.vertices():
            for v in self.neighbors(u):
                v = int(v)
                if self._directed or u < v:
                    yield (u, v)

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Convert to a :mod:`networkx` graph (DiGraph when directed)."""
        import networkx as nx

        g = nx.DiGraph() if self._directed else nx.Graph()
        g.add_nodes_from(self.vertices())
        g.add_edges_from(self.edges())
        return g

    @classmethod
    def from_networkx(cls, g, *, name: str = "") -> "CSRGraph":
        """Build from a networkx (Di)Graph with integer-labelable nodes."""
        import networkx as nx

        mapping = {node: i for i, node in enumerate(sorted(g.nodes()))}
        directed = isinstance(g, nx.DiGraph)
        edges = [(mapping[u], mapping[v]) for u, v in g.edges()]
        return cls.from_edges(
            edges,
            num_vertices=g.number_of_nodes(),
            directed=directed,
            name=name,
        )

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            self._directed == other._directed
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing
        return object.__hash__(self)

    def __repr__(self) -> str:
        kind = "directed" if self._directed else "undirected"
        label = f" {self._name!r}" if self._name else ""
        return (
            f"CSRGraph({kind}{label}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges})"
        )


# ----------------------------------------------------------------------
# Shared-memory graph transport (zero-copy views for worker processes)
# ----------------------------------------------------------------------
#
# Every multi-process runner (the mining pool, the parallel simulator)
# hands each worker a *spec*, not the arrays: the parent copies the
# graph into POSIX shared memory once and workers map the same pages
# read-only.  Nothing graph-sized crosses a pipe, so attach cost is
# independent of graph size.


def worker_context():
    """The ``multiprocessing`` context runners start their workers from.

    ``fork`` wherever it exists: the children inherit the parent's
    resource tracker, which :func:`_attach_block` relies on.
    """
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context("spawn")


def share_array(arr: np.ndarray):
    """Copy an array into a new shared-memory block.

    Returns ``(shm, spec)`` where ``shm`` is the parent-side
    ``SharedMemory`` handle (owner: close + unlink when done) and
    ``spec`` is a small picklable dict :func:`attach_array` accepts.
    """
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
    try:
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
        if arr.size:
            view[:] = arr
        spec = {
            "shm": shm.name,
            "shape": tuple(arr.shape),
            "dtype": str(arr.dtype),
        }
    except BaseException:
        # the caller never saw the handle; reap the segment or it
        # outlives the process (unlink even if close itself raises)
        try:
            shm.close()
        finally:
            shm.unlink()
        raise
    return shm, spec


def _attach_block(name: str):
    """Attach an existing shared-memory block without claiming ownership.

    Attaching registers the segment with the resource tracker a second
    time, but worker processes inherit the *parent's* tracker (the
    parent always creates the segments, and therefore the tracker,
    before forking/spawning workers) and the tracker's cache is a set —
    so the duplicate registration is a no-op and the parent's final
    unlink clears the single entry.  Workers must *not* unregister: with
    a shared tracker that would strip the parent's registration and turn
    the parent's cleanup into a tracker error.
    """
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(name=name)


def attach_array(spec: Dict[str, object]):
    """Map a shared array by spec; returns ``(array, shm_handle)``.

    The caller must keep ``shm_handle`` alive as long as the array is in
    use (the array is a view over the mapped buffer).
    """
    shm = _attach_block(str(spec["shm"]))
    arr = np.ndarray(
        tuple(spec["shape"]), dtype=np.dtype(str(spec["dtype"])), buffer=shm.buf
    )
    return arr, shm


def _release(shms: Sequence, *steps: str) -> None:
    """Run ``steps`` (``"close"``, ``"unlink"``) on every segment.

    Every segment is visited even when one raises — bailing out would
    strand the rest past process exit (FM301) — and the first failure
    re-raises at the end.
    """
    failure: Optional[BaseException] = None
    for shm in shms:
        for step in steps:
            try:
                getattr(shm, step)()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            except BaseException as exc:
                if failure is None:
                    failure = exc
    if failure is not None:
        raise failure


class SharedCSRBuffers:
    """Parent-side owner of everything a runner exports of one graph.

    That is the topology's ``indptr``/``indices``, the label array when
    ``graph`` is a :class:`~repro.graph.LabeledGraph`, and — added by
    :meth:`share_oriented` when the first oriented plan arrives — the
    degree-oriented DAG.  Usage::

        with SharedCSRBuffers(graph) as shared:
            start_workers(shared.spec)   # workers call attach_shared_csr

    Exiting the ``with`` block closes and unlinks every segment; workers
    that attached before then keep their mappings until they exit.
    """

    def __init__(self, graph) -> None:
        self._shms: List = []
        self._topology: CSRGraph = getattr(graph, "graph", graph)
        self.spec: Dict[str, object] = self._share_csr(
            self._topology, getattr(graph, "labels", None)
        )

    def share_oriented(self) -> Dict[str, object]:
        """Export the degree-oriented DAG (first call only).

        Returns the DAG's own spec and records it as
        ``spec["oriented"]``, so a graph attached from ``spec`` afterwards
        answers :func:`~repro.graph.orient_by_degree` from shared memory.
        """
        if "oriented" not in self.spec:
            from .orientation import orient_by_degree

            self.spec["oriented"] = self._share_csr(
                orient_by_degree(self._topology)
            )
        return self.spec["oriented"]  # type: ignore[return-value]

    def _share_csr(
        self, graph: CSRGraph, labels: Optional[np.ndarray] = None
    ) -> Dict[str, object]:
        """Export one CSR (plus labels) atomically: when a creation
        fails, the segments this call already created are reaped."""
        spec: Dict[str, object] = {
            "directed": graph.directed,
            "name": graph.name,
        }
        arrays = {"indptr": graph.indptr, "indices": graph.indices}
        if labels is not None:
            arrays["labels"] = labels
        created: List = []
        try:
            for key, arr in arrays.items():
                shm, spec[key] = share_array(arr)
                created.append(shm)
        except BaseException:
            _release(created, "close", "unlink")
            raise
        self._shms += created
        return spec

    def close(self) -> None:
        _release(self._shms, "close")

    def unlink(self) -> None:
        _release(self._shms, "unlink")

    def __enter__(self) -> "SharedCSRBuffers":
        return self

    def __exit__(self, *exc) -> None:
        _release(self._shms, "close", "unlink")


def attach_shared_csr(spec: Dict[str, object]):
    """Rebuild the exported graph over shared-memory buffers.

    Returns a :class:`CSRGraph` — wrapped in a
    :class:`~repro.graph.LabeledGraph` when the spec carries labels, and
    with its oriented DAG already attached when the spec carries one.
    The graph holds the mapping handles internally, so it (and every
    neighbor-list view it hands out) stays valid for the graph's
    lifetime.  The arrays were validated when the source graph was
    built, so validation is skipped.
    """
    arrays: Dict[str, np.ndarray] = {}
    handles: List = []
    for key in ("indptr", "indices", "labels"):
        if key in spec:
            arrays[key], shm = attach_array(spec[key])  # type: ignore[arg-type]
            handles.append(shm)
    graph = CSRGraph(
        arrays["indptr"],
        arrays["indices"],
        directed=bool(spec["directed"]),
        name=str(spec["name"]),
        validate=False,
    )
    graph._shm = tuple(handles)
    if "oriented" in spec:
        attach_oriented(graph, spec["oriented"])  # type: ignore[arg-type]
    if "labels" not in arrays:
        return graph
    from .labels import LabeledGraph

    return LabeledGraph(graph, arrays["labels"])


def attach_oriented(graph, spec: Dict[str, object]) -> None:
    """Map the DAG :meth:`SharedCSRBuffers.share_oriented` exported as
    ``graph``'s cached degree-oriented DAG, so
    :func:`~repro.graph.orient_by_degree` answers it from shared memory."""
    getattr(graph, "graph", graph)._oriented = attach_shared_csr(spec)


def _validate_csr(indptr: np.ndarray, indices: np.ndarray, directed: bool) -> None:
    if indptr.ndim != 1 or len(indptr) == 0:
        raise GraphFormatError("indptr must be a 1-D array of length n+1")
    if int(indptr[0]) != 0 or int(indptr[-1]) != len(indices):
        raise GraphFormatError("indptr must start at 0 and end at len(indices)")
    if np.any(np.diff(indptr) < 0):
        raise GraphFormatError("indptr must be non-decreasing")
    n = len(indptr) - 1
    if len(indices) and (indices.min() < 0 or indices.max() >= n):
        raise GraphFormatError("neighbor ids out of range")
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    # The first vertex whose row steps down or repeats, or holds itself.
    step = np.flatnonzero((np.diff(indices) <= 0) & (rows[1:] == rows[:-1]))
    loop = np.flatnonzero(rows == indices)
    unsorted = int(rows[step[0]]) if len(step) else n
    looped = int(rows[loop[0]]) if len(loop) else n
    if unsorted < n and unsorted <= looped:
        raise GraphFormatError(
            f"neighbor list of vertex {unsorted} is not strictly sorted"
        )
    if looped < n:
        raise GraphFormatError(f"self loop at vertex {looped}")
    if not directed:
        # Symmetry: the sorted arc keys u*n+v must all reappear as v*n+u.
        arcs = rows * n + indices
        reverse = np.sort(indices.astype(np.int64) * n + rows)
        at = np.minimum(np.searchsorted(reverse, arcs), len(arcs) - 1)
        lonely = np.flatnonzero(reverse[at] != arcs)
        if len(lonely):
            u, v = divmod(int(arcs[lonely[0]]), n)
            raise GraphFormatError(
                f"graph marked undirected but edge ({u}, {v}) has no "
                f"reverse"
            )

"""Undirected weighted graphs in CSR form, plus exact reference computations.

The container is deliberately small: immutable arrays, weighted degrees, and
the handful of set evaluations (internal weight, cut, volume, conductance)
that everything downstream is defined against.  The brute-force routines at
the bottom are the ground truth the fast paths are tested against; they are
exponential on purpose and guarded by node limits.
"""

from __future__ import annotations

import hashlib
import io
import math
import operator
import re
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Graph",
    "GraphFormatError",
    "NodeSet",
    "as_mask",
    "set_weight",
    "cut_weight",
    "volume",
    "is_clique",
    "conductance",
    "hop_distances",
    "core_numbers",
    "induced",
    "disjoint_union",
    "load_edge_list",
    "load_edge_list_file",
    "load_dimacs",
    "load_dimacs_file",
    "to_edge_list_text",
    "graph_digest",
    "brute_force_max_clique",
    "brute_force_expectation",
]


# Largest node count a Graph, a generator or a loader accepts, whether it
# comes from the caller, the largest node index, a ``# nodes N`` comment or a
# DIMACS ``p edge N`` line.  A graph holds about 16 bytes per node before any
# edge, so one short line must not be able to ask for gigabytes, and the
# edge sort key in ``Graph.__init__`` (below n**2) stays exact in int64.
MAX_NODES = 1 << 24


def check_node_count(n: int) -> int:
    """Return n as an int; raise ValueError unless it is an integer in [0, ``MAX_NODES``].

    Integers are what ``operator.index`` accepts, numpy's included; a float,
    even a whole one, is refused.
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"node count must be an integer, got {n!r}") from None
    if n < 0:
        raise ValueError("node count must be non-negative")
    if n > MAX_NODES:
        raise ValueError(f"{n} nodes exceed the limit of {MAX_NODES}")
    return n


class GraphFormatError(ValueError):
    """Raised when graph input text cannot be parsed or violates the format."""


class Graph:
    """Immutable undirected graph with edge weights in (0, 1].

    Edges are stored in both directions (CSR adjacency) for O(deg) neighbor
    scans, and once as a sorted u < v edge list for serialization and
    edge-parallel numpy work.  ``degree`` is the weighted degree; the
    combinatorial degree is ``np.diff(offsets)``.  ``_digest``, ``_layout``
    and ``_sums`` memoize ``graph_digest``, ``gather_layout`` and the
    neighbour-sum kernel; the arrays are read-only, so none can go stale.
    """

    __slots__ = (
        "n",
        "offsets",
        "targets",
        "weights",
        "rows",
        "edge_u",
        "edge_v",
        "edge_w",
        "degree",
        "total_weight",
        "_digest",
        "_layout",
        "_sums",
    )

    def __init__(self, n: int, edge_u, edge_v, edge_w) -> None:
        """Build from arrays of endpoints and weights, one entry per edge.

        Edges handed over in strictly increasing (min, max) endpoint order,
        as every graph's own edge list is, are taken in that order; any
        other order is sorted first.  Either way the arrays are the same.

        Args:
            n: number of nodes, an integer (numpy's included); endpoints
                must lie in [0, n).
            edge_u, edge_v: integer endpoint arrays (either orientation).
            edge_w: weights, each in (0, 1].  The graph keeps a copy.

        Raises:
            ValueError: on a node count that is not an integer or lies
                outside [0, ``MAX_NODES``] (raised before anything is
                allocated), edge arrays of unequal length, out-of-range
                endpoints, self-loops, weights outside (0, 1], or duplicate
                edges, naming the first duplicate pair in (min, max) order.
        """
        n = check_node_count(n)
        u = np.asarray(edge_u, dtype=np.int64).reshape(-1)
        v = np.asarray(edge_v, dtype=np.int64).reshape(-1)
        w = np.array(edge_w, dtype=np.float64).reshape(-1)
        if not (u.shape == v.shape == w.shape):
            raise ValueError("edge arrays must have equal length")
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        if lo.size:
            if lo.min() < 0 or hi.max() >= n:
                raise ValueError("edge endpoint out of range")
            if np.any(lo == hi):
                raise ValueError("self-loops are not allowed")
            # Written so that NaN, which fails every comparison, is rejected too.
            if not np.all((w > 0.0) & (w <= 1.0)):
                raise ValueError("edge weights must lie in (0, 1]")
        # lo * n + hi orders edges by (lo, hi) and stays below MAX_NODES**2 = 2**48.
        # Strictly increasing keys are in order and hold no duplicate.  Otherwise
        # two edges share a key only if they are duplicates, which raise below
        # naming the same pair whatever their relative order, so any sort kind
        # yields the lexicographic permutation; the default kind is the fastest.
        key = lo * n + hi
        if not np.all(key[1:] > key[:-1]):
            order = np.argsort(key)
            lo, hi, w = lo[order], hi[order], w[order]
            dup = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
            if np.any(dup):
                i = int(np.flatnonzero(dup)[0])
                raise ValueError(f"duplicate edge ({lo[i]}, {hi[i]})")
        del key  # freed before the adjacency arrays are built, lowering the peak

        # The CSR adjacency in (source, target) order, built from its two
        # halves.  The forward half, lo to hi, is the edge list itself, in that
        # order already; one stable sort of hi alone puts the reversed half,
        # hi to lo, in it too (numpy radix-sorts keys of up to 16 bits).  A
        # node's row holds its reversed entries, whose targets lie below it,
        # then its forward ones, so forward entry e sits after the e forward
        # entries before it and after every reversed entry whose source is at
        # most lo[e]; the reversed entries fill the other slots in order.
        m = lo.size
        narrow = np.uint8 if n <= 1 << 8 else np.uint16 if n <= 1 << 16 else np.uint32
        by_hi = np.argsort(hi.astype(narrow), kind="stable")
        into = np.bincount(hi, minlength=n)
        counts = into + np.bincount(lo, minlength=n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        forward = np.arange(m) + np.cumsum(into)[lo]
        is_reverse = np.ones(2 * m, dtype=bool)
        is_reverse[forward] = False
        reverse = np.flatnonzero(is_reverse)
        targets = np.empty(2 * m, dtype=np.int64)
        targets[forward] = hi
        targets[reverse] = lo[by_hi]
        weights = np.empty(2 * m)
        weights[forward] = w
        weights[reverse] = w[by_hi]
        rows = np.repeat(np.arange(n), counts)

        self.n = n
        self.edge_u = lo
        self.edge_v = hi
        self.edge_w = w
        self.offsets = offsets
        self.targets = targets
        self.weights = weights
        self.rows = rows
        self.degree = np.bincount(rows, weights=weights, minlength=n)
        self.total_weight = float(w.sum())
        self._digest = self._layout = self._sums = None
        for name in ("offsets", "targets", "weights", "rows", "edge_u", "edge_v", "edge_w", "degree"):
            getattr(self, name).setflags(write=False)

    @property
    def num_edges(self) -> int:
        return self.edge_u.size

    def neighbors(self, i: int) -> np.ndarray:
        return self.targets[self.offsets[i] : self.offsets[i + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(np.any(self.neighbors(u) == v))

    def adjacency_matrix(self) -> np.ndarray:
        """Dense weighted adjacency; intended for small graphs only."""
        a = np.zeros((self.n, self.n))
        a[self.edge_u, self.edge_v] = self.edge_w
        a[self.edge_v, self.edge_u] = self.edge_w
        return a

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


@dataclass(frozen=True, eq=False)
class NodeSet:
    """A node subset with its size and weighted volume precomputed."""

    mask: np.ndarray
    size: int
    volume: float

    @classmethod
    def from_mask(cls, graph: Graph, mask) -> "NodeSet":
        m = as_mask(graph.n, mask)
        return cls(mask=m, size=int(m.sum()), volume=float(graph.degree[m].sum()))

    @classmethod
    def from_indices(cls, graph: Graph, indices) -> "NodeSet":
        return cls.from_mask(graph, as_mask(graph.n, indices))

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def __contains__(self, i: int) -> bool:
        return bool(self.mask[i])

    def __len__(self) -> int:
        return self.size


def as_mask(n: int, members) -> np.ndarray:
    """Coerce a NodeSet, boolean mask, or array-like or iterable of integer indices to a bool mask.

    A set or a generator is listed first: numpy would wrap it whole in a
    0-d object array rather than iterate it.
    """
    if isinstance(members, NodeSet):
        return members.mask
    arr = np.asarray(members)
    if arr.dtype == object and arr.ndim == 0 and isinstance(members, Iterable):
        arr = np.asarray(list(members))
    if arr.dtype == bool:
        if arr.shape != (n,):
            raise ValueError(f"mask has shape {arr.shape}, expected ({n},)")
        return arr
    mask = np.zeros(n, dtype=bool)
    idx = arr.reshape(-1)
    if idx.size:
        if not np.issubdtype(idx.dtype, np.integer):
            raise ValueError(f"node indices must be integers, got dtype {idx.dtype}")
        if idx.min() < 0 or idx.max() >= n:
            raise ValueError("node index out of range")
        mask[idx] = True
    return mask


def set_weight(graph: Graph, members) -> float:
    """Total weight of edges with both endpoints in the set."""
    m = as_mask(graph.n, members)
    inside = m[graph.edge_u] & m[graph.edge_v]
    return float(graph.edge_w[inside].sum())


def cut_weight(graph: Graph, members) -> float:
    """Total weight of edges with exactly one endpoint in the set."""
    m = as_mask(graph.n, members)
    crossing = m[graph.edge_u] != m[graph.edge_v]
    return float(graph.edge_w[crossing].sum())


def volume(graph: Graph, members) -> float:
    """Sum of weighted degrees over the set."""
    m = as_mask(graph.n, members)
    return float(graph.degree[m].sum())


def is_clique(graph: Graph, members) -> bool:
    """True iff every pair in the set is adjacent.  Empty and singleton sets count."""
    m = as_mask(graph.n, members)
    k = int(m.sum())
    if k <= 1:
        return True
    inside = int((m[graph.edge_u] & m[graph.edge_v]).sum())
    return inside == k * (k - 1) // 2


def conductance(graph: Graph, members) -> float:
    """cut(S) / vol(S).

    Raises:
        ValueError: if the set is empty or has zero volume.
    """
    m = as_mask(graph.n, members)
    vol = float(graph.degree[m].sum())
    if not m.any():
        raise ValueError("conductance of the empty set is undefined")
    if vol == 0.0:
        raise ValueError("conductance undefined for a zero-volume set")
    return cut_weight(graph, m) / vol


def _row_targets(graph: Graph, nodes: np.ndarray) -> np.ndarray:
    """The CSR rows of a nonempty int64 array of ``nodes``, back to back, as one gather."""
    starts = graph.offsets[nodes]
    counts = graph.offsets[nodes + 1] - starts
    ends = np.cumsum(counts)
    # Position j of the gathered block reads targets[starts[k] + j - (ends[k] - counts[k])].
    index = np.repeat(starts - ends + counts, counts) + np.arange(ends[-1])
    return graph.targets[index]


def hop_distances(graph: Graph, source: int) -> np.ndarray:
    """BFS hop counts from ``source``; unreachable nodes get graph.n + 1.

    Level-synchronous: each level gathers the frontier's CSR rows at once and
    keeps the unvisited nodes among them as the next frontier, in increasing
    node order: sorted when the rows hold few entries against n, read off a
    boolean mark over all nodes otherwise.  A hop count is the length of a
    shortest path, so it does not depend on the order nodes are visited in,
    and the result equals a one-neighbour-at-a-time BFS.
    """
    if not (0 <= source < graph.n):
        raise ValueError(f"source {source} out of range")
    unreached = graph.n + 1
    dist = np.full(graph.n, unreached, dtype=np.int64)
    dist[source] = 0
    mark = np.zeros(graph.n, dtype=bool)
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        reached = _row_targets(graph, frontier)
        if reached.size * 128 < graph.n:
            # Sorting a few nodes beats a pass over all n marks, which would
            # make a long path quadratic.
            frontier = np.unique(reached[dist[reached] == unreached])
        else:
            # Marks left from an earlier level are on reached nodes, which the mask clears.
            mark[reached] = True
            mark &= dist == unreached
            frontier = np.flatnonzero(mark)
        dist[frontier] = level
    return dist


def gather_layout(graph: Graph) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Every node's neighbours as padded, rank-major index blocks; built once per graph.

    Returns ``(blocks, position)``.  Each block has one column per node it
    covers, and its row r holds every such node's r-th neighbour in
    adjacency order, or the pad index n where the node has fewer; a
    gather of rows then a reduce over the rows sums each node's neighbours
    in adjacency order (the ELLPACK layout of sparse kernels).  While one
    block over all nodes, as tall as the largest degree, holds at most twice
    the adjacency entries plus n indices, it is the only block, its columns
    are the nodes in order and ``position`` is None.  Otherwise the nodes
    are bucketed by the bit length of their degree, in increasing node
    order within a bucket, and each bucket is padded to its own largest
    degree, so that no node takes more than twice its degree; node i is
    then row ``position[i]`` of the blocks' columns laid end to end.  A
    one-node bucket gets one more column, all pads: summing over rows with
    a single output element would take numpy's pairwise order instead.
    The layout serves the MPNN's neighbour sums (``models._neighbor_sum``)
    only; every other walk reads the CSR arrays.
    """
    if graph._layout is None:
        n, rows, targets = graph.n, graph.rows, graph.targets
        degree = np.diff(graph.offsets)
        rank = np.arange(targets.size) - graph.offsets[rows]
        height = int(degree.max()) if n else 0
        if height * n <= 2 * targets.size + n:
            # One block is one gather with no reorder through ``position``:
            # on the bench's 30- to 80-node mpnn-train graphs, one
            # ``models._neighbor_sum`` call took 9-27 us with it against
            # 15-33 us with buckets (2-core VM, numpy 2.4).
            block = np.full((height, n), n, dtype=np.int64)
            block[rank, rows] = targets
            blocks, position = [block], None
        else:
            bucket = np.frexp(degree)[1]  # the bit length of each degree
            entry_bucket = bucket[rows]
            order = np.argsort(bucket, kind="stable")
            groups = np.split(order, np.flatnonzero(np.diff(bucket[order])) + 1)
            column = np.empty(n, dtype=np.int64)
            position = np.empty(n, dtype=np.int64)
            blocks = []
            start = 0
            for nodes in groups:
                column[nodes] = np.arange(nodes.size)
                position[nodes] = start + column[nodes]
                block = np.full((int(degree[nodes].max()), nodes.size + (nodes.size == 1)), n, dtype=np.int64)
                entries = np.flatnonzero(entry_bucket == bucket[nodes[0]])
                block[rank[entries], column[rows[entries]]] = targets[entries]
                blocks.append(block)
                start += block.shape[1]
            position.setflags(write=False)
        for block in blocks:
            block.setflags(write=False)
        graph._layout = (blocks, position)
    return graph._layout


def core_numbers(graph: Graph) -> np.ndarray:
    """Core number of every node: the largest k such that it lies in a k-core.

    The Batagelj-Zaversnik (2003) peel on combinatorial degrees, one level at
    a time: k is the smallest live degree, and every live node of degree k
    or below is removed, round by round, until none is left.  A round
    gathers only the removed nodes' CSR rows and lowers only their live
    neighbours' degrees.
    """
    deg = np.diff(graph.offsets)
    alive = np.ones(graph.n, dtype=bool)
    core = np.zeros(graph.n, dtype=np.int64)
    while alive.any():
        k = int(deg[alive].min())
        frontier = np.flatnonzero(alive & (deg <= k))
        while frontier.size:
            core[frontier] = k
            alive[frontier] = False
            reached = _row_targets(graph, frontier)
            touched, drops = np.unique(reached[alive[reached]], return_counts=True)
            deg[touched] -= drops
            frontier = touched[deg[touched] <= k]
    return core


def induced(graph: Graph, nodes) -> tuple[Graph, np.ndarray]:
    """The subgraph on a node set, with its index map.

    Returns ``(sub, index)``: ``index`` holds the set's nodes in increasing
    order, sub's node i is ``index[i]``, and sub keeps exactly the edges,
    with their weights, that have both endpoints in the set.
    """
    mask = as_mask(graph.n, nodes)
    index = np.flatnonzero(mask)
    position = np.cumsum(mask) - 1
    inside = mask[graph.edge_u] & mask[graph.edge_v]
    sub = Graph(index.size, position[graph.edge_u[inside]], position[graph.edge_v[inside]], graph.edge_w[inside])
    return sub, index


def disjoint_union(graphs) -> tuple[Graph, np.ndarray]:
    """The graphs side by side in one graph, with their node offsets.

    Returns ``(union, offsets)``: graph i's node j is the union's node
    ``offsets[i] + j``, and ``offsets`` ends at the union's n.  Every part
    keeps its edges, their weights and their order, in the edge list and in
    each node's adjacency.  A graph is immutable, so the union of one graph
    is that graph itself.
    """
    graphs = list(graphs)
    offsets = np.cumsum([0] + [g.n for g in graphs], dtype=np.int64)
    if len(graphs) == 1:
        return graphs[0], offsets
    shift = np.repeat(offsets[:-1], [g.num_edges for g in graphs])
    empty = [np.zeros(0, dtype=np.int64)]
    u = np.concatenate(empty + [g.edge_u for g in graphs]) + shift
    v = np.concatenate(empty + [g.edge_v for g in graphs]) + shift
    w = np.concatenate(empty + [g.edge_w for g in graphs])
    return Graph(int(offsets[-1]), u, v, w), offsets


# ---------------------------------------------------------------------------
# loaders / serialization

def _check_line_node_count(n: int, lineno: int) -> None:
    try:
        check_node_count(n)
    except ValueError as exc:
        raise GraphFormatError(f"line {lineno}: {exc}") from None


def _parse_edge_line(parts: list[str], lineno: int, index_base: int) -> tuple[int, int, float]:
    if len(parts) > 3:
        raise GraphFormatError(f"line {lineno}: extra field {parts[3]!r} after the edge weight")
    try:
        u = int(parts[0]) - index_base
        v = int(parts[1]) - index_base
        w = float(parts[2]) if len(parts) > 2 else 1.0
    except (ValueError, IndexError) as exc:
        raise GraphFormatError(f"line {lineno}: cannot parse edge: {exc}") from exc
    if not math.isfinite(w):
        raise GraphFormatError(f"line {lineno}: non-finite edge weight {parts[2]}")
    if u < 0 or v < 0:
        raise GraphFormatError(f"line {lineno}: negative node index (check index base)")
    _check_line_node_count(max(u, v) + 1, lineno)
    if u == v:
        raise GraphFormatError(f"line {lineno}: self-loop on node {u + index_base}")
    if w < 0.0:
        raise GraphFormatError(f"line {lineno}: negative edge weight {w}")
    return u, v, w


def load_edge_list(text: str, *, index_base: int = 0, n: int | None = None) -> Graph:
    """Parse a whitespace edge list: one ``u v [w]`` per line.

    Lines starting with ``#`` are comments; ``# nodes N`` pins the node count
    (needed to round-trip trailing isolated nodes).  A node count above
    ``MAX_NODES``, from that comment or from a node index, raises before
    anything is allocated.  Missing weights default to 1.  Weights above 1
    trigger normalization of the whole graph by the maximum weight.
    Zero-weight edges are dropped; negative, NaN and infinite weights raise.

    Args:
        text: edge list content.
        index_base: 0 or 1, the base of node indices in the input.
        n: explicit node count overriding max-index inference.
    """
    if index_base not in (0, 1):
        raise ValueError("index_base must be 0 or 1")
    graph = _load_canonical_edge_list(text, index_base, n)
    if graph is not None:
        return graph
    us: list[int] = []
    vs: list[int] = []
    ws: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0] == "nodes":
                try:
                    n = int(parts[1])
                except ValueError as exc:
                    raise GraphFormatError(f"line {lineno}: bad node count") from exc
                _check_line_node_count(n, lineno)
            continue
        u, v, w = _parse_edge_line(line.split(), lineno, index_base)
        us.append(u)
        vs.append(v)
        ws.append(w)
    return _edge_graph(n, us, vs, ws)


def _edge_graph(n: int | None, u, v, w) -> Graph:
    """The graph of a loader's parsed edges, one entry per edge record.

    Zero-weight edges are dropped, n is inferred from the largest endpoint
    left when it is None, and when a weight is above 1 every weight is
    divided by the largest.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    keep = w != 0.0
    u, v, w = u[keep], v[keep], w[keep]
    if n is None:
        n = int(max(u.max(initial=-1), v.max(initial=-1))) + 1
    if w.size and w.max() > 1.0:
        w = w / w.max()
    return Graph(n, u, v, w)


_NODES_HEADER = re.compile(r"# nodes ([0-9]+)")
# Everything an edge line of canonical text holds, besides its two spaces and newline.
_EDGE_CHARS = b"0123456789.eE+-"
_EDGE_FIELDS = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])


def _load_canonical_edge_list(text: str, index_base: int, n: int | None) -> Graph | None:
    """``load_edge_list`` on numpy arrays, for text shaped like ``to_edge_list_text``.

    That is an optional ``# nodes N`` first line, then ``u v w`` lines with
    one space between fields and none around them, each ending in a newline.
    One ``np.loadtxt`` pass converts the fields as the line loop does (``int``
    and ``float`` per token), so an accepted text yields the same graph.
    Returns None for any other text, and for any text the line loop would
    reject, so that the line loop reports the error with its line number.

    A text with the ``# nodes N`` line, read with index base 0, is then
    compared with ``to_edge_list_text`` of the graph it yields.  When the two
    are equal, the graph's digest is set to the SHA-256 of the text, so the
    graph is serialized once, here, and ``graph_digest`` does not do it
    again.  Any other text cannot be the canonical text, and is not written.
    """
    body = text
    header = None
    if text.startswith("#"):
        header, _, body = text.partition("\n")
        pinned = _NODES_HEADER.fullmatch(header)
        if pinned is None:
            return None
        n = int(pinned[1])
    try:
        raw = body.encode("ascii")
    except UnicodeEncodeError:
        return None
    lines = raw.count(b"\n")
    # Two spaces before every newline and nothing after the last one.
    if lines == 0 or raw.translate(None, _EDGE_CHARS) != b"  \n" * lines:
        return None
    try:
        fields = np.loadtxt(io.StringIO(body), dtype=_EDGE_FIELDS, comments=None, ndmin=1)
    except (ValueError, OverflowError):  # an empty field, or a token int or float rejects
        return None
    u = fields["u"] - index_base
    v = fields["v"] - index_base
    w = fields["w"]
    if n is not None and n > MAX_NODES:
        return None
    if min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= MAX_NODES or np.any(u == v):
        return None
    if not np.all(np.isfinite(w) & (w >= 0.0)):
        return None
    graph = _edge_graph(n, u, v, w)
    if header is not None and index_base == 0 and to_edge_list_text(graph) == text:
        graph._digest = hashlib.sha256(text.encode()).hexdigest()
    return graph


def load_edge_list_file(path, *, index_base: int = 0, n: int | None = None) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_edge_list(fh.read(), index_base=index_base, n=n)


def load_dimacs(text: str) -> Graph:
    """Parse DIMACS clique format: ``p edge n m`` header, ``e i j [w]`` lines, 1-based.

    A declared n above ``MAX_NODES`` raises before anything is allocated.
    Every ``e`` line counts toward m; as in ``load_edge_list``, zero-weight
    edges are then dropped and weights above 1 rescaled by the largest.
    """
    n = None
    m_declared = None
    us: list[int] = []
    vs: list[int] = []
    ws: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] not in ("edge", "col"):
                raise GraphFormatError(f"line {lineno}: malformed problem line")
            try:
                n = int(parts[2])
                m_declared = int(parts[3])
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: malformed problem line") from exc
            _check_line_node_count(n, lineno)
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: edge before problem line")
            u, v, w = _parse_edge_line(parts[1:], lineno, index_base=1)
            if u >= n or v >= n:
                raise GraphFormatError(f"line {lineno}: node index exceeds declared count")
            us.append(u)
            vs.append(v)
            ws.append(w)
        else:
            raise GraphFormatError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise GraphFormatError("missing problem line")
    if len(us) != m_declared:
        raise GraphFormatError(f"header declares {m_declared} edges, found {len(us)}")
    return _edge_graph(n, us, vs, ws)


def load_dimacs_file(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_dimacs(fh.read())


def to_edge_list_text(graph: Graph) -> str:
    """Canonical serialization: node-count header plus sorted ``u v w`` lines.

    Each edge's line is ``f"{u} {v} {w!r}"`` of its endpoints and weight as
    Python numbers: each weight is its shortest round-tripping ``repr``.
    Weights lie in (0, 1], where equal floats have equal reprs, so each
    distinct weight is formatted once.  The lines are built in numpy, one
    fixed-width byte row per edge: the endpoints' decimal digits,
    right-aligned in the width of n - 1, the weight's repr, left-aligned in
    the width of the longest, and the fixed spaces and newline.  Null bytes
    fill what a field leaves of its width, and one boolean compress drops
    them.
    """
    header = f"# nodes {graph.n}\n"
    m = graph.num_edges
    if m == 0:
        return header
    distinct, which = np.unique(graph.edge_w, return_inverse=True)
    spelled = np.array(list(map(repr, distinct.tolist())), dtype=bytes)  # null-padded to one width
    digits = len(str(graph.n - 1))
    line = np.zeros((m, 2 * digits + 3 + spelled.itemsize), dtype=np.uint8)
    last = np.array([digits - 1, 2 * digits])  # the columns of u's and v's last digits
    value = np.stack([graph.edge_u, graph.edge_v]).astype(np.uint32)  # below MAX_NODES = 2**24
    for k in range(digits):
        done = value == 0  # no digit left: padding, but for a 0 in the last column
        value, digit = np.divmod(value, 10)
        digit += ord("0")
        if k:
            digit[done] = 0
        line[:, last - k] = digit.T
    line[:, last + 1] = ord(" ")
    line[:, 2 * digits + 2 : -1] = spelled.view(np.uint8).reshape(-1, spelled.itemsize)[which]
    line[:, -1] = ord("\n")
    chars = line.reshape(-1)
    return header + chars[chars != 0].tobytes().decode("ascii")


def graph_digest(graph: Graph) -> str:
    """SHA-256 of the canonical serialization; used to pin results to inputs.

    Computed once per graph.  A graph that ``load_edge_list`` read from its
    own canonical text already holds the hash of that text: the loader
    wrote the text to compare it, so it is not written again here.
    """
    if graph._digest is None:
        graph._digest = hashlib.sha256(to_edge_list_text(graph).encode()).hexdigest()
    return graph._digest


# ---------------------------------------------------------------------------
# brute force references


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def brute_force_max_clique(graph: Graph, node_limit: int = 60) -> NodeSet:
    """Exact maximum-weight clique by branch and bound.

    Maximizes total internal edge weight; ties broken by larger cardinality,
    then by lexicographically smallest sorted member tuple, so the result is
    deterministic.  Exponential in the worst case; refuses graphs larger than
    ``node_limit``.
    """
    n = graph.n
    if n == 0:
        raise ValueError("empty graph has no cliques")
    if n > node_limit:
        raise ValueError(f"graph has {n} nodes, above the brute-force limit {node_limit}")

    wmat = graph.adjacency_matrix()
    adj = [0] * n
    # tolist() for plain python ints: the masks must stay arbitrary-precision
    for u, v in zip(graph.edge_u.tolist(), graph.edge_v.tolist()):
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    best_weight = -1.0
    best_size = 0
    best_tuple: tuple[int, ...] = ()

    def canonical_weight(nodes: tuple[int, ...]) -> float:
        total = 0.0
        for a in range(len(nodes)):
            for b in range(a + 1, len(nodes)):
                total += wmat[nodes[a], nodes[b]]
        return total

    def consider(nodes: tuple[int, ...]) -> None:
        nonlocal best_weight, best_size, best_tuple
        w = canonical_weight(nodes)
        if w > best_weight:
            better = True
        elif w == best_weight:
            if len(nodes) != best_size:
                better = len(nodes) > best_size
            else:
                better = nodes < best_tuple
        else:
            better = False
        if better:
            best_weight, best_size, best_tuple = w, len(nodes), nodes

    def expand(nodes: tuple[int, ...], weight: float, cand: int) -> None:
        consider(nodes)
        if not cand:
            return
        cand_list = list(_iter_bits(cand))
        ub = weight
        if nodes:
            ub += wmat[np.ix_(cand_list, list(nodes))].sum()
        if len(cand_list) > 1:
            ub += wmat[np.ix_(cand_list, cand_list)].sum() / 2.0
        if ub < best_weight - 1e-9:
            return
        for v in cand_list:
            rest = cand & adj[v]
            rest &= ~((1 << (v + 1)) - 1)  # only candidates above v; each clique visited once
            gain = float(wmat[v, list(nodes)].sum()) if nodes else 0.0
            expand(nodes + (v,), weight + gain, rest)

    expand((), 0.0, (1 << n) - 1)
    return NodeSet.from_indices(graph, best_tuple)


_EXPECTATION_OBJECTIVES = ("set_weight", "cut_weight", "volume", "clique_indicator", "complement_weight", "penalty")


def brute_force_expectation(
    graph: Graph,
    p,
    objective: str,
    *,
    gamma: float | None = None,
    beta: float | None = None,
    node_limit: int = 20,
) -> float:
    """Exact expectation of a set function under independent node inclusion.

    Enumerates all 2^n subsets, so n must stay at or below ``node_limit``.

    Args:
        graph: the instance.
        p: per-node inclusion probabilities in [0, 1].
        objective: one of ``set_weight``, ``cut_weight``, ``volume``,
            ``clique_indicator``, ``complement_weight`` (number of absent
            pairs plus the weight deficit of present ones), or ``penalty``
            (``gamma - set_weight + beta * [not a clique]``).
        gamma, beta: required for the penalty objective.
    """
    if objective not in _EXPECTATION_OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    if objective == "penalty" and (gamma is None or beta is None):
        raise ValueError("penalty objective requires gamma and beta")
    n = graph.n
    if n > node_limit:
        raise ValueError(f"graph has {n} nodes, above the enumeration limit {node_limit}")
    probs = np.asarray(p, dtype=np.float64)
    if probs.shape != (n,):
        raise ValueError(f"p has shape {probs.shape}, expected ({n},)")
    if np.any(probs < 0.0) or np.any(probs > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")

    # Pairs of distinct nodes that are not adjacent, for clique objectives.
    dense = graph.adjacency_matrix()
    non_u, non_v = np.where((np.triu(np.ones((n, n)), 1) > 0) & (dense == 0))

    total = 0.0
    chunk = 1 << 14
    for start in range(0, 1 << n, chunk):
        masks = np.arange(start, min(start + chunk, 1 << n), dtype=np.uint64)
        bits = ((masks[:, None] >> np.arange(n, dtype=np.uint64)) & 1).astype(np.float64)
        prob = np.ones(masks.size)
        for i in range(n):
            prob *= bits[:, i] * probs[i] + (1.0 - bits[:, i]) * (1.0 - probs[i])

        if objective == "volume":
            value = bits @ graph.degree
        else:
            inside = np.zeros(masks.size)
            for u, v, w in zip(graph.edge_u, graph.edge_v, graph.edge_w):
                inside += w * bits[:, u] * bits[:, v]
            if objective == "set_weight":
                value = inside
            elif objective == "cut_weight":
                value = np.zeros(masks.size)
                for u, v, w in zip(graph.edge_u, graph.edge_v, graph.edge_w):
                    value += w * (bits[:, u] + bits[:, v] - 2.0 * bits[:, u] * bits[:, v])
            else:
                size = bits.sum(axis=1)
                pairs = size * (size - 1.0) / 2.0
                deficit = pairs - inside  # zero exactly when S is a clique with unit weights
                missing = np.zeros(masks.size)
                for u, v in zip(non_u, non_v):
                    missing += bits[:, u] * bits[:, v]
                if objective == "clique_indicator":
                    value = (missing == 0.0).astype(np.float64)
                elif objective == "complement_weight":
                    value = deficit
                else:  # penalty
                    value = gamma - inside + beta * (missing > 0.0).astype(np.float64)
        total += float(prob @ value)
    return total

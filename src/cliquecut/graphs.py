"""Undirected weighted graphs in CSR form, plus exact reference computations.

The container is deliberately small: immutable arrays, weighted degrees, and
the handful of set evaluations (internal weight, cut, volume, conductance)
that everything downstream is defined against.  The brute-force routines at
the bottom are the ground truth the fast paths are tested against; they are
exponential on purpose and guarded by node limits.
"""

from __future__ import annotations

import hashlib
import math
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
    "load_edge_list",
    "load_edge_list_file",
    "load_dimacs",
    "load_dimacs_file",
    "to_edge_list_text",
    "graph_digest",
    "brute_force_max_clique",
    "brute_force_expectation",
]


class GraphFormatError(ValueError):
    """Raised when graph input text cannot be parsed or violates the format."""


class Graph:
    """Immutable undirected graph with edge weights in (0, 1].

    Edges are stored in both directions (CSR adjacency) for O(deg) neighbor
    scans, and once as a sorted u < v edge list for serialization and
    edge-parallel numpy work.  ``degree`` is the weighted degree; the
    combinatorial degree is ``np.diff(offsets)``.
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
    )

    def __init__(self, n: int, edge_u, edge_v, edge_w) -> None:
        """Build from arrays of endpoints and weights, one entry per edge.

        Args:
            n: number of nodes; endpoints must lie in [0, n).
            edge_u, edge_v: integer endpoint arrays (either orientation).
            edge_w: weights, each in (0, 1].

        Raises:
            ValueError: on self-loops, duplicate edges, out-of-range
                endpoints, or weights outside (0, 1].
        """
        u = np.asarray(edge_u, dtype=np.int64).reshape(-1)
        v = np.asarray(edge_v, dtype=np.int64).reshape(-1)
        w = np.asarray(edge_w, dtype=np.float64).reshape(-1)
        if not (u.shape == v.shape == w.shape):
            raise ValueError("edge arrays must have equal length")
        if n < 0:
            raise ValueError("node count must be non-negative")
        if u.size:
            if u.min() < 0 or v.min() < 0 or max(u.max(), v.max()) >= n:
                raise ValueError("edge endpoint out of range")
            if np.any(u == v):
                raise ValueError("self-loops are not allowed")
            # Written so that NaN, which fails every comparison, is rejected too.
            if not np.all((w > 0.0) & (w <= 1.0)):
                raise ValueError("edge weights must lie in (0, 1]")
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        order = np.lexsort((hi, lo))
        lo, hi, w = lo[order], hi[order], w[order]
        if lo.size > 1:
            dup = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
            if np.any(dup):
                i = int(np.flatnonzero(dup)[0])
                raise ValueError(f"duplicate edge ({lo[i]}, {hi[i]})")

        m = lo.size
        self.n = int(n)
        self.edge_u = lo
        self.edge_v = hi
        self.edge_w = w

        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        ww = np.concatenate([w, w])
        adj_order = np.lexsort((dst, src))
        src, dst, ww = src[adj_order], dst[adj_order], ww[adj_order]
        counts = np.bincount(src, minlength=n)
        self.offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self.targets = dst
        self.weights = ww
        self.rows = src
        self.degree = np.bincount(src, weights=ww, minlength=n)
        self.total_weight = float(w.sum())
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
        m = np.zeros(graph.n, dtype=bool)
        idx = np.asarray(list(indices), dtype=np.int64)
        if idx.size:
            if idx.min() < 0 or idx.max() >= graph.n:
                raise ValueError("node index out of range")
            m[idx] = True
        return cls.from_mask(graph, m)

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def __contains__(self, i: int) -> bool:
        return bool(self.mask[i])

    def __len__(self) -> int:
        return self.size


def as_mask(n: int, members) -> np.ndarray:
    """Coerce a NodeSet, boolean mask, or index iterable to a bool mask."""
    if isinstance(members, NodeSet):
        return members.mask
    arr = np.asarray(members)
    if arr.dtype == bool:
        if arr.shape != (n,):
            raise ValueError(f"mask has shape {arr.shape}, expected ({n},)")
        return arr
    mask = np.zeros(n, dtype=bool)
    idx = arr.astype(np.int64).reshape(-1)
    if idx.size:
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


def hop_distances(graph: Graph, source: int) -> np.ndarray:
    """BFS hop counts from ``source``; unreachable nodes get graph.n + 1."""
    if not (0 <= source < graph.n):
        raise ValueError(f"source {source} out of range")
    dist = np.full(graph.n, graph.n + 1, dtype=np.int64)
    dist[source] = 0
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        nxt: list[int] = []
        for u in frontier:
            for v in graph.neighbors(u):
                if dist[v] > graph.n:
                    dist[v] = level
                    nxt.append(int(v))
        frontier = nxt
    return dist


# ---------------------------------------------------------------------------
# loaders / serialization


def _parse_edge_line(parts: list[str], lineno: int, index_base: int) -> tuple[int, int, float]:
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
    if u == v:
        raise GraphFormatError(f"line {lineno}: self-loop on node {u + index_base}")
    if w < 0.0:
        raise GraphFormatError(f"line {lineno}: negative edge weight {w}")
    return u, v, w


def load_edge_list(text: str, *, index_base: int = 0, n: int | None = None) -> Graph:
    """Parse a whitespace edge list: one ``u v [w]`` per line.

    Lines starting with ``#`` are comments; ``# nodes N`` pins the node count
    (needed to round-trip trailing isolated nodes).  Missing weights default
    to 1.  Weights above 1 trigger normalization of the whole graph by the
    maximum weight.  Zero-weight edges are dropped; negative, NaN and infinite
    weights raise.

    Args:
        text: edge list content.
        index_base: 0 or 1, the base of node indices in the input.
        n: explicit node count overriding max-index inference.
    """
    if index_base not in (0, 1):
        raise ValueError("index_base must be 0 or 1")
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
            continue
        u, v, w = _parse_edge_line(line.split(), lineno, index_base)
        if w == 0.0:
            continue
        us.append(u)
        vs.append(v)
        ws.append(w)
    if n is None:
        n = max((max(us, default=-1), max(vs, default=-1))) + 1
    w_arr = np.asarray(ws, dtype=np.float64)
    if w_arr.size and w_arr.max() > 1.0:
        w_arr = w_arr / w_arr.max()
    return Graph(n, us, vs, w_arr)


def load_edge_list_file(path, *, index_base: int = 0, n: int | None = None) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_edge_list(fh.read(), index_base=index_base, n=n)


def load_dimacs(text: str) -> Graph:
    """Parse DIMACS clique format: ``p edge n m`` header, ``e i j [w]`` lines, 1-based."""
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
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: edge before problem line")
            u, v, w = _parse_edge_line(parts[1:], lineno, index_base=1)
            if u >= n or v >= n:
                raise GraphFormatError(f"line {lineno}: node index exceeds declared count")
            if w == 0.0:
                continue
            us.append(u)
            vs.append(v)
            ws.append(w)
        else:
            raise GraphFormatError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise GraphFormatError("missing problem line")
    if m_declared is not None and len(us) != m_declared:
        raise GraphFormatError(f"header declares {m_declared} edges, found {len(us)}")
    w_arr = np.asarray(ws, dtype=np.float64)
    if w_arr.size and w_arr.max() > 1.0:
        w_arr = w_arr / w_arr.max()
    return Graph(n, us, vs, w_arr)


def load_dimacs_file(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_dimacs(fh.read())


def to_edge_list_text(graph: Graph) -> str:
    """Canonical serialization: node-count header plus sorted ``u v w`` lines."""
    lines = [f"# nodes {graph.n}"]
    for u, v, w in zip(graph.edge_u, graph.edge_v, graph.edge_w):
        lines.append(f"{int(u)} {int(v)} {float(w)!r}")
    return "\n".join(lines) + "\n"


def graph_digest(graph: Graph) -> str:
    """SHA-256 of the canonical serialization; used to pin results to inputs."""
    return hashlib.sha256(to_edge_list_text(graph).encode()).hexdigest()


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

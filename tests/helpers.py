"""Small graphs and reference implementations shared across the test suite."""

from itertools import combinations

import numpy as np

from cliquecut import Graph


def complete_graph(n: int, weight: float = 1.0) -> Graph:
    u, v = np.triu_indices(n, k=1)
    return Graph(n, u, v, np.full(u.size, weight))


def path_graph(n: int) -> Graph:
    u = np.arange(n - 1)
    return Graph(n, u, u + 1, np.ones(n - 1))


def two_triangles() -> Graph:
    """Triangles {0,1,2} and {3,4,5} joined by the bridge 2-3."""
    u = [0, 0, 1, 3, 3, 4, 2]
    v = [1, 2, 2, 4, 5, 5, 3]
    return Graph(6, u, v, np.ones(7))


def disjoint_triangles() -> Graph:
    """Two weighted triangles, {0,1,2} and {3,4,5}, with no edge between them.

    The expected cut of {0,1,2}'s indicator rounds to -4.4e-16 when summed
    as volume minus twice the weight inside.
    """
    return Graph(6, [0, 0, 1, 3, 3, 4], [1, 2, 2, 4, 5, 5], [0.54, 0.95, 0.19] * 2)


def k5_minus_edge() -> Graph:
    """K5 without the edge 0-1: total weight 9, and its largest cliques are the two K4s."""
    u, v = np.triu_indices(5, k=1)  # the first pair is (0, 1)
    return Graph(5, u[1:], v[1:], np.ones(9))


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges = outer + spokes + inner
    return Graph(10, [a for a, _ in edges], [b for _, b in edges], np.ones(15))


def random_graph(rng: np.random.Generator, n: int, density: float = 0.4, weighted: bool = False) -> Graph:
    iu, iv = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < density
    u, v = iu[keep], iv[keep]
    w = rng.uniform(0.1, 1.0, u.size) if weighted else np.ones(u.size)
    return Graph(n, u, v, w)


def sparse_planted_clique(rng: np.random.Generator, n: int, k: int, mean_degree: int) -> tuple[Graph, np.ndarray]:
    """About n * mean_degree / 2 uniform random edges plus a unit-weight clique on k random nodes.

    Draws endpoint pairs directly, in O(n * mean_degree) memory, and drops
    self-loops and repeats; returns the graph and the sorted planted nodes.
    """
    a = rng.integers(0, n, size=n * mean_degree // 2)
    b = rng.integers(0, n, size=a.size)
    planted = np.sort(rng.choice(n, size=k, replace=False))
    iu, iv = np.triu_indices(k, k=1)
    lo = np.concatenate([np.minimum(a, b), planted[iu]])
    hi = np.concatenate([np.maximum(a, b), planted[iv]])
    keys = np.unique((lo * n + hi)[lo != hi])
    return Graph(n, keys // n, keys % n, np.ones(keys.size)), planted


def reference_edge_list_text(graph: Graph) -> str:
    """``to_edge_list_text`` one line at a time: a header, then ``f"{u} {v} {w!r}"`` per edge."""
    lines = [f"# nodes {graph.n}"]
    lines += [f"{u} {v} {w!r}" for u, v, w in zip(graph.edge_u.tolist(), graph.edge_v.tolist(), graph.edge_w.tolist())]
    return "\n".join(lines) + "\n"


def reference_neighbor_sums(graph: Graph, p: np.ndarray) -> np.ndarray:
    """s = A p as one bincount over the CSR rows: each node adds w_ij * p_j in adjacency order.

    bincount returns int64 when the graph has no edges to weight, so the
    result is cast to float64, as every neighbour sum of the library is.
    """
    sums = np.bincount(graph.rows, weights=graph.weights * p[graph.targets], minlength=graph.n)
    return sums.astype(np.float64, copy=False)


def naive_max_clique(graph: Graph) -> tuple[float, tuple[int, ...]]:
    """Reference maximum-weight clique by full subset enumeration.

    Uses the same tie-breaking as the branch-and-bound version: weight, then
    size, then lexicographically smallest member tuple.
    """
    adj = graph.adjacency_matrix()
    best_w, best_size, best_tup = -1.0, 0, ()
    for size in range(graph.n + 1):
        for combo in combinations(range(graph.n), size):
            pairs = list(combinations(combo, 2))
            if any(adj[a, b] == 0.0 for a, b in pairs):
                continue
            w = 0.0
            for a, b in pairs:
                w += adj[a, b]
            if (
                w > best_w
                or (w == best_w and size > best_size)
                or (w == best_w and size == best_size and combo < best_tup)
            ):
                best_w, best_size, best_tup = w, size, combo
    return best_w, best_tup


def reference_visit_order(probs: np.ndarray) -> np.ndarray:
    """The conditional decode's visit order: decreasing p with ties by index."""
    return np.argsort(-probs, kind="stable")


def reference_clique_sweep(graph: Graph, probs: np.ndarray) -> np.ndarray:
    """The clique sweep as a per-node loop: visit nodes in decreasing p (ties
    by index) and keep each one adjacent to every node kept so far."""
    chosen = 0
    adj_count = np.zeros(graph.n, dtype=np.int64)
    mask = np.zeros(graph.n, dtype=bool)
    for i in reference_visit_order(probs):
        if adj_count[i] == chosen:
            mask[i] = True
            chosen += 1
            adj_count[graph.neighbors(int(i))] += 1
    return mask


def reference_greedy_mis_complement(graph: Graph) -> np.ndarray:
    """The greedy baseline on a candidate vector: take the highest-degree
    candidate (ties to the lowest index), then keep only its neighbours."""
    candidates = np.ones(graph.n, dtype=bool)
    mask = np.zeros(graph.n, dtype=bool)
    while candidates.any():
        idx = np.flatnonzero(candidates)
        pick = int(idx[np.argmax(graph.degree[idx])])
        mask[pick] = True
        keep = np.zeros(graph.n, dtype=bool)
        keep[graph.neighbors(pick)] = True
        candidates &= keep
    return mask


def reference_grow_to_maximal(graph: Graph, mask: np.ndarray) -> np.ndarray:
    """Grow a clique by the largest edge weight to the current members (ties
    to the lowest index), recomputed from the adjacency matrix every step."""
    adj = graph.adjacency_matrix()
    mask = mask.copy()
    while True:
        eligible = np.flatnonzero(~mask & ((adj[:, mask] > 0.0).sum(axis=1) == mask.sum()))
        if eligible.size == 0:
            return mask
        gain = adj[np.ix_(eligible, np.flatnonzero(mask))].sum(axis=1)
        mask[eligible[np.argmax(gain)]] = True

import hashlib

import numpy as np
import pytest

from cliquecut import (
    Graph,
    NodeSet,
    brute_force_expectation,
    brute_force_max_clique,
    conductance,
    core_numbers,
    cut_weight,
    disjoint_union,
    graph_digest,
    graphs,
    hop_distances,
    induced,
    is_clique,
    load_dimacs,
    load_edge_list,
    set_weight,
    to_edge_list_text,
    volume,
)
from cliquecut.graphs import GraphFormatError, as_mask

from helpers import (
    complete_graph,
    naive_max_clique,
    path_graph,
    petersen,
    random_graph,
    reference_edge_list_text,
    sparse_planted_clique,
    two_triangles,
)


def test_graph_basic_properties():
    g = complete_graph(3)
    assert g.n == 3
    assert g.num_edges == 3
    assert g.total_weight == 3.0
    assert np.array_equal(g.degree, [2.0, 2.0, 2.0])
    assert sorted(g.neighbors(0).tolist()) == [1, 2]
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert not g.has_edge(0, 0)
    mat = g.adjacency_matrix()
    assert mat[0, 1] == mat[1, 0] == 1.0
    assert mat[0, 0] == 0.0


def test_graph_edge_canonicalization():
    # Endpoints may arrive in either orientation; storage is u < v sorted.
    g = Graph(4, [2, 3, 1], [0, 1, 2], [0.5, 0.25, 1.0])
    assert g.edge_u.tolist() == [0, 1, 1]
    assert g.edge_v.tolist() == [2, 2, 3]
    assert g.edge_w.tolist() == [0.5, 1.0, 0.25]


def test_graph_rejects_bad_input():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(2, [0], [0], [1.0])
    with pytest.raises(ValueError, match="duplicate"):
        Graph(3, [0, 1], [1, 0], [0.5, 0.5])
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, [0], [2], [1.0])
    with pytest.raises(ValueError, match="weights"):
        Graph(2, [0], [1], [0.0])
    with pytest.raises(ValueError, match="weights"):
        Graph(2, [0], [1], [1.5])
    with pytest.raises(ValueError, match="equal length"):
        Graph(2, [0], [1, 0], [1.0])


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_weights_are_rejected(bad):
    with pytest.raises(ValueError, match="weights"):
        Graph(3, [0, 1], [1, 2], [1.0, float(bad)])
    with pytest.raises(GraphFormatError, match=f"line 3: non-finite edge weight {bad}"):
        load_edge_list(f"# nodes 3\n0 1 1\n1 2 {bad}\n")
    with pytest.raises(GraphFormatError, match=f"line 3: non-finite edge weight {bad}"):
        load_dimacs(f"p edge 3 2\ne 1 2\ne 2 3 {bad}\n")


def lexsort_build(n, edge_u, edge_v, edge_w):
    """The two-lexsort build the single-key sorts in Graph replaced, kept as the
    reference: (edge_u, edge_v, edge_w, offsets, targets, weights, rows)."""
    u = np.asarray(edge_u, dtype=np.int64)
    v = np.asarray(edge_v, dtype=np.int64)
    w = np.asarray(edge_w, dtype=np.float64)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((hi, lo))
    lo, hi, w = lo[order], hi[order], w[order]
    dup = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
    if np.any(dup):
        i = int(np.flatnonzero(dup)[0])
        raise ValueError(f"duplicate edge ({lo[i]}, {hi[i]})")
    src, dst, ww = np.concatenate([lo, hi]), np.concatenate([hi, lo]), np.concatenate([w, w])
    adj = np.lexsort((dst, src))
    offsets = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
    return lo, hi, w, offsets, dst[adj], ww[adj], src[adj]


def shuffled_edges(rng, g):
    """g's edges in random order and random orientation."""
    perm = rng.permutation(g.num_edges)
    flip = rng.random(g.num_edges) < 0.5
    u = np.where(flip, g.edge_v, g.edge_u)[perm]
    v = np.where(flip, g.edge_u, g.edge_v)[perm]
    return u, v, g.edge_w[perm]


def test_graph_build_matches_lexsort_reference():
    rng = np.random.default_rng(41)
    cases = [(0, [], [], []), (5, [], [], [])]
    for _ in range(60):
        # Low densities leave isolated nodes, trailing ones included.
        g = random_graph(rng, int(rng.integers(1, 60)), density=float(rng.uniform(0.0, 0.9)), weighted=bool(rng.integers(2)))
        cases.append((g.n, *shuffled_edges(rng, g)))
    cases += [(2, [1], [0], [0.5]), (9, [3], [8], [1.0])]
    # The adjacency sort key narrows to uint8 up to 256 nodes and to uint16 up
    # to 65536: graphs on either side of each width, with edges at the top node.
    for n in (256, 257, 65536, 65537):
        ends = np.concatenate([rng.integers(0, n, size=(400, 2)), [[n - 1, 0], [n - 2, n - 1], [255, n - 1]]])
        ends = np.unique(np.sort(ends[ends[:, 0] != ends[:, 1]], axis=1), axis=0)
        g = Graph(n, ends[:, 0], ends[:, 1], rng.uniform(0.1, 1.0, len(ends)))
        cases += [(n, [n - 1], [n - 2], [1.0]), (n, *shuffled_edges(rng, g))]
    for n, u, v, w in cases:
        g = Graph(n, u, v, w)
        want = lexsort_build(n, u, v, w)
        got = (g.edge_u, g.edge_v, g.edge_w, g.offsets, g.targets, g.weights, g.rows)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert np.array_equal(g.degree, np.bincount(want[6], weights=want[5], minlength=n))


def test_graph_names_the_same_duplicate_as_the_reference():
    rng = np.random.default_rng(42)
    for _ in range(40):
        g = random_graph(rng, int(rng.integers(3, 30)), density=0.5)
        if g.num_edges == 0:
            continue
        u, v, w = shuffled_edges(rng, g)
        extra = rng.choice(g.num_edges, int(rng.integers(1, 4)))
        # Repeat some edges, in either orientation, at random positions.
        u, v, w = np.concatenate([u, v[extra]]), np.concatenate([v, u[extra]]), np.concatenate([w, w[extra]])
        perm = rng.permutation(u.size)
        u, v, w = u[perm], v[perm], w[perm]
        with pytest.raises(ValueError) as want:
            lexsort_build(g.n, u, v, w)
        with pytest.raises(ValueError) as got:
            Graph(g.n, u, v, w)
        assert str(got.value) == str(want.value)


def test_graph_caps_the_node_count(monkeypatch):
    monkeypatch.setattr(graphs, "MAX_NODES", 10)
    assert Graph(10, [0], [9], [1.0]).n == 10
    with pytest.raises(ValueError, match="11 nodes exceed the limit of 10"):
        Graph(11, [0], [1], [1.0])
    with pytest.raises(ValueError, match="non-negative"):
        Graph(-1, [], [], [])


def test_graph_arrays_immutable():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        g.degree[0] = 5.0
    with pytest.raises(ValueError):
        g.edge_w[0] = 0.1


def test_empty_and_edgeless_graphs():
    empty = Graph(0, [], [], [])
    assert empty.n == 0 and empty.num_edges == 0
    lonely = Graph(3, [], [], [])
    assert lonely.total_weight == 0.0
    assert np.array_equal(lonely.degree, np.zeros(3))


def test_node_set():
    g = two_triangles()
    s = NodeSet.from_indices(g, [2, 0, 1])
    assert len(s) == 3
    assert s.volume == 7.0
    assert 0 in s and 3 not in s
    assert s.indices().tolist() == [0, 1, 2]
    same = NodeSet.from_mask(g, np.array([True, True, True, False, False, False]))
    assert np.array_equal(same.mask, s.mask)
    with pytest.raises(ValueError, match="out of range"):
        NodeSet.from_indices(g, [6])
    with pytest.raises(ValueError, match="must be integers"):
        NodeSet.from_indices(g, [1.5])
    assert NodeSet.from_indices(g, []).size == 0


def test_as_mask_coercions():
    assert as_mask(3, [0, 2]).tolist() == [True, False, True]
    assert as_mask(2, np.array([True, False])).tolist() == [True, False]
    with pytest.raises(ValueError, match="shape"):
        as_mask(3, np.array([True, False]))
    with pytest.raises(ValueError, match="out of range"):
        as_mask(3, [3])
    assert not as_mask(3, []).any()
    path = path_graph(3)
    # A set or a generator of indices gives the result of the equal list.
    g = two_triangles()
    for members in ([0, 1, 2], [1, 2, 3]):
        for evaluate in (set_weight, cut_weight, volume, is_clique, conductance):
            want = evaluate(g, members)
            got = evaluate(g, set(members[::-1])), evaluate(g, (i for i in members))
            assert got == (want, want), (evaluate.__name__, members)
        want, want_index = induced(g, members)
        for iterable in (set(members[::-1]), (i for i in members)):
            sub, index = induced(g, iterable)
            assert index.tolist() == want_index.tolist()
            assert (sub.n, sub.edge_u.tolist(), sub.edge_v.tolist(), sub.edge_w.tolist()) == (
                want.n, want.edge_u.tolist(), want.edge_v.tolist(), want.edge_w.tolist()
            )
    assert not as_mask(3, set()).any()
    for fractional in ([0.9, 1.2], np.array([1.9]), [0, 1.0]):
        with pytest.raises(ValueError, match="must be integers, got dtype float64"):
            as_mask(3, fractional)
        with pytest.raises(ValueError, match="must be integers"):
            set_weight(path, fractional)
        with pytest.raises(ValueError, match="must be integers"):
            volume(path, fractional)


def test_set_evaluations_hand_values():
    g = two_triangles()
    left = [0, 1, 2]
    assert set_weight(g, left) == 3.0
    assert cut_weight(g, left) == 1.0
    assert volume(g, left) == 7.0
    assert conductance(g, left) == pytest.approx(1.0 / 7.0)
    assert conductance(g, [0]) == pytest.approx(1.0)  # cut 2 / vol 2
    assert cut_weight(g, [0, 1, 2, 3, 4, 5]) == 0.0
    assert set_weight(g, []) == 0.0


def test_conductance_undefined_cases():
    g = Graph(3, [0], [1], [1.0])  # node 2 isolated
    with pytest.raises(ValueError, match="empty"):
        conductance(g, [])
    with pytest.raises(ValueError, match="zero-volume"):
        conductance(g, [2])


def test_is_clique():
    g = complete_graph(4)
    assert is_clique(g, [0, 1, 2, 3])
    assert is_clique(g, [])
    assert is_clique(g, [2])
    broken = Graph(4, [0, 0, 1, 1, 2], [1, 2, 2, 3, 3], np.ones(5))  # K4 minus 0-3
    assert is_clique(broken, [0, 1, 2])
    assert not is_clique(broken, [0, 1, 2, 3])


def test_hop_distances():
    g = petersen()
    d = hop_distances(g, 0)
    assert d[0] == 0
    assert sorted(np.flatnonzero(d == 1).tolist()) == [1, 4, 5]
    assert (d <= 2).all()  # Petersen has diameter 2
    parts = Graph(4, [0], [1], [1.0])
    d2 = hop_distances(parts, 0)
    assert d2.tolist() == [0, 1, 5, 5]  # unreachable marked n + 1
    with pytest.raises(ValueError, match="out of range"):
        hop_distances(g, 10)


def reference_hop_distances(graph, source):
    """BFS as it was before the level-synchronous one: one neighbour at a time."""
    dist = np.full(graph.n, graph.n + 1, dtype=np.int64)
    dist[source] = 0
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for u in frontier:
            for v in graph.neighbors(u):
                if dist[v] > graph.n:
                    dist[v] = level
                    nxt.append(int(v))
        frontier = nxt
    return dist


def components_graph(rng, sizes, isolated):
    """Disjoint random graphs plus isolated nodes, with node labels shuffled."""
    us, vs, base = [], [], 0
    for size in sizes:
        part = random_graph(rng, size, density=0.3)
        us.append(part.edge_u + base)
        vs.append(part.edge_v + base)
        base += size
    n = base + isolated
    label = rng.permutation(n)
    u, v = np.concatenate(us), np.concatenate(vs)
    return Graph(n, label[u], label[v], np.ones(u.size))


def test_hop_distances_match_per_neighbor_bfs():
    rng = np.random.default_rng(47)
    cases = [components_graph(rng, [int(k) for k in rng.integers(2, 15, size=3)], 2) for _ in range(6)]
    cases += [path_graph(9), Graph(1, [], [], []), Graph(4, [1], [2], [1.0])]
    # Frontiers far smaller than n take the sorted branch, and those of the
    # sparse graph grow from it into the marked one.
    cases += [path_graph(300), sparse_planted_clique(rng, 2000, 6, 3)[0]]
    for g in cases:
        for source in range(g.n) if g.n < 100 else rng.choice(g.n, 5, replace=False).tolist():
            got = hop_distances(g, source)
            assert got.dtype == np.int64
            assert np.array_equal(got, reference_hop_distances(g, source))
    assert hop_distances(path_graph(9), 0).tolist() == list(range(9))


def reference_core_numbers(graph: Graph) -> list[int]:
    """Batagelj-Zaversnik one node at a time: remove a node of least remaining degree."""
    degree = [int(d) for d in np.diff(graph.offsets)]
    removed = [False] * graph.n
    core = [0] * graph.n
    k = 0
    for _ in range(graph.n):
        v = min((i for i in range(graph.n) if not removed[i]), key=lambda i: degree[i])
        k = max(k, degree[v])
        core[v] = k
        removed[v] = True
        for u in graph.neighbors(v).tolist():
            if not removed[u]:
                degree[u] -= 1
    return core


def test_core_numbers_match_reference_peel():
    rng = np.random.default_rng(41)
    cases = [Graph(0, [], [], []), Graph(5, [], [], []), Graph(6, [1], [4], [0.5])]
    cases += [path_graph(7), complete_graph(6), petersen(), two_triangles()]
    cases.append(Graph(9, np.zeros(8, dtype=np.int64), np.arange(1, 9), np.ones(8)))  # star
    # K2..K12 side by side: 77 nodes on 11 levels, so the smallest live degree jumps.
    cases.append(disjoint_union([complete_graph(k) for k in range(2, 13)])[0])
    # K5 with pendant paths of 1, 2 and 3 edges: level 1 peels each path from its leaf inward, a node a round.
    k5 = complete_graph(5)
    cases.append(Graph(11, np.r_[k5.edge_u, 0, 1, 6, 2, 8, 9], np.r_[k5.edge_v, 5, 6, 7, 8, 9, 10], np.ones(16)))
    for _ in range(40):
        n = int(rng.integers(1, 45))
        cases.append(random_graph(rng, n, density=float(rng.uniform(0.0, 0.6)), weighted=True))
    cases.append(sparse_planted_clique(rng, 300, 9, 4)[0])
    for g in cases:
        cores = core_numbers(g)
        assert cores.dtype == np.int64 and cores.shape == (g.n,)
        assert cores.tolist() == reference_core_numbers(g)


def test_core_numbers_known_values():
    assert core_numbers(path_graph(5)).tolist() == [1] * 5
    assert core_numbers(complete_graph(5)).tolist() == [4] * 5
    star = Graph(6, np.zeros(5, dtype=np.int64), np.arange(1, 6), np.ones(5))
    assert core_numbers(star).tolist() == [1] * 6
    # K4 on {0..3} with a pendant path 3-4-5 and an isolated node 6.
    k4 = complete_graph(4)
    g = Graph(7, np.r_[k4.edge_u, 3, 4], np.r_[k4.edge_v, 4, 5], np.ones(8))
    assert core_numbers(g).tolist() == [3, 3, 3, 3, 1, 1, 0]
    g, planted = sparse_planted_clique(np.random.default_rng(3), 2000, 12, 4)
    assert core_numbers(g)[planted].tolist() == [11] * 12


def test_induced_subgraph():
    g = random_graph(np.random.default_rng(12), 30, density=0.3, weighted=True)
    nodes = [17, 3, 29, 8, 3, 11, 20]
    sub, index = induced(g, nodes)
    assert index.tolist() == [3, 8, 11, 17, 20, 29]
    assert sub.n == 6
    dense, sub_dense = g.adjacency_matrix(), sub.adjacency_matrix()
    assert np.array_equal(sub_dense, dense[np.ix_(index, index)])
    # Every edge between two members is kept, with its weight, and no other.
    inside = np.isin(g.edge_u, index) & np.isin(g.edge_v, index)
    assert sub.num_edges == int(inside.sum())
    assert sub.total_weight == pytest.approx(float(g.edge_w[inside].sum()))
    mask = np.zeros(g.n, dtype=bool)
    mask[index] = True
    sub_mask, same = induced(g, mask)
    assert np.array_equal(same, index) and np.array_equal(sub_mask.edge_w, sub.edge_w)
    empty, none = induced(g, [])
    assert empty.n == 0 and none.size == 0
    whole, identity = induced(g, np.ones(g.n, dtype=bool))
    assert np.array_equal(identity, np.arange(g.n)) and graph_digest(whole) == graph_digest(g)


def test_disjoint_union_shifts_each_part():
    rng = np.random.default_rng(13)
    parts = [random_graph(rng, 12, 0.4, weighted=True), Graph(3, [], [], []), complete_graph(4, 0.5), path_graph(5)]
    union, offsets = disjoint_union(parts)
    assert offsets.tolist() == [0, 12, 15, 19, 24] and union.n == 24
    assert union.num_edges == sum(g.num_edges for g in parts)
    for i, g in enumerate(parts):
        lo = offsets[i]
        sub, index = induced(union, np.arange(lo, offsets[i + 1]))
        assert graph_digest(sub) == graph_digest(g)
        # Every node keeps its adjacency, in its order, shifted by the part's offset.
        rows = slice(union.offsets[lo], union.offsets[offsets[i + 1]])
        assert np.array_equal(union.rows[rows], g.rows + lo)
        assert np.array_equal(union.targets[rows], g.targets + lo)
        assert np.array_equal(union.weights[rows], g.weights)
    empty, none = disjoint_union([])
    assert empty.n == 0 and none.tolist() == [0]


def serialized_digest(g: Graph) -> str:
    """graph_digest as it is defined: the SHA-256 of the graph's canonical text."""
    return hashlib.sha256(to_edge_list_text(g).encode()).hexdigest()


def load_edge_list_by_lines(text: str, **kwargs) -> Graph:
    """The edge-list loader with its canonical-text fast path turned off."""
    fast = graphs._load_canonical_edge_list
    graphs._load_canonical_edge_list = lambda *args: None
    try:
        return load_edge_list(text, **kwargs)
    finally:
        graphs._load_canonical_edge_list = fast


@pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
def test_canonical_edge_list_fast_path_matches_line_loop(tmp_path, weighted):
    g, _ = sparse_planted_clique(np.random.default_rng(8 + weighted), 4000, 10, 8)
    if weighted:
        g = Graph(g.n, g.edge_u, g.edge_v, np.random.default_rng(1).uniform(1e-6, 1.0, g.num_edges))
    path = tmp_path / "g.edges"
    path.write_text(to_edge_list_text(g), encoding="utf-8")
    text = path.read_text(encoding="utf-8")
    assert graphs._load_canonical_edge_list(text, 0, None) is not None
    fast, slow = graphs.load_edge_list_file(path), load_edge_list_by_lines(text)
    # The canonical text pins the digest as it is read: the hash of that text.
    assert fast._digest == hashlib.sha256(text.encode()).hexdigest() == serialized_digest(fast)
    assert slow._digest is None
    for name in ("offsets", "targets", "weights", "rows", "edge_u", "edge_v", "edge_w", "degree"):
        assert np.array_equal(getattr(fast, name), getattr(slow, name)), name
        assert getattr(fast, name).dtype == getattr(slow, name).dtype, name
    assert fast.n == slow.n == g.n and fast.total_weight == slow.total_weight
    assert graph_digest(fast) == graph_digest(slow) == graph_digest(g)
    # The same text without the node-count header, and shifted to index base 1:
    # the fast path parses both, but neither is the canonical text.
    body = text.partition("\n")[2]
    shifted = "".join(f"{int(u) + 1} {int(v) + 1} {w}\n" for u, v, w in (line.split() for line in body.splitlines()))
    for other in (load_edge_list(body), load_edge_list(shifted, index_base=1)):
        assert other._digest is None
        assert graph_digest(other) == serialized_digest(other) == graph_digest(load_edge_list_by_lines(body))


def test_a_loaded_graph_is_serialized_at_most_once(tmp_path, monkeypatch):
    g, _ = sparse_planted_clique(np.random.default_rng(2), 500, 8, 6)
    text = to_edge_list_text(g)
    digest = hashlib.sha256(text.encode()).hexdigest()
    path = tmp_path / "g.edges"
    path.write_text(text, encoding="utf-8")
    body = text.partition("\n")[2]
    shifted = "".join(f"{int(u) + 1} {int(v) + 1} {w}\n" for u, v, w in (line.split() for line in body.splitlines()))
    calls = []
    write = graphs.to_edge_list_text
    monkeypatch.setattr(graphs, "to_edge_list_text", lambda graph: calls.append(graph) or write(graph))
    # The canonical file is written once, by the loader's check, and the digest reuses it.
    loaded = graphs.load_edge_list_file(path)
    assert graph_digest(loaded) == graph_digest(loaded) == digest
    assert calls == [loaded]
    # The same graph from a text without the header, or in index base 1, is
    # not written at load; the first digest writes it, the second reuses that.
    for other, index_base in ((body, 0), (shifted, 1)):
        calls.clear()
        graph = load_edge_list(other, index_base=index_base)
        assert calls == []
        assert graph_digest(graph) == graph_digest(graph) == digest
        assert calls == [graph]


@pytest.mark.parametrize(
    "text",
    [
        "0 1 0.5\n1 2 0\n2 3 4\n",  # a dropped zero weight, a rescale by the largest weight
        "# nodes 9\n0 1 1.0\n",  # trailing isolated nodes
        "# nodes 3\n",
        "",
        "0 1 1.0\n0 1 1.0\n",  # duplicate edge
        "# nodes 2\n0 5 1.0\n",  # endpoint beyond the pinned count
        "0 1 1.0\n2 2 1.0\n",  # self-loop
        "0 1 1.0\n1 2 -0.5\n",
        "0 1 1.0\n1 2 nan\n",
        "0 1 1e400\n",
        "0 1.0 1\n",
        "0 -1 1\n",
        "0 1 1.0",  # no final newline
        "0  1 1.0\n",
        "0 1\n1 2 1.0 7\n",
        "#nodes 4\n0 1 1.0\n",
        "0 1 1.0\n# nodes 4\n",
        "0 1 1.0\r\n",
        "0 99999999999999999999 1.0\n",
        # Texts the fast path parses that are not the canonical text of their graph.
        "# nodes 3\n+0 1 1.0\n",
        "# nodes 6\n01 05 1.0\n",
        "# nodes 3\n-0 1 1.0\n",
        "# nodes 03\n0 1 1.0\n",
        "# nodes 3\n0 1 .5\n",
        "# nodes 3\n0 1 .50\n",
        "# nodes 3\n0 1 1.\n",
        "# nodes 3\n0 1 1\n",
        "# nodes 3\n0 1 1e0\n",
        "# nodes 3\n0 1 1.00\n",
        "# nodes 3\n0 1 +1.0\n",
        "# nodes 3\n0 1 0.1000000000000000055511151231257827\n",
        "# nodes 3\n1 2 1.0\n0 1 1.0\n",
        "# nodes 3\n1 0 1.0\n",
        "# nodes 3\r\n0 1 1.0\r\n1 2 0.5\r\n",
        "0 1 1.0\n1 2 0.5\n",
        # Canonical texts, whose digest is the hash of the text itself.
        "# nodes 3\n0 1 1.0\n1 2 0.5\n",
        "# nodes 12\n0 1 1e-05\n0 11 5e-324\n10 11 0.30000000000000004\n",
    ],
)
def test_edge_list_fast_path_keeps_results_and_errors(text):
    for index_base in (0, 1):
        try:
            want = load_edge_list_by_lines(text, index_base=index_base)
        except ValueError as exc:
            with pytest.raises(type(exc)) as got:
                load_edge_list(text, index_base=index_base)
            assert str(got.value) == str(exc)
            continue
        got = load_edge_list(text, index_base=index_base)
        # Only the canonical text pins the digest while loading (an edgeless
        # graph's is hashed when asked for: the fast path needs an edge line).
        canonical = index_base == 0 and text == to_edge_list_text(want) and want.num_edges > 0
        assert (got._digest is not None) == canonical
        assert got.n == want.n and graph_digest(got) == graph_digest(want) == serialized_digest(want)


def test_loading_canonical_text_keeps_pinned_digests():
    for _, args, digest in PINNED_DIGESTS:
        loaded = load_edge_list(to_edge_list_text(Graph(*args)))
        assert graph_digest(loaded) == digest


def test_edge_list_round_trip():
    g = Graph(5, [0, 1, 3], [1, 2, 4], [1.0, 0.5, 0.125])
    text = to_edge_list_text(g)
    back = load_edge_list(text)
    assert back.n == 5
    assert np.array_equal(back.edge_u, g.edge_u)
    assert np.array_equal(back.edge_w, g.edge_w)
    assert graph_digest(back) == graph_digest(g)


def test_edge_list_header_preserves_isolated_nodes():
    g = load_edge_list("# nodes 4\n0 1\n")
    assert g.n == 4
    assert g.num_edges == 1


def test_edge_list_parsing_rules():
    g = load_edge_list("1 2\n2 3 0.5\n", index_base=1)
    assert g.n == 3
    assert g.has_edge(0, 1) and g.has_edge(1, 2)

    dropped = load_edge_list("0 1 1\n1 2 0\n")
    assert dropped.num_edges == 1

    scaled = load_edge_list("0 1 2\n1 2 4\n")
    assert scaled.edge_w.tolist() == [0.5, 1.0]

    with pytest.raises(GraphFormatError, match="negative edge weight"):
        load_edge_list("0 1 -1\n")
    with pytest.raises(GraphFormatError, match="self-loop"):
        load_edge_list("3 3\n")
    with pytest.raises(GraphFormatError, match="cannot parse"):
        load_edge_list("0 x\n")
    with pytest.raises(GraphFormatError, match="index base"):
        load_edge_list("0 1\n", index_base=1)
    with pytest.raises(ValueError, match="index_base"):
        load_edge_list("0 1\n", index_base=2)
    # A field after the weight is an error naming its line, not ignored.
    with pytest.raises(GraphFormatError, match="line 1: extra field '9' after the edge weight"):
        load_edge_list("0 1 0.5 9\n1 2 1 junk\n")
    with pytest.raises(GraphFormatError, match="line 2: extra field 'junk' after the edge weight"):
        load_edge_list("# nodes 3\n1 2 1 junk\n")


def test_dimacs_parsing():
    text = "c a comment\np edge 4 3\ne 1 2\ne 2 3 0.5\ne 3 4\n"
    g = load_dimacs(text)
    assert g.n == 4
    assert g.num_edges == 3
    assert g.has_edge(0, 1)
    assert g.adjacency_matrix()[1, 2] == 0.5

    with pytest.raises(GraphFormatError, match="declares 2 edges, found 1"):
        load_dimacs("p edge 3 2\ne 1 2\n")
    with pytest.raises(GraphFormatError):
        load_dimacs("e 1 2\n")  # edge before header
    with pytest.raises(GraphFormatError, match="line 2: extra field '7' after the edge weight"):
        load_dimacs("p edge 3 2\ne 1 2 0.5 7\ne 2 3\n")
    # A zero-weight record counts toward the header's m, then is dropped.
    assert load_dimacs("p edge 3 2\ne 1 2 0\ne 2 3\n").num_edges == 1
    with pytest.raises(GraphFormatError, match="declares 3 edges, found 2"):
        load_dimacs("p edge 3 3\ne 1 2\ne 2 3\n")
    # Weights above 1 are rescaled as the edge-list loader rescales them.
    rescaled = load_dimacs("p edge 3 2\ne 1 2 4\ne 2 3 2\n").edge_w
    assert np.array_equal(rescaled.view(np.int64), load_edge_list("0 1 4\n1 2 2\n").edge_w.view(np.int64))
    assert rescaled.tolist() == [1.0, 0.5]
    # Zero-weight records are dropped before the rescale, as the edge-list loader drops them.
    mixed = load_dimacs("p edge 4 3\ne 1 2 4\ne 2 3 0\ne 3 4 2\n")
    same = load_edge_list("0 1 4\n1 2 0\n2 3 2\n")
    assert mixed.n == same.n == 4
    for name in ("edge_u", "edge_v", "edge_w"):
        assert np.array_equal(getattr(mixed, name).view(np.int64), getattr(same, name).view(np.int64))


def test_loaders_cap_the_node_count(monkeypatch):
    monkeypatch.setattr(graphs, "MAX_NODES", 10)
    assert load_edge_list("0 9\n").n == 10
    assert load_edge_list("# nodes 10\n0 1\n").n == 10
    assert load_dimacs("p edge 10 1\ne 1 10\n").n == 10
    with pytest.raises(GraphFormatError, match="line 2: 11 nodes exceed the limit of 10"):
        load_edge_list("0 1\n0 10\n")
    with pytest.raises(GraphFormatError, match="line 1: 11 nodes exceed"):
        load_edge_list("11 1\n", index_base=1)
    with pytest.raises(GraphFormatError, match="line 2: 50 nodes exceed"):
        load_edge_list("0 1\n# nodes 50\n")
    with pytest.raises(GraphFormatError, match="line 2: 50 nodes exceed"):
        load_dimacs("c big\np edge 50 0\n")
    with pytest.raises(GraphFormatError, match="line 1: node count must be non-negative"):
        load_edge_list("# nodes -1\n")
    with pytest.raises(GraphFormatError, match="line 1: node count must be non-negative"):
        load_dimacs("p edge -1 0\n")


# sha256 of to_edge_list_text, recorded before the serializer was rewritten.
# Saved manifests hold these digests, so one moved byte breaks every saved corpus.
PINNED_DIGESTS = [
    ("unit", (5, [0, 1, 2, 3, 0], [1, 2, 3, 4, 4], [1.0] * 5),
     "f9b0e0bcc6d1c7547399f6ead3e9b5f8f24ebd22f76901c1d2f7f4dd4f6aa5dc"),
    ("odd-weights", (4, [0, 1, 2, 0], [1, 2, 3, 3], [0.1, 1 / 3, 2**-1074, 0.30000000000000004]),
     "7621202f2ef930cfc0d8a58043a46ec57ea64408f4218626137d55f5f84eef10"),
    ("trailing-isolated", (7, [1, 0], [2, 1], [0.5, 1.0]),
     "a1e51e9541d1bfb11a03d9c798d13c34d2f6a1912d8c3065953d6012e6ebd575"),
    ("edgeless", (3, [], [], []), "adae05b6d3307c219b86191956fe5875a51aeeaf414cf64ec491297f8788ccb9"),
    ("empty", (0, [], [], []), "997df4b8894a6c3924c51e395aa85107b8c970c1a14ee3827d8c4ed775834428"),
]


@pytest.mark.parametrize("args, digest", [case[1:] for case in PINNED_DIGESTS], ids=[case[0] for case in PINNED_DIGESTS])
def test_canonical_text_digest_is_pinned(args, digest):
    g = Graph(*args)
    assert hashlib.sha256(to_edge_list_text(g).encode()).hexdigest() == digest
    assert graph_digest(g) == digest


def test_canonical_text_matches_per_edge_formatting():
    rng = np.random.default_rng(8)
    g = random_graph(rng, 300, density=0.05)
    weights = rng.random(g.num_edges)
    weights[weights == 0.0] = 1.0
    weights[::7] = 0.5  # repeated weights next to distinct ones
    weighted = Graph(g.n, g.edge_v, g.edge_u, weights)
    sparse, _ = sparse_planted_clique(np.random.default_rng(1), 4000, 45, 8)
    for graph in (g, weighted, sparse):
        assert to_edge_list_text(graph) == reference_edge_list_text(graph)


# Weights whose reprs are 3 to 19 characters long: a subnormal, an exponent,
# a decimal, a sum that is not its decimal, and the unit weight.
ODD_WEIGHTS = [5e-324, 1e-05, 0.1, 0.30000000000000004, 1.0]


@pytest.mark.parametrize("n", [0, 1, 2, 9, 10, 11, 99, 100, 101, 1000, 2**24])
def test_edge_list_writer_matches_reference_at_every_id_width(n):
    """Ids of one to eight digits, next to ids of fewer in the same column, and every weight shape."""
    rng = np.random.default_rng(n)
    cases = [Graph(n, [], [], [])]
    if n >= 2:
        # Edges at both ends of the id range, then random pairs.
        a = np.concatenate([[0, 0, n - 2], rng.integers(0, n, 40)])
        b = np.concatenate([[1, n - 1, n - 1], rng.integers(0, n, 40)])
        keys = np.unique((np.minimum(a, b) * n + np.maximum(a, b))[a != b])
        u, v = keys // n, keys % n
        distinct = rng.uniform(1e-9, 1.0, keys.size)
        distinct[: len(ODD_WEIGHTS)] = ODD_WEIGHTS[: keys.size]
        for w in (np.ones(keys.size), np.resize(ODD_WEIGHTS, keys.size), distinct):
            cases.append(Graph(n, u, v, w))
    for graph in cases:
        assert to_edge_list_text(graph) == reference_edge_list_text(graph)


def test_digest_tracks_content():
    g1 = Graph(3, [0, 1], [1, 2], [1.0, 1.0])
    g2 = Graph(3, [0, 1], [1, 2], [1.0, 0.5])
    g3 = Graph(4, [0, 1], [1, 2], [1.0, 1.0])
    assert graph_digest(g1) != graph_digest(g2)
    assert graph_digest(g1) != graph_digest(g3)
    assert len(graph_digest(g1)) == 64


def test_brute_force_known_answers():
    broken = Graph(4, [0, 0, 1, 1, 2], [1, 2, 2, 3, 3], np.ones(5))  # K4 minus 0-3
    best = brute_force_max_clique(broken)
    assert best.indices().tolist() == [0, 1, 2]  # lex-smallest of the two triangles

    # Weight beats size: one heavy edge against a light triangle.
    g = Graph(5, [0, 1, 2, 2, 3], [1, 2, 0, 3, 4], [0.2, 0.2, 0.2, 1.0, 0.9])
    best = brute_force_max_clique(g)
    assert best.indices().tolist() == [2, 3]

    # Equal weight: the larger set wins (exact binary fractions, no rounding).
    g = Graph(5, [0, 0, 1, 3], [1, 2, 2, 4], [0.25, 0.25, 0.5, 1.0])
    best = brute_force_max_clique(g)
    assert best.indices().tolist() == [0, 1, 2]


def test_brute_force_edge_cases():
    lonely = Graph(3, [], [], [])
    assert brute_force_max_clique(lonely).indices().tolist() == [0]
    with pytest.raises(ValueError, match="empty"):
        brute_force_max_clique(Graph(0, [], [], []))
    with pytest.raises(ValueError, match="limit"):
        brute_force_max_clique(complete_graph(4), node_limit=3)


def test_brute_force_matches_naive_enumeration():
    rng = np.random.default_rng(42)
    for trial in range(30):
        n = int(rng.integers(1, 10))
        g = random_graph(rng, n, density=0.5, weighted=bool(trial % 2))
        w_ref, tup_ref = naive_max_clique(g)
        best = brute_force_max_clique(g)
        assert best.indices().tolist() == list(tup_ref)
        assert set_weight(g, best.mask) == w_ref


def test_exact_expectation_closed_forms():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        g = random_graph(rng, n, density=0.6, weighted=True)
        p = rng.random(n)
        e_weight = float(np.sum(g.edge_w * p[g.edge_u] * p[g.edge_v]))
        e_vol = float(g.degree @ p)
        e_cut = float(
            np.sum(g.edge_w * (p[g.edge_u] + p[g.edge_v] - 2.0 * p[g.edge_u] * p[g.edge_v]))
        )
        assert brute_force_expectation(g, p, "set_weight") == pytest.approx(e_weight, rel=1e-12)
        assert brute_force_expectation(g, p, "volume") == pytest.approx(e_vol, rel=1e-12)
        assert brute_force_expectation(g, p, "cut_weight") == pytest.approx(e_cut, rel=1e-12)


def test_exact_expectation_clique_objectives():
    k3 = complete_graph(3)
    assert brute_force_expectation(k3, [1.0, 1.0, 0.3], "clique_indicator") == pytest.approx(1.0)
    p3 = path_graph(3)
    # Non-clique subsets are {0, 2} and {0, 1, 2}, each with probability 1/8.
    assert brute_force_expectation(p3, [0.5, 0.5, 0.5], "clique_indicator") == pytest.approx(0.75)
    # Penalty at the all-ones point on a path: 2 - 2 + 4 * 1.
    assert brute_force_expectation(
        p3, [1.0, 1.0, 1.0], "penalty", gamma=2.0, beta=4.0
    ) == pytest.approx(4.0)
    # complement weight of a present non-edge pair
    assert brute_force_expectation(p3, [1.0, 0.0, 1.0], "complement_weight") == pytest.approx(1.0)


def test_exact_expectation_input_validation():
    g = complete_graph(3)
    with pytest.raises(ValueError, match="unknown objective"):
        brute_force_expectation(g, [0.5] * 3, "parity")
    with pytest.raises(ValueError, match="gamma and beta"):
        brute_force_expectation(g, [0.5] * 3, "penalty")
    with pytest.raises(ValueError, match="shape"):
        brute_force_expectation(g, [0.5, 0.5], "volume")
    with pytest.raises(ValueError, match="lie in"):
        brute_force_expectation(g, [0.5, 0.5, 1.5], "volume")
    with pytest.raises(ValueError, match="limit"):
        brute_force_expectation(complete_graph(5), [0.5] * 5, "volume", node_limit=4)

import numpy as np
import pytest

from cliquecut import (
    CliqueLossParams,
    CliqueLossSpec,
    CliquePenaltyObjective,
    CutObjective,
    Graph,
    VolumeConstraint,
    clique_loss,
    conductance,
    cut_weight,
    decode_best_of_k,
    decode_clique_sweep,
    decode_conditional,
    decode_cut_with_volume,
    decode_maxcut_half,
    expected_cut,
    grow_to_maximal,
    is_clique,
    set_weight,
    volume,
)
from cliquecut.distributions import _penalty_value
from cliquecut.solver import greedy_mis_complement

from helpers import (
    complete_graph,
    path_graph,
    random_graph,
    reference_clique_sweep,
    reference_greedy_mis_complement,
    reference_grow_to_maximal,
    reference_neighbor_sums,
    reference_visit_order,
    two_triangles,
)


def _clique_objective(graph, gamma=None, beta=None):
    params = CliqueLossParams.for_graph(graph, gamma=gamma, beta=beta)
    return CliquePenaltyObjective(graph, params), params


def test_visit_orders():
    g = path_graph(4)
    p = np.array([0.5, 0.9, 0.5, 0.1])

    def visit(order):
        return decode_conditional(g, p, CutObjective(g), order=order)[1].visit_order.tolist()

    assert visit("prob") == [1, 0, 2, 3]
    assert visit("index") == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="unknown visit order"):
        visit("random")


def test_conditional_path_monotone_and_consistent():
    rng = np.random.default_rng(42)
    for trial in range(40):
        n = int(rng.integers(2, 15))
        g = random_graph(rng, n, density=0.4, weighted=True)
        p = rng.random(n)
        objective, params = _clique_objective(g)
        members, trace = decode_conditional(g, p, objective)
        path = trace.expectation_path
        assert path.shape == (n + 1,)
        assert path[0] == clique_loss(g, p, params).value
        assert np.all(np.diff(path) <= 1e-9)
        # Final entry is the loss of the integral indicator.
        ind = np.zeros(n)
        ind[list(members.indices())] = 1.0
        assert path[-1] == pytest.approx(clique_loss(g, ind, params).value, abs=1e-9)


def test_conditional_integral_input_returns_support():
    g = two_triangles()
    p = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    objective, _ = _clique_objective(g)
    members, trace = decode_conditional(g, p, objective)
    assert sorted(members.indices()) == [0, 2, 4]
    assert trace.expectation_path[0] == pytest.approx(trace.expectation_path[-1])


def test_conditional_trace_json():
    g = complete_graph(3)
    objective, _ = _clique_objective(g)
    _, trace = decode_conditional(g, np.array([0.9, 0.5, 0.1]), objective)
    data = trace.to_json()
    assert data["visit_order"] == [0, 1, 2]
    assert len(data["decisions"]) == 3
    assert len(data["expectation_path"]) == 4
    assert all(isinstance(v, float) for v in data["expectation_path"])


def test_maxcut_half_guarantee():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(2, 20))
        g = random_graph(rng, n, density=0.4, weighted=True)
        if g.num_edges == 0:
            continue
        side = decode_maxcut_half(g)
        assert cut_weight(g, side) >= 0.5 * g.total_weight - 1e-9


def test_maxcut_half_even_cycle_is_exact():
    # 4-cycle: alternating sides cut all four edges.
    g = Graph(4, [0, 1, 2, 0], [1, 2, 3, 3], [1.0] * 4)
    side = decode_maxcut_half(g)
    assert cut_weight(g, side) == pytest.approx(4.0)


def test_sweep_always_returns_clique():
    rng = np.random.default_rng(13)
    for _ in range(60):
        n = int(rng.integers(1, 20))
        g = random_graph(rng, n, density=0.5, weighted=True)
        p = rng.random(n)
        members = decode_clique_sweep(g, p)
        assert is_clique(g, members)
        _assert_maximal(g, members.mask)


def _assert_maximal(graph, mask):
    """No node outside the clique mask is adjacent to all its members."""
    adj = graph.adjacency_matrix() > 0.0
    outside = np.flatnonzero(~mask)
    assert not np.any(adj[np.ix_(outside, np.flatnonzero(mask))].all(axis=1))


def test_greedy_clique_loops_match_references():
    # The sweep, the polish and the greedy baseline share one loop; each
    # must return the set its own reference loop returns, mask for mask.
    rng = np.random.default_rng(71)
    graphs = [Graph(1, [], [], []), Graph(5, [], [], []), complete_graph(4), two_triangles()]
    for trial in range(120):
        n = int(rng.integers(1, 30))
        graphs.append(random_graph(rng, n, density=float(rng.uniform(0.1, 0.9)), weighted=trial % 2 == 1))
    for g in graphs:
        for p in (np.round(rng.random(g.n), 1), np.full(g.n, 0.5), rng.random(g.n)):
            sweep = decode_clique_sweep(g, p).mask
            np.testing.assert_array_equal(sweep, reference_clique_sweep(g, p))
            _assert_maximal(g, sweep)
            # Any subset of a clique is a clique to grow from.
            seed = sweep & (rng.random(g.n) < 0.5)
            np.testing.assert_array_equal(grow_to_maximal(g, seed).mask, reference_grow_to_maximal(g, seed))
        baseline = greedy_mis_complement(g).mask
        np.testing.assert_array_equal(baseline, reference_greedy_mis_complement(g))
        _assert_maximal(g, baseline)


def test_sweep_known_example():
    # Triangle 0-1-2 plus a pendant 3 attached to 0.  Starting from the
    # pendant's side the sweep keeps {3, 0} and must reject 1 and 2.
    g = Graph(4, [0, 0, 1, 0], [1, 2, 2, 3], [1.0] * 4)
    members = decode_clique_sweep(g, np.array([0.8, 0.7, 0.6, 0.9]))
    assert sorted(members.indices()) == [0, 3]
    # Tilted toward the triangle instead.
    members = decode_clique_sweep(g, np.array([0.9, 0.8, 0.7, 0.1]))
    assert sorted(members.indices()) == [0, 1, 2]


def test_grow_to_maximal():
    g = complete_graph(5, weight=0.5)
    grown = grow_to_maximal(g, [2])
    assert sorted(grown.indices()) == [0, 1, 2, 3, 4]
    # Already maximal stays put.
    tri = two_triangles()
    grown = grow_to_maximal(tri, [0, 1, 2])
    assert sorted(grown.indices()) == [0, 1, 2]
    # From empty: first pick is the best-gain tie at index 0, then greedy.
    grown = grow_to_maximal(tri, [])
    assert is_clique(tri, grown)
    assert len(grown) == 3


def test_grow_to_maximal_prefers_weight():
    # Node 0 can extend with 1 (weight 1.0) or 2 (weight 0.4): picks 1.
    g = Graph(3, [0, 0], [1, 2], [1.0, 0.4])
    grown = grow_to_maximal(g, [0])
    assert sorted(grown.indices()) == [0, 1]


def test_grow_to_maximal_never_shrinks_weight():
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(2, 16))
        g = random_graph(rng, n, density=0.5, weighted=True)
        p = rng.random(n)
        base = decode_clique_sweep(g, p)
        grown = grow_to_maximal(g, base)
        assert is_clique(g, grown)
        assert set(base.indices()) <= set(grown.indices())
        assert set_weight(g, grown) >= set_weight(g, base) - 1e-12


def test_volume_decode_respects_cap_and_seed():
    g = two_triangles()
    interval = VolumeConstraint(5.0, 9.0)
    rng = np.random.default_rng(0)
    for _ in range(30):
        p = rng.random(6)
        for seed in range(6):
            res = decode_cut_with_volume(g, p, interval, seed)
            assert seed in res.node_set
            assert volume(g, res.node_set) <= interval.upper + 1e-12
            assert res.lower_met == (volume(g, res.node_set) >= interval.lower)


def test_volume_decode_finds_the_triangle():
    g = two_triangles()
    p = np.array([0.9, 0.9, 0.9, 0.1, 0.1, 0.1])
    res = decode_cut_with_volume(g, p, VolumeConstraint(5.0, 9.0), 0)
    assert sorted(res.node_set.indices()) == [0, 1, 2]
    assert res.lower_met
    assert conductance(g, res.node_set) == pytest.approx(1.0 / 7.0)


def test_volume_decode_cap_overrides_forced_ones():
    # Everyone at probability 1 would bust any modest cap; the override
    # keeps the volume legal even though every node is "forced" in.
    g = complete_graph(4)  # degrees all 3
    res = decode_cut_with_volume(g, np.ones(4), VolumeConstraint(2.0, 7.0), 1)
    assert volume(g, res.node_set) <= 7.0
    assert 1 in res.node_set


def test_volume_decode_seed_too_heavy_raises():
    g = complete_graph(4)
    with pytest.raises(ValueError, match="exceeds the volume upper bound"):
        decode_cut_with_volume(g, np.full(4, 0.5), VolumeConstraint(0.0, 2.0), 0)
    with pytest.raises(ValueError, match="out of range"):
        decode_cut_with_volume(g, np.full(4, 0.5), VolumeConstraint(0.0, 9.0), 7)


def test_volume_decode_trace_shape():
    g = path_graph(5)
    res = decode_cut_with_volume(g, np.full(5, 0.5), VolumeConstraint(1.0, 6.0), 2)
    assert res.trace.visit_order[0] == 2
    assert res.trace.decisions[0]
    assert res.trace.expectation_path.shape == (6,)
    assert sorted(res.trace.visit_order.tolist()) == [0, 1, 2, 3, 4]


def _reference_volume_decode(graph, probs, interval, seed_node):
    """The volume decode as its own loop, before it was folded into
    ``decode_conditional``: returns (visit, decisions, path, lower_met)."""
    objective = CutObjective(graph)
    order = reference_visit_order(probs, "prob")
    visit = np.concatenate([[seed_node], order[order != seed_node]])
    path = np.empty(graph.n + 1)
    decisions = np.zeros(graph.n, dtype=bool)
    path[0] = objective.start(probs)
    objective.commit(seed_node, 1.0)
    decisions[0] = True
    path[1] = objective.value()
    vol = float(graph.degree[seed_node])
    for k, i in enumerate(visit[1:], start=1):
        i = int(i)
        p_i = probs[i]
        if p_i == 0.0:
            bit = 0.0
        elif vol + graph.degree[i] > interval.upper:
            bit = 0.0
        elif p_i == 1.0:
            bit = 1.0
        else:
            v_in, v_out = objective.branch(i)
            bit = 1.0 if v_in < v_out else 0.0
        objective.commit(i, bit)
        if bit == 1.0:
            vol += float(graph.degree[i])
            decisions[k] = True
        path[k + 1] = objective.value()
    return visit, decisions, path, vol >= interval.lower


@pytest.mark.parametrize("weighted", [False, True])
def test_volume_decode_matches_reference_loop(weighted):
    rng = np.random.default_rng(17 + weighted)
    checked = 0
    for _ in range(40):
        n = int(rng.integers(2, 30))
        g = random_graph(rng, n, density=float(rng.uniform(0.1, 0.6)), weighted=weighted)
        p = rng.random(n)
        p[rng.random(n) < 0.2] = 0.0
        p[rng.random(n) < 0.2] = 1.0
        p[rng.random(n) < 0.1] = 0.5  # ties in the visit order
        total = float(g.degree.sum())
        for _ in range(4):
            seed = int(rng.integers(n))
            lo = float(rng.uniform(0.0, total))
            interval = VolumeConstraint(lo, lo + float(rng.uniform(0.0, total)) + 1e-9)
            if g.degree[seed] > interval.upper:
                continue
            res = decode_cut_with_volume(g, p, interval, seed)
            visit, decisions, path, lower_met = _reference_volume_decode(g, p, interval, seed)
            assert np.array_equal(res.trace.visit_order, visit)
            assert np.array_equal(res.trace.decisions, decisions)
            assert np.array_equal(res.trace.expectation_path, path)
            assert res.lower_met == lower_met
            checked += 1
    assert checked > 100


def test_conditional_first_node_range_checked():
    g = path_graph(3)
    with pytest.raises(ValueError, match="out of range"):
        decode_conditional(g, np.full(3, 0.5), CutObjective(g), first=3)


def test_best_of_k_improves_and_reproduces():
    g = complete_graph(5)
    p = np.full(5, 0.6)
    objective, params = _clique_objective(g)
    rng = np.random.default_rng(3)
    best = decode_best_of_k(g, p, objective, 64, rng)
    ind = np.zeros(5)
    ind[list(best.indices())] = 1.0
    # With 64 draws on K5 the best draw should do at least as well as the mean.
    assert clique_loss(g, ind, params).value <= clique_loss(g, p, params).value + 1e-9

    a = decode_best_of_k(g, p, objective, 8, np.random.default_rng(11))
    b = decode_best_of_k(g, p, objective, 8, np.random.default_rng(11))
    assert sorted(a.indices()) == sorted(b.indices())
    with pytest.raises(ValueError, match="at least 1"):
        decode_best_of_k(g, p, objective, 0, rng)


def test_cut_objective_maximize_sign():
    g = path_graph(3)
    p = np.array([0.5, 0.5, 0.5])
    mini = CutObjective(g)
    maxi = CutObjective(g, maximize=True)
    assert mini.start(p) == expected_cut(g, p)
    assert maxi.start(p) == -expected_cut(g, p)


# ---------------------------------------------------------------------------
# Parity with the decode as it ran on numpy scalars.  The reference objectives
# and loop below keep p and s as numpy arrays and read them element by
# element; the shipped code reads them as Python floats.  Both update the
# neighbour sums with one numpy scatter per node and run the same float
# operations, so every trace must match bit for bit.


class _ReferenceCliqueObjective:
    def __init__(self, graph, params):
        self.graph = graph
        self.params = params

    def start(self, p):
        self.p = np.asarray(p, dtype=np.float64).copy()
        self.s = reference_neighbor_sums(self.graph, self.p)
        self.edge_term = float(
            np.sum(self.graph.edge_w * self.p[self.graph.edge_u] * self.p[self.graph.edge_v])
        )
        self.sum_p = float(self.p.sum())
        self.sum_sq = float(np.sum(self.p * self.p))
        return self.value()

    def value(self):
        pairs = self.sum_p * self.sum_p - self.sum_sq
        return _penalty_value(self.params.gamma, self.params.beta, self.edge_term, pairs)

    def _value_with(self, i, v):
        old = self.p[i]
        d = v - old
        edge = self.edge_term + d * self.s[i]
        sp = self.sum_p + d
        sq = self.sum_sq + v * v - old * old
        return _penalty_value(self.params.gamma, self.params.beta, edge, sp * sp - sq)

    def branch(self, i):
        return self._value_with(i, 1.0), self._value_with(i, 0.0)

    def commit(self, i, v):
        old = self.p[i]
        d = v - old
        if d != 0.0:
            self.edge_term += d * self.s[i]
            self.sum_p += d
            self.sum_sq += v * v - old * old
            lo, hi = self.graph.offsets[i], self.graph.offsets[i + 1]
            self.s[self.graph.targets[lo:hi]] += d * self.graph.weights[lo:hi]
            self.p[i] = v


class _ReferenceCutObjective:
    def __init__(self, graph, *, maximize=False):
        self.graph = graph
        self.sign = -1.0 if maximize else 1.0

    def start(self, p):
        self.p = np.asarray(p, dtype=np.float64).copy()
        self.s = reference_neighbor_sums(self.graph, self.p)
        self.edge_term = float(
            np.sum(self.graph.edge_w * self.p[self.graph.edge_u] * self.p[self.graph.edge_v])
        )
        self.vol_term = float(self.graph.degree @ self.p)
        return self.value()

    def value(self):
        return self.sign * (self.vol_term - 2.0 * self.edge_term)

    def _value_with(self, i, v):
        d = v - self.p[i]
        return self.sign * (
            self.vol_term + d * self.graph.degree[i] - 2.0 * (self.edge_term + d * self.s[i])
        )

    def branch(self, i):
        return self._value_with(i, 1.0), self._value_with(i, 0.0)

    def commit(self, i, v):
        d = v - self.p[i]
        if d != 0.0:
            self.edge_term += d * self.s[i]
            self.vol_term += d * self.graph.degree[i]
            lo, hi = self.graph.offsets[i], self.graph.offsets[i + 1]
            self.s[self.graph.targets[lo:hi]] += d * self.graph.weights[lo:hi]
            self.p[i] = v


def _reference_decode(graph, probs, objective, order="prob", first=None, cap=None):
    """decode_conditional on numpy scalars: returns (visit, decisions, path)."""
    visit = reference_visit_order(probs, order)
    if first is not None:
        visit = np.concatenate([[first], visit[visit != first]])
    path = np.empty(graph.n + 1)
    decisions = np.zeros(graph.n, dtype=bool)
    path[0] = objective.start(probs)
    vol = 0.0
    for k, i in enumerate(visit):
        i = int(i)
        p_i = probs[i]
        if i == first:
            bit = 1.0
        elif p_i == 0.0:
            bit = 0.0
        elif cap is not None and vol + graph.degree[i] > cap:
            bit = 0.0
        elif p_i == 1.0:
            bit = 1.0
        else:
            v_in, v_out = objective.branch(i)
            bit = 1.0 if v_in < v_out else 0.0
        objective.commit(i, bit)
        if bit == 1.0:
            vol += float(graph.degree[i])
            decisions[k] = True
        path[k + 1] = objective.value()
    return visit, decisions, path


def _fuzzed_cases(seed, count):
    """Graphs from sparse to dense, so that nodes of a few and of many
    neighbours update neighbour sums, with p holding exact 0s, 1s and ties."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        n = int(rng.integers(2, 70))
        g = random_graph(rng, n, density=float(rng.uniform(0.02, 0.9)), weighted=bool(trial % 2))
        p = rng.random(n) ** float(rng.uniform(0.3, 3.0))
        p[rng.random(n) < 0.1] = 0.0
        p[rng.random(n) < 0.1] = 1.0
        p[rng.random(n) < 0.1] = 0.5
        yield rng, g, p


def _assert_same_trace(trace, reference):
    visit, decisions, path = reference
    assert np.array_equal(trace.visit_order, visit)
    assert np.array_equal(trace.decisions, decisions)
    assert np.array_equal(trace.expectation_path, path)


def _assert_lockstep(objective, reference, p, rng):
    """Drive both objectives through one visit order with the same random
    bits; every start, branch and value must agree exactly, including the
    branch values that only decide a comparison."""
    assert objective.start(p) == reference.start(p)
    for i in rng.permutation(p.size).tolist():
        assert objective.branch(i) == reference.branch(i)
        bit = float(rng.random() < 0.5)
        objective.commit(i, bit)
        reference.commit(i, bit)
        assert objective.value() == reference.value()


def test_objectives_step_in_lockstep_with_numpy_scalar_reference():
    for rng, g, p in _fuzzed_cases(404, 60):
        params = CliqueLossParams.for_graph(g)
        _assert_lockstep(CliquePenaltyObjective(g, params), _ReferenceCliqueObjective(g, params), p, rng)
        maximize = bool(rng.random() < 0.5)
        _assert_lockstep(CutObjective(g, maximize=maximize), _ReferenceCutObjective(g, maximize=maximize), p, rng)


def test_clique_decode_matches_numpy_scalar_reference():
    high_degree = 0
    for _, g, p in _fuzzed_cases(101, 60):
        high_degree += int(np.diff(g.offsets).max(initial=0) > 24)
        # The solver's two penalty settings: the certificate's and the optimizer's.
        for params in (CliqueLossParams.for_graph(g), CliqueLossSpec(beta=2.0).resolve(g)):
            for order in ("prob", "index"):
                _, trace = decode_conditional(g, p, CliquePenaltyObjective(g, params), order=order)
                reference = _reference_decode(g, p, _ReferenceCliqueObjective(g, params), order=order)
                _assert_same_trace(trace, reference)
    assert high_degree >= 10


def test_cut_decodes_match_numpy_scalar_reference():
    for rng, g, p in _fuzzed_cases(202, 60):
        half = np.full(g.n, 0.5)
        _, trace = decode_conditional(g, half, CutObjective(g, maximize=True))
        reference = _reference_decode(g, half, _ReferenceCutObjective(g, maximize=True))
        _assert_same_trace(trace, reference)
        side = np.zeros(g.n, dtype=bool)
        side[reference[0][reference[1]]] = True
        assert np.array_equal(decode_maxcut_half(g).mask, side)

        seed = int(rng.integers(g.n))
        cap = float(g.degree[seed]) + float(rng.uniform(0.0, 0.5)) * float(g.degree.sum())
        _, trace = decode_conditional(g, p, CutObjective(g), order="index", first=seed, cap=cap)
        reference = _reference_decode(g, p, _ReferenceCutObjective(g), order="index", first=seed, cap=cap)
        _assert_same_trace(trace, reference)


def test_best_of_k_matches_numpy_scalar_reference():
    for rng, g, p in _fuzzed_cases(303, 40):
        params = CliqueLossParams.for_graph(g)
        objective, reference = CliquePenaltyObjective(g, params), _ReferenceCliqueObjective(g, params)
        for _ in range(3):
            draw = (rng.random(g.n) < p).astype(np.float64)
            assert objective.start(draw) == reference.start(draw)
        seed = int(rng.integers(1 << 30))
        best = decode_best_of_k(g, p, objective, 6, np.random.default_rng(seed))
        expected = decode_best_of_k(g, p, reference, 6, np.random.default_rng(seed))
        assert np.array_equal(best.mask, expected.mask)

"""Turning distributions into concrete node sets.

The workhorse is the method of conditional expectation: visit nodes, condition
each one to the branch with the smaller conditional expectation, and rely on
multilinearity to make every conditional a cheap substitution.  Because the
chosen branch never exceeds the convex combination it replaces, the
expectation trace is non-increasing and the final integral value is at most
the starting loss.  Sweep and best-of-k decoders are simpler alternatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import (
    CliqueLossParams,
    VolumeConstraint,
    _penalty_value,
    check_probs,
    sample,
    weighted_neighbor_sums,
)
from .graphs import Graph, NodeSet, as_mask

__all__ = [
    "CliquePenaltyObjective",
    "CutObjective",
    "DecodeTrace",
    "VolumeDecodeResult",
    "decode_conditional",
    "decode_maxcut_half",
    "decode_clique_sweep",
    "decode_cut_with_volume",
    "decode_best_of_k",
    "grow_to_maximal",
]


class CliquePenaltyObjective:
    """Incremental evaluator of the clique penalty expectation.

    Maintains per-node weighted neighbor sums plus the global probability
    sums, so re-conditioning one node costs O(deg).
    """

    def __init__(self, graph: Graph, params: CliqueLossParams) -> None:
        self.graph = graph
        self.params = params
        self.p: np.ndarray | None = None

    def start(self, p: np.ndarray) -> float:
        self.p = np.asarray(p, dtype=np.float64).copy()
        self.s = weighted_neighbor_sums(self.graph, self.p)
        self.edge_term = float(
            np.sum(self.graph.edge_w * self.p[self.graph.edge_u] * self.p[self.graph.edge_v])
        )
        self.sum_p = float(self.p.sum())
        self.sum_sq = float(np.sum(self.p * self.p))
        return self.value()

    def value(self) -> float:
        pairs = self.sum_p * self.sum_p - self.sum_sq
        return _penalty_value(self.params, self.edge_term, pairs)

    def _value_with(self, i: int, v: float) -> float:
        old = self.p[i]
        d = v - old
        edge = self.edge_term + d * self.s[i]
        sp = self.sum_p + d
        sq = self.sum_sq + v * v - old * old
        return _penalty_value(self.params, edge, sp * sp - sq)

    def branch(self, i: int) -> tuple[float, float]:
        return self._value_with(i, 1.0), self._value_with(i, 0.0)

    def commit(self, i: int, v: float) -> None:
        old = self.p[i]
        d = v - old
        if d != 0.0:
            self.edge_term += d * self.s[i]
            self.sum_p += d
            self.sum_sq += v * v - old * old
            lo, hi = self.graph.offsets[i], self.graph.offsets[i + 1]
            nbrs = self.graph.targets[lo:hi]
            self.s[nbrs] += d * self.graph.weights[lo:hi]
            self.p[i] = v


class CutObjective:
    """Incremental evaluator of the expected cut (negated when maximizing)."""

    def __init__(self, graph: Graph, *, maximize: bool = False) -> None:
        self.graph = graph
        self.sign = -1.0 if maximize else 1.0
        self.p: np.ndarray | None = None

    def start(self, p: np.ndarray) -> float:
        self.p = np.asarray(p, dtype=np.float64).copy()
        self.s = weighted_neighbor_sums(self.graph, self.p)
        self.edge_term = float(
            np.sum(self.graph.edge_w * self.p[self.graph.edge_u] * self.p[self.graph.edge_v])
        )
        self.vol_term = float(self.graph.degree @ self.p)
        return self.value()

    def value(self) -> float:
        return self.sign * (self.vol_term - 2.0 * self.edge_term)

    def _value_with(self, i: int, v: float) -> float:
        d = v - self.p[i]
        return self.sign * (
            self.vol_term + d * self.graph.degree[i] - 2.0 * (self.edge_term + d * self.s[i])
        )

    def branch(self, i: int) -> tuple[float, float]:
        return self._value_with(i, 1.0), self._value_with(i, 0.0)

    def commit(self, i: int, v: float) -> None:
        d = v - self.p[i]
        if d != 0.0:
            self.edge_term += d * self.s[i]
            self.vol_term += d * self.graph.degree[i]
            lo, hi = self.graph.offsets[i], self.graph.offsets[i + 1]
            self.s[self.graph.targets[lo:hi]] += d * self.graph.weights[lo:hi]
            self.p[i] = v


@dataclass
class DecodeTrace:
    """Record of a conditional-expectation decode.

    ``expectation_path[0]`` is the starting expectation; entry k+1 is the
    conditional expectation after the k-th decision.  The path never
    increases, and its last entry is the objective value of the decoded
    integral set.
    """

    visit_order: np.ndarray
    decisions: np.ndarray
    expectation_path: np.ndarray

    def to_json(self) -> dict:
        return {
            "visit_order": [int(i) for i in self.visit_order],
            "decisions": [bool(b) for b in self.decisions],
            "expectation_path": [float(v) for v in self.expectation_path],
        }


def _visit_order(probs: np.ndarray, order: str) -> np.ndarray:
    if order == "prob":
        # Stable sort on the negated vector: decreasing p, ties by index.
        return np.argsort(-probs, kind="stable")
    if order == "index":
        return np.arange(probs.size)
    raise ValueError(f"unknown visit order {order!r}")


def decode_conditional(
    graph: Graph,
    p,
    objective,
    *,
    order: str = "prob",
    first: int | None = None,
    cap: float | None = None,
) -> tuple[NodeSet, DecodeTrace]:
    """Derandomize a product distribution against a multilinear objective.

    Nodes are visited in decreasing-probability order (ties broken by index;
    ``order="index"`` visits in natural order instead).  Each node is included
    iff inclusion gives a strictly smaller conditional expectation, so ties
    bias toward sparser sets.  Probability-0 and probability-1 nodes are
    forced (conditioning on the other branch would condition on a null
    event), which is what makes decode of an integral vector return exactly
    its support.

    ``first`` is visited before every other node and included whatever its
    probability.  With ``cap`` set, an inclusion that would push the summed
    weighted degree of the included nodes above ``cap`` becomes an exclusion,
    even for a probability-1 node, so the cap holds unconditionally once
    ``first`` alone fits under it.
    """
    probs = check_probs(graph, p)
    visit = _visit_order(probs, order)
    if first is not None:
        if not (0 <= first < graph.n):
            raise ValueError(f"first node {first} out of range")
        visit = np.concatenate([[first], visit[visit != first]])
    degree = graph.degree
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
        elif cap is not None and vol + degree[i] > cap:
            bit = 0.0
        elif p_i == 1.0:
            bit = 1.0
        else:
            v_in, v_out = objective.branch(i)
            bit = 1.0 if v_in < v_out else 0.0
        objective.commit(i, bit)
        if bit == 1.0:
            vol += float(degree[i])
            decisions[k] = True
        path[k + 1] = objective.value()
    mask = np.zeros(graph.n, dtype=bool)
    mask[visit[decisions]] = True
    trace = DecodeTrace(visit_order=visit, decisions=decisions, expectation_path=path)
    return NodeSet.from_mask(graph, mask), trace


def decode_maxcut_half(graph: Graph) -> NodeSet:
    """Decode the uniform distribution against the negated expected cut.

    The starting expectation is half the total edge weight, and the decode
    never increases the negated cut, so the returned side cuts at least half
    of the total weight.
    """
    p = np.full(graph.n, 0.5)
    side, _ = decode_conditional(graph, p, CutObjective(graph, maximize=True))
    return side


def decode_clique_sweep(graph: Graph, p) -> NodeSet:
    """Greedy sweep in decreasing-probability order; keeps mutual adjacency.

    Always returns a clique: a node joins only if adjacent to everything
    already chosen.
    """
    probs = check_probs(graph, p)
    visit = _visit_order(probs, "prob")
    chosen = 0
    adj_count = np.zeros(graph.n, dtype=np.int64)
    mask = np.zeros(graph.n, dtype=bool)
    for i in visit:
        if adj_count[i] == chosen:
            mask[i] = True
            chosen += 1
            adj_count[graph.neighbors(int(i))] += 1
    return NodeSet.from_mask(graph, mask)


def grow_to_maximal(graph: Graph, members) -> NodeSet:
    """Extend a clique to a maximal one, best weight gain first.

    Repeatedly adds the node adjacent to every current member that brings the
    most edge weight (ties to the lowest index).  The input must already be a
    clique; a non-maximal clique is strictly dominated by its grown version,
    so decoders run this as a final polish.
    """
    mask = as_mask(graph.n, members).copy()
    adj_count = np.zeros(graph.n, dtype=np.int64)
    gain = np.zeros(graph.n)
    for v in np.flatnonzero(mask):
        lo, hi = graph.offsets[v], graph.offsets[v + 1]
        adj_count[graph.targets[lo:hi]] += 1
        gain[graph.targets[lo:hi]] += graph.weights[lo:hi]
    size = int(mask.sum())
    while True:
        eligible = np.flatnonzero(~mask & (adj_count == size))
        if eligible.size == 0:
            break
        v = int(eligible[np.argmax(gain[eligible])])
        mask[v] = True
        size += 1
        lo, hi = graph.offsets[v], graph.offsets[v + 1]
        adj_count[graph.targets[lo:hi]] += 1
        gain[graph.targets[lo:hi]] += graph.weights[lo:hi]
    return NodeSet.from_mask(graph, mask)


@dataclass
class VolumeDecodeResult:
    """Outcome of a volume-guarded cut decode."""

    node_set: NodeSet
    trace: DecodeTrace
    lower_met: bool


def decode_cut_with_volume(
    graph: Graph, p, interval: VolumeConstraint, seed_node: int
) -> VolumeDecodeResult:
    """Conditional-expectation decode of the cut with a hard volume cap.

    The seed node is conditioned in first.  Any inclusion that would push the
    volume above the interval's upper bound is overridden to exclusion, so the
    cap holds unconditionally; reaching the lower bound is best-effort and
    reported via ``lower_met``.

    Raises:
        ValueError: if the seed's degree alone exceeds the upper bound.
    """
    if not (0 <= seed_node < graph.n):
        raise ValueError(f"seed node {seed_node} out of range")
    d_seed = float(graph.degree[seed_node])
    if d_seed > interval.upper:
        raise ValueError(
            f"seed degree {d_seed} exceeds the volume upper bound {interval.upper}"
        )
    node_set, trace = decode_conditional(
        graph, p, CutObjective(graph), first=seed_node, cap=interval.upper
    )
    return VolumeDecodeResult(
        node_set=node_set, trace=trace, lower_met=node_set.volume >= interval.lower
    )


def decode_best_of_k(graph: Graph, p, objective, k: int, rng: np.random.Generator) -> NodeSet:
    """Sample k sets and keep the one with the smallest objective value.

    Ties keep the earliest draw, so the result is reproducible for a given
    generator state.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    probs = check_probs(graph, p)
    best_mask: np.ndarray | None = None
    best_value = np.inf
    for _ in range(k):
        mask = sample(probs, rng)
        value = objective.start(mask.astype(np.float64))
        if value < best_value:
            best_value = value
            best_mask = mask
    return NodeSet.from_mask(graph, best_mask)

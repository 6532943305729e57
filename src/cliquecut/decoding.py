"""Turning distributions into concrete node sets.

The workhorse is the method of conditional expectation: visit nodes, condition
each one to the branch with the smaller conditional expectation, and rely on
multilinearity to make every conditional a cheap substitution.  Because the
chosen branch never exceeds the convex combination it replaces, the
expectation trace is non-increasing and the final integral value is at most
the starting loss.  Every decode runs that one loop, ``decode_conditional``;
besides it, one greedy loop grows cliques to maximal ones: the sweep, the
polish, the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import (
    CliqueLossParams,
    VolumeConstraint,
    _cut_value,
    _penalty_value,
    check_probs,
    expected_set_weight,
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
    "grow_to_maximal",
]


class _NeighborSums:
    """Neighbour sums s = A p kept up to date while single coordinates change.

    The per-node reads run on Python floats: p is a list, and s and the CSR
    offsets are read through memoryviews.  Re-conditioning a node updates
    its neighbours' sums with one numpy scatter; a node's neighbours are
    distinct, so each sum takes exactly one addition.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.p: list[float] | None = None
        self._offsets = memoryview(graph.offsets)

    def _start(self, p) -> np.ndarray:
        """Bind p; returns it as a float64 array and sets the edge term sum_ij w_ij p_i p_j."""
        probs = np.asarray(p, dtype=np.float64)
        self.p = probs.tolist()
        self._sums = weighted_neighbor_sums(self.graph, probs)
        self.s = memoryview(self._sums)
        self.edge_term = expected_set_weight(self.graph, probs)
        return probs

    def _shift(self, i: int, d: float) -> None:
        """Add d * w_ij to s_j for every neighbour j of i."""
        lo, hi = self._offsets[i], self._offsets[i + 1]
        self._sums[self.graph.targets[lo:hi]] += d * self.graph.weights[lo:hi]


class CliquePenaltyObjective(_NeighborSums):
    """Incremental evaluator of the clique penalty expectation.

    Maintains per-node weighted neighbor sums plus the global probability
    sums, so re-conditioning one node costs O(deg).  Values come from
    ``clique_loss``'s helper, so ``start`` returns that loss bit for bit.
    """

    def __init__(self, graph: Graph, params: CliqueLossParams) -> None:
        super().__init__(graph)
        self.params = params

    def start(self, p: np.ndarray) -> float:
        probs = self._start(p)
        self.sum_p = float(probs.sum())
        self.sum_sq = float(np.sum(probs * probs))
        return self.value()

    def value(self) -> float:
        sp = self.sum_p
        return _penalty_value(self.params.gamma, self.params.beta, self.edge_term, sp * sp - self.sum_sq)

    def branch(self, i: int) -> tuple[float, float]:
        old, s_i = self.p[i], self.s[i]
        edge, sp, sq, old_sq = self.edge_term, self.sum_p, self.sum_sq, old * old
        gamma, beta = self.params.gamma, self.params.beta
        # The value with p_i set to v, for v = 1 and then v = 0 (1.0 and 0.0 stand for v * v).
        d = 1.0 - old
        v_in = _penalty_value(gamma, beta, edge + d * s_i, (sp + d) * (sp + d) - (sq + 1.0 - old_sq))
        d = 0.0 - old
        v_out = _penalty_value(gamma, beta, edge + d * s_i, (sp + d) * (sp + d) - (sq + 0.0 - old_sq))
        return v_in, v_out

    def commit(self, i: int, v: float) -> None:
        old = self.p[i]
        d = v - old
        if d != 0.0:
            self.edge_term += d * self.s[i]
            self.sum_p += d
            self.sum_sq += v * v - old * old
            self._shift(i, d)
            self.p[i] = v


class CutObjective(_NeighborSums):
    """Incremental evaluator of ``expected_cut``, through its helper (negated when maximizing)."""

    def __init__(self, graph: Graph, *, maximize: bool = False) -> None:
        super().__init__(graph)
        self.sign = -1.0 if maximize else 1.0
        self._degree = memoryview(graph.degree)

    def start(self, p: np.ndarray) -> float:
        probs = self._start(p)
        self.vol_term = float(self.graph.degree @ probs)
        return self.value()

    def value(self) -> float:
        return self.sign * _cut_value(self.vol_term, self.edge_term)

    def branch(self, i: int) -> tuple[float, float]:
        old, s_i, deg_i = self.p[i], self.s[i], self._degree[i]
        vol, edge, sign = self.vol_term, self.edge_term, self.sign
        d_in, d_out = 1.0 - old, 0.0 - old
        return (
            sign * _cut_value(vol + d_in * deg_i, edge + d_in * s_i),
            sign * _cut_value(vol + d_out * deg_i, edge + d_out * s_i),
        )

    def commit(self, i: int, v: float) -> None:
        d = v - self.p[i]
        if d != 0.0:
            self.edge_term += d * self.s[i]
            self.vol_term += d * self._degree[i]
            self._shift(i, d)
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


def decode_conditional(
    graph: Graph,
    p,
    objective,
    *,
    first: int | None = None,
    cap: float | None = None,
) -> tuple[NodeSet, DecodeTrace]:
    """Derandomize a product distribution against a multilinear objective.

    Nodes are visited in decreasing-probability order, ties broken by index.
    Each node is included iff inclusion gives a strictly smaller conditional
    expectation, so ties bias toward sparser sets.  Probability-0 and
    probability-1 nodes are forced (conditioning on the other branch would
    condition on a null event), which is what makes decode of an integral
    vector return exactly its support.

    ``first`` is visited before every other node and included whatever its
    probability.  With ``cap`` set, an inclusion that would push the summed
    weighted degree of the included nodes above ``cap`` becomes an exclusion,
    even for a probability-1 node, so the cap holds unconditionally once
    ``first`` alone fits under it.

    p is validated here, once; the objective's ``start`` receives it as a
    float64 vector.  The per-node work then runs on Python floats (p, the
    visit order and the degrees as lists), which perform the same float
    operations in the same order as numpy scalars would, so the trace is
    the same bit for bit.
    """
    probs = check_probs(graph, p)
    # Stable sort on the negated vector: decreasing p, ties by index.
    visit = np.argsort(-probs, kind="stable")
    if first is not None:
        if not (0 <= first < graph.n):
            raise ValueError(f"first node {first} out of range")
        visit = np.concatenate([[first], visit[visit != first]])
    degree = memoryview(graph.degree)
    prob = probs.tolist()
    branch, commit, value = objective.branch, objective.commit, objective.value
    path = [objective.start(probs)]
    included = []
    vol = 0.0
    for i in visit.tolist():
        p_i = prob[i]
        if i == first:
            bit = 1.0
        elif p_i == 0.0:
            bit = 0.0
        elif cap is not None and vol + degree[i] > cap:
            bit = 0.0
        elif p_i == 1.0:
            bit = 1.0
        else:
            v_in, v_out = branch(i)
            bit = 1.0 if v_in < v_out else 0.0
        commit(i, bit)
        if bit == 1.0:
            vol += degree[i]
        included.append(bit == 1.0)
        path.append(value())
    decisions = np.array(included, dtype=bool)
    mask = np.zeros(graph.n, dtype=bool)
    mask[visit[decisions]] = True
    trace = DecodeTrace(
        visit_order=visit, decisions=decisions, expectation_path=np.array(path, dtype=np.float64)
    )
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


def _greedy_clique(graph: Graph, mask: np.ndarray, rank: np.ndarray | None) -> NodeSet:
    """Grow the clique ``mask`` in place until it is maximal.

    Each step adds the node adjacent to every member that ranks highest,
    ties to the lowest index, until no node is adjacent to every member.
    ``rank=None`` ranks a node by its live gain, the edge weight it would
    bring to the current members.
    """
    adj_count = np.zeros(graph.n, dtype=np.int64)
    gain = np.zeros(graph.n)
    offsets = memoryview(graph.offsets)

    def join(v: int) -> None:
        lo, hi = offsets[v], offsets[v + 1]
        targets = graph.targets[lo:hi]
        adj_count[targets] += 1
        if rank is None:
            gain[targets] += graph.weights[lo:hi]

    for v in np.flatnonzero(mask).tolist():
        join(v)
    size = int(mask.sum())
    score = gain if rank is None else rank
    # Eligibility only shrinks, so each step filters the last step's nodes;
    # the node just added drops out, as it is not its own neighbour.
    eligible = np.flatnonzero(~mask & (adj_count == size))
    while eligible.size:
        v = int(eligible[np.argmax(score[eligible])])
        mask[v] = True
        size += 1
        join(v)
        eligible = eligible[adj_count[eligible] == size]
    return NodeSet.from_mask(graph, mask)


def decode_clique_sweep(graph: Graph, p) -> NodeSet:
    """Greedy maximal clique: the greedy clique loop ranked by p.

    Each step adds the most probable node adjacent to every member, ties to
    the lowest index.  A node once ineligible stays so, which makes this the
    sweep over nodes in decreasing p that keeps each one adjacent to all kept.
    """
    return _greedy_clique(graph, np.zeros(graph.n, dtype=bool), check_probs(graph, p))


def grow_to_maximal(graph: Graph, members) -> NodeSet:
    """Extend a clique to a maximal one, best weight gain first.

    The greedy clique loop from ``members``, ranked by the edge weight a node
    brings (ties to the lowest index).  The input must already be a clique; a
    non-maximal clique is strictly dominated by its grown version, so
    decoders run this as a final polish.
    """
    return _greedy_clique(graph, as_mask(graph.n, members).copy(), None)


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

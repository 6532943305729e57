"""Bernoulli product distributions over nodes.

A distribution is just a probability vector p; independence makes every
objective of interest multilinear, so expectations and their gradients are
closed-form edge scans.  This module holds the clique penalty loss, the cut
and volume expectations, the volume rescaling recursion, and sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph

__all__ = [
    "CliqueLossParams",
    "VolumeConstraint",
    "LossReport",
    "RescaleInfo",
    "check_probs",
    "weighted_neighbor_sums",
    "expected_set_weight",
    "clique_violation_bound",
    "clique_loss",
    "expected_cut",
    "cut_loss",
    "expected_volume",
    "rescale_to_target",
    "sample",
]


def check_probs(graph_or_n, p) -> np.ndarray:
    """Validate and return p as a float64 vector of inclusion probabilities."""
    n = graph_or_n.n if isinstance(graph_or_n, Graph) else int(graph_or_n)
    probs = np.asarray(p, dtype=np.float64).reshape(-1)
    if probs.shape != (n,):
        raise ValueError(f"probability vector has length {probs.size}, expected {n}")
    if not np.all(np.isfinite(probs)):
        raise ValueError("probabilities must be finite")
    if probs.size and (probs.min() < 0.0 or probs.max() > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    return probs


def weighted_neighbor_sums(graph: Graph, p: np.ndarray) -> np.ndarray:
    """s_i = sum over neighbors j of w_ij * p_j."""
    sums = np.bincount(graph.rows, weights=graph.weights * p[graph.targets], minlength=graph.n)
    # bincount returns int64 when the graph has no edges; keep the dtype stable.
    return sums.astype(np.float64, copy=False)


def _neighbor_sums_kernel(graph: Graph):
    """``weighted_neighbor_sums`` bound to ``graph`` for repeated calls, with the same bits.

    bincount adds each node's terms in adjacency order, and when those terms
    are consecutive every add waits for the one before.  Listing the
    adjacency rank by rank (each node's first neighbour, then each node's
    second, ...) keeps every node's own order, so the sums are unchanged,
    while consecutive adds land on different nodes.
    """
    rank = np.arange(graph.rows.size) - graph.offsets[graph.rows]
    order = np.argsort(rank, kind="stable")
    rows, targets, weights, n = graph.rows[order], graph.targets[order], graph.weights[order], graph.n

    def sums(p: np.ndarray) -> np.ndarray:
        return np.bincount(rows, weights=weights * p[targets], minlength=n).astype(np.float64, copy=False)

    return sums


@dataclass(frozen=True)
class CliqueLossParams:
    """Penalty-loss parameters.

    ``gamma`` must dominate the weight of every clique for the certified
    bound to mean anything, and ``beta`` must be at least ``gamma``; the
    per-graph default gamma = beta = total edge weight satisfies both.
    """

    gamma: float
    beta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.gamma <= self.beta):
            raise ValueError(f"need 0 < gamma <= beta, got gamma={self.gamma}, beta={self.beta}")

    @classmethod
    def for_graph(cls, graph: Graph, *, gamma: float | None = None, beta: float | None = None) -> "CliqueLossParams":
        default = graph.total_weight if graph.total_weight > 0.0 else 1.0
        g = default if gamma is None else gamma
        b = max(g, default) if beta is None else beta
        return cls(gamma=g, beta=b)


@dataclass(frozen=True)
class VolumeConstraint:
    """A volume interval [lower, upper]; the rescaling target is its midpoint."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.lower < self.upper):
            raise ValueError(f"need 0 <= lower < upper, got [{self.lower}, {self.upper}]")

    @property
    def target(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


@dataclass
class LossReport:
    """Loss value with its gradient and the named terms it decomposes into."""

    value: float
    gradient: np.ndarray
    terms: dict[str, float]


def expected_set_weight(graph: Graph, p) -> float:
    """E of the weight inside the sampled set: sum over edges of w_ij p_i p_j."""
    probs = check_probs(graph, p)
    return float(np.sum(graph.edge_w * probs[graph.edge_u] * probs[graph.edge_v]))


def _pair_sum(probs: np.ndarray) -> float:
    """Ordered-pair probability mass: sum over i != j of p_i p_j."""
    s = float(probs.sum())
    return s * s - float(np.sum(probs * probs))


def _penalty_value(params: CliqueLossParams, ew: float, pairs: float) -> float:
    """gamma - (beta + 1) * E[weight in S] + (beta / 2) * (ordered-pair mass)."""
    return params.gamma - (params.beta + 1.0) * ew + 0.5 * params.beta * pairs


def clique_violation_bound(graph: Graph, p) -> float:
    """Expected shortfall from cliqueness: E of (pairs in S) minus (weight in S).

    With unit weights this is the expected number of absent pairs, which upper
    bounds the probability that the sampled set is not a clique.
    """
    probs = check_probs(graph, p)
    return 0.5 * _pair_sum(probs) - expected_set_weight(graph, probs)


def clique_loss(graph: Graph, p, params: CliqueLossParams) -> LossReport:
    """Penalty loss for max clique.

    value = gamma - (beta + 1) * E[weight in S] + (beta / 2) * sum_{i != j} p_i p_j,
    identically gamma - E[weight in S] + beta * violation bound.  The gradient
    is d/dp_i = -(beta + 1) * s_i + beta * (sum_j p_j - p_i).
    """
    probs = check_probs(graph, p)
    ew = expected_set_weight(graph, probs)
    pairs = _pair_sum(probs)
    value = _penalty_value(params, ew, pairs)
    s = weighted_neighbor_sums(graph, probs)
    gradient = -(params.beta + 1.0) * s + params.beta * (probs.sum() - probs)
    return LossReport(
        value=float(value),
        gradient=gradient,
        terms={"expected_weight": float(ew), "violation_bound": float(0.5 * pairs - ew)},
    )


def expected_cut(graph: Graph, p) -> float:
    """E of the cut weight: sum_i d_i p_i - 2 * sum over edges of w_ij p_i p_j."""
    probs = check_probs(graph, p)
    return float(graph.degree @ probs) - 2.0 * expected_set_weight(graph, probs)


def expected_volume(graph: Graph, p) -> float:
    """E of the volume of the sampled set: sum_i d_i p_i."""
    probs = check_probs(graph, p)
    return float(graph.degree @ probs)


def cut_loss(graph: Graph, p) -> LossReport:
    """Expected cut as a loss, with gradient d_i - 2 s_i."""
    probs = check_probs(graph, p)
    ec = expected_cut(graph, probs)
    gradient = graph.degree - 2.0 * weighted_neighbor_sums(graph, probs)
    return LossReport(
        value=ec,
        gradient=gradient,
        terms={"expected_cut": ec, "expected_volume": expected_volume(graph, probs)},
    )


@dataclass
class RescaleInfo:
    """Diagnostics from rescale_to_target.

    ``scale`` is the effective per-coordinate multiplier (zero on coordinates
    that were clamped at 1, the straight-through convention); ``saturated_history``
    records the cumulative clamped set after each scaling step.
    """

    scale: np.ndarray
    iterations: int
    saturated_history: list[np.ndarray]


def rescale_to_target(p0, a, b: float, *, rel_tol: float = 1e-9, with_info: bool = False):
    """Scale p toward sum_i a_i p_i = b, clamping to [0, 1].

    Repeatedly multiplies the not-yet-clamped coordinates by the exact factor
    that would land the remaining mass on the remaining target.  Coordinates
    that hit 1 stay there, so each extra iteration clamps at least one new
    node and the loop ends within n steps.  When sum(a) <= b the positive
    coordinates all saturate at 1 and the target is unreachable by design.

    This entry point validates its arguments and then runs ``_rescale``, the
    unvalidated loop that ``CutLossSpec.step_kernel`` calls directly; the
    float operations, and so the bits of every output, are the same either
    way.  ``saturated_history`` is only built when ``with_info`` is set.

    Args:
        p0: starting probabilities in [0, 1].
        a: non-negative per-node coefficients (volumes use the weighted degree).
        b: positive target for sum_i a_i p_i.
        rel_tol: convergence is |sum a_i p_i - b| <= rel_tol * b.
        with_info: also return a RescaleInfo.

    Raises:
        ValueError: if b <= 0, coefficients are negative, or p0 is all zeros
            while b > 0.
    """
    probs = np.asarray(p0, dtype=np.float64).reshape(-1)
    coeff = np.ascontiguousarray(a, dtype=np.float64).reshape(-1)
    if probs.shape != coeff.shape:
        raise ValueError("p0 and a must have equal length")
    if not np.all(np.isfinite(probs)) or probs.size == 0 or probs.min() < 0.0 or probs.max() > 1.0:
        raise ValueError("p0 must be a nonempty vector in [0, 1]")
    if np.any(coeff < 0.0):
        raise ValueError("coefficients must be non-negative")
    if b <= 0.0:
        raise ValueError("target must be positive")
    history: list[np.ndarray] | None = [] if with_info else None
    p, scale, iterations = _rescale(probs, coeff, b, rel_tol, history)
    if p is probs:
        p = p.copy()
    if with_info:
        return p, RescaleInfo(scale=scale, iterations=iterations, saturated_history=history)
    return p


def _rescale(p: np.ndarray, coeff: np.ndarray, b: float, rel_tol: float = 1e-9, history: list | None = None):
    """The loop of ``rescale_to_target`` on trusted inputs: (q, scale, iterations).

    p is a float64 vector in [0, 1], coeff a non-negative contiguous float64
    vector of the same length and b > 0; p is never written, and q is p itself
    when no scaling was needed.  The first multiply runs over the whole vector
    with coeff @ p as the mass; later ones update in place under the movable
    mask and take the mass and the saturated coefficient sum over compacted
    copies.  Every unsaturated coordinate is multiplied by every factor, so
    its scale is their running product, one float for all of them.  When
    ``history`` is a list, the saturated set is appended to it after every
    multiply.

    Raises:
        ValueError: if coeff @ p is zero, or not finite (a NaN or infinite
            entry of p, as from an MPNN whose activations overflowed).
    """
    tol = rel_tol * b
    current = float(coeff @ p)
    if not math.isfinite(current):
        raise ValueError("cannot rescale a distribution with a non-finite entry")
    if current == 0.0:
        raise ValueError("cannot rescale an all-zero distribution to a positive target")
    if abs(current - b) <= tol:
        return p, np.ones(p.size), 0
    c = b / current
    q = p * c
    saturated = q >= 1.0
    np.minimum(q, 1.0, out=q)
    product = c
    iterations = 1
    if history is not None:
        history.append(saturated.copy())

    for _ in range(p.size):
        current = float(coeff @ q)
        if abs(current - b) <= tol:
            break
        movable = ~saturated
        mass = float(coeff[movable] @ q[movable])
        target = b - float(coeff[saturated].sum())
        if mass <= 0.0 or target <= 0.0:
            break
        c = target / mass
        iterations += 1
        product *= c
        # Saturated coordinates hold exactly 1.0, so ``q >= 1`` after the
        # masked multiply is the old set plus the newly clamped ones.
        np.multiply(q, c, out=q, where=movable)
        saturated |= q >= 1.0
        np.minimum(q, 1.0, out=q)
        if history is not None:
            history.append(saturated.copy())

    scale = np.full(p.size, product)
    scale[saturated] = 0.0
    return q, scale, iterations


def sample(p, rng: np.random.Generator) -> np.ndarray:
    """Draw a set from the product distribution as a boolean membership vector."""
    probs = np.asarray(p, dtype=np.float64).reshape(-1)
    return rng.random(probs.size) < probs

"""Bernoulli product distributions over nodes.

A distribution is just a probability vector p; independence makes every
objective of interest multilinear, so expectations and their gradients are
closed-form edge scans.  This module holds the clique penalty loss, the cut
and volume expectations, the volume rescaling recursion, and sampling.
Each objective is written once: ``expected_set_weight`` and the ``_penalty_*``
and ``_cut_*`` helpers serve every loss, step kernel and decode objective.
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


def weighted_neighbor_sums(graph: Graph, p) -> np.ndarray:
    """s_i = sum over neighbors j of w_ij * p_j, as float64, from the graph's ``_neighbor_sums_kernel``."""
    return _neighbor_sums_kernel(graph)(np.asarray(p, dtype=np.float64))


def _neighbor_sums_kernel(graph: Graph):
    """The graph's s = A p kernel, float64 p -> float64 sums; built once, kept on ``graph._sums``.

    A bincount over the CSR rows adds each node's terms in adjacency order,
    one after another, so every add waits for the one before.  Listing the
    adjacency rank by rank (each node's first neighbour, then each node's
    second, ...) keeps every node's own order, so the sums have that
    bincount's bits, while consecutive adds land on different nodes.  The
    ranks are sorted in the narrowest unsigned dtype that holds them, where
    numpy's stable sort is a radix sort, with the same order as the int64
    sort.  The kernel holds 24 bytes per adjacency entry; threads racing
    here keep one of two identical kernels.
    """
    if graph._sums is None:
        rank = np.arange(graph.rows.size) - graph.offsets[graph.rows]
        order = np.argsort(rank.astype(np.min_scalar_type(rank.max(initial=0))), kind="stable")
        rows, targets, weights, n = graph.rows[order], graph.targets[order], graph.weights[order], graph.n

        def sums(p: np.ndarray) -> np.ndarray:
            # One temporary, multiplied in place: with a second one for the
            # product the call took about 1.8x as long on 30,000 entries.
            terms = p.take(targets)
            terms *= weights
            # bincount returns int64 when there are no edges to weight.
            return np.bincount(rows, weights=terms, minlength=n).astype(np.float64, copy=False)

        graph._sums = sums
    return graph._sums


@dataclass(frozen=True)
class CliqueLossParams:
    """Penalty-loss parameters.

    ``beta`` must be at least ``gamma``, and both must be finite: an
    infinite beta makes the loss, and so the bound, NaN.  A penalty
    certificate from them holds on a graph when every non-clique scores at
    least beta there.  Dominating every clique's weight is not enough for
    that; gamma at least the graph's total edge weight is (``certifies``).
    The per-graph default gamma = beta = total edge weight meets both.
    """

    gamma: float
    beta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.gamma <= self.beta and math.isfinite(self.beta)):
            raise ValueError(f"need finite 0 < gamma <= beta, got gamma={self.gamma}, beta={self.beta}")

    def certifies(self, total_weight: float) -> bool:
        """Whether a penalty certificate from these parameters holds on a graph of this total edge weight.

        A set S scores gamma - w(S) + beta * v(S), where v(S) sums 1 - w_ij
        over the pairs in S (w_ij = 0 off the edges).  The certificate needs
        every clique to cost gamma - w(S) >= 0 and every non-clique to score
        at least beta.  Weights lie in (0, 1], so v(S) >= 1 off cliques, and
        gamma >= total weight >= w(S) gives both.  The check is sufficient,
        not necessary: a smaller gamma can be sound on a given graph.
        """
        return self.gamma >= total_weight

    @classmethod
    def for_graph(cls, graph: Graph, *, gamma: float | None = None, beta: float | None = None) -> "CliqueLossParams":
        return cls.for_weight(graph.total_weight, gamma=gamma, beta=beta)

    @classmethod
    def for_weight(
        cls, total_weight: float, *, gamma: float | None = None, beta: float | None = None
    ) -> "CliqueLossParams":
        """``for_graph`` for a graph whose total edge weight is ``total_weight``."""
        default = total_weight if total_weight > 0.0 else 1.0
        g = default if gamma is None else gamma
        b = max(g, default) if beta is None else beta
        return cls(gamma=g, beta=b)


@dataclass(frozen=True)
class VolumeConstraint:
    """A volume interval [lower, upper]; the rescaling target is its midpoint."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.lower < self.upper < math.inf):
            raise ValueError(f"need finite bounds with 0 <= lower < upper, got [{self.lower}, {self.upper}]")

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


def _penalty_value(gamma, beta, ew, pairs):
    """gamma - (beta + 1) * ew + (beta / 2) * pairs, elementwise on per-part arrays.

    ew is E[weight in S] and pairs the ordered-pair mass sum_{i != j} p_i p_j.
    """
    return gamma - (beta + 1.0) * ew + 0.5 * beta * pairs


def _penalty_gradient(beta, s: np.ndarray, total, p: np.ndarray) -> np.ndarray:
    """-(beta + 1) * s + beta * (total - p), with s = A p and total = sum_j p_j (per node on a union)."""
    return -(beta + 1.0) * s + beta * (total - p)


def _cut_value(vol, ew):
    """E of the cut weight from E[volume] and E[weight in S]."""
    return vol - 2.0 * ew


def _cut_gradient(degree: np.ndarray, s: np.ndarray) -> np.ndarray:
    """d_i - 2 s_i, with s = A p."""
    return degree - 2.0 * s


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
    return LossReport(
        value=float(_penalty_value(params.gamma, params.beta, ew, pairs)),
        gradient=_penalty_gradient(params.beta, weighted_neighbor_sums(graph, probs), probs.sum(), probs),
        terms={"expected_weight": float(ew), "violation_bound": float(0.5 * pairs - ew)},
    )


def expected_cut(graph: Graph, p) -> float:
    """E of the cut weight: sum_i d_i p_i - 2 * sum over edges of w_ij p_i p_j."""
    probs = check_probs(graph, p)
    return _cut_value(float(graph.degree @ probs), expected_set_weight(graph, probs))


def expected_volume(graph: Graph, p) -> float:
    """E of the volume of the sampled set: sum_i d_i p_i."""
    probs = check_probs(graph, p)
    return float(graph.degree @ probs)


def cut_loss(graph: Graph, p) -> LossReport:
    """Expected cut as a loss, with gradient d_i - 2 s_i."""
    probs = check_probs(graph, p)
    ec = expected_cut(graph, probs)
    return LossReport(
        value=ec,
        gradient=_cut_gradient(graph.degree, weighted_neighbor_sums(graph, probs)),
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

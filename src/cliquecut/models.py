"""Probability producers: direct logit optimization and a small MPNN.

Everything is numpy; gradients are written out by hand.  The network is
deliberately minimal: a linear embedding of two node features (seed one-hot,
normalized degree), sum-aggregation message passing with ReLU and skip
connections, hop masking that widens the receptive field one ring per round,
a two-layer readout, and min-max normalization onto [0, 1].
"""

from __future__ import annotations

import json
import math
import sys
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .distributions import (
    CliqueLossParams,
    VolumeConstraint,
    _cut_gradient,
    _cut_value,
    _neighbor_sums_kernel,
    _penalty_gradient,
    _penalty_value,
    _rescale,
    # Unused here, but bench/spans.py wraps these three in this namespace by name.
    clique_loss,  # noqa: F401
    cut_loss,  # noqa: F401
    rescale_to_target,  # noqa: F401
)
from .graphs import Graph, gather_layout, hop_distances

__all__ = [
    "CliqueLossSpec",
    "CutLossSpec",
    "OptimState",
    "NonFiniteLossError",
    "MpnnParams",
    "TrainResult",
    "sigmoid",
    "optimize_direct",
    "mpnn_forward",
    "mpnn_backward",
    "train_mpnn",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 1


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) where x >= 0 and exp(x) / (1 + exp(x)) elsewhere.

    Both branches are computed as whole arrays: e = exp(-x) or exp(x), then
    (1 or e) / (1 + e).  exp never sees a positive finite argument, so it
    never overflows.  Its argument is picked with ``where`` rather than
    written -|x|, which would flip the sign bit of a NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0, e) / (1.0 + e)


# ---------------------------------------------------------------------------
# loss specifications


@dataclass(frozen=True)
class CliqueLossSpec:
    """Clique penalty loss with per-graph defaults.

    Leaving ``gamma`` unset picks min(total weight, beta) so that a small
    optimization beta stays a valid parameter set; gamma only shifts the loss
    by a constant, so this never changes the optimization.
    """

    gamma: float | None = None
    beta: float | None = None

    def resolve(self, graph: Graph) -> CliqueLossParams:
        return self._resolve(graph.total_weight)

    def _resolve(self, total_weight: float) -> CliqueLossParams:
        if self.beta is None:
            return CliqueLossParams.for_weight(total_weight, gamma=self.gamma)
        default = total_weight if total_weight > 0.0 else 1.0
        gamma = min(default, self.beta) if self.gamma is None else self.gamma
        return CliqueLossParams(gamma=gamma, beta=self.beta)

    def step_kernel(self, graph: Graph, parts=None):
        """Bind the loss to ``graph`` for an optimizer loop: returns p -> (value, gradient).

        The kernel trusts p (no validation, no LossReport) and needs one
        neighbour-sum pass s = A p, taking E[weight in S] = p.s / 2 instead of
        a second edge scan.  It calls the helpers ``clique_loss`` calls, so its
        gradient is bit-identical to ``clique_loss``'s and its value differs
        only by the rounding of p.s / 2 against the edge scan.  s comes from
        the ``_neighbor_sums_kernel`` kept on the graph, built once for it.

        ``parts`` binds the loss to each part of a disjoint union instead:
        node offsets as ``graphs.disjoint_union`` returns them.  The kernel
        then takes the union's 1-D p and returns one value per part and the
        union's gradient, each part's with the bits of a kernel bound to the
        part alone (with that part's own gamma and beta):
        ``_neighbor_sums_kernel`` adds each node's terms in its adjacency
        order, which the shift into the union keeps, and the gradient's
        total is the part's slice of p summed pairwise as ``p.sum()`` does.
        The part values add p.s and p.p in node order instead of by ``@``.
        A single part, ``[0, n]``, binds the plain kernel, whose value is one
        float.  The clique solver binds this kernel on each chunk's union and
        hands it to ``optimize_direct`` with the chunk's start.
        """
        if parts is not None:
            return self._union_kernel(graph, np.asarray(parts, dtype=np.int64))
        neighbor_sums = _neighbor_sums_kernel(graph)
        params = self.resolve(graph)

        def step(p: np.ndarray) -> tuple[float, np.ndarray]:
            s = neighbor_sums(p)
            total = p.sum()
            value = _penalty_value(params.gamma, params.beta, 0.5 * float(p @ s), float(total * total - p @ p))
            return value, _penalty_gradient(params.beta, s, total, p)

        return step

    def _union_kernel(self, graph: Graph, parts: np.ndarray):
        """``step_kernel`` on the parts of a disjoint union (see there)."""
        sizes = np.diff(parts)
        if parts.ndim != 1 or parts.size < 2 or parts[0] != 0 or parts[-1] != graph.n or np.any(sizes < 0):
            raise ValueError(f"parts must be node offsets from 0 to {graph.n}")
        if sizes.size == 1:
            # The graph itself: its plain kernel, whose value is one float.  The
            # union's bookkeeping took a step from 170 to 190 us on a 400-node
            # graph with 2E = 32,000 (2-core VM, numpy 2.4).
            return self.step_kernel(graph)
        part_of = np.repeat(np.arange(sizes.size), sizes)
        if np.any(part_of[graph.edge_u] != part_of[graph.edge_v]):
            raise ValueError("an edge joins two parts")
        # The union lists edges by their lower end, so each part's edges are
        # one block, in that part's own order: the same total weight bits.
        ends = np.searchsorted(graph.edge_u, parts).tolist()
        resolved = [self._resolve(float(graph.edge_w[a:b].sum())) for a, b in zip(ends, ends[1:])]
        gamma, beta = np.array([q.gamma for q in resolved]), np.array([q.beta for q in resolved])
        node_beta = beta[part_of]
        slices = [slice(a, b) for a, b in zip(parts.tolist(), parts[1:].tolist())]
        # Parts of one size (restarts on copies of a graph) sum as the rows of one
        # reshape, each pairwise as ``p.sum()`` sums: the same bits in one call.
        # Per-slice sums took 11-83 us a step against the reshape's 1.6-4.2 us
        # at R = 7-58 parts of 100-40 nodes (2-core VM, numpy 2.4).
        # ``np.add.reduceat`` is one call too, but it sums each part in
        # sequence, not pairwise: its bits differed from ``p[a:b].sum()`` on
        # 2,981 of 3,000 random part sets.
        size = int(sizes[0]) if np.all(sizes == sizes[0]) else 0
        neighbor_sums = _neighbor_sums_kernel(graph)

        def step(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            s = neighbor_sums(p)
            total = p.reshape(-1, size).sum(axis=1) if size else np.array([np.add.reduce(p[part]) for part in slices])
            ps = np.bincount(part_of, weights=p * s, minlength=sizes.size)
            pp = np.bincount(part_of, weights=p * p, minlength=sizes.size)
            value = _penalty_value(gamma, beta, 0.5 * ps, total * total - pp)
            return value, _penalty_gradient(node_beta, s, total[part_of], p)

        return step


@dataclass(frozen=True)
class CutLossSpec:
    """Expected cut after rescaling the volume to the interval midpoint.

    The gradient treats the rescaling as a constant per-coordinate multiplier
    (straight-through): identity scaling on unsaturated coordinates, zero on
    coordinates clamped at 1.  The interval may be bound later.
    """

    interval: VolumeConstraint | None = None

    def step_kernel(self, graph: Graph):
        """Bind the loss to ``graph``: an unvalidated p -> (value, gradient) kernel.

        After rescaling p to q, the value is the expected cut with E[weight in
        S] = q.s / 2 (s = A q) and the gradient is (d - 2 s) * scale, from the
        helpers ``cut_loss`` calls: bit-identical to ``cut_loss(graph,
        q).gradient * scale``.  The rescale runs the loop of
        ``rescale_to_target`` without its validation: p comes from a sigmoid or
        the MPNN, the degrees were validated with the graph, and the target is
        a ``VolumeConstraint`` midpoint, which is positive.  The loop still
        raises ``ValueError`` on a non-finite p, which an overflowing MPNN can
        produce.  s is as for ``CliqueLossSpec.step_kernel``.
        """
        if self.interval is None:
            raise ValueError("cut loss evaluation requires a bound volume interval")
        target = self.interval.target
        degree = graph.degree
        neighbor_sums = _neighbor_sums_kernel(graph)

        def step(p: np.ndarray) -> tuple[float, np.ndarray]:
            q, scale, _ = _rescale(p, degree, target)
            s = neighbor_sums(q)
            return _cut_value(float(degree @ q), 0.5 * float(q @ s)), _cut_gradient(degree, s) * scale

        return step


# ---------------------------------------------------------------------------
# Adam


@dataclass
class OptimState:
    """Adam state: step count, first/second moment estimates, learning rate."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def apply(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.step += 1
        c1 = 1.0 - self.beta1**self.step
        c2 = 1.0 - self.beta2**self.step
        for key, g in grads.items():
            if key not in self.m:
                self.m[key] = np.zeros_like(g)
                self.v[key] = np.zeros_like(g)
            m, v = self.m[key], self.v[key]
            # In place, with the float operations of
            #   m += (1 - beta1) * (g - m);  v += (1 - beta2) * (g * g - v)
            #   params -= lr * (m / c1) / (sqrt(v / c2) + eps)
            # in that order; products are commutative, so the bits are the same.
            step = g - m
            step *= 1.0 - self.beta1
            m += step
            np.multiply(g, g, out=step)
            step -= v
            step *= 1.0 - self.beta2
            v += step
            np.divide(m, c1, out=step)
            step *= self.lr
            scale = v / c2
            np.sqrt(scale, out=scale)
            scale += self.eps
            step /= scale
            params[key] -= step


class NonFiniteLossError(FloatingPointError):
    """``optimize_direct``'s loss stopped being finite.

    ``step`` is the step it happened at.  ``row`` is the union part whose
    loss it was (the lowest such index) when the kernel returns one value
    per part, and None when it returns one float.
    """

    def __init__(self, value: float, step: int, row: int | None) -> None:
        where = "" if row is None else f" in part {row}"
        super().__init__(f"loss became {value} at step {step}{where}")
        self.value, self.step, self.row = value, step, row


_PIN_LOGIT = 12.0
# Steps between the loss comparisons of optimize_direct's flatness stop (``rtol``).
_STOP_WINDOW = 20


def optimize_direct(
    step, logits, steps: int = 300, *, lr: float = 0.01, pin: int | None = None, rtol: float = 0.0
) -> tuple[np.ndarray, list]:
    """Adam on free per-node logits from the start ``logits``; p = sigmoid(logits).

    ``step`` is a bound kernel, p -> (value, gradient): a spec's
    ``step_kernel`` on one graph, whose value is one float, or
    ``CliqueLossSpec.step_kernel(union, parts=offsets)`` on a disjoint
    union, whose value is one float per part.  ``logits`` is copied; zeros
    start every node at p = 0.5.  ``pin`` clamps one node's logit high
    throughout, for objectives where that node is forced into the solution
    anyway.

    Returns the final p and the loss recorded before every update plus once
    at the end (``steps + 1`` values), or, for a union kernel, one such list
    per part.  With ``steps=0`` the start's p comes back.  Each part of a
    union keeps the bits of its own run on that part alone: the kernel keeps
    them (see ``CliqueLossSpec.step_kernel``), and sigmoid and Adam work
    elementwise.  A spec's kernel calls the helpers of the validated losses,
    so p has the bits of stepping on ``clique_loss`` or ``cut_loss``; the
    recorded losses can differ from theirs by rounding (measured at most
    2e-15 relative, 9e-13 absolute, on G(n, p) graphs with n from 50 to 1000).

    ``rtol`` > 0 stops the loop once the loss is flat, so that ``steps`` is
    the most steps it takes.  At every step k that is a positive multiple of
    20 (and below ``steps``) the loss L_k, recorded before update k, is
    compared with L_{k-20}; if |L_k - L_{k-20}| <= ``rtol`` * max(|L_k|, 1)
    (for every part of a union) the call returns the p of step k and the
    k + 1 losses recorded so far, which is what ``steps=k`` returns, bit for
    bit.  The default 0 always takes ``steps`` steps.

    Raises:
        ValueError: before any step, on a ``pin`` outside the logits or an
            ``rtol`` that is negative or not finite.
        NonFiniteLossError: if the loss, or any part's, stops being finite;
            it is a FloatingPointError.
    """
    if not (math.isfinite(rtol) and rtol >= 0.0):
        raise ValueError(f"rtol must be finite and non-negative, got {rtol}")
    logits = np.array(logits, dtype=np.float64)
    if pin is not None:
        if not 0 <= pin < logits.size:
            raise ValueError(f"pin {pin} out of range for {logits.size} nodes")
        logits[pin] = _PIN_LOGIT
    state = OptimState(lr=lr)
    history = []
    # A loss that overflows is reported by the check below, not by numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            p = sigmoid(logits)
            value, gradient = step(p)
            finite = np.isfinite(value)
            if not finite.all():
                row = int(np.argmin(finite)) if np.ndim(value) else None
                raise NonFiniteLossError(value if row is None else value[row], k, row)
            history.append(value)
            if rtol and k and k % _STOP_WINDOW == 0:
                if np.all(np.abs(value - history[k - _STOP_WINDOW]) <= rtol * np.maximum(np.abs(value), 1.0)):
                    steps = k  # p and history are those of a call with steps=k
                    break
            # gradient * p * (1 - p), in place: the kernel returns a new array each step.
            gradient *= p
            gradient *= 1.0 - p
            state.apply({"logits": logits}, {"logits": gradient})
            if pin is not None:
                logits[pin] = _PIN_LOGIT
    if len(history) == steps:
        p = sigmoid(logits)
        history.append(step(p)[0])
    return p, np.array(history).T.tolist()


# ---------------------------------------------------------------------------
# MPNN


@dataclass
class MpnnParams:
    """Weight container; keys are stable and shared with optimizer state."""

    hidden: int
    layers: int
    weights: dict[str, np.ndarray]

    @staticmethod
    def shapes(hidden: int, layers: int) -> dict[str, tuple[int, ...]]:
        """Name -> shape of every weight, in initialization order."""
        if hidden < 1 or layers < 0:
            raise ValueError("need hidden >= 1 and layers >= 0")
        shapes = {
            "embed_w": (hidden, 2),
            "embed_b": (hidden,),
            "head1_w": (hidden, hidden),
            "head1_b": (hidden,),
            "head2_w": (hidden,),
            "head2_b": (1,),
        }
        for k in range(layers):
            shapes[f"layer{k}_w"] = (hidden, hidden)
            shapes[f"layer{k}_b"] = (hidden,)
        return shapes

    @classmethod
    def init(cls, rng: np.random.Generator, hidden: int = 16, layers: int = 3) -> "MpnnParams":
        """Uniform(+-1/sqrt(hidden)) matrices, zero biases."""
        shapes = cls.shapes(hidden, layers)
        bound = 1.0 / np.sqrt(hidden)
        w = {
            key: rng.uniform(-bound, bound, shape) if key.endswith("_w") else np.zeros(shape)
            for key, shape in shapes.items()
        }
        return cls(hidden=hidden, layers=layers, weights=w)

    def copy(self) -> "MpnnParams":
        return MpnnParams(self.hidden, self.layers, {k: v.copy() for k, v in self.weights.items()})


def _node_features(graph: Graph, seed_node: int) -> np.ndarray:
    x = np.zeros((graph.n, 2))
    x[seed_node, 0] = 1.0
    max_deg = float(graph.degree.max()) if graph.n else 0.0
    if max_deg > 0.0:
        x[:, 1] = graph.degree / max_deg
    return x


def _neighbor_sum(graph: Graph, h: np.ndarray) -> np.ndarray:
    """Row i is the sum of h over i's neighbours (unweighted message passing).

    One gather of h's rows through ``gather_layout(graph)``, with a zero row
    appended at the pad index n, then a reduce over the gathered rows: each
    node adds its terms in adjacency order, then +0.0 for each pad.  The
    final ``+= 0.0`` turns a sum of -0.0 terms alone into +0.0 where numpy
    starts a reduce from its first term rather than from +0.0, so the
    result has the bits of ``np.add.at(out, rows, h[targets])`` on a zero
    ``out``, which starts every node at +0.0.
    """
    blocks, position = gather_layout(graph)
    padded = np.concatenate([h, np.zeros((1, h.shape[1]))])
    sums = [np.add.reduce(padded.take(block, axis=0), axis=0) for block in blocks]
    out = sums[0] if position is None else np.concatenate(sums)[position]
    out += 0.0
    return out


def _receptive_field(graph: Graph, seed_node: int, rounds: int) -> list[np.ndarray]:
    """Round k's hop mask, k = 0 .. rounds - 1: 1.0 on the nodes within k + 1 hops of the seed.

    Grown one ring per round from a boolean reach vector over the nodes:
    each round marks the row of every CSR entry whose target is reached.
    The masks equal ``(hop_distances(graph, seed_node) <= min(k + 1, n))``
    as float64, bit for bit, without a BFS over the whole graph: a round
    only grows the reach, so no round takes in a node the seed cannot reach.
    """
    reach = np.zeros(graph.n, dtype=bool)
    reach[seed_node] = True
    masks = []
    for _ in range(rounds):
        reach[graph.rows[reach[graph.targets]]] = True
        masks.append(reach.astype(np.float64))
    return masks


def _forward_context(graph: Graph, seed_node: int, rounds: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """What ``mpnn_forward`` computes from the seed before any weight.

    The node features and, for each of ``rounds`` message-passing rounds,
    its receptive-field mask (``_receptive_field``).  A caller that runs
    the same (graph, seed) pair many times builds it once and passes it in.
    """
    if not (0 <= seed_node < graph.n):
        raise ValueError(f"seed node {seed_node} out of range")
    return _node_features(graph, seed_node), _receptive_field(graph, seed_node, rounds)


def mpnn_forward(
    graph: Graph, params: MpnnParams, seed_node: int, *, want_cache: bool = False, context=None
):
    """Per-node probabilities from the seed-conditioned network.

    After round k (from 0), nodes farther than k + 1 hops from the seed are
    zeroed, so depth bounds the receptive field.  The readout scalars are
    min-max normalized onto [0, 1]; an all-equal readout degenerates to 0.5
    everywhere.  ``context`` is ``_forward_context(graph, seed_node,
    params.layers)``: the features and one float mask per round, grown from
    the seed through the graph's CSR arrays rather than by a BFS.  It
    is computed here unless a caller that runs the same (graph, seed) pair
    many times passes it in; the masks go into the cache as they are.
    Message passing gathers through the graph's ``gather_layout``, which
    is built on the first pass over a graph and kept on it for every later
    pass, forward or backward.
    """
    if context is None:
        context = _forward_context(graph, seed_node, params.layers)
    w = params.weights
    x, masks = context
    h = x @ w["embed_w"].T + w["embed_b"]
    hs = [h]
    aggs: list[np.ndarray] = []
    zs: list[np.ndarray] = []
    for k in range(params.layers):
        agg = h + _neighbor_sum(graph, h)
        z = agg @ w[f"layer{k}_w"].T + w[f"layer{k}_b"]
        h = (np.maximum(z, 0.0) + h) * masks[k][:, None]
        aggs.append(agg)
        zs.append(z)
        hs.append(h)
    r_pre = h @ w["head1_w"].T + w["head1_b"]
    r = np.maximum(r_pre, 0.0)
    y = r @ w["head2_w"] + w["head2_b"][0]
    y_min = float(y.min())
    y_max = float(y.max())
    span = y_max - y_min
    if span == 0.0:
        p = np.full(graph.n, 0.5)
    else:
        p = (y - y_min) / span
    if not want_cache:
        return p
    cache = {
        "x": x,
        "hs": hs,
        "aggs": aggs,
        "zs": zs,
        "masks": masks,
        "r_pre": r_pre,
        "r": r,
        "span": span,
        "jmin": int(np.argmin(y)),
        "jmax": int(np.argmax(y)),
        "p": p,
    }
    return p, cache


def mpnn_backward(
    graph: Graph, params: MpnnParams, cache: dict, dL_dp: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss with respect to every weight.

    ``dL_dp`` is the loss gradient at the network output.  The min-max
    normalization is differentiated exactly (subgradients at argmin/argmax
    pick the first occurrence); a degenerate all-equal readout has zero
    gradient.
    """
    w = params.weights
    g = np.asarray(dL_dp, dtype=np.float64)
    span = cache["span"]
    if span == 0.0:
        gy = np.zeros_like(g)
    else:
        p = cache["p"]
        g1 = float(g.sum())
        g2 = float(g @ p)
        gy = g / span
        gy[cache["jmin"]] += (g2 - g1) / span
        gy[cache["jmax"]] -= g2 / span

    r = cache["r"]
    h_top = cache["hs"][-1]
    grads: dict[str, np.ndarray] = {}
    grads["head2_w"] = r.T @ gy
    grads["head2_b"] = np.array([gy.sum()])
    gr = np.outer(gy, w["head2_w"]) * (cache["r_pre"] > 0.0)
    grads["head1_w"] = gr.T @ h_top
    grads["head1_b"] = gr.sum(axis=0)
    gh = gr @ w["head1_w"]

    for k in range(params.layers - 1, -1, -1):
        gu = gh * cache["masks"][k][:, None]
        gz = gu * (cache["zs"][k] > 0.0)
        grads[f"layer{k}_w"] = gz.T @ cache["aggs"][k]
        grads[f"layer{k}_b"] = gz.sum(axis=0)
        g_agg = gz @ w[f"layer{k}_w"]
        gh = gu + g_agg + _neighbor_sum(graph, g_agg)

    grads["embed_w"] = gh.T @ cache["x"]
    grads["embed_b"] = gh.sum(axis=0)
    return grads


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    params: MpnnParams
    history: dict[str, list[float]]
    optimizer: OptimState
    epochs_trained: int


def _draw_interval(graph: Graph, seed: int, hops: int, rng: np.random.Generator) -> VolumeConstraint:
    d_s = float(graph.degree[seed])
    dist = hop_distances(graph, seed)
    # Unreached nodes sit at n + 1 hops; the cap keeps them out at any hops.
    ball_vol = float(graph.degree[dist <= min(hops, graph.n)].sum())
    lo = 2.0 * d_s
    hi = max(ball_vol, lo * 1.001)
    center = float(rng.uniform(lo, hi))
    return VolumeConstraint(0.75 * center, 1.25 * center)


def _pick_seed(graph: Graph, rng: np.random.Generator, need_degree: bool) -> int:
    return int(rng.choice(np.flatnonzero(graph.degree > 0.0))) if need_degree else int(rng.integers(graph.n))


def _sample_context(loss_spec, graph: Graph, rng: np.random.Generator, hops: int):
    """Pick a seed and bind the loss kernel for one training or validation pass.

    A cut spec without a pinned interval gets one drawn around the seed.
    """
    cut = isinstance(loss_spec, CutLossSpec)
    seed = _pick_seed(graph, rng, need_degree=cut)
    if cut and loss_spec.interval is None:
        loss_spec = CutLossSpec(_draw_interval(graph, seed, hops, rng))
    return seed, loss_spec.step_kernel(graph)


def train_mpnn(
    corpus,
    loss_spec,
    epochs: int,
    *,
    hidden: int = 16,
    layers: int = 3,
    batch_size: int = 8,
    lr: float = 1e-3,
    rng: np.random.Generator | None = None,
    init: MpnnParams | None = None,
    optimizer_state: OptimState | None = None,
) -> TrainResult:
    """Minibatch Adam over a graph corpus; returns the best-validation weights.

    Each epoch resamples one seed node per training graph (and, for cut
    losses without a pinned interval, a volume interval inside the seed's
    receptive field).  Validation contexts are drawn once up front so the
    selection criterion is stable, and so are their features and
    receptive-field masks; without a validation split the training loss is
    used instead.  Every forward and backward pass on one graph, over all epochs,
    gathers through the ``gather_layout`` kept on that graph.  Losses come
    from the spec's ``step_kernel``, as in ``optimize_direct``; its
    neighbour sums are built once per graph and kept there.

    Raises:
        ValueError: before any work, on ``epochs < 0``, ``batch_size < 1``,
            an ``lr`` that is not finite and positive, a corpus without
            training graphs, a train or val graph without nodes, or, for a
            ``CutLossSpec``, a train or val graph without edges to seed at.
    """
    if epochs < 0:
        raise ValueError(f"need epochs >= 0, got {epochs}")
    if batch_size < 1:
        raise ValueError(f"need batch_size >= 1, got {batch_size}")
    if not (math.isfinite(lr) and lr > 0.0):
        raise ValueError(f"lr must be finite and positive, got {lr}")
    rng = rng if rng is not None else np.random.default_rng(0)
    train_graphs = [g for g, s in zip(corpus.graphs, corpus.splits) if s == "train"]
    val_graphs = [g for g, s in zip(corpus.graphs, corpus.splits) if s == "val"]
    if not train_graphs:
        raise ValueError("corpus has no graphs in the train split")
    cut = isinstance(loss_spec, CutLossSpec)
    for g, name, split in zip(corpus.graphs, corpus.names, corpus.splits):
        if split in ("train", "val") and g.n == 0:
            raise ValueError(f"graph {name!r} in the {split} split has no nodes to seed the network at")
        if split in ("train", "val") and cut and g.num_edges == 0:
            raise ValueError(f"graph {name!r} in the {split} split has no edges to seed a cut objective at")
    params = init.copy() if init is not None else MpnnParams.init(rng, hidden, layers)
    state = optimizer_state if optimizer_state is not None else OptimState(lr=lr)
    hops = max(params.layers, 1)

    val_ctx = []
    for g in val_graphs:
        seed, step = _sample_context(loss_spec, g, rng, hops)
        val_ctx.append((g, seed, step, _forward_context(g, seed, params.layers)))
    history: dict[str, list[float]] = {"train": [], "val": []}
    best_params, best_score = params.copy(), np.inf
    for _ in range(epochs):
        order = rng.permutation(len(train_graphs))
        epoch_losses: list[float] = []
        for start in range(0, order.size, batch_size):
            batch = order[start : start + batch_size]
            acc: dict[str, np.ndarray] = {}
            for j in batch:
                g = train_graphs[int(j)]
                seed, step = _sample_context(loss_spec, g, rng, hops)
                p, cache = mpnn_forward(g, params, seed, want_cache=True)
                value, gradient = step(p)
                epoch_losses.append(value)
                for key, val in mpnn_backward(g, params, cache, gradient).items():
                    acc[key] = acc[key] + val if key in acc else val
            for key in acc:
                acc[key] /= batch.size
            state.apply(params.weights, acc)
        score = float(np.mean(epoch_losses))
        history["train"].append(score)
        if val_ctx:
            score = float(np.mean([step(mpnn_forward(g, params, seed, context=c))[0] for g, seed, step, c in val_ctx]))
            history["val"].append(score)
        if score < best_score:
            best_score, best_params = score, params.copy()
    return TrainResult(params=best_params, history=history, optimizer=state, epochs_trained=epochs)


# ---------------------------------------------------------------------------
# checkpoints


_OPTIM_SCALARS = {"lr": float, "beta1": float, "beta2": float, "eps": float, "step": int}


def save_checkpoint(
    path,
    params: MpnnParams,
    *,
    optimizer: OptimState | None = None,
    meta: dict | None = None,
) -> None:
    """Write weights (and optionally optimizer state) to .json or .npz.

    Both formats hold one header (format version, hidden, layers, the Adam
    scalars or None, meta) and named arrays: the weights and Adam's m and v.
    ``.npz`` stores the header as JSON bytes under ``__header__`` and the
    arrays as ``weights/<name>``, ``optim_m/<name>`` and ``optim_v/<name>``;
    ``.json`` inlines the arrays as nested lists at ``weights``,
    ``optimizer.m`` and ``optimizer.v``.
    """
    path = Path(path)
    header = {
        "format_version": CHECKPOINT_VERSION,
        "hidden": params.hidden,
        "layers": params.layers,
        "optimizer": None if optimizer is None else {k: getattr(optimizer, k) for k in _OPTIM_SCALARS},
        "meta": meta or {},
    }
    groups = {"weights": params.weights}
    if optimizer is not None:
        groups.update(optim_m=optimizer.m, optim_v=optimizer.v)
    if path.suffix == ".npz":
        arrays = {f"{group}/{k}": v for group, named in groups.items() for k, v in named.items()}
        arrays["__header__"] = np.frombuffer(json.dumps(header, sort_keys=True).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        return
    lists = {group: {k: v.tolist() for k, v in named.items()} for group, named in groups.items()}
    doc = dict(header, weights=lists["weights"])
    if optimizer is not None:
        doc["optimizer"] = dict(header["optimizer"], m=lists["optim_m"], v=lists["optim_v"])
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _read_checkpoint(path: Path, optimizer: bool) -> tuple[dict, dict]:
    """Either layout as (header, {group: {name: array-like}}).

    A .json document serves as its own header; the arrays inlined in it are
    ignored there.  Without ``optimizer``, a .npz file's moment members are
    never read.
    """
    if path.suffix == ".npz":
        # Opened here, so that a missing or unreadable file stays an OSError.
        with open(path, "rb") as fh:
            try:
                with np.load(fh) as data:
                    if "__header__" not in data.files:
                        raise ValueError("checkpoint has no __header__ member")
                    groups: dict = {"weights": {}, "optim_m": {}, "optim_v": {}} if optimizer else {"weights": {}}
                    for name in data.files:
                        group, _, key = name.partition("/")
                        if group in groups:
                            groups[group][key] = data[name]
                    return _object(json.loads(bytes(data["__header__"]).decode()), "header"), groups
            except (zipfile.BadZipFile, EOFError, NotImplementedError, RuntimeError, OSError) as exc:
                # What zipfile raises for an empty, truncated or corrupted archive:
                # EOFError when truncated, NotImplementedError for an unknown
                # method, version or flag, RuntimeError for the encryption flag,
                # OSError for a seek outside the file or a bad bzip2 stream.
                raise ValueError(f"checkpoint is not a readable .npz archive: {exc}") from None
    doc = _object(json.loads(path.read_text(encoding="utf-8")), "top level")
    moments = doc.get("optimizer") if isinstance(doc.get("optimizer"), dict) else {}
    return doc, {"weights": doc.get("weights"), "optim_m": moments.get("m"), "optim_v": moments.get("v")}


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"checkpoint {what} must be a JSON object, not {type(value).__name__}")
    return value


def _number(obj: dict, key: str, kind: type):
    value = obj.get(key)
    numeric = not isinstance(value, bool) and isinstance(value, int if kind is int else (int, float))
    # NaN and infinities fail the range test, and so does an int too large for float().
    if not numeric or (kind is float and not abs(value) <= sys.float_info.max):
        raise ValueError(f"checkpoint field {key!r} must be {'an integer' if kind is int else 'a finite number'}, got {value!r}")
    return kind(value)


def _arrays(named, what: str, shapes: dict) -> dict[str, np.ndarray]:
    """float64 arrays, required to match ``shapes`` name for name and shape for shape."""
    named = _object(named, what)
    if named.keys() != shapes.keys():
        missing, unexpected = sorted(shapes.keys() - named.keys()), sorted(named.keys() - shapes.keys())
        raise ValueError(f"checkpoint {what} do not fit the network: missing {missing}, unexpected {unexpected}")
    try:
        arrays = {k: np.asarray(v, dtype=np.float64) for k, v in named.items()}
    except (TypeError, OverflowError) as exc:
        # OverflowError: a JSON integer too large for a float64.
        raise ValueError(f"checkpoint {what} hold a non-numeric value: {exc}") from None
    for k, a in arrays.items():
        if a.shape != shapes[k]:
            raise ValueError(f"checkpoint {what} {k!r} has shape {a.shape}, expected {shapes[k]}")
        if not np.all(np.isfinite(a)):
            raise ValueError(f"checkpoint {what} {k!r} holds a non-finite value")
    return arrays


def load_checkpoint(path, *, optimizer: bool = True) -> tuple[MpnnParams, OptimState | None, dict]:
    """Read a checkpoint in either format back: (weights, Adam state or None, meta).

    Every weight is read and checked for its name, shape and finiteness.
    ``optimizer=False`` reads the weights alone, for a caller that only runs
    the network (``cliquecut solve``): the optimizer section, its scalars
    and moments, is neither read nor checked, and None comes back for it.
    On the bench's 37-member .npz that skips 24 of the members.

    Raises:
        ValueError: on an unknown format version, an empty, truncated or
            corrupted .npz file, more layers than the file holds weights
            for, or a field, weight or (when read) moment that is missing,
            unexpected, non-finite or of the wrong type or shape.
    """
    header, groups = _read_checkpoint(Path(path), optimizer)
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {header.get('format_version')}")
    hidden, layers = _number(header, "hidden", int), _number(header, "layers", int)
    weights = _object(groups["weights"], "weights")
    # Each layer holds two weights, so the file bounds the layer count before
    # a shape table is built from it.
    if layers > len(weights):
        raise ValueError(f"checkpoint declares {layers} layers but holds {len(weights)} weights")
    shapes = MpnnParams.shapes(hidden, layers)
    params = MpnnParams(hidden, layers, _arrays(weights, "weights", shapes))
    if not optimizer or header.get("optimizer") is None:
        return params, None, header.get("meta", {})
    state = _object(header["optimizer"], "optimizer")
    scalars = {k: _number(state, k, kind) for k, kind in _OPTIM_SCALARS.items()}
    # Adam holds moments for every weight once it has taken a step, none before.
    moment_shapes = shapes if scalars["step"] else {}
    m, v = (_arrays(groups[g], f"optimizer {g[-1]}", moment_shapes) for g in ("optim_m", "optim_v"))
    return params, OptimState(**scalars, m=m, v=v), header.get("meta", {})

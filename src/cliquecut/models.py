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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .distributions import (
    CliqueLossParams,
    LossReport,
    VolumeConstraint,
    _penalty_value,
    clique_loss,
    cut_loss,
    rescale_to_target,
    weighted_neighbor_sums,
)
from .graphs import Graph, hop_distances

__all__ = [
    "CliqueLossSpec",
    "CutLossSpec",
    "OptimState",
    "MpnnParams",
    "TrainResult",
    "sigmoid",
    "rescaled_cut_loss",
    "optimize_direct",
    "mpnn_forward",
    "mpnn_backward",
    "train_mpnn",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 1


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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
        default = graph.total_weight if graph.total_weight > 0.0 else 1.0
        if self.beta is None:
            return CliqueLossParams.for_graph(graph, gamma=self.gamma)
        gamma = min(default, self.beta) if self.gamma is None else self.gamma
        return CliqueLossParams(gamma=gamma, beta=self.beta)

    def evaluate(self, graph: Graph, p: np.ndarray) -> LossReport:
        return clique_loss(graph, p, self.resolve(graph))

    def step_kernel(self, graph: Graph):
        """Bind the loss to ``graph`` for an optimizer loop: returns p -> (value, gradient).

        The kernel trusts p (no validation, no LossReport) and needs one
        neighbour-sum pass s = A p, taking E[weight in S] = p.s / 2 instead of
        a second edge scan.  Its gradient is bit-identical to ``evaluate``'s;
        its value agrees up to rounding in the summation order.
        """
        params = self.resolve(graph)

        def step(p: np.ndarray) -> tuple[float, np.ndarray]:
            s = weighted_neighbor_sums(graph, p)
            total = p.sum()
            value = _penalty_value(params, 0.5 * float(p @ s), float(total * total - p @ p))
            return value, -(params.beta + 1.0) * s + params.beta * (total - p)

        return step


def rescaled_cut_loss(graph: Graph, p, interval: VolumeConstraint) -> LossReport:
    """Expected cut after rescaling the volume to the interval midpoint.

    The gradient treats the rescaling as a constant per-coordinate multiplier
    (straight-through): identity scaling on unsaturated coordinates, zero on
    coordinates clamped at 1.
    """
    q, info = rescale_to_target(p, graph.degree, interval.target, with_info=True)
    rep = cut_loss(graph, q)
    return LossReport(value=rep.value, gradient=rep.gradient * info.scale, terms=rep.terms)


@dataclass(frozen=True)
class CutLossSpec:
    """Cut loss under a volume interval; the interval may be bound later."""

    interval: VolumeConstraint | None = None

    def _bound(self) -> VolumeConstraint:
        if self.interval is None:
            raise ValueError("cut loss evaluation requires a bound volume interval")
        return self.interval

    def evaluate(self, graph: Graph, p: np.ndarray) -> LossReport:
        return rescaled_cut_loss(graph, p, self._bound())

    def step_kernel(self, graph: Graph):
        """``evaluate`` as an unvalidated p -> (value, gradient) kernel bound to ``graph``.

        After rescaling p to q, the value is d.q - q.s (the expected cut, with
        s = A q) and the gradient is (d - 2 s) * scale, bit-identical to
        ``evaluate``'s.
        """
        target = self._bound().target

        def step(p: np.ndarray) -> tuple[float, np.ndarray]:
            q, info = rescale_to_target(p, graph.degree, target, with_info=True)
            s = weighted_neighbor_sums(graph, q)
            value = float(graph.degree @ q) - float(q @ s)
            return value, (graph.degree - 2.0 * s) * info.scale

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
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            params[key] -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


_PIN_LOGIT = 12.0


def optimize_direct(
    graph: Graph,
    loss_spec,
    steps: int = 300,
    *,
    lr: float = 0.01,
    rng: np.random.Generator | None = None,
    init_scale: float = 0.0,
    pin: int | None = None,
) -> tuple[np.ndarray, list[float]]:
    """Adam on free per-node logits; p = sigmoid(logits).

    Returns the final probability vector and the loss recorded before every
    update plus once at the end (``steps + 1`` values).  With ``steps=0`` the
    initial probabilities come back unchanged.  ``pin`` clamps one node's
    logit high throughout, for objectives where that node is forced into the
    solution anyway.

    Each step calls the spec's ``step_kernel``, bound once per call, which
    skips validation and takes E[weight in S] = p.s / 2 from the one
    neighbour-sum pass s = A p.  The probabilities are bit-identical to
    stepping on ``loss_spec.evaluate``; the recorded losses can differ from
    ``evaluate(...).value`` by rounding (measured at most 2e-15 relative,
    9e-13 absolute, on G(n, p) graphs with n from 50 to 1000).

    Raises:
        FloatingPointError: if the loss stops being finite.
    """
    if init_scale > 0.0:
        if rng is None:
            raise ValueError("init_scale > 0 requires an rng")
        logits = init_scale * rng.standard_normal(graph.n)
    else:
        logits = np.zeros(graph.n)
    if pin is not None:
        logits[pin] = _PIN_LOGIT
    state = OptimState(lr=lr)
    step_fn = loss_spec.step_kernel(graph)
    losses: list[float] = []
    for step in range(steps):
        p = sigmoid(logits)
        value, gradient = step_fn(p)
        if not math.isfinite(value):
            raise FloatingPointError(f"loss became {value} at step {step}")
        losses.append(value)
        state.apply({"logits": logits}, {"logits": gradient * p * (1.0 - p)})
        if pin is not None:
            logits[pin] = _PIN_LOGIT
    p = sigmoid(logits)
    losses.append(step_fn(p)[0])
    return p, losses


# ---------------------------------------------------------------------------
# MPNN


@dataclass
class MpnnParams:
    """Weight container; keys are stable and shared with optimizer state."""

    hidden: int
    layers: int
    weights: dict[str, np.ndarray]

    @classmethod
    def init(cls, rng: np.random.Generator, hidden: int = 16, layers: int = 3) -> "MpnnParams":
        if hidden < 1 or layers < 0:
            raise ValueError("need hidden >= 1 and layers >= 0")
        bound = 1.0 / np.sqrt(hidden)
        w: dict[str, np.ndarray] = {
            "embed_w": rng.uniform(-bound, bound, (hidden, 2)),
            "embed_b": np.zeros(hidden),
            "head1_w": rng.uniform(-bound, bound, (hidden, hidden)),
            "head1_b": np.zeros(hidden),
            "head2_w": rng.uniform(-bound, bound, hidden),
            "head2_b": np.zeros(1),
        }
        for k in range(layers):
            w[f"layer{k}_w"] = rng.uniform(-bound, bound, (hidden, hidden))
            w[f"layer{k}_b"] = np.zeros(hidden)
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
    out = np.zeros_like(h)
    np.add.at(out, graph.rows, h[graph.targets])
    return out


def mpnn_forward(
    graph: Graph, params: MpnnParams, seed_node: int, *, want_cache: bool = False
):
    """Per-node probabilities from the seed-conditioned network.

    After round k, nodes farther than k hops from the seed are zeroed, so
    depth bounds the receptive field.  The readout scalars are min-max
    normalized onto [0, 1]; an all-equal readout degenerates to 0.5
    everywhere.
    """
    if not (0 <= seed_node < graph.n):
        raise ValueError(f"seed node {seed_node} out of range")
    w = params.weights
    x = _node_features(graph, seed_node)
    dist = hop_distances(graph, seed_node)
    h = x @ w["embed_w"].T + w["embed_b"]
    hs = [h]
    aggs: list[np.ndarray] = []
    zs: list[np.ndarray] = []
    masks: list[np.ndarray] = []
    for k in range(params.layers):
        agg = h + _neighbor_sum(graph, h)
        z = agg @ w[f"layer{k}_w"].T + w[f"layer{k}_b"]
        mask = (dist <= k + 1).astype(np.float64)
        h = (np.maximum(z, 0.0) + h) * mask[:, None]
        aggs.append(agg)
        zs.append(z)
        masks.append(mask)
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
        "y": y,
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
    ball_vol = float(graph.degree[dist <= hops].sum())
    lo = 2.0 * d_s
    hi = max(ball_vol, lo * 1.001)
    center = float(rng.uniform(lo, hi))
    return VolumeConstraint(0.75 * center, 1.25 * center)


def _pick_seed(graph: Graph, rng: np.random.Generator, need_degree: bool) -> int:
    if not need_degree:
        return int(rng.integers(graph.n))
    eligible = np.flatnonzero(graph.degree > 0.0)
    if eligible.size == 0:
        raise ValueError("graph has no edges; cannot train a cut objective on it")
    return int(rng.choice(eligible))


def _sample_context(loss_spec, graph: Graph, rng: np.random.Generator, hops: int):
    """Pick a (seed, bound loss spec) pair for one training or validation pass."""
    if isinstance(loss_spec, CutLossSpec):
        seed = _pick_seed(graph, rng, need_degree=True)
        spec = loss_spec if loss_spec.interval is not None else CutLossSpec(_draw_interval(graph, seed, hops, rng))
        return seed, spec
    seed = _pick_seed(graph, rng, need_degree=False)
    return seed, loss_spec


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
    selection criterion is stable; without a validation split the training
    loss is used instead.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    train_graphs = [g for g, s in zip(corpus.graphs, corpus.splits) if s == "train"]
    val_graphs = [g for g, s in zip(corpus.graphs, corpus.splits) if s == "val"]
    if not train_graphs:
        raise ValueError("corpus has no graphs in the train split")
    params = init.copy() if init is not None else MpnnParams.init(rng, hidden, layers)
    state = optimizer_state if optimizer_state is not None else OptimState(lr=lr)
    hops = max(params.layers, 1)

    val_ctx = [(g, *_sample_context(loss_spec, g, rng, hops)) for g in val_graphs]
    history: dict[str, list[float]] = {"train": [], "val": []}
    best_params = params.copy()
    if epochs == 0:
        return TrainResult(params=best_params, history=history, optimizer=state, epochs_trained=0)

    best_score = np.inf
    for _ in range(epochs):
        order = rng.permutation(len(train_graphs))
        epoch_losses: list[float] = []
        for start in range(0, order.size, batch_size):
            batch = order[start : start + batch_size]
            acc: dict[str, np.ndarray] = {}
            for j in batch:
                g = train_graphs[int(j)]
                seed, spec = _sample_context(loss_spec, g, rng, hops)
                p, cache = mpnn_forward(g, params, seed, want_cache=True)
                rep = spec.evaluate(g, p)
                epoch_losses.append(rep.value)
                grads = mpnn_backward(g, params, cache, rep.gradient)
                for key, val in grads.items():
                    if key in acc:
                        acc[key] += val
                    else:
                        acc[key] = val
            for key in acc:
                acc[key] /= batch.size
            state.apply(params.weights, acc)
        train_mean = float(np.mean(epoch_losses))
        history["train"].append(train_mean)
        if val_ctx:
            val_mean = float(
                np.mean([spec.evaluate(g, mpnn_forward(g, params, seed)).value for g, seed, spec in val_ctx])
            )
            history["val"].append(val_mean)
            score = val_mean
        else:
            score = train_mean
        if score < best_score:
            best_score = score
            best_params = params.copy()
    return TrainResult(params=best_params, history=history, optimizer=state, epochs_trained=epochs)


# ---------------------------------------------------------------------------
# checkpoints


def _optimizer_to_json(state: OptimState | None) -> dict | None:
    if state is None:
        return None
    return {
        "lr": state.lr,
        "beta1": state.beta1,
        "beta2": state.beta2,
        "eps": state.eps,
        "step": state.step,
        "m": {k: v.tolist() for k, v in state.m.items()},
        "v": {k: v.tolist() for k, v in state.v.items()},
    }


def _optimizer_from_json(data: dict | None) -> OptimState | None:
    if data is None:
        return None
    return OptimState(
        lr=float(data["lr"]),
        beta1=float(data["beta1"]),
        beta2=float(data["beta2"]),
        eps=float(data["eps"]),
        step=int(data["step"]),
        m={k: np.asarray(v, dtype=np.float64) for k, v in data["m"].items()},
        v={k: np.asarray(v, dtype=np.float64) for k, v in data["v"].items()},
    )


def save_checkpoint(
    path,
    params: MpnnParams,
    *,
    optimizer: OptimState | None = None,
    meta: dict | None = None,
) -> None:
    """Write weights (and optionally optimizer state) to .json or .npz."""
    path = Path(path)
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "hidden": params.hidden,
        "layers": params.layers,
        "weights": {k: v.tolist() for k, v in params.weights.items()},
        "optimizer": _optimizer_to_json(optimizer),
        "meta": meta or {},
    }
    if path.suffix == ".npz":
        arrays = {f"weights/{k}": v for k, v in params.weights.items()}
        if optimizer is not None:
            arrays.update({f"optim_m/{k}": v for k, v in optimizer.m.items()})
            arrays.update({f"optim_v/{k}": v for k, v in optimizer.v.items()})
        header = dict(doc)
        header.pop("weights")
        header["optimizer"] = None if optimizer is None else {
            "lr": optimizer.lr,
            "beta1": optimizer.beta1,
            "beta2": optimizer.beta2,
            "eps": optimizer.eps,
            "step": optimizer.step,
        }
        arrays["__header__"] = np.frombuffer(json.dumps(header, sort_keys=True).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
    else:
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def load_checkpoint(path) -> tuple[MpnnParams, OptimState | None, dict]:
    """Read a checkpoint back; raises on unknown format versions."""
    path = Path(path)
    if path.suffix == ".npz":
        with np.load(path) as data:
            header = json.loads(bytes(data["__header__"]).decode())
            if header.get("format_version") != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {header.get('format_version')}")
            weights = {
                k.split("/", 1)[1]: np.asarray(data[k], dtype=np.float64)
                for k in data.files
                if k.startswith("weights/")
            }
            params = MpnnParams(hidden=int(header["hidden"]), layers=int(header["layers"]), weights=weights)
            state = None
            if header.get("optimizer") is not None:
                o = header["optimizer"]
                state = OptimState(
                    lr=float(o["lr"]),
                    beta1=float(o["beta1"]),
                    beta2=float(o["beta2"]),
                    eps=float(o["eps"]),
                    step=int(o["step"]),
                    m={
                        k.split("/", 1)[1]: np.asarray(data[k], dtype=np.float64)
                        for k in data.files
                        if k.startswith("optim_m/")
                    },
                    v={
                        k.split("/", 1)[1]: np.asarray(data[k], dtype=np.float64)
                        for k in data.files
                        if k.startswith("optim_v/")
                    },
                )
            return params, state, header.get("meta", {})
    doc = json.loads(path.read_text(encoding="utf-8"))
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('format_version')}")
    params = MpnnParams(
        hidden=int(doc["hidden"]),
        layers=int(doc["layers"]),
        weights={k: np.asarray(v, dtype=np.float64) for k, v in doc["weights"].items()},
    )
    return params, _optimizer_from_json(doc.get("optimizer")), doc.get("meta", {})

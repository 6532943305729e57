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
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .distributions import (
    CliqueLossParams,
    VolumeConstraint,
    _neighbor_sums_kernel,
    _penalty_value,
    _rescale,
    # Unused here, but bench/spans.py wraps these three in this namespace by name.
    clique_loss,  # noqa: F401
    cut_loss,  # noqa: F401
    rescale_to_target,  # noqa: F401
)
from .graphs import Graph, hop_distances

__all__ = [
    "CliqueLossSpec",
    "CutLossSpec",
    "OptimState",
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

    def step_kernel(self, graph: Graph, neighbor_sums=None):
        """Bind the loss to ``graph`` for an optimizer loop: returns p -> (value, gradient).

        The kernel trusts p (no validation, no LossReport) and needs one
        neighbour-sum pass s = A p, taking E[weight in S] = p.s / 2 instead of
        a second edge scan.  Its gradient is bit-identical to ``clique_loss``'s;
        its value agrees up to rounding in the summation order.
        ``neighbor_sums`` is ``_neighbor_sums_kernel(graph)``, built here
        unless a caller that binds many kernels to one graph passes it in.
        """
        params = self.resolve(graph)
        neighbor_sums = neighbor_sums or _neighbor_sums_kernel(graph)

        def step(p: np.ndarray) -> tuple[float, np.ndarray]:
            s = neighbor_sums(p)
            total = p.sum()
            value = _penalty_value(params, 0.5 * float(p @ s), float(total * total - p @ p))
            return value, -(params.beta + 1.0) * s + params.beta * (total - p)

        return step


@dataclass(frozen=True)
class CutLossSpec:
    """Expected cut after rescaling the volume to the interval midpoint.

    The gradient treats the rescaling as a constant per-coordinate multiplier
    (straight-through): identity scaling on unsaturated coordinates, zero on
    coordinates clamped at 1.  The interval may be bound later.
    """

    interval: VolumeConstraint | None = None

    def step_kernel(self, graph: Graph, neighbor_sums=None):
        """Bind the loss to ``graph``: an unvalidated p -> (value, gradient) kernel.

        After rescaling p to q, the value is d.q - q.s (the expected cut, with
        s = A q) and the gradient is (d - 2 s) * scale, bit-identical to
        ``cut_loss(graph, q).gradient * scale``.  The rescale runs the loop of
        ``rescale_to_target`` without its validation: p comes from a sigmoid or
        the MPNN, the degrees were validated with the graph, and the target is
        a ``VolumeConstraint`` midpoint, which is positive.  The loop still
        raises ``ValueError`` on a non-finite p, which an overflowing MPNN can
        produce.  ``neighbor_sums`` is as for ``CliqueLossSpec.step_kernel``.
        """
        if self.interval is None:
            raise ValueError("cut loss evaluation requires a bound volume interval")
        target = self.interval.target
        degree = graph.degree
        neighbor_sums = neighbor_sums or _neighbor_sums_kernel(graph)

        def step(p: np.ndarray) -> tuple[float, np.ndarray]:
            q, scale, _ = _rescale(p, degree, target)
            s = neighbor_sums(q)
            value = float(degree @ q) - float(q @ s)
            return value, (degree - 2.0 * s) * scale

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
    stepping on the validated public losses (``clique_loss``, ``cut_loss``);
    the recorded losses can differ from theirs by rounding (measured at most
    2e-15 relative, 9e-13 absolute, on G(n, p) graphs with n from 50 to 1000).

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


def _sample_context(loss_spec, graph: Graph, neighbor_sums, rng: np.random.Generator, hops: int):
    """Pick a seed and bind the loss kernel for one training or validation pass.

    A cut spec without a pinned interval gets one drawn around the seed.
    ``neighbor_sums`` is the graph's ``_neighbor_sums_kernel``, built once
    per graph for the whole run.
    """
    cut = isinstance(loss_spec, CutLossSpec)
    seed = _pick_seed(graph, rng, need_degree=cut)
    if cut and loss_spec.interval is None:
        loss_spec = CutLossSpec(_draw_interval(graph, seed, hops, rng))
    return seed, loss_spec.step_kernel(graph, neighbor_sums)


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
    loss is used instead.  Losses come from the spec's ``step_kernel``, as in
    ``optimize_direct``.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    train_graphs = [g for g, s in zip(corpus.graphs, corpus.splits) if s == "train"]
    val_graphs = [g for g, s in zip(corpus.graphs, corpus.splits) if s == "val"]
    if not train_graphs:
        raise ValueError("corpus has no graphs in the train split")
    params = init.copy() if init is not None else MpnnParams.init(rng, hidden, layers)
    state = optimizer_state if optimizer_state is not None else OptimState(lr=lr)
    hops = max(params.layers, 1)

    val_ctx = [(g, *_sample_context(loss_spec, g, _neighbor_sums_kernel(g), rng, hops)) for g in val_graphs]
    train_sums = [_neighbor_sums_kernel(g) for g in train_graphs]
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
                seed, step = _sample_context(loss_spec, g, train_sums[int(j)], rng, hops)
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
            score = float(np.mean([step(mpnn_forward(g, params, seed))[0] for g, seed, step in val_ctx]))
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


def _read_checkpoint(path: Path) -> tuple[dict, dict]:
    """Either layout as (header, {group: {name: array-like}}).

    A .json document serves as its own header; the arrays inlined in it are
    ignored there.
    """
    if path.suffix == ".npz":
        try:
            with np.load(path) as data:
                if "__header__" not in data.files:
                    raise ValueError("checkpoint has no __header__ member")
                groups: dict = {"weights": {}, "optim_m": {}, "optim_v": {}}
                for name in data.files:
                    group, _, key = name.partition("/")
                    if group in groups:
                        groups[group][key] = data[name]
                return _object(json.loads(bytes(data["__header__"]).decode()), "header"), groups
        except (zipfile.BadZipFile, EOFError) as exc:
            # np.load raises these for an empty or truncated archive.
            raise ValueError(f"checkpoint is not a readable .npz archive: {exc}") from None
    doc = _object(json.loads(path.read_text(encoding="utf-8")), "top level")
    optimizer = doc.get("optimizer") if isinstance(doc.get("optimizer"), dict) else {}
    return doc, {"weights": doc.get("weights"), "optim_m": optimizer.get("m"), "optim_v": optimizer.get("v")}


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"checkpoint {what} must be a JSON object, not {type(value).__name__}")
    return value


def _number(obj: dict, key: str, kind: type):
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        raise ValueError(f"checkpoint field {key!r} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    return kind(value)


def _arrays(named, what: str, shapes: dict) -> dict[str, np.ndarray]:
    """float64 arrays, required to match ``shapes`` name for name and shape for shape."""
    named = _object(named, what)
    if named.keys() != shapes.keys():
        missing, unexpected = sorted(shapes.keys() - named.keys()), sorted(named.keys() - shapes.keys())
        raise ValueError(f"checkpoint {what} do not fit the network: missing {missing}, unexpected {unexpected}")
    try:
        arrays = {k: np.asarray(v, dtype=np.float64) for k, v in named.items()}
    except TypeError as exc:
        raise ValueError(f"checkpoint {what} hold a non-numeric value: {exc}") from None
    for k, a in arrays.items():
        if a.shape != shapes[k]:
            raise ValueError(f"checkpoint {what} {k!r} has shape {a.shape}, expected {shapes[k]}")
    return arrays


def load_checkpoint(path) -> tuple[MpnnParams, OptimState | None, dict]:
    """Read a checkpoint in either format back.

    Raises:
        ValueError: on an unknown format version, an empty or truncated .npz
            file, or a field, weight or moment that is missing, unexpected
            or of the wrong type or shape.
    """
    header, groups = _read_checkpoint(Path(path))
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {header.get('format_version')}")
    hidden, layers = _number(header, "hidden", int), _number(header, "layers", int)
    shapes = MpnnParams.shapes(hidden, layers)
    params = MpnnParams(hidden, layers, _arrays(groups["weights"], "weights", shapes))
    if header.get("optimizer") is None:
        return params, None, header.get("meta", {})
    optimizer = _object(header["optimizer"], "optimizer")
    scalars = {k: _number(optimizer, k, kind) for k, kind in _OPTIM_SCALARS.items()}
    # Adam holds moments for every weight once it has taken a step, none before.
    moment_shapes = shapes if scalars["step"] else {}
    m, v = (_arrays(groups[g], f"optimizer {g[-1]}", moment_shapes) for g in ("optim_m", "optim_v"))
    return params, OptimState(**scalars, m=m, v=v), header.get("meta", {})

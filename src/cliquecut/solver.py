"""End-to-end solvers: produce a distribution, decode it, certify the result.

Clique solving runs multiple restarts (different RNG streams; for the direct
producer the first restart starts from the symmetric p = 0.5 point and later
ones jitter the initial logits) and keeps the best decoded clique.  Local
partitioning scans a schedule of volume intervals around the seed and keeps
the lowest-conductance feasible decode.  Restarts and intervals are
embarrassingly parallel; per-restart seeding keeps results byte-identical at
any thread count.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .certificates import Certificate, box_certificate, penalty_certificate
from .decoding import (
    CliquePenaltyObjective,
    decode_clique_sweep,
    decode_conditional,
    decode_cut_with_volume,
    grow_to_maximal,
)
from .distributions import (
    CliqueLossParams,
    VolumeConstraint,
    clique_loss,
    expected_cut,
    expected_volume,
    rescale_to_target,
    sample,
)
from .graphs import (
    Graph,
    NodeSet,
    conductance,
    cut_weight,
    hop_distances,
    is_clique,
    set_weight,
    volume,
)
from .models import CliqueLossSpec, CutLossSpec, MpnnParams, mpnn_forward, optimize_direct

__all__ = [
    "SolveConfig",
    "SolveResult",
    "solve_max_clique",
    "solve_local_partition",
    "uniform_random_baseline",
    "greedy_mis_complement",
    "approximation_ratio",
    "default_interval_schedule",
]


@dataclass(frozen=True)
class SolveConfig:
    """Knobs shared by both solvers; unused fields are ignored per problem.

    ``beta``/``gamma`` parameterize the certified loss (defaults: total edge
    weight); ``opt_beta`` is the penalty weight the direct producer optimizes
    with, kept separate because a certificate-strength beta flattens the
    optimization landscape.  On the relaxed landscape an indicator of a set
    with t nodes and edge density d scores like C(t,2) * (d - beta/(1+beta)),
    so beta must exceed d/(1-d) of the densest non-clique pocket or the
    optimizer settles on dense blobs instead of cliques; 2.0 rules out
    density <= 2/3 blobs while keeping gradients informative.
    """

    producer: str = "direct"
    decode: str | None = None
    restarts: int = 10
    steps: int = 300
    lr: float = 0.1
    opt_beta: float = 2.0
    init_jitter: float = 1.0
    gamma: float | None = None
    beta: float | None = None
    t: float = 0.9
    seed: int = 0
    threads: int = 1
    time_budget: float | None = None
    k_samples: int = 32
    mpnn: MpnnParams | None = None
    intervals: tuple[tuple[float, float], ...] | None = None
    num_intervals: int = 8
    ball_hops: int = 3

    def describe(self) -> dict:
        """JSON-safe echo of the configuration (weights elided, shape kept)."""
        out = {
            "producer": self.producer,
            "decode": self.decode,
            "restarts": self.restarts,
            "steps": self.steps,
            "lr": self.lr,
            "opt_beta": self.opt_beta,
            "init_jitter": self.init_jitter,
            "gamma": self.gamma,
            "beta": self.beta,
            "t": self.t,
            "seed": self.seed,
            "threads": self.threads,
            "time_budget": self.time_budget,
            "k_samples": self.k_samples,
            "mpnn": None
            if self.mpnn is None
            else {"hidden": self.mpnn.hidden, "layers": self.mpnn.layers},
            "intervals": None if self.intervals is None else [list(iv) for iv in self.intervals],
            "num_intervals": self.num_intervals,
            "ball_hops": self.ball_hops,
        }
        return out


@dataclass
class SolveResult:
    """Everything a run reports; ``payload`` excludes timing for determinism checks."""

    problem: str
    node_indices: list[int]
    objective: float
    constraint_ok: bool
    certificate: Certificate
    producer: str
    decode: str
    seeds_tried: int
    loss: float
    wall_time: float
    conductance: float | None = None
    volume: float | None = None
    interval: tuple[float, float] | None = None
    gamma: float | None = None

    def payload(self) -> dict:
        return {
            "problem": self.problem,
            "node_indices": [int(i) for i in self.node_indices],
            "objective": float(self.objective),
            "constraint_ok": bool(self.constraint_ok),
            "conductance": None if self.conductance is None else float(self.conductance),
            "volume": None if self.volume is None else float(self.volume),
            "interval": None if self.interval is None else [float(v) for v in self.interval],
            "gamma": None if self.gamma is None else float(self.gamma),
            "loss": float(self.loss),
            "certificate": self.certificate.to_json(),
            "producer": self.producer,
            "decode": self.decode,
            "seeds_tried": int(self.seeds_tried),
        }

    def to_json(self) -> dict:
        return {"payload": self.payload(), "timing": {"wall_time_s": float(self.wall_time)}}


def _run_indexed(worker, count: int, threads: int, time_budget: float | None) -> list:
    """Run worker(0..count-1); budget mode is serial and may stop early."""
    if count < 1:
        raise ValueError("need at least one unit of work")
    if time_budget is not None:
        start = time.perf_counter()
        results = []
        for i in range(count):
            results.append(worker(i))
            if time.perf_counter() - start > time_budget:
                break
        return results
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(worker, range(count)))
    return [worker(i) for i in range(count)]


def _check_producer(config: SolveConfig) -> None:
    if config.producer not in ("direct", "mpnn", "uniform"):
        raise ValueError(f"unknown producer {config.producer!r}")
    if config.producer == "mpnn" and config.mpnn is None:
        raise ValueError("mpnn producer needs trained parameters (load a checkpoint)")


def _produce(
    graph: Graph,
    config: SolveConfig,
    rng: np.random.Generator,
    loss_spec,
    init_scale: float,
    seed_node: int | None = None,
) -> np.ndarray:
    """Probabilities from the configured producer (checked by ``_check_producer``).

    ``seed_node`` is pinned by the direct producer and seeds the MPNN; without
    it the MPNN draws its seed from ``rng``.
    """
    if config.producer == "direct":
        p, _ = optimize_direct(
            graph, loss_spec, config.steps, lr=config.lr, rng=rng, init_scale=init_scale, pin=seed_node
        )
        return p
    if config.producer == "mpnn":
        if seed_node is None:
            seed_node = int(rng.integers(graph.n))
        return mpnn_forward(graph, config.mpnn, seed_node)
    return rng.random(graph.n)


def solve_max_clique(graph: Graph, config: SolveConfig | None = None) -> SolveResult:
    """Multi-restart clique search; returns the heaviest decoded clique.

    The decoded set is a clique unconditionally: candidate decodes that come
    out non-clique are dropped, the greedy sweep (which cannot) always runs
    last as a backstop, and every surviving candidate is grown to a maximal
    clique before selection.

    The default "hybrid" decode tries the conditional decode under both the
    certificate parameters and the optimization parameters, plus the sweep,
    and keeps the heaviest clique.  The certificate-parameter decode carries
    the deterministic guarantee of meeting a non-vacuous bound but is easily
    spooked by residual probability mass outside the target clique (every bit
    of stray mass raises its inclusion threshold); the other two decodes
    recover the quality in that regime, and a heavier clique can only improve
    on the certified cost.
    """
    config = config or SolveConfig()
    decode = config.decode or "hybrid"
    if decode not in ("hybrid", "conditional", "sweep"):
        raise ValueError(f"unknown clique decode {decode!r}")
    if graph.n == 0:
        raise ValueError("cannot solve on an empty graph")
    if config.restarts < 1:
        raise ValueError("need at least one restart")
    _check_producer(config)
    t0 = time.perf_counter()
    cert_params = CliqueLossParams.for_graph(graph, gamma=config.gamma, beta=config.beta)
    opt_spec = CliqueLossSpec(beta=config.opt_beta)
    opt_params = opt_spec.resolve(graph)
    seqs = np.random.SeedSequence(config.seed).spawn(config.restarts)

    def worker(i: int):
        rng = np.random.default_rng(seqs[i])
        p = _produce(graph, config, rng, opt_spec, 0.0 if i == 0 else config.init_jitter)
        candidates: list[NodeSet] = []
        if decode in ("conditional", "hybrid"):
            ns, _ = decode_conditional(graph, p, CliquePenaltyObjective(graph, cert_params))
            if is_clique(graph, ns.mask):
                candidates.append(ns)
        if decode == "hybrid":
            ns, _ = decode_conditional(graph, p, CliquePenaltyObjective(graph, opt_params))
            if is_clique(graph, ns.mask):
                candidates.append(ns)
        if decode in ("hybrid", "sweep") or not candidates:
            candidates.append(decode_clique_sweep(graph, p))
        candidates = [grow_to_maximal(graph, ns.mask) for ns in candidates]
        node_set = candidates[0]
        weight = set_weight(graph, node_set.mask)
        for other in candidates[1:]:
            w = set_weight(graph, other.mask)
            if w > weight:
                node_set, weight = other, w
        loss_value = clique_loss(graph, p, cert_params).value
        return weight, tuple(int(j) for j in node_set.indices()), loss_value

    outcomes = _run_indexed(worker, config.restarts, config.threads, config.time_budget)
    weight, indices, loss_value = min(outcomes, key=lambda o: (-o[0], o[1]))
    node_set = NodeSet.from_indices(graph, indices)
    return SolveResult(
        problem="clique",
        node_indices=list(indices),
        objective=weight,
        constraint_ok=True,
        certificate=penalty_certificate(loss_value, cert_params.beta, config.t),
        producer=config.producer,
        decode=decode,
        seeds_tried=len(outcomes),
        loss=loss_value,
        wall_time=time.perf_counter() - t0,
        volume=node_set.volume,
        gamma=cert_params.gamma,
    )


def uniform_random_baseline(graph: Graph, config: SolveConfig | None = None) -> SolveResult:
    """The same pipeline with uniform-random probabilities as the producer."""
    config = config or SolveConfig()
    return solve_max_clique(graph, replace(config, producer="uniform"))


def default_interval_schedule(
    graph: Graph, seed_node: int, *, hops: int = 3, count: int = 8
) -> list[VolumeConstraint]:
    """Geometric volume-interval grid from twice the seed degree up to the
    receptive-field ball volume (capped at half the total volume to keep the
    scan local); each interval spans +/-25% of its center."""
    if count < 1:
        raise ValueError(f"need at least one volume interval (count >= 1), got {count}")
    d_s = float(graph.degree[seed_node])
    if d_s <= 0.0:
        raise ValueError("seed node is isolated; no volume scale to scan")
    dist = hop_distances(graph, seed_node)
    ball_vol = float(graph.degree[dist <= hops].sum())
    lo = 2.0 * d_s
    hi = max(min(ball_vol, float(graph.degree.sum()) / 2.0), lo)
    centers = np.geomspace(lo, hi, count) if hi > lo else np.array([lo])
    return [VolumeConstraint(0.75 * float(c), 1.25 * float(c)) for c in centers]


def _sampled_cut_decode(
    graph: Graph, q: np.ndarray, vc: VolumeConstraint, seed_node: int, k: int, rng: np.random.Generator
) -> tuple[NodeSet, bool]:
    """Best of k samples with the seed forced in; hard cap on volume."""
    forced = q.copy()
    forced[seed_node] = 1.0
    best: tuple[bool, float] | None = None
    best_mask: np.ndarray | None = None
    for _ in range(k):
        mask = sample(forced, rng)
        vol = volume(graph, mask)
        if vol > vc.upper:
            continue
        key = (not vc.contains(vol), conductance(graph, mask))
        if best is None or key < best:
            best = key
            best_mask = mask
    if best_mask is None:
        best_mask = np.zeros(graph.n, dtype=bool)
        best_mask[seed_node] = True
    node_set = NodeSet.from_mask(graph, best_mask)
    return node_set, vc.contains(node_set.volume)


def solve_local_partition(graph: Graph, seed_node: int, config: SolveConfig | None = None) -> SolveResult:
    """Scan volume intervals around the seed for a low-conductance set.

    Every candidate contains the seed and respects its interval's upper
    volume bound; reaching the lower bound is best-effort and reflected in
    ``constraint_ok``.  Among candidates that land inside their interval the
    lowest conductance wins (falling back to all candidates if none do).
    """
    config = config or SolveConfig()
    decode = config.decode or "conditional"
    if decode not in ("conditional", "sampled"):
        raise ValueError(f"unknown partition decode {decode!r}")
    if config.num_intervals < 1:
        raise ValueError("need at least one volume interval (num_intervals >= 1)")
    if config.k_samples < 1:
        raise ValueError("need at least one sample (k_samples >= 1)")
    _check_producer(config)
    if graph.n == 0:
        raise ValueError("cannot solve on an empty graph")
    if not (0 <= seed_node < graph.n):
        raise ValueError(f"seed node {seed_node} out of range")
    if graph.degree[seed_node] <= 0.0:
        raise ValueError("seed node is isolated; conductance is undefined around it")
    t0 = time.perf_counter()
    if config.intervals is not None:
        intervals = [VolumeConstraint(float(lo), float(hi)) for lo, hi in config.intervals]
    else:
        intervals = default_interval_schedule(
            graph, seed_node, hops=config.ball_hops, count=config.num_intervals
        )
    d_s = float(graph.degree[seed_node])
    usable = [vc for vc in intervals if vc.upper >= d_s]
    if not usable:
        raise ValueError(f"seed degree {d_s} exceeds every interval's upper bound")
    seqs = np.random.SeedSequence(config.seed).spawn(len(usable))

    def worker(i: int):
        vc = usable[i]
        rng = np.random.default_rng(seqs[i])
        # The symmetric p = 0.5 start is a stationary point of the cut loss
        # (every node sees half its degree on each side), so the direct
        # producer always jitters here, unlike the clique path.  Pinning the
        # seed keeps the optimizer on the seed's side of the graph; decode
        # forces the seed into the set regardless.
        p = _produce(
            graph, config, rng, CutLossSpec(vc), max(config.init_jitter, 1e-3), seed_node
        )
        q = rescale_to_target(p, graph.degree, vc.target)
        loss_value = expected_cut(graph, q)
        if decode == "conditional":
            res = decode_cut_with_volume(graph, q, vc, seed_node)
            node_set, lower_met = res.node_set, res.lower_met
        else:
            node_set, lower_met = _sampled_cut_decode(graph, q, vc, seed_node, config.k_samples, rng)
        phi = conductance(graph, node_set.mask)
        cert = box_certificate(loss_value, config.t, graph.degree, vc)
        achieved = expected_volume(graph, q)
        if abs(achieved - vc.target) > 1e-6 * max(vc.target, 1.0):
            # Target unreachable (degrees saturated); the box claim does not apply.
            cert = replace(cert, success_prob=-1.0, vacuous=True)
        return {
            "interval": vc,
            "node_set": node_set,
            "lower_met": lower_met,
            "phi": phi,
            "loss": loss_value,
            "certificate": cert,
        }

    candidates = _run_indexed(worker, len(usable), config.threads, config.time_budget)
    ranked = sorted(
        range(len(candidates)),
        key=lambda i: (not candidates[i]["lower_met"], candidates[i]["phi"], i),
    )
    chosen = candidates[ranked[0]]
    node_set: NodeSet = chosen["node_set"]
    return SolveResult(
        problem="partition",
        node_indices=[int(i) for i in node_set.indices()],
        objective=cut_weight(graph, node_set.mask),
        constraint_ok=bool(chosen["lower_met"]),
        certificate=chosen["certificate"],
        producer=config.producer,
        decode=decode,
        seeds_tried=len(candidates),
        loss=chosen["loss"],
        wall_time=time.perf_counter() - t0,
        conductance=chosen["phi"],
        volume=node_set.volume,
        interval=(chosen["interval"].lower, chosen["interval"].upper),
    )


def greedy_mis_complement(graph: Graph) -> NodeSet:
    """Greedy clique baseline: max independent set on the complement.

    Repeatedly takes the highest-degree node (ties to the lowest index) among
    the remaining mutual neighbors.
    """
    if graph.n == 0:
        raise ValueError("empty graph")
    candidates = np.ones(graph.n, dtype=bool)
    chosen: list[int] = []
    while candidates.any():
        idx = np.flatnonzero(candidates)
        pick = int(idx[np.argmax(graph.degree[idx])])
        chosen.append(pick)
        keep = np.zeros(graph.n, dtype=bool)
        keep[graph.neighbors(pick)] = True
        candidates &= keep
    return NodeSet.from_indices(graph, chosen)


def approximation_ratio(found: float, optimal: float) -> float:
    """found / optimal, guarding against meaningless denominators."""
    if optimal <= 0.0:
        raise ValueError(f"optimal value must be positive, got {optimal}")
    return found / optimal

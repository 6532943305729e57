"""End-to-end solvers: produce a distribution, decode it, certify the result.

Clique solving runs multiple restarts (different RNG streams; for the direct
producer the first restart starts from the symmetric p = 0.5 point and later
ones jitter the initial logits) and keeps the best decoded clique.  On
sparse graphs the restarts become seed balls instead: one solve on the
closed neighbourhood of each of the highest-core nodes, whose cliques are
exactly the cliques through that node.  Either way the direct producer
optimizes several units in one Adam loop on their disjoint union: copies of
the graph for restarts, the balls themselves for seed balls.  Local
partitioning scans a schedule of volume intervals around the seed and keeps
the lowest-conductance feasible decode.  Both run their units (restarts,
balls or intervals) through one driver, ``_solve``; the units are
embarrassingly parallel, and one seed stream per unit keeps results
byte-identical at any thread count.  A unit only produces and decodes;
``_solve`` ranks the units and then computes the loss and the certificate
once, for the distribution of the unit whose set it returns.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .certificates import Certificate, _check_t, box_certificate, penalty_certificate
from .decoding import (
    CliquePenaltyObjective,
    _greedy_clique,
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
)
from .graphs import (
    Graph,
    NodeSet,
    conductance,
    core_numbers,
    cut_weight,
    disjoint_union,
    hop_distances,
    induced,
    is_clique,
    set_weight,
    # Unused here, but bench/spans.py wraps it in this namespace by name.
    volume,  # noqa: F401
)
from .models import CliqueLossSpec, CutLossSpec, MpnnParams, NonFiniteLossError, mpnn_forward, optimize_direct

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

    ``decode`` is ``hybrid`` (the default), ``conditional`` or ``sweep`` for
    a clique solve; a partition solve has one decode, ``conditional``.

    ``restarts`` is the number of restarts over the whole graph, except on
    a clique solve of a sparse graph, where it is the number of seed balls
    (see ``solve_max_clique``).

    The direct producer is ``optimize_direct``: Adam on a kernel the solver
    binds, from logits the solver draws.  ``init_jitter`` is their spread.  A
    clique solve starts its first restart and every seed ball at zero logits
    (p = 0.5) and each later restart at ``init_jitter`` times standard
    normals from its own stream.  A partition interval always draws, with
    spread max(``init_jitter``, 1e-3), and pins its seed node.

    ``steps`` is the most Adam steps the direct producer takes per unit.  A
    clique solve always takes all of them.  A partition interval stops at
    the first multiple of 20 steps where its loss moved by at most 1e-6
    times max(|loss|, 1) over the last 20 (``optimize_direct``'s ``rtol``),
    with the p it would have after exactly that many steps.
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
    mpnn: MpnnParams | None = None
    intervals: tuple[tuple[float, float], ...] | None = None
    num_intervals: int = 8
    ball_hops: int = 3

    def describe(self) -> dict:
        """JSON-safe echo of the configuration (weights elided, shape kept)."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.mpnn is not None:
            out["mpnn"] = {"hidden": self.mpnn.hidden, "layers": self.mpnn.layers}
        if self.intervals is not None:
            out["intervals"] = [list(iv) for iv in self.intervals]
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


# The clique solver's direct producer runs its units in chunks of R, one Adam
# loop on their disjoint union each, with R * 2E <= _STACK_ENTRIES (2E: the
# largest unit's adjacency entries).  Per unit and step, one loop on R copies
# of a planted-clique graph (p = 0.3; best of 5 x 100 steps, two runs, 2-core
# VM, numpy 2.4) took, alone against R = 2-8: 45-46 against 29-38 us at
# 2E = 2**13; 66-68 against 56-59 us at 2**14; 103-105 against 108-117 us at
# 2**15; and 216-249 against 220-237 us at 2**16.  Sharing a loop pays only up
# to 2**14 entries; above that a unit runs alone, in the one-graph loop (see
# ``CliqueLossSpec.step_kernel``).
_STACK_ENTRIES = 2**15

# The relative change over 20 steps below which a partition interval's direct
# producer stops (``optimize_direct``'s ``rtol``).  On the partition-local
# bench graphs cut losses go flat long before step 300 and the stop kept every
# payload's conductance and certificate; 1e-4 over 10 steps did not (it lost a
# non-vacuous certificate on one seed).
_STOP_RTOL = 1e-6


def _check_config(config: SolveConfig) -> None:
    """The checks both solvers share, made before any work."""
    if config.producer not in ("direct", "mpnn", "uniform"):
        raise ValueError(f"unknown producer {config.producer!r}")
    if config.producer == "mpnn" and config.mpnn is None:
        raise ValueError("mpnn producer needs trained parameters (load a checkpoint)")
    _check_t(config.t)
    if config.steps < 0:
        raise ValueError(f"need steps >= 0, got {config.steps}")
    if not (math.isfinite(config.lr) and config.lr > 0.0):
        raise ValueError(f"lr must be finite and positive, got {config.lr}")
    if not (math.isfinite(config.init_jitter) and config.init_jitter >= 0.0):
        raise ValueError(f"init_jitter must be finite and non-negative, got {config.init_jitter}")
    if config.threads < 1:
        raise ValueError(f"need threads >= 1, got {config.threads}")
    budget = config.time_budget
    if budget is not None and not (math.isfinite(budget) and budget >= 0.0):
        raise ValueError(f"time_budget must be finite and non-negative, got {budget}")
    if config.ball_hops < 0:
        raise ValueError(f"need ball_hops >= 0, got {config.ball_hops}")
    for name in ("opt_beta", "gamma", "beta"):
        value = getattr(config, name)
        if value is not None and not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value}")


def _solve(
    config: SolveConfig, problem: str, decode: str, units, worker, certify, t0: float, chunk: int = 1
) -> SolveResult:
    """Run ``worker(units, rngs)`` over ``units`` in chunks, rank the units, certify the winner.

    Each unit draws from its own stream spawned from ``config.seed``, so the
    result depends neither on the thread count nor on ``chunk``, the most
    units one worker call gets.  Calls run on a pool of ``config.threads``
    threads, or, with a ``time_budget``, one after another until the first
    call that ends past the budget.  A worker returns one ``(key, fields,
    state)`` per unit: the smallest key wins, ties go to the lowest index,
    and the winner's fields plus ``certify(*state)``, its loss and
    certificate fields, fill the ``SolveResult``.  Only the winner is
    certified.  ``t0`` is when the solve began.
    """
    seqs = np.random.SeedSequence(config.seed).spawn(len(units))
    starts = range(0, len(units), chunk)

    def run(start: int) -> list:
        part = slice(start, start + chunk)
        return worker(units[part], [np.random.default_rng(seq) for seq in seqs[part]])

    budget = config.time_budget
    if config.threads > 1 and budget is None:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            outcomes = [outcome for batch in pool.map(run, starts) for outcome in batch]
    else:
        clock = time.perf_counter()
        outcomes = []
        for start in starts:
            outcomes += run(start)
            if budget is not None and time.perf_counter() - clock > budget:
                break
    # min keeps the first of equal keys, which is the lowest index.
    _, winner, state = min(outcomes, key=lambda outcome: outcome[0])
    return SolveResult(
        problem=problem, producer=config.producer, decode=decode, seeds_tried=len(outcomes),
        **winner, **certify(*state), wall_time=time.perf_counter() - t0,
    )


@dataclass(frozen=True)
class _CliqueUnit:
    """One restart or seed ball of a clique solve."""

    name: str  # where the unit sits in the solve, for error messages
    graph: Graph
    index: np.ndarray | None  # node i of graph is the full graph's index[i]; None for the full graph
    cert_params: CliqueLossParams
    opt_params: CliqueLossParams
    init_scale: float


def _seed_balls(graph: Graph, count: int) -> np.ndarray | None:
    """The ``count`` highest-core nodes (ties to the lower index), or None
    unless their closed neighbourhoods hold fewer than n nodes in total."""
    sizes = np.diff(graph.offsets) + 1
    # Any count nodes' balls hold at least as many as the count smallest, so
    # dense graphs are turned away before their core numbers are computed:
    # on the 24 graphs of one bench clique-dense round this check takes
    # 0.22 ms where their core peels take 6.8-7.6 ms (2-core VM, numpy 2.4).
    if count >= graph.n or np.partition(sizes, count - 1)[:count].sum() >= graph.n:
        return None
    seeds = np.argsort(-core_numbers(graph), kind="stable")[:count]
    return seeds if sizes[seeds].sum() < graph.n else None


def solve_max_clique(graph: Graph, config: SolveConfig | None = None) -> SolveResult:
    """Multi-restart clique search; returns the heaviest decoded clique.

    The decoded set is a clique unconditionally: candidate decodes that come
    out non-clique are dropped, the greedy sweep always runs last as a
    backstop, and every surviving candidate is grown to a maximal clique
    before selection; the sweep and the growth are one greedy loop.

    The default "hybrid" decode tries the conditional decode under both the
    certificate parameters and the optimization parameters, plus the sweep,
    and keeps the heaviest clique.  The certificate-parameter decode carries
    the deterministic guarantee of meeting a non-vacuous bound but is easily
    spooked by residual probability mass outside the target clique (every bit
    of stray mass raises its inclusion threshold); the other two decodes
    recover the quality in that regime, and a heavier clique can only improve
    on the certified cost.

    On a sparse graph the units are seed balls rather than restarts: the
    ``restarts`` nodes of highest core number (ties to the lower index) each
    give the subgraph induced on their closed neighbourhood N[v], which holds
    every clique through v (Eppstein, Loeffler & Strash 2010).  The path is
    taken when those balls hold fewer than n nodes in total, so dense graphs
    keep the whole-graph restarts.  Each ball gets one producer run (the
    symmetric start of the first restart), the same decodes, and its own
    certificate parameters, ``CliqueLossParams.for_graph(ball)``.  Each
    candidate is mapped back to the full graph and grown there, so the
    weight, volume and winner are those of the full graph.  The direct
    producer runs the units, restarts or balls, in chunks (see
    ``_STACK_ENTRIES``), one ``optimize_direct`` call on the clique kernel
    bound to the disjoint union of a chunk's graphs, from the units' starts
    laid end to end; each unit's p keeps the bits of its own run.
    ``threads`` and ``time_budget`` act per chunk.  Other producers run one
    unit per chunk.

    Raises:
        ValueError: on an unknown decode, an empty graph or a bad setting.
        FloatingPointError: when the direct producer's loss stops being
            finite, naming the restart or seed ball and ``opt_beta``/``lr``.
    """
    config = config or SolveConfig()
    decode = config.decode or "hybrid"
    if decode not in ("hybrid", "conditional", "sweep"):
        raise ValueError(f"unknown clique decode {decode!r}")
    if graph.n == 0:
        raise ValueError("cannot solve on an empty graph")
    if config.restarts < 1:
        raise ValueError("need at least one restart")
    _check_config(config)
    t0 = time.perf_counter()
    opt_spec = CliqueLossSpec(beta=config.opt_beta)

    def outcome(unit: _CliqueUnit, p: np.ndarray):
        """The best clique decoded from p on the unit's graph, grown to a maximal clique of the graph."""
        g, index, cert_params = unit.graph, unit.index, unit.cert_params
        candidates: list[np.ndarray] = []
        conditional = {"conditional": [cert_params], "hybrid": [cert_params, unit.opt_params]}.get(decode, [])
        for params in conditional:
            ns, _ = decode_conditional(g, p, CliquePenaltyObjective(g, params))
            if is_clique(g, ns.mask):
                candidates.append(ns.mask)
        if decode in ("hybrid", "sweep") or not candidates:
            candidates.append(decode_clique_sweep(g, p).mask)
        grown = [grow_to_maximal(graph, mask if index is None else index[mask]) for mask in candidates]
        weights = [set_weight(graph, ns.mask) for ns in grown]
        weight = max(weights)
        node_set = grown[weights.index(weight)]
        indices = tuple(int(j) for j in node_set.indices())
        found = {"node_indices": list(indices), "objective": weight, "constraint_ok": True, "volume": node_set.volume}
        return (-weight, indices), found, (unit, p)

    def certify(unit: _CliqueUnit, p: np.ndarray) -> dict:
        """The penalty loss of p on the unit's graph and its tail-bound
        certificate, vacuous unless the parameters certify on that graph."""
        cert_params = unit.cert_params
        loss_value = clique_loss(unit.graph, p, cert_params).value
        cert = penalty_certificate(loss_value, cert_params.beta, config.t)
        if not cert_params.certifies(unit.graph.total_weight):
            cert = replace(cert, vacuous=True)
        return {"certificate": cert, "loss": loss_value, "gamma": cert_params.gamma}

    seeds = _seed_balls(graph, config.restarts)
    if seeds is None:
        cert = CliqueLossParams.for_graph(graph, gamma=config.gamma, beta=config.beta)
        opt = opt_spec.resolve(graph)
        scales = [0.0] + [config.init_jitter] * (config.restarts - 1)
        units = [_CliqueUnit(f"in restart {i}", graph, None, cert, opt, scale) for i, scale in enumerate(scales)]
    else:
        units = []
        for v in seeds.tolist():
            ball, index = induced(graph, np.append(graph.neighbors(v), v))
            cert = CliqueLossParams.for_graph(ball, gamma=config.gamma, beta=config.beta)
            units.append(_CliqueUnit(f"on the seed ball of node {v}", ball, index, cert, opt_spec.resolve(ball), 0.0))

    def worker(chunk: list[_CliqueUnit], rngs: list[np.random.Generator]):
        if config.producer == "mpnn":
            # The network is conditioned on a seed node drawn from the unit's stream.
            ps = [mpnn_forward(u.graph, config.mpnn, int(rng.integers(u.graph.n))) for u, rng in zip(chunk, rngs)]
        elif config.producer == "uniform":
            ps = [rng.random(unit.graph.n) for unit, rng in zip(chunk, rngs)]
        else:
            union, offsets = disjoint_union([unit.graph for unit in chunk])
            logits = np.concatenate(
                [u.init_scale * r.standard_normal(u.graph.n) if u.init_scale > 0.0 else np.zeros(u.graph.n)
                 for u, r in zip(chunk, rngs)]
            )
            try:
                p, _ = optimize_direct(opt_spec.step_kernel(union, parts=offsets), logits, config.steps, lr=config.lr)
            except NonFiniteLossError as exc:
                # A one-unit chunk binds the plain kernel, whose loss is one float (row None).
                raise FloatingPointError(
                    f"loss became {exc.value} at step {exc.step} {chunk[exc.row or 0].name}"
                    f" (opt_beta={config.opt_beta}, lr={config.lr})"
                ) from None
            ps = np.split(p, offsets[1:-1])
        return [outcome(unit, p) for unit, p in zip(chunk, ps)]

    entries = max(1, *(unit.graph.rows.size for unit in units))
    chunk = max(1, _STACK_ENTRIES // entries) if config.producer == "direct" else 1
    return _solve(config, "clique", decode, units, worker, certify, t0, chunk)


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
    if not (0 <= seed_node < graph.n):
        raise ValueError(f"seed node {seed_node} out of range")
    d_s = float(graph.degree[seed_node])
    if d_s <= 0.0:
        raise ValueError("seed node is isolated; no volume scale to scan")
    dist = hop_distances(graph, seed_node)
    # Unreached nodes sit at n + 1 hops; the cap keeps them out at any hops.
    ball_vol = float(graph.degree[dist <= min(hops, graph.n)].sum())
    lo = 2.0 * d_s
    hi = max(min(ball_vol, float(graph.degree.sum()) / 2.0), lo)
    centers = np.geomspace(lo, hi, count) if hi > lo else np.array([lo])
    return [VolumeConstraint(0.75 * float(c), 1.25 * float(c)) for c in centers]


def solve_local_partition(graph: Graph, seed_node: int, config: SolveConfig | None = None) -> SolveResult:
    """Scan volume intervals around the seed for a low-conductance set.

    Each interval's distribution is rescaled to the interval's midpoint
    volume and decoded by conditional expectation, seed first, under a hard
    cap at the upper bound (``decode_cut_with_volume``); that is the only
    partition decode, ``conditional``.  So every candidate contains the seed
    and respects its interval's upper volume bound; reaching the lower bound
    is best-effort and reflected in ``constraint_ok``.  Among candidates that
    land inside their interval the lowest conductance wins (falling back to
    all candidates if none do).
    """
    config = config or SolveConfig()
    if config.decode not in (None, "conditional"):
        raise ValueError(f"unknown partition decode {config.decode!r}")
    if config.num_intervals < 1 or (config.intervals is not None and not config.intervals):
        raise ValueError("need at least one volume interval (num_intervals >= 1 and intervals not empty)")
    _check_config(config)
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
    # The network sees neither the interval nor an rng, so one pass serves every interval.
    shared = mpnn_forward(graph, config.mpnn, seed_node) if config.producer == "mpnn" else None

    def interval_outcome(vc: VolumeConstraint, rng: np.random.Generator):
        if shared is not None:
            p = shared
        elif config.producer == "direct":
            # The symmetric p = 0.5 start is a stationary point of the cut loss
            # (every node sees half its degree on each side), so the direct
            # producer always jitters here, unlike the clique path.  Pinning the
            # seed keeps the optimizer on the seed's side of the graph; decode
            # forces the seed into the set regardless.
            p, _ = optimize_direct(
                CutLossSpec(vc).step_kernel(graph), max(config.init_jitter, 1e-3) * rng.standard_normal(graph.n),
                config.steps, lr=config.lr, pin=seed_node, rtol=_STOP_RTOL,
            )
        else:
            p = rng.random(graph.n)
        q = rescale_to_target(p, graph.degree, vc.target)
        res = decode_cut_with_volume(graph, q, vc, seed_node)
        node_set, lower_met = res.node_set, res.lower_met
        phi = conductance(graph, node_set.mask)
        return (not lower_met, phi), {
            "node_indices": [int(i) for i in node_set.indices()],
            "objective": cut_weight(graph, node_set.mask),
            "constraint_ok": bool(lower_met),
            "conductance": phi,
            "volume": node_set.volume,
            "interval": (vc.lower, vc.upper),
        }, (vc, q)

    def worker(vcs: list[VolumeConstraint], rngs: list[np.random.Generator]):
        return [interval_outcome(vc, rng) for vc, rng in zip(vcs, rngs)]

    def certify(vc: VolumeConstraint, q: np.ndarray) -> dict:
        """The expected cut of q and its box certificate, void when q misses the interval's target volume."""
        loss_value = expected_cut(graph, q)
        cert = box_certificate(loss_value, config.t, graph.degree, vc)
        achieved = expected_volume(graph, q)
        if abs(achieved - vc.target) > 1e-6 * max(vc.target, 1.0):
            # Target unreachable (degrees saturated); the box claim does not apply.
            cert = replace(cert, success_prob=-1.0, vacuous=True)
        return {"certificate": cert, "loss": loss_value}

    return _solve(config, "partition", "conditional", usable, worker, certify, t0)


def greedy_mis_complement(graph: Graph) -> NodeSet:
    """Greedy clique baseline: max independent set on the complement.

    The greedy clique loop ranked by weighted degree: repeatedly takes the
    highest-degree node (ties to the lowest index) among the mutual neighbours.
    """
    if graph.n == 0:
        raise ValueError("empty graph")
    return _greedy_clique(graph, np.zeros(graph.n, dtype=bool), graph.degree)


def approximation_ratio(found: float, optimal: float) -> float:
    """found / optimal, guarding against meaningless denominators."""
    if optimal <= 0.0:
        raise ValueError(f"optimal value must be positive, got {optimal}")
    return found / optimal

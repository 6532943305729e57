import re
from pathlib import Path

import numpy as np
import pytest

from cliquecut import (
    CliqueLossParams,
    CliqueLossSpec,
    Corpus,
    CutLossSpec,
    Graph,
    MpnnParams,
    NonFiniteLossError,
    OptimState,
    SolveConfig,
    VolumeConstraint,
    clique_loss,
    cut_loss,
    disjoint_union,
    induced,
    expected_volume,
    load_checkpoint,
    mpnn_forward,
    optimize_direct,
    rescale_to_target,
    save_checkpoint,
    solve_local_partition,
    train_mpnn,
)
from cliquecut import models, solver
from cliquecut.graphs import gather_layout, hop_distances
from cliquecut.models import _draw_interval, _neighbor_sum, _pick_seed, mpnn_backward, sigmoid

from helpers import complete_graph, path_graph, random_graph, reference_neighbor_sums, sparse_planted_clique, two_triangles


def triangle_with_pendant():
    return Graph(4, [0, 0, 1, 0], [1, 2, 2, 3], [1.0] * 4)


# ---------------------------------------------------------------------------
# loss specs


def test_clique_loss_spec_resolution():
    g = complete_graph(4, weight=0.5)  # total weight 3.0
    assert CliqueLossSpec().resolve(g) == CliqueLossParams(gamma=3.0, beta=3.0)
    assert CliqueLossSpec(beta=1.0).resolve(g) == CliqueLossParams(gamma=1.0, beta=1.0)
    assert CliqueLossSpec(beta=9.0).resolve(g) == CliqueLossParams(gamma=3.0, beta=9.0)
    assert CliqueLossSpec(gamma=2.0, beta=5.0).resolve(g) == CliqueLossParams(gamma=2.0, beta=5.0)
    empty = Graph(3, [], [], [])
    assert CliqueLossSpec().resolve(empty) == CliqueLossParams(gamma=1.0, beta=1.0)


def reference_cut_loss(graph, p, interval):
    """The rescaled cut loss from the public pieces: expected cut at the midpoint
    rescale, gradient scaled straight through (zero on clamped coordinates)."""
    q, info = rescale_to_target(p, graph.degree, interval.target, with_info=True)
    rep = cut_loss(graph, q)
    return rep.value, rep.gradient * info.scale


def test_cut_loss_spec_requires_interval():
    g = two_triangles()
    with pytest.raises(ValueError, match="interval"):
        CutLossSpec().step_kernel(g)
    interval = VolumeConstraint(5.0, 9.0)
    value, gradient = CutLossSpec(interval).step_kernel(g)(np.full(6, 0.5))
    assert value >= 0.0
    ref_value, ref_gradient = reference_cut_loss(g, np.full(6, 0.5), interval)
    assert value == pytest.approx(ref_value, rel=1e-12)
    assert np.array_equal(gradient, ref_gradient)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cut_step_kernel_rejects_non_finite_p(bad):
    # An MPNN whose activations overflow hands the kernel NaN (inf * 0 under
    # the hop mask) or inf; the rescale must refuse it, not return NaN.
    g = two_triangles()
    step = CutLossSpec(VolumeConstraint(5.0, 9.0)).step_kernel(g)
    p = np.full(6, 0.5)
    p[2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        step(p)


def test_rescaled_cut_loss_hits_midpoint():
    g = two_triangles()
    interval = VolumeConstraint(5.0, 9.0)
    step = CutLossSpec(interval).step_kernel(g)
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = rng.uniform(0.05, 1.0, 6)
        value, _ = step(p)
        # The kernel rescales internally; replicate to confirm the target.
        q = rescale_to_target(p, g.degree, interval.target)
        assert expected_volume(g, q) == pytest.approx(interval.target, rel=1e-9)
        assert value == pytest.approx(cut_loss(g, q).value, rel=1e-12)


def test_rescaled_cut_loss_straight_through_gradient():
    # Straight-through ignores the renormalization coupling, so the gradient
    # is the partial derivative holding the rescale multiplier fixed.
    g = two_triangles()
    interval = VolumeConstraint(3.0, 5.0)
    p = np.array([0.3, 0.4, 0.5, 0.3, 0.4, 0.5])
    _, gradient = CutLossSpec(interval).step_kernel(g)(p)
    q, info = rescale_to_target(p, g.degree, interval.target, with_info=True)
    for i in range(6):
        direct = cut_loss(g, q).gradient[i] * info.scale[i]
        assert gradient[i] == pytest.approx(direct, abs=1e-9)


# ---------------------------------------------------------------------------
# Adam + direct optimization


def test_optim_state_moves_params_downhill():
    state = OptimState(lr=0.1)
    params = {"x": np.array([1.0, -2.0])}
    for _ in range(50):
        state.apply(params, {"x": 2.0 * params["x"]})  # grad of |x|^2
    assert np.all(np.abs(params["x"]) < 1.0)
    assert state.step == 50


def normal_start(seed, n, scale=1.0):
    """A jittered start drawn as the solvers draw it: scale times standard normals."""
    return scale * np.random.default_rng(seed).standard_normal(n)


def union_run(graphs, spec, steps, rngs, scales, *, lr=0.1):
    """The clique solver's direct call on the disjoint union of ``graphs``: one p and one loss list per graph."""
    union, offsets = disjoint_union(graphs)
    logits = np.concatenate(
        [s * r.standard_normal(g.n) if s > 0.0 else np.zeros(g.n) for g, r, s in zip(graphs, rngs, scales)]
    )
    p, losses = optimize_direct(spec.step_kernel(union, parts=offsets), logits, steps, lr=lr)
    # A one-part union binds the plain kernel, whose losses are one list of floats.
    return np.split(p, offsets[1:-1]), losses if len(graphs) > 1 else [losses]


def test_optimize_direct_converges_on_triangle():
    g = complete_graph(3)
    spec = CliqueLossSpec()  # gamma = beta = 3
    p, losses = optimize_direct(spec.step_kernel(g), np.zeros(3), steps=300, lr=0.1)
    assert len(losses) == 301
    assert losses[-1] < 0.05
    assert np.all(p > 0.9)


def test_optimize_direct_zero_steps_identity():
    g = complete_graph(3)
    p, losses = optimize_direct(CliqueLossSpec().step_kernel(g), np.zeros(3), steps=0)
    assert p == pytest.approx(np.full(3, 0.5))
    assert len(losses) == 1


def test_optimize_direct_copies_its_start():
    step = CliqueLossSpec().step_kernel(complete_graph(3))
    start = normal_start(4, 3, 0.5)
    kept = start.copy()
    p1, _ = optimize_direct(step, start, steps=5)
    p2, _ = optimize_direct(step, start, steps=5)
    assert np.array_equal(start, kept)
    assert p1 == pytest.approx(p2)


def test_optimize_direct_pin_keeps_node_in():
    g = two_triangles()
    step = CutLossSpec(VolumeConstraint(5.0, 9.0)).step_kernel(g)
    p, _ = optimize_direct(step, normal_start(0, 6), steps=200, lr=0.1, pin=3)
    assert p[3] == pytest.approx(sigmoid(np.array([12.0]))[0])
    assert p[3] > 0.999


def reference_optimize_direct(graph, evaluate, steps, *, lr, rng, init_scale, pin=None):
    """optimize_direct as it ran before the step kernel: the public loss, then OptimState.apply.

    ``evaluate`` maps p to (value, gradient).
    """
    logits = init_scale * rng.standard_normal(graph.n)
    if pin is not None:
        logits[pin] = 12.0
    state = OptimState(lr=lr)
    losses = []
    for _ in range(steps):
        p = sigmoid(logits)
        value, gradient = evaluate(p)
        losses.append(value)
        state.apply({"logits": logits}, {"logits": gradient * p * (1.0 - p)})
        if pin is not None:
            logits[pin] = 12.0
    p = sigmoid(logits)
    losses.append(evaluate(p)[0])
    return p, losses


def public_clique_loss(graph, spec):
    params = spec.resolve(graph)

    def evaluate(p):
        rep = clique_loss(graph, p, params)
        return rep.value, rep.gradient

    return evaluate


def assert_same_run(fused, reference):
    (p, losses), (p_ref, losses_ref) = fused, reference
    assert np.array_equal(p, p_ref)
    assert len(losses) == len(losses_ref)
    for got, want in zip(losses, losses_ref):
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_optimize_direct_clique_kernel_matches_public_loss():
    g = random_graph(np.random.default_rng(11), 60, 0.3)
    spec = CliqueLossSpec(beta=2.0)
    fused = optimize_direct(spec.step_kernel(g), normal_start(3, g.n), 50, lr=0.1)
    reference = reference_optimize_direct(
        g,
        public_clique_loss(g, spec),
        50,
        lr=0.1,
        rng=np.random.default_rng(3),
        init_scale=1.0,
    )
    assert_same_run(fused, reference)


def test_optimize_direct_cut_kernel_matches_public_loss():
    g = random_graph(np.random.default_rng(12), 60, 0.1, weighted=True)
    interval = VolumeConstraint(0.1 * g.degree.sum(), 0.2 * g.degree.sum())
    pin = int(np.argmax(g.degree))
    fused = optimize_direct(CutLossSpec(interval).step_kernel(g), normal_start(4, g.n), 50, lr=0.1, pin=pin)
    reference = reference_optimize_direct(
        g,
        lambda p: reference_cut_loss(g, p, interval),
        50,
        lr=0.1,
        rng=np.random.default_rng(4),
        init_scale=1.0,
        pin=pin,
    )
    assert_same_run(fused, reference)


def flat_cut_run(steps, **kwargs):
    """A pinned cut-spec run on a weighted G(n, p) whose loss goes flat before step 300."""
    g = random_graph(np.random.default_rng(12), 60, 0.1, weighted=True)
    interval = VolumeConstraint(0.1 * g.degree.sum(), 0.2 * g.degree.sum())
    pin = int(np.argmax(g.degree))
    return optimize_direct(CutLossSpec(interval).step_kernel(g), normal_start(4, g.n), steps, lr=0.1, pin=pin, **kwargs)


def test_optimize_direct_stop_is_a_fixed_run_of_that_length():
    p, losses = flat_cut_run(300, rtol=1e-6)
    steps = len(losses) - 1
    assert 0 < steps < 300 and steps % 20 == 0
    want_p, want_losses = flat_cut_run(steps)
    assert_same_bits(p, want_p)
    assert_same_bits(losses, want_losses)
    # It stopped at the first multiple of 20 where the loss moved by at most rtol over 20 steps.
    moved = [abs(losses[k] - losses[k - 20]) / max(abs(losses[k]), 1.0) for k in range(20, steps + 1, 20)]
    assert moved[-1] <= 1e-6 and min(moved[:-1]) > 1e-6


def test_optimize_direct_zero_rtol_takes_every_step():
    p, losses = flat_cut_run(300, rtol=0.0)
    want_p, want_losses = flat_cut_run(300)
    assert len(losses) == 301
    assert_same_bits(p, want_p)
    assert_same_bits(losses, want_losses)


def no_step(p):
    raise AssertionError("stepped before rejecting an argument")


def test_optimize_direct_rejects_bad_rtol_before_any_work():
    for bad in (-1e-6, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="rtol must be finite and non-negative"):
            optimize_direct(no_step, np.zeros(3), 3, rtol=bad)


@pytest.mark.parametrize("steps", [0, 3])
def test_optimize_direct_rejects_out_of_range_pin_before_any_step(steps):
    # -1 must not wrap round to the last node, nor 4 escape as a bare IndexError.
    for pin in (-1, 4, 9):
        with pytest.raises(ValueError, match=f"pin {pin} out of range for 4 nodes"):
            optimize_direct(no_step, np.zeros(4), steps, pin=pin)
    p, _ = optimize_direct(CliqueLossSpec().step_kernel(path_graph(4)), np.zeros(4), steps, pin=3)
    assert p[3] == sigmoid(np.array([12.0]))[0]


def previous_sigmoid(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class PreviousAdam:
    """OptimState.apply for one "logits" array, as it ran before restarts shared one Adam loop."""

    def __init__(self, lr):
        self.lr, self.beta1, self.beta2, self.eps, self.step = lr, 0.9, 0.999, 1e-8, 0
        self.m = self.v = None

    def apply(self, logits, g):
        self.step += 1
        c1 = 1.0 - self.beta1**self.step
        c2 = 1.0 - self.beta2**self.step
        if self.m is None:
            self.m, self.v = np.zeros_like(g), np.zeros_like(g)
        self.m += (1.0 - self.beta1) * (g - self.m)
        self.v += (1.0 - self.beta2) * (g * g - self.v)
        logits -= self.lr * (self.m / c1) / (np.sqrt(self.v / c2) + self.eps)


def previous_clique_step(graph, params):
    """The one-row clique kernel as it ran before restarts shared one Adam loop."""

    def step(p):
        s = reference_neighbor_sums(graph, p)
        total = p.sum()
        ew, pairs = 0.5 * float(p @ s), float(total * total - p @ p)
        value = params.gamma - (params.beta + 1.0) * ew + 0.5 * params.beta * pairs
        return value, -(params.beta + 1.0) * s + params.beta * (total - p)

    return step


def previous_optimize_direct(graph, spec, steps, *, lr, rng, init_scale, pin=None):
    """One restart of optimize_direct as it ran before restarts shared one Adam loop."""
    logits = init_scale * rng.standard_normal(graph.n) if init_scale > 0.0 else np.zeros(graph.n)
    if pin is not None:
        logits[pin] = 12.0
    adam = PreviousAdam(lr)
    step_fn = previous_clique_step(graph, spec.resolve(graph))
    losses = []
    for step in range(steps):
        p = previous_sigmoid(logits)
        value, gradient = step_fn(p)
        if not np.isfinite(value):
            raise FloatingPointError(f"loss became {value} at step {step}")
        losses.append(value)
        adam.apply(logits, gradient * p * (1.0 - p))
        if pin is not None:
            logits[pin] = 12.0
    p = previous_sigmoid(logits)
    losses.append(step_fn(p)[0])
    return p, losses


def stack_test_graphs():
    rng = np.random.default_rng(41)
    isolated = random_graph(rng, 30, 0.3, weighted=True)
    isolated = Graph(isolated.n + 3, isolated.edge_u, isolated.edge_v, isolated.edge_w)
    return {
        "unit": random_graph(rng, 40, 0.4),
        "weighted": random_graph(rng, 35, 0.5, weighted=True),
        "isolated": isolated,
        "edgeless": Graph(9, [], [], []),
        "single": Graph(1, [], [], []),
    }


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("name", ["unit", "weighted", "isolated", "edgeless", "single"])
@pytest.mark.parametrize("rows", [1, 2, 7, 16])
@pytest.mark.parametrize("pin", [None, 0])
def test_stacked_restarts_match_previous_loop_bits(name, rows, pin):
    """Restarts, run as the solvers run them, keep the bits of the loop before restarts shared one.

    Unpinned restarts (the clique solver's) run as the parts of one union of
    copies of the graph; pinned ones (the partition solver's) one call each.
    """
    g = stack_test_graphs()[name]
    spec = CliqueLossSpec(beta=2.0)
    scales = [0.0] + [1.0 + 0.25 * r for r in range(1, rows)]
    seeds = np.random.SeedSequence(7).spawn(rows)
    if pin is None:
        _, offsets = disjoint_union([g] * rows)
        assert offsets.tolist() == [g.n * r for r in range(rows + 1)]
        ps, losses = union_run([g] * rows, spec, 40, [np.random.default_rng(q) for q in seeds], scales)
    else:
        runs = [
            optimize_direct(spec.step_kernel(g), normal_start(q, g.n, scale), 40, lr=0.1, pin=pin)
            for q, scale in zip(seeds, scales)
        ]
        ps, losses = [p for p, _ in runs], [part_losses for _, part_losses in runs]
    assert len(ps) == len(losses) == rows
    for r in range(rows):
        want_p, want_losses = previous_optimize_direct(
            g, spec, 40, lr=0.1, rng=np.random.default_rng(seeds[r]), init_scale=scales[r], pin=pin
        )
        assert_same_bits(ps[r], want_p)
        assert all(type(value) is float for value in losses[r])
        if pin is None:
            # The union's values add p.s and p.p in node order, not by ``@``.
            assert losses[r] == pytest.approx(want_losses, rel=1e-12, abs=1e-12)
        else:
            assert_same_bits(losses[r], want_losses)


@pytest.mark.parametrize("name", ["unit", "weighted", "edgeless"])
def test_one_restart_call_is_unchanged(name):
    g = stack_test_graphs()[name]
    spec = CliqueLossSpec(beta=2.0)
    p, losses = optimize_direct(spec.step_kernel(g), normal_start(5, g.n), 30, lr=0.1, pin=1)
    want_p, want_losses = previous_optimize_direct(
        g, spec, 30, lr=0.1, rng=np.random.default_rng(5), init_scale=1.0, pin=1
    )
    assert p.shape == (g.n,) and isinstance(losses, list)
    assert all(type(value) is float for value in losses)
    assert_same_bits(p, want_p)
    assert_same_bits(losses, want_losses)
    # The union of one graph is that graph; as one part it runs the plain kernel.
    union, offsets = disjoint_union([g])
    assert union is g and offsets.tolist() == [0, g.n]
    (part_p,), (part_losses,) = union_run([union], spec, 30, [np.random.default_rng(5)], [1.0])
    unpinned_p, unpinned_losses = optimize_direct(spec.step_kernel(g), normal_start(5, g.n), 30, lr=0.1)
    assert_same_bits(part_p, unpinned_p)
    assert_same_bits(part_losses, unpinned_losses)


def test_stacked_restarts_check_every_row():
    """A loss that turns non-finite in a later part, after some steps, is named by part and step."""
    g = random_graph(np.random.default_rng(3), 12, 0.5)
    union, offsets = disjoint_union([g] * 4)
    step_fn, calls = CliqueLossSpec(beta=2.0).step_kernel(union, parts=offsets), []

    def poison_part(p):
        """The clique kernel, but part 2's loss turns NaN at the fourth step."""
        value, gradient = step_fn(p)
        calls.append(None)
        if len(calls) == 4:
            value = value.copy()
            value[2] = np.nan
        return value, gradient

    logits = np.concatenate([normal_start(s, g.n) for s in range(4)])
    with pytest.raises(NonFiniteLossError, match=r"loss became nan at step 3 in part 2") as info:
        optimize_direct(poison_part, logits, 10, lr=0.1)
    assert (info.value.step, info.value.row) == (3, 2)


def seed_ball_sets():
    """The seed balls a default clique solve takes on each of three sparse graphs."""
    rng = np.random.default_rng(12)
    unit, _ = sparse_planted_clique(rng, 1200, 8, 6)
    weighted, _ = sparse_planted_clique(rng, 1500, 7, 8)
    weighted = Graph(weighted.n, weighted.edge_u, weighted.edge_v, rng.uniform(0.05, 0.95, weighted.num_edges))
    out = {}
    for name, g in {"unit": unit, "weighted": weighted, "edgeless": Graph(40, [], [], [])}.items():
        seeds = solver._seed_balls(g, 10)
        assert seeds is not None
        out[name] = [induced(g, np.append(g.neighbors(v), v))[0] for v in seeds.tolist()]
    # Restarts on one graph are the parts of a union of its copies, all of one size.
    out["copies"] = [stack_test_graphs()["weighted"]] * 7
    return out


@pytest.mark.parametrize("name", ["unit", "weighted", "edgeless", "copies"])
@pytest.mark.parametrize("spec", [CliqueLossSpec(beta=2.0), CliqueLossSpec()], ids=["opt-beta", "per-ball-beta"])
@pytest.mark.parametrize("jitter", [0.0, 1.0])
def test_union_parts_keep_their_own_bits(name, spec, jitter):
    balls = seed_ball_sets()[name]
    seeds = np.random.SeedSequence(5).spawn(len(balls))
    scales = [jitter * (1 + i % 3) for i in range(len(balls))]
    ps, losses = union_run(balls, spec, 60, [np.random.default_rng(q) for q in seeds], scales)
    assert len(ps) == len(losses) == len(balls)
    for ball, p, part_losses, seq, scale in zip(balls, ps, losses, seeds, scales):
        start = normal_start(seq, ball.n, scale) if scale > 0.0 else np.zeros(ball.n)
        want_p, want_losses = optimize_direct(spec.step_kernel(ball), start, 60, lr=0.1)
        assert np.array_equal(p, want_p)
        assert part_losses == pytest.approx(want_losses, rel=1e-12)


def test_union_kernel_matches_each_part_kernel():
    balls = seed_ball_sets()["weighted"]
    union, offsets = disjoint_union(balls)
    p = np.random.default_rng(2).random(union.n)
    for spec in (CliqueLossSpec(beta=2.0), CliqueLossSpec(), CliqueLossSpec(gamma=0.5, beta=3.0)):
        values, gradient = spec.step_kernel(union, parts=offsets)(p)
        for i, ball in enumerate(balls):
            part = slice(offsets[i], offsets[i + 1])
            want_value, want_gradient = spec.step_kernel(ball)(p[part])
            assert_same_bits(gradient[part], want_gradient)
            assert values[i] == pytest.approx(want_value, rel=1e-12)


def test_union_call_rejects_bad_parts():
    a, b = complete_graph(3), path_graph(4)
    union, _ = disjoint_union([a, b])
    with pytest.raises(ValueError, match="an edge joins two parts"):
        CliqueLossSpec().step_kernel(union, parts=[0, 2, 7])
    for parts in ([0, 3, 6], [0, 8, 7], [[0, 3, 7]], [0, 8]):
        with pytest.raises(ValueError, match="node offsets from 0 to 7"):
            CliqueLossSpec().step_kernel(union, parts=parts)


def test_union_call_names_the_part_whose_loss_overflows():
    union, offsets = disjoint_union([Graph(2, [], [], []), complete_graph(5), complete_graph(4)])
    # Two parts overflow at the symmetric start; the lower index is named.
    with pytest.raises(NonFiniteLossError, match=r"loss became nan at step 0 in part 1") as info:
        optimize_direct(CliqueLossSpec(beta=1e308).step_kernel(union, parts=offsets), np.zeros(union.n), 3)
    assert (info.value.step, info.value.row) == (0, 1)
    # One graph's kernel returns one float, so no part is named.
    with pytest.raises(NonFiniteLossError, match=r"loss became nan at step 0$") as info:
        optimize_direct(CliqueLossSpec(beta=1e308).step_kernel(complete_graph(5)), np.zeros(5), 3)
    assert (info.value.step, info.value.row) == (0, None)


def test_sigmoid_extremes():
    x = np.array([-800.0, 0.0, 800.0])
    s = sigmoid(x)
    assert s == pytest.approx([0.0, 0.5, 1.0])
    assert np.all(np.isfinite(s))


def test_sigmoid_and_adam_keep_the_masked_bits():
    # The same float operations as the masked sigmoid and the allocating Adam
    # update, compared bit for bit, NaN's sign and payload included.
    edges = np.array([0.0, -0.0, 710.0, -710.0, np.inf, -np.inf, np.nan, -np.nan, 1e-300, -1e-300, 36.5, -36.5])
    rng = np.random.default_rng(13)
    flat = np.concatenate([edges, 30.0 * rng.standard_normal(500)])
    stack = np.stack([rng.permutation(flat) for _ in range(4)])
    with np.errstate(all="ignore"):
        for x in (flat, stack):
            assert np.array_equal(sigmoid(x).view(np.int64), previous_sigmoid(x).view(np.int64))
    logits = rng.standard_normal((3, 40))
    previous = logits.copy()
    adam, reference = OptimState(lr=0.05), PreviousAdam(0.05)
    for _ in range(5):
        g = rng.standard_normal(logits.shape) * 10.0 ** rng.integers(-6, 6, logits.shape)
        adam.apply({"logits": logits}, {"logits": g})
        reference.apply(previous, g)
        assert np.array_equal(logits.view(np.int64), previous.view(np.int64))
        assert np.array_equal(adam.m["logits"].view(np.int64), reference.m.view(np.int64))
        assert np.array_equal(adam.v["logits"].view(np.int64), reference.v.view(np.int64))


# ---------------------------------------------------------------------------
# MPNN forward/backward


def test_mpnn_forward_shapes_and_range():
    rng = np.random.default_rng(1)
    params = MpnnParams.init(rng, hidden=8, layers=2)
    g = two_triangles()
    p = mpnn_forward(g, params, 0)
    assert p.shape == (6,)
    assert p.min() >= 0.0 and p.max() <= 1.0
    assert p.min() == 0.0 and p.max() == 1.0  # min-max normalization is tight


def test_mpnn_forward_masks_far_nodes():
    # A path 0-1-2-3-4 with a depth-1 network seeded at 0: nodes beyond one
    # hop never receive signal, so their hidden states are zeroed.  The
    # readout on a zero hidden state is a shared constant, hence equal probs.
    rng = np.random.default_rng(2)
    params = MpnnParams.init(rng, hidden=8, layers=1)
    g = path_graph(5)
    p = mpnn_forward(g, params, 0)
    assert p[2] == p[3] == p[4]


def test_mpnn_forward_degenerate_readout():
    rng = np.random.default_rng(3)
    params = MpnnParams.init(rng, hidden=4, layers=1)
    # Zero the readout to force an all-equal output.
    params.weights["head2_w"][:] = 0.0
    g = complete_graph(3)
    p = mpnn_forward(g, params, 0)
    assert p == pytest.approx(np.full(3, 0.5))


def test_mpnn_forward_seed_validation():
    rng = np.random.default_rng(4)
    params = MpnnParams.init(rng)
    with pytest.raises(ValueError, match="out of range"):
        mpnn_forward(complete_graph(3), params, 5)
    with pytest.raises(ValueError, match="hidden"):
        MpnnParams.init(rng, hidden=0)


def reference_neighbor_sum(graph, h):
    """Message passing as it was before the bincount: one scatter-add per edge."""
    out = np.zeros_like(h)
    np.add.at(out, graph.rows, h[graph.targets])
    return out


def neighbor_sum_inputs(rng, n, width):
    """Random h with exact 0.0 and -0.0 entries, an all -0.0 h and a non-contiguous h."""
    for _ in range(40):
        h = rng.standard_normal((n, width))
        h[rng.random((n, width)) < 0.2] = 0.0
        h[rng.random((n, width)) < 0.2] = -0.0
        yield h
    yield np.full((n, width), -0.0)
    yield rng.standard_normal((n, 2 * width))[:, ::2]
    yield np.asfortranarray(rng.standard_normal((n, width)))


def star_graph(n):
    return Graph(n, np.zeros(n - 1, dtype=np.int64), np.arange(1, n), np.ones(n - 1))


def heavy_tailed_graph(rng, n):
    """Chung-Lu edges: node i's expected degree falls as 1 / sqrt(i + 1), from about n down to a few."""
    iu, iv = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < np.minimum(1.0, 4.0 / np.sqrt((iu + 1.0) * (iv + 1.0)))
    return Graph(n, iu[keep], iv[keep], np.ones(int(keep.sum())))


@pytest.mark.parametrize("width", [1, 16, 32])
def test_neighbor_sum_matches_scatter_add_bits(width):
    rng = np.random.default_rng(61)
    base = random_graph(rng, 12, density=0.3, weighted=True)
    star, heavy = star_graph(40), heavy_tailed_graph(rng, 120)
    graphs = [
        random_graph(rng, 9, density=0.5),
        base,
        # Three isolated nodes after the last edge.
        Graph(base.n + 3, base.edge_u, base.edge_v, base.edge_w),
        Graph(5, [], [], []),
        Graph(0, [], [], []),
        star,
        heavy,
    ]
    for g in graphs:
        for h in neighbor_sum_inputs(rng, g.n, width):
            got = _neighbor_sum(g, h)
            assert got.dtype == np.float64 and got.shape == (g.n, width)
            assert np.array_equal(got.view(np.int64), reference_neighbor_sum(g, h).view(np.int64))
        assert sum(block.size for block in gather_layout(g)[0]) <= 2 * g.targets.size + g.n
    # Both large-degree graphs take the degree buckets, with a one-node bucket for the star's centre.
    assert gather_layout(star)[1] is not None and gather_layout(heavy)[1] is not None
    assert sorted(block.shape for block in gather_layout(star)[0]) == [(1, 39), (39, 2)]
    assert gather_layout(base)[1] is None


def test_gather_layout_is_built_once_per_graph():
    rng = np.random.default_rng(62)
    g = random_graph(rng, 10, density=0.4)
    params = MpnnParams.init(rng, hidden=4, layers=2)
    assert g._layout is None
    _, cache = mpnn_forward(g, params, 0, want_cache=True)
    layout = g._layout
    mpnn_backward(g, params, cache, rng.standard_normal(g.n))
    mpnn_forward(g, params, 1)
    assert gather_layout(g) is layout
    assert all(not block.flags.writeable for block in layout[0])


def test_receptive_field_matches_bfs_masks():
    rng = np.random.default_rng(63)
    star, heavy = star_graph(40), heavy_tailed_graph(rng, 120)
    two_parts, _ = disjoint_union([random_graph(rng, 7, density=0.5), path_graph(5)])
    graphs = {
        "single block": random_graph(rng, 12, density=0.3),
        "star": star,
        "heavy-tailed": heavy,
        "isolated node 0": Graph(4, [1, 2], [2, 3], [1.0, 1.0]),
        "edgeless": Graph(3, [], [], []),
        "path": path_graph(300),
        "two components": two_parts,
    }
    assert gather_layout(graphs["single block"])[1] is None
    assert gather_layout(star)[1] is not None and gather_layout(heavy)[1] is not None
    # The star's centre is a one-node bucket, padded to two columns.
    assert any(block.shape[1] == 2 for block in gather_layout(star)[0])
    for name, g in graphs.items():
        for seed in range(g.n):
            dist = hop_distances(g, seed)
            for rounds in range(5):
                masks = models._receptive_field(g, seed, rounds)
                assert len(masks) == rounds
                for k, mask in enumerate(masks):
                    want = (dist <= min(k + 1, g.n)).astype(np.float64)
                    assert mask.dtype == np.float64 and mask.shape == (g.n,)
                    assert np.array_equal(mask.view(np.int64), want.view(np.int64)), (name, seed, rounds, k)
    # The forward pass keeps the context's masks in its cache as they are.
    params = MpnnParams.init(rng, hidden=4, layers=3)
    context = models._forward_context(heavy, 5, params.layers)
    _, cache = mpnn_forward(heavy, params, 5, want_cache=True, context=context)
    assert all(a is b for a, b in zip(cache["masks"], context[1], strict=True))


def test_receptive_field_builds_no_gather_layout():
    g = random_graph(np.random.default_rng(64), 20, density=0.3)
    models._receptive_field(g, 0, 3)
    assert g._layout is None


def test_hop_balls_stay_in_the_seed_component():
    # A triangle (volume 6) beside a disjoint K6; BFS puts the K6 at n + 1 hops.
    g, _ = disjoint_union([complete_graph(3), complete_graph(6)])
    hops = g.n + 1
    assert models._receptive_field(g, 0, hops)[-1].tolist() == [1.0] * 3 + [0.0] * 6
    assert solver.default_interval_schedule(g, 0, hops=hops)[-1].upper == 7.5
    drawn = _draw_interval(g, 0, hops, np.random.default_rng(0))
    assert (round(drawn.lower, 2), round(drawn.upper, 2)) == (3.96, 6.59)


class KernelCountingGraph(Graph):
    """A Graph that counts the neighbour-sum kernels stored on it, in ``kernels_built``."""

    @property
    def _sums(self):
        return Graph._sums.__get__(self, Graph)

    @_sums.setter
    def _sums(self, kernel):
        if kernel is not None:
            self.kernels_built = getattr(self, "kernels_built", 0) + 1
        Graph._sums.__set__(self, kernel)


def kernel_counting_copy(g: Graph) -> KernelCountingGraph:
    return KernelCountingGraph(g.n, g.edge_u, g.edge_v, g.edge_w)


def test_neighbor_sums_kernel_is_built_once_per_graph():
    rng = np.random.default_rng(63)
    g = kernel_counting_copy(random_graph(rng, 12, density=0.4))
    assert g._sums is None and not hasattr(g, "kernels_built")
    first, second = CliqueLossSpec().step_kernel(g), CutLossSpec(VolumeConstraint(2.0, 6.0)).step_kernel(g)
    first(np.full(g.n, 0.5)), second(np.full(g.n, 0.5))
    assert g.kernels_built == 1

    # A default partition solve binds a cut kernel and decodes once for each of its eight intervals.
    g = kernel_counting_copy(random_graph(rng, 40, density=0.15))
    result = solve_local_partition(g, int(np.argmax(g.degree)), SolveConfig())
    assert result.seeds_tried == 8 and g.kernels_built == 1

    # Training binds a kernel for every pass over a graph, train and val, in every epoch.
    for spec in (CliqueLossSpec(), CutLossSpec()):
        graphs = [kernel_counting_copy(random_graph(rng, 8, density=0.5)) for _ in range(4)]
        corpus = _tiny_corpus(graphs, ["train", "train", "train", "val"])
        train_mpnn(corpus, spec, epochs=3, hidden=4, layers=1, batch_size=2, rng=np.random.default_rng(1))
        assert [graph.kernels_built for graph in graphs] == [1, 1, 1, 1]


def test_mpnn_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    params = MpnnParams.init(rng, hidden=5, layers=2)
    # Fresh initialization leaves every bias at exactly zero, which parks the
    # pre-activations of seed-unreachable (masked) nodes on the ReLU kink
    # where central differences match no subgradient.  Probe at a generic
    # point instead.
    for w in params.weights.values():
        w += 0.05 * rng.standard_normal(w.shape)
    g = random_graph(rng, 7, density=0.5, weighted=True)
    seed = 0
    dL_dp = rng.standard_normal(7)

    def scalar_loss(ps: MpnnParams) -> float:
        return float(mpnn_forward(g, ps, seed) @ dL_dp)

    _, cache = mpnn_forward(g, params, seed, want_cache=True)
    grads = mpnn_backward(g, params, cache, dL_dp)
    h = 1e-6
    for key, w in params.weights.items():
        flat = w.reshape(-1)
        idx = rng.choice(flat.size, size=min(4, flat.size), replace=False)
        for j in idx:
            orig = flat[j]
            flat[j] = orig + h
            up = scalar_loss(params)
            flat[j] = orig - h
            dn = scalar_loss(params)
            flat[j] = orig
            fd = (up - dn) / (2 * h)
            assert grads[key].reshape(-1)[j] == pytest.approx(fd, abs=1e-4), key


# ---------------------------------------------------------------------------
# training


def _tiny_corpus(graphs, splits):
    return Corpus(graphs=graphs, names=[f"g{i}" for i in range(len(graphs))], splits=splits, meta={})


def test_train_mpnn_improves_on_single_graph():
    g = triangle_with_pendant()
    corpus = _tiny_corpus([g], ["train"])
    spec = CliqueLossSpec(gamma=4.0, beta=4.0)
    result = train_mpnn(corpus, spec, epochs=150, hidden=8, layers=2, lr=0.02, rng=np.random.default_rng(5))
    assert result.epochs_trained == 150
    assert len(result.history["train"]) == 150
    assert result.history["val"] == []
    # The triangle weighs 3, so the best achievable loss is 1.
    assert min(result.history["train"]) <= 1.1


def test_train_mpnn_zero_epochs():
    corpus = _tiny_corpus([complete_graph(3)], ["train"])
    result = train_mpnn(corpus, CliqueLossSpec(), epochs=0, rng=np.random.default_rng(0))
    assert result.epochs_trained == 0
    assert result.history == {"train": [], "val": []}


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"epochs": -3}, "need epochs >= 0, got -3"),
        ({"batch_size": 0}, "need batch_size >= 1, got 0"),
        ({"batch_size": -2}, "need batch_size >= 1, got -2"),
        ({"lr": float("nan")}, "lr must be finite and positive, got nan"),
        ({"lr": float("inf")}, "lr must be finite and positive, got inf"),
        ({"lr": 0.0}, "lr must be finite and positive, got 0.0"),
    ],
    ids=["epochs=-3", "batch_size=0", "batch_size=-2", "lr=nan", "lr=inf", "lr=0"],
)
def test_train_mpnn_rejects_bad_settings_before_any_work(setting, message):
    corpus = _tiny_corpus([complete_graph(3), complete_graph(4)], ["train", "val"])
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    kwargs = {"epochs": 2, **setting}
    epochs = kwargs.pop("epochs")
    with pytest.raises(ValueError, match=re.escape(message)):
        train_mpnn(corpus, CliqueLossSpec(), epochs, rng=rng, **kwargs)
    # Nothing was drawn: no weights were initialized and no seed was picked.
    assert rng.bit_generator.state == before


def test_train_mpnn_requires_train_split():
    corpus = _tiny_corpus([complete_graph(3)], ["test"])
    with pytest.raises(ValueError, match="train split"):
        train_mpnn(corpus, CliqueLossSpec(), epochs=1)


@pytest.mark.parametrize("split", ["train", "val"])
def test_train_mpnn_rejects_empty_graph_before_any_work(split):
    corpus = _tiny_corpus([complete_graph(3), Graph(0, [], [], [])], ["train", split])
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"graph 'g1' in the {split} split has no nodes"):
        train_mpnn(corpus, CliqueLossSpec(), epochs=1, rng=rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("split", ["train", "val"])
def test_train_mpnn_rejects_edgeless_graph_for_cut_before_any_work(split):
    graphs = [complete_graph(5)] * 8 + [Graph(4, [], [], [])]
    corpus = _tiny_corpus(graphs, ["train"] * 8 + [split])
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"graph 'g8' in the {split} split has no edges to seed a cut objective at"):
        train_mpnn(corpus, CutLossSpec(), epochs=50, rng=rng)
    assert rng.bit_generator.state == before
    # A clique objective needs no edge to seed at, and a test-split graph is not trained on.
    train_mpnn(corpus, CliqueLossSpec(), epochs=1, hidden=4, layers=1, rng=rng)
    test_corpus = _tiny_corpus(graphs, ["train"] * 8 + ["test"])
    train_mpnn(test_corpus, CutLossSpec(), epochs=1, hidden=4, layers=1, rng=rng)


def test_train_mpnn_ignores_empty_test_graph():
    corpus = _tiny_corpus([complete_graph(3), Graph(0, [], [], [])], ["train", "test"])
    result = train_mpnn(corpus, CliqueLossSpec(), epochs=1, hidden=4, layers=1, rng=np.random.default_rng(0))
    assert len(result.history["train"]) == 1


def test_train_mpnn_tracks_validation():
    rng = np.random.default_rng(9)
    graphs = [random_graph(rng, 8, density=0.5) for _ in range(4)]
    corpus = _tiny_corpus(graphs, ["train", "train", "val", "val"])
    result = train_mpnn(corpus, CliqueLossSpec(), epochs=5, hidden=4, layers=1, rng=np.random.default_rng(1))
    assert len(result.history["val"]) == 5


def test_train_mpnn_builds_validation_receptive_fields_once(monkeypatch):
    rng = np.random.default_rng(9)
    graphs = [random_graph(rng, 8, density=0.5) for _ in range(5)]
    corpus = _tiny_corpus(graphs, ["train", "train", "train", "val", "val"])
    sources = []
    build = models._receptive_field

    def counted(graph, seed_node, rounds):
        sources.append((graphs.index(graph), seed_node))
        return build(graph, seed_node, rounds)

    monkeypatch.setattr(models, "_receptive_field", counted)
    train_mpnn(corpus, CliqueLossSpec(), epochs=4, hidden=4, layers=1, rng=np.random.default_rng(1))
    # One receptive field per training forward pass, and one per validation graph for the whole run.
    assert len(sources) == 4 * 3 + 2
    assert sum(g >= 3 for g, _ in sources) == 2


def test_train_mpnn_cut_objective_smoke():
    rng = np.random.default_rng(10)
    corpus = _tiny_corpus([two_triangles(), path_graph(6)], ["train", "train"])
    result = train_mpnn(corpus, CutLossSpec(), epochs=3, hidden=4, layers=2, rng=rng)
    assert len(result.history["train"]) == 3
    assert all(np.isfinite(v) for v in result.history["train"])


def test_train_mpnn_resume_from_init():
    corpus = _tiny_corpus([complete_graph(4)], ["train"])
    first = train_mpnn(corpus, CliqueLossSpec(), epochs=2, hidden=4, layers=1, rng=np.random.default_rng(3))
    second = train_mpnn(
        corpus,
        CliqueLossSpec(),
        epochs=1,
        rng=np.random.default_rng(4),
        init=first.params,
        optimizer_state=first.optimizer,
    )
    assert second.params.hidden == 4
    assert second.optimizer.step > first.epochs_trained  # state carried over


def reference_train_mpnn(corpus, loss_spec, epochs, *, hidden, layers, batch_size, lr, rng):
    """train_mpnn as it ran on the validated public losses (clique_loss, and
    cut_loss after the midpoint rescale), before it stepped on step_kernel."""

    def sample_context(g):
        if isinstance(loss_spec, CutLossSpec):
            seed = _pick_seed(g, rng, need_degree=True)
            interval = loss_spec.interval or _draw_interval(g, seed, hops, rng)
            return seed, lambda p: reference_cut_loss(g, p, interval)
        seed = _pick_seed(g, rng, need_degree=False)
        return seed, public_clique_loss(g, loss_spec)

    train_graphs = [g for g, s in zip(corpus.graphs, corpus.splits) if s == "train"]
    val_graphs = [g for g, s in zip(corpus.graphs, corpus.splits) if s == "val"]
    params = MpnnParams.init(rng, hidden, layers)
    state = OptimState(lr=lr)
    hops = max(params.layers, 1)
    val_ctx = [(g, *sample_context(g)) for g in val_graphs]
    history = {"train": [], "val": []}
    best_params, best_score = params.copy(), np.inf
    for _ in range(epochs):
        order = rng.permutation(len(train_graphs))
        epoch_losses = []
        for start in range(0, order.size, batch_size):
            batch = order[start : start + batch_size]
            acc = {}
            for j in batch:
                g = train_graphs[int(j)]
                seed, evaluate = sample_context(g)
                p, cache = mpnn_forward(g, params, seed, want_cache=True)
                value, gradient = evaluate(p)
                epoch_losses.append(value)
                for key, val in mpnn_backward(g, params, cache, gradient).items():
                    if key in acc:
                        acc[key] += val
                    else:
                        acc[key] = val
            for key in acc:
                acc[key] /= batch.size
            state.apply(params.weights, acc)
        score = float(np.mean(epoch_losses))
        history["train"].append(score)
        if val_ctx:
            score = float(np.mean([evaluate(mpnn_forward(g, params, seed))[0] for g, seed, evaluate in val_ctx]))
            history["val"].append(score)
        if score < best_score:
            best_score, best_params = score, params.copy()
    return best_params, state, history


@pytest.mark.parametrize(
    "objective, splits",
    [("clique", ["train"] * 6 + ["val"] * 3), ("cut", ["train"] * 6 + ["val"] * 2)],
)
def test_train_mpnn_matches_public_loss_reference(objective, splits):
    # The cut spec is unbound, so every training and validation pass draws an interval.
    rng = np.random.default_rng(31)
    graphs = [random_graph(rng, int(rng.integers(8, 16)), density=0.4, weighted=True) for _ in splits]
    corpus = _tiny_corpus(graphs, splits)
    spec = CliqueLossSpec(beta=2.0) if objective == "clique" else CutLossSpec()
    kwargs = dict(hidden=6, layers=2, batch_size=4, lr=0.02)
    result = train_mpnn(corpus, spec, 12, rng=np.random.default_rng(7), **kwargs)
    params, state, history = reference_train_mpnn(corpus, spec, 12, rng=np.random.default_rng(7), **kwargs)
    assert list(result.params.weights) == list(params.weights)
    for key, w in params.weights.items():
        assert np.array_equal(result.params.weights[key], w), key
    assert result.optimizer.step == state.step
    for key in state.m:
        assert np.array_equal(result.optimizer.m[key], state.m[key]), key
        assert np.array_equal(result.optimizer.v[key], state.v[key]), key
    assert [len(v) for v in result.history.values()] == [12, 12]
    for name, values in history.items():
        assert len(result.history[name]) == len(values)
        for got, want in zip(result.history[name], values):
            assert abs(got - want) <= 1e-12 * abs(want)


# ---------------------------------------------------------------------------
# checkpoints


@pytest.mark.parametrize("suffix", [".json", ".npz"])
def test_checkpoint_round_trip(tmp_path, suffix):
    rng = np.random.default_rng(12)
    params = MpnnParams.init(rng, hidden=6, layers=2)
    state = OptimState(lr=0.01)
    state.apply(params.weights, {k: rng.standard_normal(v.shape) for k, v in params.weights.items()})
    path = tmp_path / f"ckpt{suffix}"
    save_checkpoint(path, params, optimizer=state, meta={"note": "unit"})
    loaded, opt, meta = load_checkpoint(path)
    assert loaded.hidden == 6 and loaded.layers == 2
    for key, w in params.weights.items():
        assert loaded.weights[key] == pytest.approx(w)
    assert opt is not None
    assert opt.step == 1 and opt.lr == 0.01
    for key in state.m:
        assert opt.m[key] == pytest.approx(state.m[key])
        assert opt.v[key] == pytest.approx(state.v[key])
    assert meta == {"note": "unit"}

    # Inference reproduces exactly from the loaded weights.
    g = two_triangles()
    assert mpnn_forward(g, loaded, 0) == pytest.approx(mpnn_forward(g, params, 0))


def test_checkpoint_without_optimizer(tmp_path):
    params = MpnnParams.init(np.random.default_rng(0), hidden=4, layers=1)
    path = tmp_path / "bare.json"
    save_checkpoint(path, params)
    _, opt, meta = load_checkpoint(path)
    assert opt is None and meta == {}


def test_checkpoint_version_mismatch(tmp_path):
    import json

    params = MpnnParams.init(np.random.default_rng(0), hidden=4, layers=1)
    path = tmp_path / "old.json"
    save_checkpoint(path, params)
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)


# Written by the two-serializer save_checkpoint (format version 1); the codec
# must keep producing these layouts and keep reading them.
CHECKPOINT_FIXTURES = Path(__file__).parent / "data"


def fixture_checkpoint(with_optimizer):
    """The checkpoint the fixtures hold.  Moments are keyed in reverse weight
    order, as in training, so each group's member order is pinned separately."""
    rng = np.random.default_rng(20)
    params = MpnnParams.init(rng, hidden=3, layers=2)
    state = OptimState(lr=0.01)
    for _ in range(2):
        state.apply(params.weights, {k: rng.standard_normal(params.weights[k].shape) for k in reversed(params.weights)})
    meta = {"objective": "clique", "epochs": 2, "seed": 20}
    return params, (state if with_optimizer else None), meta


def npz_members(path):
    with np.load(path) as data:
        return {name: data[name] for name in data.files}


def assert_same_npz(got, want):
    assert list(got) == list(want)
    for name, array in want.items():
        assert got[name].dtype == array.dtype and np.array_equal(got[name], array), name


@pytest.mark.parametrize("suffix", [".json", ".npz"])
@pytest.mark.parametrize("with_optimizer", [True, False], ids=["optim", "bare"])
def test_checkpoint_layout_matches_fixture(tmp_path, suffix, with_optimizer):
    params, state, meta = fixture_checkpoint(with_optimizer)
    fixture = CHECKPOINT_FIXTURES / f"checkpoint_v1_{'optim' if with_optimizer else 'bare'}{suffix}"
    path = tmp_path / f"ckpt{suffix}"
    save_checkpoint(path, params, optimizer=state, meta=meta)
    if suffix == ".json":
        assert path.read_bytes() == fixture.read_bytes()
    else:
        assert_same_npz(npz_members(path), npz_members(fixture))

    loaded, opt, loaded_meta = load_checkpoint(fixture)
    assert (loaded.hidden, loaded.layers) == (3, 2)
    assert loaded.weights.keys() == params.weights.keys()
    for key, w in params.weights.items():
        assert np.array_equal(loaded.weights[key], w), key
    assert loaded_meta == meta
    if state is None:
        assert opt is None
    else:
        assert (opt.lr, opt.beta1, opt.beta2, opt.eps, opt.step) == (
            state.lr, state.beta1, state.beta2, state.eps, state.step
        )
        for moments, want in ((opt.m, state.m), (opt.v, state.v)):
            assert moments.keys() == want.keys()
            for key, m in want.items():
                assert np.array_equal(moments[key], m), key

    # Saving what was read gives the fixture back, member order included.
    resaved = tmp_path / f"resaved{suffix}"
    save_checkpoint(resaved, loaded, optimizer=opt, meta=loaded_meta)
    if suffix == ".json":
        assert resaved.read_bytes() == fixture.read_bytes()
    else:
        assert_same_npz(npz_members(resaved), npz_members(fixture))


@pytest.mark.parametrize("suffix", [".json", ".npz"])
def test_weights_only_load_matches_full_load(tmp_path, suffix, monkeypatch):
    params, state, meta = fixture_checkpoint(True)
    path = tmp_path / f"ckpt{suffix}"
    save_checkpoint(path, params, optimizer=state, meta=meta)
    full, opt, full_meta = load_checkpoint(path)
    read = []
    getitem = np.lib.npyio.NpzFile.__getitem__

    def counted(self, key):
        read.append(key)
        return getitem(self, key)

    monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", counted)
    loaded, none, loaded_meta = load_checkpoint(path, optimizer=False)
    assert opt is not None and none is None
    assert loaded_meta == full_meta == meta
    assert (loaded.hidden, loaded.layers) == (full.hidden, full.layers)
    assert list(loaded.weights) == list(full.weights)
    for key, w in full.weights.items():
        assert np.array_equal(loaded.weights[key].view(np.int64), w.view(np.int64)), key
    # The moments' members are never opened.
    if suffix == ".npz":
        assert sorted(read) == sorted(["__header__", *(f"weights/{k}" for k in params.weights)])


def test_weights_only_load_ignores_damaged_moments(tmp_path):
    params, state, meta = fixture_checkpoint(True)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params, optimizer=state, meta=meta)
    members = npz_members(path)
    del members["optim_m/layer1_b"]
    np.savez(path, **members)
    loaded, opt, _ = load_checkpoint(path, optimizer=False)
    assert opt is None
    for key, w in params.weights.items():
        assert np.array_equal(loaded.weights[key].view(np.int64), w.view(np.int64)), key
    with pytest.raises(ValueError, match=re.escape("checkpoint optimizer m do not fit the network: missing ['layer1_b']")):
        load_checkpoint(path)

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
    OptimState,
    VolumeConstraint,
    clique_loss,
    cut_loss,
    expected_volume,
    load_checkpoint,
    mpnn_forward,
    optimize_direct,
    rescale_to_target,
    save_checkpoint,
    train_mpnn,
)
from cliquecut.models import _draw_interval, _pick_seed, mpnn_backward, sigmoid

from helpers import complete_graph, path_graph, random_graph, two_triangles


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


def test_optimize_direct_converges_on_triangle():
    g = complete_graph(3)
    spec = CliqueLossSpec()  # gamma = beta = 3
    p, losses = optimize_direct(g, spec, steps=300, lr=0.1)
    assert len(losses) == 301
    assert losses[-1] < 0.05
    assert np.all(p > 0.9)


def test_optimize_direct_zero_steps_identity():
    g = complete_graph(3)
    p, losses = optimize_direct(g, CliqueLossSpec(), steps=0)
    assert p == pytest.approx(np.full(3, 0.5))
    assert len(losses) == 1


def test_optimize_direct_jitter_needs_rng():
    g = complete_graph(3)
    with pytest.raises(ValueError, match="rng"):
        optimize_direct(g, CliqueLossSpec(), steps=1, init_scale=0.5)
    p1, _ = optimize_direct(g, CliqueLossSpec(), steps=5, init_scale=0.5, rng=np.random.default_rng(4))
    p2, _ = optimize_direct(g, CliqueLossSpec(), steps=5, init_scale=0.5, rng=np.random.default_rng(4))
    assert p1 == pytest.approx(p2)


def test_optimize_direct_pin_keeps_node_in():
    g = two_triangles()
    spec = CutLossSpec(VolumeConstraint(5.0, 9.0))
    p, _ = optimize_direct(
        g, spec, steps=200, lr=0.1, rng=np.random.default_rng(0), init_scale=1.0, pin=3
    )
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
    fused = optimize_direct(g, spec, 50, lr=0.1, rng=np.random.default_rng(3), init_scale=1.0)
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
    fused = optimize_direct(
        g, CutLossSpec(interval), 50, lr=0.1, rng=np.random.default_rng(4), init_scale=1.0, pin=pin
    )
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


def test_sigmoid_extremes():
    x = np.array([-800.0, 0.0, 800.0])
    s = sigmoid(x)
    assert s == pytest.approx([0.0, 0.5, 1.0])
    assert np.all(np.isfinite(s))


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


def test_train_mpnn_requires_train_split():
    corpus = _tiny_corpus([complete_graph(3)], ["test"])
    with pytest.raises(ValueError, match="train split"):
        train_mpnn(corpus, CliqueLossSpec(), epochs=1)


def test_train_mpnn_tracks_validation():
    rng = np.random.default_rng(9)
    graphs = [random_graph(rng, 8, density=0.5) for _ in range(4)]
    corpus = _tiny_corpus(graphs, ["train", "train", "val", "val"])
    result = train_mpnn(corpus, CliqueLossSpec(), epochs=5, hidden=4, layers=1, rng=np.random.default_rng(1))
    assert len(result.history["val"]) == 5


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

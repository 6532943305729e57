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
    expected_volume,
    load_checkpoint,
    mpnn_forward,
    optimize_direct,
    rescaled_cut_loss,
    save_checkpoint,
    train_mpnn,
)
from cliquecut.models import mpnn_backward, sigmoid

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


def test_cut_loss_spec_requires_interval():
    g = two_triangles()
    with pytest.raises(ValueError, match="interval"):
        CutLossSpec().evaluate(g, np.full(6, 0.5))
    with pytest.raises(ValueError, match="interval"):
        CutLossSpec().step_kernel(g)
    spec = CutLossSpec(VolumeConstraint(5.0, 9.0))
    rep = spec.evaluate(g, np.full(6, 0.5))
    assert rep.value >= 0.0


def test_rescaled_cut_loss_hits_midpoint():
    g = two_triangles()
    interval = VolumeConstraint(5.0, 9.0)
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = rng.uniform(0.05, 1.0, 6)
        rescaled_cut_loss(g, p, interval)
        # The evaluation rescales internally; replicate to confirm the target.
        from cliquecut import rescale_to_target

        q = rescale_to_target(p, g.degree, interval.target)
        assert expected_volume(g, q) == pytest.approx(interval.target, rel=1e-9)


def test_rescaled_cut_loss_straight_through_gradient():
    # On unsaturated coordinates the multiplier is the scalar scale; finite
    # differences of the composed map recover gradient * scale only where the
    # rescale is locally linear, which a small h keeps true.
    g = two_triangles()
    interval = VolumeConstraint(3.0, 5.0)
    p = np.array([0.3, 0.4, 0.5, 0.3, 0.4, 0.5])
    rep = rescaled_cut_loss(g, p, interval)
    h = 1e-7
    for i in range(6):
        up, dn = p.copy(), p.copy()
        up[i] += h
        dn[i] -= h
        fd = (rescaled_cut_loss(g, up, interval).value - rescaled_cut_loss(g, dn, interval).value) / (2 * h)
        # Straight-through ignores the renormalization coupling, so compare
        # against the partial derivative holding the scale fixed.
        from cliquecut import cut_loss, rescale_to_target
        from cliquecut.distributions import rescale_to_target as _r

        q, info = _r(p, g.degree, interval.target, with_info=True)
        direct = cut_loss(g, q).gradient[i] * info.scale[i]
        assert rep.gradient[i] == pytest.approx(direct, abs=1e-9)


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
    """optimize_direct as it ran before the step kernel: the public loss, then OptimState.apply."""
    logits = init_scale * rng.standard_normal(graph.n)
    if pin is not None:
        logits[pin] = 12.0
    state = OptimState(lr=lr)
    losses = []
    for _ in range(steps):
        p = sigmoid(logits)
        rep = evaluate(p)
        losses.append(rep.value)
        state.apply({"logits": logits}, {"logits": rep.gradient * p * (1.0 - p)})
        if pin is not None:
            logits[pin] = 12.0
    p = sigmoid(logits)
    losses.append(evaluate(p).value)
    return p, losses


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
        lambda p: clique_loss(g, p, spec.resolve(g)),
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
        lambda p: rescaled_cut_loss(g, p, interval),
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

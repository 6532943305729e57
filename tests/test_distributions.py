import numpy as np
import pytest

from cliquecut import (
    CliqueLossParams,
    VolumeConstraint,
    brute_force_expectation,
    clique_loss,
    clique_violation_bound,
    cut_loss,
    expected_cut,
    expected_set_weight,
    expected_volume,
    rescale_to_target,
    sample,
)
from cliquecut.distributions import _neighbor_sums_kernel, _rescale, check_probs, weighted_neighbor_sums

from helpers import complete_graph, path_graph, random_graph, two_triangles


def test_check_probs():
    g = complete_graph(3)
    out = check_probs(g, [0.1, 0.2, 0.3])
    assert out.dtype == np.float64
    with pytest.raises(ValueError, match="length"):
        check_probs(g, [0.1, 0.2])
    with pytest.raises(ValueError, match="finite"):
        check_probs(3, [0.1, np.nan, 0.3])
    with pytest.raises(ValueError, match="lie in"):
        check_probs(3, [0.1, 0.2, 1.3])


def test_weighted_neighbor_sums():
    g = two_triangles()
    p = np.array([1.0, 0.5, 0.25, 0.0, 1.0, 0.5])
    s = weighted_neighbor_sums(g, p)
    assert s[0] == pytest.approx(0.75)  # neighbors 1, 2
    assert s[2] == pytest.approx(1.5)  # neighbors 0, 1, 3
    assert s[3] == pytest.approx(1.75)  # neighbors 2, 4, 5


def test_clique_loss_params_validation():
    with pytest.raises(ValueError, match="gamma"):
        CliqueLossParams(gamma=0.0, beta=1.0)
    with pytest.raises(ValueError, match="gamma"):
        CliqueLossParams(gamma=2.0, beta=1.0)
    g = complete_graph(4, weight=0.5)
    params = CliqueLossParams.for_graph(g)
    assert params.gamma == params.beta == 3.0
    lonely = complete_graph(3, weight=1.0)
    custom = CliqueLossParams.for_graph(lonely, gamma=2.0)
    assert custom.gamma == 2.0 and custom.beta == 3.0


def test_volume_constraint():
    vc = VolumeConstraint(2.0, 6.0)
    assert vc.target == 4.0
    assert vc.contains(2.0) and vc.contains(6.0) and not vc.contains(6.1)
    with pytest.raises(ValueError, match="lower"):
        VolumeConstraint(5.0, 3.0)
    with pytest.raises(ValueError, match="lower"):
        VolumeConstraint(-1.0, 3.0)


def test_clique_loss_on_complete_graph_support():
    # An indicator of a clique whose weight equals gamma has zero loss.
    k3 = complete_graph(3)
    params = CliqueLossParams.for_graph(k3)
    rep = clique_loss(k3, np.ones(3), params)
    assert rep.value == pytest.approx(0.0, abs=1e-12)
    assert rep.gradient == pytest.approx([-2.0, -2.0, -2.0])
    assert rep.terms["expected_weight"] == pytest.approx(3.0)
    assert rep.terms["violation_bound"] == pytest.approx(0.0)


def test_clique_loss_on_edgeless_pair():
    from cliquecut import Graph

    g = Graph(2, [], [], [])
    params = CliqueLossParams.for_graph(g)  # defaults fall back to 1
    rep = clique_loss(g, np.ones(2), params)
    assert rep.value == pytest.approx(2.0)  # 1 - 0 + 1 * (one absent pair)


def test_clique_loss_identity_and_terms():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        g = random_graph(rng, n, density=0.5, weighted=True)
        p = rng.random(n)
        params = CliqueLossParams(gamma=1.5, beta=4.0)
        rep = clique_loss(g, p, params)
        ew = expected_set_weight(g, p)
        vb = clique_violation_bound(g, p)
        assert rep.value == pytest.approx(params.gamma - ew + params.beta * vb, abs=1e-12)
        assert rep.terms["violation_bound"] == pytest.approx(vb, abs=1e-12)


def test_violation_bound_dominates_failure_probability():
    # With unit weights the bound is the expected number of absent pairs,
    # which is at least the probability that the sampled set is not a clique.
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        g = random_graph(rng, n, density=0.5)
        p = rng.random(n)
        vb = clique_violation_bound(g, p)
        p_fail = 1.0 - brute_force_expectation(g, p, "clique_indicator")
        assert vb >= p_fail - 1e-10


def test_clique_loss_matches_exact_penalty_expectation_on_cliquey_mass():
    # Where the distribution is supported on cliques the penalty expectation
    # and the loss agree; in general the loss is an upper bound.
    k3 = complete_graph(3)
    params = CliqueLossParams(gamma=3.0, beta=3.0)
    p = np.array([1.0, 1.0, 0.6])
    exact = brute_force_expectation(k3, p, "penalty", gamma=3.0, beta=3.0)
    rep = clique_loss(k3, p, params)
    assert rep.value == pytest.approx(exact, abs=1e-12)

    rng = np.random.default_rng(5)
    for _ in range(15):
        n = int(rng.integers(2, 9))
        g = random_graph(rng, n, density=0.6)
        p = rng.random(n)
        exact = brute_force_expectation(g, p, "penalty", gamma=4.0, beta=4.0)
        rep = clique_loss(g, p, CliqueLossParams(gamma=4.0, beta=4.0))
        assert rep.value >= exact - 1e-10


def test_gradients_by_finite_differences():
    rng = np.random.default_rng(21)
    h = 1e-6
    for _ in range(10):
        n = int(rng.integers(2, 9))
        g = random_graph(rng, n, density=0.5, weighted=True)
        p = rng.uniform(0.05, 0.95, n)
        params = CliqueLossParams(gamma=2.0, beta=5.0)
        for loss in (lambda q: clique_loss(g, q, params), lambda q: cut_loss(g, q)):
            rep = loss(p)
            for i in range(n):
                up, down = p.copy(), p.copy()
                up[i] += h
                down[i] -= h
                fd = (loss(up).value - loss(down).value) / (2 * h)
                assert rep.gradient[i] == pytest.approx(fd, abs=1e-5)


def test_cut_expectations():
    from cliquecut import Graph

    edge = Graph(2, [0], [1], [1.0])
    p = np.array([0.3, 0.8])
    # One edge: cut iff exactly one endpoint is in.
    assert expected_cut(edge, p) == pytest.approx(0.3 * 0.2 + 0.7 * 0.8)
    assert expected_volume(edge, p) == pytest.approx(0.3 + 0.8)
    rep = cut_loss(edge, p)
    assert rep.value == pytest.approx(expected_cut(edge, p))
    assert rep.terms["expected_volume"] == pytest.approx(1.1)

    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        g = random_graph(rng, n, density=0.5, weighted=True)
        q = rng.random(n)
        assert expected_cut(g, q) == pytest.approx(
            brute_force_expectation(g, q, "cut_weight"), rel=1e-10
        )
        assert expected_volume(g, q) == pytest.approx(
            brute_force_expectation(g, q, "volume"), rel=1e-10
        )


def test_rescale_plain_scaling():
    p = np.array([1.0, 1.0, 1.0])
    out = rescale_to_target(p, np.ones(3), 1.5)
    assert out == pytest.approx([0.5, 0.5, 0.5])


def test_rescale_with_clamping():
    p = np.array([0.9, 0.1, 0.1])
    out, info = rescale_to_target(p, np.ones(3), 1.8, with_info=True)
    assert out == pytest.approx([1.0, 0.4, 0.4])
    assert info.iterations == 2
    # The big coordinate is clamped; its pass-through multiplier is zeroed.
    assert info.scale[0] == 0.0
    assert info.scale[1] == pytest.approx(4.0)
    # Saturated sets only grow.
    for earlier, later in zip(info.saturated_history, info.saturated_history[1:]):
        assert np.all(later[earlier])


def test_rescale_random_properties():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        p = rng.random(n)
        a = rng.uniform(0.0, 3.0, n)
        if float(a @ p) == 0.0:
            continue
        reachable = float(a.sum())
        b = float(rng.uniform(0.05, 1.0)) * reachable
        out, info = rescale_to_target(p, a, b, with_info=True)
        assert out.min() >= 0.0 and out.max() <= 1.0 + 1e-12
        assert info.iterations <= n
        if b <= reachable:
            assert abs(float(a @ out) - b) <= 1e-9 * b
        # Straight-through multipliers reproduce the movable coordinates.
        movable = info.scale > 0.0
        assert out[movable] == pytest.approx(p[movable] * info.scale[movable])


def test_rescale_unreachable_target_saturates():
    # sum(a * 1) = 2 < b: everything clamps and the loop stops early.
    out = rescale_to_target(np.array([0.5, 0.5]), np.ones(2), 5.0)
    assert out == pytest.approx([1.0, 1.0])


def test_rescale_input_validation():
    with pytest.raises(ValueError, match="target"):
        rescale_to_target(np.array([0.5]), np.ones(1), 0.0)
    with pytest.raises(ValueError, match="non-negative"):
        rescale_to_target(np.array([0.5]), np.array([-1.0]), 1.0)
    with pytest.raises(ValueError, match="all-zero"):
        rescale_to_target(np.zeros(3), np.ones(3), 1.0)
    with pytest.raises(ValueError, match="equal length"):
        rescale_to_target(np.array([0.5, 0.5]), np.ones(3), 1.0)
    with pytest.raises(ValueError, match="0, 1"):
        rescale_to_target(np.array([1.5]), np.ones(1), 1.0)


def _reference_rescale(p0, a, b, rel_tol=1e-9):
    """The rescaling loop written with flatnonzero and fancy-index writes on
    every iteration: returns (q, scale, iterations, saturated_history)."""
    p = np.asarray(p0, dtype=np.float64).copy()
    coeff = np.asarray(a, dtype=np.float64)
    n = p.size
    tol = rel_tol * b
    saturated = np.zeros(n, dtype=bool)
    scale = np.ones(n)
    history = []
    iterations = 0
    for _ in range(n + 1):
        current = float(coeff @ p)
        if abs(current - b) <= tol:
            break
        movable = ~saturated
        mass = float(coeff[movable] @ p[movable])
        target = b - float(coeff[saturated].sum())
        if mass <= 0.0 or target <= 0.0:
            break
        c = target / mass
        iterations += 1
        idx = np.flatnonzero(movable)
        scaled = p[idx] * c
        clamped = scaled >= 1.0
        p[idx] = np.minimum(scaled, 1.0)
        scale[idx] *= c
        saturated[idx[clamped]] = True
        history.append(saturated.copy())
    scale[saturated] = 0.0
    return p, scale, iterations, history


def _rescale_cases(rng, count):
    """(p, a, b) with exact 0s and 1s, saturation-heavy p, zero coefficients
    and unreachable targets, on vectors long enough for blocked dot products."""
    for trial in range(count):
        n = int(rng.integers(1, 400))
        kind = trial % 5
        p = rng.random(n) ** float(rng.uniform(0.1, 4.0))
        if kind in (1, 4):
            p[rng.random(n) < 0.3] = 0.0
            p[rng.random(n) < 0.3] = 1.0
        if kind == 2:
            p = np.minimum(1.0, p * float(rng.uniform(1.0, 4.0)))
        a = rng.random(n) * rng.integers(1, 30, n)
        if kind in (3, 4):
            a[rng.random(n) < 0.4] = 0.0
        if trial % 3 == 0:
            a = np.round(a)
        total = float(a.sum())
        # Mostly reachable targets, some at or beyond sum(a), where everything saturates.
        b = total * float(rng.uniform(0.01, 1.5)) if total > 0.0 else 1.0
        if trial % 7 == 0:
            b = total if total > 0.0 else 1.0
        yield p, a, b


def test_rescale_matches_reference_loop_bit_for_bit():
    rng = np.random.default_rng(2024)
    checked = saturating = 0
    for p, a, b in _rescale_cases(rng, 1500):
        if float(a @ p) == 0.0:
            with pytest.raises(ValueError, match="all-zero"):
                rescale_to_target(p, a, b)
            with pytest.raises(ValueError, match="all-zero"):
                _rescale(p, a, b)
            continue
        q, scale, iterations, history = _reference_rescale(p, a, b)
        out, info = rescale_to_target(p, a, b, with_info=True)
        assert np.array_equal(out, q)
        assert np.array_equal(info.scale, scale)
        assert info.iterations == iterations
        assert len(info.saturated_history) == len(history)
        assert all(np.array_equal(x, y) for x, y in zip(info.saturated_history, history))
        assert np.array_equal(rescale_to_target(p, a, b), q)
        # The loop the cut kernel calls, without validation or history.
        loop_q, loop_scale, loop_iterations = _rescale(p, a, b)
        assert np.array_equal(loop_q, q)
        assert np.array_equal(loop_scale, scale)
        assert loop_iterations == iterations
        checked += 1
        saturating += iterations > 1
    assert checked > 1000 and saturating > 500


def test_rescale_returns_a_copy_when_already_on_target():
    p = np.array([0.5, 0.25])
    out = rescale_to_target(p, np.ones(2), 0.75)
    assert np.array_equal(out, p) and out is not p
    q, scale, iterations = _rescale(p, np.ones(2), 0.75)
    assert q is p and iterations == 0 and np.array_equal(scale, np.ones(2))


@pytest.mark.parametrize("weighted", [False, True])
def test_neighbor_sums_kernel_matches_bit_for_bit(weighted):
    rng = np.random.default_rng(31 + weighted)
    for _ in range(30):
        n = int(rng.integers(1, 80))
        g = random_graph(rng, n, density=float(rng.uniform(0.0, 0.9)), weighted=weighted)
        sums = _neighbor_sums_kernel(g)
        for _ in range(3):
            p = rng.random(n) * float(rng.choice([1.0, 1e-8, 1e8]))
            out = sums(p)
            assert out.dtype == np.float64
            assert np.array_equal(out, weighted_neighbor_sums(g, p))


def test_sample_reproducible_and_calibrated():
    p = np.array([0.0, 1.0, 0.5, 0.25])
    draws = np.stack([sample(p, np.random.default_rng(s)) for s in range(2000)])
    assert not draws[:, 0].any()
    assert draws[:, 1].all()
    assert abs(draws[:, 2].mean() - 0.5) < 0.05
    assert abs(draws[:, 3].mean() - 0.25) < 0.05
    again = sample(p, np.random.default_rng(123))
    assert np.array_equal(again, sample(p, np.random.default_rng(123)))

import math

import numpy as np
import pytest

from cliquecut import (
    Certificate,
    CliqueLossParams,
    CliqueObjective,
    CutVolumeObjective,
    VolumeConstraint,
    box_certificate,
    clique_loss,
    penalty_certificate,
    verify_solution,
)

from helpers import complete_graph, k5_minus_edge, random_graph, two_triangles


def test_penalty_certificate_vacuity_boundary():
    # eps = loss / (1 - t); the claim dies exactly when eps reaches beta.
    live = penalty_certificate(0.2, beta=3.0, t=0.9)
    assert live.bound == pytest.approx(2.0)
    assert not live.vacuous

    boundary = penalty_certificate(0.3, beta=3.0, t=0.9)
    assert boundary.bound == pytest.approx(3.0)
    assert boundary.vacuous

    negative = penalty_certificate(-0.5, beta=3.0, t=0.9)
    assert negative.vacuous

    zero = penalty_certificate(0.0, beta=3.0, t=0.9)
    assert zero.bound == 0.0 and not zero.vacuous

    with pytest.raises(ValueError, match="beta"):
        penalty_certificate(0.1, beta=0.0)


def test_box_certificate_worked_example():
    interval = VolumeConstraint(0.0, 4.0)
    cert = box_certificate(0.0, 0.5, np.array([1.0, 1.0]), interval)
    assert cert.kind == "box_constrained"
    assert cert.hoeffding_term == pytest.approx(2.0 * math.exp(-4.0))
    assert cert.hoeffding_term == pytest.approx(0.0366313, abs=1e-7)
    assert cert.success_prob == pytest.approx(0.4633687, abs=1e-7)
    assert not cert.vacuous


def test_box_certificate_vacuous_when_interval_too_narrow():
    # Huge coefficient variance against a narrow interval swamps t.
    interval = VolumeConstraint(10.0, 10.5)
    cert = box_certificate(1.0, 0.9, np.full(50, 4.0), interval)
    assert cert.hoeffding_term > cert.t
    assert cert.success_prob <= 0.0
    assert cert.vacuous


def test_box_certificate_midpoint_check():
    interval = VolumeConstraint(0.0, 4.0)
    a = np.array([1.0, 1.0])
    ok = box_certificate(0.1, 0.5, a, interval, p=np.array([1.0, 1.0]))
    assert not ok.vacuous
    with pytest.raises(ValueError, match="not rescaled"):
        box_certificate(0.1, 0.5, a, interval, p=np.array([0.2, 0.2]))


def test_box_certificate_validation():
    interval = VolumeConstraint(0.0, 4.0)
    with pytest.raises(ValueError, match="non-negative"):
        box_certificate(-1.0, 0.5, np.ones(2), interval)
    with pytest.raises(ValueError, match="non-negative"):
        box_certificate(0.5, 0.5, np.array([1.0, -1.0]), interval)
    with pytest.raises(ValueError, match="degenerate"):
        box_certificate(0.5, 0.5, np.zeros(3), interval)


def test_certificate_json_round_trip():
    for cert in (
        penalty_certificate(0.3, beta=2.0),
        box_certificate(0.1, 0.5, np.ones(2), VolumeConstraint(0.0, 4.0)),
    ):
        data = cert.to_json()
        assert Certificate.from_json(data) == cert


def test_verify_penalty_needs_bound_and_constraint():
    from cliquecut import Graph

    path = Graph(3, [0, 1], [1, 2], [1.0, 1.0])
    problem = CliqueObjective(gamma=2.0)
    cert = penalty_certificate(0.1, beta=2.0, t=0.9)  # bound 1.0

    assert verify_solution(path, [0, 1], cert, problem)  # cost 1, clique
    assert not verify_solution(path, [0, 2], cert, problem)  # cost 2 and not a clique
    assert not verify_solution(path, [0], cert, problem)  # clique but cost 2 > 1


def test_verify_box_accepts_either_side_unless_strict():
    g = two_triangles()
    interval = VolumeConstraint(5.0, 9.0)
    problem = CutVolumeObjective(interval)
    cert = box_certificate(0.2, 0.9, g.degree, interval)  # bound 2.0

    # One triangle: cut 1 <= 2 and volume 7 in [5, 9]: passes both modes.
    assert verify_solution(g, [0, 1, 2], cert, problem)
    assert verify_solution(g, [0, 1, 2], cert, problem, strict=True)

    # A single node: cut 2 <= 2 but volume 2 misses the interval.
    assert verify_solution(g, [0], cert, problem)
    assert not verify_solution(g, [0], cert, problem, strict=True)

    # Volume in range but cut too heavy.
    tight = box_certificate(0.0, 0.9, g.degree, interval)  # bound 0.0
    assert verify_solution(g, [0, 1, 2], tight, problem)
    assert not verify_solution(g, [0, 1, 2], tight, problem, strict=True)


def test_verify_zero_bound_uses_absolute_slack():
    g = complete_graph(3)
    cert = penalty_certificate(0.0, beta=3.0, t=0.9)
    assert verify_solution(g, [0, 1, 2], cert, CliqueObjective(gamma=3.0))
    assert not verify_solution(g, [0, 1], cert, CliqueObjective(gamma=3.0))


def test_verify_kind_problem_mismatch_raises():
    g = complete_graph(3)
    pen = penalty_certificate(0.1, beta=2.0)
    box = box_certificate(0.1, 0.5, np.ones(3), VolumeConstraint(0.0, 4.0))
    with pytest.raises(ValueError, match="clique"):
        verify_solution(g, [0], pen, CutVolumeObjective(VolumeConstraint(0.0, 4.0)))
    with pytest.raises(ValueError, match="cut"):
        verify_solution(g, [0], box, CliqueObjective(gamma=1.0))
    bogus = Certificate(kind="mystery", t=0.5, bound=1.0, success_prob=0.5)
    with pytest.raises(ValueError, match="unknown certificate kind"):
        verify_solution(g, [0], bogus, CliqueObjective(gamma=1.0))


# ---------------------------------------------------------------------------
# which penalty parameters certify


def _set_terms(graph, sets):
    """For each row of the 0/1 matrix ``sets``: w(S), v(S) = sum over the pairs of S of 1 - w_ij, and whether S is a clique."""
    weights = np.zeros((graph.n, graph.n))
    weights[graph.edge_u, graph.edge_v] = weights[graph.edge_v, graph.edge_u] = graph.edge_w
    size = sets.sum(axis=1)
    pairs = size * (size - 1) / 2
    w = 0.5 * np.einsum("si,ij,sj->s", sets, weights, sets)
    edges = 0.5 * np.einsum("si,ij,sj->s", sets, (weights > 0).astype(float), sets)
    return w, pairs - w, edges == pairs


def test_unsound_penalty_parameters_are_refused_under_monte_carlo():
    # Every clique of K5 minus an edge weighs at most 6 = gamma, yet the whole
    # node set, a non-clique, scores 6 - 9 + 6 * 1 = 3 < beta.
    g = k5_minus_edge()
    p = np.full(5, 0.99)
    params = CliqueLossParams(gamma=6.0, beta=6.0)
    cert = penalty_certificate(clique_loss(g, p, params).value, params.beta, 0.4)
    assert not cert.vacuous and cert.bound == pytest.approx(5.0995)
    draws = (np.random.default_rng(26).random((100_000, 5)) < p).astype(float)
    w, _, clique = _set_terms(g, draws)
    held = float(np.mean(clique & (params.gamma - w <= cert.bound)))
    assert held < 0.03  # the claim is 0.4
    assert not params.certifies(g.total_weight)
    assert CliqueLossParams.for_graph(g).certifies(g.total_weight)


def test_certifying_parameters_pass_brute_force_on_every_subset():
    rng = np.random.default_rng(126)
    refused_and_broken = 0
    for trial in range(120):
        n = int(rng.integers(3, 9))
        g = random_graph(rng, n, density=float(rng.uniform(0.3, 0.9)), weighted=bool(trial % 2))
        if g.num_edges == 0:
            continue
        total = g.total_weight
        sets = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(float)
        w, v, clique = _set_terms(g, sets)
        for gamma in (total, 1.5 * total, 0.5 * total, float(w[clique].max()), float(rng.uniform(0.1, 2.0 * total))):
            gamma = max(gamma, 0.1)
            for beta in (gamma, 2.0 * gamma, gamma + float(rng.uniform(0.0, total))):
                params = CliqueLossParams(gamma=gamma, beta=beta)
                score = gamma - w + beta * v
                sound = bool(np.all(score[~clique] >= beta - 1e-9) and np.all(gamma - w[clique] >= -1e-9))
                if params.certifies(total):
                    assert sound, (trial, gamma, beta)
                refused_and_broken += not sound
        # The closed-form score is the penalty loss of each set's indicator.
        params = CliqueLossParams.for_graph(g)
        for row in rng.choice(2**n, size=4, replace=False):
            want = params.gamma - w[row] + params.beta * v[row]
            assert clique_loss(g, sets[row], params).value == pytest.approx(want, abs=1e-9)
    # Parameters the check refuses do break the claim's premise on some graphs.
    assert refused_and_broken > 0

import numpy as np
import pytest

from cliquecut import (
    Graph,
    MpnnParams,
    SolveConfig,
    approximation_ratio,
    brute_force_max_clique,
    conductance,
    default_interval_schedule,
    greedy_mis_complement,
    is_clique,
    set_weight,
    solve_local_partition,
    solve_max_clique,
    uniform_random_baseline,
    verify_solution,
    volume,
)
from cliquecut.certificates import CliqueObjective, CutVolumeObjective
from cliquecut.distributions import VolumeConstraint

from helpers import complete_graph, path_graph, petersen, random_graph, two_triangles

FAST = SolveConfig(restarts=2, steps=60)


def test_clique_on_complete_graph():
    g = complete_graph(5)
    result = solve_max_clique(g, FAST)
    assert result.problem == "clique"
    assert sorted(result.node_indices) == [0, 1, 2, 3, 4]
    assert result.objective == pytest.approx(10.0)
    assert result.constraint_ok
    assert result.gamma == pytest.approx(10.0)
    assert result.decode == "hybrid"
    assert result.seeds_tried == 2


def test_clique_certificate_is_checkable():
    g = complete_graph(6)
    result = solve_max_clique(g, FAST)
    problem = CliqueObjective(gamma=result.gamma)
    if not result.certificate.vacuous:
        assert verify_solution(g, result.node_indices, result.certificate, problem)


def test_clique_finds_planted_triangle_among_noise():
    # Triangle on {0,1,2} plus scattered low-weight edges.
    g = Graph(
        6,
        [0, 0, 1, 3, 4],
        [1, 2, 2, 4, 5],
        [1.0, 1.0, 1.0, 0.3, 0.3],
    )
    result = solve_max_clique(g, SolveConfig(restarts=4, steps=150))
    assert sorted(result.node_indices) == [0, 1, 2]
    assert result.objective == pytest.approx(3.0)


def test_clique_decodes_are_always_cliques():
    rng = np.random.default_rng(31)
    cfg = SolveConfig(restarts=2, steps=40)
    for decode in ("hybrid", "conditional", "sweep"):
        for _ in range(15):
            n = int(rng.integers(2, 25))
            g = random_graph(rng, n, density=0.4, weighted=True)
            result = solve_max_clique(g, SolveConfig(restarts=2, steps=40, decode=decode))
            assert is_clique(g, result.node_indices)
            assert result.objective == pytest.approx(set_weight(g, result.node_indices))


def test_clique_matches_brute_force_on_small_graphs():
    rng = np.random.default_rng(77)
    hits = 0
    for _ in range(20):
        n = int(rng.integers(3, 10))
        g = random_graph(rng, n, density=0.5, weighted=True)
        if g.num_edges == 0:
            continue
        best = brute_force_max_clique(g)
        got = solve_max_clique(g, SolveConfig(restarts=4, steps=150))
        ratio = approximation_ratio(got.objective, set_weight(g, best.mask))
        assert ratio <= 1.0 + 1e-9
        hits += ratio > 0.999
    assert hits >= 15  # overwhelmingly exact at this size


def test_clique_payload_thread_invariant():
    g = random_graph(np.random.default_rng(5), 30, density=0.4, weighted=True)
    base = solve_max_clique(g, SolveConfig(restarts=6, steps=80, threads=1))
    for threads in (2, 4):
        other = solve_max_clique(g, SolveConfig(restarts=6, steps=80, threads=threads))
        assert other.payload() == base.payload()


def test_clique_time_budget_returns_at_least_one():
    g = random_graph(np.random.default_rng(2), 40, density=0.3)
    result = solve_max_clique(g, SolveConfig(restarts=50, steps=100, time_budget=0.0))
    assert result.seeds_tried >= 1
    assert is_clique(g, result.node_indices)


def test_clique_input_validation():
    with pytest.raises(ValueError, match="empty graph"):
        solve_max_clique(Graph(0, [], [], []), FAST)
    g = complete_graph(3)
    with pytest.raises(ValueError, match="restart"):
        solve_max_clique(g, SolveConfig(restarts=0))
    with pytest.raises(ValueError, match="unknown producer"):
        solve_max_clique(g, SolveConfig(producer="magic", restarts=1, steps=1))
    with pytest.raises(ValueError, match="unknown clique decode"):
        solve_max_clique(g, SolveConfig(decode="magic"))
    with pytest.raises(ValueError, match="checkpoint"):
        solve_max_clique(g, SolveConfig(producer="mpnn", restarts=1, steps=1))


def test_mpnn_producer_runs_with_params():
    params = MpnnParams.init(np.random.default_rng(0), hidden=4, layers=1)
    g = complete_graph(4)
    result = solve_max_clique(g, SolveConfig(producer="mpnn", restarts=2, steps=0, mpnn=params))
    assert is_clique(g, result.node_indices)
    assert result.producer == "mpnn"


def test_uniform_baseline_still_produces_cliques():
    g = random_graph(np.random.default_rng(8), 20, density=0.5)
    result = uniform_random_baseline(g, SolveConfig(restarts=3, steps=0))
    assert result.producer == "uniform"
    assert is_clique(g, result.node_indices)


# ---------------------------------------------------------------------------
# partition


def test_partition_recovers_triangle_with_explicit_interval():
    g = two_triangles()
    cfg = SolveConfig(restarts=1, steps=200, intervals=((5.0, 9.0),))
    for seed_node in range(6):
        result = solve_local_partition(g, seed_node, cfg)
        assert result.problem == "partition"
        assert seed_node in result.node_indices
        assert result.conductance == pytest.approx(1.0 / 7.0)
        assert result.volume == pytest.approx(7.0)
        assert result.constraint_ok
        assert result.interval == (5.0, 9.0)


def test_partition_default_schedule_on_petersen():
    g = petersen()
    result = solve_local_partition(g, 0, SolveConfig(steps=120))
    assert 0 in result.node_indices
    assert volume(g, result.node_indices) <= result.interval[1] + 1e-9
    assert result.conductance == pytest.approx(conductance(g, result.node_indices))


def test_partition_candidate_cap_always_holds():
    rng = np.random.default_rng(14)
    for _ in range(10):
        g = random_graph(rng, 20, density=0.3, weighted=True)
        seeds = np.flatnonzero(g.degree > 0)
        if seeds.size == 0:
            continue
        seed_node = int(seeds[0])
        result = solve_local_partition(g, seed_node, SolveConfig(steps=60, num_intervals=4))
        assert seed_node in result.node_indices
        assert volume(g, result.node_indices) <= result.interval[1] + 1e-9


def test_partition_sampled_decode():
    g = two_triangles()
    cfg = SolveConfig(steps=120, intervals=((5.0, 9.0),), decode="sampled", k_samples=64)
    result = solve_local_partition(g, 0, cfg)
    assert result.decode == "sampled"
    assert 0 in result.node_indices
    assert volume(g, result.node_indices) <= 9.0


def test_partition_certificate_checkable_when_live():
    g = two_triangles()
    result = solve_local_partition(g, 0, SolveConfig(steps=200, intervals=((5.0, 9.0),)))
    problem = CutVolumeObjective(VolumeConstraint(*result.interval))
    if not result.certificate.vacuous:
        assert verify_solution(g, result.node_indices, result.certificate, problem)


def test_partition_unreachable_midpoint_is_flagged_vacuous():
    # Total volume of K3 is 6; an interval centered at 8 cannot be hit.
    g = complete_graph(3)
    result = solve_local_partition(g, 0, SolveConfig(steps=40, intervals=((6.0, 10.0),)))
    assert result.certificate.vacuous


def test_partition_input_validation():
    g = two_triangles()
    with pytest.raises(ValueError, match="out of range"):
        solve_local_partition(g, 9, FAST)
    with pytest.raises(ValueError, match="isolated"):
        lonely = Graph(3, [0], [1], [1.0])
        solve_local_partition(lonely, 2, FAST)
    with pytest.raises(ValueError, match="empty graph"):
        solve_local_partition(Graph(0, [], [], []), 0, FAST)
    with pytest.raises(ValueError, match="unknown partition decode"):
        solve_local_partition(g, 0, SolveConfig(decode="magic"))
    with pytest.raises(ValueError, match="exceeds every interval"):
        solve_local_partition(g, 0, SolveConfig(intervals=((0.0, 1.0),)))
    for count in (0, -1):
        with pytest.raises(ValueError, match="num_intervals"):
            solve_local_partition(g, 0, SolveConfig(num_intervals=count))
    with pytest.raises(ValueError, match="k_samples"):
        solve_local_partition(g, 0, SolveConfig(decode="sampled", k_samples=0))
    # The producer is checked before any interval is scanned.
    with pytest.raises(ValueError, match="unknown producer"):
        solve_local_partition(g, 0, SolveConfig(producer="magic", intervals=((0.0, 1.0),)))
    with pytest.raises(ValueError, match="checkpoint"):
        solve_local_partition(g, 0, SolveConfig(producer="mpnn", steps=1))


def test_partition_payload_thread_invariant():
    g = petersen()
    base = solve_local_partition(g, 3, SolveConfig(steps=80, num_intervals=4, threads=1))
    other = solve_local_partition(g, 3, SolveConfig(steps=80, num_intervals=4, threads=3))
    assert other.payload() == base.payload()


def test_default_interval_schedule_shape():
    g = petersen()
    schedule = default_interval_schedule(g, 0, hops=2, count=5)
    assert len(schedule) == 5
    d = float(g.degree[0])
    assert schedule[0].lower == pytest.approx(0.75 * 2 * d)
    for vc in schedule:
        assert vc.upper == pytest.approx(vc.lower / 0.75 * 1.25)
    # Centers never exceed half the total volume.
    assert schedule[-1].upper <= 1.25 * g.degree.sum() / 2.0 + 1e-9
    with pytest.raises(ValueError, match="isolated"):
        default_interval_schedule(Graph(2, [], [], []), 0)
    for count in (0, -1):
        with pytest.raises(ValueError, match="count >= 1"):
            default_interval_schedule(g, 0, hops=2, count=count)


# ---------------------------------------------------------------------------
# baselines and helpers


def test_greedy_mis_complement_is_clique():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(1, 20))
        g = random_graph(rng, n, density=0.5, weighted=True)
        ns = greedy_mis_complement(g)
        assert is_clique(g, ns.mask)
        assert len(ns) >= 1
    with pytest.raises(ValueError, match="empty"):
        greedy_mis_complement(Graph(0, [], [], []))


def test_approximation_ratio():
    assert approximation_ratio(3.0, 4.0) == pytest.approx(0.75)
    with pytest.raises(ValueError, match="positive"):
        approximation_ratio(1.0, 0.0)


def test_solve_config_describe_is_json_safe():
    import json

    cfg = SolveConfig(mpnn=MpnnParams.init(np.random.default_rng(0), hidden=4, layers=1), intervals=((1.0, 2.0),))
    text = json.dumps(cfg.describe(), sort_keys=True)
    assert '"hidden": 4' in text
    assert '"intervals": [[1.0, 2.0]]' in text


def test_result_json_separates_timing():
    g = complete_graph(3)
    result = solve_max_clique(g, FAST)
    doc = result.to_json()
    assert set(doc.keys()) == {"payload", "timing"}
    assert "wall_time_s" in doc["timing"]
    assert "wall_time" not in doc["payload"]

from dataclasses import replace

import numpy as np
import pytest

from cliquecut import (
    CliqueLossSpec,
    Graph,
    MpnnParams,
    SolveConfig,
    approximation_ratio,
    brute_force_max_clique,
    conductance,
    default_interval_schedule,
    gen_gnp,
    gen_planted_clique,
    greedy_mis_complement,
    induced,
    is_clique,
    penalty_certificate,
    set_weight,
    solve_local_partition,
    solve_max_clique,
    uniform_random_baseline,
    verify_solution,
    volume,
)
from cliquecut import solver
from cliquecut.certificates import CliqueObjective, CutVolumeObjective
from cliquecut.distributions import VolumeConstraint

from helpers import (
    complete_graph,
    k5_minus_edge,
    path_graph,
    petersen,
    random_graph,
    sparse_planted_clique,
    two_triangles,
)

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


def test_unsound_certificate_parameters_give_a_vacuous_certificate():
    # gamma = 6 is below the total weight 9, so the tail bound 5.01 from loss
    # 3.007 is flagged vacuous: samples break such claims (test_certificates).
    result = solve_max_clique(k5_minus_edge(), SolveConfig(gamma=6.0, beta=6.0, t=0.4))
    assert result.certificate.vacuous and result.certificate.kind == "penalty"
    assert result.certificate.bound == pytest.approx(5.0122, abs=1e-4)
    assert result.loss == pytest.approx(3.0073, abs=1e-4)
    assert result.objective == 6.0 and result.gamma == 6.0


def test_certificate_check_uses_the_seed_ball_weight():
    g, _ = sparse_planted_clique(np.random.default_rng(9), 3000, 10, 6)
    balls = [induced(g, np.append(g.neighbors(v), v))[0] for v in solver._seed_balls(g, 4).tolist()]
    weights = [ball.total_weight for ball in balls]
    assert max(weights) < g.total_weight
    # At the heaviest ball's weight every ball certifies, so the certificate is
    # the tail bound itself; just below the lightest, none does.
    for gamma, forced in ((max(weights), False), (min(weights) - 1.0, True)):
        result = solve_max_clique(g, SolveConfig(restarts=4, gamma=gamma, beta=gamma, t=0.3))
        plain = penalty_certificate(result.loss, gamma, 0.3)
        assert not plain.vacuous
        assert result.certificate == (replace(plain, vacuous=True) if forced else plain)


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


@pytest.mark.parametrize("t", [-0.1, 1.0, 1.5])
def test_t_is_checked_before_any_work(monkeypatch, t):
    def no_work(*args, **kwargs):
        raise AssertionError("optimize_direct ran before t was checked")

    monkeypatch.setattr(solver, "optimize_direct", no_work)
    with pytest.raises(ValueError, match="t must lie"):
        solve_max_clique(complete_graph(4), SolveConfig(t=t))
    with pytest.raises(ValueError, match="t must lie"):
        solve_local_partition(two_triangles(), 0, SolveConfig(t=t))


BAD_SETTINGS = [
    ("steps", -5, "steps"),
    ("lr", float("nan"), "lr"),
    ("lr", float("inf"), "lr"),
    ("lr", -1.0, "lr"),
    ("lr", 0.0, "lr"),
    ("init_jitter", -1.0, "init_jitter"),
    ("init_jitter", float("nan"), "init_jitter"),
    ("init_jitter", float("inf"), "init_jitter"),
    ("threads", 0, "threads"),
    ("time_budget", -1.0, "time_budget"),
    ("time_budget", float("nan"), "time_budget"),
    ("time_budget", float("inf"), "time_budget"),
    ("ball_hops", -1, "ball_hops"),
    ("opt_beta", float("inf"), "opt_beta"),
    ("opt_beta", float("nan"), "opt_beta"),
    ("opt_beta", 0.0, "opt_beta"),
    ("opt_beta", -2.0, "opt_beta"),
    ("gamma", float("inf"), "gamma"),
    ("gamma", float("nan"), "gamma"),
    ("gamma", 0.0, "gamma"),
    ("beta", float("inf"), "beta"),
    ("beta", float("nan"), "beta"),
    ("beta", -1.0, "beta"),
]


@pytest.mark.parametrize("field, value, message", BAD_SETTINGS, ids=[f"{f}={v}" for f, v, _ in BAD_SETTINGS])
def test_bad_settings_are_rejected_before_any_work(monkeypatch, field, value, message):
    def no_work(*args, **kwargs):
        raise AssertionError(f"optimize_direct ran before {field} was checked")

    monkeypatch.setattr(solver, "optimize_direct", no_work)
    config = replace(SolveConfig(), **{field: value})
    with pytest.raises(ValueError, match=message):
        solve_max_clique(complete_graph(4), config)
    with pytest.raises(ValueError, match=message):
        solve_local_partition(two_triangles(), 0, config)


def test_zero_steps_and_zero_budget_stay_valid():
    g = complete_graph(4)
    assert solve_max_clique(g, SolveConfig(restarts=2, steps=0)).objective == 6.0
    assert solve_max_clique(g, SolveConfig(restarts=2, steps=5, time_budget=0.0)).seeds_tried >= 1
    assert solve_local_partition(two_triangles(), 0, SolveConfig(steps=0, time_budget=0.0)).seeds_tried >= 1


@pytest.mark.parametrize("restarts", [1, 7, 10])
@pytest.mark.parametrize("weighted", [False, True])
def test_stacked_restarts_keep_clique_payloads(monkeypatch, restarts, weighted):
    g = random_graph(np.random.default_rng(21 + weighted), 45, density=0.35, weighted=weighted)
    config = SolveConfig(restarts=restarts, steps=60, seed=3)
    default = solve_max_clique(g, config).payload()
    assert default["seeds_tried"] == restarts
    calls = counted_sizes(monkeypatch)
    entries = g.rows.size
    for chunk in (1, 3, restarts):
        calls.clear()
        # The chunk is _STACK_ENTRIES // 2E rows; 3 rows leaves a short last chunk at 7 and 10.
        monkeypatch.setattr(solver, "_STACK_ENTRIES", chunk * entries)
        for threads in (1, 2):
            assert solve_max_clique(g, replace(config, threads=threads)).payload() == default
        want = [min(chunk, restarts - start) for start in range(0, restarts, chunk)]
        # With two threads the chunks run concurrently, in either order.
        assert sorted(len(sizes) for sizes in calls) == sorted(want * 2)


def test_default_chunk_stacks_small_graphs_only(monkeypatch):
    calls = counted_sizes(monkeypatch)
    solve_max_clique(random_graph(np.random.default_rng(4), 40, density=0.5), SolveConfig(restarts=10, steps=5))
    assert [len(sizes) for sizes in calls] == [10]
    calls.clear()
    # 2**15 // 2E is 1 once the adjacency has more than 2**14 entries.
    star = Graph(8194, np.zeros(8193, dtype=np.int64), np.arange(1, 8194), np.ones(8193))
    solve_max_clique(star, SolveConfig(restarts=3, steps=2))
    assert [len(sizes) for sizes in calls] == [1, 1, 1]


def test_one_unit_chunk_names_its_unit_on_overflow():
    # One seed ball is a one-part union, which binds the plain kernel: its loss is one float.
    with pytest.raises(FloatingPointError) as info:
        solve_max_clique(gen_gnp(40, 0.9, np.random.default_rng(0)), SolveConfig(restarts=1, opt_beta=1e308))
    assert str(info.value) == "loss became nan at step 0 on the seed ball of node 0 (opt_beta=1e+308, lr=0.1)"


def test_time_budget_stops_at_a_chunk_boundary(monkeypatch):
    g = random_graph(np.random.default_rng(6), 30, density=0.4)
    monkeypatch.setattr(solver, "_STACK_ENTRIES", 4 * g.rows.size)
    result = solve_max_clique(g, SolveConfig(restarts=10, steps=5, time_budget=0.0))
    assert result.seeds_tried == 4


def counted_sizes(monkeypatch) -> list[list[int]]:
    """Patch optimize_direct to record, per call, the node count of every graph it optimizes on.

    A call on a disjoint union records the node count of each of its parts,
    looked up from the clique kernel it was given.
    """
    calls, bound = [], {}
    kernel, direct = CliqueLossSpec.step_kernel, solver.optimize_direct

    def step_kernel(self, graph, parts=None):
        step = kernel(self, graph, parts=parts)
        bound[step] = [graph.n] if parts is None else np.diff(parts).tolist()
        return step

    def counted(step, logits, steps, **kwargs):
        calls.append(bound[step])
        return direct(step, logits, steps, **kwargs)

    monkeypatch.setattr(CliqueLossSpec, "step_kernel", step_kernel)
    monkeypatch.setattr(solver, "optimize_direct", counted)
    return calls


def test_only_the_returned_unit_is_certified(monkeypatch):
    calls = []
    for name in ("clique_loss", "penalty_certificate", "expected_cut", "box_certificate"):

        def counted(*args, _name=name, _real=getattr(solver, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(solver, name, counted)
    dense, _ = gen_planted_clique(200, 10, 0.1, np.random.default_rng(0))
    sparse, _ = sparse_planted_clique(np.random.default_rng(9), 3000, 10, 6)
    cut = gen_gnp(80, 0.1, np.random.default_rng(1))
    # The 200-node graph's 12 restarts run in two chunks, 7 and 5.
    assert solver._STACK_ENTRIES // dense.rows.size == 7
    clique, partition = ["clique_loss", "penalty_certificate"], ["expected_cut", "box_certificate"]
    runs = [
        (lambda: solve_max_clique(dense, SolveConfig(restarts=12, steps=10)), 12, clique),
        (lambda: solve_max_clique(dense, SolveConfig(restarts=12, steps=10, threads=2)), 12, clique),
        (lambda: solve_max_clique(sparse, SolveConfig(restarts=4, steps=10)), 4, clique),
        (lambda: solve_local_partition(cut, 0, SolveConfig(steps=30)), 8, partition),
        # A zero budget stops after the first chunk of 7 restarts.
        (lambda: solve_max_clique(dense, SolveConfig(restarts=12, steps=10, time_budget=0.0)), 7, clique),
    ]
    for solve, units, want in runs:
        calls.clear()
        assert solve().seeds_tried == units
        assert calls == want


@pytest.mark.parametrize("n", [2000, 5000, 20000])
def test_default_config_recovers_sparse_planted_clique(n):
    # Mean degree 10 around a planted 10-clique; whole-graph restarts miss it on some of these.
    for seed in range(4):
        g, planted = sparse_planted_clique(np.random.default_rng([n, seed]), n, 10, 10)
        result = solve_max_clique(g)
        assert result.objective == 45.0
        assert result.node_indices == planted.tolist()
        assert result.seeds_tried == 10


def test_ball_path_solves_top_core_balls(monkeypatch):
    g, planted = sparse_planted_clique(np.random.default_rng(9), 3000, 10, 6)
    calls = counted_sizes(monkeypatch)
    solve_max_clique(g, SolveConfig(restarts=4, steps=20))
    # The planted nodes have the top core number, 9; the lowest four indices go first,
    # all in one call on the balls' disjoint union.
    assert calls == [[g.neighbors(v).size + 1 for v in planted[:4]]]


def test_ball_chunks_fit_the_largest_ball(monkeypatch):
    g, planted = sparse_planted_clique(np.random.default_rng(9), 3000, 10, 6)
    config = SolveConfig(restarts=5, steps=20)
    base = solve_max_clique(g, config).payload()
    calls = counted_sizes(monkeypatch)
    balls = [induced(g, np.append(g.neighbors(v), v))[0] for v in solver._seed_balls(g, 5).tolist()]
    # Room for two of the largest ball's adjacency entries: chunks of 2, 2 and 1 balls.
    monkeypatch.setattr(solver, "_STACK_ENTRIES", 2 * max(ball.rows.size for ball in balls) + 1)
    for threads in (1, 2):
        calls.clear()
        assert solve_max_clique(g, replace(config, threads=threads)).payload() == base
        assert sorted(calls) == sorted([[b.n for b in balls[i : i + 2]] for i in range(0, 5, 2)])


def test_ball_path_payload_thread_invariant_and_budgeted():
    g, _ = sparse_planted_clique(np.random.default_rng(17), 2500, 10, 8)
    config = SolveConfig(restarts=6, steps=60, seed=4)
    base = solve_max_clique(g, config)
    assert base.seeds_tried == 6 and is_clique(g, base.node_indices)
    assert base.objective == pytest.approx(set_weight(g, base.node_indices))
    assert base.volume == pytest.approx(volume(g, base.node_indices))
    for threads in (2, 4):
        assert solve_max_clique(g, replace(config, threads=threads)).payload() == base.payload()
    # These balls are small enough to make one chunk, so even a zero budget runs them all.
    assert solve_max_clique(g, replace(config, time_budget=0.0)).payload() == base.payload()


def test_ball_path_verifies_on_the_full_graph():
    g, _ = sparse_planted_clique(np.random.default_rng(5), 2000, 8, 6)
    for decode in ("hybrid", "conditional", "sweep"):
        result = solve_max_clique(g, SolveConfig(restarts=3, steps=80, decode=decode))
        problem = CliqueObjective(gamma=result.gamma)
        if not result.certificate.vacuous:
            assert verify_solution(g, result.node_indices, result.certificate, problem)
        assert is_clique(g, result.node_indices)


def test_edgeless_graph_takes_single_node_balls(monkeypatch):
    calls = counted_sizes(monkeypatch)
    result = solve_max_clique(Graph(50, [], [], []), SolveConfig(restarts=3, steps=5))
    assert calls == [[1, 1, 1]]
    assert result.objective == 0.0 and result.node_indices == [0]


def test_dense_shapes_keep_whole_graph_restarts(monkeypatch):
    calls = counted_sizes(monkeypatch)
    graphs = [gen_planted_clique(40, 8, 0.3, np.random.default_rng(seed))[0] for seed in (1, 2, 3)]  # the goldens
    rng = np.random.default_rng(0)
    for n in (40, 70, 100):
        for p in (0.3, 0.5):
            graphs.append(gen_planted_clique(n, 12, p, rng)[0])  # shaped like the dense clique bench
        graphs.append(gen_planted_clique(n - 20, 8, 0.25, rng)[0])  # shaped like the MPNN training corpus
    for g in graphs:
        calls.clear()
        solve_max_clique(g, SolveConfig(steps=5))
        # Restarts run as the parts of a union of copies of the whole graph.
        assert calls and all(size == g.n for sizes in calls for size in sizes)
        assert sum(len(sizes) for sizes in calls) == SolveConfig().restarts


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
    for decode in ("magic", "sampled", "hybrid"):
        with pytest.raises(ValueError, match=f"unknown partition decode '{decode}'"):
            solve_local_partition(g, 0, SolveConfig(decode=decode))
    with pytest.raises(ValueError, match="exceeds every interval"):
        solve_local_partition(g, 0, SolveConfig(intervals=((0.0, 1.0),)))
    for count in (0, -1):
        with pytest.raises(ValueError, match="num_intervals"):
            solve_local_partition(g, 0, SolveConfig(num_intervals=count))
    # The producer is checked before any interval is scanned.
    with pytest.raises(ValueError, match="unknown producer"):
        solve_local_partition(g, 0, SolveConfig(producer="magic", intervals=((0.0, 1.0),)))
    with pytest.raises(ValueError, match="checkpoint"):
        solve_local_partition(g, 0, SolveConfig(producer="mpnn", steps=1))


def test_partition_rejects_empty_interval_list():
    g = two_triangles()
    for empty in ((), []):
        with pytest.raises(ValueError, match=r"need at least one volume interval \(num_intervals >= 1 and intervals not empty\)"):
            solve_local_partition(g, 0, SolveConfig(intervals=empty))


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
    # -1 must not wrap round to the last node (isolated here), nor 3 escape as a bare IndexError.
    last_isolated = Graph(3, [0], [1], [1.0])
    for seed in (-1, 3, 4):
        with pytest.raises(ValueError, match=f"seed node {seed} out of range"):
            default_interval_schedule(last_isolated, seed)
    with pytest.raises(ValueError, match="seed node -1 out of range"):
        default_interval_schedule(g, -1)
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

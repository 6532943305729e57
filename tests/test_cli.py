import json

import numpy as np
import pytest

from cliquecut import Graph, MpnnParams, graph_digest, graphs, save_checkpoint, to_edge_list_text
from cliquecut import cli
from cliquecut.cli import main

from helpers import complete_graph, k5_minus_edge, path_graph, random_graph, two_triangles


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, graph, name="graph.edges"):
    path = tmp_path / name
    path.write_text(to_edge_list_text(graph), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_manifest_and_doc(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    code, out, _ = run(
        capsys,
        ["generate", "--kind", "gnp", "--count", "5", "--nodes", "12", "--prob", "0.5",
         "--seed", "7", "--out", str(out_dir)],
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc.keys()) == {"config", "payload", "timing"}
    assert doc["payload"]["count"] == 5
    names = [g["name"] for g in doc["payload"]["graphs"]]
    assert names == [f"gnp-{i:03d}" for i in range(5)]
    assert (out_dir / "manifest.json").exists()
    assert (out_dir / "gnp-000.edges").exists()
    splits = [g["split"] for g in doc["payload"]["graphs"]]
    assert splits.count("train") == 3  # 0.6 of 5
    # Each reported digest is the canonical text's, which is what the file holds.
    for entry in doc["payload"]["graphs"]:
        path = out_dir / f"{entry['name']}.edges"
        graph = graphs.load_edge_list_file(path)
        assert path.read_bytes() == to_edge_list_text(graph).encode()
        assert entry["digest"] == graph_digest(graph)
        assert (entry["nodes"], entry["edges"]) == (graph.n, graph.num_edges)


def test_generate_rejects_too_many_nodes(tmp_path, capsys, monkeypatch):
    # With the cap lowered, a missing check would build only a small pair table.
    monkeypatch.setattr(graphs, "MAX_NODES", 100)
    for kind in ("gnp", "planted"):
        code, out, err = run(
            capsys, ["generate", "--kind", kind, "--count", "1", "--nodes", "101", "--out", str(tmp_path / kind)]
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "101 nodes exceed the limit of 100" in err


@pytest.mark.parametrize("splits", ["nan,0.5,0.5", "inf,0.5,0.5"])
def test_generate_rejects_non_finite_splits(tmp_path, capsys, splits):
    out_dir = tmp_path / "corpus"
    code, out, err = run(capsys, ["generate", "--count", "3", "--nodes", "10", "--splits", splits, "--out", str(out_dir)])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "finite" in err and "Warning" not in err
    assert not (out_dir / "manifest.json").exists()


def test_generate_planted_records_metadata(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    code, out, _ = run(
        capsys,
        ["generate", "--kind", "planted", "--count", "2", "--nodes", "20",
         "--clique-size", "5", "--prob", "0.2", "--splits", "none", "--out", str(out_dir)],
    )
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    for entry in manifest["graphs"]:
        assert entry["split"] == "train"
        assert len(entry["meta"]["planted"]) == 5
        assert entry["meta"]["clique_size"] == 5


def test_generate_is_reproducible(tmp_path, capsys):
    argv = ["generate", "--count", "3", "--nodes", "10", "--seed", "3", "--out", None]
    argv[-1] = str(tmp_path / "a")
    code, out_a, _ = run(capsys, argv)
    argv[-1] = str(tmp_path / "b")
    code, out_b, _ = run(capsys, argv)
    doc_a, doc_b = json.loads(out_a), json.loads(out_b)
    digests = lambda d: [g["digest"] for g in d["payload"]["graphs"]]
    assert digests(doc_a) == digests(doc_b)


# ---------------------------------------------------------------------------
# solve + verify round trips


def test_solve_clique_and_verify(tmp_path, capsys):
    graph_path = write_graph(tmp_path, complete_graph(4))
    result_path = tmp_path / "result.json"
    code, out, _ = run(
        capsys,
        ["solve", "--graph", str(graph_path), "--restarts", "2", "--steps", "50",
         "--out", str(result_path)],
    )
    assert code == 0
    doc = json.loads(result_path.read_text())
    assert sorted(doc["payload"]["node_indices"]) == [0, 1, 2, 3]
    assert doc["payload"]["objective"] == 6.0
    assert doc["payload"]["graph_digest"] == graph_digest(complete_graph(4))

    code, out, _ = run(capsys, ["verify", "--result", str(result_path), "--graph", str(graph_path)])
    assert code == 0
    assert json.loads(out)["payload"]["verified"] is True


def test_solve_partition_with_explicit_interval(tmp_path, capsys):
    graph_path = write_graph(tmp_path, two_triangles())
    result_path = tmp_path / "part.json"
    code, _, _ = run(
        capsys,
        ["solve", "--graph", str(graph_path), "--problem", "partition", "--seed-node", "0",
         "--steps", "150", "--intervals", "5:9", "--out", str(result_path)],
    )
    assert code == 0
    payload = json.loads(result_path.read_text())["payload"]
    assert sorted(payload["node_indices"]) == [0, 1, 2]
    assert payload["interval"] == [5.0, 9.0]
    assert payload["conductance"] == pytest.approx(1.0 / 7.0)

    code, out, _ = run(capsys, ["verify", "--result", str(result_path), "--graph", str(graph_path)])
    assert code == 0


def test_solve_partition_requires_seed_node(tmp_path, capsys):
    graph_path = write_graph(tmp_path, two_triangles())
    code, _, err = run(capsys, ["solve", "--graph", str(graph_path), "--problem", "partition"])
    assert code == 1
    assert "seed-node" in err


def test_solve_reads_dimacs(tmp_path, capsys):
    path = tmp_path / "k3.col"
    path.write_text("p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n")
    code, out, _ = run(capsys, ["solve", "--graph", str(path), "--restarts", "1", "--steps", "30"])
    assert code == 0
    assert sorted(json.loads(out)["payload"]["node_indices"]) == [0, 1, 2]


def test_verify_rejects_wrong_graph(tmp_path, capsys):
    graph_path = write_graph(tmp_path, complete_graph(4))
    result_path = tmp_path / "result.json"
    run(capsys, ["solve", "--graph", str(graph_path), "--restarts", "1", "--steps", "30",
                 "--out", str(result_path)])
    other_path = write_graph(tmp_path, complete_graph(5), name="other.edges")
    code, out, _ = run(capsys, ["verify", "--result", str(result_path), "--graph", str(other_path)])
    assert code == 1
    payload = json.loads(out)["payload"]
    assert payload["digest_ok"] is False


def test_verify_rejects_tampered_objective(tmp_path, capsys):
    graph_path = write_graph(tmp_path, complete_graph(4))
    result_path = tmp_path / "result.json"
    run(capsys, ["solve", "--graph", str(graph_path), "--restarts", "1", "--steps", "30",
                 "--out", str(result_path)])
    doc = json.loads(result_path.read_text())
    doc["payload"]["objective"] = 99.0
    result_path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["verify", "--result", str(result_path), "--graph", str(graph_path)])
    assert code == 2
    assert json.loads(out)["payload"]["objective_ok"] is False


def test_verify_strict_fails_vacuous_certificate(tmp_path, capsys):
    # A narrow interval on P4 makes the Hoeffding allowance swamp t, so the
    # certificate is vacuous while the solve itself still succeeds.
    graph_path = write_graph(tmp_path, path_graph(4))
    result_path = tmp_path / "narrow.json"
    code, _, _ = run(
        capsys,
        ["solve", "--graph", str(graph_path), "--problem", "partition", "--seed-node", "0",
         "--steps", "80", "--intervals", "2.5:3.5", "--out", str(result_path)],
    )
    assert code == 0
    assert json.loads(result_path.read_text())["payload"]["certificate"]["vacuous"] is True

    code, _, _ = run(capsys, ["verify", "--result", str(result_path), "--graph", str(graph_path)])
    assert code == 0
    code, out, _ = run(
        capsys, ["verify", "--result", str(result_path), "--graph", str(graph_path), "--strict"]
    )
    assert code == 2
    assert json.loads(out)["payload"]["certificate_vacuous"] is True


def test_unsound_gamma_writes_a_vacuous_certificate(tmp_path, capsys):
    # gamma = beta = 6 is below K5-minus-an-edge's total weight 9, where samples
    # from this solve's distribution break the tail bound the loss would give.
    graph_path = write_graph(tmp_path, k5_minus_edge())
    result_path = tmp_path / "result.json"
    code, _, _ = run(
        capsys,
        ["solve", "--graph", str(graph_path), "--gamma", "6", "--beta", "6", "--t", "0.4", "--out", str(result_path)],
    )
    assert code == 0
    certificate = json.loads(result_path.read_text())["payload"]["certificate"]
    assert certificate["vacuous"] is True and certificate["bound"] < 6.0
    code, _, _ = run(capsys, ["verify", "--result", str(result_path), "--graph", str(graph_path)])
    assert code == 0
    code, _, _ = run(capsys, ["verify", "--result", str(result_path), "--graph", str(graph_path), "--strict"])
    assert code == 2


def test_removed_sampling_options_are_usage_errors(tmp_path, capsys):
    graph_path = write_graph(tmp_path, two_triangles())
    code, out, err = run(
        capsys, ["solve", "--graph", str(graph_path), "--problem", "partition", "--seed-node", "0", "--decode", "sampled"]
    )
    assert code == 1 and out == ""
    assert err.startswith("error: unknown partition decode 'sampled'")
    cfg = tmp_path / "solve.cfg"
    cfg.write_text("k_samples = 32\n")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--graph", str(graph_path), "--config", str(cfg)])
    assert exc.value.code == 1
    assert "unknown config key 'k_samples'" in capsys.readouterr().err


def test_infinite_volume_bound_is_an_error(tmp_path, capsys):
    # json.dumps would write the bound as Infinity, which strict JSON parsers reject.
    graph_path = write_graph(tmp_path, path_graph(4))
    result_path = tmp_path / "result.json"
    argv = ["solve", "--graph", str(graph_path), "--problem", "partition", "--seed-node", "0", "--steps", "20"]
    code, _, err = run(capsys, argv + ["--intervals", "1:inf", "--out", str(result_path)])
    assert code == 1 and err.startswith("error:") and "finite" in err
    assert not result_path.exists()
    # A payload whose interval was edited to [1.0, Infinity] does not verify either.
    code, _, _ = run(capsys, argv + ["--intervals", "1:5", "--out", str(result_path)])
    assert code == 0
    doc = json.loads(result_path.read_text())
    doc["payload"]["interval"] = [1.0, float("inf")]
    result_path.write_text(json.dumps(doc))
    assert "Infinity" in result_path.read_text()
    code, _, err = run(capsys, ["verify", "--result", str(result_path), "--graph", str(graph_path)])
    assert code == 1 and err.startswith("error:") and "finite" in err


def _solved_weighted(tmp_path, capsys):
    """A weighted graph's canonical file, its edge lines, and a result solved from it."""
    graph = random_graph(np.random.default_rng(21), 16, density=0.4, weighted=True)
    graph_path = write_graph(tmp_path, graph)
    result_path = tmp_path / "result.json"
    code, _, _ = run(capsys, ["solve", "--graph", str(graph_path), "--restarts", "1", "--steps", "30",
                              "--out", str(result_path)])
    assert code == 0
    header, *lines = graph_path.read_text(encoding="utf-8").splitlines()
    return graph, result_path, header, lines


@pytest.mark.parametrize("spelling", ["shuffled", "leading-zeros"])
def test_verify_accepts_the_same_graph_in_other_text(tmp_path, capsys, spelling):
    graph, result_path, header, lines = _solved_weighted(tmp_path, capsys)
    if spelling == "shuffled":
        lines = [lines[i] for i in np.random.default_rng(4).permutation(len(lines))]
    else:
        lines = [" ".join(f"00{token}" if i < 2 else token for i, token in enumerate(line.split())) for line in lines]
    other = tmp_path / "other.edges"
    other.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    # Not the canonical text, so the digest comes from re-serializing the graph.
    assert graphs.load_edge_list_file(other)._digest is None
    code, out, _ = run(capsys, ["verify", "--result", str(result_path), "--graph", str(other)])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["verified"] is True and payload["digest_ok"] is True
    assert json.loads(result_path.read_text())["payload"]["graph_digest"] == graph_digest(graph)


def test_verify_reports_a_dropped_edge(tmp_path, capsys):
    graph, result_path, header, lines = _solved_weighted(tmp_path, capsys)
    chosen = set(json.loads(result_path.read_text())["payload"]["node_indices"])
    # Drop an edge outside the solution, so that only the digest can tell.
    drop = next(i for i, line in enumerate(lines) if not {int(t) for t in line.split()[:2]} <= chosen)
    other = tmp_path / "dropped.edges"
    other.write_text("\n".join([header, *lines[:drop], *lines[drop + 1:]]) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, ["verify", "--result", str(result_path), "--graph", str(other)])
    assert code == 1
    assert json.loads(out)["payload"]["digest_ok"] is False


# ---------------------------------------------------------------------------
# config files


def test_config_file_sets_defaults_and_flags_win(tmp_path, capsys):
    graph_path = write_graph(tmp_path, complete_graph(3))
    cfg = tmp_path / "solve.cfg"
    cfg.write_text("# defaults\nrestarts = 3\nsteps = 25\n")
    code, out, _ = run(capsys, ["solve", "--graph", str(graph_path), "--config", str(cfg)])
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["restarts"] == 3
    assert doc["config"]["steps"] == 25

    code, out, _ = run(
        capsys, ["solve", "--graph", str(graph_path), "--config", str(cfg), "--restarts", "5"]
    )
    assert json.loads(out)["config"]["restarts"] == 5  # explicit flag wins


def test_config_file_unknown_key_errors(tmp_path, capsys):
    graph_path = write_graph(tmp_path, complete_graph(3))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("restartz = 3\n")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--graph", str(graph_path), "--config", str(cfg)])
    assert exc.value.code == 1
    assert "unknown config key" in capsys.readouterr().err


def test_config_file_values_convert_like_flags(tmp_path, capsys):
    graph_path = write_graph(tmp_path, complete_graph(3))
    cfg = tmp_path / "solve.cfg"
    cfg.write_text('restarts = "2"\nlr = 1\ngamma = null\nproducer = uniform\n')
    code, out, _ = run(capsys, ["solve", "--graph", str(graph_path), "--config", str(cfg)])
    assert code == 0
    config = json.loads(out)["config"]
    assert (config["restarts"], config["lr"], config["gamma"], config["producer"]) == (2, 1.0, None, "uniform")
    assert type(config["lr"]) is float


BAD_CONFIG_LINES = [
    ("solve", "restarts = 2.5", "argument --restarts: invalid int value: '2.5'"),
    ("solve", "lr = [1]", "config key 'lr' takes a JSON scalar"),
    ("solve", "steps = true", "argument --steps: invalid int value: 'True'"),
    ("solve", 'seed = "x"', "argument --seed: invalid int value: 'x'"),
    ("solve", "threads = null", "argument --threads: invalid int value: 'None'"),
    ("solve", "producer = magic", "argument --producer: invalid choice: 'magic'"),
    ("solve", 'decode = {"a": 1}', "config key 'decode' takes a JSON scalar"),
    ("benchmark", "no_oracle = 1", "config key 'no_oracle' takes true or false"),
    ("benchmark", 'no_oracle = "true"', "config key 'no_oracle' takes true or false"),
]


@pytest.mark.parametrize("command, line, message", BAD_CONFIG_LINES, ids=[line for _, line, _ in BAD_CONFIG_LINES])
def test_config_file_bad_value_is_usage_error(tmp_path, capsys, command, line, message):
    graph_path = write_graph(tmp_path, complete_graph(3))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    source = ["--graph", str(graph_path)] if command == "solve" else ["--corpus", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main([command, *source, "--config", str(cfg)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err


def test_config_file_missing_errors(tmp_path, capsys):
    graph_path = write_graph(tmp_path, complete_graph(3))
    code, _, err = run(capsys, ["solve", "--graph", str(graph_path), "--config", str(tmp_path / "nope.cfg")])
    assert code == 1
    assert "cannot read config file" in err


def test_usage_errors_exit_1(tmp_path, capsys):
    for argv in (
        [],
        ["generate"],  # missing --out
        ["solve"],  # missing --graph
        ["solve", "--graph", "x", "--format", "bogus"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        capsys.readouterr()


def test_unreadable_graph_is_input_error(tmp_path, capsys):
    code, _, err = run(capsys, ["solve", "--graph", str(tmp_path / "missing.edges")])
    assert code == 1
    assert "error" in err


def test_nan_weight_is_input_error(tmp_path, capsys):
    path = tmp_path / "nan.edges"
    path.write_text("# nodes 4\n0 1 nan\n0 2 1\n1 2 1\n2 3 1\n", encoding="utf-8")
    code, _, err = run(capsys, ["solve", "--graph", str(path), "--out", str(tmp_path / "nan.json")])
    assert code == 1
    assert err.splitlines()[0].startswith("error:")
    assert "non-finite edge weight" in err


def test_extra_edge_field_is_input_error(tmp_path, capsys):
    path = tmp_path / "extra.edges"
    path.write_text("0 1 1\n1 2 0.5 9\n", encoding="utf-8")
    code, _, err = run(capsys, ["solve", "--graph", str(path), "--out", str(tmp_path / "extra.json")])
    assert code == 1 and not (tmp_path / "extra.json").exists()
    assert err == "error: line 2: extra field '9' after the edge weight\n"


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--lr", "nan", "lr must be finite and positive, got nan"),
        ("--lr", "-1", "lr must be finite and positive, got -1.0"),
        ("--steps", "-5", "need steps >= 0, got -5"),
        ("--init-jitter", "-1", "init_jitter must be finite and non-negative, got -1.0"),
        ("--init-jitter", "nan", "init_jitter must be finite and non-negative, got nan"),
        ("--threads", "0", "need threads >= 1, got 0"),
        ("--time-budget", "-1", "time_budget must be finite and non-negative, got -1.0"),
        ("--ball-hops", "-1", "need ball_hops >= 0, got -1"),
    ],
    ids=["lr=nan", "lr=-1", "steps=-5", "init-jitter=-1", "init-jitter=nan", "threads=0", "time-budget=-1", "ball-hops=-1"],
)
def test_bad_solver_setting_is_input_error(tmp_path, capsys, flag, value, message):
    graph_path = write_graph(tmp_path, complete_graph(4))
    for problem in (["--problem", "clique"], ["--problem", "partition", "--seed-node", "0"]):
        code, out, err = run(capsys, ["solve", "--graph", str(graph_path), *problem, flag, value])
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--opt-beta", "inf", "opt_beta must be finite and positive, got inf"),
        ("--opt-beta", "0", "opt_beta must be finite and positive, got 0.0"),
        ("--gamma", "inf", "gamma must be finite and positive, got inf"),
        ("--gamma", "nan", "gamma must be finite and positive, got nan"),
        ("--beta", "inf", "beta must be finite and positive, got inf"),
        ("--beta", "-1", "beta must be finite and positive, got -1.0"),
    ],
    ids=["opt-beta=inf", "opt-beta=0", "gamma=inf", "gamma=nan", "beta=inf", "beta=-1"],
)
def test_bad_penalty_setting_is_input_error(tmp_path, capsys, flag, value, message):
    graph_path = write_graph(tmp_path, complete_graph(4))
    for problem in (["--problem", "clique"], ["--problem", "partition", "--seed-node", "0"]):
        code, out, err = run(capsys, ["solve", "--graph", str(graph_path), *problem, flag, value])
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err


def test_overflowing_optimizer_is_input_error(tmp_path, capsys):
    # Finite but so large that the penalty loss overflows on the first step.
    graph_path = write_graph(tmp_path, complete_graph(4))
    code, out, err = run(capsys, ["solve", "--graph", str(graph_path), "--opt-beta", "1e308"])
    assert code == 1 and out == ""
    # Restart 0 starts at p = 0.5, where the two huge terms still cancel; restart 2 is the first to overflow.
    assert err == "error: loss became nan at step 0 in restart 2 (opt_beta=1e+308, lr=0.1)\n"


def test_overflowing_optimizer_names_the_seed_ball(tmp_path, capsys):
    # A 5-clique and 40 isolated nodes take the seed-ball path; node 0's ball is the first.
    u, v = np.triu_indices(5, k=1)
    graph_path = write_graph(tmp_path, Graph(45, u, v, np.ones(u.size)))
    code, out, err = run(capsys, ["solve", "--graph", str(graph_path), "--opt-beta", "1e308", "--lr", "0.5"])
    assert code == 1 and out == ""
    assert err == "error: loss became nan at step 0 on the seed ball of node 0 (opt_beta=1e+308, lr=0.5)\n"


@pytest.mark.parametrize(
    "suffix, text, message",
    [
        (".edges", "0 1\n0 4999\n", "line 2: 5000 nodes exceed the limit of 1000"),
        (".dimacs", "p edge 5000 1\ne 1 2\n", "line 1: 5000 nodes exceed the limit of 1000"),
    ],
)
def test_oversized_node_count_is_input_error(tmp_path, capsys, monkeypatch, suffix, text, message):
    # A lowered limit stands in for the real one, so a missing check allocates little.
    monkeypatch.setattr(graphs, "MAX_NODES", 1000)
    path = tmp_path / f"big{suffix}"
    path.write_text(text, encoding="utf-8")
    code, _, err = run(capsys, ["solve", "--graph", str(path)])
    assert code == 1
    assert err.splitlines()[0].startswith("error:")
    assert message in err


# ---------------------------------------------------------------------------
# benchmark


@pytest.fixture()
def small_corpus(tmp_path, capsys):
    out_dir = tmp_path / "bench"
    run(capsys, ["generate", "--count", "4", "--nodes", "10", "--prob", "0.5",
                 "--splits", "none", "--out", str(out_dir)])
    return out_dir


def test_benchmark_clique_csv(small_corpus, tmp_path, capsys):
    out_csv = tmp_path / "rows.csv"
    code, _, _ = run(
        capsys,
        ["benchmark", "--corpus", str(small_corpus), "--split", "train", "--restarts", "2",
         "--steps", "40", "--compare", "greedy", "--out", str(out_csv)],
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "name"
    assert header[-1] == "time_s"
    assert "oracle" in header and "ratio" in header
    assert len(lines) == 5
    row = lines[1].split(",")
    assert float(row[header.index("ratio")]) <= 1.0 + 1e-9
    assert float(row[header.index("baseline")]) > 0.0


def test_benchmark_partition_csv(small_corpus, capsys):
    code, out, _ = run(
        capsys,
        ["benchmark", "--corpus", str(small_corpus), "--split", "train",
         "--problem", "partition", "--steps", "40", "--num-intervals", "2"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split(",")[:4] == ["name", "nodes", "edges", "seed_node"]
    assert lines[0].split(",")[-1] == "time_s"
    assert len(lines) == 5


def test_benchmark_oracle_limit_reaches_the_oracle(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    code, _, _ = run(
        capsys,
        ["generate", "--kind", "planted", "--count", "1", "--nodes", "70", "--prob", "0.1",
         "--clique-size", "7", "--splits", "none", "--out", str(corpus)],
    )
    assert code == 0
    argv = ["benchmark", "--corpus", str(corpus), "--split", "train", "--restarts", "2", "--steps", "20"]
    code, out, _ = run(capsys, argv + ["--oracle-limit", "100"])
    assert code == 0
    header, row = (line.split(",") for line in out.splitlines())
    assert row[header.index("nodes")] == "70"
    assert float(row[header.index("oracle")]) >= 21.0  # the planted 7-clique
    assert 0.0 < float(row[header.index("ratio")]) <= 1.0 + 1e-9
    # Below the graph's size the oracle is skipped, as before.
    code, out, _ = run(capsys, argv + ["--oracle-limit", "60"])
    assert code == 0
    header, row = (line.split(",") for line in out.splitlines())
    assert row[header.index("oracle")] == ""
    # A config file sets the flag that skips it.
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("no_oracle = true\n")
    code, out, _ = run(capsys, argv + ["--oracle-limit", "100", "--config", str(cfg)])
    header, row = (line.split(",") for line in out.splitlines())
    assert code == 0 and row[header.index("oracle")] == ""


def test_benchmark_empty_split_errors(small_corpus, capsys):
    code, _, err = run(capsys, ["benchmark", "--corpus", str(small_corpus)])
    assert code == 1  # default split "test" is empty under --splits none
    assert "no graphs in split" in err


def test_benchmark_all_graphs_with_empty_split(small_corpus, capsys):
    code, out, _ = run(
        capsys,
        ["benchmark", "--corpus", str(small_corpus), "--split", "", "--restarts", "1",
         "--steps", "20", "--no-oracle"],
    )
    assert code == 0
    assert len(out.splitlines()) == 5


# ---------------------------------------------------------------------------
# train


def test_train_rejects_corpus_with_empty_graph(tmp_path, capsys):
    corpus_dir = tmp_path / "empty"
    run(capsys, ["generate", "--kind", "gnp", "--count", "2", "--nodes", "0",
                 "--splits", "none", "--out", str(corpus_dir)])
    ckpt = tmp_path / "c.npz"
    code, _, err = run(capsys, ["train", "--corpus", str(corpus_dir), "--epochs", "1", "--out", str(ckpt)])
    assert code != 0
    assert "graph 'gnp-000' in the train split has no nodes" in err
    assert not ckpt.exists()


def test_train_cut_rejects_corpus_with_edgeless_graph(tmp_path, capsys):
    corpus_dir = tmp_path / "edgeless"
    run(capsys, ["generate", "--kind", "gnp", "--count", "2", "--nodes", "4", "--prob", "0",
                 "--splits", "none", "--out", str(corpus_dir)])
    ckpt = tmp_path / "c.npz"
    argv = ["train", "--corpus", str(corpus_dir), "--objective", "cut", "--epochs", "1", "--out", str(ckpt)]
    code, _, err = run(capsys, argv)
    assert code == 1
    assert err.startswith("error:") and "graph 'gnp-000' in the train split has no edges" in err
    assert not ckpt.exists()


def test_train_and_reuse_checkpoint(tmp_path, capsys):
    corpus_dir = tmp_path / "train-corpus"
    run(capsys, ["generate", "--count", "3", "--nodes", "8", "--prob", "0.6",
                 "--splits", "none", "--out", str(corpus_dir)])
    ckpt = tmp_path / "producer.json"
    code, out, _ = run(
        capsys,
        ["train", "--corpus", str(corpus_dir), "--epochs", "2", "--hidden", "4",
         "--layers", "1", "--out", str(ckpt)],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["epochs"] == 2
    assert len(doc["payload"]["history"]["train"]) == 2
    assert ckpt.exists()

    # Resume training from the checkpoint.
    code, out, _ = run(
        capsys,
        ["train", "--corpus", str(corpus_dir), "--epochs", "1", "--init", str(ckpt),
         "--out", str(tmp_path / "resumed.json")],
    )
    assert code == 0

    # Solve with the trained producer.
    graph_path = corpus_dir / "gnp-000.edges"
    code, out, _ = run(
        capsys,
        ["solve", "--graph", str(graph_path), "--producer", "mpnn",
         "--checkpoint", str(ckpt), "--restarts", "2", "--steps", "0"],
    )
    assert code == 0
    assert json.loads(out)["payload"]["producer"] == "mpnn"


def test_solve_reads_weights_only(tmp_path, capsys):
    """``solve`` takes a checkpoint whose moments alone are damaged; ``train --init`` does not."""
    corpus_dir = tmp_path / "train-corpus"
    run(capsys, ["generate", "--count", "3", "--nodes", "8", "--prob", "0.6",
                 "--splits", "none", "--out", str(corpus_dir)])
    ckpt = tmp_path / "producer.npz"
    code, _, _ = run(capsys, ["train", "--corpus", str(corpus_dir), "--epochs", "1", "--hidden", "4",
                              "--layers", "1", "--out", str(ckpt)])
    assert code == 0
    graph_path = corpus_dir / "gnp-000.edges"
    solve = ["solve", "--graph", str(graph_path), "--producer", "mpnn", "--checkpoint", str(ckpt), "--steps", "0"]
    code, before, _ = run(capsys, solve)
    assert code == 0
    _drop_npz_member(ckpt, "optim_v/embed_w")
    code, after, _ = run(capsys, solve)
    assert code == 0
    assert json.loads(after)["payload"] == json.loads(before)["payload"]
    code, _, err = run(capsys, ["train", "--corpus", str(corpus_dir), "--epochs", "1", "--init", str(ckpt),
                                "--out", str(tmp_path / "resumed.npz")])
    assert code == 1
    assert err.startswith("error:") and "optimizer v do not fit the network: missing ['embed_w']" in err


def test_main_builds_one_parser_per_process(tmp_path, capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def counted():
        built.append(build())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counted)
    monkeypatch.setattr(cli, "_PARSER", None)
    graph_path = write_graph(tmp_path, complete_graph(4))
    for _ in range(2):
        code, out, _ = run(capsys, ["solve", "--graph", str(graph_path), "--restarts", "1", "--steps", "5"])
        assert code == 0 and json.loads(out)["payload"]["node_indices"] == [0, 1, 2, 3]
    assert len(built) == 1
    # build_parser itself still returns a new parser on every call.
    assert build()[0] is not build()[0]


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--batch-size", "0", "need batch_size >= 1, got 0"),
        ("--batch-size", "-2", "need batch_size >= 1, got -2"),
        ("--lr", "nan", "lr must be finite and positive, got nan"),
        ("--lr", "-1", "lr must be finite and positive, got -1.0"),
        ("--epochs", "-3", "need epochs >= 0, got -3"),
    ],
    ids=["batch-size=0", "batch-size=-2", "lr=nan", "lr=-1", "epochs=-3"],
)
def test_bad_train_setting_is_input_error(tmp_path, capsys, flag, value, message):
    corpus_dir = tmp_path / "train-corpus"
    run(capsys, ["generate", "--count", "3", "--nodes", "8", "--prob", "0.6",
                 "--splits", "none", "--out", str(corpus_dir)])
    ckpt = tmp_path / "producer.npz"
    code, out, err = run(capsys, ["train", "--corpus", str(corpus_dir), "--out", str(ckpt), flag, value])
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err
    assert not ckpt.exists()


def test_mpnn_without_checkpoint_is_input_error(tmp_path, capsys):
    graph_path = write_graph(tmp_path, complete_graph(3))
    code, _, err = run(capsys, ["solve", "--graph", str(graph_path), "--producer", "mpnn"])
    assert code == 1
    assert "checkpoint" in err


def _drop_npz_member(path, name):
    with np.load(path) as data:
        members = {k: data[k] for k in data.files if k != name}
    np.savez(path, **members)


def _patch_central_directory(path, offset, value):
    """Set one byte at ``offset`` in every central-directory entry of the archive."""
    data = bytearray(path.read_bytes())
    start = data.find(b"PK\x01\x02")
    while start >= 0:
        data[start + offset] = value
        start = data.find(b"PK\x01\x02", start + 1)
    path.write_bytes(bytes(data))


@pytest.mark.parametrize(
    "suffix, damage, message",
    [
        (".json", lambda doc: {**doc, "weights": {k: v for k, v in doc["weights"].items() if k != "head2_b"}}, "head2_b"),
        (".json", lambda doc: {k: v for k, v in doc.items() if k != "hidden"}, "hidden"),
        (".json", lambda doc: {**doc, "layers": 3}, "layer2_w"),
        (".json", lambda doc: [doc], "object"),
        (".json", lambda doc: {**doc, "weights": {**doc["weights"], "embed_b": {"x": 1.0}}}, "non-numeric"),
        (".json", lambda doc: {**doc, "weights": {**doc["weights"], "embed_b": [10**400] * 4}}, "non-numeric"),
        (".json", lambda doc: {**doc, "weights": {**doc["weights"], "embed_b": [float("nan")] * 4}}, "non-finite"),
        (".json", lambda doc: {**doc, "layers": 10**12}, "declares 1000000000000 layers"),
        (".npz", lambda path: _drop_npz_member(path, "weights/head2_b"), "head2_b"),
        (".npz", lambda path: path.write_bytes(b""), "not a readable .npz"),
        (".npz", lambda path: path.write_bytes(path.read_bytes()[: path.stat().st_size // 2]), "not a readable .npz"),
        (".npz", lambda path: _patch_central_directory(path, 10, 99), "not a readable .npz"),
        (".npz", lambda path: _patch_central_directory(path, 10, 12), "not a readable .npz"),
        (".npz", lambda path: _patch_central_directory(path, 8, 1), "not a readable .npz"),
    ],
    ids=[
        "missing-weight", "missing-hidden", "layers-mismatch", "top-level-list", "non-numeric",
        "huge-integer", "nan-weight", "huge-layers",
        "npz-missing-weight", "npz-empty", "npz-truncated",
        "npz-unknown-method", "npz-bad-bzip2", "npz-encrypted",
    ],
)
def test_malformed_checkpoint_is_input_error(tmp_path, capsys, suffix, damage, message):
    ckpt = tmp_path / f"bad{suffix}"
    save_checkpoint(ckpt, MpnnParams.init(np.random.default_rng(0), hidden=4, layers=2))
    if suffix == ".npz":
        damage(ckpt)
    else:
        ckpt.write_text(json.dumps(damage(json.loads(ckpt.read_text()))))
    graph_path = write_graph(tmp_path, complete_graph(4))
    code, _, err = run(
        capsys, ["solve", "--graph", str(graph_path), "--producer", "mpnn", "--checkpoint", str(ckpt)]
    )
    assert code == 1
    assert err.startswith("error:") and message in err


# ---------------------------------------------------------------------------
# malformed result files and corpus manifests


def _solved(tmp_path, capsys, problem):
    """A graph file and a result file that verifies against it."""
    if problem == "clique":
        graph_path = write_graph(tmp_path, complete_graph(4))
        extra = ["--restarts", "1", "--steps", "30"]
    else:
        graph_path = write_graph(tmp_path, two_triangles())
        extra = ["--problem", "partition", "--seed-node", "0", "--steps", "40", "--intervals", "5:9"]
    result_path = tmp_path / f"{problem}.json"
    code, _, _ = run(capsys, ["solve", "--graph", str(graph_path), "--out", str(result_path), *extra])
    assert code == 0
    return graph_path, result_path


def _without(doc, key):
    return {**doc, "payload": {k: v for k, v in doc["payload"].items() if k != key}}


def _with(doc, key, value):
    return {**doc, "payload": {**doc["payload"], key: value}}


@pytest.mark.parametrize(
    "problem, damage, message",
    [
        ("clique", lambda doc: [doc], "JSON object"),
        ("clique", lambda doc: {"payload": [doc["payload"]]}, "JSON object"),
        ("clique", lambda doc: _without(doc, "problem"), "problem"),
        ("clique", lambda doc: _without(doc, "certificate"), "certificate"),
        ("clique", lambda doc: _with(doc, "certificate", {**doc["payload"]["certificate"], "t": None}), "'t'"),
        ("clique", lambda doc: _with(doc, "gamma", None), "'gamma'"),
        ("clique", lambda doc: _with(doc, "objective", 10**400), "'objective'"),
        ("clique", lambda doc: _with(doc, "node_indices", [0, 10**30]), "'node_indices'"),
        ("clique", lambda doc: _with(doc, "constraint_ok", None), "'constraint_ok'"),
        ("partition", lambda doc: _with(doc, "interval", [1]), "'interval'"),
        ("partition", lambda doc: _with(doc, "interval", [1, None]), "'interval'"),
    ],
    ids=[
        "top-level-list", "payload-list", "no-problem", "no-certificate", "certificate-t-null",
        "gamma-null", "huge-objective", "huge-index", "constraint-ok-null", "short-interval", "interval-null",
    ],
)
def test_malformed_result_is_input_error(tmp_path, capsys, problem, damage, message):
    graph_path, result_path = _solved(tmp_path, capsys, problem)
    result_path.write_text(json.dumps(damage(json.loads(result_path.read_text()))))
    code, out, err = run(capsys, ["verify", "--result", str(result_path), "--graph", str(graph_path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda doc: [doc], "JSON object"),
        (lambda doc: {k: v for k, v in doc.items() if k != "graphs"}, "'graphs'"),
        (lambda doc: {**doc, "graphs": 3}, "'graphs'"),
        (lambda doc: {**doc, "graphs": [{k: v for k, v in e.items() if k != "path"} for e in doc["graphs"]]}, "'path'"),
        (lambda doc: {**doc, "graphs": ["gnp-000.edges"]}, "entry"),
        (lambda doc: {**doc, "graphs": [{**e, "meta": 1} for e in doc["graphs"]]}, "'meta'"),
    ],
    ids=["top-level-list", "no-graphs", "graphs-number", "entry-no-path", "entry-string", "meta-number"],
)
@pytest.mark.parametrize("command", ["train", "benchmark"])
def test_malformed_manifest_is_input_error(small_corpus, tmp_path, capsys, command, damage, message):
    manifest = small_corpus / "manifest.json"
    manifest.write_text(json.dumps(damage(json.loads(manifest.read_text()))))
    argv = [command, "--corpus", str(small_corpus)]
    if command == "train":
        argv += ["--epochs", "1", "--out", str(tmp_path / "producer.json")]
    code, _, err = run(capsys, argv)
    assert code == 1
    assert err.startswith("error:") and message in err

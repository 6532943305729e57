import json

import numpy as np
import pytest

from cliquecut import MpnnParams, graph_digest, save_checkpoint, to_edge_list_text
from cliquecut.cli import main

from helpers import complete_graph, path_graph, two_triangles


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


def test_mpnn_without_checkpoint_is_input_error(tmp_path, capsys):
    graph_path = write_graph(tmp_path, complete_graph(3))
    code, _, err = run(capsys, ["solve", "--graph", str(graph_path), "--producer", "mpnn"])
    assert code == 1
    assert "checkpoint" in err


def _drop_npz_member(path, name):
    with np.load(path) as data:
        members = {k: data[k] for k in data.files if k != name}
    np.savez(path, **members)


@pytest.mark.parametrize(
    "suffix, damage, message",
    [
        (".json", lambda doc: {**doc, "weights": {k: v for k, v in doc["weights"].items() if k != "head2_b"}}, "head2_b"),
        (".json", lambda doc: {k: v for k, v in doc.items() if k != "hidden"}, "hidden"),
        (".json", lambda doc: {**doc, "layers": 3}, "layer2_w"),
        (".json", lambda doc: [doc], "object"),
        (".json", lambda doc: {**doc, "weights": {**doc["weights"], "embed_b": {"x": 1.0}}}, "non-numeric"),
        (".npz", lambda path: _drop_npz_member(path, "weights/head2_b"), "head2_b"),
        (".npz", lambda path: path.write_bytes(b""), "not a readable .npz"),
        (".npz", lambda path: path.write_bytes(path.read_bytes()[: path.stat().st_size // 2]), "not a readable .npz"),
    ],
    ids=[
        "missing-weight", "missing-hidden", "layers-mismatch", "top-level-list", "non-numeric",
        "npz-missing-weight", "npz-empty", "npz-truncated",
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

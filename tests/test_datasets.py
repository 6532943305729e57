import json

import numpy as np
import pytest

from cliquecut import (
    Corpus,
    gen_gnp,
    gen_planted_clique,
    graph_digest,
    graphs,
    is_clique,
    load_corpus,
    save_corpus,
    split_corpus,
    to_edge_list_text,
)

from helpers import complete_graph, path_graph


def test_gen_gnp_determinism_and_density():
    a = gen_gnp(30, 0.4, np.random.default_rng(9))
    b = gen_gnp(30, 0.4, np.random.default_rng(9))
    assert graph_digest(a) == graph_digest(b)
    assert np.all(a.edge_w == 1.0)
    # 435 candidate pairs at p=0.4: expect roughly 174, allow wide slack.
    assert 100 <= a.num_edges <= 260

    assert gen_gnp(5, 0.0, np.random.default_rng(0)).num_edges == 0
    assert gen_gnp(5, 1.0, np.random.default_rng(0)).num_edges == 10
    with pytest.raises(ValueError, match="probability"):
        gen_gnp(5, 1.5, np.random.default_rng(0))
    with pytest.raises(ValueError, match="non-negative"):
        gen_gnp(-1, 0.5, np.random.default_rng(0))


def test_gen_planted_clique():
    g, planted = gen_planted_clique(40, 8, 0.2, np.random.default_rng(3))
    assert len(planted) == 8
    assert is_clique(g, planted.mask)
    assert np.all(g.edge_w == 1.0)
    # Background edges survive planting.
    assert g.num_edges > 8 * 7 // 2

    again, planted2 = gen_planted_clique(40, 8, 0.2, np.random.default_rng(3))
    assert graph_digest(again) == graph_digest(g)
    assert sorted(planted2.indices()) == sorted(planted.indices())

    with pytest.raises(ValueError, match="0 <= k <= n"):
        gen_planted_clique(5, 9, 0.2, np.random.default_rng(0))


def test_generators_cap_the_node_count(monkeypatch):
    # With the cap lowered, a missing check would build only a small pair table.
    monkeypatch.setattr(graphs, "MAX_NODES", 10)
    assert gen_gnp(10, 0.5, np.random.default_rng(0)).n == 10
    assert gen_planted_clique(10, 3, 0.5, np.random.default_rng(0))[0].n == 10
    with pytest.raises(ValueError, match="11 nodes exceed the limit of 10"):
        gen_gnp(11, 0.5, np.random.default_rng(0))
    with pytest.raises(ValueError, match="11 nodes exceed the limit of 10"):
        gen_planted_clique(11, 3, 0.5, np.random.default_rng(0))


def test_corpus_defaults_and_validation():
    c = Corpus(graphs=[complete_graph(3)], names=["a"])
    assert c.splits == [""] and c.meta == [{}]
    assert len(c) == 1
    with pytest.raises(ValueError, match="equal length"):
        Corpus(graphs=[complete_graph(3)], names=["a", "b"])


def test_split_corpus_counts_and_determinism():
    graphs = [complete_graph(3) for _ in range(10)]
    c = Corpus(graphs=graphs, names=[f"g{i}" for i in range(10)])
    s1 = split_corpus(c, (0.6, 0.2, 0.2), np.random.default_rng(1))
    s2 = split_corpus(c, (0.6, 0.2, 0.2), np.random.default_rng(1))
    assert s1.splits == s2.splits
    assert sorted(s1.splits).count("train") == 6
    assert sorted(s1.splits).count("val") == 2
    assert sorted(s1.splits).count("test") == 2

    # Largest remainder soaks up the rounding: 7 graphs at (0.5, 0.25, 0.25)
    # floor to (3, 1, 1) and the two leftovers go to the 0.75 remainders.
    c7 = Corpus(graphs=graphs[:7], names=[f"g{i}" for i in range(7)])
    s7 = split_corpus(c7, (0.5, 0.25, 0.25), np.random.default_rng(2))
    counts = {lab: s7.splits.count(lab) for lab in ("train", "val", "test")}
    assert counts == {"train": 3, "val": 2, "test": 2}

    with pytest.raises(ValueError, match="summing to 1"):
        split_corpus(c, (0.5, 0.2, 0.2))
    for bad in ((float("nan"), 0.5, 0.5), (float("inf"), 0.5, 0.5), (0.5, float("-inf"), 0.5)):
        with pytest.raises(ValueError, match="three finite non-negative numbers"):
            split_corpus(c, bad)


def test_corpus_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    g1, planted = gen_planted_clique(12, 4, 0.3, rng)
    corpus = Corpus(
        graphs=[g1, path_graph(4)],
        names=["planted-000", "path"],
        splits=["train", "test"],
        meta=[{"planted": [int(i) for i in planted.indices()]}, {}],
    )
    manifest = save_corpus(corpus, tmp_path / "corpus")
    assert manifest.name == "manifest.json"
    assert (tmp_path / "corpus" / "planted-000.edges").exists()

    # Each file holds the canonical text and the manifest its graph_digest.
    entries = json.loads(manifest.read_text())["graphs"]
    for graph, entry in zip(corpus.graphs, entries):
        assert (tmp_path / "corpus" / entry["path"]).read_bytes() == to_edge_list_text(graph).encode()
        assert entry["digest"] == graph_digest(graph)

    loaded = load_corpus(manifest)
    assert loaded.names == corpus.names
    assert loaded.splits == corpus.splits
    assert loaded.meta[0]["planted"] == [int(i) for i in planted.indices()]
    for orig, back in zip(corpus.graphs, loaded.graphs):
        assert graph_digest(orig) == graph_digest(back)


def test_corpus_subset():
    c = Corpus(
        graphs=[complete_graph(3)] * 4,
        names=list("abcd"),
        splits=["train", "test", "train", "val"],
    )
    assert c.subset("train") == [0, 2]
    assert c.subset("test") == [1]
    assert c.subset("nope") == []


def test_load_corpus_detects_tampering(tmp_path):
    corpus = Corpus(graphs=[complete_graph(3)], names=["k3"], splits=["train"])
    manifest = save_corpus(corpus, tmp_path)
    edges = tmp_path / "k3.edges"
    # Tweak a weight so the file still parses but no longer matches the digest.
    edges.write_text(edges.read_text().replace("0 1 1.0", "0 1 0.5", 1))
    with pytest.raises(ValueError, match="digest mismatch"):
        load_corpus(manifest)


def test_load_corpus_rejects_unknown_version(tmp_path):
    corpus = Corpus(graphs=[complete_graph(3)], names=["k3"])
    manifest = save_corpus(corpus, tmp_path)
    doc = json.loads(manifest.read_text())
    doc["format_version"] = 42
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="manifest version"):
        load_corpus(manifest)


@pytest.mark.parametrize("where", ["absolute", "parent"])
def test_load_corpus_rejects_paths_outside_its_directory(tmp_path, where):
    # Both paths name the corpus's own, valid file, so only the spelling is refused.
    corpus = Corpus(graphs=[complete_graph(3)], names=["k3"])
    manifest = save_corpus(corpus, tmp_path / "corpus")
    doc = json.loads(manifest.read_text())
    entry = doc["graphs"][0]
    entry["path"] = str(tmp_path / "corpus" / "k3.edges") if where == "absolute" else "../corpus/k3.edges"
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="field 'path'"):
        load_corpus(manifest)
    entry["path"] = "k3.edges"
    manifest.write_text(json.dumps(doc))
    assert graph_digest(load_corpus(manifest).graphs[0]) == graph_digest(complete_graph(3))

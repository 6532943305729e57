"""Golden result payloads: refactors of the solve path must keep them byte-identical.

Each hash is the sha256 of ``json.dumps(result.payload(), sort_keys=True)``
for a seeded instance.  The default-config hashes were recorded before the
optimizer step was fused; the per-producer and per-decode hashes were
recorded before the two conditional-decode loops and the two producer
dispatches were merged.  The training hashes (best weights and loss history
of ``train_mpnn``) were recorded before message passing and the BFS were
vectorized.  The sparse hashes were recorded before a clique solve's seed
balls shared one Adam loop.  The stop goldens were recorded when a partition
interval's Adam loop began to stop once its loss was flat.  None may move under behaviour-preserving changes.  An intended
payload change re-records them and says why in CHANGES.md.  The payloads carry
float losses, so a numpy build whose elementwise ``exp`` rounds differently in
the last bit can also move them.
"""

import hashlib
import json

import numpy as np
import pytest

from cliquecut import (
    CliqueLossSpec,
    Corpus,
    CutLossSpec,
    Graph,
    MpnnParams,
    SolveConfig,
    gen_gnp,
    gen_planted_clique,
    solve_local_partition,
    solve_max_clique,
    train_mpnn,
)
from cliquecut import solver

from helpers import sparse_planted_clique

CLIQUE_GOLDEN = {
    1: "8a3c4730128639cb598afccb5a5c8e1e6fc74ce653fb4451f56a23e0ac97d9b6",
    2: "a842a042d65e70f0e981882a85a9efb5b0baa9d6a988ca9c7db1fea23a16332d",
    3: "47e9624443f07bbc55eb43fca6d3e7b744271f3fd6146d16afaa911ea5c8897d",
}
PARTITION_GOLDEN = "8e6b6810d5418ff27221f59a4e0c05c8bb52b8059c11995d7a04e80c92962348"

# Partition solves where some interval's direct producer stops once its loss is
# flat (``solver._STOP_RTOL``), by gen_gnp arguments.  The (60, 0.1, 5) graph is
# PARTITION_GOLDEN's, whose payload the stop kept; on the (100, 0.05, 4) graph
# the stop moves the reported loss (by about 1e-4), so that hash was recorded
# with the stop and pins its rule.
PARTITION_STOP_GOLDEN = {
    (60, 0.1, 5): PARTITION_GOLDEN,
    (100, 0.05, 4): "ae3e674a5df7f5b70975ccf565927350d2113bdef396748920d24e2fc4464c8d",
}

# Non-default paths, on the seed-1 clique instance and the partition instance.
CLIQUE_PATH_GOLDEN = {
    "uniform": "f43d8198a928303c7b4652fa26c2c0fa905caa622a51fee2ad09fc5a3fa1f553",
    "mpnn": "ca1fc03689a02fe53ce76b74c1d40a31a37c7f905af075be865a81a83a62aabf",
    "conditional": "d8ff32789868e15c0c4f71c31b9da2aea58c42a6db9769b9450605982b25dedd",
    "sweep": "167e3634bc5035ef06f621ddf870c12a782c49ac9182e05820ba345fb30e5d13",
}
PARTITION_PATH_GOLDEN = {
    "uniform": "f1e217dd50e3c80ddefd34da12eb26a482b1a74e90d05661ec3de053b9c673fe",
    "mpnn": "02e2f712a682bf63827a86b13913c5d76a912cc38352ccd4a70a459f7b181cae",
    "sampled": "5d9b31db300cf5bc568ed0135b4b71227b2206c12d01d067e969c9c390e0739b",
}

# The default config and the conditional decode on sparse_golden_graph(), which
# take the seed-ball path; no golden above does, because every one is dense.
SPARSE_GOLDEN = {
    ("unit", "hybrid"): "9d36140d58e7b0b6fd51f4fe1b82c1a589ff7406ad0b6a2267ed63f3e8040188",
    ("unit", "conditional"): "4df27328708f06ab52c9d88c02c28533abfaec8d168a74b4136ea75c8b201b8d",
    ("weighted", "hybrid"): "9f3fd4fc84b65d90cfcaf6d42b0209f67496dd551a90167b88eb1a8913d5adf1",
    ("weighted", "conditional"): "ba0f41f8a99dc1f5ce2ed2e77ddb23854878684af375bc489219def18ba0c262",
}

# train_mpnn on training_corpus(); the cut spec is unbound, so every pass draws an interval.
TRAIN_GOLDEN = {
    "clique": "f5eb861b4881e98971b1bd90be6ab249b93855675569a56884a01b717f5bd6e1",
    "cut": "bdc2be87167bbeaac5d87324486848dba30b98baabbc9eb5902f5e06be668838",
}


def path_config(name: str) -> SolveConfig:
    if name in ("uniform", "mpnn"):
        mpnn = MpnnParams.init(np.random.default_rng(0), hidden=8, layers=2) if name == "mpnn" else None
        return SolveConfig(producer=name, mpnn=mpnn)
    return SolveConfig(decode=name)


def payload_sha256(result) -> str:
    return hashlib.sha256(json.dumps(result.payload(), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(CLIQUE_GOLDEN))
def test_clique_payload_is_golden(seed):
    graph, _ = gen_planted_clique(40, 8, 0.3, np.random.default_rng(seed))
    assert payload_sha256(solve_max_clique(graph)) == CLIQUE_GOLDEN[seed]


def test_partition_payload_is_golden():
    graph = gen_gnp(60, 0.1, np.random.default_rng(5))
    assert payload_sha256(solve_local_partition(graph, 0)) == PARTITION_GOLDEN


@pytest.mark.parametrize("args", sorted(PARTITION_STOP_GOLDEN))
def test_partition_stop_payload_is_golden(monkeypatch, args):
    stopped = []
    optimize = solver.optimize_direct

    def counted(graph, spec, steps, **kwargs):
        p, losses = optimize(graph, spec, steps, **kwargs)
        stopped.append(len(losses) < steps + 1)
        return p, losses

    monkeypatch.setattr(solver, "optimize_direct", counted)
    n, p_edge, seed = args
    result = solve_local_partition(gen_gnp(n, p_edge, np.random.default_rng(seed)), 0)
    assert len(stopped) == 8 and any(stopped)
    assert payload_sha256(result) == PARTITION_STOP_GOLDEN[args]


@pytest.mark.parametrize("name", sorted(CLIQUE_PATH_GOLDEN))
def test_clique_path_payload_is_golden(name):
    graph, _ = gen_planted_clique(40, 8, 0.3, np.random.default_rng(1))
    assert payload_sha256(solve_max_clique(graph, path_config(name))) == CLIQUE_PATH_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(PARTITION_PATH_GOLDEN))
def test_partition_path_payload_is_golden(name):
    graph = gen_gnp(60, 0.1, np.random.default_rng(5))
    result = solve_local_partition(graph, 0, path_config(name))
    assert payload_sha256(result) == PARTITION_PATH_GOLDEN[name]


def test_partition_mpnn_runs_one_forward_pass(monkeypatch):
    # The golden was recorded when each of the 8 volume intervals ran its own pass.
    seeds = []
    forward = solver.mpnn_forward

    def counted(graph, params, seed_node, **kwargs):
        seeds.append(seed_node)
        return forward(graph, params, seed_node, **kwargs)

    monkeypatch.setattr(solver, "mpnn_forward", counted)
    graph = gen_gnp(60, 0.1, np.random.default_rng(5))
    result = solve_local_partition(graph, 0, path_config("mpnn"))
    assert seeds == [0] and result.seeds_tried == 8
    assert payload_sha256(result) == PARTITION_PATH_GOLDEN["mpnn"]


def sparse_golden_graph(kind: str) -> Graph:
    """A sparse planted 9-clique on 1500 nodes; "weighted" redraws every weight in (0.05, 0.95)."""
    rng = np.random.default_rng(31 + (kind == "weighted"))
    graph, _ = sparse_planted_clique(rng, 1500, 9, 7)
    if kind == "weighted":
        graph = Graph(graph.n, graph.edge_u, graph.edge_v, rng.uniform(0.05, 0.95, graph.num_edges))
    return graph


@pytest.mark.parametrize("kind, decode", sorted(SPARSE_GOLDEN))
def test_sparse_clique_payload_is_golden(kind, decode):
    config = SolveConfig() if decode == "hybrid" else SolveConfig(decode=decode)
    assert payload_sha256(solve_max_clique(sparse_golden_graph(kind), config)) == SPARSE_GOLDEN[kind, decode]


def training_corpus() -> Corpus:
    """Five planted-clique graphs and one weighted G(n, p) with two isolated nodes."""
    rng = np.random.default_rng(21)
    graphs = [gen_planted_clique(int(rng.integers(10, 24)), 5, 0.25, rng)[0] for _ in range(5)]
    gnp = gen_gnp(14, 0.2, rng)
    graphs.append(Graph(gnp.n + 2, gnp.edge_u, gnp.edge_v, rng.uniform(0.1, 1.0, gnp.num_edges)))
    splits = ["train", "train", "val", "train", "train", "val"]
    return Corpus(graphs=graphs, names=[f"g{i}" for i in range(len(graphs))], splits=splits)


def train_sha256(result) -> str:
    digest = hashlib.sha256()
    for key in sorted(result.params.weights):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(result.params.weights[key]).tobytes())
    digest.update(json.dumps(result.history, sort_keys=True).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("objective", sorted(TRAIN_GOLDEN))
def test_train_mpnn_is_golden(objective):
    spec = CliqueLossSpec(beta=2.0) if objective == "clique" else CutLossSpec()
    result = train_mpnn(
        training_corpus(), spec, 6, hidden=6, layers=3, batch_size=2, lr=0.02, rng=np.random.default_rng(3)
    )
    assert len(result.history["val"]) == 6
    assert train_sha256(result) == TRAIN_GOLDEN[objective]

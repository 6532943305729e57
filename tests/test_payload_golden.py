"""Golden result payloads: refactors of the solve path must keep them byte-identical.

Each hash is the sha256 of ``json.dumps(result.payload(), sort_keys=True)``
for a seeded instance under the default ``SolveConfig``.  They were recorded
before the optimizer step was fused and must not move under behaviour-
preserving changes.  An intended payload change re-records them and says why
in CHANGES.md.  The payloads carry float losses, so a numpy build whose
elementwise ``exp`` rounds differently in the last bit can also move them.
"""

import hashlib
import json

import numpy as np
import pytest

from cliquecut import gen_gnp, gen_planted_clique, solve_local_partition, solve_max_clique

CLIQUE_GOLDEN = {
    1: "8a3c4730128639cb598afccb5a5c8e1e6fc74ce653fb4451f56a23e0ac97d9b6",
    2: "a842a042d65e70f0e981882a85a9efb5b0baa9d6a988ca9c7db1fea23a16332d",
    3: "47e9624443f07bbc55eb43fca6d3e7b744271f3fd6146d16afaa911ea5c8897d",
}
PARTITION_GOLDEN = "8e6b6810d5418ff27221f59a4e0c05c8bb52b8059c11995d7a04e80c92962348"


def payload_sha256(result) -> str:
    return hashlib.sha256(json.dumps(result.payload(), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(CLIQUE_GOLDEN))
def test_clique_payload_is_golden(seed):
    graph, _ = gen_planted_clique(40, 8, 0.3, np.random.default_rng(seed))
    assert payload_sha256(solve_max_clique(graph)) == CLIQUE_GOLDEN[seed]


def test_partition_payload_is_golden():
    graph = gen_gnp(60, 0.1, np.random.default_rng(5))
    assert payload_sha256(solve_local_partition(graph, 0)) == PARTITION_GOLDEN

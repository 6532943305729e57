"""Seeded input generators owned by the benchmark.

They share no code with ``cliquecut.datasets``: a change to the program's
generators must not change the benchmark's inputs, and the program's
``gen_gnp`` enumerates all n(n-1)/2 pairs, which does not scale to the
sparse workloads.  Every generator returns plain edge arrays (u < v, sorted,
unit weights) so the checker can rebuild adjacency without the program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Instance:
    """A generated graph as edge arrays."""

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray


def _distinct_pairs(n: int, count: int, rng: np.random.Generator, block=None) -> np.ndarray:
    """``count`` distinct uniform pair ids lo*n+hi, in O(count) expected work.

    Draws random endpoint pairs, keeps the first occurrence of each, and tops
    up until enough are collected.  With ``block`` given, only pairs whose
    endpoints carry different labels are accepted.
    """
    ids = np.empty(0, dtype=np.int64)
    while ids.size < count:
        draw = 2 * (count - ids.size) + 16
        a = rng.integers(0, n, size=draw)
        b = rng.integers(0, n, size=draw)
        ok = a != b if block is None else block[a] != block[b]
        lo = np.minimum(a[ok], b[ok])
        hi = np.maximum(a[ok], b[ok])
        ids = np.concatenate([ids, lo * n + hi])
        _, first = np.unique(ids, return_index=True)
        ids = ids[np.sort(first)]
    return ids[:count]


def _instance(n: int, ids: np.ndarray) -> Instance:
    ids = np.unique(ids)
    return Instance(n=n, u=ids // n, v=ids % n, w=np.ones(ids.size))


def gnp_ids(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Pair ids of an Erdos-Renyi G(n, p): Binomial edge count, uniform pairs."""
    pairs = n * (n - 1) // 2
    return _distinct_pairs(n, int(rng.binomial(pairs, p)), rng)


def planted_clique(n: int, k: int, p: float, rng: np.random.Generator) -> Instance:
    """G(n, p) with a clique forced on k uniformly chosen nodes."""
    base = gnp_ids(n, p, rng)
    nodes = np.sort(rng.choice(n, size=k, replace=False))
    a, b = np.triu_indices(k, k=1)
    return _instance(n, np.concatenate([base, nodes[a] * n + nodes[b]]))


def block_model(blocks: int, size: int, p_in: float, mean_out: float, rng: np.random.Generator) -> Instance:
    """Stochastic block model with equal blocks and shuffled node labels.

    Each block is a G(size, p_in); each node has on average ``mean_out``
    edges to other blocks.
    """
    n = blocks * size
    perm = rng.permutation(n)  # perm[j] is the label of the j-th node in block order
    parts = []
    for b in range(blocks):
        local = gnp_ids(size, p_in, rng)
        lu, lv = local // size + b * size, local % size + b * size
        parts.append(perm[lu] * n + perm[lv])
    label = np.empty(n, dtype=np.int64)
    label[perm] = np.repeat(np.arange(blocks), size)
    cross = int(rng.binomial(n * (n - size) // 2, mean_out / (n - size)))
    cross_ids = _distinct_pairs(n, cross, rng, block=label)
    ids = np.concatenate(parts + [cross_ids])
    lo = np.minimum(ids // n, ids % n)
    hi = np.maximum(ids // n, ids % n)
    return _instance(n, lo * n + hi)


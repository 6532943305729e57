"""Instance generation and corpus management.

Generators are deterministic given a numpy Generator.  A corpus is a list of
graphs with names, train/val/test splits, and optional per-graph metadata
(e.g. the planted clique), serialized as edge-list files plus a JSON
manifest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .graphs import Graph, NodeSet, check_node_count, graph_digest, load_edge_list_file, to_edge_list_text

__all__ = [
    "Corpus",
    "gen_gnp",
    "gen_planted_clique",
    "split_corpus",
    "save_corpus",
    "load_corpus",
]

MANIFEST_VERSION = 1
SPLITS = ("train", "val", "test")


@dataclass
class Corpus:
    """Graphs plus names, split labels, and JSON-safe per-graph metadata."""

    graphs: list[Graph]
    names: list[str]
    splits: list[str] = field(default_factory=list)
    meta: list[dict] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.splits:
            self.splits = [""] * len(self.graphs)
        if not self.meta:
            self.meta = [{} for _ in self.graphs]
        if not (len(self.graphs) == len(self.names) == len(self.splits) == len(self.meta)):
            raise ValueError("corpus fields must have equal length")

    def __len__(self) -> int:
        return len(self.graphs)

    def subset(self, split: str) -> list[int]:
        return [i for i, s in enumerate(self.splits) if s == split]


def _gnp_pairs(n: int, p_edge: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The pairs u < v of a G(n, p) draw, sorted by (u, v); raises as ``gen_gnp``."""
    check_node_count(n)
    if not (0.0 <= p_edge <= 1.0):
        raise ValueError("edge probability must lie in [0, 1]")
    iu, iv = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p_edge
    return iu[keep], iv[keep]


def gen_gnp(n: int, p_edge: float, rng: np.random.Generator) -> Graph:
    """Erdos-Renyi G(n, p) with unit weights.

    Raises:
        ValueError: on n outside [0, ``graphs.MAX_NODES``], checked before
            the O(n**2) pair table is built, or p outside [0, 1].
    """
    u, v = _gnp_pairs(n, p_edge, rng)
    return Graph(n, u, v, np.ones(u.size))


def gen_planted_clique(
    n: int, k: int, p_background: float, rng: np.random.Generator
) -> tuple[Graph, NodeSet]:
    """G(n, p) with a clique forced on k random nodes; returns (graph, planted set).

    Raises:
        ValueError: as ``gen_gnp``, or unless 0 <= k <= n.
    """
    if not (0 <= k <= n):
        raise ValueError("need 0 <= k <= n")
    bu, bv = _gnp_pairs(n, p_background, rng)
    planted = np.sort(rng.choice(n, size=k, replace=False))
    pu, pv = np.triu_indices(k, k=1)
    all_ids = np.union1d(bu * n + bv, planted[pu] * n + planted[pv])
    u, v = all_ids // n, all_ids % n
    graph = Graph(n, u, v, np.ones(u.size))
    return graph, NodeSet.from_indices(graph, planted)


def split_corpus(corpus: Corpus, fractions=(0.6, 0.2, 0.2), rng: np.random.Generator | None = None) -> Corpus:
    """Assign train/val/test labels by shuffled largest-remainder allocation.

    Counts match the fractions to within rounding and the assignment is
    deterministic for a given generator.
    """
    frac = np.asarray(fractions, dtype=np.float64)
    if frac.size != 3 or not np.all(np.isfinite(frac)) or np.any(frac < 0.0) or abs(frac.sum() - 1.0) > 1e-9:
        raise ValueError("fractions must be three finite non-negative numbers summing to 1")
    rng = rng if rng is not None else np.random.default_rng(0)
    total = len(corpus)
    exact = frac * total
    counts = np.floor(exact).astype(int)
    remainder_order = np.argsort(-(exact - counts), kind="stable")
    for i in range(total - counts.sum()):
        counts[remainder_order[i % 3]] += 1
    perm = rng.permutation(total)
    splits = [""] * total
    pos = 0
    for label, count in zip(SPLITS, counts):
        for idx in perm[pos : pos + count]:
            splits[idx] = label
        pos += count
    return Corpus(graphs=corpus.graphs, names=corpus.names, splits=splits, meta=corpus.meta)


def save_corpus(corpus: Corpus, out_dir) -> Path:
    """Write one edge-list file per graph plus manifest.json; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for graph, name, split, meta in zip(corpus.graphs, corpus.names, corpus.splits, corpus.meta):
        rel = f"{name}.edges"
        # The digest hashes the bytes written, which are the canonical text graph_digest hashes.
        data = to_edge_list_text(graph).encode()
        (out / rel).write_bytes(data)
        entries.append(
            {
                "name": name,
                "path": rel,
                "split": split,
                "nodes": graph.n,
                "edges": graph.num_edges,
                "digest": hashlib.sha256(data).hexdigest(),
                "meta": meta,
            }
        )
    manifest = {"format_version": MANIFEST_VERSION, "graphs": entries}
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


def load_corpus(manifest_path) -> Corpus:
    """Read a manifest and its graphs; verifies digests.

    Raises:
        ValueError: on an unsupported version, a manifest that is not a JSON
            object with a ``graphs`` list of entry objects, an entry field of
            the wrong type, an entry path that is absolute or holds ``..``,
            or a digest mismatch.
    """
    path = Path(manifest_path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"corpus manifest must be a JSON object, not {type(doc).__name__}")
    if doc.get("format_version") != MANIFEST_VERSION:
        raise ValueError(f"unsupported manifest version {doc.get('format_version')}")
    if not isinstance(doc.get("graphs"), list):
        raise ValueError(f"corpus manifest field 'graphs' must be a list, got {doc.get('graphs')!r}")
    graphs: list[Graph] = []
    names: list[str] = []
    splits: list[str] = []
    meta: list[dict] = []
    for entry in doc["graphs"]:
        _check_entry(entry)
        graph = load_edge_list_file(path.parent / entry["path"])
        if "digest" in entry and graph_digest(graph) != entry["digest"]:
            raise ValueError(f"digest mismatch for {entry['name']}: file changed since manifest")
        graphs.append(graph)
        names.append(entry["name"])
        splits.append(entry.get("split", ""))
        meta.append(entry.get("meta", {}))
    return Corpus(graphs=graphs, names=names, splits=splits, meta=meta)


def _check_entry(entry) -> None:
    """An entry is an object with string ``name`` and ``path``, optional string ``split`` and object ``meta``.

    ``path`` must be relative and hold no ``..`` component.
    """
    if not isinstance(entry, dict):
        raise ValueError(f"corpus manifest entry must be a JSON object, got {entry!r}")
    for key, kind, default in (("name", str, None), ("path", str, None), ("split", str, ""), ("meta", dict, {})):
        if not isinstance(entry.get(key, default), kind):
            raise ValueError(f"corpus manifest entry field {key!r} must be a {kind.__name__}, got {entry.get(key)!r}")
    # The path is read relative to the manifest; it must not reach outside its directory.
    rel = Path(entry["path"])
    if rel.is_absolute() or ".." in rel.parts:
        raise ValueError(f"corpus manifest entry field 'path' must be relative and free of '..', got {entry['path']!r}")

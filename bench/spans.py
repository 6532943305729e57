"""Layer spans recorded from outside the program.

Each layer's public functions are swapped, in the namespace of the module
that calls them, for a wrapper that records (span id, parent id, operation,
name, start, end) in memory.  Spans nest through a stack, so a span's self
time is its duration minus the time its child spans cover.  The harness
installs the wrappers only for traced rounds; untraced rounds run the
program's own functions.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# (module, attribute, span name, counter hook).  A function is listed once per
# module that calls it, because each caller looks it up in its own namespace.
SPANS = [
    ("cli", "main", "cli.main", None),
    ("cli", "solve_max_clique", "solver.solve", None),
    ("cli", "solve_local_partition", "solver.solve", None),
    ("solver", "solve_max_clique", "solver.solve", None),
    ("solver", "solve_local_partition", "solver.solve", None),
    ("cli", "load_edge_list_file", "graphs.load", None),
    ("cli", "load_dimacs_file", "graphs.load", None),
    ("datasets", "load_edge_list_file", "graphs.load", None),
    ("cli", "graph_digest", "graphs.digest", None),
    ("datasets", "graph_digest", "graphs.digest", None),
    # Looked up where the program's own file writer, save_corpus, finds it.
    ("datasets", "to_edge_list_text", "graphs.serialize", None),
    ("solver", "hop_distances", "graphs.bfs", None),
    ("models", "hop_distances", "graphs.bfs", None),
    ("solver", "set_weight", "graphs.setops", None),
    ("solver", "is_clique", "graphs.setops", "nonclique"),
    ("solver", "cut_weight", "graphs.setops", None),
    ("solver", "conductance", "graphs.setops", None),
    ("solver", "volume", "graphs.setops", None),
    ("cli", "set_weight", "graphs.setops", None),
    ("cli", "is_clique", "graphs.setops", None),
    ("cli", "cut_weight", "graphs.setops", None),
    ("cli", "volume", "graphs.setops", None),
    ("certificates", "set_weight", "graphs.setops", None),
    ("certificates", "is_clique", "graphs.setops", None),
    ("certificates", "cut_weight", "graphs.setops", None),
    ("certificates", "volume", "graphs.setops", None),
    ("datasets", "save_corpus", "datasets.corpus_io", None),
    ("datasets", "load_corpus", "datasets.corpus_io", None),
    ("cli", "save_corpus", "datasets.corpus_io", None),
    ("cli", "load_corpus", "datasets.corpus_io", None),
    ("models", "clique_loss", "distributions.loss", None),
    ("models", "cut_loss", "distributions.loss", None),
    ("solver", "clique_loss", "distributions.loss", None),
    ("solver", "expected_cut", "distributions.loss", None),
    ("solver", "expected_volume", "distributions.loss", None),
    ("models", "rescale_to_target", "distributions.rescale", None),
    ("solver", "rescale_to_target", "distributions.rescale", None),
    ("solver", "optimize_direct", "models.direct", "steps"),
    ("solver", "mpnn_forward", "models.mpnn_forward", None),
    ("models", "mpnn_forward", "models.mpnn_forward", None),
    ("models", "mpnn_backward", "models.mpnn_backward", None),
    ("cli", "train_mpnn", "models.train", None),
    ("cli", "save_checkpoint", "models.checkpoint", None),
    ("cli", "load_checkpoint", "models.checkpoint", None),
    ("solver", "decode_conditional", "decoding.conditional", "visited"),
    ("solver", "decode_cut_with_volume", "decoding.cut_volume", "visited"),
    ("solver", "decode_clique_sweep", "decoding.sweep", None),
    ("solver", "grow_to_maximal", "decoding.grow", None),
    ("solver", "penalty_certificate", "certificates.certify", None),
    ("solver", "box_certificate", "certificates.certify", None),
    ("cli", "verify_solution", "certificates.verify", None),
]

# Span names whose self time is reported, with their metric names.
LAYER_TIMES = {
    "graphs.load": "graphs.load_s",
    "graphs.digest": "graphs.digest_s",
    "graphs.bfs": "graphs.bfs_s",
    "graphs.setops": "graphs.setops_s",
    "graphs.construct": "graphs.construct_s",
    "graphs.serialize": "graphs.serialize_s",
    "datasets.corpus_io": "datasets.corpus_io_s",
    "distributions.loss": "distributions.loss_s",
    "distributions.rescale": "distributions.rescale_s",
    "models.direct": "models.direct_s",
    "models.mpnn_forward": "models.mpnn_forward_s",
    "models.mpnn_backward": "models.mpnn_backward_s",
    "models.train": "models.train_s",
    "models.checkpoint": "models.checkpoint_s",
    "decoding.conditional": "decoding.conditional_s",
    "decoding.cut_volume": "decoding.cut_volume_s",
    "decoding.sweep": "decoding.sweep_s",
    "decoding.grow": "decoding.grow_s",
    "certificates.certify": "certificates.certify_s",
    "certificates.verify": "certificates.verify_s",
    "solver.solve": "solver.self_s",
    "cli.main": "cli.self_s",
    "bench": "bench.self_s",
}


def _hook(kind, args, kwargs, out, counts: Counter) -> None:
    if kind == "steps":
        counts["direct_steps"] += int(args[2] if len(args) > 2 else kwargs.get("steps", 300))
    elif kind == "visited":
        counts["nodes_visited"] += int(args[0].n)
    elif kind == "nonclique":
        counts["nonclique_dropped"] += out is False


class Tracer:
    """In-memory span recorder that patches the program's modules on demand."""

    def __init__(self, program: dict) -> None:
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._patches = []
        for module, attr, name, hook in SPANS:
            mod = program[module]
            self._patches.append((mod, attr, getattr(mod, attr), self.wrap(name, getattr(mod, attr), hook)))
        graph_cls = program["graphs"].Graph
        self._patches.append((graph_cls, "__init__", graph_cls.__init__, self.wrap("graphs.construct", graph_cls.__init__)))

    def wrap(self, name: str, fn, hook=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans) + len(stack) + 1
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.op, name, start, end))
            if hook is not None:
                _hook(hook, args, kwargs, out, counts)
            return out

        return traced

    def install(self) -> None:
        for obj, attr, _, traced in self._patches:
            setattr(obj, attr, traced)

    def remove(self) -> None:
        for obj, attr, original, _ in self._patches:
            setattr(obj, attr, original)

    def self_times(self, spans) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Per span name: seconds of self time, seconds in total, and number of spans."""
        child = defaultdict(int)
        for _, parent, _, _, start, end in spans:
            child[parent] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        calls: Counter = Counter()
        for sid, _, _, name, start, end in spans:
            self_ns[name] += end - start - child[sid]
            total_ns[name] += end - start
            calls[name] += 1
        return {k: v / 1e9 for k, v in self_ns.items()}, {k: v / 1e9 for k, v in total_ns.items()}, calls

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                fh.write("\t".join(str(x) for x in span) + "\n")

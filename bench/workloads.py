"""The four workloads.

Each workload generates its inputs from the seed with the benchmark's own
generators (``prepare``, untimed, together with the checker's references),
lets the program take them in (``setup``, timed as ``setup_s`` and repeated
``setups_per_round`` times after every round), and lists the operations of
one round (``ops``).  A run repeats whole rounds, so every
run attempts the same operations in the same proportions.  Input sizes are
fixed per workload; the seed changes the edges, planted sets and seed nodes.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import check
import gen

SOLVE, VERIFY, TRAIN, REJECT = "solve", "verify", "train", "reject"


@dataclass
class Op:
    """One operation of a round: what kind it is, how to run it, how to check it."""

    kind: str
    run: Callable[[], tuple[float, object]]  # -> (seconds in the program, comparable output)
    check: Callable[[object], tuple[list[str], dict]]  # output -> (errors, quality figures)


@dataclass
class Workload:
    seed: int
    workdir: Path
    program: dict

    setups_per_round = 1

    def rng(self, *slot) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.tag, *slot])

    def cli(self, argv: list[str]) -> tuple[float, int, str, str]:
        """Run ``cliquecut <argv>`` in-process; returns (seconds, exit code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.program["cli"].main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            seconds = time.perf_counter() - start
        return seconds, rc, out.getvalue(), err.getvalue()

    def cli_solve(self, argv: list[str], result: Path) -> tuple[float, dict]:
        """``cliquecut solve ... --out result``; returns (seconds, result payload)."""
        seconds, rc, _, err = self.cli(["solve", *argv, "--out", str(result)])
        if rc != 0:
            raise RuntimeError(f"solve exited {rc}: {err.strip()}")
        return seconds, json.loads(result.read_text(encoding="utf-8"))["payload"]


def _nonvacuous(payload) -> float:
    """1 if the certificate the solve hands back is not vacuous."""
    return float(not payload["certificate"]["vacuous"])


def _clique_check(ref: check.Reference):
    def run(payload):
        errors, weight = check.check_clique(ref, payload)
        optimal = float(weight == ref.optimum_clique_weight())
        return errors, {"clique_weight": weight, "optimal": optimal, "nonvacuous": _nonvacuous(payload)}

    return run


class CliqueDense(Workload):
    """Small dense planted-clique graphs solved in-process with the default config."""

    tag = 1
    setups_per_round = 20
    count = 24

    def prepare(self) -> None:
        self.instances = []
        for i in range(self.count):
            n = 40 + (60 * i) // (self.count - 1)
            p = 0.3 + 0.2 * ((7 * i) % self.count) / (self.count - 1)
            self.instances.append(gen.planted_clique(n, 12, p, self.rng(i)))
        self.refs = [check.Reference(inst) for inst in self.instances]
        for ref in self.refs:
            ref.optimum_clique_weight()

    def setup(self) -> None:
        graph_cls = self.program["graphs"].Graph
        self.graphs = [graph_cls(inst.n, inst.u, inst.v, inst.w) for inst in self.instances]

    def ops(self) -> list[Op]:
        solver = self.program["solver"]

        def solve(g):
            start = time.perf_counter()
            result = solver.solve_max_clique(g)
            return time.perf_counter() - start, result.payload()

        return [Op(SOLVE, lambda g=g: solve(g), _clique_check(ref)) for g, ref in zip(self.graphs, self.refs)]


NAN_EDGES = "# nodes 4\n0 1 nan\n0 2 1\n1 2 1\n2 3 1\n"


class CliqueSparseCli(Workload):
    """Large sparse planted-clique graphs through ``cliquecut solve`` and ``verify``."""

    tag = 2
    setups_per_round = 3
    count, n = 3, 4000  # equal sizes keep the median solve a like-for-like sample

    def prepare(self) -> None:
        self.instances = [gen.planted_clique(self.n, 10, 8.0 / (self.n - 1), self.rng(i)) for i in range(self.count)]
        self.refs = [check.Reference(inst) for inst in self.instances]
        for ref in self.refs:
            ref.optimum_clique_weight()
        self.nan_path = self.workdir / "nan.edges"
        self.nan_path.write_text(NAN_EDGES, encoding="utf-8")

    def setup(self) -> None:
        graph_cls = self.program["graphs"].Graph
        # The serializer as save_corpus finds it, so traces attribute it the same way.
        serialize = self.program["datasets"].to_edge_list_text
        self.paths = []
        for i, inst in enumerate(self.instances):
            path = self.workdir / f"sparse-{i}.edges"
            path.write_text(serialize(graph_cls(inst.n, inst.u, inst.v, inst.w)), encoding="utf-8")
            self.paths.append(path)

    def ops(self) -> list[Op]:
        ops = []
        for path, ref in zip(self.paths, self.refs):
            result = path.with_suffix(".json")
            found = {}

            def solve(path=path, result=result):
                return self.cli_solve(["--graph", str(path)], result)

            def check_solve(payload, ref=ref, found=found):
                errors, quality = _clique_check(ref)(payload)
                found["weight"] = quality["clique_weight"]
                return errors, quality

            def verify(path=path, result=result):
                seconds, rc, out, _ = self.cli(["verify", "--result", str(result), "--graph", str(path)])
                # only the payload: the timing section differs from run to run
                return seconds, {"rc": rc, "payload": json.loads(out)["payload"] if out else None}

            def check_verify(output, found=found):
                if "weight" not in found:
                    return ["no checked solve result to verify against"], {}
                return check.check_verify(output["rc"], output["payload"], found["weight"]), {}

            ops.append(Op(SOLVE, solve, check_solve))
            ops.append(Op(VERIFY, verify, check_verify))
        ops.append(Op(REJECT, self.solve_nan, check_rejected))
        return ops

    def solve_nan(self):
        out = self.workdir / "nan.json"
        seconds, rc, _, err = self.cli(["solve", "--graph", str(self.nan_path), "--out", str(out)])
        return seconds, {"rc": rc, "stderr": err.strip().splitlines()[:1]}


def check_rejected(output) -> tuple[list[str], dict]:
    """Malformed input must end in exit code 1 with an ``error:`` line."""
    if output["rc"] == 1 and output["stderr"] and output["stderr"][0].startswith("error:"):
        return [], {}
    return [f"malformed input was not rejected (exit {output['rc']})"], {}


class PartitionLocal(Workload):
    """Stochastic-block-model graphs partitioned around several seed nodes."""

    tag = 3
    setups_per_round = 10
    count, blocks, seeds_per_graph = 2, 60, 2  # blocks of 50 nodes: n = 3000

    def prepare(self) -> None:
        self.instances, self.refs, self.seed_nodes = [], [], []
        for i in range(self.count):
            rng = self.rng(i)
            inst = gen.block_model(self.blocks, 50, 0.2, 4.0, rng)
            ref = check.Reference(inst)
            eligible = np.flatnonzero(ref.degree > 0)
            self.instances.append(inst)
            self.refs.append(ref)
            self.seed_nodes.append([int(x) for x in rng.choice(eligible, self.seeds_per_graph, replace=False)])

    def setup(self) -> None:
        graph_cls = self.program["graphs"].Graph
        self.graphs = [graph_cls(inst.n, inst.u, inst.v, inst.w) for inst in self.instances]

    def ops(self) -> list[Op]:
        solver = self.program["solver"]
        ops = []
        for g, ref, nodes in zip(self.graphs, self.refs, self.seed_nodes):
            for s in nodes:

                def solve(g=g, s=s):
                    start = time.perf_counter()
                    result = solver.solve_local_partition(g, s)
                    return time.perf_counter() - start, result.payload()

                def check_part(payload, ref=ref, s=s):
                    errors, phi = check.check_partition(ref, payload, s)
                    return errors, {"conductance": phi, "nonvacuous": _nonvacuous(payload)}

                ops.append(Op(SOLVE, solve, check_part))
        return ops


class MpnnTrain(Workload):
    """``cliquecut train`` on a saved corpus, then ``solve --producer mpnn`` on its test split."""

    tag = 4
    setups_per_round = 1
    count = 30
    epochs = 20

    def prepare(self) -> None:
        self.instances = []
        for i in range(self.count):
            n = 30 + (50 * i) // (self.count - 1)
            self.instances.append(gen.planted_clique(n, 8, 0.25, self.rng(i)))
        # slots 0-2 of every five train, 3 validates, 4 tests: 18 / 6 / 6
        self.splits = [("train", "train", "train", "val", "test")[i % 5] for i in range(self.count)]
        self.names = [f"g{i:03d}" for i in range(self.count)]
        self.test = [i for i, s in enumerate(self.splits) if s == "test"]
        self.refs = {i: check.Reference(self.instances[i]) for i in self.test}
        for ref in self.refs.values():
            ref.optimum_clique_weight()
        self.corpus_dir = self.workdir / "corpus"
        self.checkpoint = self.workdir / "producer.npz"

    def setup(self) -> None:
        graph_cls = self.program["graphs"].Graph
        datasets = self.program["datasets"]
        graphs = [graph_cls(inst.n, inst.u, inst.v, inst.w) for inst in self.instances]
        datasets.save_corpus(datasets.Corpus(graphs, list(self.names), list(self.splits)), self.corpus_dir)

    def ops(self) -> list[Op]:
        def train():
            argv = ["train", "--corpus", str(self.corpus_dir), "--epochs", str(self.epochs), "--out", str(self.checkpoint)]
            seconds, rc, out, err = self.cli(argv)
            if rc != 0:
                raise RuntimeError(f"train exited {rc}: {err.strip()}")
            payload = json.loads(out)["payload"]
            # The path names the per-run work directory; keep payloads comparable across runs.
            payload["checkpoint"] = Path(payload["checkpoint"]).name
            return seconds, payload

        def check_train(payload):
            epochs = payload["epochs"]
            if epochs != self.epochs or len(payload["history"]["train"]) != epochs:
                return [f"trained {epochs} epochs, asked for {self.epochs}"], {}
            return [], {}

        ops = [Op(TRAIN, train, check_train)]
        for i in self.test:
            path = self.corpus_dir / f"{self.names[i]}.edges"
            result = self.workdir / f"{self.names[i]}.json"

            def solve(path=path, result=result):
                return self.cli_solve(["--graph", str(path), "--producer", "mpnn", "--checkpoint", str(self.checkpoint)], result)

            ops.append(Op(SOLVE, solve, _clique_check(self.refs[i])))
        return ops


WORKLOADS = {
    "clique-dense": CliqueDense,
    "clique-sparse-cli": CliqueSparseCli,
    "partition-local": PartitionLocal,
    "mpnn-train": MpnnTrain,
}

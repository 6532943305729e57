"""Command line entry point.

Subcommands: ``generate`` (random corpora with a manifest), ``solve`` (one
instance end to end), ``train`` (fit the message-passing producer on a
corpus), ``benchmark`` (solve a corpus split and emit CSV), and ``verify``
(recheck a saved result against its graph).

Exit codes: 0 success, 1 usage or input error, 2 verification failure.
JSON output is sorted and split into ``config`` / ``payload`` / ``timing``
sections so payloads can be compared byte for byte across runs; CSV rows
keep the timing column last for the same reason.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from .certificates import Certificate, CliqueObjective, CutVolumeObjective, _json_number, verify_solution
from .datasets import Corpus, gen_gnp, gen_planted_clique, load_corpus, save_corpus, split_corpus
from .distributions import VolumeConstraint
from .graphs import (
    Graph,
    as_mask,
    brute_force_max_clique,
    cut_weight,
    graph_digest,
    is_clique,
    load_dimacs_file,
    load_edge_list_file,
    set_weight,
    volume,
)
from .models import CliqueLossSpec, CutLossSpec, load_checkpoint, save_checkpoint, train_mpnn
from .solver import (
    SolveConfig,
    greedy_mis_complement,
    solve_local_partition,
    solve_max_clique,
    uniform_random_baseline,
)

__all__ = ["main", "build_parser"]

_REL_TOL = 1e-9


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_config_value(raw: str):
    raw = raw.strip()
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _read_config_file(path: str) -> dict:
    """Flat ``key = value`` file; values are JSON scalars or bare strings."""
    overrides: dict = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        overrides[key.strip().replace("-", "_")] = _parse_config_value(value)
    return overrides


def _config_args(sub: argparse.ArgumentParser, overrides: dict) -> list[str]:
    """A config file's settings as ``sub``'s command-line arguments.

    argparse then converts and checks them as it does typed flags (it
    converts only string defaults): ``restarts = 2.5`` fails as
    ``--restarts 2.5`` does.  A flag takes a JSON boolean, another option a
    JSON scalar or a bare string; ``null`` keeps a default of None.
    """
    actions = {action.dest: action for action in sub._actions if action.dest not in ("help", "config")}
    args = []
    for key, value in overrides.items():
        if key not in actions:
            sub.error(f"unknown config key {key!r}")
        action, flag = actions[key], actions[key].nargs == 0
        if isinstance(value, (list, dict)) or (flag and not isinstance(value, bool)):
            sub.error(f"config key {key!r} takes {'true or false' if flag else 'a JSON scalar'}, got {value!r}")
        if flag:
            args += action.option_strings if value else []
        elif value is not None or action.default is not None:
            args.append(f"{action.option_strings[0]}={value}")
    return args


def _emit(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_graph(path: str, fmt: str) -> Graph:
    if fmt == "auto":
        fmt = "dimacs" if Path(path).suffix in {".col", ".clq", ".dimacs"} else "edges"
    if fmt == "dimacs":
        return load_dimacs_file(path)
    if fmt == "edges":
        return load_edge_list_file(path)
    raise ValueError(f"unknown graph format {fmt!r}")


def _load_corpus_arg(path: str) -> Corpus:
    p = Path(path)
    if p.is_dir():
        p = p / "manifest.json"
    return load_corpus(p)


def _parse_intervals(text: str) -> tuple[tuple[float, float], ...]:
    """``lo:hi,lo:hi`` -> interval tuples."""
    out = []
    for part in text.split(","):
        lo, sep, hi = part.partition(":")
        if not sep:
            raise ValueError(f"bad interval {part!r}, expected lo:hi")
        out.append((float(lo), float(hi)))
    return tuple(out)


def _parse_fractions(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _add_solver_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--producer", choices=["direct", "mpnn", "uniform"], default=SolveConfig.producer)
    sub.add_argument(
        "--decode",
        default=None,
        help="hybrid|conditional|sweep for cliques (default hybrid); partitions have one decode, conditional",
    )
    sub.add_argument(
        "--restarts",
        type=int,
        default=SolveConfig.restarts,
        help="restarts over the whole graph; on a sparse clique instance, the number of seed balls instead",
    )
    sub.add_argument(
        "--steps",
        type=int,
        default=SolveConfig.steps,
        help="most Adam steps of the direct producer per restart, seed ball or interval; a partition interval stops early once its loss is flat",
    )
    sub.add_argument("--lr", type=float, default=SolveConfig.lr)
    sub.add_argument("--opt-beta", type=float, default=SolveConfig.opt_beta, help="penalty weight used during optimization")
    sub.add_argument("--init-jitter", type=float, default=SolveConfig.init_jitter, help="logit noise spread for restarts after the first")
    sub.add_argument("--gamma", type=float, default=None, help="certified offset; below the total edge weight the clique certificate is vacuous (default: total edge weight)")
    sub.add_argument("--beta", type=float, default=None, help="certified penalty weight, at least gamma (default: total edge weight)")
    sub.add_argument("--t", type=float, default=SolveConfig.t, help="Markov split point for certificates")
    sub.add_argument("--seed", type=int, default=SolveConfig.seed)
    sub.add_argument("--threads", type=int, default=SolveConfig.threads)
    sub.add_argument("--time-budget", type=float, default=None, help="seconds; forces serial execution, may stop early")
    sub.add_argument("--checkpoint", default=None, help="trained producer weights (.json or .npz)")
    sub.add_argument("--intervals", default=None, help="explicit volume intervals, lo:hi,lo:hi")
    sub.add_argument("--num-intervals", type=int, default=SolveConfig.num_intervals)
    sub.add_argument("--ball-hops", type=int, default=SolveConfig.ball_hops)


def _solve_config(args) -> SolveConfig:
    """The solver options by ``SolveConfig`` field name; ``mpnn`` and ``intervals`` are parsed."""
    named = {f.name: getattr(args, f.name) for f in fields(SolveConfig) if f.name not in ("mpnn", "intervals")}
    return SolveConfig(
        **named,
        mpnn=load_checkpoint(args.checkpoint, optimizer=False)[0] if args.checkpoint else None,
        intervals=_parse_intervals(args.intervals) if args.intervals else None,
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    t0 = time.perf_counter()
    rng = np.random.default_rng(args.seed)
    graphs, names, meta = [], [], []
    for i in range(args.count):
        if args.kind == "gnp":
            graphs.append(gen_gnp(args.nodes, args.prob, rng))
            meta.append({})
        else:
            g, planted = gen_planted_clique(args.nodes, args.clique_size, args.prob, rng)
            graphs.append(g)
            meta.append({"planted": [int(x) for x in planted.indices()], "clique_size": args.clique_size})
        names.append(f"{args.kind}-{i:03d}")
    corpus = Corpus(graphs=graphs, names=names, splits=[""] * len(graphs), meta=meta)
    if args.splits == "none":
        corpus = Corpus(graphs=graphs, names=names, splits=["train"] * len(graphs), meta=meta)
    else:
        corpus = split_corpus(corpus, fractions=_parse_fractions(args.splits), rng=np.random.default_rng(args.seed + 1))
    manifest = save_corpus(corpus, args.out)
    # The manifest already holds each graph's digest, hashed from the file written.
    entries = json.loads(manifest.read_text(encoding="utf-8"))["graphs"]
    payload = {
        "kind": args.kind,
        "count": len(graphs),
        "graphs": [{key: e[key] for key in ("name", "nodes", "edges", "split", "digest")} for e in entries],
    }
    doc = {
        "config": {
            "kind": args.kind,
            "count": args.count,
            "nodes": args.nodes,
            "prob": args.prob,
            "clique_size": args.clique_size,
            "seed": args.seed,
            "splits": args.splits,
            "out": str(manifest.parent),
        },
        "payload": payload,
        "timing": {"wall_time_s": time.perf_counter() - t0},
    }
    _emit(doc, None)
    return 0


def cmd_solve(args) -> int:
    graph = _load_graph(args.graph, args.format)
    config = _solve_config(args)
    if args.problem == "clique":
        result = solve_max_clique(graph, config)
    else:
        if args.seed_node is None:
            raise ValueError("partition solving needs --seed-node")
        result = solve_local_partition(graph, args.seed_node, config)
    doc = {
        "config": {
            "problem": args.problem,
            "graph": args.graph,
            "seed_node": args.seed_node,
            **config.describe(),
        },
        "payload": {"graph_digest": graph_digest(graph), **result.payload()},
        "timing": {"wall_time_s": result.wall_time},
    }
    _emit(doc, args.out)
    return 0


def cmd_train(args) -> int:
    t0 = time.perf_counter()
    corpus = _load_corpus_arg(args.corpus)
    if args.objective == "clique":
        loss_spec = CliqueLossSpec(beta=args.opt_beta)
    else:
        loss_spec = CutLossSpec(None)
    init = None
    optimizer_state = None
    if args.init:
        init, optimizer_state, _ = load_checkpoint(args.init)
    result = train_mpnn(
        corpus,
        loss_spec,
        args.epochs,
        hidden=args.hidden,
        layers=args.layers,
        batch_size=args.batch_size,
        lr=args.lr,
        rng=np.random.default_rng(args.seed),
        init=init,
        optimizer_state=optimizer_state,
    )
    save_checkpoint(
        args.out,
        result.params,
        optimizer=result.optimizer,
        meta={"objective": args.objective, "epochs": result.epochs_trained, "seed": args.seed},
    )
    payload = {
        "checkpoint": str(args.out),
        "objective": args.objective,
        "epochs": result.epochs_trained,
        "hidden": result.params.hidden,
        "layers": result.params.layers,
        "history": {k: [float(x) for x in v] for k, v in result.history.items()},
    }
    doc = {
        "config": {
            "corpus": args.corpus,
            "objective": args.objective,
            "epochs": args.epochs,
            "hidden": args.hidden,
            "layers": args.layers,
            "batch_size": args.batch_size,
            "lr": args.lr,
            "opt_beta": args.opt_beta,
            "seed": args.seed,
            "init": args.init,
        },
        "payload": payload,
        "timing": {"wall_time_s": time.perf_counter() - t0},
    }
    _emit(doc, None)
    return 0


def _benchmark_clique_row(args, name: str, graph: Graph, config: SolveConfig) -> list:
    t0 = time.perf_counter()
    result = solve_max_clique(graph, config)
    elapsed = time.perf_counter() - t0
    oracle = ""
    ratio = ""
    if not args.no_oracle and graph.n <= args.oracle_limit:
        best = brute_force_max_clique(graph, node_limit=args.oracle_limit)
        optimal = set_weight(graph, best.mask)
        oracle = repr(float(optimal))
        ratio = repr(float(result.objective / optimal)) if optimal > 0 else ""
    baseline = ""
    if args.compare == "greedy":
        baseline = repr(float(set_weight(graph, greedy_mis_complement(graph).mask)))
    elif args.compare == "uniform":
        baseline = repr(float(uniform_random_baseline(graph, config).objective))
    cert = result.certificate
    return [
        name,
        graph.n,
        graph.num_edges,
        repr(float(result.objective)),
        len(result.node_indices),
        oracle,
        ratio,
        baseline,
        repr(float(cert.bound)),
        cert.vacuous,
        repr(elapsed),
    ]


def _benchmark_partition_row(args, name: str, graph: Graph, config: SolveConfig) -> list:
    seed_node = int(np.argmax(graph.degree))
    t0 = time.perf_counter()
    result = solve_local_partition(graph, seed_node, config)
    elapsed = time.perf_counter() - t0
    cert = result.certificate
    return [
        name,
        graph.n,
        graph.num_edges,
        seed_node,
        repr(float(result.conductance)),
        repr(float(result.volume)),
        result.constraint_ok,
        repr(float(cert.bound)),
        cert.vacuous,
        repr(elapsed),
    ]


_CLIQUE_HEADER = [
    "name", "nodes", "edges", "weight", "size",
    "oracle", "ratio", "baseline", "cert_bound", "cert_vacuous", "time_s",
]
_PARTITION_HEADER = [
    "name", "nodes", "edges", "seed_node",
    "conductance", "volume", "lower_met", "cert_bound", "cert_vacuous", "time_s",
]


def cmd_benchmark(args) -> int:
    corpus = _load_corpus_arg(args.corpus)
    if args.split:
        indices = corpus.subset(args.split)
        if not indices:
            raise ValueError(f"corpus has no graphs in split {args.split!r}")
    else:
        indices = list(range(len(corpus)))
    config = _solve_config(args)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if args.problem == "clique":
        writer.writerow(_CLIQUE_HEADER)
        for i in indices:
            writer.writerow(_benchmark_clique_row(args, corpus.names[i], corpus.graphs[i], config))
    else:
        writer.writerow(_PARTITION_HEADER)
        for i in indices:
            writer.writerow(_benchmark_partition_row(args, corpus.names[i], corpus.graphs[i], config))
    text = buf.getvalue()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _recheck(graph: Graph, payload: dict, strict: bool) -> dict:
    """Recompute a result's objective, constraint and certificate on its graph.

    Raises:
        ValueError: naming the first payload field that is missing or of the wrong type.
    """
    indices = payload.get("node_indices")
    if not isinstance(indices, list) or not all(type(i) is int and 0 <= i < graph.n for i in indices):
        raise ValueError(f"result field 'node_indices': non-integer or node index out of range (n = {graph.n})")
    members = as_mask(graph.n, np.asarray(indices, dtype=np.int64))
    if payload.get("problem") == "clique":
        objective_value = set_weight(graph, members)
        constraint_now = is_clique(graph, members)
        problem = CliqueObjective(gamma=_json_number(payload.get("gamma"), "result field 'gamma'"))
    elif payload.get("problem") == "partition":
        objective_value = cut_weight(graph, members)
        bounds = payload.get("interval")
        if not (isinstance(bounds, list) and len(bounds) == 2):
            raise ValueError(f"result field 'interval' must be [lower, upper], got {bounds!r}")
        interval = VolumeConstraint(*(_json_number(b, "result field 'interval'") for b in bounds))
        constraint_now = interval.contains(volume(graph, members))
        problem = CutVolumeObjective(interval)
    else:
        raise ValueError(f"unknown problem {payload.get('problem')!r}")
    recorded = _json_number(payload.get("objective"), "result field 'objective'")
    objective_ok = abs(objective_value - recorded) <= _REL_TOL * max(1.0, abs(objective_value))
    if not isinstance(payload.get("constraint_ok"), bool):
        raise ValueError(f"result field 'constraint_ok' must be true or false, got {payload.get('constraint_ok')!r}")
    constraint_ok = constraint_now == payload["constraint_ok"]
    certificate = Certificate.from_json(payload.get("certificate"))
    if certificate.vacuous:
        certificate_ok = not strict
    else:
        certificate_ok = verify_solution(graph, members, certificate, problem, strict=strict)
    return {
        "verified": objective_ok and constraint_ok and certificate_ok,
        "digest_ok": True,
        "objective_ok": objective_ok,
        "objective_recomputed": float(objective_value),
        "constraint_ok": constraint_ok,
        "certificate_ok": certificate_ok,
        "certificate_vacuous": certificate.vacuous,
    }


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    doc = json.loads(Path(args.result).read_text(encoding="utf-8"))
    payload = doc.get("payload", doc) if isinstance(doc, dict) else doc
    if not isinstance(payload, dict):
        raise ValueError(f"result must be a JSON object, not {type(payload).__name__}")
    graph = _load_graph(args.graph, args.format)
    digest = graph_digest(graph)
    recorded = payload.get("graph_digest")
    if recorded is None or recorded == digest:
        report = _recheck(graph, payload, args.strict)
    else:
        report = {"verified": False, "digest_ok": False, "recorded": recorded, "actual": digest}
    _emit(
        {
            "config": {"result": args.result, "graph": args.graph, "strict": args.strict},
            "payload": report,
            "timing": {"wall_time_s": time.perf_counter() - t0},
        },
        None,
    )
    if not report["digest_ok"]:
        return 1
    return 0 if report["verified"] else 2


# ---------------------------------------------------------------------------
# parser


def build_parser() -> tuple[_Parser, dict[str, argparse.ArgumentParser]]:
    """A new parser, and each subcommand's parser by name, on every call."""
    parser = _Parser(prog="cliquecut", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    subparsers = parser.add_subparsers(dest="command")
    subs: dict[str, argparse.ArgumentParser] = {}

    gen = subparsers.add_parser("generate", help="write a random graph corpus with a manifest")
    gen.add_argument("--kind", choices=["gnp", "planted"], default="gnp")
    gen.add_argument("--count", type=int, default=10)
    gen.add_argument("--nodes", type=int, default=50)
    gen.add_argument("--prob", type=float, default=0.5, help="edge probability")
    gen.add_argument("--clique-size", type=int, default=10, help="planted clique size")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--splits", default="0.6,0.2,0.2", help="train,val,test fractions or 'none'")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--config", default=None, help="key=value defaults file")
    gen.set_defaults(func=cmd_generate)
    subs["generate"] = gen

    sol = subparsers.add_parser("solve", help="solve one instance and print a certified result")
    sol.add_argument("--graph", required=True)
    sol.add_argument("--format", choices=["auto", "edges", "dimacs"], default="auto")
    sol.add_argument("--problem", choices=["clique", "partition"], default="clique")
    sol.add_argument("--seed-node", type=int, default=None, help="partition seed node")
    sol.add_argument("--out", default=None, help="write the result JSON here instead of stdout")
    sol.add_argument("--config", default=None, help="key=value defaults file")
    _add_solver_args(sol)
    sol.set_defaults(func=cmd_solve)
    subs["solve"] = sol

    tr = subparsers.add_parser("train", help="train the message-passing producer on a corpus")
    tr.add_argument("--corpus", required=True, help="corpus directory or manifest path")
    tr.add_argument("--objective", choices=["clique", "cut"], default="clique")
    tr.add_argument("--epochs", type=int, default=20)
    tr.add_argument("--hidden", type=int, default=16)
    tr.add_argument("--layers", type=int, default=3)
    tr.add_argument("--batch-size", type=int, default=8)
    tr.add_argument("--lr", type=float, default=0.001)
    tr.add_argument("--opt-beta", type=float, default=1.0)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--init", default=None, help="resume from this checkpoint")
    tr.add_argument("--out", required=True, help="checkpoint path (.json or .npz)")
    tr.add_argument("--config", default=None, help="key=value defaults file")
    tr.set_defaults(func=cmd_train)
    subs["train"] = tr

    bench = subparsers.add_parser("benchmark", help="solve a corpus split, emit CSV (time column last)")
    bench.add_argument("--corpus", required=True)
    bench.add_argument("--split", default="test", help="corpus split to run ('' for all)")
    bench.add_argument("--problem", choices=["clique", "partition"], default="clique")
    bench.add_argument("--compare", choices=["none", "greedy", "uniform"], default="none")
    bench.add_argument("--no-oracle", action="store_true", help="skip the exact reference")
    bench.add_argument("--oracle-limit", type=int, default=20, help="max nodes for the exact reference")
    bench.add_argument("--out", default=None, help="write CSV here instead of stdout")
    bench.add_argument("--config", default=None, help="key=value defaults file")
    _add_solver_args(bench)
    bench.set_defaults(func=cmd_benchmark)
    subs["benchmark"] = bench

    ver = subparsers.add_parser("verify", help="recheck a saved result against its graph")
    ver.add_argument("--result", required=True, help="result JSON from solve")
    ver.add_argument("--graph", required=True)
    ver.add_argument("--format", choices=["auto", "edges", "dimacs"], default="auto")
    ver.add_argument("--strict", action="store_true", help="vacuous certificates fail; box claims need bound and constraint")
    ver.add_argument("--config", default=None, help="key=value defaults file")
    ver.set_defaults(func=cmd_verify)
    subs["verify"] = ver

    return parser, subs


# ``build_parser()``'s result, built on the first ``main`` call; parsing leaves it unchanged.
_PARSER: tuple[_Parser, dict[str, argparse.ArgumentParser]] | None = None


def main(argv: list[str] | None = None) -> int:
    """Run one command line (``sys.argv[1:]`` when ``argv`` is None); returns the exit code.

    The parser is built on the first call and kept in this module, so a
    process that calls ``main`` many times builds it once.
    """
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    parser, subs = _PARSER
    args = parser.parse_args(argv)
    if args.command is None:
        parser.error("a subcommand is required")
    if getattr(args, "config", None):
        try:
            overrides = _read_config_file(args.config)
        except OSError as exc:
            print(f"error: cannot read config file: {exc}", file=sys.stderr)
            return 1
        # After the subcommand, so that flags given on the command line win.
        argv = sys.argv[1:] if argv is None else list(argv)
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + _config_args(subs[args.command], overrides) + argv[at:])
    try:
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as exc:
        # FloatingPointError: the optimizer's loss overflowed (say, a huge --opt-beta).
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Benchmark for cliquecut: runs one seeded workload and prints its metrics.

    python3 bench/run.py --workload clique-dense --seed 1 --seconds 28 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones of BENCHMARK.json; with ``--trace 1`` the run pairs an
untraced and a traced run of each operation and reports per-layer self
times, counters, solution quality and the tracing overhead, and writes every
span to ``.bench_work/trace-<workload>.tsv``.  A summary, with a digest of the
solution payloads, goes to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from spans import LAYER_TIMES, Tracer
from workloads import REJECT, SOLVE, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("cli", "solver", "graphs", "datasets", "models", "certificates", "distributions", "decoding")


def load_program() -> dict:
    src = ROOT / "src"
    if not (src / "cliquecut" / "__init__.py").is_file():
        raise FileNotFoundError(f"no cliquecut sources under {src}")
    sys.path.insert(0, str(src))
    return {name: importlib.import_module(f"cliquecut.{name}") for name in MODULES}


def run_op(op, outs: list, tracer=None, op_id: int = 0) -> float:
    """Run one operation and keep its output; returns its wall time."""
    fn = op.run
    if tracer is not None:
        tracer.op = op_id
        fn = tracer.wrap("bench", fn)
    start = time.perf_counter()
    try:
        outs.append(fn())
    except Exception as exc:  # a crash is a failed operation, not the end of the run
        outs.append(exc.with_traceback(None))  # keep the message, free the frames
    return time.perf_counter() - start


def run_round(ops, outputs) -> float:
    """Run every operation once; returns the round's wall time."""
    start = time.perf_counter()
    for op, outs in zip(ops, outputs):
        run_op(op, outs)
    return time.perf_counter() - start


def _canonical(output) -> str:
    return json.dumps(output, sort_keys=True)


def check_outputs(ops, outputs) -> dict:
    """Check each operation's output once and require later rounds to repeat it exactly."""
    attempted = failed = solved = 0
    correct = True
    problems: list[str] = []
    quality = defaultdict(list)
    digest = hashlib.sha256()
    for i, (op, outs) in enumerate(zip(ops, outputs)):
        attempted += len(outs)
        done = [o[1] for o in outs if not isinstance(o, Exception)]
        crashes = [o for o in outs if isinstance(o, Exception)]
        if crashes:
            problems.append(f"op {i} ({op.kind}) raised {type(crashes[0]).__name__}: {crashes[0]}")
            correct = correct and op.kind == REJECT
        failed += len(crashes)
        if op.kind == SOLVE:
            solved += len(done)
        if not done:
            continue
        reference = _canonical(done[0])
        digest.update(reference.encode())
        errors, values = op.check(done[0])
        for key, value in values.items():
            quality[key].append(value)
        repeats = sum(_canonical(o) == reference for o in done)
        if repeats != len(done):
            problems.append(f"op {i} ({op.kind}) output differs between rounds")
            correct = False
        if errors:
            problems.append(f"op {i} ({op.kind}): {'; '.join(errors)}")
            failed += len(done)
            correct = correct and op.kind == REJECT
        else:
            failed += len(done) - repeats
    if not solved:
        problems.append("no solve operation finished")
        correct = False
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "problems": problems,
        "quality": dict(quality),
        "payload_sha256": digest.hexdigest(),
    }


def _median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean_or_zero(values) -> float:
    return statistics.fmean(values) if values else 0.0


def untraced(workload, seconds: float) -> tuple[dict, dict]:
    """Whole rounds, each with its set-up passes, while the next is expected to fit in ``seconds``.

    Set-up passes run between rounds, so ``setup_s`` samples the machine
    over the same stretch of time as the solves.
    """
    setup = []

    def timed_setup() -> None:
        start = time.perf_counter()
        workload.setup()
        setup.append(time.perf_counter() - start)

    timed_setup()
    ops = workload.ops()
    outputs = [[] for _ in ops]
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        walls.append(run_round(ops, outputs))
        for _ in range(workload.setups_per_round):
            timed_setup()
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    result = check_outputs(ops, outputs)
    solves = [o[0] for op, outs in zip(ops, outputs) if op.kind == SOLVE for o in outs if not isinstance(o, Exception)]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "solves_per_s": (len(solves) / sum(walls), "1/s"),
        "solve_s_p50": (_median_or_zero(solves), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    result["rounds"] = len(walls)
    return result, metrics


def traced(workload, seconds: float, trace_path: Path) -> tuple[dict, dict]:
    """One traced set-up pass, a warm-up round, then paired rounds.

    A paired round runs each operation twice in a row, once untraced and once
    traced, and alternates which goes first.  Pairing single operations keeps
    the machine's drift over seconds out of the tracing overhead, and the
    warm-up round, checked but not timed, keeps the process's warm-up out of
    it.  Layer times are self seconds for the set-up pass plus the traced half
    of one paired round.
    """
    tracer = Tracer(workload.program)
    tracer.install()
    start = time.perf_counter()
    tracer.wrap("bench", workload.setup)()
    setup_wall = time.perf_counter() - start
    tracer.remove()
    setup_spans = len(tracer.spans)

    ops = workload.ops()
    outputs = [[] for _ in ops]
    plain, timed = [], []

    def traced_op(op, outs, op_id: int) -> float:
        tracer.install()
        try:
            return run_op(op, outs, tracer, op_id)
        finally:
            tracer.remove()

    start = time.perf_counter()
    run_round(ops, outputs)
    while True:
        pair_start = time.perf_counter()
        plain_s = timed_s = 0.0
        for i, (op, outs) in enumerate(zip(ops, outputs)):
            op_id = len(timed) * len(ops) + i + 1
            if (len(timed) + i) % 2:
                timed_s += traced_op(op, outs, op_id)
                plain_s += run_op(op, outs)
            else:
                plain_s += run_op(op, outs)
                timed_s += traced_op(op, outs, op_id)
        plain.append(plain_s)
        timed.append(timed_s)
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:
            break
    result = check_outputs(ops, outputs)
    tracer.write(trace_path)

    rounds = len(timed)
    setup_self, _, _ = tracer.self_times(tracer.spans[:setup_spans])
    run_self, run_total, calls = tracer.self_times(tracer.spans[setup_spans:])

    def per_round(x: float) -> float:
        return x / rounds

    metrics = {}
    for span, metric in LAYER_TIMES.items():
        metrics[metric] = (setup_self.get(span, 0.0) + per_round(run_self.get(span, 0.0)), "s")

    counts = tracer.counts
    steps = counts["direct_steps"]
    candidates = calls["decoding.conditional"] + calls["decoding.sweep"]
    train_s = run_total.get("models.train", 0.0)
    passes = calls["models.mpnn_backward"]
    metrics.update(
        {
            "distributions.loss_calls": (per_round(calls["distributions.loss"]), "count"),
            "distributions.rescale_calls": (per_round(calls["distributions.rescale"]), "count"),
            "models.direct_steps": (per_round(steps), "count"),
            "models.direct_step_us": (1e6 * run_total.get("models.direct", 0.0) / steps if steps else 0.0, "us"),
            "models.train_graphs_per_s": (passes / train_s if train_s else 0.0, "graphs/s"),
            "decoding.nodes_visited": (per_round(counts["nodes_visited"]), "count"),
            "decoding.candidates": (per_round(candidates), "count"),
            "decoding.nonclique_dropped": (per_round(counts["nonclique_dropped"]), "count"),
            "decoding.useful_share": (1.0 - counts["nonclique_dropped"] / candidates if candidates else 0.0, "ratio"),
            "certificates.issued": (per_round(calls["certificates.certify"]), "count"),
        }
    )
    quality = result["quality"]
    metrics["certificates.nonvacuous"] = (sum(quality.get("nonvacuous", [])), "count")
    metrics["solver.clique_weight"] = (sum(quality.get("clique_weight", [])), "weight")
    metrics["solver.optimal_share"] = (_mean_or_zero(quality.get("optimal")), "ratio")
    metrics["solver.conductance_mean"] = (_mean_or_zero(quality.get("conductance")), "ratio")

    wall = setup_wall + per_round(sum(timed))
    # Harness time inside the ``bench`` root spans is what no program layer accounts for.
    layers = sum(v for k, v in setup_self.items() if k != "bench")
    layers += per_round(sum(v for k, v in run_self.items() if k != "bench"))
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.layer_share"] = (layers / wall, "ratio")
    metrics["trace.overhead"] = (sum(timed) / sum(plain) - 1.0, "ratio")
    metrics["trace.spans"] = (per_round(len(tracer.spans) - setup_spans), "count")
    result["rounds"] = 1 + len(plain) + rounds
    return result, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        program = load_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_work"
    workdir = out_dir / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, program)
        workload.prepare()
        # Peak so far: the interpreter, numpy, the program's modules and the generated inputs.
        harness_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            result, metrics = traced(workload, args.seconds, out_dir / f"trace-{args.workload}.tsv")
        else:
            result, metrics = untraced(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = {k: result[k] for k in ("rounds", "attempted", "failed", "correct", "payload_sha256")}
    summary["quality"] = {k: round(statistics.fmean(v), 6) for k, v in result["quality"].items()}
    summary["rss_before_setup_mb"] = round(harness_mb, 1)
    print(f"{args.workload} seed {args.seed}: {json.dumps(summary)}", file=sys.stderr)
    for problem in result["problems"]:
        print(f"  {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded fuzzing of the two graph loaders, the two checkpoint formats,
corpus manifests and the result files ``cliquecut verify`` reads.

Each case takes a valid input, applies one to three seeded mutations
(truncation, byte flips, token swaps, huge indices, ``nan``/``inf`` and
stray comments; for the graph readers also other spellings of a number,
swapped lines and CRLF line ends) and reads the result back from a file.
The property: the reader raises ``ValueError`` (``GraphFormatError`` is
one) or returns a valid object; ``verify`` ends with an exit code.  Any
other exception fails the test, as it would end the CLI in a traceback.
"""

import hashlib
import math
import re

import numpy as np
import pytest

from cliquecut import Corpus, MpnnParams, OptimState, graphs, load_checkpoint, load_corpus, save_checkpoint, save_corpus
from cliquecut.cli import main
from cliquecut.graphs import Graph, graph_digest, load_dimacs_file, load_edge_list, load_edge_list_file, to_edge_list_text

from helpers import random_graph

CASES = 300
HUGE = ["999", "1000", "4294967296", "18446744073709551617", "-1", "1" + "0" * 40, "1" + "0" * 400]
ODD = ["nan", "-nan", "inf", "-inf", "NaN", "Infinity", "1e309", "-0.0", "0", "1e-400"]


def truncate(data: bytes, rng) -> bytes:
    return data[: int(rng.integers(0, len(data) + 1))]


def flip_bytes(data: bytes, rng) -> bytes:
    out = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        if out:
            out[int(rng.integers(len(out)))] ^= 1 << int(rng.integers(8))
    return bytes(out)


def _tokens(data: bytes) -> list[bytes]:
    # Split on whitespace and on the JSON punctuation, keeping the separators.
    return re.split(rb"(\s+|[\[\]{}:,])", data)


def _replace_token(data: bytes, rng, choices) -> bytes:
    parts = _tokens(data)
    slots = [i for i, p in enumerate(parts) if p.strip() and p not in b"[]{}:,"]
    if not slots:
        return data
    parts[slots[int(rng.integers(len(slots)))]] = str(rng.choice(choices)).encode()
    return b"".join(parts)


def swap_tokens(data: bytes, rng) -> bytes:
    parts = _tokens(data)
    slots = [i for i, p in enumerate(parts) if p.strip() and p not in b"[]{}:,"]
    if len(slots) < 2:
        return data
    i, j = rng.choice(slots, 2, replace=False)
    parts[i], parts[j] = parts[j], parts[i]
    return b"".join(parts)


def huge_index(data: bytes, rng) -> bytes:
    return _replace_token(data, rng, HUGE)


def non_finite(data: bytes, rng) -> bytes:
    return _replace_token(data, rng, ODD)


def stray_comment(data: bytes, rng) -> bytes:
    lines = data.split(b"\n")
    comment = [b"# nodes", b"# nodes x", b"# nodes 3 4", b"c stray", b"#", b"% note", b"p edge 2 1"][int(rng.integers(7))]
    lines.insert(int(rng.integers(len(lines) + 1)), comment)
    return b"\n".join(lines)


MUTATIONS = [truncate, flip_bytes, swap_tokens, huge_index, non_finite, stray_comment]

# Other spellings of the same number: a sign, leading or trailing zeros, a
# dropped leading or trailing digit around the point, an exponent.
RESPELLINGS = [
    lambda t: b"+" + t,
    lambda t: b"0" + t,
    lambda t: t[1:] if t.startswith(b"0.") else t,
    lambda t: t + b"0" if b"." in t else t,
    lambda t: t[:-1] if t.endswith(b".0") else t,
    lambda t: t[:-2] if t.endswith(b".0") else t,
    lambda t: t + b"e0",
]


def respell(data: bytes, rng) -> bytes:
    parts = _tokens(data)
    slots = [i for i, p in enumerate(parts) if p[:1].isdigit()]
    if not slots:
        return data
    i = slots[int(rng.integers(len(slots)))]
    parts[i] = RESPELLINGS[int(rng.integers(len(RESPELLINGS)))](parts[i])
    return b"".join(parts)


def swap_lines(data: bytes, rng) -> bytes:
    lines = data.split(b"\n")
    i, j = rng.integers(len(lines), size=2)
    lines[i], lines[j] = lines[j], lines[i]
    return b"\n".join(lines)


def crlf(data: bytes, rng) -> bytes:
    return data.replace(b"\n", b"\r\n")


# The graph readers also meet texts that hold the same graph in other words.
GRAPH_MUTATIONS = MUTATIONS + [respell, swap_lines, crlf]


def mutate(data: bytes, rng, mutations=MUTATIONS) -> bytes:
    for _ in range(int(rng.integers(1, 4))):
        data = mutations[int(rng.integers(len(mutations)))](data, rng)
    return data


def assert_valid_graph(g) -> None:
    assert isinstance(g, Graph)
    assert 0 <= g.n <= graphs.MAX_NODES
    assert np.all(g.edge_u < g.edge_v) and np.all(g.edge_v < g.n)
    assert np.all((g.edge_w > 0.0) & (g.edge_w <= 1.0))
    # The digest, pinned while loading or not, is the hash of the canonical text.
    assert graph_digest(g) == hashlib.sha256(to_edge_list_text(g).encode()).hexdigest()
    assert graph_digest(load_edge_list(to_edge_list_text(g))) == graph_digest(g)


def reader_bytes(tmp_path, suffix, reader, data: bytes):
    path = tmp_path / f"case{suffix}"
    path.write_bytes(data)
    return reader(path)


@pytest.fixture
def small_cap(monkeypatch):
    # Huge indices below the cap would only cost memory; a small cap keeps every case cheap.
    monkeypatch.setattr(graphs, "MAX_NODES", 1000)


@pytest.mark.parametrize(
    "suffix, reader",
    [(".edges", load_edge_list_file), (".dimacs", load_dimacs_file)],
    ids=["edge-list", "dimacs"],
)
def test_graph_loaders_reject_or_load_mutated_input(tmp_path, small_cap, suffix, reader):
    g = random_graph(np.random.default_rng(0), 12, density=0.4, weighted=True)
    if suffix == ".edges":
        base = to_edge_list_text(g).encode()
    else:
        lines = ["c fuzz base", f"p edge {g.n} {g.num_edges}"]
        lines += [f"e {u + 1} {v + 1} {w!r}" for u, v, w in zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_w.tolist())]
        base = ("\n".join(lines) + "\n").encode()
    assert graph_digest(reader_bytes(tmp_path, suffix, reader, base)) == graph_digest(g)
    outcomes = {"loaded": 0, "rejected": 0}
    for seed in range(CASES):
        data = mutate(base, np.random.default_rng([1, seed]), GRAPH_MUTATIONS)
        try:
            loaded = reader_bytes(tmp_path, suffix, reader, data)
        except ValueError:
            outcomes["rejected"] += 1
            continue
        assert_valid_graph(loaded)
        outcomes["loaded"] += 1
    # Both outcomes occur, so the mutations neither always break nor never touch the input.
    assert min(outcomes.values()) > 0, outcomes


def fuzz_checkpoint():
    rng = np.random.default_rng(3)
    params = MpnnParams.init(rng, hidden=3, layers=1)
    state = OptimState(lr=0.01)
    state.apply(params.weights, {k: rng.standard_normal(v.shape) for k, v in params.weights.items()})
    return params, state


def assert_valid_checkpoint(loaded) -> None:
    params, opt, meta = loaded
    shapes = MpnnParams.shapes(params.hidden, params.layers)
    assert params.weights.keys() == shapes.keys()
    for key, w in params.weights.items():
        assert w.shape == shapes[key] and np.all(np.isfinite(w)), key
    if opt is not None:
        for k in ("lr", "beta1", "beta2", "eps"):
            assert math.isfinite(getattr(opt, k)), k
        for moments in (opt.m, opt.v):
            assert moments.keys() == (shapes.keys() if opt.step else set())
            for key, m in moments.items():
                assert m.shape == shapes[key] and np.all(np.isfinite(m)), key
    assert isinstance(meta, dict)


def npz_with_mutated_members(path, rng) -> bytes:
    """A well-formed archive whose header text or one array was mutated."""
    with np.load(path) as archive:
        members = {name: archive[name] for name in archive.files}
    if rng.random() < 0.5:
        header = bytes(members["__header__"])
        members["__header__"] = np.frombuffer(mutate(header, rng), dtype=np.uint8)
    else:
        name = sorted(k for k in members if k != "__header__")[int(rng.integers(len(members) - 1))]
        array = members[name].copy().reshape(-1)
        # A non-finite element in place, a truncated copy, or the values flattened.
        choice = int(rng.integers(3))
        if choice == 0 and array.size:
            array[int(rng.integers(array.size))] = rng.choice([np.nan, np.inf, -np.inf])
        elif choice == 1:
            array = array[: int(rng.integers(array.size + 1))]
        members[name] = array if choice else array.reshape(members[name].shape)
    out = path.with_name("rebuilt.npz")
    np.savez(out, **members)
    return out.read_bytes()


@pytest.mark.parametrize("suffix", [".json", ".npz"])
def test_checkpoint_readers_reject_or_load_mutated_input(tmp_path, suffix):
    params, state = fuzz_checkpoint()
    source = tmp_path / f"source{suffix}"
    save_checkpoint(source, params, optimizer=state, meta={"note": "fuzz"})
    base = source.read_bytes()
    assert_valid_checkpoint(load_checkpoint(source))
    path = tmp_path / f"case{suffix}"
    outcomes = {"loaded": 0, "rejected": 0}
    for seed in range(CASES):
        rng = np.random.default_rng([2, seed])
        if suffix == ".npz" and rng.random() < 0.5:
            data = npz_with_mutated_members(source, rng)
        elif suffix == ".npz":
            data = [truncate, flip_bytes][int(rng.integers(2))](base, rng)
        else:
            data = mutate(base, rng)
        path.write_bytes(data)
        try:
            loaded = load_checkpoint(path)
        except ValueError:
            outcomes["rejected"] += 1
            continue
        assert_valid_checkpoint(loaded)
        outcomes["loaded"] += 1
    assert min(outcomes.values()) > 0, outcomes


def test_corpus_manifest_reader_rejects_or_loads_mutated_input(tmp_path):
    rng = np.random.default_rng(4)
    corpus = Corpus(
        graphs=[random_graph(rng, 6, density=0.5, weighted=True) for _ in range(3)],
        names=["a", "b", "c"],
        splits=["train", "val", "test"],
        meta=[{"planted": [0, 1]}, {}, {"note": "x"}],
    )
    manifest = save_corpus(corpus, tmp_path)
    base = manifest.read_bytes()
    outcomes = {"loaded": 0, "rejected": 0}
    for seed in range(CASES):
        manifest.write_bytes(mutate(base, np.random.default_rng([5, seed])))
        try:
            loaded = load_corpus(manifest)
        except ValueError:
            outcomes["rejected"] += 1
            continue
        except OSError:
            # A mutated path that names no file; the CLI reports it as an input error.
            outcomes["rejected"] += 1
            continue
        assert len(loaded.graphs) == len(loaded.names) == len(loaded.splits) == len(loaded.meta)
        for g in loaded.graphs:
            assert_valid_graph(g)
        assert all(isinstance(x, str) for x in loaded.names + loaded.splits)
        assert all(isinstance(m, dict) for m in loaded.meta)
        outcomes["loaded"] += 1
    assert min(outcomes.values()) > 0, outcomes


@pytest.mark.parametrize("problem", ["clique", "partition"])
def test_verify_rejects_or_checks_mutated_result(tmp_path, capsys, problem):
    g = random_graph(np.random.default_rng(6), 10, density=0.5, weighted=True)
    graph_path = tmp_path / "graph.edges"
    graph_path.write_text(to_edge_list_text(g))
    result_path = tmp_path / "result.json"
    argv = ["solve", "--graph", str(graph_path), "--restarts", "1", "--steps", "20", "--out", str(result_path)]
    if problem == "partition":
        argv += ["--problem", "partition", "--seed-node", str(int(np.argmax(g.degree))), "--num-intervals", "2"]
    assert main(argv) == 0
    base = result_path.read_bytes()
    assert main(["verify", "--result", str(result_path), "--graph", str(graph_path)]) == 0
    outcomes = {"checked": 0, "rejected": 0}
    for seed in range(CASES):
        result_path.write_bytes(mutate(base, np.random.default_rng([7, seed])))
        code = main(["verify", "--result", str(result_path), "--graph", str(graph_path)])
        assert code in (0, 1, 2)
        outcomes["rejected" if code == 1 else "checked"] += 1
    capsys.readouterr()
    assert min(outcomes.values()) > 0, outcomes

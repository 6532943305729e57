"""The layer tracer in bench/spans.py patches program functions by name."""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # A function removed or renamed in the module that the tracer patches
    # would otherwise fail only a traced bench run.
    spans = _load_spans()
    names = {module for module, *_ in spans.SPANS} | {"graphs"}
    program = {name: importlib.import_module(f"cliquecut.{name}") for name in names}
    missing = [f"{module}.{attr}" for module, attr, *_ in spans.SPANS if not callable(getattr(program[module], attr, None))]
    assert missing == []
    spans.Tracer(program)  # looks up every name, and Graph.__init__, as a traced run does

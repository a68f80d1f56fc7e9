"""The benchmark's layer map names only public finsemi functions.

`bench/run.py` reads the traced call count of every `LAYER_FUNCTIONS`
entry, and its tracer wraps only public module-level functions, so an
entry that is renamed, made private or deleted crashes the traced run.
The map is read with `ast`, without importing the benchmark.
"""

import ast
import importlib
import inspect
from pathlib import Path

BENCH_RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def layer_functions() -> tuple:
    for node in ast.parse(BENCH_RUN.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py assigns no LAYER_FUNCTIONS")


def test_layer_functions_are_public_module_functions():
    names = layer_functions()
    assert names
    for name in names:
        module_name, attr = name.split(".")
        module = importlib.import_module(f"finsemi.{module_name}")
        fn = getattr(module, attr, None)
        assert not attr.startswith("_"), name
        assert inspect.isfunction(fn), name
        assert fn.__module__ == module.__name__, name

"""The benchmark tracer (``bench/tracing.py``) wraps package functions by
name; a name it wraps that no longer exists only shows when a traced run
crashes, so every one is resolved here."""

import importlib
import importlib.util
from pathlib import Path

from flexlogit import inference, validation

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def nested_function_names(fn):
    return {c.co_name for c in fn.__code__.co_consts if hasattr(c, "co_name")}


def test_tracer_targets_resolve():
    missing = []
    for mod_name, path in load_tracing().TARGETS:
        owner = importlib.import_module(f"flexlogit.{mod_name}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{mod_name}.{path}")
    assert missing == []


def test_pool_item_functions_keep_their_names():
    # the tracer names each parallel_map item span after the function passed
    assert {"one_replicate", "one_jackknife"} <= nested_function_names(inference.bootstrap)
    assert "one_cell" in nested_function_names(validation.cross_validate)

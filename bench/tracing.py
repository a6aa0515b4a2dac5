"""Span tracing of the flexlogit CLI, installed from outside the package.

    python3 bench/tracing.py SPANS.json CLI-ARGS...

runs ``flexlogit.cli.main(CLI-ARGS)`` after wrapping the public functions of
every module on a CLI path at their module boundaries, and writes the spans
to SPANS.json when the command ends. A span is
``[id, parent, name, start_ns, end_ns, thread, extra]``; ``name`` is
``<layer>.<function>`` and the layer is the package module. The function
passed to ``parallel_map`` is wrapped too, and its spans take the
``parallel_map`` span as parent, so the parent carries across the thread
pool. ``layer_metrics`` turns the spans of one workload run into the
per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

import numpy as np

LAYERS = ("cli", "data", "likelihood", "transforms", "estimation", "inference",
          "validation", "policy", "parallel")

# (module, attribute path) of every wrapped public entry point.
TARGETS = (
    ("cli", "main"),
    ("data", "load_csv"),
    ("data", "ChoiceDataset.subset"),
    ("data", "ChoiceDataset.resample"),
    ("data", "ChoiceDataset.with_covariates"),
    ("likelihood", "build_design"),
    ("likelihood", "ll_with_design"),
    ("likelihood", "gradient_with_design"),
    ("likelihood", "probabilities"),
    ("likelihood", "ll_by_alternative"),
    ("estimation", "fit"),
    ("estimation", "fd_hessian"),
    ("inference", "bootstrap"),
    ("inference", "bca_interval"),
    ("validation", "make_folds"),
    ("validation", "cross_validate"),
    ("policy", "apply_scenario"),
    ("policy", "enumerate_shares"),
    ("policy", "sweep"),
    ("policy", "select_targets"),
    ("parallel", "parallel_map"),
)
FAMILY_METHODS = ("value", "d_value_dv", "d_value_dshape")


class Tracer:
    """In-memory span recorder; the parent span is tracked per thread."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def current(self) -> int:
        return getattr(self._local, "span", 0)

    def wrap(self, name, fn, parent=None, extra=None):
        """Wrap ``fn`` in a span; ``parent`` fixes the parent span id (for
        calls that run on a pool thread), ``extra(args, result)`` adds data."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            prev = self.current()
            up = prev if parent is None else parent
            sid = next(self._ids)
            self._local.span = sid
            info = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    info = extra(args, result)
                return result
            except Exception as e:
                info = {"error": type(e).__name__}
                raise
            finally:
                end = time.perf_counter_ns()
                self._local.span = prev
                # list.append is atomic under the interpreter lock
                self.spans.append([sid, up, name, start, end,
                                   threading.get_ident(), info])

        return traced


def _rows(args, result):
    return {"rows": int(args[0].X.shape[0])}


def _fit_info(args, result):
    return {"iterations": int(result.iterations), "status": result.status,
            "optimizer": result.optimizer_used}


def install(tracer: Tracer) -> None:
    """Replace every target, in every loaded flexlogit module that binds it."""
    importlib.import_module("flexlogit.cli")  # loads every module on a CLI path
    modules = [m for n, m in sys.modules.items()
               if n == "flexlogit" or n.startswith("flexlogit.")]
    swaps = {}
    for mod_name, path in TARGETS:
        owner = importlib.import_module(f"flexlogit.{mod_name}")
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        name = f"{mod_name}.{attr}"
        if path == "parallel_map":
            wrapped = tracer.wrap(name, _traced_parallel_map(tracer, original))
        else:
            extra = {"ll_with_design": _rows, "gradient_with_design": _rows,
                     "fit": _fit_info}.get(attr)
            wrapped = tracer.wrap(name, original, extra=extra)
        setattr(owner, attr, wrapped)
        swaps[id(original)] = wrapped
    for m in modules:
        for attr, value in list(vars(m).items()):
            if id(value) in swaps:
                setattr(m, attr, swaps[id(value)])
    transforms = importlib.import_module("flexlogit.transforms")
    for family in transforms.FAMILIES.values():
        cls = type(family)
        for meth in FAMILY_METHODS:
            if meth in vars(cls):
                setattr(cls, meth, tracer.wrap(
                    f"transforms.{family.name}.{meth}", vars(cls)[meth]))


def _traced_parallel_map(tracer, original):
    def parallel_map(fn, items, threads=1):
        layer = fn.__module__.rsplit(".", 1)[-1]
        item = tracer.wrap(f"{layer}.{fn.__name__}", fn, parent=tracer.current())
        return original(item, items, threads)
    return parallel_map


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    cli = importlib.import_module("flexlogit.cli")
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))


# -- analysis -----------------------------------------------------------------


def load_spans(paths) -> list:
    """Spans of several CLI processes, with ids made unique across them."""
    out = []
    for k, path in enumerate(paths):
        base = k << 40
        with open(path) as fh:
            for s in json.load(fh):
                s[0] += base
                if s[1]:
                    s[1] += base
                out.append(s)
    return out


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals (s)."""
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[3], s[4]))
    out = {}
    for s in spans:
        covered, reach = 0, s[3]
        for a, b in sorted(children.get(s[0], ())):
            a, b = max(a, reach), min(b, s[4])
            if b > a:
                covered += b - a
                reach = b
        out[s[0]] = (s[4] - s[3] - covered) * 1e-9
    return out


def _under(spans, name) -> set[int]:
    """Ids of spans that have an ancestor called ``name``."""
    by_id = {s[0]: s for s in spans}
    out = set()
    for s in spans:
        p = s[1]
        while p:
            parent = by_id.get(p)
            if parent is None:
                break
            if parent[2] == name:
                out.add(s[0])
                break
            p = parent[1]
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced workload run (all its CLI calls)."""
    dur, calls, ms = {}, {}, {}
    for s in spans:
        d = (s[4] - s[3]) * 1e-9
        dur[s[2]] = dur.get(s[2], 0.0) + d
        calls[s[2]] = calls.get(s[2], 0) + 1
        ms.setdefault(s[2], []).append(d * 1e3)

    def total(name):
        return dur.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    def pct(name, q):
        return float(np.percentile(ms[name], q)) if name in ms else 0.0

    def per_row(name):
        rows = sum(s[6]["rows"] for s in spans if s[2] == name)
        return total(name) / rows * 1e9 if rows else 0.0

    in_fit = _under(spans, "estimation.fit")
    fits = [s for s in spans if s[2] == "estimation.fit"]
    fitted = [s[6] for s in fits if s[6] and "iterations" in s[6]]
    obj = sum(1 for s in spans
              if s[2] == "likelihood.ll_with_design" and s[0] in in_fit)
    grad = sum(1 for s in spans
               if s[2] == "likelihood.gradient_with_design" and s[0] in in_fit)
    iterations = sum(f["iterations"] for f in fitted)

    m = {
        "data.load_csv_s": total("data.load_csv"),
        "data.subset_s": total("data.subset"),
        "data.subset_calls": n("data.subset"),
        "data.resample_s": total("data.resample"),
        "data.resample_calls": n("data.resample"),
        "data.with_covariates_s": total("data.with_covariates"),
        "likelihood.build_design_s": total("likelihood.build_design"),
        "likelihood.build_design_calls": n("likelihood.build_design"),
        "likelihood.ll_s": total("likelihood.ll_with_design"),
        "likelihood.grad_s": total("likelihood.gradient_with_design"),
        "likelihood.ll_ns_per_row": per_row("likelihood.ll_with_design"),
        "likelihood.grad_ns_per_row": per_row("likelihood.gradient_with_design"),
        "likelihood.probabilities_s": total("likelihood.probabilities"),
        "likelihood.probabilities_calls": n("likelihood.probabilities"),
    }
    for fam in ("scobit", "uneven_logit"):
        for meth in FAMILY_METHODS:
            m[f"transforms.{fam}.{meth}_s"] = total(f"transforms.{fam}.{meth}")
    m.update({
        "estimation.fit_calls": len(fits),
        "estimation.fit_s": total("estimation.fit"),
        "estimation.hessian_s": total("estimation.fd_hessian"),
        "estimation.objective_evals": obj,
        "estimation.gradient_evals": grad,
        "estimation.iterations": iterations,
        # one accepted step per iteration, plus the start and final values
        "estimation.backtracks": obj - iterations - 2 * len(fitted),
        "estimation.newton_stage_fits":
            sum(1 for f in fitted if "newton" in f["optimizer"]),
        "estimation.unconverged_fits":
            sum(1 for f in fitted if f["status"] != "converged")
            + len(fits) - len(fitted),
        "inference.bootstrap_s": total("inference.bootstrap"),
        "inference.replicate_refit_ms_p50": pct("inference.one_replicate", 50),
        "inference.jackknife_refit_ms_p50": pct("inference.one_jackknife", 50),
        "inference.jackknife_refit_ms_p90": pct("inference.one_jackknife", 90),
        "validation.cross_validate_s": total("validation.cross_validate"),
        "validation.cell_fit_ms_p50": pct("validation.one_cell", 50),
        "policy.sweep_s": total("policy.sweep"),
        "policy.apply_scenario_s": total("policy.apply_scenario"),
        "policy.enumerate_shares_s": total("policy.enumerate_shares"),
        "policy.select_targets_s": total("policy.select_targets"),
        "policy.grid_points_per_s":
            n("policy.enumerate_shares") / total("policy.sweep")
            if total("policy.sweep") else 0.0,
    })
    pools = {s[0] for s in spans if s[2] == "parallel.parallel_map"}
    items = [s for s in spans if s[1] in pools]
    pool_wall = total("parallel.parallel_map")
    busy = sum((s[4] - s[3]) * 1e-9 for s in items)
    m.update({
        "parallel.items": len(items),
        "parallel.wall_s": pool_wall,
        "parallel.item_busy_s": busy,
        "parallel.speedup": busy / pool_wall if pool_wall else 0.0,
    })
    own = self_times(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer_self[s[2].split(".", 1)[0]] += own[s[0]]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

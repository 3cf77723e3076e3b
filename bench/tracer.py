"""Span tracing from outside the program.

``Tracer.install`` wraps every public function of ginv's layer modules at
every name it is bound to: the defining module, each module that imported
it by name (geninv, orders, oracle, cli and the ``ginv`` package all do), and
the dispatch tables in module globals (the CLI's ``_INVERSE_OPS``).  It also
wraps the factorizations the layers call through module attributes:
``np.linalg.svd``, ``np.linalg.matrix_power``, ``scipy.linalg.schur`` and
``scipy.optimize.least_squares``.  Spans (name, start, end, parent, op) stay
in memory; ``write`` dumps them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np
import scipy.linalg
import scipy.optimize

LAYER_MODULES = ("matcore", "decomp", "geninv", "orders", "oracle", "matfile")
EXTERNAL = {
    "numpy.linalg.svd": (np.linalg, "svd"),
    "numpy.linalg.matrix_power": (np.linalg, "matrix_power"),
    "scipy.linalg.schur": (scipy.linalg, "schur"),
    "scipy.optimize.least_squares": (scipy.optimize, "least_squares"),
}

INVERSES = ("mp", "group", "core", "drazin", "core_ep", "dmp", "bt", "wg")
ORDERS = (
    "minus_order",
    "sharp_order",
    "drazin_order",
    "cn_order",
    "wg_order",
    "ce_order",
    "core_ep_order",
    "core_ep_order_via_wg",
)


def layer_functions() -> dict[str, object]:
    """Span name -> function, for every public function of every layer."""
    out = {}
    for layer in LAYER_MODULES:
        mod = importlib.import_module(f"ginv.{layer}")
        for name in mod.__all__:
            fn = getattr(mod, name)
            if callable(fn) and not isinstance(fn, type):
                out[f"{layer}.{name}"] = fn
    out["cli.main"] = importlib.import_module("ginv.cli").main
    return out


class Tracer:
    """Spans of the wrapped functions; ``install``/``uninstall`` switch them on and off."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self._stack: list[int] = []
        self.op = -1
        # (holder, key, original, wrapper) for every binding of every traced function
        self._patches: list[tuple[object, object, object, object]] = []
        functions = layer_functions()  # imports every layer before the modules are listed
        modules = [m for name, m in sys.modules.items() if name == "ginv" or name.startswith("ginv.")]
        for name, fn in functions.items():
            wrapper = self.wrap(name, fn)
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is fn:
                        self._patches.append((mod, attr, fn, wrapper))
                    elif isinstance(value, dict) and not attr.startswith("__"):
                        self._patches += [(value, key, fn, wrapper) for key, item in value.items() if item is fn]
        for name, (holder, attr) in EXTERNAL.items():
            original = getattr(holder, attr)
            self._patches.append((holder, attr, original, self.wrap(name, original)))

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()

        return traced

    def _set(self, use_wrapper: bool) -> None:
        for holder, key, original, wrapper in self._patches:
            value = wrapper if use_wrapper else original
            if isinstance(holder, dict):
                holder[key] = value
            else:
                setattr(holder, key, value)

    def install(self) -> None:
        self._set(True)

    def uninstall(self) -> None:
        self._set(False)

    def run_op(self, op_index: int, call):
        """Run one op under a root span, so every span carries its op."""
        self.op = op_index
        return self.wrap("op", call)()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total ms, self ms and the durations."""
        child_ms = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ms[parent] += 1e3 * (end - start)
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "durations": []})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            ms = 1e3 * (end - start)
            entry = out[name]
            entry["calls"] += 1
            entry["ms"] += ms
            entry["self_ms"] += ms - child_ms[i]
            entry["durations"].append(ms)
        return out


def layer_metrics(summary: dict, ops: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, averaged per op."""

    def get(name):
        return summary.get(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "durations": []})

    def per_op(value):
        return value / ops

    def p50(name):
        durations = get(name)["durations"]
        return statistics.median(durations) if durations else 0.0

    def layer_self(layer):
        return sum(v["self_ms"] for k, v in summary.items() if k.startswith(layer + "."))

    m: dict[str, tuple[float, str]] = {}
    for metric, span in (("svd", "numpy.linalg.svd"), ("schur", "scipy.linalg.schur"), ("matpow", "matcore.matpow")):
        m[f"matcore.{metric}_calls_per_op"] = (per_op(get(span)["calls"]), "count")
        m[f"matcore.{metric}_ms_per_op"] = (per_op(get(span)["ms"]), "ms")
    m["matcore.matrix_power_calls_per_op"] = (per_op(get("numpy.linalg.matrix_power")["calls"]), "count")
    m["matcore.residual_ms_per_op"] = (per_op(get("matcore.residual")["ms"]), "ms")
    m["matcore.as_matrix_calls_per_op"] = (per_op(get("matcore.as_matrix")["calls"]), "count")
    m["matcore.as_matrix_ms_per_op"] = (per_op(get("matcore.as_matrix")["ms"]), "ms")
    m["decomp.index_calls_per_op"] = (per_op(get("decomp.index")["calls"]), "count")
    m["decomp.index_self_ms_per_op"] = (per_op(get("decomp.index")["self_ms"]), "ms")
    m["decomp.core_ep_decompose_calls_per_op"] = (per_op(get("decomp.core_ep_decompose")["calls"]), "count")
    for fn in ("core_ep_decompose", "core_nilpotent_decompose", "hs_decompose"):
        m[f"decomp.{fn}_self_ms_per_op"] = (per_op(get(f"decomp.{fn}")["self_ms"]), "ms")
    for fn in INVERSES:
        m[f"geninv.{fn}_inverse_p50_ms"] = (p50(f"geninv.{fn}_inverse"), "ms")
    m["geninv.self_ms_per_op"] = (per_op(layer_self("geninv")), "ms")
    for fn in ORDERS:
        m[f"orders.{fn}_p50_ms"] = (p50(f"orders.{fn}"), "ms")
    m["orders.self_ms_per_op"] = (per_op(layer_self("orders")), "ms")
    m["oracle.brute_force_wg_p50_ms"] = (p50("oracle.brute_force_wg"), "ms")
    m["oracle.least_squares_calls_per_op"] = (per_op(get("scipy.optimize.least_squares")["calls"]), "count")
    m["matfile.load_ms_per_op"] = (per_op(get("matfile.load_matrix")["ms"]), "ms")
    m["matfile.format_ms_per_op"] = (per_op(get("matfile.format_matrix")["ms"]), "ms")
    m["cli.main_ms_per_op"] = (per_op(get("cli.main")["ms"]), "ms")
    m["cli.self_ms_per_op"] = (per_op(get("cli.main")["self_ms"]), "ms")
    return m

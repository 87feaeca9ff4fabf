"""Outside-in tracing of the nine lshape modules.

``Tracer.install`` wraps every public module-level function of each module
and rebinds the wrapper at every import site, because the modules import
names directly (``lshape.increment.lshape_average``, ``lshape.cli.gowers_norm``)
and look them up as module globals at call time.  The constructor of
``StructuredProductSet`` is wrapped on the class.  ``uninstall`` restores
the originals, so untraced passes run the program exactly as shipped.

Each wrapped call records a span (name, layer, start, end, parent) in
memory.  ``field`` functions are called about a million times per
extremal pass, so they record no spans and no time: they only count
calls, and their time is part of the self time of the span that called
them.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "increment", "structured", "linforms", "patterns", "norms",
          "spectral", "tables", "field")

TRANSFORMS = ("spectral.dft_values", "spectral.idft_values", "spectral.dft_batch")
MOVES = ("increment.fiber_mean_increment", "increment.skew_line_increment",
         "increment.align_offset_increment")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _table_triples(args, kwargs, result):
    g = args[0]
    return {"triples": g.p ** (3 * (g.m // 2))}


def _transform(args, kwargs, result):
    values = _arg(args, kwargs, 0, "values")
    p, m = _arg(args, kwargs, 1, "p"), _arg(args, kwargs, 2, "m")
    shape = getattr(values, "shape", ())
    rows = shape[0] if len(shape) == 2 else 1
    # each of the m tensor passes reads and writes every complex128 entry
    return {"rows": rows, "bytes": 2 * 16 * rows * p**m * m}


def _move(args, kwargs, result):
    return {"attempted": 1, "gained": int(bool(result.get("gained")))}


def _extremal(args, kwargs, result):
    size = _arg(args, kwargs, 0, "p") ** _arg(args, kwargs, 1, "n")
    return {"configs": (size - 1) * size * size}


PROBES = {
    "patterns.lshape_average": _table_triples,
    "patterns.corner_average": _table_triples,
    **{name: _transform for name in TRANSFORMS},
    **{name: _move for name in MOVES},
    "structured.product_set": lambda a, k, r: {"pairs": a[0].p ** (2 * a[0].n)},
    "increment.increment_driver": lambda a, k, r: {"steps": r["steps"]},
    "increment.pseudorandomize_u2": lambda a, k, r: {"rounds": r.report["round_count"]},
    "increment.search_extremal_L_free": _extremal,
}


def _public_functions(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
            yield attr, obj


class Tracer:
    """Spans and counters of one traced pass; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, name, start, end, attrs]
        self._stack: list[int] = []
        self.field_calls: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.field_calls.clear()

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name):
        probe = PROBES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if probe is not None:
                rec[5] = probe(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn, name):
        calls = self.field_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        import lshape.structured

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"lshape.{layer}"]
            for attr, fn in _public_functions(module):
                name = f"{layer}.{attr}"
                wrappers[id(fn)] = self._counted(fn, name) if layer == "field" else self._span(fn, name)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "lshape" and not mod_name.startswith("lshape."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        cls = lshape.structured.StructuredProductSet
        self._restore.append((cls, "__post_init__", cls.__post_init__))
        cls.__post_init__ = self._span(cls.__post_init__, "structured.product_set")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, obj = self._restore.pop()
            setattr(owner, attr, obj)

    # -- aggregation ----------------------------------------------------------

    def aggregate(self) -> dict:
        """Calls, self time and probe sums per span name and per layer."""
        child_s: dict[int, float] = defaultdict(float)
        for sid, parent, _name, t0, t1, _ in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        by_name: dict[str, dict] = defaultdict(lambda: defaultdict(int))
        for sid, _parent, name, t0, t1, attrs in self.spans:
            rec = by_name[name]
            rec["calls"] += 1
            rec["self_s"] += (t1 - t0) - child_s[sid]
            for key, val in (attrs or {}).items():
                rec[key] += val
        by_layer: dict[str, dict] = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for name, rec in by_name.items():
            layer = name.split(".", 1)[0]
            by_layer[layer]["calls"] += rec["calls"]
            by_layer[layer]["self_s"] += rec["self_s"]
        by_layer["field"] = {"calls": sum(self.field_calls.values())}
        return {"names": {k: dict(v) for k, v in by_name.items()}, "layers": by_layer}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, _ in self.spans:
                fh.write(json.dumps([sid, parent, name, t0, t1]) + "\n")


def layer_metrics(agg: dict, cold_cache: dict) -> dict[str, float]:
    """Per-layer metric values of one traced pass, by BENCHMARK.json name.

    ``cold_cache`` holds the ``lru_cache`` statistics of the first pass in
    a fresh process, where the caches start empty.
    """
    names, layers = agg["names"], agg["layers"]

    def get(name: str, key: str) -> float:
        return names.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    count_self = get("patterns.lshape_average", "self_s") + get("patterns.corner_average", "self_s")
    triples = get("patterns.lshape_average", "triples") + get("patterns.corner_average", "triples")
    transform_calls = sum(get(t, "calls") for t in TRANSFORMS)
    transform_rows = sum(get(t, "rows") for t in TRANSFORMS)
    attempted = sum(get(m, "attempted") for m in MOVES)
    gained = sum(get(m, "gained") for m in MOVES)
    add_map = cold_cache["add_map"]
    out = {
        "patterns.lshape_average.calls": get("patterns.lshape_average", "calls"),
        "patterns.lshape_average.self_s": get("patterns.lshape_average", "self_s"),
        "patterns.corner_average.self_s": get("patterns.corner_average", "self_s"),
        "patterns.triples": triples,
        "patterns.triples_per_s": ratio(triples, count_self),
        "norms.gowers_norm.calls": get("norms.gowers_norm", "calls"),
        "norms.gowers_norm.self_s": get("norms.gowers_norm", "self_s"),
        "norms.slot_norm.self_s": get("norms.slot_norm", "self_s"),
        "norms.box_norm.self_s": get("norms.box_norm", "self_s"),
        "norms.gcs_check.self_s": get("norms.gcs_check", "self_s"),
        "spectral.transform_calls": transform_calls,
        "spectral.transform_rows": transform_rows,
        "spectral.rows_per_call": ratio(transform_rows, transform_calls),
        "spectral.bytes_moved_computed": sum(get(t, "bytes") for t in TRANSFORMS),
        "field.add_map.hit_ratio": ratio(add_map["hits"], add_map["hits"] + add_map["misses"]),
        "field.digit_table.misses": cold_cache["digit_table"]["misses"],
        "tables.product_lift.calls": get("tables.product_lift", "calls"),
        "tables.product_lift.self_s": get("tables.product_lift", "self_s"),
        "tables.slot_index_array.self_s": get("tables.slot_index_array", "self_s"),
        "structured.product_set.builds": get("structured.product_set", "calls"),
        "structured.product_set.self_s": get("structured.product_set", "self_s"),
        "structured.product_set.pairs": get("structured.product_set", "pairs"),
        "increment.driver.steps": get("increment.increment_driver", "steps"),
        "increment.moves.attempted": attempted,
        "increment.moves.gained": gained,
        "increment.moves.gain_ratio": ratio(gained, attempted),
        "increment.moves.self_s": sum(get(m, "self_s") for m in MOVES),
        "increment.pseudorandomize.calls": get("increment.pseudorandomize_u2", "calls"),
        "increment.pseudorandomize.self_s": get("increment.pseudorandomize_u2", "self_s"),
        "increment.pseudorandomize.rounds": get("increment.pseudorandomize_u2", "rounds"),
        "increment.partition_energy.self_s": get("increment.partition_energy", "self_s"),
        "increment.extremal.self_s": get("increment.search_extremal_L_free", "self_s"),
        "increment.extremal.configs": get("increment.search_extremal_L_free", "configs"),
    }
    for layer in LAYERS:
        for key, val in layers[layer].items():
            out[f"{layer}.{key}"] = val
    return out

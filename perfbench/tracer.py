"""Per-layer tracing of towerforge from outside the package.

``Tracer.install()`` wraps every public function of the layer modules, plus
the methods in METHODS, and rebinds each wrapped name in every towerforge
module that imported it (``local.euler_phi`` is ``arith.euler_phi``). A
wrapper counts calls and accumulates self time: its duration minus the time
spent in wrapped callees. Counts and summed times are kept for every layer;
per-call spans (name, parent, start, end, operation) only for the coarse
layers in SPAN_LAYERS, at most SPAN_CAP of each, so million-call functions
stay aggregated and the trace fits in memory.
"""

from __future__ import annotations

import importlib
import sys
import time
import types

# rayclass has no caller on any user path, so it is not traced.
LAYER_MODULES = ("arith", "cyclotomic", "bernoulli", "characters", "criteria", "local", "pipeline", "cli")
METHODS = (
    ("criteria", "TowerCandidate", "build"),
    ("pipeline", "HminusCache", "load"),
    ("pipeline", "HminusCache", "store"),
    ("local", "LocalCycloElement", "__mul__"),
)
# Counted, not timed, to keep tracing cheap on a million-call constructor;
# the construction time stays with the caller.
COUNTED_ONLY = (("local", "LocalCycloElement", "__init__"),)
SPAN_LAYERS = frozenset(
    {
        "characters.hminus_product",
        "characters.hminus_determinant",
        "characters.relative_class_number",
        "characters.relative_class_number_det",
        "arith.factorize",
        "local.kappa",
    }
)
SPAN_CAP = 2000

# The layers the benchmark reports by name (BENCHMARK.json per_layer).
NAMED_LAYERS = (
    "characters.hminus_product",
    "characters.gen_bernoulli_b1",
    "characters.characters_mod",
    "characters.hminus_determinant",
    "cyclotomic.cyclo_norm",
    "cyclotomic.resultant",
    "cyclotomic.cyclo_poly",
    "cyclotomic.integer_det",
    "arith.factorize",
    "arith.is_prime",
    "arith.mult_order",
    "arith.euler_phi",
    "bernoulli.is_regular_prime",
    "criteria.TowerCandidate.build",
    "criteria.verify_candidate",
    "local.LocalCycloElement.__mul__",
    "local.pi_valuation",
    "local.kappa",
    "local.divide_by_pi",
    "pipeline.HminusCache.load",
    "pipeline.HminusCache.store",
    "pipeline.cached_relative_class_number",
    "pipeline.search_candidates",
    "cli.main",
)


class Layer:
    __slots__ = ("calls", "self_s", "raised", "spans_dropped")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.raised = 0
        self.spans_dropped = 0


class Tracer:
    def __init__(self) -> None:
        self.layers: dict[str, Layer] = {}
        self.spans: list[tuple] = []  # (id, name, parent id, start, end, op index)
        self.n3 = 0  # sum of n^3 over integer_det calls
        self.hits = 0  # cached_relative_class_number calls answered without recomputing
        self._stack: list[float] = []  # child time of each open timed call
        self._open: list[int] = [-1]  # ids of open spans, innermost last
        self._op = -1
        self._op_start = 0.0

    # ---------------------------------------------------------------- wrapping

    def _timed(self, name: str, fn, before=None):
        layer = self.layers[name] = Layer()
        stack, clock = self._stack, time.perf_counter
        spans, open_spans = self.spans, self._open
        with_span = name in SPAN_LAYERS
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            span_id = -1
            if with_span:
                if layer.calls - layer.spans_dropped < SPAN_CAP:
                    span_id = len(spans)
                    spans.append(None)
                    open_spans.append(span_id)
                else:
                    layer.spans_dropped += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                layer.raised += 1
                raise
            finally:
                elapsed = clock() - start
                layer.calls += 1
                layer.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                if span_id >= 0:
                    open_spans.pop()
                    spans[span_id] = (span_id, name, open_spans[-1], start, start + elapsed, tracer._op)

        return wrapper

    def _counted(self, name: str, fn):
        layer = self.layers[name] = Layer()

        def wrapper(*args, **kwargs):
            layer.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _with_hits(self, wrapped):
        """Count a hit when a call returns without calling relative_class_number."""
        recompute = self.layers.get("characters.relative_class_number")
        tracer = self

        def wrapper(*args, **kwargs):
            before = recompute.calls if recompute is not None else 0
            result = wrapped(*args, **kwargs)
            if recompute is None or recompute.calls == before:
                tracer.hits += 1
            return result

        return wrapper

    def _count_n3(self, args) -> None:
        self.n3 += len(args[0]) ** 3

    def install(self) -> None:
        """Wrap the layers and rebind every reference inside the package."""
        replaced = {}
        modules = {name: importlib.import_module(f"towerforge.{name}") for name in LAYER_MODULES}
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                before = self._count_n3 if name == "cyclotomic.integer_det" else None
                replaced[obj] = self._timed(name, obj, before)
        hits_target = modules["pipeline"].__dict__.get("cached_relative_class_number")
        if hits_target in replaced:
            replaced[hits_target] = self._with_hits(replaced[hits_target])
        for module_name, cls_name, attr in METHODS + COUNTED_ONLY:
            cls = getattr(modules[module_name], cls_name, None)
            raw = cls.__dict__.get(attr) if cls is not None else None
            if raw is None:
                continue
            name = f"{module_name}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._timed(name, raw.__func__)))
            elif (module_name, cls_name, attr) in COUNTED_ONLY:
                setattr(cls, attr, self._counted(name, raw))
            else:
                setattr(cls, attr, self._timed(name, raw))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "towerforge" or module_name.startswith("towerforge.")):
                continue
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in replaced:
                    setattr(module, attr, replaced[obj])

    # ---------------------------------------------------------------- operations

    def begin_op(self, index: int) -> None:
        self._op = index
        self._op_start = time.perf_counter()
        self._open.append(len(self.spans))
        self.spans.append(None)

    def end_op(self) -> None:
        span_id = self._open.pop()
        self.spans[span_id] = (span_id, "op", -1, self._op_start, time.perf_counter(), self._op)

    # ---------------------------------------------------------------- report

    def report(self, wall_s: float) -> dict:
        """Layer table, per-module self time and coverage of the traced wall time."""
        layers = {
            name: {"calls": layer.calls, "self_s": layer.self_s, "raised": layer.raised, "spans_dropped": layer.spans_dropped}
            for name, layer in sorted(self.layers.items())
        }
        modules: dict[str, float] = {}
        for name, layer in self.layers.items():
            modules[name.split(".")[0]] = modules.get(name.split(".")[0], 0.0) + layer.self_s
        named = sum(self.layers[n].self_s for n in NAMED_LAYERS if n in self.layers)
        return {
            "layers": layers,
            "modules_self_s": modules,
            "integer_det_n3": self.n3,
            "hminus_cache_hits": self.hits,
            "named_frac": named / wall_s,
            "covered_frac": sum(modules.values()) / wall_s,
            "spans": self.spans,
        }

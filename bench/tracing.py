"""Spans around calls into fairrank's layers, for the traced run only.

`install` replaces the layer functions below, in every fairrank module whose
namespace holds them, with wrappers that record a span per call; `uninstall`
puts the originals back.  Spans are recorded only inside an op (a `cli.<verb>`
root span), so the benchmark's own checks are never traced.  A function that
no longer exists is skipped, and its metrics are absent from the output.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from fairrank.ranking import FairnessClass

CLASSES = tuple(c.value for c in FairnessClass)

LAYERS = {
    "tournament": ("parse_tournament", "serialize_tournament", "gen_random",
                   "gen_composite", "scc_decompose"),
    "ranking": ("is_fair", "backward_arcs", "parse_ranking", "serialize_ranking",
                "copeland_ranking"),
    "fixpoint": ("linear_fair_ranking", "perron_fixed_point"),
    "optimize": ("min_backward_fair", "min_backward_injective", "emn_sweep_composite",
                 "min_backward_copeland_closed_form", "verify_copeland_upper_bound"),
}
MODULES = ("cli", "tournament", "ranking", "fixpoint", "optimize")
VERBS = ("gen", "rank", "check", "minimize", "emn", "dump")
# functions whose metrics are split by their fairness-class argument
QUALIFIED = {"ranking.is_fair": 2, "optimize.min_backward_fair": 1}


@dataclass
class Span:
    name: str
    parent: Optional[int]
    start: float
    qualifier: Optional[str] = None
    end: float = 0.0
    failed: bool = False
    ok: Optional[bool] = None  # is_fair verdict
    iterations: int = 0  # perron_fixed_point result
    child_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: List[Span] = field(default_factory=list)
    stack: List[int] = field(default_factory=list)
    patched: List[tuple] = field(default_factory=list)
    functions: List[str] = field(default_factory=list)

    def _open(self, name: str, qualifier=None) -> Span:
        span = Span(name, self.stack[-1] if self.stack else None, time.perf_counter(), qualifier)
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.seconds

    def root(self, verb: str, main, argv):
        span = self._open(f"cli.{verb}")
        try:
            return main(argv)
        finally:
            self._close(span)

    def wrap(self, name: str, fn):
        qualifier_pos = QUALIFIED.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            qualifier = None
            if qualifier_pos is not None:
                c = args[qualifier_pos] if len(args) > qualifier_pos else kwargs.get("c")
                qualifier = getattr(c, "value", None)
            span = self._open(name, qualifier)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                self._close(span)
            span.ok = getattr(result, "ok", None)
            span.iterations = getattr(result, "iterations", 0)
            return result

        return traced

    def install(self) -> None:
        modules = {m: importlib.import_module(f"fairrank.{m}") for m in MODULES}
        for layer, names in LAYERS.items():
            for fname in names:
                original = getattr(modules[layer], fname, None)
                if original is None:
                    continue
                name = f"{layer}.{fname}"
                self.functions.append(name)
                wrapper = self.wrap(name, original)
                for module in modules.values():
                    if getattr(module, fname, None) is original:
                        setattr(module, fname, wrapper)
                        self.patched.append((module, fname, original))

    def uninstall(self) -> None:
        for module, fname, original in reversed(self.patched):
            setattr(module, fname, original)
        self.patched.clear()

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics: `<layer>.<function>[.<class>].{s,self_s,calls,fail}`,
        `cli.<verb>.self_s`, and the derived counts named in BENCHMARK.json."""
        out: Dict[str, float] = {}
        keys = list(self.functions) + [f"cli.{v}" for v in VERBS]
        for name in keys:
            for stat in ("s", "self_s", "calls", "fail"):
                out[f"{name}.{stat}"] = 0
            if name in QUALIFIED:
                for c in CLASSES:
                    out[f"{name}.{c}.s"] = 0.0
                    out[f"{name}.{c}.calls"] = 0
        out["fixpoint.perron_fixed_point.iterations"] = 0
        out["fixpoint.verify_calls"] = 0
        out["optimize.weak_orders.checked"] = 0
        out["optimize.weak_orders.accepted"] = 0
        for span in self.spans:
            name = span.name
            out[f"{name}.s"] += span.seconds
            out[f"{name}.self_s"] += span.seconds - span.child_s
            out[f"{name}.calls"] += 1
            out[f"{name}.fail"] += span.failed
            if span.qualifier in CLASSES and name in QUALIFIED:
                out[f"{name}.{span.qualifier}.s"] += span.seconds
                out[f"{name}.{span.qualifier}.calls"] += 1
            if name == "fixpoint.perron_fixed_point":
                out["fixpoint.perron_fixed_point.iterations"] += span.iterations
            parent = None if span.parent is None else self.spans[span.parent].name
            if name == "ranking.is_fair" and parent == "fixpoint.linear_fair_ranking":
                out["fixpoint.verify_calls"] += span.qualifier == "lin"
            if name == "ranking.is_fair" and parent == "optimize.min_backward_fair":
                out["optimize.weak_orders.checked"] += 1
                out["optimize.weak_orders.accepted"] += bool(span.ok)
        checked = out["optimize.weak_orders.checked"]
        out["optimize.weak_orders.accept_ratio"] = (
            out["optimize.weak_orders.accepted"] / checked if checked else 0.0
        )
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "parent": span.parent, "name": span.name,
                    "qualifier": span.qualifier, "start": span.start, "end": span.end,
                    "self_s": span.seconds - span.child_s, "failed": span.failed,
                }) + "\n")

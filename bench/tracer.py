"""Per-layer spans recorded from outside the program.

Modules import each other's functions by name (``from .linalg import
charpoly``), so each listed function is rebound in every ``flatcert.*``
namespace that holds it, under every alias.  The span stack is thread-local;
spans opened on ``pmap`` worker threads take the ``pmap`` span as parent.
A span's self time is its duration minus the union of its children's
intervals (``pmap`` children overlap, so a plain sum would over-count).
Spans stay in memory until ``collect`` turns them into per-layer totals.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

# layer -> public functions timed in that layer
LAYERS = {
    "exact": ("factor_q", "complex_roots", "newton_slopes", "cyclotomic_index",
              "prime_factors", "make_field"),
    "linalg": ("charpoly", "is_diagonalizable", "kernel_basis", "block_decompose",
               "embed_regular", "order_bound"),
    "words": ("parse_word", "word_eval"),
    "places": ("discover_places", "classify", "drift_profile", "direction_profile"),
    "flats": ("gram", "length_sq", "flat_certificate"),
    "manifold": ("validate", "npc_certificate", "gluing_covariance"),
    "session": ("parse_session", "parse_graph"),
    "report": ("render_json",),
    "parallel": ("pmap",),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.spans: list[tuple] = []  # (id, name, parent, t0, t1, failed, tag)
        self._bound: list[tuple] = []  # (module, attribute, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            sid = next(tracer._ids)
            if name == "parallel.pmap":
                args = (_adopt(tracer, sid, args[0]),) + args[1:]
            stack.append(sid)
            failed, tag = True, None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                if name == "places.classify":
                    tag = result.tag
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, parent, t0, t1, failed, tag))

        return traced

    def install(self) -> None:
        """Rebind every listed function in every loaded flatcert module."""
        import flatcert
        import flatcert.cli  # noqa: F401  (load every module that holds a name)

        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "flatcert" or k.startswith("flatcert."))]
        for layer, fns in LAYERS.items():
            home = flatcert.exact if layer == "exact" else getattr(flatcert, layer)
            for fn_name in fns:
                original = getattr(home, fn_name)
                traced = self._wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)
                            self._bound.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bound):
            setattr(mod, attr, original)
        self._bound.clear()

    def collect(self) -> dict:
        """Per-layer totals of the spans recorded so far; clears them."""
        spans, self.spans = self.spans, []
        return aggregate(spans)


def _adopt(tracer: Tracer, sid: int, fn):
    """Run fn with the pmap span as parent, on whichever thread runs it."""

    def child(item):
        stack = tracer._stack()
        stack.append(sid)
        try:
            return fn(item)
        finally:
            stack.pop()

    return child


def aggregate(spans) -> dict:
    """{name: [calls, self_s, failed]} plus witness counts for classify calls
    whose parent is flat_certificate."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s[2]].append((s[3], s[4]))
    totals: dict = {name: [0, 0.0, 0] for name in SPAN_NAMES}
    witness = [0, 0]  # [non-ballistic, all]
    for sid, name, parent, t0, t1, failed, tag in spans:
        t = totals[name]
        t[0] += 1
        t[1] += (t1 - t0) - _covered(t0, t1, children.get(sid, ()))
        t[2] += failed
        under_flat = parent in by_id and by_id[parent][1] == "flats.flat_certificate"
        if name == "places.classify" and under_flat:
            witness[1] += 1
            witness[0] += tag is not None and tag != "Ballistic"
    return {"layers": totals, "witness": witness}


def _covered(t0: float, t1: float, intervals) -> float:
    """Length of the union of intervals, clipped to [t0, t1]."""
    total = 0.0
    end = t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total


def merge(into: dict, part: dict) -> dict:
    if not into:
        return {"layers": {k: list(v) for k, v in part["layers"].items()},
                "witness": list(part["witness"])}
    for name, vals in part["layers"].items():
        for i, v in enumerate(vals):
            into["layers"][name][i] += v
    for i, v in enumerate(part["witness"]):
        into["witness"][i] += v
    return into

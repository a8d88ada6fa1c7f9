"""Span recording from outside the program, for the benchmark's traced run.

The traced run replaces public functions of each layer with wrappers that
record a span (name, start, end, parent, order n) around every call.  A
function is wrapped where its caller looks it up, so the same function may
be wrapped in several modules under one span name.  ``Pcm`` is traced by
wrapping ``Pcm.__init__``, which keeps ``isinstance`` checks working.
Spans stay in memory; :func:`layer_metrics` turns them into per-layer
numbers once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

SPAN_ATTR = "__bench_span__"


def _n_of_first(args, result):
    return args[0].n


def _load_matrix(args, result):
    return result.shape[0], {"bytes": os.path.getsize(args[0])}


def _pcm_init(args, result):
    n = args[0].n
    return n, {"entries": n * n}


def _classify(args, result):
    return args[0].n, {f"kind.{result.kind.value}": 1}


def _power_iteration(args, result):
    return args[0].n, {"iterations": result.iterations}


def _is_efficient(args, result):
    return args[0].n, {"arcs": len(result.digraph.arcs), "inefficient": int(not result.efficient)}


def _order_only(fn):
    return lambda args, result: (fn(args, result), {})


# span name -> (where callers look the function up, what to observe)
# An observer returns (order n or None, counters to add under the span name).
LAYERS = {
    "cli.main": (["pcmeff.cli:main"], None),
    "matrixio.load_matrix": (["pcmeff.cli:load_matrix", "pcmeff.matrixio:load_matrix"],
                             _load_matrix),
    "pcm.Pcm": (["pcmeff.pcm:Pcm.__init__"], _pcm_init),
    "pcm.apply_perturbation": (["pcmeff.verification:apply_perturbation"],
                               _order_only(lambda a, r: r.n)),
    "pcm.classify_perturbation": (["pcmeff.cli:classify_perturbation"], _classify),
    "spectral.power_iteration": (["pcmeff.cli:power_iteration",
                                  "pcmeff.verification:power_iteration",
                                  "pcmeff.spectral:power_iteration"], _power_iteration),
    "spectral.lambda_max_closed_form": (["pcmeff.verification:lambda_max_closed_form",
                                         "pcmeff.spectral:lambda_max_closed_form"],
                                        _order_only(_n_of_first)),
    "spectral.raw_variant_vector": (["pcmeff.verification:raw_variant_vector",
                                     "pcmeff.spectral:raw_variant_vector"],
                                    _order_only(lambda a, r: len(r))),
    "spectral.closed_form_eigenvector": (["pcmeff.cli:closed_form_eigenvector"],
                                         _order_only(lambda a, r: len(r.w))),
    "efficiency.is_efficient": (["pcmeff.cli:is_efficient", "pcmeff.efficiency:is_efficient"],
                                _is_efficient),
    "efficiency.find_sink_improvement": (["pcmeff.cli:find_sink_improvement",
                                          "pcmeff.efficiency:find_sink_improvement"],
                                         _order_only(_n_of_first)),
    "verification.sweep": (["pcmeff.cli:run_lemma_suite"], None),
    "verification.check_lemma": (["pcmeff.verification:check_lemma"], None),
    "generators.sample": (["pcmeff.verification:sample_base"], None),
}


def _resolve(target: str):
    """'pkg.mod:Attr.sub' -> (object holding the last attribute, its name)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def installed_wrappers() -> list[str]:
    """Targets in :data:`LAYERS` that currently hold a span wrapper."""
    found = []
    for targets, _ in LAYERS.values():
        for target in targets:
            owner, attr = _resolve(target)
            if hasattr(getattr(owner, attr), SPAN_ATTR):
                found.append(target)
    return found


class Tracer:
    """In-memory span store.

    Each span is a tuple (index, name, start, end, parent index, n), appended
    when the call returns; tuples of plain values keep the store invisible
    to the cyclic garbage collector however many spans it holds.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next = itertools.count()

    def wrap(self, name: str, fn, observe=None):
        spans, stack, counts, next_index = self.spans, self._stack, self.counts, self._next

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = next(next_index)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((idx, name, start, perf_counter(), parent, None))
                raise
            finally:
                stack.pop()
            end = perf_counter()
            n = None
            if observe is not None:
                n, extra = observe(args, result)
                for key, value in extra.items():
                    counts[f"{name}.{key}"] += value
            spans.append((idx, name, start, end, parent, n))
            return result

        setattr(wrapper, SPAN_ATTR, name)
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target in :data:`LAYERS`; restore the originals on exit."""
        saved = []
        try:
            for name, (targets, observe) in LAYERS.items():
                for target in targets:
                    owner, attr = _resolve(target)
                    original = getattr(owner, attr)
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original, observe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = {}
    for idx, _, start, end, _, _ in spans:
        inner = [(max(s, start), min(e, end)) for s, e in children.get(idx, ())]
        out[idx] = (end - start) - _covered(inner)
    return out


def layer_metrics(spans, counts, wall_s: float, passes: int = 1) -> dict[str, float]:
    """Per-layer calls, self time, share of ``wall_s``, order medians and counters.

    Calls, self time and counters are per pass over the workload's inputs,
    so that counts repeat exactly whatever number of passes a run makes.
    ``trace.coverage`` is the part of ``wall_s`` that top-level spans cover.
    """
    out: dict[str, float] = defaultdict(float)
    by_order = defaultdict(list)
    own = self_times(spans)
    for idx, name, start, end, _, n in spans:
        out[f"{name}.calls"] += 1
        out[f"{name}.self_ms"] += own[idx] * 1e3
        if n is not None:
            by_order[f"{name}.n{n}.p50_ms"].append((end - start) * 1e3)
    out.update(counts)
    for key in out:
        out[key] /= passes
    for name in {s[1] for s in spans}:
        out[f"{name}.share"] = out[f"{name}.self_ms"] * passes / (wall_s * 1e3)
    for key, durations in by_order.items():
        out[key] = statistics.median(durations)
    out["trace.coverage"] = _covered((s[2], s[3]) for s in spans if s[4] < 0) / wall_s
    return dict(out)

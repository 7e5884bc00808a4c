"""Per-layer tracing from outside the library.

`Tracer.install` wraps every public function of the layer modules at
every module binding that refers to it, because modules import one
another's functions by name (`level_k_set` alone is bound in
`attractor`, `gaps`, `classify`, `spanning`, `render` and the package
namespace).  `GapCosets` methods are wrapped on the class.

Each wrapped call is a span.  Spans nest on a stack, and a span's self
time is its duration minus the time covered by its child spans.  Spans
are aggregated per function in memory (calls, total, self) rather than
kept one by one.  Spans are recorded only while `active` is set, so the
benchmark's own oracle calls into the library are not counted.

The scalar coercion helpers (`as_rational`, `parse_rational`,
`format_rational`) are not wrapped: they run once per Fraction built,
millions of times in a deep level set, and wrapping them would make the
traced run measure the tracer.  Their time counts as self time of the
caller.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("model", "attractor", "gaps", "dimension", "measure", "classify",
          "spanning", "serialize", "render", "cli")
UNWRAPPED = {"as_rational", "parse_rational", "format_rational"}


def _unknown(certificate) -> bool:
    return certificate.verdict.value == "Unknown"


# function -> (counter suffix, measure of one call's result)
COUNTERS = {
    "model.paths_from": ("paths_out", len),
    "attractor.level_k_set": ("intervals_out", len),
    "attractor.endpoint_witnesses": ("points_out", len),
    "attractor.refute_subset": ("found", lambda found: found is not None),
    "gaps.condition2_check": ("passed", lambda report: report.ok),
    "gaps.GapCosets.enumerate": ("members_out", len),
    "gaps.GapCosets.contains": ("true", bool),
    "classify.classify_gap_condition": ("unknown", _unknown),
    "classify.classify_measure_condition": ("unknown", _unknown),
    "classify.replay_certificate": ("accepted", bool),
    "spanning.span_search": ("hits_out", len),
    "render.render_svg": ("bytes_out", len),
}

# ratio metric -> (numerator, denominator), both suffixes of one function
RATIOS = {
    "attractor.level_k_set.distinct_ratio": ("distinct", "calls"),
    "attractor.refute_subset.found_ratio": ("found", "calls"),
    "attractor.refute_subset.target_level_mean": ("target_level_sum", "found"),
    "gaps.condition2_check.pass_ratio": ("passed", "calls"),
    "gaps.GapCosets.contains.true_ratio": ("true", "calls"),
    "classify.classify_gap_condition.unknown_ratio": ("unknown", "calls"),
    "classify.classify_measure_condition.unknown_ratio": ("unknown", "calls"),
    "classify.replay_certificate.accept_ratio": ("accepted", "calls"),
}


class _Stat:
    __slots__ = ("calls", "self_time")

    def __init__(self):
        self.calls = 0
        self.self_time = 0.0


class Tracer:
    """Aggregated spans and counters of one traced process."""

    def __init__(self):
        self.active = False
        self.stats: dict[str, _Stat] = {}
        self.counts = {f"{name}.{suffix}": 0 for name, (suffix, _m) in COUNTERS.items()}
        self.counts["attractor.refute_subset.target_level_sum"] = 0
        self.level_keys: set = set()  # distinct (system, vertex, k); systems hash by value
        self._children = [0.0]  # child time accumulated per open span

    def _count(self, name, args, result):
        suffix, measure = COUNTERS[name]
        self.counts[f"{name}.{suffix}"] += measure(result)
        if name == "attractor.level_k_set":
            self.level_keys.add(args[:3])
        elif name == "attractor.refute_subset" and result is not None:
            self.counts[f"{name}.target_level_sum"] += result.depths[1]

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name, func):
        stat = self.stats[name] = _Stat()
        counted = name in COUNTERS
        children = self._children
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            children.append(0.0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                inner = children.pop()
                stat.calls += 1
                stat.self_time += end - start - inner
                children[-1] += end - start
            if counted:
                self._count(name, args, result)
                # counting belongs to no span: hide its time from the parent
                children[-1] += clock() - end
            return result

        return functools.update_wrapper(traced, func)

    def install(self):
        """Wrap the layer functions of the imported `graphifs` package."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"graphifs.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and attr not in UNWRAPPED
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for module_name, module in list(sys.modules.items()):
            if module_name == "graphifs" or module_name.startswith("graphifs."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(module, attr, wrappers[obj])
        cosets = sys.modules["graphifs.gaps"].GapCosets
        for attr in ("enumerate", "contains"):
            setattr(cosets, attr,
                    self._wrap(f"gaps.GapCosets.{attr}", getattr(cosets, attr)))

    # -- report ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-function and per-layer figure this run collected."""
        out: dict[str, float] = {}
        layer_self: dict[str, float] = defaultdict(float)
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_s"] = stat.self_time
            layer_self[name.split(".", 1)[0]] += stat.self_time
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        out.update(self.counts)
        out["attractor.level_k_set.distinct"] = len(self.level_keys)
        for name, (num, den) in RATIOS.items():
            function = name.rsplit(".", 1)[0]
            base = out[f"{function}.{den}"]
            out[name] = out[f"{function}.{num}"] / base if base else 0.0
        return out

"""Per-layer tracing from outside the program.

`traced(tracer)` wraps the public functions listed in LAYERS at every
module attribute that binds them (`search` imports `is_d_leveled` by name,
`bounds` imports it too, `formats` reaches `from_facets` through the
class), records one span per call in memory, and restores the originals on
exit.  Functions whose cost per call is near the wrapper's, such as
`Graph.has_edge`, are not wrapped; their time shows as the caller's self
time.
"""

import os
import sys
from contextlib import contextmanager
from time import perf_counter


def _clique_cap_rejected(args, kwargs, result):
    stop_at = kwargs.get("stop_at", args[2] if len(args) > 2 else -1)
    return stop_at >= 0 and 1 + result > stop_at


def _classes_returned(args, kwargs, levels):
    # level 1 is the seed class; every later one came through canonical_key
    return sum(len(keys) for n, keys in levels.items() if n > 1)


def _file(args, kwargs, result):
    return os.path.basename(str(args[0])), os.path.getsize(args[0])


# layer name -> observer(args, kwargs, result) kept on the span, or None
LAYERS = {
    "kernels.canonical_key": None,
    "kernels.clique_number": _clique_cap_rejected,
    "kernels.maximal_cliques": None,
    "kernels.leveled_violation": None,
    "kernels.clique_counts": None,
    "kernels.k_cliques": None,
    "search.enumerate_classes": _classes_returned,
    "search.random_search": None,
    "search.check_instance": None,
    "structure.is_d_leveled": lambda args, kwargs, verdict: verdict.is_leveled,
    "structure.is_flag": None,
    "structure.is_weak_pseudomanifold": None,
    "formats.load_instances": _file,
    "formats.parse_edge_list": None,
    "formats.parse_graph6_line": None,
    "formats.parse_facet_list": None,
    "complexes.SimplicialComplex.from_facets": None,
    "complexes.SimplicialComplex.faces_by_size": None,
    "complexes.graph_f_vector": None,
    "complexes.h_vector": None,
    "complexes.gamma_vector": None,
    "bounds.verify_theorem_instance": None,
}

WITH_CALLS = ("kernels.canonical_key", "kernels.clique_number", "kernels.maximal_cliques",
              "kernels.leveled_violation", "kernels.clique_counts", "kernels.k_cliques",
              "structure.is_d_leveled", "bounds.verify_theorem_instance")


class Tracer:
    """Spans [name, start, end, parent index, observation], kept in memory."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, observe=None):
        spans, stack = self.spans, self._open

        def traced_call(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                span[4] = observe(args, kwargs, result)
            return result

        traced_call.__wrapped__ = fn
        return traced_call


@contextmanager
def traced(tracer):
    """Install tracer's wrappers on every loaded flagstone module; undo on exit."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "flagstone" or name.startswith("flagstone.")]
    undo = []
    try:
        for layer, observe in LAYERS.items():
            module_name, _, attr = layer.partition(".")
            owner = sys.modules[f"flagstone.{module_name}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = vars(cls)[attr]
                if isinstance(raw, classmethod):
                    replacement = classmethod(tracer.wrap(layer, raw.__func__, observe))
                else:
                    replacement = tracer.wrap(layer, raw, observe)
                undo.append((cls, attr, raw))
                setattr(cls, attr, replacement)
                continue
            original = getattr(owner, attr)
            wrapper = tracer.wrap(layer, original, observe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapper)
        yield tracer
    finally:
        for target, key, original in reversed(undo):
            setattr(target, key, original)


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(spans):
    """Per-layer counts, self times and ratios from one traced execution.

    Self time is a span's duration minus the time its child spans cover;
    calls are sequential, so children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, self_s, durations, observed = {}, {}, {}, {}
    for i, (name, start, end, parent, observation) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start - child[i])
        durations.setdefault(name, []).append(end - start)
        observed.setdefault(name, []).append(observation)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    def seen(layer):
        # a call that raised has no observation
        return [x for x in observed.get(layer, ()) if x is not None]

    metrics = {}
    for layer in LAYERS:
        if layer in WITH_CALLS:
            metrics[f"{layer}.calls"] = calls.get(layer, 0)
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    metrics["kernels.clique_number.prune_ratio"] = ratio(
        sum(seen("kernels.clique_number")), calls.get("kernels.clique_number", 0))
    metrics["search.enumerate_classes.dedup_ratio"] = ratio(
        sum(seen("search.enumerate_classes")), calls.get("kernels.canonical_key", 0))
    metrics["structure.is_d_leveled.accept_ratio"] = ratio(
        sum(seen("structure.is_d_leveled")), calls.get("structure.is_d_leveled", 0))
    metrics["formats.load_instances.mb_per_s"] = ratio(
        sum(size for _, size in seen("formats.load_instances")) / 1e6,
        sum(durations.get("formats.load_instances", ())))
    checks = durations.get("search.check_instance")
    # about 220 corpus instances leave 11 samples above the 95th percentile
    metrics["search.check_instance.p50_s"] = _percentile(checks, 0.50) if checks else 0.0
    metrics["search.check_instance.p95_s"] = _percentile(checks, 0.95) if checks else 0.0
    per_file = {}
    for name, start, end, _, file in spans:
        if name == "formats.load_instances" and file is not None:
            per_file[file[0]] = per_file.get(file[0], 0.0) + end - start
    total_s = {name: sum(values) for name, values in durations.items()}
    return metrics, {"self_s": self_s, "total_s": total_s, "load_instances_s": per_file}

"""Spans around bohrlab's module boundaries, recorded from outside src/.

``install`` wraps the public functions each layer offers the others and
rebinds every name that refers to them, in every bohrlab module that
imported one (``enumerate_bohr_candidates`` in ``regularity`` and
``productsets``, ``build_group`` in ``cli``, ...). A span records its name,
start, end, parent span and experiment id; spans stay in memory and are
written out once, by ``write``. A span's self time is its duration minus the
durations of its child spans; every wrapped name feeds exactly one
``*_self_s`` metric, so the self times of all layers add up to the time
spent inside ``run_experiment``.
"""

from __future__ import annotations

import gzip
import importlib
import math
import sys
import time

# (module, attribute, span name). Methods are given as "Class.method".
TARGETS = [
    ("bohrlab.cli", "run_experiment", "cli.run"),
    ("bohrlab.groups", "build_group", "groups.build"),
    ("bohrlab.groups", "product_set", "groups.product_set"),
    ("bohrlab.reps", "irreps_of", "reps.irreps"),
    ("bohrlab.reps", "abelian_characters", "reps.irreps_compute"),
    ("bohrlab.reps", "decompose_regular", "reps.irreps_compute"),
    ("bohrlab.reps", "measure_hom_residual", "reps.hom_residual"),
    ("bohrlab.reps", "direct_sum_hom", "reps.direct_sum"),
    ("bohrlab.reps", "UnitaryRep.identity_distances", "reps.distances"),
    ("bohrlab.bohr", "enumerate_bohr_candidates", "bohr.enumerate"),
    ("bohrlab.bohr", "bohr_set", "bohr.bohr_set"),
    ("bohrlab.bohr", "nm_refine", "bohr.nm_refine"),
    ("bohrlab.bohr", "greedy_cover", "bohr.greedy_cover"),
    ("bohrlab.regularity", "search_regular_bohr", "regularity.search"),
    ("bohrlab.regularity", "translate_defect", "regularity.translate_defect"),
    ("bohrlab.regularity", "largest_eps_constant_subset", "regularity.eps_subset"),
    ("bohrlab.productsets", "bogolyubov_search", "productsets.search"),
    ("bohrlab.productsets", "two_set_bogolyubov", "productsets.search"),
    ("bohrlab.productsets", "shift_invariance_search", "productsets.search"),
    ("bohrlab.productsets", "separated_cover", "productsets.separated_cover"),
    ("bohrlab.productsets", "quasirandom_check", "productsets.quasirandom"),
    ("bohrlab.convolve", "convolve", "convolve.convolve"),
    ("bohrlab.convolve", "convolve_fft_cyclic", "convolve.fft"),
    ("bohrlab.convolve", "overlap_function", "convolve.overlap"),
    ("bohrlab.stability", "ladder_index", "stability.ladder"),
] + [("bohrlab.gen", name, "gen.generate") for name in (
    "rng_from_seed", "random_subset", "random_subset_of_size",
    "random_pm1_function", "random_uniform_function",
    "random_indicator_function", "interval_subset", "halfrange_subset",
    "evens_subset", "remove_random_points")]

GENERATORS = {"bohr.enumerate"}

# Span name -> the per-layer metric that receives its self time.
SELF_METRIC = {
    "cli.run": "cli.self_s",
    "gen.generate": "gen.self_s",
    "groups.build": "groups.build_self_s",
    "groups.product_set": "groups.product_set_self_s",
    "reps.irreps": "reps.irreps_self_s",
    "reps.irreps_compute": "reps.irreps_self_s",
    "reps.hom_residual": "reps.hom_residual_self_s",
    "reps.direct_sum": "reps.direct_sum_self_s",
    "reps.distances": "reps.distances_self_s",
    "bohr.enumerate": "bohr.enumerate_self_s",
    "bohr.bohr_set": "bohr.bohr_set_self_s",
    "bohr.nm_refine": "bohr.nm_refine_self_s",
    "bohr.greedy_cover": "bohr.greedy_cover_self_s",
    "regularity.search": "regularity.search_self_s",
    "regularity.translate_defect": "regularity.translate_defect_self_s",
    "regularity.eps_subset": "regularity.eps_subset_self_s",
    "productsets.search": "productsets.search_self_s",
    "productsets.separated_cover": "productsets.separated_cover_self_s",
    "productsets.quasirandom": "productsets.quasirandom_self_s",
    "convolve.convolve": "convolve.self_s",
    "convolve.fft": "convolve.self_s",
    "convolve.overlap": "convolve.overlap_self_s",
    "stability.ladder": "stability.self_s",
}

CALL_METRIC = {
    "groups.build": "groups.build_calls",
    "groups.product_set": "groups.product_set_calls",
    "reps.irreps": "reps.irreps_calls",
    "reps.hom_residual": "reps.hom_residual_calls",
    "reps.direct_sum": "reps.direct_sum_calls",
    "reps.distances": "reps.distances_calls",
    "bohr.bohr_set": "bohr.bohr_set_calls",
    "regularity.translate_defect": "regularity.translate_defect_calls",
    "regularity.eps_subset": "regularity.eps_subset_calls",
    "convolve.convolve": "convolve.calls",
    "convolve.fft": "convolve.calls",
    "stability.ladder": "stability.ladder_calls",
}

LAYERS = ("groups", "reps", "bohr", "regularity", "productsets", "convolve",
          "stability", "cli", "gen")

COUNTERS = ("bohr.candidates", "bohr.distinct_realized", "regularity.translates",
            "convolve.flops_computed", "convolve.bytes_computed",
            "stability.nodes", "stability.budget_exhausted")


class Recorder:
    """In-memory span store; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # One tuple per span: (name id, start, end, parent index, experiment)
        self.spans: list = []
        self._stack: list[int] = []
        self.experiment = -1
        self.counters = dict.fromkeys(COUNTERS, 0)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, nid, idx, parent, start) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (nid, start, end, parent, self.experiment)

    def wrap(self, name: str, fn, observe=None):
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            idx, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(nid, idx, parent, start)
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn):
        """Each resumption of the generator is one span, parented to the
        consumer's current span; the consumer's work between items is not."""
        nid = self._name_id(name)
        counters = self.counters

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            distinct: set[bytes] = set()
            try:
                while True:
                    idx, parent = self._open()
                    start = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(nid, idx, parent, start)
                    counters["bohr.candidates"] += 1
                    distinct.add(item.realized.mask.tobytes())
                    yield item
            finally:
                counters["bohr.distinct_realized"] += len(distinct)
                inner.close()

        traced.__wrapped__ = fn
        return traced

    def observer(self, name: str):
        """The hook that turns a span's return value into work counters."""
        counters = self.counters
        if name == "regularity.translate_defect":
            def observe(cert):
                counters["regularity.translates"] += len(cert.per_translate)
        elif name == "convolve.convolve":
            def observe(h):
                n = h.group.order
                counters["convolve.flops_computed"] += 2 * n * n
                counters["convolve.bytes_computed"] += 8 * (n * n + 2 * n)
        elif name == "convolve.fft":
            def observe(h):
                n = h.group.order
                # three real FFTs of ~2.5 n log2 n flops plus the product
                counters["convolve.flops_computed"] += int(
                    7.5 * n * math.log2(max(n, 2)) + 6 * n)
                counters["convolve.bytes_computed"] += 8 * 6 * n
        elif name == "stability.ladder":
            def observe(res):
                counters["stability.nodes"] += res.nodes
                counters["stability.budget_exhausted"] += res.status == "inconclusive"
        else:
            observe = None
        return observe


def install(recorder: Recorder) -> None:
    """Wrap every target and rebind each bohrlab name bound to it."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "bohrlab" or name.startswith("bohrlab.")]
    for modname, attr, span in TARGETS:
        owner = importlib.import_module(modname)
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name)
            setattr(cls, meth, recorder.wrap(span, getattr(cls, meth)))
            continue
        orig = getattr(owner, attr)
        if span in GENERATORS:
            wrapped = recorder.wrap_generator(span, orig)
        else:
            wrapped = recorder.wrap(span, orig, recorder.observer(span))
        rebound = 0
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
                    rebound += 1
        if rebound == 0:
            raise RuntimeError(f"{modname}.{attr} is bound nowhere")


def layer_metrics(recorder: Recorder, times: list[float],
                  scale: list[float]) -> dict:
    """Per-layer metrics from the recorded spans.

    ``times`` are the traced experiments' times as the benchmark measured
    them around each ``run_experiment`` call, already multiplied by the
    experiment's speed factor ``scale[i]``; span times get the same factor.
    What the spans do not cover is ``trace.unattributed_s``.
    """
    spans = recorder.spans
    names = recorder.names
    n = len(spans)
    child_time = [0.0] * n
    has_compute_child = [False] * n
    compute_ids = {i for i, nm in enumerate(names) if nm == "reps.irreps_compute"}
    for nid, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
            if nid in compute_ids:
                has_compute_child[parent] = True

    metrics = {m: 0.0 for m in SELF_METRIC.values()}
    metrics.update({m: 0 for m in CALL_METRIC.values()})
    metrics.update(recorder.counters)
    irreps_id = recorder._ids.get("reps.irreps", -1)
    irreps_hits = 0
    for i, (nid, start, end, parent, exp) in enumerate(spans):
        name = names[nid]
        metrics[SELF_METRIC[name]] += ((end - start) - child_time[i]) * scale[exp]
        if name in CALL_METRIC:
            metrics[CALL_METRIC[name]] += 1
        if nid == irreps_id and not has_compute_child[i]:
            irreps_hits += 1

    calls = metrics["reps.irreps_calls"]
    metrics["reps.irreps_cache_hit_ratio"] = irreps_hits / calls if calls else 0.0
    cand = metrics["bohr.candidates"]
    metrics["bohr.distinct_realized_ratio"] = (
        metrics["bohr.distinct_realized"] / cand if cand else 0.0)
    nodes = metrics["stability.nodes"]
    metrics["stability.us_per_node"] = (
        metrics["stability.self_s"] / nodes * 1e6 if nodes else 0.0)
    attributed = sum(metrics[m] for m in set(SELF_METRIC.values()))
    metrics["trace.experiment_s"] = sum(times)
    metrics["trace.unattributed_s"] = metrics["trace.experiment_s"] - attributed
    metrics["trace.spans"] = n
    return metrics


def layer_self(metrics: dict) -> dict:
    """Total self time per layer."""
    out = dict.fromkeys(LAYERS, 0.0)
    for metric in set(SELF_METRIC.values()):
        out[metric.split(".")[0]] += metrics[metric]
    return out


def write(recorder: Recorder, path) -> None:
    """Write every span, one tab-separated line each, gzip-compressed."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("name\tstart\tend\tparent\texperiment\n")
        names = recorder.names
        for nid, start, end, parent, exp in recorder.spans:
            fh.write(f"{names[nid]}\t{start!r}\t{end!r}\t{parent}\t{exp}\n")

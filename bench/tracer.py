"""Traced-run recorder: spans and counters around flagdyn's layer boundaries.

Installed at runtime from the benchmark's own files; nothing under
``src/`` changes. Each wrapped callable records a span (name, start,
end, parent span) in memory; spans are written once, when the run ends.
Callables hit more than about 10^5 times per pass get count-only
wrappers, so timing them does not swamp what they do.

Layer names are module names. Per-pass figures come from ``end_pass``;
a layer's self time is its spans' duration minus the part covered by
their child spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from array import array
from time import perf_counter

import numpy as np

import flagdyn

# (module, attribute path, span name, mode); mode "count" = count-only.
# Named hot spots first; every other public function is added by
# ``_public_functions`` under the name "<module>.<function>".
HOT_SPOTS = [
    ("linalg", "Matrix.__init__", "linalg.Matrix", "count"),
    ("linalg", "Matrix.__matmul__", "linalg.matmul", "span"),
    ("words", "GroupPresentation.evaluate", "words.evaluate", "span"),
    ("domains", "ChartBall.arc", "domains.ChartBall.arc", "span"),
    ("domains", "ChartBall.boundary_coords", "domains.sample", "span"),
    ("domains", "ChartBall.interior_coords", "domains.sample", "span"),
    ("domains", "ConvexPolytope.boundary_coords", "domains.sample", "span"),
    ("domains", "ConvexPolytope.interior_coords", "domains.sample", "span"),
    ("domains", "SampledSet.boundary_coords", "domains.sample", "span"),
    ("domains", "SampledSet.interior_coords", "domains.sample", "span"),
    ("automaton", "_containment_margin", "automaton.containment_margin", "span"),
    ("synth", "_ConicalSearcher.__init__", "synth.searcher_init", "span"),
    ("synth", "_ConicalSearcher.candidate", "synth.candidate", "span"),
    ("synth", "_ConicalSearcher._image_arcs", "synth.image_arcs", "span"),
    ("synth", "_coset_candidates", "synth.coset_candidates", "span"),
    ("synth", "_parabolic_vertex", "synth.parabolic_vertex", "span"),
    ("conedoff", "ConedGraph.neighbors", "conedoff.neighbors", "span"),
    ("conedoff", "ConedGraph._coset_key", "conedoff.coset_key", "span"),
    ("conedoff", "_int_mul", "conedoff.int_mul", "count"),
    # public helpers past 10^5 calls per pass on pgl2z
    ("words", "normalize_word", "words.normalize_word", "count"),
    ("circle", "angle_dist", "circle.angle_dist", "count"),
    ("conedoff", "ConedGraph.set_distances", "conedoff.set_distances", "span"),
    ("config", "RunConfig.load", "config.load", "span"),
]

# Per-layer metrics that are ratios of two per-pass counters; every other
# declared metric (BENCHMARK.json "per_layer") is a counter read as is.
RATIOS = {
    "words.evaluate.hit_ratio": ("words.evaluate.hits", "words.evaluate.calls"),
    "projgeom.chart_basis.unique_ratio": ("projgeom.chart_basis.distinct",
                                          "projgeom.chart_basis.calls"),
    "domains.sample.unique_ratio": ("domains.sample.distinct", "domains.sample.calls"),
    "synth.candidate.hit_ratio": ("synth.candidate.hits", "synth.candidate.calls"),
    "synth.parabolic_vertex.success_ratio": ("synth.parabolic_vertex.successes",
                                             "synth.parabolic_vertex.calls"),
}


def _ratio(num, den):
    return num / den if den else 0.0


class Recorder:
    def __init__(self):
        self.names = []
        self._name_idx = {}
        # one span = (name index, parent span index) + (start, end)
        self.span_ids = array("q")
        self.span_times = array("d")
        self.stack = []
        self.cells = {}  # count-only wrappers: "<name>.calls" -> [count]
        self._begin_pass_state()

    def _begin_pass_state(self):
        self.counts = {}  # "<name>.<counter>" -> int, for this pass
        self.distinct = {}  # counter -> set of request keys, for this pass
        self.values = {}  # counter -> list of observed values, for this pass
        self.keepalive = []  # objects whose id() is part of a request key
        self.first_span = len(self.span_times) // 2

    def name_index(self, name):
        if name not in self._name_idx:
            self._name_idx[name] = len(self.names)
            self.names.append(name)
        return self._name_idx[name]

    def add(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def see(self, key, item):
        self.distinct.setdefault(key, set()).add(item)

    # -- wrappers --------------------------------------------------------

    def span(self, name, fn, before=None, after=None):
        idx_name = self.name_index(name)
        calls = name + ".calls"
        ids, times, stack = self.span_ids, self.span_times, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = self.counts
            counts[calls] = counts.get(calls, 0) + 1
            if before is not None:
                before(self, args, kwargs)
            me = len(times) // 2
            ids.append(idx_name)
            ids.append(stack[-1] if stack else -1)
            times.append(0.0)
            times.append(0.0)
            stack.append(me)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                times[2 * me] = t0
                times[2 * me + 1] = t1
            if after is not None:
                after(self, args, kwargs, out)
            return out

        return wrapper

    def counter(self, name, fn):
        cell = self.cells.setdefault(name + ".calls", [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- passes ----------------------------------------------------------

    def end_pass(self, extra_counts=None):
        """Close the current pass; return its counts, ratios and self times."""
        for key, cell in self.cells.items():
            self.counts[key] = self.counts.get(key, 0) + cell[0]
            cell[0] = 0
        counts = dict(self.counts)
        counts.update(extra_counts or {})
        first = self.first_span
        n = len(self.span_times) // 2 - first
        # slices copy, so the arrays hold no buffer export and can keep growing
        ids = np.frombuffer(self.span_ids[2 * first:], dtype=np.int64).reshape(-1, 2)
        times = np.frombuffer(self.span_times[2 * first:], dtype=np.float64).reshape(-1, 2)
        dur = times[:, 1] - times[:, 0]
        child = np.zeros(n)
        parents = ids[:, 1] - first
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_t = np.bincount(ids[:, 0], weights=dur - child, minlength=len(self.names))
        for i, name in enumerate(self.names):
            if self_t[i] or name + ".calls" in counts:
                counts[name + ".self_s"] = float(self_t[i])
        for key, items in self.distinct.items():
            counts[key + ".distinct"] = len(items)
        for key, vals in self.values.items():
            counts[key + ".p50"] = float(statistics.median(vals)) if vals else 0.0
        self._begin_pass_state()
        return counts

    def write(self, path):
        """Spans of the whole run as one compressed file."""
        ids = np.array(self.span_ids, dtype=np.int64).reshape(-1, 2)
        times = np.array(self.span_times, dtype=np.float64).reshape(-1, 2)
        np.savez_compressed(path, names=np.array(json.dumps(self.names)),
                            name=ids[:, 0].astype(np.int32), parent=ids[:, 1],
                            start=times[:, 0], end=times[:, 1])


# -- per-call counters for the named hot spots -----------------------------------


def _matmul_before(rec, args, kwargs):
    a, b = args
    exact = a.exact is not None and b.exact is not None
    rec.add("linalg.matmul_exact.calls" if exact else "linalg.matmul_float.calls")


def _make_evaluate_before(normalize_word):
    def before(rec, args, kwargs):
        rho, word = args
        seen = rho.__dict__.setdefault("_bench_seen", set())
        w = normalize_word(word)
        if w in seen:
            rec.add("words.evaluate.hits")
        else:
            seen.add(w)
    return before


def _chart_basis_before(rec, args, kwargs):
    rec.see("projgeom.chart_basis", args[0].covector.tobytes())


def _act_many_before(rec, args, kwargs):
    rec.add("projgeom.act_many.rows", len(args[1]))


def _fs_many_before(rec, args, kwargs):
    rec.add("projgeom.fubini_study_many.pairs", len(args[0]) * len(args[1]))


def _make_sample_before(method):
    def before(rec, args, kwargs):
        dom, n = args[0], args[1]
        seed = args[2] if len(args) > 2 else kwargs.get("seed", 0)
        rec.keepalive.append(dom)
        rec.see("domains.sample", (id(dom), method, n, seed))
    return before


def _sample_after(rec, args, kwargs, out):
    rec.add("domains.sample.points", len(out))


def _records_after(rec, args, kwargs, cert):
    rec.add("automaton.records", len(cert.records))


def _searcher_after(rec, args, kwargs, out):
    searcher = args[0]
    rec.add("synth.pool.words", len(searcher.words))
    searcher.__dict__["_bench_index"] = {w: i for i, w in enumerate(searcher.words)}


def _candidate_after(rec, args, kwargs, out):
    if out is not None:
        rec.add("synth.candidate.hits")
        rec.values.setdefault("synth.candidate.first_hit", []).append(
            args[0].__dict__["_bench_index"][out.word])


def _image_arcs_before(rec, args, kwargs):
    rec.add("synth.image_arcs.rows", len(args[1]))


def _parabolic_after(rec, args, kwargs, out):
    rec.add("synth.parabolic_vertex.successes")


HOOKS = {
    "linalg.matmul": (_matmul_before, None),
    "projgeom.chart_basis": (_chart_basis_before, None),
    "projgeom.act_many": (_act_many_before, None),
    "projgeom.fubini_study_many": (_fs_many_before, None),
    "automaton.verify_compatibility": (None, _records_after),
    "synth.searcher_init": (None, _searcher_after),
    "synth.candidate": (None, _candidate_after),
    "synth.image_arcs": (_image_arcs_before, None),
    "synth.parabolic_vertex": (None, _parabolic_after),
    "domains.sample": (None, _sample_after),
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield name


def install():
    """Wrap every public function of each flagdyn module plus the hot spots.

    A module-level function is rebound in every flagdyn module namespace
    that holds it (``from .x import f`` copies the reference); a method
    is rebound on the class that defines it.
    """
    mods = {name.split(".", 1)[1]: module for name, module in sorted(sys.modules.items())
            if name.startswith("flagdyn.")}
    rec = Recorder()
    hooks = dict(HOOKS)
    hooks["words.evaluate"] = (_make_evaluate_before(mods["words"].normalize_word), None)

    targets = [(m, attr, name, mode) for m, attr, name, mode in HOT_SPOTS]
    taken = {(m, attr) for m, attr, _, _ in HOT_SPOTS}
    for m, module in mods.items():
        for fname in _public_functions(module):
            if (m, fname) not in taken:
                targets.append((m, fname, f"{m}.{fname}", "span"))

    for m, attr, name, mode in targets:
        owner = mods[m]
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(owner, cls_name)
            raw = owner.__dict__[meth]
        else:
            raw = getattr(owner, attr)
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        if mode == "count":
            wrapped = rec.counter(name, fn)
        else:
            before, after = hooks.get(name, (None, None))
            if name.startswith("domains.sample"):
                before = _make_sample_before(attr.split(".")[-1])
            wrapped = rec.span(name, fn, before, after)
        if isinstance(raw, classmethod):
            wrapped = classmethod(wrapped)
        if owner is mods[m]:
            for module in [flagdyn] + list(mods.values()):
                if module.__dict__.get(attr) is raw:
                    setattr(module, attr, wrapped)
        else:
            setattr(owner, meth, wrapped)
    return rec


def layer_metrics(counts, names):
    """The named per-layer metrics of one pass, from ``end_pass`` output."""
    out = {}
    for key in names:
        if key in RATIOS:
            num, den = RATIOS[key]
            out[key] = _ratio(counts.get(num, 0), counts.get(den, 0))
        elif key == "synth.candidate.first_hit_p50":
            out[key] = counts.get("synth.candidate.first_hit.p50", 0)
        else:
            out[key] = counts.get(key, 0)
    return out

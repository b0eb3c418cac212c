"""Spans around the public functions of every eicount module.

A :class:`Tracer` replaces each traced function wherever the package binds
it (``linegraphs`` imports ``count_perfect_matchings`` from ``oracles``, so
both names are patched) and restores the originals on :meth:`Tracer.remove`.
Spans stay in memory; :meth:`Tracer.layer_metrics` reduces them to self time
(a span's duration minus the time covered by its child spans), call counts,
error counts and the derived ratios the benchmark reports.
"""

from __future__ import annotations

import functools
import math
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

# (attribute of eicount.<module>, kind); the module is the layer.  "span" times a
# call, "gen" times only the work done inside a generator, "count" counts
# calls without timing them (the function is too hot for a span).
TRACED = [
    ("graphs.parse_graph", "span"),
    ("graphs.serialize_graph", "span"),
    ("graphs.quotient", "span"),
    ("graphs.minimum_vertex_cover", "span"),
    ("graphs.line_graph", "span"),
    ("graphs.Graph.__init__", "span"),
    ("oracles.count_hom", "span"),
    ("oracles.count_emb", "span"),
    ("oracles.count_edginj", "span"),
    ("oracles.count_edginj_weighted", "span"),
    ("oracles.count_matchings", "span"),
    ("oracles.matchings_profile", "span"),
    ("oracles.count_perfect_matchings", "span"),
    ("oracles.count_odd_edge_sets_enum", "span"),
    ("oracles.is_isomorphic", "span"),
    ("eihom.count_edginj_poly", "span"),
    ("eihom.reduce_isolated", "span"),
    ("eihom.enumerate_classes", "gen"),
    ("eihom.realized_classes", "gen"),
    ("eihom.class_size", "span"),
    ("eihom.build_representative", "span"),
    ("eihom.count_emb_small_vc", "span"),
    ("exact.interpolate", "span"),
    ("exact.recover_unknowns", "span"),
    ("exact.solve_rational", "span"),
    ("exact.Polynomial.compose", "span"),
    ("exact.gf2_solution_count", "span"),
    ("exact.multinomial", "count"),
    ("linegraphs.decompose_3regular_line", "span"),
    ("linegraphs.count_odd_edge_sets", "span"),
    ("linegraphs.count_perfmatch_3regular_line", "span"),
    ("linegraphs.perfmatch_via_line_reduction", "span"),
    ("linegraphs.replace_matching_with_collars", "span"),
    ("reductions.count_matchings_via_wedges", "span"),
    ("reductions.wedge_packings_in_hub", "span"),
    ("reductions.wedge_classification", "span"),
    ("reductions.count_matchings_via_apex", "span"),
    ("reductions.count_matchings_via_star", "span"),
    ("reductions.count_simple_cycles_via_gadget", "span"),
    ("reductions.unweight_cycles", "span"),
    ("reductions.ec_cycles_via_paths", "span"),
    ("holant.col_holant", "span"),
    ("holant.col_sig", "span"),
    ("holant.expand_combined", "span"),
    ("holant.colmatch_via_subdivision", "span"),
    ("cli.main", "span"),
]
KERNELS = ["count_maps", "count_perfect_matchings", "count_odd_edge_sets"]
VERIFY_SUITES = ["match-holant", "combined-sig", "gamma", "subdiv", "wedge",
                 "apex", "star", "collar", "odd-gf2", "cycle-gadget",
                 "unweight", "ec-paths", "eihom-poly"]
LAYERS = ["graphs", "kernels", "oracles", "eihom", "exact", "linegraphs",
          "reductions", "holant", "verify", "cli"]

# Spans whose first argument's size is recorded, for growth exponents.
SIZE_OF = {
    "graphs.parse_graph": lambda text, *a, **k: text.count("\n"),
    "linegraphs.decompose_3regular_line": lambda g, *a, **k: g.n,
    "eihom.count_edginj_poly": lambda h, g, *a, **k: (h.n, h.edges, g.n),
}


def span_name(dotted: str) -> str:
    """Metric stem of a traced attribute: ``graphs.Graph.__init__`` is
    reported as ``graphs.Graph``."""
    return dotted.removesuffix(".__init__")


def _timed_names():
    names = [span_name(d) for d, kind in TRACED if kind != "count"]
    names += [f"kernels.{k}" for k in KERNELS]
    names += [f"verify.{s}" for s in VERIFY_SUITES]
    return names


# The call count of a verify suite or of cli.main equals the number of
# operations, so only their self time is reported.
_ONCE_PER_OP = {f"verify.{s}" for s in VERIFY_SUITES} | {"cli.main"}

DERIVED = [
    ("graphs.parse_graph.growth_exponent", "1", "lower"),
    ("linegraphs.decompose_3regular_line.growth_exponent", "1", "lower"),
    ("eihom.count_edginj_poly.growth_exponent", "1", "lower"),
    ("eihom.classes.enumerated", "count", "lower"),
    ("eihom.classes.realized", "count", "lower"),
    ("eihom.classes.realized_ratio", "ratio", "higher"),
    ("eihom.pattern_repeat_share", "ratio", "higher"),
    ("cli.import_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for name in _timed_names():
        specs.append((f"{name}.self_s", "s", "lower"))
        if name not in _ONCE_PER_OP:
            specs.append((f"{name}.calls", "count", "lower"))
    specs += [(span_name(d) + ".calls", "count", "lower")
              for d, kind in TRACED if kind == "count"]
    specs += [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    specs += DERIVED
    return specs


def _layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Installs spans into the loaded eicount package; one per traced run."""

    def __init__(self):
        # span record: [name, start, end, parent index, raised, size]
        self.spans = []
        self.calls = Counter()
        self.yields = Counter()
        self._stack = []
        self._patches = []

    # -- span primitives ---------------------------------------------------

    def _open(self, name, size=None):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               False, size]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = perf_counter()
        self._stack.pop()

    def _span(self, name, fn):
        size_of = SIZE_OF.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            rec = self._open(name, size_of(*args, **kwargs) if size_of else None)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[4] = True
                raise
            finally:
                self._close(rec)
        return wrapper

    def _gen(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            it = fn(*args, **kwargs)
            try:
                while True:
                    rec = self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    except BaseException:
                        rec[4] = True
                        raise
                    finally:
                        self._close(rec)
                    self.yields[name] += 1
                    yield item
            finally:
                it.close()
        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _run_kernel(self, fn):
        spans = {k: self._span(f"kernels.{k}", fn) for k in KERNELS}

        @functools.wraps(fn)
        def wrapper(name, *args, **kwargs):
            return spans[name](name, *args, **kwargs)
        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _bind_everywhere(self, orig, wrapped):
        """Replace ``orig`` in every loaded eicount module namespace."""
        for modname, mod in list(sys.modules.items()):
            if not (modname == "eicount" or modname.startswith("eicount.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, attr, wrapped)

    def install(self):
        import eicount.cli  # noqa: F401  (loads every traced module)
        from eicount import _backend, verify

        pkg = sys.modules["eicount"]
        for dotted, kind in TRACED:
            modname, _, rest = dotted.partition(".")
            owner = getattr(pkg, modname)
            *path, attr = rest.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
            name = span_name(dotted)
            wrapped = {"span": self._span, "gen": self._gen,
                       "count": self._count}[kind](name, orig)
            if isinstance(owner, types.ModuleType):
                self._bind_everywhere(orig, wrapped)
            else:
                self._set(owner, attr, wrapped)
        self._bind_everywhere(_backend.run_kernel,
                              self._run_kernel(_backend.run_kernel))
        if sorted(verify.SUITES) != sorted(VERIFY_SUITES):
            raise RuntimeError(f"verify suites changed: {sorted(verify.SUITES)}")
        for suite, fn in list(verify.SUITES.items()):
            self._patches.append((verify.SUITES, suite, fn))
            verify.SUITES[suite] = self._span(f"verify.{suite}", fn)

    def remove(self):
        for owner, attr, old in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    # -- reduction ---------------------------------------------------------

    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def errors(self):
        out = Counter()
        for name, _, _, _, raised, _ in self.spans:
            if raised:
                out[name] += 1
        return out

    def _durations_by_size(self, name):
        by_size = defaultdict(list)
        for rec in self.spans:
            if rec[0] == name and not rec[4]:
                by_size[rec[5]].append(rec[2] - rec[1])
        return by_size

    def growth_exponent(self, name):
        """Slope of log(median time) against log(size) between the two
        largest sizes seen; 0 when fewer than two sizes were traced."""
        by_size = self._durations_by_size(name)
        if len(by_size) < 2:
            return 0.0
        (s1, t1), (s2, t2) = [(s, _median(ts))
                              for s, ts in sorted(by_size.items())[-2:]]
        if s1 <= 0 or t1 <= 0 or t2 <= 0:
            return 0.0
        return math.log(t2 / t1) / math.log(s2 / s1)

    def poly_growth_exponent(self):
        """Least-squares slope of log(total time) against log(host size)
        over the patterns that were queried at every host size."""
        per_pattern = defaultdict(lambda: defaultdict(float))
        for size, durations in self._durations_by_size(
                "eihom.count_edginj_poly").items():
            pat_n, pat_edges, host_n = size
            per_pattern[(pat_n, pat_edges)][host_n] += sum(durations)
        host_sizes = sorted({n for d in per_pattern.values() for n in d})
        full = [d for d in per_pattern.values() if len(d) == len(host_sizes)]
        if len(host_sizes) < 2 or not full:
            return 0.0
        xs = [math.log(n) for n in host_sizes]
        ys = [math.log(sum(d[n] for d in full)) for n in host_sizes]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                / sum((x - mx) ** 2 for x in xs))

    def pattern_repeat_share(self):
        seen, repeats, total = set(), 0, 0
        for rec in self.spans:
            if rec[0] == "eihom.count_edginj_poly":
                key = rec[5][:2]
                repeats += key in seen
                seen.add(key)
                total += 1
        return repeats / total if total else 0.0

    def layer_metrics(self, import_s, overhead_ratio):
        """Every name of :func:`metric_specs` mapped to its value."""
        self_s = self.self_times()
        errors = self.errors()
        values = {}
        for name in _timed_names():
            values[f"{name}.self_s"] = self_s.get(name, 0.0)
            values[f"{name}.calls"] = self.calls.get(name, 0)
        for dotted, kind in TRACED:
            if kind == "count":
                values[span_name(dotted) + ".calls"] = self.calls.get(span_name(dotted), 0)
        for layer in LAYERS:
            values[f"{layer}.errors"] = sum(
                c for n, c in errors.items() if _layer_of(n) == layer)
        enumerated = self.yields.get("eihom.enumerate_classes", 0)
        realized = self.yields.get("eihom.realized_classes", 0)
        values.update({
            "graphs.parse_graph.growth_exponent":
                self.growth_exponent("graphs.parse_graph"),
            "linegraphs.decompose_3regular_line.growth_exponent":
                self.growth_exponent("linegraphs.decompose_3regular_line"),
            "eihom.count_edginj_poly.growth_exponent": self.poly_growth_exponent(),
            "eihom.classes.enumerated": enumerated,
            "eihom.classes.realized": realized,
            "eihom.classes.realized_ratio": realized / enumerated if enumerated else 0.0,
            "eihom.pattern_repeat_share": self.pattern_repeat_share(),
            "cli.import_s": import_s,
            "trace.overhead_ratio": overhead_ratio,
        })
        return {name: values[name] for name, _, _ in metric_specs()}

    def dump(self):
        """Spans as plain lists for the result file."""
        return [[n, round(s, 9), round(e, 9), p, r] for n, s, e, p, r, _ in self.spans]


def _median(xs):
    xs = sorted(xs)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2

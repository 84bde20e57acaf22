"""Layer spans recorded from outside the program.

`install` replaces each traced public function of dualcoh, in every dualcoh
module that holds it, with a wrapper that records a span: name, start, end
and the span that was open when it was called.  Spans stay in memory; the
worker aggregates them after the timed section.  Nothing here changes what
the program computes: the wrappers call the original with the original
arguments and return its result.

Span names are `<layer>.<function>`.  The per-layer metrics are self times
(a span's duration minus the time its child spans cover), summed over the
spans each metric names in LAYER_TIMES.  Check suites and single checks are
reported inclusively, as a user of `dualcoh check` sees them.
"""

import functools
import inspect
import sys
import time

# (module, attribute, span name) for each traced public function.
TRACED = (
    ("rings", "su_algebra", "rings.su_algebra"),
    ("rings", "sp_group_algebra", "rings.sp_group_algebra"),
    ("rings", "su_so_algebra", "rings.su_so_algebra"),
    ("rings", "lagrangian_algebra", "rings.lagrangian_algebra"),
    ("rings", "grassmannian_algebra", "rings.grassmannian_algebra"),
    ("algebra", "tensor_product", "rings.tensor_product"),
    ("algebra", "pairs_nontrivially_with_ideal", "algebra.witness"),
    ("algebra", "poincare_polynomial", "algebra.poincare"),
    ("catalog", "build_family", "catalog.build_family"),
    ("catalog", "decide_nonvanishing", "catalog.decide_nonvanishing"),
    ("catalog", "decide_ghost", "catalog.decide_ghost"),
    ("morphisms", "gysin_fundamental_class", "morphisms.gysin"),
    ("report", "run_family", "report.run_family"),
    ("report", "run_checks", "report.run_checks"),
    ("report", "element_pairs", "report.element_pairs"),
)

# Per-layer time metric -> span-name prefixes whose self times it sums.
LAYER_TIMES = {
    "rings.build_s": ("rings.",),
    "catalog.build_family_s": ("catalog.build_family",),
    "catalog.ghost_s": ("catalog.decide_ghost",),
    "morphisms.gysin_s": ("morphisms.gysin",),
    "algebra.witness_s": ("algebra.witness",),
    "algebra.poincare_s": ("algebra.poincare",),
    "report.serialize_s": ("report.",),
}


class Recorder:
    """Spans of one traced repetition, plus the call data the counters need."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self._open = []
        self.gysin_dim = 0       # sum of Gysin unknowns, from the public dims
        self.witness_calls = []  # (class, ideal generators) per witness search

    def wrap(self, name, fn, before=None, after=None):
        """`fn` timed as span `name`.  `before(arguments)` runs untimed
        first, with the call's arguments bound to parameter names;
        `after(span, arguments, result)` may rename the span or record data."""
        rec = self
        sig = inspect.signature(fn) if before or after else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments if sig else None
            if before is not None:
                before(bound)
            span = [name, 0.0, 0.0, rec._open[-1] if rec._open else -1]
            rec._open.append(len(rec.spans))
            rec.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                rec._open.pop()
            if after is not None:
                after(span, bound, result)
            return result

        return traced

    def _count_gysin(self, arguments):
        src, tgt = arguments["morphism"].source, arguments["morphism"].target
        self.gysin_dim += src.dims(src.top_degree - tgt.top_degree)

    def _keep_witness(self, span, arguments, result):
        self.witness_calls.append((arguments["v"], arguments["ideal_gens"]))

    def self_times(self):
        """{span name: (summed self time, summed inclusive time, calls)}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), c in zip(self.spans, child):
            s, i, n = out.get(name, (0.0, 0.0, 0))
            out[name] = (s + (end - start) - c, i + (end - start), n + 1)
        return out


def _name_by_result(span, arguments, result):
    span[0] = f"checks.{result.name}"


def install(recorder):
    """Route every traced dualcoh function through `recorder`."""
    import dualcoh.checks
    import dualcoh.report

    mods = {n: sys.modules[f"dualcoh.{n}"]
            for n in ("algebra", "catalog", "checks", "cli", "morphisms",
                      "report", "rings")}
    holders = [*mods.values(), sys.modules["dualcoh"]]
    hooks = {"morphisms.gysin": (recorder._count_gysin, None),
             "algebra.witness": (None, recorder._keep_witness)}
    swaps = []
    for mod, attr, name in TRACED:
        before, after = hooks.get(name, (None, None))
        orig = getattr(mods[mod], attr)
        swaps.append((orig, recorder.wrap(name, orig, before, after)))
    for attr, fn in vars(dualcoh.checks).items():
        if attr.startswith("check_") and callable(fn):
            swaps.append((fn, recorder.wrap(attr, fn, after=_name_by_result)))
    for orig, traced in swaps:
        for mod in holders:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, traced)
    suites = dualcoh.checks.SUITES
    for suite, fn in list(suites.items()):
        suites[suite] = recorder.wrap(f"checks.suite.{suite}", fn)
    doc = dualcoh.report.ReportDocument
    doc.to_json = recorder.wrap("report.to_json", doc.to_json)

"""Per-layer spans and counters, installed on crkit from outside.

``Tracer.install()`` replaces crkit functions with wrappers and
``Tracer.remove()`` puts every original object back. Nothing under
``src/`` knows about it.

* Public module functions of the upper layers (solvers, linalg, rank,
  hypersurface, reflection, documents, cli) and series ``compose`` get a
  span. A module function is replaced in its defining module and in every
  crkit module that imported the name, so ``compose`` is traced whether it
  is called from series, hypersurface, reflection or solvers.
* ``TruncatedSeries.__mul__`` (series by series) and ``.derive`` get spans
  on the class; ``Hypersurface.phibar`` is counted through its property.
* ``GaussRational`` arithmetic and ``TruncatedSeries`` construction get
  counters only, because a span per call would swamp the run.
* ``rank.minors_tried`` counts calls of ``crkit.rank._series_det``, the
  determinant routine rank certification calls. The name is private and
  pinned here: if it moves, ``install`` fails loudly instead of reporting
  zero.

Spans are folded into per-name totals as they close (calls, seconds, self
seconds), so memory stays flat however many kernel calls a run makes. Self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

SPAN_MODULES = ("solvers", "linalg", "rank", "hypersurface", "reflection", "documents", "cli")
# Span names that differ from "<module>.<function>"
RENAMED = {
    "documents.parse_document": "documents.parse",
    "documents.serialize_report": "documents.serialize",
}
SOLVERS_COUNTING_COMPOSE = ("solvers.implicit_solve", "solvers.invert_map")
PINNED_DETERMINANT = ("crkit.rank", "_series_det")

# name -> (unit, better); the order is the order of the report
PER_LAYER = {
    "rational.mul.calls": ("count", "lower"),
    "rational.add.calls": ("count", "lower"),
    "rational.div.calls": ("count", "lower"),
    "rational.coeff_bits_max": ("bits", "lower"),
    "series.new.calls": ("count", "lower"),
    "series.mul.calls": ("count", "lower"),
    "series.mul.s": ("s", "lower"),
    "series.mul.terms_out": ("count", "lower"),
    "series.compose.calls": ("count", "lower"),
    "series.compose.s": ("s", "lower"),
    "series.compose.self_s": ("s", "lower"),
    "series.compose.variable_slots_ratio": ("ratio", "lower"),
    "series.derive.calls": ("count", "lower"),
    "series.derive.s": ("s", "lower"),
    "series.terms_max": ("count", "lower"),
    "solvers.implicit_solve.calls": ("count", "lower"),
    "solvers.implicit_solve.s": ("s", "lower"),
    "solvers.implicit_solve.compose_per_call": ("ratio", "lower"),
    "solvers.invert_map.calls": ("count", "lower"),
    "solvers.invert_map.s": ("s", "lower"),
    "solvers.invert_map.compose_per_call": ("ratio", "lower"),
    "solvers.newton_extend.calls": ("count", "lower"),
    "solvers.newton_extend.s": ("s", "lower"),
    "linalg.calls": ("count", "lower"),
    "linalg.s": ("s", "lower"),
    "rank.generic_rank.calls": ("count", "lower"),
    "rank.matrix_generic_rank.calls": ("count", "lower"),
    "rank.s": ("s", "lower"),
    "rank.minors_tried": ("count", "lower"),
    "rank.minors_nonzero_ratio": ("ratio", "higher"),
    "rank.probable_share": ("ratio", "lower"),
    "hypersurface.from_defining.calls": ("count", "lower"),
    "hypersurface.from_defining.s": ("s", "lower"),
    "hypersurface.from_defining.self_s": ("s", "lower"),
    "hypersurface.graph_residual.s": ("s", "lower"),
    "hypersurface.normalize.calls": ("count", "lower"),
    "hypersurface.normalize.s": ("s", "lower"),
    "hypersurface.is_minimal.calls": ("count", "lower"),
    "hypersurface.degeneracy.calls": ("count", "lower"),
    "hypersurface.degeneracy.s": ("s", "lower"),
    "hypersurface.phibar.calls": ("count", "lower"),
    "reflection.check_maps_into.calls": ("count", "lower"),
    "reflection.check_maps_into.s": ("s", "lower"),
    "reflection.reflection_function.calls": ("count", "lower"),
    "reflection.reflection_function.s": ("s", "lower"),
    "reflection.segre_reflection_identity.s": ("s", "lower"),
    "reflection.partial_convergence.s": ("s", "lower"),
    "documents.parse.calls": ("count", "lower"),
    "documents.parse.self_s": ("s", "lower"),
    "documents.parse.bytes": ("bytes", "lower"),
    "documents.serialize.calls": ("count", "lower"),
    "documents.serialize.s": ("s", "lower"),
    "documents.serialize.bytes": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _bits(value) -> int:
    return max(value.re.numerator.bit_length(), value.re.denominator.bit_length(),
               value.im.numerator.bit_length(), value.im.denominator.bit_length())


class Tracer:
    def __init__(self, crkit):
        self.crkit = crkit
        self.patches: list[tuple[object, str, object]] = []
        # The wrappers hold these containers, so reset() clears them in place.
        self.stack: list[list[float]] = []  # per open span: seconds covered by children
        self.active: Counter = Counter()  # open spans per name
        self.layer_depth: Counter = Counter()
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, seconds, self seconds
        self.outer = defaultdict(lambda: [0, 0.0])  # layer -> outermost calls, seconds
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()

    def reset(self) -> None:
        for container in (self.stack, self.active, self.layer_depth, self.spans,
                          self.outer, self.counts, self.maxima):
            container.clear()

    # -- wrappers

    def _span(self, name: str, fn, before=None, after=None):
        layer = name.split(".", 1)[0]
        stack, active, depth = self.stack, self.active, self.layer_depth
        spans, outer = self.spans, self.outer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            children = [0.0]
            stack.append(children)
            active[name] += 1
            depth[layer] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += seconds
                active[name] -= 1
                depth[layer] -= 1
                record = spans[name]
                record[0] += 1
                record[1] += seconds
                record[2] += seconds - children[0]
                if not depth[layer]:
                    outer[layer][0] += 1
                    outer[layer][1] += seconds
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counter(self, key: str, fn, bits: bool = False):
        counts, maxima = self.counts, self.maxima

        @functools.wraps(fn)
        def wrapper(*args):
            result = fn(*args)
            counts[key] += 1
            if bits and result is not NotImplemented:
                b = _bits(result)
                if b > maxima["rational.coeff_bits_max"]:
                    maxima["rational.coeff_bits_max"] = b
            return result

        return wrapper

    def _patch_class(self, cls, attr: str, replacement) -> None:
        self.patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def _patch_everywhere(self, original, replacement) -> None:
        """Replace ``original`` in every loaded crkit module that holds it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "crkit" or module_name.startswith("crkit.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patches.append((module, attr, value))
                    setattr(module, attr, replacement)

    # -- install / remove

    def install(self) -> None:
        if self.patches:
            raise RuntimeError("tracer already installed")
        crkit = self.crkit
        module_name, attr = PINNED_DETERMINANT
        rank_module = sys.modules[module_name]
        if not callable(getattr(rank_module, attr, None)):
            raise RuntimeError(f"pinned private name {module_name}.{attr} is gone; update tracing.py")
        try:
            self._install(crkit, rank_module, attr)
        except BaseException:
            self.remove()
            raise

    def _install(self, crkit, rank_module, det_attr) -> None:
        gr, ts = crkit.GaussRational, crkit.TruncatedSeries
        for attrs, key in ((("__add__", "__radd__", "__sub__"), "rational.add.calls"),
                           (("__mul__", "__rmul__"), "rational.mul.calls"),
                           (("__truediv__",), "rational.div.calls")):
            for attr in attrs:
                self._patch_class(gr, attr, self._counter(key, gr.__dict__[attr], bits=True))

        counts, maxima = self.counts, self.maxima
        init = ts.__dict__["__init__"]

        @functools.wraps(init)
        def new_series(series, *args, **kwargs):
            init(series, *args, **kwargs)
            counts["series.new.calls"] += 1
            size = len(series.terms)
            if size > maxima["series.terms_max"]:
                maxima["series.terms_max"] = size

        self._patch_class(ts, "__init__", new_series)

        def count_terms(result):
            counts["series.mul.terms_out"] += len(result.terms)

        original_mul = ts.__dict__["__mul__"]
        mul_span = self._span("series.mul", original_mul, after=count_terms)

        @functools.wraps(original_mul)
        def mul(left, right):
            if isinstance(right, ts):
                return mul_span(left, right)
            return original_mul(left, right)  # a scalar product is scale(), not series mul

        self._patch_class(ts, "__mul__", mul)
        self._patch_class(ts, "derive", self._span("series.derive", ts.__dict__["derive"]))

        active = self.active

        def before_compose(args):
            for solver in SOLVERS_COUNTING_COMPOSE:
                if active[solver]:
                    counts[solver + ".compose"] += 1
            for component in args[1].components:
                counts["series.compose.slots"] += 1
                terms = component.terms
                if len(terms) == 1:
                    (exponents, coeff), = terms.items()
                    if sum(exponents) == 1 and coeff == crkit.ONE:
                        counts["series.compose.variable_slots"] += 1

        series_module = sys.modules["crkit.series"]
        self._patch_everywhere(series_module.compose,
                               self._span("series.compose", series_module.compose, before=before_compose))

        phibar = crkit.Hypersurface.__dict__["phibar"]

        def counted_phibar(surface):
            counts["hypersurface.phibar.calls"] += 1
            return phibar.fget(surface)

        self._patch_class(crkit.Hypersurface, "phibar", property(counted_phibar, doc=phibar.__doc__))

        determinant = getattr(rank_module, det_attr)

        @functools.wraps(determinant)
        def counted_determinant(matrix):
            result = determinant(matrix)
            counts["rank.minors_tried"] += 1
            if not result.is_zero():
                counts["rank.minors_nonzero"] += 1
            return result

        self.patches.append((rank_module, det_attr, determinant))
        setattr(rank_module, det_attr, counted_determinant)

        hooks = {
            "documents.parse": (lambda args: counts.update({"documents.parse.bytes": len(args[0])}), None),
            "documents.serialize": (None, lambda text: counts.update({"documents.serialize.bytes": len(text)})),
            "rank.matrix_generic_rank": (None, lambda result: counts.update(
                {"rank.probable": int(result.certificate.status == crkit.PROBABLE)})),
        }
        for short in SPAN_MODULES:
            module = sys.modules[f"crkit.{short}"]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not callable(value) or isinstance(value, type):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue  # imported from elsewhere; traced where it is defined
                name = RENAMED.get(f"{short}.{attr}", f"{short}.{attr}")
                before, after = hooks.get(name, (None, None))
                self._patch_everywhere(value, self._span(name, value, before, after))

    def remove(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    # -- results

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric for what ran since the last reset, except
        ``trace.overhead_ratio``, which needs an untraced run to compare."""
        spans, counts, maxima, outer = self.spans, self.counts, self.maxima, self.outer

        def calls(name):
            return spans[name][0] if name in spans else 0

        def seconds(name):
            return spans[name][1] if name in spans else 0.0

        def self_seconds(name):
            return spans[name][2] if name in spans else 0.0

        def ratio(part, whole):
            return part / whole if whole else 0.0

        out = {
            "rational.mul.calls": counts["rational.mul.calls"],
            "rational.add.calls": counts["rational.add.calls"],
            "rational.div.calls": counts["rational.div.calls"],
            "rational.coeff_bits_max": maxima["rational.coeff_bits_max"],
            "series.new.calls": counts["series.new.calls"],
            "series.mul.terms_out": counts["series.mul.terms_out"],
            "series.compose.variable_slots_ratio": ratio(
                counts["series.compose.variable_slots"], counts["series.compose.slots"]),
            "series.terms_max": maxima["series.terms_max"],
            "linalg.calls": outer["linalg"][0] if "linalg" in outer else 0,
            "linalg.s": outer["linalg"][1] if "linalg" in outer else 0.0,
            "rank.s": outer["rank"][1] if "rank" in outer else 0.0,
            "rank.minors_tried": counts["rank.minors_tried"],
            "rank.minors_nonzero_ratio": ratio(counts["rank.minors_nonzero"], counts["rank.minors_tried"]),
            "rank.probable_share": ratio(counts["rank.probable"], calls("rank.matrix_generic_rank")),
            "hypersurface.phibar.calls": counts["hypersurface.phibar.calls"],
            "documents.parse.bytes": counts["documents.parse.bytes"],
            "documents.serialize.bytes": counts["documents.serialize.bytes"],
            "cli.self_s": sum(record[2] for name, record in spans.items() if name.startswith("cli.")),
        }
        for solver in SOLVERS_COUNTING_COMPOSE:
            out[f"{solver}.compose_per_call"] = ratio(counts[solver + ".compose"], calls(solver))
        for name in PER_LAYER:
            if name in out or name == "trace.overhead_ratio":
                continue
            span, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = calls(span)
            elif kind == "s":
                out[name] = seconds(span)
            elif kind == "self_s":
                out[name] = self_seconds(span)
            else:
                raise AssertionError(f"no rule for per-layer metric {name}")
        return out

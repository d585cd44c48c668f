"""Boundary tracer for glomega, installed from outside the package.

Wrappers replace the public entry points of each module (a *layer*) in every
namespace that holds them, including ``from .x import y`` bindings in other
modules.  A span (layer, entry point, start, end, parent) opens only when
control enters a layer from a different layer; a call made inside its own
layer only increments that entry point's count.  Leaf entry points, whose
bodies are a dictionary lookup, are counted and never open a span, so their
cost stays in the caller's self time.  Spans are kept in memory and written
out once the run ends.

Observers attached to a few entry points turn the calls into the ratios the
benchmark reports: normal-form memo reuse, distinct double brackets, columns
that raised a solver's rank, and repeated check calls.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

PACKAGE = "glomega"
LAYERS = ("omega", "words", "linalg", "enveloping", "yangian", "doublepoisson", "current", "suites")

# (layer, attribute in the layer's module, workload meant to exercise it)
# The counter is named layer.short, where short is the attribute's last part
# unless SHORT_NAMES renames it.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("omega", "AlgebraSpec.product", "double-fuzz"),
    ("omega", "multiply", "symbols"),
    ("omega", "check_associativity", "double-fuzz"),
    ("omega", "detect_unit", "full-run"),
    ("omega", "direct_sum_C", "symbols"),
    ("omega", "null_algebra", "double-fuzz"),
    ("omega", "matrix_algebra", "symbols"),
    ("omega", "nonassoc_witness", "double-fuzz"),
    ("words", "compositions", "symbols"),
    ("words", "basis_words", "symbols"),
    ("words", "words_up_to", "double-fuzz"),
    ("words", "coagulate", "symbols"),
    ("words", "coagulate_word", "symbols"),
    ("linalg", "SpanSolver.__init__", "splitting-tower"),
    ("linalg", "SpanSolver.add", "splitting-tower"),
    ("linalg", "SpanSolver.solve", "full-run"),
    ("linalg", "SpanSolver.contains", "full-run"),
    ("linalg", "rank", "splitting-tower"),
    ("linalg", "primitive", "full-run"),
    ("enveloping", "Enveloping.__init__", "symbols"),
    ("enveloping", "Enveloping.normal_form", "symbols"),
    ("enveloping", "Enveloping.multiply", "symbols"),
    ("enveloping", "Enveloping.e_elem", "symbols"),
    ("enveloping", "Enveloping.t_elem", "symbols"),
    ("enveloping", "Enveloping.reparametrize_check", "full-run"),
    ("enveloping", "Enveloping.project_down", "full-run"),
    ("enveloping", "Enveloping.monomials", "splitting-tower"),
    ("enveloping", "Enveloping.invariant_dim", "splitting-tower"),
    ("yangian", "t_gen", "full-run"),
    ("yangian", "tgen_key", "full-run"),
    ("yangian", "ordered_monomial", "full-run"),
    ("yangian", "evaluate", "full-run"),
    ("yangian", "pbw_monomials", "full-run"),
    ("yangian", "independence_check", "full-run"),
    ("yangian", "pbw_suite", "full-run"),
    ("yangian", "euler_phi", "splitting-tower"),
    ("yangian", "necklace_count", "splitting-tower"),
    ("yangian", "splitting_expected", "splitting-tower"),
    ("doublepoisson", "double_bracket", "double-fuzz"),
    ("doublepoisson", "letter_bracket_expected", "double-fuzz"),
    ("doublepoisson", "check_letter_bracket", "double-fuzz"),
    ("doublepoisson", "check_skew", "double-fuzz"),
    ("doublepoisson", "check_leibniz", "double-fuzz"),
    ("doublepoisson", "triple_jacobi_sum", "double-fuzz"),
    ("doublepoisson", "check_double_jacobi", "double-fuzz"),
    ("doublepoisson", "pvdw_equivalence", "double-fuzz"),
    ("doublepoisson", "pgen_key", "symbols"),
    ("doublepoisson", "poisson_pgen", "symbols"),
    ("doublepoisson", "trace_bracket", "symbols"),
    ("doublepoisson", "spoly_symbol_image", "symbols"),
    ("doublepoisson", "symbol_match_smd", "symbols"),
    ("doublepoisson", "trace_elem", "symbols"),
    ("doublepoisson", "symbol_match_stc", "symbols"),
    ("current", "odot_words", "full-run"),
    ("current", "check_odot_assoc", "full-run"),
    ("current", "find_noncommutative_pair", "full-run"),
    ("current", "current_unit_check", "full-run"),
    ("current", "gl_current_bracket", "full-run"),
    ("current", "check_current_antisym", "full-run"),
    ("current", "current_basis_keys", "full-run"),
    ("current", "graded_dim", "full-run"),
    ("current", "graded_basis", "full-run"),
    ("current", "path_algebra_iso_check", "full-run"),
    ("current", "bimodule_iso_check", "full-run"),
    ("current", "generator_bracket_display_check", "full-run"),
    ("current", "t_expansion", "full-run"),
    ("current", "shifted_degree", "full-run"),
    ("current", "degeneration_check", "full-run"),
    ("suites", "resolve_omega", "symbols"),
    ("suites", "run_suite", "symbols"),
)


# counted, never spanned: a dictionary lookup called about a million times a run
LEAVES = frozenset({"omega.product"})

SHORT_NAMES = {
    "SpanSolver.__init__": "span_init",
    "SpanSolver.add": "span_add",
    "SpanSolver.solve": "span_solve",
    "SpanSolver.contains": "span_contains",
    "Enveloping.__init__": "init",
    "triple_jacobi_sum": "jacobi_sums",
}


def counter_name(layer: str, target: str) -> str:
    return "%s.%s" % (layer, SHORT_NAMES.get(target, target.split(".")[-1]))


def table_content(spec) -> tuple:
    """Identity of a coefficient table by content: dimension and structure constants."""
    return (spec.dim, tuple(sorted((ij, tuple(sorted(e.items()))) for ij, e in spec.table.items())))


class Tracer:
    """Counts and spans for one run; ``install`` patches, ``restore`` undoes."""

    def __init__(self):
        self.layer = "bench"
        self.open_span = -1
        self.spans: List[list] = []  # [layer, entry, start, end, parent]
        self.counts: Counter = Counter()
        self._patches: List[Tuple[object, str, object]] = []
        self._tables: Dict[int, Tuple[object, tuple]] = {}
        self._seen: Dict[str, set] = {}
        self.fuzz_tables: List[tuple] = []

    # -- observers ------------------------------------------------------------

    def _table(self, spec) -> tuple:
        hit = self._tables.get(id(spec))
        if hit is None:
            # the spec is kept alive so its id cannot be reused by another table
            hit = self._tables[id(spec)] = (spec, table_content(spec))
        return hit[1]

    def _repeat(self, counter: str, key) -> None:
        """Count ``key`` under ``counter`` when an earlier call already had it."""
        seen = self._seen.setdefault(counter, set())
        if key in seen:
            self.counts[counter] += 1
        else:
            seen.add(key)

    def _observers(self) -> Dict[str, Callable]:
        counts = self.counts

        def normal_form(args, kwargs, out):
            self._repeat("enveloping.normal_form.repeats", (id(args[0]), tuple(args[1])))

        def env_multiply(args, kwargs, out):
            counts["enveloping.multiply.terms_out"] += len(out.terms)

        def env_init(args, kwargs, out):
            self._repeat("enveloping.init.repeats", (self._table(args[1]), args[2]))

        def double_bracket(args, kwargs, out):
            self._repeat("doublepoisson.double_bracket.repeats", (self._table(args[0]), tuple(args[1]), tuple(args[2])))

        def span_add(args, kwargs, out):
            if out is None:
                counts["linalg.span_add.rank_raised"] += 1

        def pvdw(args, kwargs, out):
            if args[0].name.startswith("fuzz("):
                self.fuzz_tables.append(self._table(args[0]))

        def check(name):
            def observe(args, kwargs, out):
                key = (name, self._table(args[0]), args[1:], tuple(sorted(kwargs.items())))
                self._repeat("suites.repeat_check_calls", key)

            return observe

        observers = {
            "enveloping.normal_form": normal_form,
            "enveloping.multiply": env_multiply,
            "enveloping.init": env_init,
            "doublepoisson.double_bracket": double_bracket,
            "linalg.span_add": span_add,
            "doublepoisson.pvdw_equivalence": pvdw,
        }
        for name in (
            "doublepoisson.check_letter_bracket",
            "doublepoisson.check_skew",
            "doublepoisson.check_leibniz",
            "doublepoisson.check_double_jacobi",
            "current.check_odot_assoc",
            "current.current_unit_check",
        ):
            observers[name] = check(name)
        return observers

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn: Callable, leaf: bool, observe: Optional[Callable]) -> Callable:
        tracer = self
        counts = self.counts
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if leaf or tracer.layer == layer:
                out = fn(*args, **kwargs)
            else:
                parent, caller = tracer.open_span, tracer.layer
                span = [layer, name, 0.0, 0.0, parent]
                tracer.open_span = len(spans)
                tracer.layer = layer
                spans.append(span)
                span[2] = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    span[3] = clock()
                    tracer.open_span, tracer.layer = parent, caller
            if observe is not None:
                observe(args, kwargs, out)
            return out

        wrapper._bench_wrapper = True  # lets restore() find any wrapper left behind
        return wrapper

    def _modules(self) -> list:
        pkg = importlib.import_module(PACKAGE)
        return [pkg] + [importlib.import_module("%s.%s" % (PACKAGE, m)) for m in LAYERS]

    def install(self) -> None:
        observers = self._observers()
        modules = self._modules()
        for layer, target, _workload in ENTRY_POINTS:
            name = counter_name(layer, target)
            leaf = name in LEAVES
            module = importlib.import_module("%s.%s" % (PACKAGE, layer))
            observe = observers.get(name)
            if "." in target:
                cls_name, attr = target.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._wrap(layer, name, original, leaf, observe))
                continue
            original = getattr(module, target)
            wrapper = self._wrap(layer, name, original, leaf, observe)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> List[str]:
        """Undo every patch; return the bindings that still hold a wrapper."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        left = set()
        for mod in self._modules():
            for attr, value in vars(mod).items():
                if getattr(value, "_bench_wrapper", False):
                    left.add("%s.%s" % (mod.__name__, attr))
                if isinstance(value, type):
                    for method, fn in vars(value).items():
                        if getattr(fn, "_bench_wrapper", False):
                            left.add("%s.%s.%s" % (mod.__name__, attr, method))
        return sorted(left)

    # -- results --------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Per layer: span time minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for layer, _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {layer: 0.0 for layer in LAYERS}
        for idx, (layer, _name, start, end, _parent) in enumerate(self.spans):
            out[layer] += (end - start) - child[idx]
        return out

    def write_spans(self, path: str, run_id: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "run_id": run_id,
                    "fields": ["layer", "entry", "start", "end", "parent"],
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )

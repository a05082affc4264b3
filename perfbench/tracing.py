"""Spans and counts at the boundaries of indigo's public names.

``Tracer.install`` wraps public functions and methods in their defining
modules, then re-binds every alias that ``from ... import`` left in other
indigo modules (``checks.verify_laws``, ``cli.verify_laws``, the package
namespace), so each call is seen once whichever name it went through.
Only public names are touched; a name that a later version of indigo no
longer defines is skipped and reported, never an error.

Each span records name, start, end, parent span and sample id, and stays
in memory until ``write_spans``.  The scalar methods ``SemiringCtx.add``,
``mul`` and ``check`` and the constructors of contexts and ideals run
millions of times, so they get counts only; their time stays in the self
time of whichever span called them.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time
import weakref

# layer -> public names whose calls become spans ("Class.method" for methods)
SPANNED = {
    "core": ("verify_laws", "SemiringCtx.tables"),
    "kernels": (
        "first_commutativity_break",
        "first_associativity_break",
        "first_distributivity_break",
        "first_identity_break",
        "first_absorption_break",
        "first_zero_divisor",
        "first_zero_sum",
        "first_monotonicity_break",
        "all_ideal_masks",
    ),
    "ideals": (
        "enumerate_ideals",
        "ideal_generated",
        "ideal_sum",
        "ideal_product",
        "is_prime",
        "is_maximal",
        "is_subtractive",
        "radical",
        "spectrum",
        "localize",
        "ideal_semiring",
        "nilpotency_index",
        "LocalizedSemiring.class_of",
        "LocalizedSemiring.class_members",
        "LocalizedSemiring.add_class",
        "LocalizedSemiring.mul_class",
        "LocalizedSemiring.is_entire",
        "LocalizedSemiring.is_zerosumfree",
        "LocalizedSemiring.is_boolean",
        "LocalizedSemiring.matches_ambient",
        "LocalizedSemiring.to_json",
        "IdealSemiring.index_of",
        "IdealSemiring.is_additively_idempotent",
        "IdealSemiring.is_zerosumfree",
        "IdealSemiring.is_entire",
        "IdealSemiring.least_nonzero_absorbs",
        "IdealSemiring.to_json",
    ),
    "graphs": (
        "build_graph",
        "diameter",
        "girth",
        "clique_number",
        "chromatic_number",
        "invariants",
    ),
    "series": (
        "Poly.__add__",
        "Poly.__mul__",
        "Poly.is_unit",
        "Poly.is_idempotent",
        "parse_poly",
        "TruncSeries.__add__",
        "TruncSeries.__mul__",
        "TruncSeries.squares_to_self",
        "TruncSeries.has_idempotent_shape",
        "ts_is_idempotent_window",
        "idempotent_series_from_generators",
        "make_series",
        "quadratic",
        "quadratic_irreducible",
        "factorization_oracle",
    ),
    "checks": ("run_all_checks",),
    "cli": ("main", "build_parser"),
}

# counter -> public names whose calls are counted without a span
COUNTED = {
    "core.add_mul": ("core", ("SemiringCtx.add", "SemiringCtx.mul")),
    "core.check": ("core", ("SemiringCtx.check",)),
    "core.ctx_built": ("core", ("SemiringCtx.__init__",)),
    "ideals.ideal_objects": ("ideals", ("Ideal.__post_init__",)),
}

# span families: time is summed over outermost spans of the family, so a
# family member called inside another is not counted twice
FAMILIES = {
    "law_scan": {f"kernels.{n}" for n in SPANNED["kernels"] if n.startswith("first_")},
    "ideal_scan": {"kernels.all_ideal_masks"},
    "enumerate": {"ideals.enumerate_ideals"},
    "sum_product": {"ideals.ideal_sum", "ideals.ideal_product"},
    "semiring": {"ideals.ideal_semiring"} | {
        f"ideals.{n}" for n in SPANNED["ideals"] if n.startswith("IdealSemiring.")
    },
    "nilpotency": {"ideals.nilpotency_index"},
    "spectrum": {"ideals.spectrum"},
    "localize": {"ideals.localize"} | {
        f"ideals.{n}" for n in SPANNED["ideals"] if n.startswith("LocalizedSemiring.")
    },
    "graph_build": {"graphs.build_graph"},
    "distance": {"graphs.diameter", "graphs.girth"},
    "clique": {"graphs.clique_number"},
    "chromatic": {"graphs.chromatic_number"},
    "poly": {
        "series.Poly.__add__", "series.Poly.__mul__", "series.Poly.is_unit",
        "series.Poly.is_idempotent", "series.parse_poly",
    },
    "window": {
        "series.TruncSeries.__add__", "series.TruncSeries.__mul__",
        "series.TruncSeries.squares_to_self", "series.TruncSeries.has_idempotent_shape",
        "series.ts_is_idempotent_window", "series.idempotent_series_from_generators",
        "series.make_series",
    },
    "oracle": {"series.factorization_oracle"},
    "parser": {"cli.build_parser"},
}

LAYERS = tuple(SPANNED)


def _resolve(module, dotted: str):
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not inspect.isfunction(vars(owner).get(parts[-1])):
        return None, None
    return owner, parts[-1]


class Tracer:
    """Span recorder for one process; install once, then run the job."""

    def __init__(self):
        self.names: list = []  # span name id -> "layer.Name"
        self.spans: list = []  # (name id, start ns, end ns, parent index, sample)
        self.stack: list = []
        self.counts = {key: 0 for key in COUNTED}
        self.sample = 0
        self.missing: list = []
        self.tables_built = 0
        self.tables_ns = 0
        self.ideal_candidates = 0
        self.ideal_found = 0
        self.enumerated_ctx: set = set()
        self._seen_ctx: dict = {}

    # -- installation ------------------------------------------------------

    def install(self):
        originals = {}
        for layer, names in SPANNED.items():
            module = importlib.import_module(f"indigo.{layer}")
            for dotted in names:
                owner, attr = _resolve(module, dotted)
                if owner is None:
                    self.missing.append(f"{layer}.{dotted}")
                    continue
                fn = vars(owner)[attr]
                wrapped = self._span(f"{layer}.{dotted}", fn)
                setattr(owner, attr, wrapped)
                originals[id(fn)] = (fn, wrapped)
        for counter, (layer, names) in COUNTED.items():
            module = importlib.import_module(f"indigo.{layer}")
            for dotted in names:
                owner, attr = _resolve(module, dotted)
                if owner is None:
                    self.missing.append(f"{layer}.{dotted}")
                    continue
                setattr(owner, attr, self._count(counter, vars(owner)[attr]))
        # re-bind aliases made by "from .x import name" in other modules
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "indigo" and not mod_name.startswith("indigo."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _count(self, counter: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _span(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter_ns
        observe = {
            "core.SemiringCtx.tables": self._observe_tables,
            "kernels.all_ideal_masks": self._observe_ideal_scan,
            "ideals.enumerate_ideals": self._observe_enumerate,
        }.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, stack[-1] if stack else -1, self.sample)
            if observe is not None:
                observe(args, result, end - start)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe_tables(self, args, result, ns):
        # tables are built on the first call for a context object; later
        # calls return the cached pair
        ctx = args[0]
        ref = self._seen_ctx.get(id(ctx))
        if ref is None or ref() is not ctx:
            self._seen_ctx[id(ctx)] = weakref.ref(ctx)
            self.tables_built += 1
            self.tables_ns += ns

    def _observe_ideal_scan(self, args, result, ns):
        self.ideal_candidates += 1 << (args[0].shape[0] - 1)
        self.ideal_found += len(result)

    def _observe_enumerate(self, args, result, ns):
        ctx = args[0]
        self.enumerated_ctx.add((ctx.k, ctx.mutant))

    # -- results -----------------------------------------------------------

    def totals(self) -> dict:
        """Additive per-layer totals for this process (times in ns)."""
        name_layer = [n.split(".", 1)[0] for n in self.names]
        family_bit = {}
        for bit, members in enumerate(FAMILIES.values()):
            for member in members:
                family_bit[member] = 1 << bit
        bits = [family_bit.get(n, 0) for n in self.names]
        family_names = list(FAMILIES)
        calls = [0] * len(self.names)
        child_ns = [0] * len(self.spans)
        inside = [0] * len(self.spans)  # family bits of the span's ancestors
        family_ns = dict.fromkeys(family_names, 0)
        for i, (name_id, start, end, parent, _) in enumerate(self.spans):
            calls[name_id] += 1
            if parent >= 0:
                child_ns[parent] += end - start
                inside[i] = inside[parent] | bits[self.spans[parent][0]]
        self_ns = dict.fromkeys(LAYERS, 0)
        for i, (name_id, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            self_ns[name_layer[name_id]] += dur - child_ns[i]
            bit = bits[name_id]
            if bit and not inside[i] & bit:
                family_ns[family_names[bit.bit_length() - 1]] += dur
        by_name = {n: calls[i] for i, n in enumerate(self.names)}

        def ncalls(*names):
            return sum(by_name.get(n, 0) for n in names)

        return {
            "core.scalar_ops": self.counts["core.add_mul"],
            "core.check_calls": self.counts["core.check"],
            "core.ctx_built": self.counts["core.ctx_built"],
            "core.tables_built": self.tables_built,
            "core.tables_ns": self.tables_ns,
            "kernels.law_scan_calls": ncalls(*FAMILIES["law_scan"]),
            "kernels.law_scan_ns": family_ns["law_scan"],
            "kernels.ideal_scan_calls": ncalls("kernels.all_ideal_masks"),
            "kernels.ideal_scan_ns": family_ns["ideal_scan"],
            "kernels.ideal_candidates": self.ideal_candidates,
            "kernels.ideal_found": self.ideal_found,
            "ideals.enumerate_calls": ncalls("ideals.enumerate_ideals"),
            "ideals.enumerate_ns": family_ns["enumerate"],
            "ideals.ideal_objects": self.counts["ideals.ideal_objects"],
            "ideals.sum_product_calls": ncalls("ideals.ideal_sum", "ideals.ideal_product"),
            "ideals.sum_product_ns": family_ns["sum_product"],
            "ideals.semiring_ns": family_ns["semiring"],
            "ideals.nilpotency_ns": family_ns["nilpotency"],
            "ideals.spectrum_ns": family_ns["spectrum"],
            "ideals.localize_calls": ncalls("ideals.localize"),
            "ideals.localize_ns": family_ns["localize"],
            "graphs.build_ns": family_ns["graph_build"],
            "graphs.distance_ns": family_ns["distance"],
            "graphs.clique_ns": family_ns["clique"],
            "graphs.chromatic_ns": family_ns["chromatic"],
            "series.poly_ops": ncalls("series.Poly.__add__", "series.Poly.__mul__"),
            "series.poly_ns": family_ns["poly"],
            "series.window_ops": ncalls(
                "series.TruncSeries.__add__", "series.TruncSeries.__mul__",
                "series.TruncSeries.has_idempotent_shape",
            ),
            "series.window_ns": family_ns["window"],
            "series.oracle_calls": ncalls("series.factorization_oracle"),
            "series.oracle_ns": family_ns["oracle"],
            "cli.parser_ns": family_ns["parser"],
            **{f"{layer}.self_ns": self_ns[layer] for layer in LAYERS},
            "trace.spans": len(self.spans),
        }

    def write_spans(self, path: str):
        """One JSON line per span: name, start, end, parent index, sample."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            for name_id, start, end, parent, sample in self.spans:
                out.write(json.dumps([self.names[name_id], start, end, parent, sample]))
                out.write("\n")

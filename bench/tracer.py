"""Outside-in tracer for the sullivan modules.

The tracer replaces public entry points of each module with timing
wrappers for the duration of a traced pass and then puts the original
objects back; nothing under `src/` knows about it.  Modules bind names at
import time (`from .linalg import rank`), so a function is replaced in
every `sullivan.*` module that holds it, and in module-level dicts that
hold it (`verifiers.ALL_THEOREMS`); a method is replaced on its class.

Spans are aggregated as they close, per span name and per (span, parent)
edge, so a long run keeps no per-call records.  A span's self time is its
duration minus the durations of its direct child spans; the self times of
all spans add up to the durations of the root spans (one per CLI
command), and whatever the pass spent outside them is `other_s`.

Layers are the module names: a span named `linalg.rank` belongs to the
`linalg` layer.

A target that is gone, a memo that cannot be read and a counter that
fails are listed in `Tracer.missing`; the metrics built on them would
read 0, so a traced run with anything listed there is not correct.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "parser", "model", "algebra", "linalg", "cohomology",
          "toomer", "sequences", "verifiers")

_VERIFIERS = ("verify_all", "verify_theorem2", "verify_lemma1", "verify_theorem3",
              "verify_corollary4", "verify_remark2", "verify_nilmanifold",
              "verify_conjecture5", "classify_conjecture5", "scan_conjecture5",
              "odd_cocycle_kernel_dimension")


def _cells(args, result, before, after):
    m = args[0]
    return {"linalg.cells": m.rows * m.cols}


def _memo_miss(counter):
    def hook(args, result, before, after):
        if before is None or after is None or after == before:
            return None
        return {counter: after - before}
    return hook


def _degree_build(args, result, before, after):
    if before is None or after is None or after == before:
        return None
    return {"cohomology.degree_builds": after - before,
            "max:cohomology.max_basis": len(result.basis)}


# (module, attribute or Class.method, span name, counter hook)
# Hooks take (args, result, probe_before, probe_after) and return counter
# increments or None; `probe` reads a memo size before and after the call so that
# cache misses are counted exactly.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "_execute", "cli.execute", None),
    ("cli", "_parser", "cli.argparse", None),
    ("parser", "parse_model", "parser.parse", None),
    ("parser", "print_model", "parser.print", None),
    ("model", "check_model", "model.validate", None),
    ("model", "validate", "model.validate", None),
    ("model", "quotient_model", "model.quotient", None),
    ("model", "random_elliptic_model", "model.sample", None),
    ("algebra", "apply_derivation", "algebra.leibniz", None),
    ("algebra", "multiply", "algebra.multiply", None),
    ("algebra", "monomial_basis", "algebra.basis",
     lambda a, r, b, c: {"algebra.basis_monomials": len(r)}),
    ("linalg", "rank", "linalg.rank", _cells),
    ("linalg", "kernel_basis", "linalg.kernel", _cells),
    ("linalg", "solve_membership", "linalg.solve", _cells),
    ("linalg", "matmul", "linalg.matmul", None),
    ("linalg", "Echelon.add", "linalg.echelon_add",
     lambda a, r, b, c: None if r is None else {"linalg.echelon_useful": 1}),
    ("linalg", "Echelon.reduce_with_coeffs", "linalg.echelon_reduce", None),
    ("linalg", "Echelon.residual", "linalg.echelon_reduce", None),
    ("linalg", "Echelon.contains", "linalg.echelon_reduce", None),
    ("linalg", "Echelon.clone", "linalg.echelon_clone", None),
    ("cohomology", "CohomologyEngine.certify", "cohomology.certify", None),
    ("cohomology", "CohomologyEngine.full", "cohomology.degree", _degree_build),
    ("cohomology", "CohomologyEngine.strand", "cohomology.degree", _degree_build),
    ("cohomology", "CohomologyEngine.d_matrix", "cohomology.dmatrix", None),
    ("cohomology", "CohomologyEngine.pd_pairing", "cohomology.pd", None),
    ("cohomology", "CohomologyEngine.classes", "cohomology.classes", None),
    ("cohomology", "CohomologyEngine.class_coordinates", "cohomology.coordinates", None),
    ("cohomology", "CohomologyEngine.cohomology_table", "cohomology.table", None),
    ("cohomology", "CohomologyEngine.bigraded_profile", "cohomology.table", None),
    ("toomer", "e0_spectrum", "toomer.spectrum", None),
    ("toomer", "toomer_of_algebra", "toomer.spectrum", None),
    ("toomer", "toomer_of_class", "toomer.class", None),
    ("toomer", "gap_scan", "toomer.gap_scan", None),
    ("toomer", "QuotientComplex.degree_data", "toomer.quotient",
     _memo_miss("toomer.quotient_builds")),
    ("toomer", "QuotientComplex.kernel_dim", "toomer.quotient", None),
    ("toomer", "QuotientComplex.projects_to_boundary", "toomer.quotient", None),
    ("sequences", "build_wang", "sequences.build", None),
    ("sequences", "build_gysin", "sequences.build", None),
    ("sequences", "check_exactness", "sequences.exact",
     lambda a, r, b, c: {"sequences.nodes": len(r.nodes)}),
) + tuple(("verifiers", name, "verifiers.check", None) for name in _VERIFIERS)

# memo dicts whose size tells a cache miss from a hit
_MEMOS = {
    "CohomologyEngine.full": "_full",
    "CohomologyEngine.strand": "_strand",
    "QuotientComplex.degree_data": "_deg",
}


def _memo_probe(name):
    def probe(obj):
        memo = getattr(obj, name, None)
        return None if memo is None else len(memo)
    probe.memo = name
    return probe


class SpanStats:
    """Aggregates of one traced pass."""

    def __init__(self):
        self.calls = defaultdict(int)      # span -> calls
        self.incl = defaultdict(float)     # span -> summed durations
        self.self_time = defaultdict(float)  # span -> summed self times
        self.edges = defaultdict(int)      # (span, parent span or None) -> calls
        self.counters = defaultdict(int)
        self.root_time = 0.0
        self.certify_outer = 0.0   # certify spans not nested in another certify
        self.sample_excl = 0.0     # sampling spans minus the certification inside them

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for span, t in self.self_time.items():
            out[span.split(".", 1)[0]] += t
        return out


class Tracer:
    """Install with `install()`, read `stats`, then `restore()`."""

    def __init__(self):
        self.stats = SpanStats()
        self.missing: list[str] = []  # targets, memos and counters not found
        self._stack: list[list] = []
        self._patches: list[tuple] = []  # (holder, key, original, kind)
        self._certify_depth = 0
        self._leibniz_depth = 0

    def _lost(self, what: str):
        if what not in self.missing:
            self.missing.append(what)

    # -- span bookkeeping ---------------------------------------------------

    def _wrap(self, fn, span, hook, probe):
        tracer = self
        is_certify = span == "cohomology.certify"
        is_leibniz = span == "algebra.leibniz"
        is_multiply = span == "algebra.multiply"
        is_sample = span == "model.sample"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_multiply and tracer._leibniz_depth:
                return fn(*args, **kwargs)  # part of the enclosing Leibniz span
            stack = tracer._stack
            parent = stack[-1] if stack else None
            before = probe(args[0]) if probe is not None else None
            frame = [0.0, 0.0, span]  # child time, certification time below, name
            stack.append(frame)
            if is_certify:
                tracer._certify_depth += 1
            if is_leibniz:
                tracer._leibniz_depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                if is_certify:
                    tracer._certify_depth -= 1
                if is_leibniz:
                    tracer._leibniz_depth -= 1
                st = tracer.stats
                st.calls[span] += 1
                st.incl[span] += dur
                st.self_time[span] += dur - frame[0]
                below = frame[1]
                if is_certify and not tracer._certify_depth:
                    st.certify_outer += dur
                    below = dur
                if is_sample:
                    st.sample_excl += dur - frame[1]
                if parent is None:
                    st.root_time += dur
                    st.edges[(span, None)] += 1
                else:
                    parent[0] += dur
                    parent[1] += below
                    st.edges[(span, parent[2])] += 1
            after = None
            if probe is not None:
                after = probe(args[0])
                if before is None or after is None:
                    tracer._lost(f"{span} memo {probe.memo}")
            if hook is not None:
                counters = tracer.stats.counters
                try:
                    incs = hook(args, result, before, after) or {}
                except (AttributeError, TypeError, IndexError):
                    # the program changed shape under the counter; count nothing
                    tracer._lost(f"{span} counter")
                    incs = {}
                for key, inc in incs.items():
                    if key.startswith("max:"):
                        counters[key[4:]] = max(counters[key[4:]], inc)
                    else:
                        counters[key] += inc
            return result

        wrapper.__bench_span__ = span
        return wrapper

    # -- patching -----------------------------------------------------------

    @staticmethod
    def _modules():
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "sullivan" or name.startswith("sullivan."))]

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for mod_name, attr, span, hook in TARGETS:
            mod = importlib.import_module(f"sullivan.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is None or meth not in vars(cls):
                    self._lost(f"{mod_name}.{attr}")
                    continue
                orig = vars(cls)[meth]
                memo = _MEMOS.get(attr)
                wrapper = self._wrap(orig, span, hook, memo and _memo_probe(memo))
                self._patches.append((cls, meth, orig, "attr"))
                setattr(cls, meth, wrapper)
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                self._lost(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(orig, span, hook, None)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        self._patches.append((holder, key, orig, "attr"))
                        setattr(holder, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is orig:
                                self._patches.append((value, k, orig, "item"))
                                value[k] = wrapper
        return self

    def restore(self):
        for holder, key, orig, kind in reversed(self._patches):
            if kind == "attr":
                setattr(holder, key, orig)
            else:
                holder[key] = orig
        self._patches = []

    @classmethod
    def leftover_wrappers(cls) -> list[str]:
        """Every place in the sullivan modules, their dicts and their
        classes that still holds a tracing wrapper."""
        left = []
        for mod in cls._modules():
            for key, value in vars(mod).items():
                places = [(key, value)]
                if isinstance(value, dict):
                    places += [(f"{key}[{k!r}]", v) for k, v in value.items()]
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    places += [(f"{key}.{k}", v) for k, v in vars(value).items()]
                left += [f"{mod.__name__}.{name}" for name, v in places
                         if hasattr(v, "__bench_span__")]
        return left

    def reset(self):
        self.stats = SpanStats()

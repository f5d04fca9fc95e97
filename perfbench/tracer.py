"""Per-layer tracing from outside the package.

`Tracer.install()` wraps the public functions listed in TARGETS and rebinds
every name under which a `heavenly.*` module holds them, so calls between
modules (`from .linalg import rref`) are seen too.  Each call records a span
(name, parent span, start, end, outcome) in flat in-memory arrays; the
aggregates (calls, inclusive time, self time and the work counters) are
derived from the spans once the run is over.  A name that no longer exists
is skipped, so later refactors keep the benchmark running: it then reports
zero calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

TARGETS = {
    "liesp": ("sp_structure_constants", "action_matrices", "symmetry_algebra",
              "is_reductive", "killing_form", "center", "derived_subalgebra",
              "nondegenerate", "sample_zero_point"),
    "linalg": ("rref", "rank_kernel", "solve_linear", "invert", "RatMatrix.mat_vec",
               "RatMatrix.mat_mul"),
    "grassmann": ("minor_basis", "decompose", "legendre_matrix", "partial_legendre",
                  "translate", "singular_locus_quadratic", "meets_all_sublagrangians"),
    "integrability": ("identify_equation", "integrable_4d", "travelling_wave_reduce",
                      "linearisable_3d", "find_quadratic_chart",
                      "find_osculating_certificate", "ef_coordinates",
                      "classify_quartic_pair"),
    "forms": ("b_omega_lambda", "effective_lift"),
    "quartic": ("multiplicity_pattern", "quartic_invariants"),
    "laxpair": ("commutator", "sample_on_variety", "verify_lax"),
    "poly": ("Polynomial.subs", "determinant"),
    "parse": ("parse_equation",),
    "cli": ("main",),
}
SELF_TIME_LAYERS = ("linalg", "poly")
# Outcome flags: a call that raised this exception, or returned this value.
RAISES = {"liesp.sample_zero_point": "NoSamplePoint",
          "integrability.travelling_wave_reduce": "ZeroReduction"}
RETURNS = {"integrability.linearisable_3d": "degenerate"}
COUNTERS = {  # metric: (unit, better)
    "liesp.sample_zero_point.no_point": ("count", "lower"),
    "linalg.rref.cells": ("count", "lower"),
    "grassmann.meets_all_sublagrangians.fallbacks": ("count", "lower"),
    "integrability.travelling_wave_reduce.zero": ("count", "lower"),
    "integrability.linearisable_3d.degenerate": ("count", "lower"),
    "integrability.reductions.nondegenerate_frac": ("ratio", "higher"),
}
FIELDS = 5  # name, parent, start ns, end ns, outcome


def target_names():
    return [f"{layer}.{qual}" for layer, quals in TARGETS.items() for qual in quals]


def metric_specs():
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for name in target_names():
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.s", "s", "lower"))
        if name.split(".")[0] in SELF_TIME_LAYERS:
            out.append((f"{name}.self_s", "s", "lower"))
    out += [(name, unit, better) for name, (unit, better) in COUNTERS.items()]
    out.append(("trace.overhead_s", "s", "lower"))
    return out


class Tracer:
    def __init__(self):
        self.names = target_names()
        self.spans = array("q")
        self.stack = []
        self.saved = []  # (owner, attribute, original)

    def install(self):
        modules = {layer: importlib.import_module(f"heavenly.{layer}") for layer in TARGETS}
        namespaces = [m for k, m in sorted(sys.modules.items())
                      if k == "heavenly" or k.startswith("heavenly.")]
        for index, name in enumerate(self.names):
            layer, qual = name.split(".", 1)
            owner = modules[layer]
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            wrapper = self._wrap(index, name, original)
            if path:  # a method: rebinding the class attribute reaches every caller
                self.saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self.saved.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()

    @contextlib.contextmanager
    def active(self):
        """Trace the calls made inside the block."""
        self.install()
        try:
            yield
        finally:
            self.restore()

    def _wrap(self, index, name, fn):
        spans, stack = self.spans, self.stack
        raises = RAISES.get(name)
        returns = RETURNS.get(name)
        cells = name == "linalg.rref"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(spans) // FIELDS
            flag = len(args[0]) * len(args[0][0]) if cells and args and len(args[0]) else 0
            spans.extend((index, stack[-1] if stack else -1, 0, 0, flag))
            stack.append(span)
            base = span * FIELDS
            spans[base + 2] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if raises and type(exc).__name__ == raises:
                    spans[base + 4] = 1
                raise
            else:
                if returns and getattr(result, "value", None) == returns:
                    spans[base + 4] = 1
                return result
            finally:
                spans[base + 3] = perf_counter_ns()
                stack.pop()

        return wrapper

    def dump(self, path):
        """Write the raw spans; `load` reads them back."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": self.spans.tolist()}, handle)


def aggregate(names, spans):
    """Raw per-function sums (calls, inclusive and self seconds) and counts."""
    count = len(spans) // FIELDS
    name_of = spans[0::FIELDS]
    parent_of = spans[1::FIELDS]
    flag_of = spans[4::FIELDS]
    dur = [spans[i * FIELDS + 3] - spans[i * FIELDS + 2] for i in range(count)]
    child = [0] * count
    for i in range(count):
        if parent_of[i] >= 0:
            child[parent_of[i]] += dur[i]
    index = {n: k for k, n in enumerate(names)}
    meets = index["grassmann.meets_all_sublagrangians"]
    det = index["poly.determinant"]
    integ = index["integrability.integrable_4d"]
    flagged = {index["linalg.rref"]: "linalg.rref.cells",
               index["liesp.sample_zero_point"]: "liesp.sample_zero_point.no_point",
               index["integrability.travelling_wave_reduce"]:
                   "integrability.travelling_wave_reduce.zero",
               index["integrability.linearisable_3d"]:
                   "integrability.linearisable_3d.degenerate"}
    raw = Counter()
    fallback_parents = set()
    for i in range(count):
        n, p, flag = name_of[i], parent_of[i], flag_of[i]
        name = names[n]
        raw[f"{name}.calls"] += 1
        raw[f"{name}.self_s"] += (dur[i] - child[i]) / 1e9
        a = p
        while a >= 0 and name_of[a] != n:
            a = parent_of[a]
        if a < 0:  # a recursive re-entry is inside the outer call's time
            raw[f"{name}.s"] += dur[i] / 1e9
        if n in flagged:
            raw[flagged[n]] += flag
        under_4d = p >= 0 and name_of[p] == integ
        if under_4d and name == "integrability.travelling_wave_reduce":
            raw["reductions.attempts"] += 1
        if under_4d and name == "integrability.linearisable_3d" and not flag:
            raw["reductions.nondegenerate"] += 1
        if n == det and p >= 0 and name_of[p] == meets:
            fallback_parents.add(p)
    raw["grassmann.meets_all_sublagrangians.fallbacks"] = len(fallback_parents)
    return raw


def report(raw, overhead_s):
    """The per-layer metrics, every one present, in the order of metric_specs."""
    attempts = raw["reductions.attempts"]
    values = Counter(raw)
    values["integrability.reductions.nondegenerate_frac"] = (
        raw["reductions.nondegenerate"] / attempts if attempts else 0.0)
    values["trace.overhead_s"] = overhead_s
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in metric_specs()}


def load(path):
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return aggregate(data["names"], data["spans"])

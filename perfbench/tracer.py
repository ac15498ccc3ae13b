"""Spans and counters recorded around alcove-lab's public functions.

Nothing inside the library is changed: each traced function is replaced, at
every module attribute through which the library or the benchmark reaches
it, by a wrapper that records a span (name, start, end, parent span).  A
span's self time is its duration minus the time covered by its child spans;
calls are sequential in one thread, so children never overlap.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

from workloads import candidate_bounds


def _rows(tracer, args, kwargs):
    constraints = args[0] if args else kwargs["constraints"]
    tracer.totals["polyhedra.feasible.input_rows"] += len(constraints)


def _kept(tracer, args, kwargs, result):
    walls = args[1] if len(args) > 1 else kwargs["walls"]
    tracer.totals["alcoves.kept_bounds"] += len(result.inequalities)
    tracer.totals["alcoves.candidate_bounds"] += candidate_bounds(walls)


def _pairs_checked(tracer, args, kwargs, result):
    tracer.totals["orders.order_compat_check.pairs_checked"] += \
        result["pairs_checked"]


# (module, function, hook before the call, hook on the result)
SPANNED = (
    ("polyhedra", "feasible", _rows, None),
    ("polyhedra", "is_redundant", None, None),
    ("polyhedra", "irredundant", None, None),
    ("polyhedra", "vertices", None, None),
    ("polyhedra", "find_point", None, None),
    ("alcoves", "real_alcove_of", None, _kept),
    ("alcoves", "faces_of", None, None),
    ("alcoves", "p_membership", None, None),
    ("alcoves", "translation_path", None, None),
    ("compat", "find_compatible", None, None),
    ("compat", "verify_compatible", None, None),
    ("compat", "opposite_pair", None, None),
    ("validate", "validate_p", None, None),
    ("orders", "hw_order", None, None),
    ("orders", "phw_axiom_check", None, None),
    ("orders", "ss_preorder", None, None),
    ("orders", "equivalence_classes", None, None),
    ("orders", "order_compat_check", None, _pairs_checked),
    ("orders", "interval_image", None, None),
    ("mullineux", "wc_bijection_hilb", None, None),
    ("mullineux", "mullineux_oracle", None, None),
    ("instances", "builtin_instance", None, None),
    ("config", "parse_config", None, None),
    ("config", "run_report", None, None),
    ("cli", "dispatch", None, None),
)
# called too often for a span each: counted only
COUNTED = (("arith", "pairing"),)


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index]
        self.stack = []
        self.calls = Counter()
        self.totals = Counter()
        self._undo = []

    def _spanned(self, name, fn, before, after):
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return traced

    def _counted(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self, package):
        """Wrap every traced function at all alcovelab module attributes
        that hold it (`from .x import f` copies the reference)."""
        prefix = package.__name__
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == prefix or name.startswith(prefix + ".")]
        wrappers = []
        for m, f, before, after in SPANNED:
            fn = getattr(sys.modules[f"{prefix}.{m}"], f)
            wrappers.append((fn, self._spanned(f"{m}.{f}", fn, before, after)))
        for m, f in COUNTED:
            fn = getattr(sys.modules[f"{prefix}.{m}"], f)
            wrappers.append((fn, self._counted(f"{m}.{f}", fn)))
        for original, wrapper in wrappers:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def summary(self):
        """Per-function call count, self seconds and call durations."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = Counter(self.calls)
        self_s = defaultdict(float)
        durations = defaultdict(list)
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[i]
            durations[name].append(end - start)
        return calls, self_s, durations

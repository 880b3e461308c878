"""Outside-in layer trace for the cactiq benchmark.

`Tracer.install()` replaces each traced public function of cactiq with a
wrapper at every module attribute that holds it (modules import by name, so
`cactiq.verify.graph_radius` is wrapped as well as `cactiq.spectra.graph_radius`).
Each call records one span (name, start, end, parent, thread) in memory; the
per-layer metrics are computed from the spans after the traced round.

A span opened on a thread other than the main one with nothing open on its own
thread (the radius pool's workers) is attributed to the innermost span open on
the main thread at that moment, which is the claim being verified.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import threading
import time
from collections import defaultdict

# (layer, function) pairs, in the order they are reported.
TRACED = (
    ("graph", "canonical_code"), ("graph", "matching_number"),
    ("graph", "pendant_count"), ("graph", "from_edges"),
    ("graph", "block_decomposition"),
    ("graph6", "encode"), ("graph6", "decode"),
    ("enumeration", "enumerate_cacti"), ("enumeration", "admits"),
    ("spectra", "signless_laplacian"), ("spectra", "spectral_radius"),
    ("spectra", "graph_radius"), ("spectra", "char_poly"),
    ("polynomials", "sturm_sequence"), ("polynomials", "count_roots"),
    ("polynomials", "isolate_largest_root"), ("polynomials", "refine_root"),
    ("polynomials", "largest_real_root"),
    ("polynomials", "compare_largest_roots"),
    ("families", "extremal_answer"), ("families", "build_H"),
    ("families", "build_L"), ("families", "psi_H"), ("families", "psi_L"),
    ("families", "psi_legacy"),
    ("quotient", "structured_spectrum"),
    ("transforms", "shift_neighbors"), ("transforms", "contract_pend"),
    ("verify", "verify_extremal"), ("verify", "verify_conjecture11_negative"),
    ("verify", "verify_formulas"), ("verify", "verify_monotonicity"),
    ("cli", "main"),
)

# Metrics derived from spans beyond <layer>.<function>.calls / .self_s.
EXTRA_METRICS = (
    ("enumeration.unique_ratio", "ratio", "higher"),
    ("enumeration.admit_ratio", "ratio", "higher"),
    ("verify.exact_escalations", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def per_layer_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer, func in TRACED:
        out.append((f"{layer}.{func}.calls", "count", "lower"))
        out.append((f"{layer}.{func}.self_s", "s", "lower"))
    return out + list(EXTRA_METRICS)


class Tracer:
    """In-memory span recorder; one per traced round."""

    def __init__(self):
        self.names = [f"{layer}.{func}" for layer, func in TRACED]
        # span rows: [name_index, start, end, parent_span, thread_index]
        self.spans = []
        self.results = {}  # span index -> recorded result (selected functions)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._threads = {}
        self._patched = []  # (owner, attribute, original) for uninstall

    # -- recording ---------------------------------------------------------

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, index: int, fn, keep_result):
        spans, results = self.spans, self.results
        threads = self._threads
        main_stack = self._main_stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not main_stack and main_stack:
                parent = main_stack[-1]
            else:
                parent = -1
            tid = threading.get_ident()
            row = [index, time.perf_counter(), 0.0, parent,
                   threads.setdefault(tid, len(threads))]
            spans.append(row)
            me = len(spans) - 1
            stack.append(me)
            try:
                out = fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                stack.pop()
            if keep_result is not None:
                results[me] = keep_result(out)
            return out
        return wrapper

    def install(self):
        """Wrap every traced function at each cactiq module attribute that
        refers to it, and `CactusFilter.admits` on its class."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "cactiq"
                                         or name.startswith("cactiq."))]
        keep = {"graph.canonical_code": lambda c: c.code,
                "enumeration.admits": bool}
        for index, (layer, func) in enumerate(TRACED):
            home = importlib.import_module(f"cactiq.{layer}")
            name = self.names[index]
            if func == "admits":
                cls = home.CactusFilter
                self._patched.append((cls, func, cls.admits))
                cls.admits = self._wrap(index, cls.admits, keep.get(name))
                continue
            orig = getattr(home, func)
            wrapped = self._wrap(index, orig, keep.get(name))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._patched.append((m, attr, orig))
                        setattr(m, attr, wrapped)

    def uninstall(self):
        """Put back every original the install replaced."""
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the union of its children's intervals,
        so children running in parallel are not subtracted twice."""
        children = defaultdict(list)
        for i, (_, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                children[parent].append((start, end))
        out = []
        for i, (_, start, end, _, _) in enumerate(self.spans):
            covered, cur_lo, cur_hi = 0.0, None, None
            for lo, hi in sorted(children.get(i, ())):
                lo, hi = max(lo, start), min(hi, end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out.append(max(0.0, (end - start) - covered))
        return out

    def _nearest(self, i: int, targets) -> int:
        """Index of the nearest ancestor of span i whose name is in targets."""
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] in targets:
                return p
            p = self.spans[p][3]
        return -1

    def metrics(self) -> dict:
        """Every per-layer metric except trace.overhead_s."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for row, st in zip(self.spans, self.self_times()):
            calls[row[0]] += 1
            self_s[row[0]] += st
        out = {}
        for index, name in enumerate(self.names):
            out[f"{name}.calls"] = (calls[index], "count")
            out[f"{name}.self_s"] = (self_s[index], "s")

        idx = {name: i for i, name in enumerate(self.names)}
        code_i, enum_i = idx["graph.canonical_code"], idx["enumeration.enumerate_cacti"]
        admit_i, cmp_i = idx["enumeration.admits"], idx["polynomials.compare_largest_roots"]
        verify_set = {i for i, name in enumerate(self.names)
                      if name.startswith("verify.")}
        codes = defaultdict(list)
        admitted = examined = escalations = 0
        for i, row in enumerate(self.spans):
            if row[0] == code_i:
                owner = self._nearest(i, {enum_i})
                if owner >= 0:
                    codes[owner].append(self.results[i])
            elif row[0] == admit_i:
                examined += 1
                admitted += self.results[i]
            elif row[0] == cmp_i and self._nearest(i, verify_set) >= 0:
                escalations += 1
        candidates = sum(len(c) for c in codes.values())
        classes = sum(len(set(c)) for c in codes.values())
        out["enumeration.unique_ratio"] = (
            classes / candidates if candidates else 0.0, "ratio")
        out["enumeration.admit_ratio"] = (
            admitted / examined if examined else 0.0, "ratio")
        out["verify.exact_escalations"] = (escalations, "count")
        return out

    def dump(self, path):
        """Write the spans as gzipped JSON lines (name, start, end, parent,
        thread), times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="ascii") as fh:
            for name_i, start, end, parent, thread in self.spans:
                fh.write(json.dumps([self.names[name_i], round(start - t0, 9),
                                     round(end - t0, 9), parent, thread]))
                fh.write("\n")

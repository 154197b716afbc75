"""Spans around hochcat's public functions, recorded from outside the program.

``install`` replaces each function in ``TARGETS`` with a wrapper that records
a span: its label, its metric group, its parent span, its start and end, and
a few counts read off the arguments and the result at the same boundary.
A module-level function is replaced in every hochcat module that holds it,
because ``from .x import f`` binds ``f`` a second time in the importing
module; a method is replaced on its class.  Spans stay in memory and the
child writes them out when its op is done.  With ``memory=True`` each span
also records the tracemalloc peak above its starting allocation.

The parent turns spans into per-layer metrics with ``layer_metrics``: a
span's self time is its duration minus the part of it that its child spans
cover, so the self times of one op add up to the duration of its root span.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _rref_counts(args, result):
    m = args[0]
    pivots, reduced = result
    return {
        "matrix.rref_dense_calls": int(getattr(m, "layout", None) == "dense"),
        "matrix.rref_nnz_in": m.nnz,
        "matrix.rref_nnz_out": reduced.nnz,
        "matrix.rref_max_cells": m.nrows * m.ncols,
        "matrix.rank_sum": len(pivots),
    }


def _differential_counts(args, result):
    return {"hochschild.cells": result.nrows * result.ncols, "hochschild.nnz": result.nnz}


# (module, attribute, metric group, counter).  "Class.method" patches the class.
TARGETS = (
    ("catformat", "load_category", "catformat.load", None),
    ("catformat", "parse_category_text", "catformat.load", None),
    ("catformat", "category_to_text", "catformat.to_text", None),
    ("category", "validate_category", "category.validate", None),
    ("category", "predicate_reports", "category.predicates", None),
    ("category", "adjoint_category", "category.fad",
     lambda args, res: {"category.fad_morphisms": res.n_morphisms}),
    ("hochschild", "hochschild_differential_matrix", "hochschild.assemble", _differential_counts),
    ("hochschild", "relative_differential_matrix", "hochschild.assemble", _differential_counts),
    ("hochschild", "hochschild_cohomology_dims", "hochschild.dims", None),
    ("hochschild", "relative_cohomology_dims", "hochschild.dims", None),
    ("nerve", "simplicial_coboundary_matrix", "nerve.assemble",
     lambda args, res: {"nerve.nnz": res.nnz}),
    ("matrix", "Matrix.rref", "matrix.rref", _rref_counts),
    ("matrix", "Matrix.kernel_basis", "matrix.subspace", None),
    ("matrix", "Matrix.image_basis", "matrix.subspace", None),
    ("matrix", "Subspace.zero", "matrix.subspace", None),
    ("matrix", "Subspace.full", "matrix.subspace", None),
    ("matrix", "Subspace.from_vectors", "matrix.subspace", None),
    ("matrix", "Subspace._from_rref", "matrix.subspace",
     lambda args, res: {"matrix.subspace_dense_cells": res.dim * res.ambient_dim}),
    ("matrix", "Subspace.contains", "matrix.subspace",
     lambda args, res: {"matrix.contains_calls": 1}),
    ("matrix", "Subspace.contains_subspace", "matrix.subspace", None),
    ("matrix", "Subspace.coordinates", "matrix.subspace", None),
    ("matrix", "Subspace.vector_from_coordinates", "matrix.subspace", None),
    ("matrix", "quotient_dim", "matrix.subspace", None),
    ("matrix", "induced_quotient_map", "matrix.subspace", None),
    ("matrix", "Matrix.__matmul__", "matrix.product", None),
    ("matrix", "Matrix.first_difference", "matrix.product", None),
    ("matrix", "Matrix.__eq__", "matrix.product", None),
    ("comparison", "make_context", "comparison.report", None),
    ("comparison", "theorem_a_report", "comparison.report", None),
    ("comparison", "t_map_matrix", "comparison.maps", None),
    ("comparison", "x_map_matrix", "comparison.maps", None),
    ("comparison", "t_map_relative_matrix", "comparison.maps", None),
    ("comparison", "x_map_relative_matrix", "comparison.maps", None),
    ("comparison", "verify_t_chain_identity", "comparison.verify", None),
    ("comparison", "verify_x_chain_identity", "comparison.verify", None),
    ("comparison", "verify_section", "comparison.verify", None),
    ("comparison", "verify_two_sided_on_relative", "comparison.verify", None),
    ("derivations", "graded_derivation_space", "derivations.systems", None),
    ("derivations", "character_space", "derivations.systems", None),
    ("derivations", "theorem_b_report", "derivations.report", None),
    ("cli", "main", "cli.main", None),
    ("cli", "emit", "cli.emit", lambda args, res: {"cli.emit_bytes": len(res)}),
)

GROUPS = tuple(dict.fromkeys(group for _, _, group, _ in TARGETS))
LAYERS = tuple(dict.fromkeys(group.split(".")[0] for group in GROUPS))
COUNTS = (
    "category.fad_morphisms", "hochschild.cells", "hochschild.nnz", "nerve.nnz",
    "matrix.rref_dense_calls", "matrix.rref_nnz_in", "matrix.rref_nnz_out",
    "matrix.rref_max_cells", "matrix.rank_sum", "matrix.subspace_dense_cells",
    "matrix.contains_calls", "cli.emit_bytes",
)
# Counts that are a maximum rather than a sum.  An op asks for its F^ad from
# several places (each a cache hit after the first), so the F^ad size counts
# once per op.
_MAX_PER_PASS = ("matrix.rref_max_cells",)
_MAX_PER_OP = ("category.fad_morphisms",)

# name -> unit of every per-layer metric, in report order
METRICS = {
    **{f"{g}_s": "s" for g in GROUPS},
    **{f"{g}_calls": "count" for g in GROUPS},
    **{c: ("bytes" if c.endswith("_bytes") else "count") for c in COUNTS},
    "matrix.fill_ratio": "ratio",
    **{f"{layer}.peak_mib": "MiB" for layer in LAYERS},
    "trace.overhead": "ratio",
    "trace.unattributed_frac": "ratio",
    "trace.spans": "count",
}


class Tracer:
    """Span store for one child.  ``spans`` rows are
    ``[label, group, parent, start, end, counts, peak_bytes]``."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list = []
        self.stack: list = []
        self._base: dict = {}
        self._high: dict = {}
        if memory:
            import tracemalloc
            self._tm = tracemalloc
            tracemalloc.start()

    def _mark(self) -> int:
        """Fold the allocation peak since the last boundary into every open span."""
        current, peak = self._tm.get_traced_memory()
        for i in self.stack:
            if peak > self._high[i]:
                self._high[i] = peak
        self._tm.reset_peak()
        return current

    def wrap(self, fn, label: str, group: str, counter):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        memory = self.memory

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [label, group, stack[-1] if stack else -1, 0.0, 0.0, None, 0]
            spans.append(span)
            if memory:
                current = self._mark()
                self._base[idx] = self._high[idx] = current
            stack.append(idx)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                if memory:
                    self._mark()
                    span[6] = self._high.pop(idx) - self._base.pop(idx)
                stack.pop()
            if counter is not None:
                span[5] = counter(args, result)
            return result

        return wrapper


def install(tracer: Tracer) -> dict:
    """Wrap every target present in the loaded hochcat modules.

    Returns label -> number of places patched: 0 for a target the program
    no longer has, more than 1 for a function other modules imported by name.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "hochcat" or name.startswith("hochcat."))]
    patched = {}
    for modname, attr, group, counter in TARGETS:
        label = f"{modname}.{attr}"
        module = sys.modules.get(f"hochcat.{modname}")
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or name not in vars(owner):
            patched[label] = 0
            continue
        raw = vars(owner)[name]
        if owner_name:
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapped = tracer.wrap(fn, label, group, counter)
            setattr(owner, name, staticmethod(wrapped) if is_static else wrapped)
            patched[label] = 1
            continue
        wrapped = tracer.wrap(raw, label, group, counter)
        count = 0
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, key, wrapped)
                    count += 1
        patched[label] = count
    return patched


# --- parent side: from spans to metrics ----------------------------------------


def self_times(spans) -> list:
    """Per span, its duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[2] >= 0:
            children[span[2]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[3], span[4]
        covered = 0.0
        run_start = run_end = None
        for c in sorted(children[i], key=lambda c: spans[c][3]):
            lo, hi = max(spans[c][3], start), min(spans[c][4], end)
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def op_summary(spans, op_s: float) -> dict:
    """Per-group self time and calls, counts and per-layer peaks of one op."""
    selfs = self_times(spans)
    seconds = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    peaks = defaultdict(int)
    for span, own in zip(spans, selfs):
        label, group, _parent, _start, _end, extra, peak = span
        seconds[group] += own
        calls[group] += 1
        layer = group.split(".")[0]
        peaks[layer] = max(peaks[layer], peak)
        for key, value in (extra or {}).items():
            if key in _MAX_PER_PASS or key in _MAX_PER_OP:
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value
    attributed = sum(selfs)
    return {
        "seconds": dict(seconds),
        "calls": dict(calls),
        "counts": dict(counts),
        "peaks": dict(peaks),
        "op_s": op_s,
        "unattributed": (op_s - attributed) / op_s if op_s > 0 else 0.0,
        "spans": len(spans),
    }


def layer_metrics(traced: list, memory: list, untraced_s: float) -> dict:
    """Per-layer metric values from per-op summaries of the traced pass, the
    tracemalloc pass and the untraced pass's summed op time."""
    values = {name: 0 for name in METRICS}
    for op in traced:
        for group, secs in op["seconds"].items():
            values[f"{group}_s"] += secs
        for group, n in op["calls"].items():
            values[f"{group}_calls"] += n
        for key, value in op["counts"].items():
            if key in _MAX_PER_PASS:
                values[key] = max(values[key], value)
            else:
                values[key] += value
        values["trace.spans"] += op["spans"]
        values["trace.unattributed_frac"] = max(values["trace.unattributed_frac"], op["unattributed"])
    for op in memory:
        for layer, peak in op["peaks"].items():
            values[f"{layer}.peak_mib"] = max(values[f"{layer}.peak_mib"], peak / 2**20)
    nnz_in = values["matrix.rref_nnz_in"]
    values["matrix.fill_ratio"] = values["matrix.rref_nnz_out"] / nnz_in if nnz_in else 0.0
    traced_s = sum(op["op_s"] for op in traced)
    values["trace.overhead"] = traced_s / untraced_s if untraced_s > 0 else 0.0
    return values

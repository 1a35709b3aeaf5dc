"""Span tracing of seqlab's layers, done from outside the package.

Nothing in ``src/seqlab`` is edited.  ``Tracer.install`` rebinds each traced
public function in every ``seqlab.*`` module namespace that holds it (modules
import names directly, so patching only the defining module would miss
callers such as ``membership`` binding ``f_density``), and patches traced
methods on their classes.  ``Tracer.uninstall`` puts the originals back, so
untraced runs execute seqlab unmodified.

A span is ``(name, start, end, parent, invocation, n)``: ``n`` is the unit of
work the call reports (elements, rows, ...) or ``None``.  Spans stay in memory
until ``dump`` writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np


def _result_len(args, kwargs, result):
    return len(result)


def _arg_size(i):
    return lambda args, kwargs, result: int(np.size(args[i]))


def _accepted(args, kwargs, result):
    return int(result is not None)


def _anchors(args, kwargs, result):
    return len(result.trail)


# (span name, module, function, work reported as the span's n)
FUNCTIONS = [
    ("cli.main", "seqlab.cli", "main", None),
    ("cli.render", "seqlab.cli", "render_json", None),
    ("sequences.make_sequence", "seqlab.sequences", "make_sequence", _result_len),
    ("modulus.check", "seqlab.modulus", "check_modulus_axioms", None),
    ("matrices.transform", "seqlab.matrices", "transform_prefix", _result_len),
    ("matrices.make_matrix", "seqlab.matrices", "make_matrix", None),
    ("matrices.regularity", "seqlab.matrices", "regularity_check", None),
    ("orlicz.luxemburg", "seqlab.orlicz", "luxemburg_norm", None),
    ("orlicz.orlicz", "seqlab.orlicz", "orlicz_norm", None),
    ("orlicz.make_family", "seqlab.orlicz", "make_family", None),
    ("orlicz.check", "seqlab.orlicz", "check_orlicz_axioms", None),
    ("density.exceedance", "seqlab.density", "exceedance_set", None),
    ("density.trail", "seqlab.density", "f_density", None),
    ("density.trail", "seqlab.density", "natural_density", None),
    ("density.complement", "seqlab.density", "complement_inequality_check", None),
    ("membership.scores", "seqlab.membership", "pointwise_scores", _result_len),
    ("membership.limit_estimate", "seqlab.membership", "stat_limit_estimate", _accepted),
    ("membership.density_membership", "seqlab.membership", "density_membership", None),
    ("membership.cauchy_check", "seqlab.membership", "stat_cauchy_check", _anchors),
    ("membership.block_trails", "seqlab.membership", "block_trails", None),
    ("witnesses.extract", "seqlab.witnesses", "extract_witness_set", None),
    ("witnesses.off_witness", "seqlab.witnesses", "converge_off_witness", None),
    ("witnesses.cauchy", "seqlab.witnesses", "cauchy_limit_construction", None),
    ("witnesses.probe", "seqlab.witnesses", "multi_modulus_probe", None),
]

# (span name, module, class, method, work reported as the span's n)
METHODS = [
    ("core.members_upto", "seqlab.core", "IndexSet", "members_upto", _result_len),
    ("core.counts", "seqlab.core", "IndexSet", "counts", _arg_size(1)),
    ("core.from_members", "seqlab.core", "IndexSet", "from_members", _arg_size(2)),
    ("modulus.call", "seqlab.modulus", "Modulus", "__call__", _arg_size(1)),
    ("orlicz.eval_many", "seqlab.orlicz", "OrliczFamily", "eval_many", _arg_size(1)),
]

# Called once per matrix row, so counted rather than given a span each.
COUNTERS = [("matrices.apply_row", "seqlab.matrices", "apply_row")]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.invocation = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            n = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    n = work(args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.invocation, n)

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def root(self, fn):
        """Wrap one benchmark invocation in a root span of its own."""
        self.invocation += 1
        return self._span("bench.invoke", fn, None)

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "seqlab" or mod_name.startswith("seqlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self):
        for name, module, attr, work in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            self._rebind_everywhere(original, self._span(name, original, work))
        for name, module, attr in COUNTERS:
            original = getattr(sys.modules[module], attr)
            self._rebind_everywhere(original, self._counter(name, original))
        for name, module, cls_name, attr, work in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._span(name, raw.__func__, work)))
            else:
                self._set(cls, attr, self._span(name, raw, work))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path):
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, inv, n) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "invocation": inv, "n": n}) + "\n")
            fh.write(json.dumps({"counters": dict(self.counts)}) + "\n")


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith(("_frac", "_per_point", "_per_n", "_yield")):
        return "ratio"
    return "count"


def layer_metrics(tracer: Tracer, invocations: int) -> dict[str, float]:
    """Per-invocation means of each layer's counts and self time (ms).

    Self time is a span's duration minus the time covered by its direct
    children.  Ratios are taken over the whole traced run.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, inv, n in spans:
        if parent is not None:
            child[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    work: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    seq_values: dict[int, int] = defaultdict(int)  # invocation -> sequence length
    rows_inv: dict[str, set] = defaultdict(set)
    tried = exceed_members = norm_evals = 0
    for sid, (name, start, end, parent, inv, n) in enumerate(spans):
        calls[name] += 1
        work[name] += n or 0
        self_s[name] += (end - start) - child[sid]
        pname = spans[parent][0] if parent is not None else None
        if name == "sequences.make_sequence":
            seq_values[inv] += n or 0
        elif name in ("matrices.transform", "membership.scores"):
            rows_inv[name].add(inv)
        elif name == "membership.density_membership" and pname == "membership.limit_estimate":
            tried += 1
        elif name == "core.from_members" and pname == "density.exceedance":
            exceed_members += n or 0
        elif name == "orlicz.eval_many" and pname in ("orlicz.luxemburg", "orlicz.orlicz"):
            norm_evals += 1

    inv = max(invocations, 1)

    def ms(*names):
        return 1000.0 * sum(self_s[k] for k in names) / inv

    def per_inv(value):
        return value / inv

    def ratio(num, den):
        return num / den if den else 0.0

    def rows_per_n(name):
        n_total = sum(seq_values[i] for i in rows_inv[name])
        return ratio(work[name], n_total)

    core = [k for k in self_s if k.startswith("core.")]
    wit = [k for k in self_s if k.startswith("witnesses.")]
    norms = calls["orlicz.luxemburg"] + calls["orlicz.orlicz"]
    return {
        "cli.self_ms": ms("cli.main"),
        "cli.render_ms": ms("cli.render"),
        "sequences.make_sequence_ms": ms("sequences.make_sequence"),
        "sequences.values": per_inv(work["sequences.make_sequence"]),
        "core.members_upto_calls": per_inv(calls["core.members_upto"]),
        "core.materialized_elems": per_inv(work["core.members_upto"]),
        "core.counts_points": per_inv(work["core.counts"]),
        "core.materialized_per_point": ratio(work["core.members_upto"], work["core.counts"]),
        "core.self_ms": ms(*core),
        "core.from_members_calls": per_inv(calls["core.from_members"]),
        "core.from_members_elems": per_inv(work["core.from_members"]),
        "core.from_members_ms": ms("core.from_members"),
        "modulus.call_elems": per_inv(work["modulus.call"]),
        "modulus.self_ms": ms("modulus.call"),
        "modulus.check_ms": ms("modulus.check"),
        "matrices.transform_calls": per_inv(calls["matrices.transform"]),
        "matrices.transform_rows_per_n": rows_per_n("matrices.transform"),
        "matrices.transform_ms": ms("matrices.transform"),
        "matrices.apply_row_calls": per_inv(tracer.counts["matrices.apply_row"]),
        "matrices.make_matrix_ms": ms("matrices.make_matrix"),
        "matrices.regularity_ms": ms("matrices.regularity"),
        "orlicz.eval_many_calls": per_inv(calls["orlicz.eval_many"]),
        "orlicz.eval_many_elems": per_inv(work["orlicz.eval_many"]),
        "orlicz.eval_many_ms": ms("orlicz.eval_many"),
        "orlicz.modular_evals_per_norm": ratio(norm_evals, norms),
        "orlicz.luxemburg_ms": ms("orlicz.luxemburg"),
        "orlicz.orlicz_ms": ms("orlicz.orlicz"),
        "orlicz.make_family_ms": ms("orlicz.make_family"),
        "orlicz.check_ms": ms("orlicz.check"),
        "density.exceedance_calls": per_inv(calls["density.exceedance"]),
        "density.exceedance_members": per_inv(exceed_members),
        "density.exceedance_ms": ms("density.exceedance"),
        "density.trail_calls": per_inv(calls["density.trail"]),
        "density.trail_ms": ms("density.trail"),
        "density.complement_ms": ms("density.complement"),
        "membership.scores_calls": per_inv(calls["membership.scores"]),
        "membership.scores_elems_per_n": rows_per_n("membership.scores"),
        "membership.scores_ms": ms("membership.scores"),
        "membership.candidates_tried": per_inv(tried),
        "membership.candidate_yield": ratio(work["membership.limit_estimate"], tried),
        "membership.cauchy_anchors_tried": per_inv(work["membership.cauchy_check"]),
        "membership.block_trails_calls": per_inv(calls["membership.block_trails"]),
        "membership.block_trails_ms": ms("membership.block_trails"),
        "witnesses.self_ms": ms(*wit),
    }


def work_signature(tracer: Tracer, first_span: int) -> dict[str, int]:
    """Call and work counts of the spans recorded since ``first_span``.

    Two passes over the same structure must give equal signatures whatever
    values they drew; the runner compares them to check that the seed moves
    no work.
    """
    sig: dict[str, int] = defaultdict(int)
    for name, start, end, parent, inv, n in tracer.spans[first_span:]:
        sig[name + ".calls"] += 1
        sig[name + ".n"] += n or 0
    return dict(sig)

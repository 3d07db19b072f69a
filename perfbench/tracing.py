"""Outside-in span tracer for the benchmark's traced passes.

The tracer replaces the public mdfem callables listed under ``spans`` in
``layers.json`` with wrappers that record one span per call: pass id,
span id, parent span id, name, start and end, read from the process
CPU clock (``time.process_time``) like the pass times. Spans stay in
memory and are written once, when the run ends. Wrappers are installed
for a traced pass only and removed afterwards, so untraced passes run
the library as shipped.
"""
from __future__ import annotations

import functools
import importlib
import json
import pathlib
import statistics
import time

import numpy as np

LAYERS = json.loads(
    (pathlib.Path(__file__).with_name("layers.json")).read_text("utf-8"))

# Library modules searched for other bindings of a wrapped function.
_MODULES = ("bspline", "quadrature", "mesh", "elasticity", "structural",
            "coupling", "nonconforming", "system", "bench", "cli")

# Relative tolerance of the self-time identity sum(self) + unattributed
# = pass time, which holds exactly in real arithmetic.
_IDENTITY_RTOL = 1e-9


class TraceError(Exception):
    """The recorded spans are inconsistent."""


def _resolve(target):
    """``"module:Class.attr"`` -> (owner object, attribute name)."""
    mod, _, qual = target.partition(":")
    owner = importlib.import_module(f"mdfem.{mod}")
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans of wrapped library calls plus per-pass counters."""

    def __init__(self):
        self.spans = []       # [pass, id, parent, name, start, end]
        self._stack = []
        self._patches = []
        self.pass_id = -1
        self._first = 0
        self.counters = {}
        self.solutions = []

    # Installation --------------------------------------------------------

    def install(self):
        """Wrap every listed callable wherever mdfem modules bind it."""
        modules = [importlib.import_module(f"mdfem.{m}") for m in _MODULES]
        for name, targets in LAYERS["spans"].items():
            hook = _HOOKS.get(name)
            for target in targets:
                owner, attr = _resolve(target)
                original = owner.__dict__[attr]
                wrapped = self._wrap(name, original, hook)
                self._patch(owner, attr, wrapped)
                if isinstance(owner, type):
                    continue
                # Module functions may also be bound by name elsewhere.
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is original and mod is not owner:
                            self._patch(mod, key, wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [self.pass_id, len(spans), stack[-1] if stack else -1,
                   name, clock(), None]
            spans.append(rec)
            stack.append(rec[1])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    # Passes --------------------------------------------------------------

    def begin_pass(self, pass_id):
        self.pass_id = pass_id
        self._first = len(self.spans)
        self.counters = {}
        self.solutions = []
        self.install()

    def end_pass(self, total, extra_counters):
        """Remove the wrappers and reduce this pass's spans to metrics.

        ``total`` is the pass time on the span clock."""
        self.uninstall()
        spans = self.spans[self._first:]
        metrics = _span_metrics(spans, total)
        counts = dict(self.counters)
        counts.update(extra_counters)
        counts.update(_system_sizes(self.solutions))
        cut = counts.get("nonconforming.elements_cut", 0)
        rules = metrics.get("nonconforming.cut_rule_calls", 0)
        counts["nonconforming.cut_rules"] = rules
        counts["nonconforming.cut_rules_per_cut"] = rules / cut if cut else 0.0
        self.solutions = []
        return metrics, counts

    def count(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def write(self, path, meta):
        """Write every span of the run as compact JSON."""
        names = sorted({s[3] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {"meta": meta, "names": names,
               "columns": ["pass", "id", "parent", "name", "start", "end"],
               "spans": [[p, i, q, index[n], a, b]
                         for p, i, q, n, a, b in self.spans]}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")), "utf-8")


def _span_metrics(spans, total):
    """Self, inclusive and call metrics of one pass, with the self-check.

    Checks that every span closed after it opened, that each child opened
    and closed inside its parent (the parent was still open), that no
    self time is negative, and that the self times plus the unattributed
    time add up to the pass time ``total``.
    """
    by_id = {s[1]: s for s in spans}
    child_time = dict.fromkeys(by_id, 0.0)
    top = 0.0
    for _, sid, parent, name, t0, t1 in spans:
        if t1 is None or t1 < t0:
            raise TraceError(f"span {sid} ({name}) did not close")
        if parent == -1:
            top += t1 - t0
            continue
        p = by_id.get(parent)
        if p is None or not (p[4] <= t0 and t1 <= p[5]):
            raise TraceError(f"span {sid} ({name}) is not inside an open "
                             f"parent span {parent}")
        child_time[parent] += t1 - t0
    out = {}
    self_sum = 0.0
    for _, sid, parent, name, t0, t1 in spans:
        own = (t1 - t0) - child_time[sid]
        if own < -1e-9:
            raise TraceError(f"span {sid} ({name}) has negative self time")
        self_sum += own
        out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + own
        out[f"{name}_calls"] = out.get(f"{name}_calls", 0) + 1
        # Inclusive time counts the outermost span of a name only.
        up = parent
        while up != -1 and by_id[up][3] != name:
            up = by_id[up][2]
        if up == -1:
            out[f"{name}_incl_s"] = out.get(f"{name}_incl_s", 0.0) + t1 - t0
    unattributed = total - top
    if unattributed < -1e-9:
        raise TraceError("spans extend past the pass")
    if abs(self_sum + unattributed - total) > _IDENTITY_RTOL * total + 1e-12:
        raise TraceError(f"self times {self_sum} + unattributed "
                         f"{unattributed} != pass time {total}")
    out["unattributed_s"] = unattributed
    return out


def _system_sizes(solutions):
    """Size counters of the largest solve, from Solution.K and .free."""
    from scipy.sparse import triu
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    out = {"system.solves": len(solutions)}
    if not solutions:
        return out
    K, free = max(solutions, key=lambda s: int(s[1].sum()))
    Kff = K[free][:, free].tocsr()
    n = Kff.shape[0]
    perm = reverse_cuthill_mckee(Kff, symmetric_mode=True)
    upper = triu(Kff[perm][:, perm]).tocoo()
    band = int((upper.col - upper.row).max()) if upper.nnz else 0
    out.update({"system.ndof": n, "system.nnz": int(Kff.nnz),
                "system.rcm_band": band,
                "system.band_mb": (band + 1) * n * 8 / 1e6})
    return out


# Counters read from the arguments and results of wrapped calls ----------


def _basis_points(tracer, args, result):
    tracer.count("mesh.basis_eval_points", int(np.size(args[2])))


def _interface_sizes(tracer, args, op):
    tracer.count("coupling.segments", len(op.segments))
    tracer.count("coupling.qpoints",
                 sum(len(seg.weights) for seg in op.segments))


def _overlap_sizes(tracer, args, result):
    from mdfem.nonconforming import CUT, VOID

    model = args[0]
    tracer.count("nonconforming.elements_void",
                 int(np.count_nonzero(model.labels == VOID)))
    tracer.count("nonconforming.elements_cut",
                 int(np.count_nonzero(model.labels == CUT)))
    tracer.count("nonconforming.dofs_pinned", len(model.inactive_dofs))


def _cut_rule(tracer, args, result):
    tracer.count("nonconforming.cut_rules_ok", 1)


def _solution(tracer, args, sol):
    tracer.solutions.append((sol.K, sol.free))


_HOOKS = {
    "mesh.basis_eval": _basis_points,
    "coupling.pair": _interface_sizes,
    "nonconforming.classify": _overlap_sizes,
    "nonconforming.cut_rule": _cut_rule,
    "system.solve": _solution,
}


def reduce_passes(per_pass):
    """Median of each layer metric over the traced passes.

    Counts must repeat exactly between passes; returns ``(metrics,
    mismatched count names)``.
    """
    keys = sorted(set().union(*per_pass))
    out, unsteady = {}, []
    for key in keys:
        vals = [p.get(key, 0) for p in per_pass]
        if key.endswith("_s"):
            out[key] = statistics.median(vals)
        else:
            if len(set(vals)) > 1:
                unsteady.append(key)
            out[key] = vals[0]
    return out, unsteady

"""Span tracer that measures cpsmap's layers from outside the package.

A layer is timed by replacing a module-level name in the namespace of the
module that calls it (for example ``cpsmap.cli.estimate_tcf``) with a
wrapper that records a span.  The package source is never edited, and
restoring the original names leaves the package exactly as it was.

A span records its name, start, end, the span that caused it and any
counts taken from the call's arguments.  The parent is the innermost
open span on the same thread; a span opened on a worker thread of the
estimator's pool has no open span of its own, so its parent is the
innermost open span of the thread that created the tracer.
"""

import importlib
import threading
import time
from contextlib import contextmanager


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _sphere_rows(args, kwargs):
    return {"rows": int(_arg(args, kwargs, 3, "size"))}


def _rk4_traj_steps(args, kwargs):
    x = _arg(args, kwargs, 0, "x")
    rows = 1
    for n in x.shape[:-2]:
        rows *= int(n)
    return {"traj_steps": rows * int(_arg(args, kwargs, 5, "steps"))}


# (calling module, name in its namespace, layer, counts taken from the call)
WRAPPED = (
    ("cpsmap.cli", "estimate_tcf", "estimators.estimate_tcf", None),
    ("cpsmap.cli", "exact_tcf", "qcore.exact_tcf", None),
    ("cpsmap.cli", "build_hamiltonian", "models.build_hamiltonian", None),
    ("cpsmap.cli", "sample_sphere_batch", "cps.sample_sphere_batch", _sphere_rows),
    ("cpsmap.cli", "run_validations", "cli.run_validations", None),
    ("cpsmap.cli", "_validate_exact_mapping", "cli.validate_exact_mapping", None),
    ("cpsmap.cli", "_validate_moments", "cli.validate_moments", None),
    ("cpsmap.cli", "_validate_drift", "cli.validate_drift", None),
    ("cpsmap.estimators", "sample_sphere_batch", "cps.sample_sphere_batch", _sphere_rows),
    ("cpsmap.estimators", "_rk4_arrays", "dynamics.rk4", _rk4_traj_steps),
    ("cpsmap.estimators", "hermitian_eig", "qcore.hermitian_eig", None),
    ("cpsmap.estimators", "propagator_from_decomposition", "qcore.propagator", None),
    ("cpsmap.estimators", "gdtwa_points", "kernels.gdtwa_points", None),
    ("cpsmap.dynamics", "_rk4_arrays", "dynamics.rk4", _rk4_traj_steps),
    ("cpsmap.dynamics", "hermitian_eig", "qcore.hermitian_eig", None),
    ("cpsmap.dynamics", "propagator_from_decomposition", "qcore.propagator", None),
    ("cpsmap.kernels", "hermitian_eig", "qcore.hermitian_eig", None),
)

COUNT_FIELDS = ("calls", "rows", "traj_steps")

# Per-layer metrics, named <layer>.<field> after Tracer.summary(); the proc.
# and trace. ones are computed by child.py from the repetition itself.
PER_LAYER = (
    "estimators.estimate_tcf.calls",
    "estimators.estimate_tcf.s",
    "estimators.estimate_tcf.self_s",
    "cps.sample_sphere_batch.calls",
    "cps.sample_sphere_batch.rows",
    "cps.sample_sphere_batch.s",
    "dynamics.rk4.calls",
    "dynamics.rk4.traj_steps",
    "dynamics.rk4.s",
    "cli.run_experiment.self_s",
    "cli.run_validations.s",
    "cli.validate_exact_mapping.s",
    "cli.validate_moments.s",
    "cli.validate_drift.s",
    "qcore.hermitian_eig.calls",
    "qcore.hermitian_eig.s",
    "qcore.propagator.calls",
    "qcore.propagator.s",
    "qcore.exact_tcf.calls",
    "qcore.exact_tcf.s",
    "kernels.gdtwa_points.s",
    "models.build_hamiltonian.s",
    "cli.load_config.s",
    "proc.cpu_util",
    "trace.overhead_frac",
)


def layer_unit(name):
    if name.startswith(("proc.", "trace.")):
        return "ratio"
    return "count" if name.rsplit(".", 1)[1] in COUNT_FIELDS else "s"


# Self time is a span's duration minus the part its direct children cover.
SELF_TIMED = ("estimators.estimate_tcf", "cli.run_experiment")


class Tracer:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._open = {}
        self._main = threading.get_ident()
        self._saved = []

    @contextmanager
    def span(self, name, counts=None):
        tid = threading.get_ident()
        with self._lock:
            stack = self._open.setdefault(tid, [])
            owner = stack or self._open.get(self._main) or [None]
            record = {"id": len(self.spans), "parent": owner[-1], "name": name,
                      "counts": counts or {}}
            self.spans.append(record)
            stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            with self._lock:
                stack.pop()

    def _wrapper(self, fn, layer, counter):
        def traced(*args, **kwargs):
            counts = counter(args, kwargs) if counter else None
            with self.span(layer, counts):
                return fn(*args, **kwargs)

        return traced

    def install(self):
        for module_name, attr, layer, counter in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrapper(fn, layer, counter))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def summary(self):
        """Per-layer calls, summed seconds, summed counts and self time."""
        out = {}
        children = {}
        for rec in self.spans:
            children.setdefault(rec["parent"], []).append(rec)
        for rec in self.spans:
            entry = out.setdefault(rec["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
            duration = rec["end"] - rec["start"]
            entry["calls"] += 1
            entry["s"] += duration
            for key, value in rec["counts"].items():
                entry[key] = entry.get(key, 0) + value
            if rec["name"] in SELF_TIMED:
                covered = _union_length(
                    (c["start"], c["end"]) for c in children.get(rec["id"], ())
                )
                entry["self_s"] += duration - covered
        return out


def _union_length(intervals):
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total

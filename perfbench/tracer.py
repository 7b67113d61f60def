"""Span tracing of diracspin from outside the library, and the per-layer metrics.

`Tracer.install` wraps every function defined in a diracspin module (and
every method of a class defined there) at each place it is bound in the
package's module namespaces, so calls between modules are caught; no
library source is edited.  Each call records a span: name, start, end,
parent span and operation id.  Spans live in flat in-memory arrays and are
written out once, at the end of the run.

The layers are the package modules.  A span's self time is its duration
minus the durations of its direct children, which nest inside it.  Per-call
costs are inclusive (what a caller pays, children and their wrappers
included); per-op figures divide by the number of traced operations.
"""
from __future__ import annotations

import functools
import inspect
import re
from array import array
from time import perf_counter_ns

import numpy as np

from worker import MODULES as LAYERS

#: Mean inclusive cost per call in microseconds, by span name.
US_PER_CALL = {
    "lorentz.wigner_rotation.us_per_call": "lorentz.wigner_rotation",
    "lorentz.wigner_rotation_closed.us_per_call": "lorentz.wigner_rotation_closed",
    "lorentz.su2_from_so3.us_per_call": "lorentz.su2_from_so3",
    "lorentz.bispinor_rep.us_per_call": "lorentz.bispinor_rep",
    "lorentz.random_lorentz.us_per_call": "lorentz.random_lorentz",
    "lorentz.standard_boost.us_per_call": "lorentz.standard_boost",
    "amplitudes.amplitude.us_per_call": "amplitudes.amplitude",
    "amplitudes.sandwich_formula_residual.us_per_call": "amplitudes.sandwich_formula_residual",
    "amplitudes.weinberg_residual.us_per_call": "amplitudes.weinberg_residual",
    "spin_ops.pl_spin.us_per_call": "spin_ops.pl_spin",
    "spin_ops.pl_covariant.us_per_call": "spin_ops.pl_covariant",
    "spin_ops.spin_transform_closed.us_per_call": "spin_ops.spin_transform_closed",
    "cli.build_parser.us_per_call": "cli.build_parser",
    "cli.main.us_per_call": "cli.main",
}
#: Mean inclusive cost per call in milliseconds, by span name.
MS_PER_CALL = {
    "states.scalar_product.ms": "states.scalar_product",
    "position.synthesize_mesh.ms": "position.synthesize_mesh",
    "position.position_product.ms": "position.position_product",
    "position.parseval_check.ms": "position.parseval_check",
    "dynamics.to_csv_ms": "dynamics.Trajectory.to_csv",
    "verify.to_json_ms": "verify.to_json",
}
#: Calls per traced operation, by span name.
CALLS_PER_OP = {
    "minkowski.lorentz_matrix.calls": "minkowski.lorentz_matrix",
    "minkowski.check_mass.calls": "minkowski.check_mass",
}
EVALUATE = ("states.SpinWaveFunction.evaluate", "states.CovariantWaveFunction.evaluate")


def _points(arr) -> int:
    return int(np.size(arr)) // 3


def _sizers(identities) -> dict:
    """Per-span integer recorded at call time: batch points, RK4 steps, or
    the identity index for verify.run_identity."""
    index = {name: i for i, name in enumerate(identities)}
    return {
        "amplitudes.amplitude_batch": ("P", _points),
        "states.wigner_d_batch": ("pts", _points),
        "states.SpinWaveFunction.evaluate": ("pts", _points),
        "states.CovariantWaveFunction.evaluate": ("pts", _points),
        "dynamics.integrate": ("steps", int),
        "verify.run_identity": ("name", index.__getitem__),
    }


class Tracer:
    """In-memory span recorder.  `op` is the current operation id; spans
    recorded while it is negative (output checks) are ignored by
    `layer_metrics`."""

    def __init__(self):
        self.names: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self.name_id, self.parent, self.op_id = array("i"), array("q"), array("q")
        self.start, self.size = array("q"), array("q")
        self.end_index, self.end = array("q"), array("q")

    def _wrap(self, fn, name: str, sizer=None):
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        name_id, parent, op_id = self.name_id, self.parent, self.op_id
        start, size, end_index, end = self.start, self.size, self.end_index, self.end
        if sizer is not None:
            arg, measure = sizer
            signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_id.append(self.op)
            size.append(measure(signature.bind(*args, **kwargs).arguments[arg])
                        if sizer is not None else 0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end.append(perf_counter_ns())
                end_index.append(idx)
                stack.pop()

        return wrapper

    def install(self, package, modules, identities) -> int:
        """Wrap every diracspin function at each module-namespace binding;
        returns the number of distinct functions wrapped."""
        sizers = _sizers(identities)
        prefix = package.__name__ + "."
        wrapped: dict = {}
        classes = set()

        def wrapper_for(fn):
            if fn not in wrapped:
                name = f"{fn.__module__[len(prefix):]}.{fn.__qualname__}"
                wrapped[fn] = self._wrap(fn, name, sizers.get(name))
            return wrapped[fn]

        for mod in (package, *modules):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__.startswith(prefix):
                    setattr(mod, attr, wrapper_for(obj))
                elif (inspect.isclass(obj) and obj.__module__.startswith(prefix)
                      and obj not in classes):
                    classes.add(obj)
                    for mname, meth in list(vars(obj).items()):
                        dunder = mname.startswith("__") and mname != "__post_init__"
                        if inspect.isfunction(meth) and not dunder:
                            setattr(obj, mname, wrapper_for(meth))
        return len(wrapped)

    def arrays(self) -> dict:
        n = len(self.start)
        end = np.zeros(n, dtype=np.int64)
        end[np.frombuffer(self.end_index, dtype=np.int64)] = np.frombuffer(self.end, dtype=np.int64)
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op_id, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": end,
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
        }


def layer_metrics(spans: dict, ops: int, identities) -> dict:
    """Every per-layer metric from the span arrays of `ops` traced operations.

    Metrics of a function the workload never called read 0.
    """
    names = [str(x) for x in spans["names"]]
    name_id, parent, op = spans["name_id"], spans["parent"], spans["op"]
    dur = (spans["end"] - spans["start"]).astype(float)
    size = spans["size"]
    has_parent = parent >= 0
    self_t = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    keep = op >= 0
    # Name id of each span's parent; -1 for top-level spans.
    parent_id = np.where(has_parent, name_id[np.where(has_parent, parent, 0)], -1)
    ops = max(ops, 1)

    def ids(*fnames):
        return [names.index(f) for f in fnames if f in names]

    def sel(*fnames):
        return keep & np.isin(name_id, ids(*fnames))

    def mean(mask, scale):
        count = int(mask.sum())
        return float(dur[mask].sum()) / count / scale if count else 0.0

    def us_per_unit(mask):
        """Microseconds per recorded size unit (batch point or RK4 step)."""
        total = int(size[mask].sum())
        return float(dur[mask].sum()) / total / 1e3 if total else 0.0

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        mask = keep & np.isin(name_id, [i for i, f in enumerate(names) if f.split(".")[0] == layer])
        out[f"{layer}.calls"] = (float(mask.sum()) / ops, "calls/op")
        out[f"{layer}.self_ms"] = (float(self_t[mask].sum()) / 1e6 / ops, "ms/op")

    run_id = sel("verify.run_identity")
    for i, ident in enumerate(identities):
        ms = float(dur[run_id & (size == i)].sum()) / 1e6 / ops
        out[f"verify.identity_ms.{ident}"] = (ms, "ms/op")
    for metric, fname in US_PER_CALL.items():
        out[metric] = (mean(sel(fname), 1e3), "us")
    for metric, fname in MS_PER_CALL.items():
        out[metric] = (mean(sel(fname), 1e6), "ms")
    for metric, fname in CALLS_PER_OP.items():
        out[metric] = (float(sel(fname).sum()) / ops, "calls/op")

    out["amplitudes.amplitude_batch.us_per_point"] = (
        us_per_unit(sel("amplitudes.amplitude_batch")), "us/point")
    out["states.wigner_d_batch.us_per_point"] = (
        us_per_unit(sel("states.wigner_d_batch")), "us/point")
    # a transported state's evaluate calls the original's: count the outer one
    outer_eval = sel(*EVALUATE) & ~np.isin(parent_id, ids(*EVALUATE))
    out["states.evaluate.us_per_point"] = (us_per_unit(outer_eval), "us/point")
    products = int(sel("states.scalar_product").sum())
    in_product = int((sel(*EVALUATE) & np.isin(parent_id, ids("states._sector_product"))).sum())
    out["states.evaluate.calls_per_product"] = (in_product / products if products else 0.0,
                                                "calls/product")

    integrate = sel("dynamics.integrate")
    steps = int(size[integrate].sum())
    out["dynamics.integrate.us_per_step"] = (us_per_unit(integrate), "us/step")
    out["dynamics.rhs.calls_per_step"] = (
        float(sel("dynamics.rhs").sum()) / steps if steps else 0.0, "calls/step")
    return out


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S+)\s*$")


def import_metrics(importtime_stderr: str, package: str = "diracspin") -> dict:
    """`L.import_ms`: each module's cumulative time under `python -X importtime`."""
    cumulative = {}
    for line in importtime_stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            cumulative[m.group(3)] = int(m.group(2)) / 1e3
    return {f"{layer}.import_ms": (cumulative.get(f"{package}.{layer}", 0.0), "ms")
            for layer in LAYERS}

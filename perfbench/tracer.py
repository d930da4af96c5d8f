"""Spans around the public functions of each qsynth module.

The tracer wraps, from outside, every public function defined in a layer
module and rebinds each reference the package holds to it (module
globals, ``from x import f`` copies and module-level dict entries such as
the pass table).  Each call records one span: its id, its parent's id,
the layer function, the cell that ran it, start, end, self time (span
minus the spans nested in it), the exception class if it raised, and a
few counts taken at the same boundary.  Spans stay in memory; the worker
writes them out when it ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("pla", "funcprep", "esop", "tbs", "encoding", "optimize", "circuit",
          "qasm", "simulate", "stats", "cli")

# Per-gate constructors: called once per emitted gate, they are the work
# inside a layer, not a boundary between layers.
_SKIP = {"circuit": {"x", "h", "z", "cz", "rx", "ry", "rz", "sx", "sxdg", "measure"}}


def _gates(circuit) -> int:
    if isinstance(circuit, tuple):  # (circuit, trace) from with_trace=True
        circuit = circuit[0]
    return len(circuit.gates)


# counts recorded at a boundary: name -> f(args, result) -> dict
_COUNTS = {
    "optimize.lower_to_uniform": lambda a, r: {"gates_in": _gates(a[0]), "gates_out": _gates(r)},
    "optimize.graycode_optimize": lambda a, r: {"gates_in": _gates(a[0]), "gates_out": _gates(r)},
    "circuit.lower_negative_controls": lambda a, r: {"gates_in": _gates(a[0]), "gates_out": _gates(r)},
    "simulate.run_statevector": lambda a, r: {"gates": _gates(a[0])},
    "simulate.run_reversible_table": lambda a, r: {"rows": len(r)},
    "qasm.emit_qasm": lambda a, r: {"bytes": len(r)},
    "qasm.parse_qasm": lambda a, r: {"bytes": len(a[0])},
    "tbs.synth_tbs_basic": lambda a, r: {"gates": _gates(r)},
    "tbs.synth_tbs_rm": lambda a, r: {"gates": _gates(r)},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.cell: str | None = None
        self._stack: list[list] = []
        self._next_id = 0

    def install(self) -> int:
        """Wrap the layer functions; returns how many were wrapped."""
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"qsynth.{layer}")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or attr in _SKIP.get(layer, ())):
                    continue
                wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if name != "qsynth" and not name.startswith("qsynth."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrapped:
                            obj[key] = wrapped[value]
        return len(wrapped)

    def _wrap(self, name: str, fn):
        tracer = self
        counts = _COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0.0]  # id, time covered by child spans
            stack.append(frame)
            error = None
            info = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                if error is None and counts is not None:
                    info = counts(args, result)
                tracer.spans.append((
                    span_id, parent[0] if parent is not None else None, name,
                    tracer.cell, start, end, duration - frame[1], error, info))
            return result

        return traced

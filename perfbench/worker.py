"""Runs one workload's cells, one at a time, through ``qsynth.cli.main``.

Started by run.py as ``python3 worker.py PLAN RESULTS`` with the
checkout's ``src`` on PYTHONPATH.  Each command gets the plan's deadline
through SIGALRM and is timed in CPU seconds (see ``cpu_seconds``); each
cell ends in one status class:

    ok | cap | unsupported | timeout | crashed | wrong

(``ok`` here means the CLI succeeded; run.py checks the outputs after
this process has exited, so checking costs neither time nor memory in
the measured metrics).  Untraced runs make one pass over the cell list
and time a cold ``import qsynth.cli`` in fresh interpreters at evenly
spaced points of it, so that the set-up samples spread over the run.
Traced runs make one untraced pass, count what ``remove_double_x``
would drop from its outputs, install the tracer and make one traced
pass.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


class CellTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in qsynth catches it."""


def _on_alarm(signum, frame):
    raise CellTimeout


def cpu_seconds() -> float:
    """CPU time of this process and of the child processes it has reaped.

    The CLI's ``--timeout`` runs synthesis in a forked child, which it
    joins before it returns, so the child's time counts with the command.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def host_steal_seconds() -> float:
    """Time the hypervisor gave this machine's virtual CPUs to other guests so far.

    Summed over all CPUs, from the ``steal`` column of ``/proc/stat``;
    0.0 where that is not available.
    """
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def run_command(cli, argv: list[str], deadline: float) -> dict:
    """One CLI command with its CPU and wall time, exit code and captured output."""
    out, err = io.StringIO(), io.StringIO()
    rc, crash, timed_out = None, None, False
    # Off the clock: so that one command's garbage is not collected on the
    # next command's time, and cell times do not depend on the seeded order.
    collecting = time.perf_counter()
    gc.collect()
    start, start_cpu = time.perf_counter(), cpu_seconds()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CellTimeout:
        timed_out = True
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # noqa: BLE001 - an uncaught error is the finding
        crash = f"{type(exc).__name__}: {exc}"
    return {"seconds": cpu_seconds() - start_cpu, "wall_s": time.perf_counter() - start,
            "gc_s": start - collecting, "rc": rc, "crash": crash, "timed_out": timed_out,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def classify(command: str, result: dict, deadline: float) -> tuple[str, str]:
    """Status class and reason of one finished command."""
    if result["timed_out"]:
        return "timeout", f"{command} exceeded the {deadline:g} s deadline"
    if result["crash"] is not None:
        return "crashed", f"{command}: uncaught {result['crash']}"
    rc = result["rc"]
    reason = result["stderr"].strip().splitlines()[-1] if result["stderr"].strip() else ""
    if rc == 0:
        return "ok", ""
    if rc == 5:
        return "timeout", f"{command}: {reason}"
    if rc == 4:
        kind = "cap" if "SizeLimitExceeded" in reason else "unsupported"
        return kind, f"{command}: {reason}"
    if rc == 3:
        return "wrong", f"{command}: {reason or 'verification failed'}"
    return "crashed", f"{command}: exit {rc} {reason}".rstrip()


def synth_argv(cell: dict) -> list[str]:
    argv = ["synth", cell["source"], "--method", cell["method"],
            "--gateset", cell["gateset"], "--out", cell["out"]]
    if cell["opt"]:
        argv += ["--opt", cell["opt"]]
    if cell["timeout"] is not None:
        argv += ["--timeout", str(cell["timeout"])]
    return argv


def verify_argv(cell: dict) -> list[str]:
    argv = ["verify", cell["out"], cell["source"], "--method", cell["method"]]
    if cell["method"] == "amplitude":
        argv += ["--seed", str(cell["verify_seed"])]
    return argv


def run_cell(cli, cell: dict, deadline: float) -> dict:
    synth = run_command(cli, synth_argv(cell), deadline)
    status, reason = classify("synth", synth, deadline)
    record = {"id": cell["id"], "synth_s": synth["seconds"], "verify_s": 0.0,
              "synth_wall_s": synth["wall_s"], "verify_wall_s": 0.0, "gc_s": synth["gc_s"],
              "status": status, "reason": reason, "synth_ok": status == "ok"}
    if status == "ok" and cell["verify"]:
        runs = []
        while len(runs) < cell["verify_repeats"] and record["status"] == "ok":
            runs.append(run_command(cli, verify_argv(cell), deadline))
            record["status"], record["reason"] = classify("verify", runs[-1], deadline)
        record["verify_s"] = statistics.median(r["seconds"] for r in runs)
        record["verify_wall_s"] = statistics.median(r["wall_s"] for r in runs)
        record["gc_s"] += sum(r["gc_s"] for r in runs)
    return record


def run_pass(cli, cells: list[dict], deadline: float, stop_at: float,
             tracer: Tracer | None, setup_at: tuple[int, ...] = ()) -> dict:
    """One pass over the cells; before cell ``i`` it times ``setup_at.count(i)``
    cold imports (index ``len(cells)``: after the last cell).

    The pass's wall time leaves out that sampling and the collections
    before each command.
    """
    records, setup_s = [], []
    sampling = 0.0
    start, steal = time.perf_counter(), host_steal_seconds()
    for i, cell in enumerate([*cells, None]):
        mark = time.perf_counter()
        setup_s += [cold_import_seconds() for _ in range(setup_at.count(i))]
        sampling += time.perf_counter() - mark
        if cell is None:
            break
        if time.perf_counter() >= stop_at:
            records.append({"id": cell["id"], "synth_s": 0.0, "verify_s": 0.0,
                            "synth_wall_s": 0.0, "verify_wall_s": 0.0, "status": "timeout",
                            "reason": "not started: run budget spent",
                            "started": False})
            continue
        if tracer is not None:
            tracer.cell = cell["id"]
        records.append(run_cell(cli, cell, deadline))
    wall = time.perf_counter() - start - sampling - sum(r.get("gc_s", 0.0) for r in records)
    steal = host_steal_seconds() - steal
    if tracer is not None:
        tracer.cell = None
    for cell, record in zip(cells, records):
        if record.get("synth_ok"):
            out = Path(cell["out"])
            data = out.read_bytes()
            record["gate_count"] = json.loads(out.with_suffix(".json").read_text())["gate_count"]
            record["qasm_bytes"] = len(data)
            record["qasm_sha1"] = hashlib.sha1(data).hexdigest()
    return {"wall_s": wall, "host_steal_s": steal, "cells": records, "setup_s": setup_s}


def cold_import_seconds() -> float:
    """CPU time of ``import qsynth.cli`` inside a fresh interpreter."""
    code = ("import time; t = time.process_time(); import qsynth.cli; "
            "print(time.process_time() - t)")
    done = subprocess.run([sys.executable, "-c", code], env=os.environ, capture_output=True,
                          text=True, timeout=60, check=True)
    return float(done.stdout.strip())


def setup_points(samples: int, cells: int) -> tuple[int, ...]:
    """Cell indices, evenly spaced from the first to after the last, to sample set-up at."""
    return tuple(round(i * cells / (samples - 1)) for i in range(samples))


def cancellable_x(cells: list[dict], records: list[dict]) -> dict[str, list[int]]:
    """Per synthesized cell: gates ``remove_double_x`` would drop, and gates emitted.

    Reads each output back with qsynth's own parser, so the count is that
    pass's verdict on the emitted circuit.
    """
    from qsynth.optimize import remove_double_x
    from qsynth.qasm import parse_qasm

    counts = {}
    for cell, record in zip(cells, records):
        if record.get("synth_ok"):
            circuit = parse_qasm(Path(cell["out"]).read_text())
            emitted = len(circuit.gates)
            counts[cell["id"]] = [emitted - len(remove_double_x(circuit).gates), emitted]
    return counts


def lowering_probe(source: Path, deadline: float, tracer: Tracer) -> None:
    """ex5 esop through ``lower_to_uniform`` once, for its per-call figure.

    The CLI cell does not fit the run budget (about 20 s end to end), so
    the traced ``uniform`` run calls the layer functions directly.
    """
    from qsynth.esop import synth_esop, to_esop
    from qsynth.optimize import lower_to_uniform
    from qsynth.pla import parse_pla

    tracer.cell = "probe:ex5/esop/lower_to_uniform"
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            lower_to_uniform(synth_esop(to_esop(parse_pla(source.read_text()))))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CellTimeout:
        pass
    tracer.cell = None


def main(plan_path: str, results_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    cells, deadline = plan["cells"], plan["deadline_s"]
    stop_at = time.perf_counter() + plan["stop_after_s"]
    signal.signal(signal.SIGALRM, _on_alarm)

    import numpy
    import scipy

    import qsynth.cli as cli
    import qsynth.tbs

    passes = []
    tracer = None
    cancellable: dict[str, list[int]] = {}
    if plan["trace"]:
        passes.append(run_pass(cli, cells, deadline, stop_at, None))
        cancellable = cancellable_x(cells, passes[0]["cells"])
        tracer = Tracer()
        tracer.install()
        passes.append(run_pass(cli, cells, deadline, stop_at, tracer))
        # Like a cell, the probe does not start once the run budget is spent.
        if plan["workload"] == "uniform" and time.perf_counter() < stop_at:
            lowering_probe(Path(plan["bench_dir"]) / "ex5.pla", deadline, tracer)
    else:
        passes.append(run_pass(cli, cells, deadline, stop_at, None,
                               setup_points(plan["setup_samples"], len(cells))))

    results = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "qsynth_file": cli.__file__,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "gate_cap": qsynth.tbs.GATE_CAP,
        "spans": tracer.spans if tracer is not None else [],
        "cancellable_x": cancellable,
    }
    Path(results_path).write_text(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

"""qsynth benchmark: one workload, end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

The run builds the workload's inputs from the seed under ``.perfbench/``,
runs its cells in a worker process through ``qsynth.cli.main`` (one
process, one cell at a time, each command under a fixed deadline; at
evenly spaced points between cells it times a cold ``import
qsynth.cli`` in fresh interpreters), then checks every output against
references of its own (reference.py).  The last line of standard output
is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics when ``--trace 0`` and the per-layer metrics
when ``--trace 1``.  The line before it is a JSON record of the run: the
environment, the deadline, the seed, and every cell's status and reason.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import cells as workloads  # noqa: E402
import reference as ref  # noqa: E402
from tracer import LAYERS  # noqa: E402

# Cold imports timed per untraced run, spread evenly over its pass;
# setup_s is their median.
SETUP_SAMPLES = 3
# No cell starts after this many seconds of the worker's run, and the
# worker is killed after KILL_AFTER_S, so a run ends within 180 s.
STOP_AFTER_S = 105.0
KILL_AFTER_S = 150.0
STATUSES = ("ok", "cap", "unsupported", "timeout", "crashed", "wrong")
FAILED = ("timeout", "crashed", "wrong")

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("compile_s", "s", "lower"),
    ("verify_s", "s", "lower"),
    ("cell_p50_s", "s", "lower"),
    ("cell_tail_s", "s", "lower"),
    ("emitted_gates", "count", "lower"),
    ("qasm_bytes", "bytes", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "ratio", "higher"),
    ("fail_frac", "ratio", "lower"),
)

_SELF = (
    "tbs.synth_tbs_basic", "tbs.synth_tbs_rm",
    "optimize.lower_to_uniform", "optimize.graycode_optimize",
    "simulate.run_statevector", "simulate.sample", "stats.g_statistic",
    "stats.kl_divergence", "stats.js_divergence",
    "simulate.run_reversible_table", "qasm.parse_qasm", "esop.evaluate_esop",
    "qasm.emit_qasm", "circuit.lower_negative_controls", "circuit.metrics",
    "pla.parse_pla", "funcprep.prepare_bijection", "funcprep.expand",
    "funcprep.make_onto", "funcprep.normalize_pmf", "esop.to_esop",
    "esop.synth_esop", "encoding.qrom_pipeline", "encoding.synth_amplitude",
    "encoding.read_pmf", "optimize.apply_passes", "cli.main",
)

PER_LAYER = (
    *((f"{name}.self_s", "s", "lower") for name in _SELF),
    *((f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("tbs.gates_recorded", "count", "lower"),
    ("tbs.capped_s", "s", "lower"),
    ("tbs.useful_frac", "ratio", "higher"),
    ("optimize.lower_to_uniform.gates_out", "count", "lower"),
    ("optimize.graycode_optimize.gates_in", "count", "lower"),
    ("optimize.graycode_optimize.gates_out", "count", "lower"),
    ("simulate.run_statevector.gates", "count", "lower"),
    ("simulate.run_reversible_table.rows", "count", "lower"),
    ("qasm.emit_bytes", "bytes", "lower"),
    ("qasm.emit_mb_per_s", "MB/s", "higher"),
    ("qasm.parse_mb_per_s", "MB/s", "higher"),
    ("circuit.ir_gates", "count", "lower"),
    ("circuit.x_conjugation_gates", "count", "lower"),
    ("circuit.cancellable_x_frac", "ratio", "lower"),
    ("circuit.cancellable_x_base", "count", "lower"),
    ("circuit.metrics.total_s", "s", "lower"),
    ("setup.scipy_stats_s", "s", "lower"),
    ("setup.numpy_s", "s", "lower"),
    ("setup.qsynth_s", "s", "lower"),
    *((f"cells.{status}", "count", "higher" if status == "ok" else "lower")
      for status in STATUSES),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("ex5_esop.emit_qasm_s", "s", "lower"),
    ("ex5_esop.parse_qasm_s", "s", "lower"),
    ("ex5_esop.lower_negative_controls_s", "s", "lower"),
    ("ex5_esop.lower_to_uniform_s", "s", "lower"),
    ("ex5_esop.lower_to_uniform_gates_out", "count", "lower"),
)


# ---------------------------------------------------------------------------
# environment and set-up
# ---------------------------------------------------------------------------

def _python_env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def import_profile(root: Path) -> dict[str, float]:
    """Import cost split from ``-X importtime``: scipy.stats, numpy, qsynth's own modules."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qsynth.cli"],
                          cwd=root, env=_python_env(root), capture_output=True, text=True,
                          timeout=60, check=True)
    cumulative: dict[str, int] = {}
    own = 0
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # the header line
        name = name.strip()
        cumulative.setdefault(name, int(cum_us))
        if name == "qsynth" or name.startswith("qsynth."):
            own += int(self_us)
    return {"setup.scipy_stats_s": cumulative.get("scipy.stats", 0) / 1e6,
            "setup.numpy_s": cumulative.get("numpy", 0) / 1e6,
            "setup.qsynth_s": own / 1e6}


def environment(root: Path, versions: dict, args, deadline: float) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "qsynth").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    sha = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        sha = done.stdout.strip() or None
    return {**versions, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "git_sha": sha, "src_sha256": digest.hexdigest()[:16],
            "deadline_s": deadline, "seed": args.seed, "workload": args.workload,
            "run_seconds": args.seconds, "trace": bool(args.trace)}


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------

def check_output(cell: dict, record: dict) -> dict:
    """Check one synthesized file; raises ref.CheckFailed when it is wrong."""
    num_qubits, gates = ref.read_qasm(Path(cell["out"]).read_text())
    if len(gates) != record["gate_count"]:
        raise ref.CheckFailed(f"sidecar gate_count {record['gate_count']} but the "
                              f"file applies {len(gates)} gates")
    if cell["gateset"] == "uniform":
        stray = sorted({name for name, _, _ in gates} - ref.UNIFORM_NAMES)
        if stray:
            raise ref.CheckFailed(f"non-uniform gates {', '.join(stray)}")
    evidence = {"qubits": num_qubits, "functional": True}
    method = cell["method"]
    source = Path(cell["source"]).read_text()
    if method == "amplitude":
        if ref.fits_statevector(num_qubits, len(gates)):
            evidence.update(ref.check_amplitude(ref.read_pmf(source), num_qubits, gates))
        else:
            evidence["functional"] = False
    elif cell["gateset"] == "natural" and method == "esop":
        evidence.update(ref.check_io_register(ref.Pla(source), num_qubits, gates))
    elif cell["gateset"] == "natural" and method in ("tbs", "tbs-rm"):
        evidence.update(ref.check_reversible(ref.Pla(source), num_qubits, gates))
    elif method in ("angle", "improved-angle") and (
            cell["gateset"] == "natural" or ref.fits_statevector(num_qubits, len(gates))):
        evidence.update(ref.check_angle(ref.Pla(source), num_qubits, gates,
                                        improved=method == "improved-angle"))
    else:
        evidence["functional"] = False  # structure and gate count only
    return evidence


def check_outputs(cells: list[dict], passes: list[dict]) -> dict[str, dict]:
    """Check the outputs of the last pass; mark every pass's record accordingly."""
    verdicts = {}
    last = {r["id"]: r for r in passes[-1]["cells"]}
    for cell in cells:
        record = last[cell["id"]]
        if not record.get("synth_ok"):
            continue
        digests = {r["qasm_sha1"] for p in passes for r in p["cells"]
                   if r["id"] == cell["id"] and r.get("synth_ok")}
        try:
            if len(digests) > 1:
                raise ref.CheckFailed("output differs between passes")
            verdicts[cell["id"]] = {"ok": True, **check_output(cell, record)}
        except (ref.CheckFailed, ValueError) as exc:
            verdicts[cell["id"]] = {"ok": False, "reason": f"benchmark check: {exc}"}
    for run_pass in passes:
        for record in run_pass["cells"]:
            verdict = verdicts.get(record["id"])
            if verdict is not None and not verdict["ok"] and record.get("synth_ok"):
                record["status"], record["reason"] = "wrong", verdict["reason"]
    return verdicts


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def latencies(run_pass: dict) -> list[float]:
    """Measured cell latencies (synth + verify) of one pass.

    Every cell that ran counts with its own time, whatever its status;
    ok_frac and fail_frac count the cells that did not end ok.
    """
    return [r["synth_s"] + r["verify_s"] for r in run_pass["cells"] if r.get("started", True)]


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten cells beyond it, and that percentile."""
    beyond = 10
    if len(samples) <= beyond:
        return max(samples), 100
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    for percentile in range(99, 0, -1):
        value = cuts[percentile - 1]
        if sum(1 for x in samples if x > value) >= beyond:
            return value, percentile
    return min(samples), 0


def end_to_end(run_pass: dict, gate_set: set[str]) -> dict[str, float]:
    """Sums and cell latency percentiles of one untraced pass."""
    records = run_pass["cells"]
    counted = [r for r in records if r["status"] == "ok" and r["id"] in gate_set]
    samples = latencies(run_pass)
    statuses = Counter(r["status"] for r in records)
    return {
        "wall_s": run_pass["wall_s"],
        "compile_s": sum(r["synth_s"] for r in records),
        "verify_s": sum(r["verify_s"] for r in records),
        "emitted_gates": sum(r["gate_count"] for r in counted),
        "qasm_bytes": sum(r["qasm_bytes"] for r in counted),
        "cell_p50_s": statistics.median(samples),
        "cell_tail_s": tail(samples)[0],
        "ok_frac": statuses["ok"] / len(records),
        "fail_frac": sum(statuses[s] for s in FAILED) / len(records),
        "setup_s": statistics.median(run_pass["setup_s"]),
    }


def layer_metrics(results: dict, verdicts: dict) -> dict[str, float]:
    """Per-layer figures from the traced pass's spans (see tracer.py)."""
    untraced, traced = results["passes"]
    spans = [s for s in results["spans"] if not (s[3] or "").startswith("probe:")]
    probe = [s for s in results["spans"] if (s[3] or "").startswith("probe:")]
    names = {s[0]: s[2] for s in results["spans"]}
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    for _, _, name, _, start, end, own, _, _ in spans:
        self_s[name] += own
        total_s[name] += end - start
    out = {f"{name}.self_s": self_s[name] for name in _SELF}
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(v for k, v in self_s.items()
                                           if k.split(".")[0] == layer)

    def info_sum(name: str, key: str, where=lambda span: True) -> int:
        return sum(s[8][key] for s in spans if s[2] == name and s[8] and where(s))

    tbs = [s for s in spans if s[2] in ("tbs.synth_tbs_basic", "tbs.synth_tbs_rm")]
    tbs_time = sum(s[5] - s[4] for s in tbs)
    capped = [s for s in tbs if s[7] == "SizeLimitExceeded"]
    lowering_parents = ("cli.cmd_synth", "optimize.lower_to_uniform")
    from_synthesis = lambda s: names.get(s[1]) in lowering_parents  # noqa: E731
    ir_gates = info_sum("circuit.lower_negative_controls", "gates_in", from_synthesis)
    lowered = info_sum("circuit.lower_negative_controls", "gates_out", from_synthesis)
    checked = [counts for cell_id, counts in results["cancellable_x"].items()
               if verdicts.get(cell_id, {}).get("ok")]
    base = sum(emitted for _, emitted in checked)
    out.update({
        "tbs.gates_recorded": info_sum("tbs.synth_tbs_basic", "gates")
        + info_sum("tbs.synth_tbs_rm", "gates") + len(capped) * results["gate_cap"],
        "tbs.capped_s": sum(s[5] - s[4] for s in capped),
        "tbs.useful_frac": (sum(s[5] - s[4] for s in tbs if s[7] is None) / tbs_time
                            if tbs_time else 0.0),
        "optimize.lower_to_uniform.gates_out": info_sum("optimize.lower_to_uniform", "gates_out"),
        "optimize.graycode_optimize.gates_in": info_sum("optimize.graycode_optimize", "gates_in"),
        "optimize.graycode_optimize.gates_out": info_sum("optimize.graycode_optimize", "gates_out"),
        "simulate.run_statevector.gates": info_sum("simulate.run_statevector", "gates"),
        "simulate.run_reversible_table.rows": info_sum("simulate.run_reversible_table", "rows"),
        "qasm.emit_bytes": info_sum("qasm.emit_qasm", "bytes"),
        "qasm.emit_mb_per_s": (info_sum("qasm.emit_qasm", "bytes") / 1e6 / total_s["qasm.emit_qasm"]
                               if total_s["qasm.emit_qasm"] else 0.0),
        "qasm.parse_mb_per_s": (info_sum("qasm.parse_qasm", "bytes") / 1e6 / total_s["qasm.parse_qasm"]
                                if total_s["qasm.parse_qasm"] else 0.0),
        "circuit.ir_gates": ir_gates,
        "circuit.x_conjugation_gates": lowered - ir_gates,
        "circuit.cancellable_x_frac": (sum(dropped for dropped, _ in checked) / base
                                       if base else 0.0),
        "circuit.cancellable_x_base": base,
        "circuit.metrics.total_s": total_s["circuit.metrics"],
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        "trace.unattributed_s": traced["wall_s"] - sum(self_s.values()),
    })
    statuses = Counter(r["status"] for r in traced["cells"])
    out.update({f"cells.{status}": statuses[status] for status in STATUSES})

    def call(spans_, cell_id: str, name: str, parent: str | None = None) -> float:
        return sum(s[5] - s[4] for s in spans_ if s[3] == cell_id and s[2] == name
                   and (parent is None or names.get(s[1]) == parent))

    out["ex5_esop.emit_qasm_s"] = call(spans, "ex5/esop", "qasm.emit_qasm")
    out["ex5_esop.parse_qasm_s"] = call(spans, "ex5/esop", "qasm.parse_qasm")
    out["ex5_esop.lower_negative_controls_s"] = call(
        spans, "ex5/esop", "circuit.lower_negative_controls", "cli.cmd_synth")
    probe_id = "probe:ex5/esop/lower_to_uniform"
    out["ex5_esop.lower_to_uniform_s"] = call(probe, probe_id, "optimize.lower_to_uniform")
    out["ex5_esop.lower_to_uniform_gates_out"] = sum(
        s[8]["gates_out"] for s in probe if s[2] == "optimize.lower_to_uniform" and s[8])
    return out


def gate_count_set(workload: str) -> set[str]:
    """Cells whose gates and bytes count: those that ended ok when the benchmark was added."""
    return set(json.loads((HERE / "gate_count_set.json").read_text())[workload])


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring window; each workload's pass is sized to it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "qsynth" / "cli.py").is_file():
        print("perfbench: no qsynth sources at ./src/qsynth; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, root: Path, work: Path) -> int:
    deadline = workloads.DEADLINE_S
    cells = workloads.build(args.workload, args.seed, root, work)
    plan = {"workload": args.workload, "cells": cells, "deadline_s": deadline,
            "trace": bool(args.trace), "setup_samples": SETUP_SAMPLES,
            "stop_after_s": STOP_AFTER_S, "bench_dir": str(workloads.bench_dir(root))}
    (work / "plan.json").write_text(json.dumps(plan))
    results_path = work / "results.json"
    started = time.perf_counter()
    # Its own session, so that a kill also ends the interpreters it starts.
    worker = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(work / "plan.json"),
                               str(results_path)], cwd=root, env=_python_env(root),
                              start_new_session=True)
    try:
        code = worker.wait(timeout=KILL_AFTER_S)
    except subprocess.TimeoutExpired:
        os.killpg(worker.pid, signal.SIGKILL)
        worker.wait()
        print(f"perfbench: worker still running after {KILL_AFTER_S:g} s", file=sys.stderr)
        return 1
    if code != 0:
        print(f"perfbench: worker failed with exit {code}", file=sys.stderr)
        return 1
    worker_s = time.perf_counter() - started
    results = json.loads(results_path.read_text())
    if not Path(results["qsynth_file"]).resolve().is_relative_to((root / "src").resolve()):
        print(f"perfbench: measured {results['qsynth_file']}, not this checkout's qsynth",
              file=sys.stderr)
        return 1

    passes = results["passes"]
    started = time.perf_counter()
    verdicts = check_outputs(cells, passes)
    check_s = time.perf_counter() - started
    measured = passes[-1]
    executions = measured["cells"]
    failed = sum(1 for r in executions if r["status"] in FAILED)
    correct = not any(r["status"] == "wrong" for p in passes for r in p["cells"])

    last = {r["id"]: r for r in executions}
    samples = latencies(measured)
    record = {
        "env": environment(root, results["versions"], args, deadline),
        "worker_s": worker_s,
        "host_steal_s": measured["host_steal_s"],
        "check_s": check_s,
        "cell_count": len(cells),
        "latency_samples": len(samples),
        "cell_tail_percentile": tail(samples)[1],
        "status_counts": dict(Counter(r["status"] for r in executions)),
        "cells": [{"id": c["id"], "status": last[c["id"]]["status"],
                   "reason": last[c["id"]]["reason"],
                   **{key: round(last[c["id"]][key], 4) for key in
                      ("synth_s", "verify_s", "synth_wall_s", "verify_wall_s")},
                   "check": verdicts.get(c["id"])} for c in cells],
    }

    if args.trace:
        values = {**layer_metrics(results, verdicts), **import_profile(root)}
        specs = PER_LAYER
    else:
        values = end_to_end(measured, gate_count_set(args.workload))
        values["peak_rss_mb"] = results["peak_rss_mb"]
        record["setup_samples_s"] = measured["setup_s"]
        specs = END_TO_END

    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct, "attempted": len(executions), "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: synthesize, verify, and benchmark in batch.

Three subcommands share one synthesis core:

* ``synth`` compiles a single .pla or .pmf file to OpenQASM plus a JSON
  metrics sidecar.
* ``verify`` replays an emitted circuit against its source file, either
  as a truth-table check (classical methods; the esop reference words
  come from one bit-sliced pass over the cubes) or as distribution
  metrics (amplitude encoding).
* ``bench`` runs a function x method grid, each cell in its own child
  process with a wall-clock timeout, and reports a CSV or JSON table.

Exit codes: 0 success / all cells ok, 1 bench grid had failing cells or
an unexpected exception (under ``synth --timeout`` too), 2 usage, 3
verification failed, 4 domain error, 5 timeout.  All output files are
byte-deterministic for fixed inputs except for the ``synth_time_us``
field, which records the actual wall time.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import errors
from .circuit import Circuit, lower_negative_controls, metrics
from .encoding import qrng_pipeline, qrom_pipeline, read_pmf
from .errors import QsynthError, SizeLimitExceeded, VerificationFailed
from .esop import evaluate_esop_table, synth_esop, to_esop
from .funcprep import (assign_dont_cares, expand, normalize_pmf, prepare_bijection, row_cap,
                       to_truth_table)
from .optimize import PASSES, apply_passes, lower_to_uniform
from .pla import parse_pla
from .qasm import emit_qasm, parse_qasm
from .simulate import _distribution_of, run_reversible_table, sample
from .stats import g_statistic, js_divergence, kl_divergence
from .tbs import synth_tbs_basic, synth_tbs_rm

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CELLS = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_DOMAIN = 4
EXIT_TIMEOUT = 5

PLA_METHODS = ("esop", "tbs", "tbs-rm", "basis", "angle", "improved-angle")
PMF_METHODS = ("amplitude",)
METHODS = PLA_METHODS + PMF_METHODS
VERIFY_METHODS = ("esop", "tbs", "tbs-rm", "basis", "amplitude")

DEFAULT_BENCH_TIMEOUT = 60.0
MAX_TIMEOUT_S = 1e6  # the pipe wait overflows past 2^31 ms (about 24.9 days)


# ---------------------------------------------------------------------------
# synthesis core (shared by synth and bench)
# ---------------------------------------------------------------------------

def _build_circuit(source: Path, method: str) -> Circuit:
    text = source.read_text()
    if method == "amplitude":
        return qrng_pipeline(read_pmf(text))
    table = parse_pla(text)
    if method == "esop":
        return synth_esop(to_esop(table))
    if method in ("tbs", "tbs-rm"):
        bijection, _ = prepare_bijection(table)
        synth = synth_tbs_basic if method == "tbs" else synth_tbs_rm
        return synth(bijection)
    if method in ("basis", "angle", "improved-angle"):
        return qrom_pipeline(table, encoding=method)
    raise ValueError(f"unknown method {method!r}")


def _synthesize(source: Path, method: str, opt: list[str],
                gateset: str) -> tuple[Circuit, dict]:
    started = time.perf_counter()
    circ = _build_circuit(source, method)
    if opt:
        circ = apply_passes(circ, opt)
    ir_gate_count = len(circ)
    circ = lower_to_uniform(circ) if gateset == "uniform" else lower_negative_controls(circ)
    elapsed_us = round((time.perf_counter() - started) * 1e6)
    report = {
        "schema_version": SCHEMA_VERSION,
        "source": source.name,
        "method": method,
        "gateset": gateset,
        "opt": list(opt),
        "synth_time_us": elapsed_us,
        "ir_gate_count": ir_gate_count,
    }
    report.update(asdict(metrics(circ)))
    return circ, report


def _parse_opt(raw: str | None) -> list[str]:
    if not raw:
        return []
    names = [part.strip() for part in raw.split(",") if part.strip()]
    for name in names:
        if name not in PASSES:
            raise ValueError(
                f"unknown pass {name!r}; available: {', '.join(sorted(PASSES))}")
    return names


def _method_for(path: Path, method: str | None) -> str:
    if path.suffix == ".pmf":
        if method not in (None, "amplitude"):
            raise ValueError(f"{path.name} is a PMF; use --method amplitude")
        return "amplitude"
    if method is None:
        raise ValueError(f"--method is required for {path.name}")
    if method == "amplitude":
        raise ValueError("--method amplitude expects a .pmf source")
    return method


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(args: argparse.Namespace) -> int:
    source = Path(args.source)
    method = _method_for(source, args.method)
    if args.qubits is not None:
        if method != "amplitude":
            raise ValueError("--qubits applies to .pmf sources")
        bins = len(read_pmf(source.read_text()))
        if args.qubits != (bins - 1).bit_length() or bins != 1 << args.qubits:
            raise ValueError(f"--qubits {args.qubits} does not fit {source.name}, "
                             f"which holds {bins} bins")
    opt = _parse_opt(args.opt)

    if args.timeout is not None:
        status, payload = _run_cell(source, method, opt, args.gateset,
                                    args.timeout, want_qasm=True)
        if status == "timeout":
            print(f"error: synthesis exceeded {args.timeout} s", file=sys.stderr)
            return EXIT_TIMEOUT
        if status == "crashed":  # what main lets out: its last line, exit 1
            print(f"{payload['error']}: {payload['detail']}", file=sys.stderr)
            return 1
        if status != "ok":  # main reports it as in process; a non-QsynthError by its text
            raise getattr(errors, payload["error"], ValueError)(payload["detail"])
        qasm_text, report = payload["qasm"], payload["report"]
    else:
        circ, report = _synthesize(source, method, opt, args.gateset)
        qasm_text = emit_qasm(circ, gateset=args.gateset)

    out = Path(args.out) if args.out else Path(f"{source.stem}.{method}.qasm")
    out.write_text(qasm_text)
    sidecar = out.with_suffix(".json")
    sidecar.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} and {sidecar} "
          f"({report['qubits']} qubits, {report['gate_count']} gates)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_classical(circ: Circuit, source: Path, method: str) -> dict:
    table = parse_pla(source.read_text())
    # expected maps each input word on the first `width` qubits to the
    # word the circuit must leave there; a word no row lists must give 0
    if method in ("tbs", "tbs-rm"):
        bijection, _ = prepare_bijection(table)
        width, expected = bijection.n, bijection.entries
    else:
        width, m, words = table.n + table.m, table.m, range(1 << table.n)
        if len(words) > (cap := row_cap()):
            raise SizeLimitExceeded(f"every input word is {len(words)} rows, cap is {cap}")
        if method == "esop":
            outputs = evaluate_esop_table(to_esop(table), words)
        else:
            entries = to_truth_table(assign_dont_cares(expand(table))).entries
            outputs = [entries.get(a, 0) for a in words]
        expected = {a << m: (a << m) | y for a, y in zip(words, outputs)}
    # qubits past the width are ancillas (e.g. from mcx-ladder): they sit
    # below the source bits in each word and must start and end at 0
    ancillas = circ.num_qubits - width
    if ancillas < 0:
        raise VerificationFailed(
            f"circuit has {circ.num_qubits} qubits but the source needs {width}")
    results = run_reversible_table(circ, [x << ancillas for x in expected])
    mismatches = sum(
        1 for x, got in zip(expected, results) if got != expected[x] << ancillas)
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": "classical",
        "method": method,
        "source": source.name,
        "rows_checked": len(expected),
        "mismatches": mismatches,
        "verified": mismatches == 0,
    }


def _verify_encoded(circ: Circuit, source: Path, shots: int,
                    seed: int) -> dict:
    target = normalize_pmf(read_pmf(source.read_text()), mode="probability").probs
    dist, _ = _distribution_of(circ)
    if dist.size < len(target):
        raise VerificationFailed(
            f"circuit yields {dist.size} outcomes but the PMF has {len(target)} bins")
    # bits past log2(bins) are ancillas (the uniform lowering's ladder adds
    # them): bin i belongs in row i, column 0, where every ancilla is 0 again
    rows = dist.reshape(len(target), -1)
    max_err = float(max(np.abs(rows[:, 0] - target).max(), rows[:, 1:].max(initial=0.0)))
    hist = sample(rows.sum(axis=1), shots, seed=seed)
    g, p = g_statistic(hist, target)
    emp = hist.empirical()
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": "encoded",
        "method": "amplitude",
        "source": source.name,
        "max_abs_error": max_err,
        "kl": kl_divergence(emp, target),
        "js": js_divergence(emp, target),
        "g": g,
        "p": p,
        "shots": shots,
        "seed": seed,
        "verified": max_err <= 1e-9,
    }


def cmd_verify(args: argparse.Namespace) -> int:
    source = Path(args.source)
    method = _method_for(source, args.method)
    if method not in VERIFY_METHODS:
        raise ValueError(
            f"verification supports {', '.join(VERIFY_METHODS)}; got {method!r}")
    circ = parse_qasm(Path(args.circuit).read_text())
    if method == "amplitude":
        report = _verify_encoded(circ, source, args.shots, args.seed)
    else:
        report = _verify_classical(circ, source, method)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return EXIT_OK if report["verified"] else EXIT_VERIFY


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def _cell_worker(conn, source: str, method: str, opt: list[str],
                 gateset: str, want_qasm: bool) -> None:
    try:
        circ, report = _synthesize(Path(source), method, opt, gateset)
        payload = {"report": report}
        if want_qasm:
            payload["qasm"] = emit_qasm(circ, gateset=gateset)
        conn.send(("ok", payload))
    except Exception as exc:  # noqa: BLE001 - forwarded to the parent verbatim
        conn.send((_status_of(exc), {"error": type(exc).__name__, "detail": str(exc)}))


def _status_of(exc: Exception) -> str:
    """A failed cell's status class, split as main() splits exit codes."""
    if isinstance(exc, SizeLimitExceeded):
        return "cap"
    return "unsupported" if isinstance(exc, (QsynthError, ValueError, OSError)) else "crashed"


def _run_cell(source: Path, method: str, opt: list[str], gateset: str,
              timeout: float, want_qasm: bool = False) -> tuple[str, dict]:
    # The parent reads the result while the child writes it: a payload
    # larger than the pipe buffer blocks the child until it is read, so
    # waiting for the child to exit first would deadlock.
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_cell_worker,
        args=(writer, str(source), method, opt, gateset, want_qasm))
    proc.start()
    writer.close()  # so that the reader sees EOF once the child is gone
    try:
        if not reader.poll(timeout):
            proc.terminate()
            proc.join()
            return "timeout", {}
        try:
            status, payload = reader.recv()
        except EOFError:  # a wordless crash (e.g. OOM kill)
            proc.join()
            return "crashed", {"error": "WorkerCrashed",
                               "detail": f"exit code {proc.exitcode}"}
        proc.join()
        return status, payload
    finally:
        reader.close()


_CSV_FIELDS = ("function", "method", "status", "qubits", "gate_count",
               "complexity", "depth", "parameterized_gate_count",
               "synth_time_us", "error")


def _bench_cells(paths: list[Path], methods: list[str], opt: list[str],
                 gateset: str, timeout: float) -> list[dict]:
    cells = []
    for path in paths:
        allowed = PMF_METHODS if path.suffix == ".pmf" else PLA_METHODS
        for method in methods:
            if method not in allowed:
                continue
            status, payload = _run_cell(path, method, opt, gateset, timeout)
            cell = {"function": path.stem, "method": method, "status": status}
            if status == "ok":
                cell.update(payload["report"])
                for key in ("schema_version", "source", "gateset", "opt"):
                    cell.pop(key, None)
            else:
                cell.update(payload)  # the error and detail of a failed cell
            cells.append(cell)
    return cells


def _bench_csv(cells: list[dict]) -> str:
    rows = [_CSV_FIELDS] + [[str(cell.get(field, "")) for field in _CSV_FIELDS] for cell in cells]
    return "".join(",".join(row) + "\n" for row in rows)


def cmd_bench(args: argparse.Namespace) -> int:
    if args.functions:
        paths = [Path(part.strip()) for part in args.functions.split(",") if part.strip()]
    else:
        root = Path(args.dir) if args.dir else Path(__file__).resolve().parent / "benchmarks"
        paths = sorted(root.glob("*.pla")) + sorted(root.glob("*.pmf"))
    if not paths:
        raise ValueError("no benchmark inputs found")
    methods = [part.strip() for part in args.methods.split(",") if part.strip()]
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    opt = _parse_opt(args.opt)

    cells = _bench_cells(paths, methods, opt, args.gateset, args.timeout)
    if not cells:
        raise ValueError("no benchmark cells: no listed method applies to the inputs")
    if args.report == "json":
        text = json.dumps({"schema_version": SCHEMA_VERSION,
                           "timeout_s": args.timeout,
                           "cells": cells}, indent=2, sort_keys=True) + "\n"
    else:
        text = _bench_csv(cells)
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return EXIT_OK if all(cell["status"] == "ok" for cell in cells) else EXIT_CELLS


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _timeout(text: str) -> float:
    """The --timeout type: a number of seconds in (0, MAX_TIMEOUT_S]."""
    seconds = float(text)  # argparse reports a ValueError as a usage error
    if not 0 < seconds <= MAX_TIMEOUT_S:  # NaN fails this too
        raise argparse.ArgumentTypeError(
            f"expected a number of seconds in (0, {MAX_TIMEOUT_S:.0f}], got {text!r}")
    return seconds


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsynth",
        description="Compile switching functions to quantum circuits.")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="compile one .pla or .pmf file")
    synth.add_argument("source", help="input .pla or .pmf file")
    synth.add_argument("--method", choices=METHODS)
    synth.add_argument("--gateset", choices=("natural", "uniform"),
                       default="natural")
    synth.add_argument("--opt", help="comma-separated pass names")
    synth.add_argument("--qubits", type=int,
                       help="expected address-qubit count (PMF inputs)")
    synth.add_argument("--timeout", type=_timeout, default=None,
                       help="wall-clock cap in seconds")
    synth.add_argument("--out", help="output .qasm path")
    synth.set_defaults(func=cmd_synth)

    verify = sub.add_parser("verify", help="check a circuit against its source")
    verify.add_argument("circuit", help="the emitted .qasm file")
    verify.add_argument("source", help="the source .pla or .pmf file")
    verify.add_argument("--method", choices=VERIFY_METHODS)
    verify.add_argument("--shots", type=int, default=4096)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--out", help="write the JSON report here too")
    verify.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="run a function x method grid")
    bench.add_argument("--dir", help="directory of .pla/.pmf inputs "
                       "(default: the packaged benchmark set)")
    bench.add_argument("--functions", help="comma-separated input files")
    bench.add_argument("--methods", default="esop,tbs",
                       help="comma-separated method list")
    bench.add_argument("--opt", help="comma-separated pass names")
    bench.add_argument("--gateset", choices=("natural", "uniform"),
                       default="natural")
    bench.add_argument("--timeout", type=_timeout, default=DEFAULT_BENCH_TIMEOUT)
    bench.add_argument("--report", choices=("csv", "json"), default="csv")
    bench.add_argument("--out", help="write the table here too")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except QsynthError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VERIFY if isinstance(exc, VerificationFailed) else EXIT_DOMAIN
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())

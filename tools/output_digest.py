"""Print SHA-256 digests over everything ``qsynth synth`` and ``qsynth verify`` write.

Every packaged input runs through every method that applies to it, at
both gate sets, under each pass list below.  Each configuration
contributes its sidecar ``gate_count`` in plain text and the SHA-256 of
its QASM and of its sidecar (without the ``synth_time_us`` wall time),
or its exit code and error message when it fails; configurations that
end in ``SizeLimitExceeded`` are skipped.
Each natural-gate-set configuration whose method ``qsynth verify``
supports is then verified against its source (amplitude at a fixed
``--seed``), and contributes its verify exit code and the SHA-256 of its
report.  The second-to-last line is the synth digest, the last one the
verify digest; two checkouts that print the same two lines write
byte-identical circuits, sidecars and verify reports.  Run from the
repository root (about 5 minutes on 2 CPUs):

    python3 tools/output_digest.py

One line per configuration goes to stdout before the digests, so a
``diff`` of two runs names the configurations that differ and each
gate-count change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import multiprocessing
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qsynth.cli import PLA_METHODS, VERIFY_METHODS, main  # noqa: E402

BENCH = ROOT / "src" / "qsynth" / "benchmarks"
GATESETS = ("natural", "uniform")
# the X-family passes act on the classical methods, graycode on rotations
CLASSICAL_PASSES = ("", "double-x", "mcx-ladder", "toffoli-5", "mcx-ladder,toffoli-5")
ROTATION_PASSES = ("", "graycode")
VERIFY_SEED = 1
WORKERS = 2


def configurations() -> list[tuple[str, str, str, str]]:
    out = []
    for source in sorted(BENCH.glob("*.pla")) + sorted(BENCH.glob("*.pmf")):
        methods = ("amplitude",) if source.suffix == ".pmf" else PLA_METHODS
        for method in methods:
            rotations = method in ("angle", "improved-angle", "amplitude")
            for opt in ROTATION_PASSES if rotations else CLASSICAL_PASSES:
                for gateset in GATESETS:
                    out.append((source.name, method, gateset, opt))
    return out


def run_quiet(argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)`` with its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue().replace(str(BENCH), "")


def digest_one(config: tuple[str, str, str, str]) -> tuple[str, str | None] | None:
    """``config``'s synth line and verify line (None if not verified); None at a cap."""
    source, method, gateset, opt = config
    with tempfile.TemporaryDirectory() as tmp:
        qasm = Path(tmp) / "out.qasm"
        argv = ["synth", str(BENCH / source), "--method", method,
                "--gateset", gateset, "--out", str(qasm)]
        if opt:
            argv += ["--opt", opt]
        code, _, err = run_quiet(argv)
        key = f"{source} {method} {gateset} opt={opt or '-'}"
        if code != 0:
            if "SizeLimitExceeded" in err:
                return None
            return f"{key} exit={code} {err.strip()}", None
        sidecar = json.loads(qasm.with_suffix(".json").read_text())
        sidecar.pop("synth_time_us")
        qasm_sha = hashlib.sha256(qasm.read_bytes()).hexdigest()
        sidecar_sha = hashlib.sha256(
            json.dumps(sidecar, sort_keys=True).encode()).hexdigest()
        synth_line = f"{key} gates={sidecar['gate_count']} {qasm_sha} {sidecar_sha}"
        if gateset != "natural" or method not in VERIFY_METHODS:
            return synth_line, None
        code, report, err = run_quiet(["verify", str(qasm), str(BENCH / source),
                                       "--method", method, "--seed", str(VERIFY_SEED)])
        report_sha = hashlib.sha256((report + err).encode()).hexdigest()
        return synth_line, f"{key} verify exit={code} {report_sha}"


def main_digest() -> None:
    configs = configurations()
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(WORKERS) as pool:
        results = [r for r in pool.map(digest_one, configs, chunksize=1) if r is not None]
    kept = [synth for synth, _ in results]
    verified = [verify for _, verify in results if verify is not None]
    for line in kept + verified:
        print(line)
    total = hashlib.sha256("\n".join(kept).encode()).hexdigest()
    print(f"{total}  {len(kept)} configurations, {len(configs) - len(kept)} capped")
    total = hashlib.sha256("\n".join(verified).encode()).hexdigest()
    print(f"{total}  {len(verified)} verify reports")


if __name__ == "__main__":
    main_digest()

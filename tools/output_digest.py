"""Print one SHA-256 over everything ``qsynth synth`` writes for the packaged corpus.

Every packaged input runs through every method that applies to it, at
both gate sets, under each pass list below.  Each configuration
contributes the SHA-256 of its QASM and of its sidecar (without the
``synth_time_us`` wall time), or its exit code and error message when it
fails; configurations that end in ``SizeLimitExceeded`` are skipped.
Two checkouts that print the same digest write byte-identical output.
Run from the repository root (about 5 minutes on 2 CPUs):

    python3 tools/output_digest.py

One line per configuration goes to stdout before the digest, so a
``diff`` of two runs names the configurations that differ.
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

from qsynth.cli import PLA_METHODS, main  # noqa: E402

BENCH = ROOT / "src" / "qsynth" / "benchmarks"
GATESETS = ("natural", "uniform")
# the X-family passes act on the classical methods, graycode on rotations
CLASSICAL_PASSES = ("", "double-x", "mcx-ladder", "toffoli-5", "mcx-ladder,toffoli-5")
ROTATION_PASSES = ("", "graycode")
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


def digest_one(config: tuple[str, str, str, str]) -> str | None:
    """``config`` and the hashes of its output; None when it hits a cap."""
    source, method, gateset, opt = config
    with tempfile.TemporaryDirectory() as tmp:
        qasm = Path(tmp) / "out.qasm"
        argv = ["synth", str(BENCH / source), "--method", method,
                "--gateset", gateset, "--out", str(qasm)]
        if opt:
            argv += ["--opt", opt]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        key = f"{source} {method} {gateset} opt={opt or '-'}"
        if code != 0:
            if "SizeLimitExceeded" in err.getvalue():
                return None
            message = err.getvalue().replace(str(BENCH), "").strip()
            return f"{key} exit={code} {message}"
        sidecar = json.loads(qasm.with_suffix(".json").read_text())
        sidecar.pop("synth_time_us")
        qasm_sha = hashlib.sha256(qasm.read_bytes()).hexdigest()
        sidecar_sha = hashlib.sha256(
            json.dumps(sidecar, sort_keys=True).encode()).hexdigest()
        return f"{key} {qasm_sha} {sidecar_sha}"


def main_digest() -> None:
    configs = configurations()
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(WORKERS) as pool:
        lines = pool.map(digest_one, configs, chunksize=1)
    kept = [line for line in lines if line is not None]
    for line in kept:
        print(line)
    total = hashlib.sha256("\n".join(kept).encode()).hexdigest()
    print(f"{total}  {len(kept)} configurations, {len(configs) - len(kept)} capped")


if __name__ == "__main__":
    main_digest()

"""Time each step of the amplitude (QRNG) path, one PMF size per fresh interpreter.

For each size a child interpreter builds one seeded dense PMF (every bin
a height in [0.001, 1.001), seed ``SEED``) and times, in CPU seconds,
best of ``REPEAT`` runs each:

- synth: ``qrng_pipeline`` (normalize, then ``synth_amplitude``);
- sv plain: ``run_statevector`` of that circuit;
- graycode: ``graycode_optimize`` of it;
- sv Gray-code: ``run_statevector`` of the Gray-code circuit;
- emit / parse Gray-code: ``emit_qasm`` of it and ``parse_qasm`` of the text.

``gates`` is the plain circuit's gate count.  Prints a Markdown table.
Run from the repository root:

    python3 tools/amplitude_path.py                       # 2^14 and 2^16 bins
    python3 tools/amplitude_path.py --bins 16384,262144   # 2^18 takes about a minute
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
REPEAT = 3  # runs per step; the best counts
COLUMNS = ("bins", "gates", "synth", "sv plain", "graycode", "sv Gray-code",
           "emit Gray-code", "parse Gray-code")


def measure(bins: int) -> dict:
    """One table row; runs in the child interpreter."""
    import random

    sys.path.insert(0, str(ROOT / "src"))
    from qsynth.encoding import qrng_pipeline
    from qsynth.optimize import graycode_optimize
    from qsynth.qasm import emit_qasm, parse_qasm
    from qsynth.simulate import run_statevector

    def best(fn, *args):
        times = []
        for _ in range(REPEAT):
            start = time.process_time()
            out = fn(*args)
            times.append(time.process_time() - start)
        return min(times), out

    rng = random.Random(SEED)
    heights = [rng.random() + 0.001 for _ in range(bins)]
    row = {"bins": bins}
    row["synth"], plain = best(qrng_pipeline, heights)
    row["gates"] = len(plain)
    row["sv plain"], _ = best(run_statevector, plain)
    row["graycode"], gray = best(graycode_optimize, plain)
    row["sv Gray-code"], _ = best(run_statevector, gray)
    row["emit Gray-code"], text = best(emit_qasm, gray)
    row["parse Gray-code"], _ = best(parse_qasm, text)
    return row


def cell(column: str, value) -> str:
    if column == "bins":
        return f"2^{value.bit_length() - 1}"
    return f"{value:,}" if column == "gates" else f"{value:.2f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--bins", default="16384,65536",
                        help="comma-separated bin counts, each a power of two")
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(measure(args.child)))
        return 0
    sizes = [int(b) for b in args.bins.split(",")]
    if any(b < 2 or b & (b - 1) for b in sizes):
        parser.error("--bins takes powers of two from 2 up")
    print("| " + " | ".join(COLUMNS) + " |")
    print("|" + "|".join("---:" for _ in COLUMNS) + "|")
    for bins in sizes:
        done = subprocess.run(
            [sys.executable, __file__, "--child", str(bins)],
            check=True, capture_output=True, text=True)
        row = json.loads(done.stdout)
        print("| " + " | ".join(cell(c, row[c]) for c in COLUMNS) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Workload definitions: which qsynth commands a run executes.

A cell is one user-level job: ``qsynth synth`` on one input, then
``qsynth verify`` on its output where the CLI supports the method.  The
seed shuffles the cell order, picks the sampling seeds that ``verify``
gets, and generates the ``pmf-scale`` inputs; the packaged PLA and PMF
files are read from the checkout's ``src/qsynth/benchmarks``.

Each workload is a fixed cell list sized so that its pass fits the run
budget on a 2-CPU machine (see README.md for what was left out and why).
"""

from __future__ import annotations

import math
import random
from pathlib import Path

VERIFY_METHODS = ("esop", "tbs", "tbs-rm", "basis", "amplitude")
WORKLOADS = ("corpus", "uniform", "pmf-scale")

# Wall-clock deadline for one CLI command.  The slowest corpus cell that
# ends on its own (inc tbs-rm, hitting the 50,000-gate cap) takes about
# 14 s on a 2-CPU machine; apex4 tbs/tbs-rm never end.
DEADLINE_S = 20.0

# ``--timeout`` handed to the probe cells.  With it, ``synth`` runs in a
# forked child and returns the QASM through a multiprocessing queue; a
# payload over the 64 KiB pipe buffer stalls until this timeout.
PROBE_TIMEOUT_S = 1.0

# Grid cells left out of ``corpus`` to fit the run budget.  apex4 tbs and
# tbs-rm wait out the deadline (40 s); addm4/mlp4 tbs and tbs-rm and inc
# tbs-rm walk the TBS sweep into the 50,000-gate cap (2-14 s each; inc
# tbs, 2 s, stays as the capped-sweep case).  b11 and addm4 esop and clip
# tbs-rm (1-1.6 s each) repeat work that apex4 and ex5 esop and clip tbs
# already time.  basis builds the same gates as esop on every packaged
# PLA, and its ex5 verify crash is the one esop shows.
CORPUS_METHODS = ("esop", "tbs", "tbs-rm", "angle", "improved-angle")
CORPUS_EXCLUDED = (
    ("apex4", "tbs"), ("apex4", "tbs-rm"),
    ("addm4", "tbs"), ("addm4", "tbs-rm"),
    ("mlp4", "tbs"), ("mlp4", "tbs-rm"),
    ("inc", "tbs-rm"),
    ("b11", "esop"), ("addm4", "esop"), ("clip", "tbs-rm"),
)

# ``uniform`` PLA cells: angle on every packaged PLA (0.05-2 s each), and
# esop on the PLAs whose esop lowering takes under 3 s.  esop on addm4 and
# apex4 (8 s) and b11 (12 s) does not fit the run budget, and ex5 runs
# past the deadline.
UNIFORM_ESOP = ("Z5xp1", "Z9sym", "clip", "dist", "f51m", "inc", "mlp4", "squar5")

PMF_SHAPES = ("dense", "sparse", "smooth")
# Seeded pmf-scale PMFs, each compiled plain and with --opt graycode.
# Costs roughly double per address qubit (a 2^11-bin cell takes 0.5-1.5 s),
# so the sizes interleave into an even spread of cell latencies.
PMF_SCALE_PMFS = tuple(f"{shape}-q{k}" for shape in PMF_SHAPES for k in (8, 9, 10, 11))
# The O(4^k) angle solve at 2^12 bins, in each shape, goes through
# --opt graycode only (about 2 s a cell); a plain 2^12-bin cell would take
# 3-5 s.  With these three on top, the tenth and eleventh slowest cells,
# which set cell_tail_s, are the two slower plain 2^10-bin cells, not the
# slowest of that group and the cell across the factor-of-two gap below.
PMF_SCALE_GRAYCODE_ONLY = ("dense-q12", "sparse-q12", "smooth-q12")
# Seeded PMFs, one per shape, that uniform compiles with --opt graycode and
# verifies, so that verify_s has a value.  At 2^10 bins a verify takes
# about 0.1 s; the packaged PMFs (about 5 ms each) would leave verify_s to
# timer jitter.  The cells stay below the median cell latency.
UNIFORM_PMFS = ("dense-q10", "sparse-q10", "smooth-q10")
# Three short verifies are too few samples for a steady sum, so each runs
# this many times back to back and counts with its median time.
UNIFORM_VERIFY_REPEATS = 5

def bench_dir(root: Path) -> Path:
    return root / "src" / "qsynth" / "benchmarks"


def _cell(cell_id: str, source: Path, method: str, out_dir: Path, *,
          gateset: str = "natural", opt: str | None = None,
          timeout: float | None = None, verify_repeats: int = 1) -> dict:
    stem = cell_id.replace("/", "_")
    # The CLI verifies natural-gateset circuits of these methods, and
    # amplitude circuits of any gateset that adds no ancilla qubits.
    verify = method in VERIFY_METHODS and (gateset == "natural" or opt == "graycode")
    return {
        "id": cell_id,
        "source": str(source),
        "method": method,
        "gateset": gateset,
        "opt": opt,
        "timeout": timeout,
        "verify": verify,
        "verify_repeats": verify_repeats,
        "out": str(out_dir / f"{stem}.qasm"),
    }


def _corpus(root: Path, out: Path) -> list[dict]:
    src = bench_dir(root)
    cells = []
    for pla in sorted(src.glob("*.pla")):
        for method in CORPUS_METHODS:
            if (pla.stem, method) in CORPUS_EXCLUDED:
                continue
            cells.append(_cell(f"{pla.stem}/{method}", pla, method, out))
    for pmf in sorted(src.glob("*.pmf")):
        cells.append(_cell(f"{pmf.stem}/amplitude", pmf, "amplitude", out))
    cells.append(_cell("Z5xp1/esop/probe", src / "Z5xp1.pla", "esop", out,
                       timeout=PROBE_TIMEOUT_S))
    return cells


def _uniform(root: Path, out: Path, pmfs: dict[str, Path]) -> list[dict]:
    src = bench_dir(root)
    cells = []
    for pla in sorted(src.glob("*.pla")):
        if pla.stem in UNIFORM_ESOP:
            cells.append(_cell(f"{pla.stem}/esop/uniform", pla, "esop", out,
                               gateset="uniform"))
        cells.append(_cell(f"{pla.stem}/angle/uniform", pla, "angle", out,
                           gateset="uniform"))
    # Gray-code flattening leaves no multi-controlled gate, so the uniform
    # circuit needs no ancilla and is the one uniform output the CLI
    # verifies.
    for name, path in pmfs.items():
        cells.append(_cell(f"{name}/amplitude/graycode/uniform", path, "amplitude", out,
                           gateset="uniform", opt="graycode",
                           verify_repeats=UNIFORM_VERIFY_REPEATS))
    cells.append(_cell("squar5/angle/uniform/probe", src / "squar5.pla", "angle",
                       out, gateset="uniform", timeout=PROBE_TIMEOUT_S))
    return cells


def _pmf_scale(out: Path, pmfs: dict[str, Path]) -> list[dict]:
    cells = []
    for name in PMF_SCALE_PMFS:
        cells.append(_cell(f"{name}/amplitude", pmfs[name], "amplitude", out))
    for name in PMF_SCALE_PMFS + PMF_SCALE_GRAYCODE_ONLY:
        cells.append(_cell(f"{name}/amplitude/graycode", pmfs[name], "amplitude", out,
                           opt="graycode"))
    cells.append(_cell("dense-q10/amplitude/probe", pmfs["dense-q10"],
                       "amplitude", out, timeout=PROBE_TIMEOUT_S))
    return cells


# ---------------------------------------------------------------------------
# seeded PMF inputs
# ---------------------------------------------------------------------------

def pmf_heights(shape: str, k: int, rng: random.Random) -> list[float]:
    """Histogram heights over 2^k bins in one of three shapes.

    ``dense``: every bin drawn from (0, 1].  ``sparse``: half of the 16
    aligned blocks hold no mass (whole zero-mass subtrees of the rotation
    tree) and half of the bins in the others are zero.  ``smooth``: a
    mixture of three Gaussian bumps over a small floor.
    """
    size = 1 << k
    if shape == "dense":
        return [1.0 - rng.random() for _ in range(size)]
    if shape == "sparse":
        block = size // 16
        live = set(rng.sample(range(16), 8))
        return [(1.0 - rng.random()) if i // block in live and rng.random() < 0.5
                else 0.0 for i in range(size)]
    if shape == "smooth":
        bumps = [(rng.uniform(0.1, 0.9) * size, rng.uniform(0.03, 0.15) * size,
                  rng.uniform(0.5, 1.0)) for _ in range(3)]
        return [1e-3 + sum(w * math.exp(-0.5 * ((i - mu) / sd) ** 2)
                           for mu, sd, w in bumps) for i in range(size)]
    raise ValueError(f"unknown PMF shape {shape!r}")


def _write_pmfs(rng: random.Random, inputs: Path, names) -> dict[str, Path]:
    """Write one ``<shape>-q<k>.pmf`` per name, in order, from the seeded stream."""
    paths = {}
    for name in names:
        shape, k = name.split("-q")
        path = inputs / f"{name}.pmf"
        heights = pmf_heights(shape, int(k), rng)
        path.write_text(f"# {name}\n" + "\n".join(map(repr, heights)) + "\n")
        paths[name] = path
    return paths


def build(workload: str, seed: int, root: Path, work: Path) -> list[dict]:
    """Write the workload's inputs under ``work`` and return its cells in run order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(seed)
    inputs = work / "inputs"
    out = work / "out"
    inputs.mkdir(parents=True)
    out.mkdir()
    if workload == "corpus":
        cells = _corpus(root, out)
    elif workload == "uniform":
        cells = _uniform(root, out, _write_pmfs(rng, inputs, UNIFORM_PMFS))
    else:
        pmfs = _write_pmfs(rng, inputs, PMF_SCALE_PMFS + PMF_SCALE_GRAYCODE_ONLY)
        cells = _pmf_scale(out, pmfs)
    rng.shuffle(cells)
    for cell in cells:
        cell["verify_seed"] = rng.randrange(1 << 31)
    return cells

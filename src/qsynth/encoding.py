"""Data-encoding synthesis: basis, angle and amplitude memories.

Basis memories copy each stored word onto a data register under
full-width address controls.  Angle memories rotate a single data qubit:
in plain mode the words at even table positions land in the RX magnitude
(readable as P(data=1) = sin^2 of the stored value) and the words at odd
positions land in the RZ phase (readable only through interference); in
improved mode every address stores a significand via RX and an integer
exponent via RZ.  Amplitude circuits prepare a probability distribution
outright from a binary tree of RY rotations.

A stored value t is realized as RX(2t) / RY(2t) so that measurement
probabilities come out as cos^2/sin^2 of t itself rather than of t/2.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, replace

from .circuit import Circuit, Gate, rx, rz
from .errors import NotNormalized, NotPowerOfTwo, ValueOutOfRange
from .funcprep import (
    NormalizedWords,
    Pmf,
    TruthTable,
    assign_dont_cares,
    expand,
    normalize,
    normalize_pmf,
    to_truth_table,
)
from .esop import synth_esop
from .pla import PlaTable

PMF_TOLERANCE = 1e-9


def _address_controls(n: int, a: int) -> tuple[tuple[int, bool], ...]:
    return tuple((q, bool((a >> (n - 1 - q)) & 1)) for q in range(n))


def synth_basis(table: TruthTable) -> Circuit:
    """One multi-controlled X per stored hot bit, full address controls.

    ``table`` is the memory image: an address it leaves undefined holds
    the word 0, which costs no gates in any encoding.  Uses n address
    plus m data qubits; preparing |a> and measuring the data register
    reads the stored word with probability 1.  Each defined address, in
    ascending order, is a dash-free cube, so this is ``synth_esop`` with
    memory labels.
    """
    cubes = tuple((format(a, f"0{table.n}b"), format(x, f"0{table.m}b"))
                  for a, x in sorted(table.entries.items()))
    labels = tuple(f"a{i}" for i in range(table.n)) + tuple(f"d{i}" for i in range(table.m))
    return replace(synth_esop(PlaTable(table.n, table.m, cubes)), labels=labels)


def synth_angle(table: TruthTable, normalized: NormalizedWords) -> Circuit:
    """Rotation memory on n address qubits plus one data qubit.

    ``normalized`` supplies one value per defined address of ``table``,
    in ascending address order, and each address gets an (RX, RZ) angle
    pair, both under its full address controls.  Plain mode: addresses
    at even positions store their value as the RX angle (so
    P(data=1 | that address) = sin^2(value)) and addresses at odd
    positions as the RZ phase; values must lie in [0, 2*pi).
    Float-like words select improved mode, which stores the significand
    as the RX angle and the integer exponent as the RZ phase.  A zero
    angle emits no gate, and a zero word emits neither.
    """
    if len(normalized.values) != len(table.entries):
        raise ValueError(f"{len(normalized.values)} values for {len(table.entries)} addresses")
    if normalized.scheme == "floatlike":
        # a zero significand marks the zero word, whose exponent is not stored
        angles = [(2.0 * s, float(e) if s else 0.0)
                  for s, e in zip(normalized.significands, normalized.exponents)]
    else:
        bad = [v for v in normalized.values if not 0.0 <= v < 2.0 * math.pi]
        if bad:
            raise ValueOutOfRange(f"angle value {bad[0]!r} outside [0, 2*pi)")
        angles = [(2.0 * v, 0.0) if j % 2 == 0 else (0.0, v)
                  for j, v in enumerate(normalized.values)]
    data = table.n
    gates = []
    for a, (x_angle, z_angle) in zip(sorted(table.entries), angles):
        controls = _address_controls(table.n, a)
        if x_angle:
            gates.append(rx(x_angle, data, controls))
        if z_angle:
            gates.append(rz(z_angle, data, controls))
    labels = tuple(f"a{i}" for i in range(table.n)) + ("d0",)
    return Circuit(num_qubits=table.n + 1, gates=tuple(gates), labels=labels)


# ---------------------------------------------------------------------------
# amplitude encoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AngleTree:
    """Binary rotation tree behind an amplitude-encoded distribution.

    ``levels[l][i]`` is the angle at node i of depth l (2^l nodes per
    level); at every node cos^2 of the angle equals the left-subtree mass
    over the subtree mass, so multiplying squared cosines (left steps)
    and sines (right steps) down a root-leaf path reproduces that leaf's
    probability.  Zero-mass subtrees carry angle 0.
    """

    num_qubits: int
    levels: tuple[tuple[float, ...], ...]
    leaf_probs: tuple[float, ...]

    def reconstruct(self, leaf: int) -> float:
        """Probability of ``leaf`` from the path angles."""
        p = 1.0
        for level in range(self.num_qubits):
            theta = self.levels[level][leaf >> (self.num_qubits - level)]
            if (leaf >> (self.num_qubits - 1 - level)) & 1:
                p *= math.sin(theta) ** 2
            else:
                p *= math.cos(theta) ** 2
        return p


def angle_tree(pmf: Pmf) -> AngleTree:
    """Build the rotation tree for a PMF (leaves >= 0, summing to 1)."""
    probs = tuple(pmf)
    total = math.fsum(probs)
    if not abs(total - 1.0) <= PMF_TOLERANCE:  # also catches a NaN total
        raise NotNormalized(f"bins sum to {total!r}")
    negative = [i for i, p in enumerate(probs) if p < 0.0]
    if negative:
        raise NotNormalized(f"bin {negative[0]} is negative: {probs[negative[0]]!r}")
    nq = pmf.num_qubits
    masses = [list(probs)]
    while len(masses[-1]) > 1:
        prev = masses[-1]
        masses.append([prev[2 * i] + prev[2 * i + 1] for i in range(len(prev) // 2)])
    masses.reverse()  # masses[l] has 2^l subtree masses at depth l
    levels = []
    for level in range(nq):
        row = []
        for i in range(1 << level):
            subtree = masses[level][i]
            left = masses[level + 1][2 * i]
            if subtree <= 0.0:
                row.append(0.0)
            else:
                ratio = min(1.0, max(0.0, left / subtree))
                row.append(math.acos(math.sqrt(ratio)))
        levels.append(tuple(row))
    return AngleTree(num_qubits=nq, levels=tuple(levels), leaf_probs=probs)


def synth_amplitude(pmf: Pmf) -> Circuit:
    """Prepare a distribution with one RY per rotation-tree node.

    Level l contributes 2^l RY gates, each controlled on the l-qubit path
    prefix; the parameter is twice the node angle, zero angles included.
    """
    tree = angle_tree(pmf)
    nq = tree.num_qubits
    gates = []
    for level, thetas in enumerate(tree.levels):
        # node i's controls spell i in binary, qubit 0 most significant
        patterns = itertools.product(*(((q, False), (q, True)) for q in range(level)))
        gates.extend(Gate("ry", level, controls, 2.0 * theta)
                     for theta, controls in zip(thetas, patterns))
    return Circuit(num_qubits=nq, gates=tuple(gates))


# ---------------------------------------------------------------------------
# pipelines and ingestion
# ---------------------------------------------------------------------------

def qrom_pipeline(table: PlaTable, encoding: str = "basis") -> Circuit:
    """Cube list to memory circuit: expand, flatten, encode.

    Addresses the cubes leave undefined hold the word 0, so cubes that
    define no address give a memory with no gates.  The angle encoding
    normalizes words to [0,1) (``fixedpoint01``); the improved-angle
    encoding uses the float-like split into significand and exponent.
    """
    flat = to_truth_table(assign_dont_cares(expand(table)))
    if encoding == "basis":
        return synth_basis(flat)
    schemes = {"angle": "fixedpoint01", "improved-angle": "floatlike"}
    if encoding not in schemes:
        raise ValueError(f"unknown encoding {encoding!r}")
    words = [flat.entries[a] for a in sorted(flat.entries)]
    if not words:  # every address holds 0, which costs no gates
        return synth_angle(flat, NormalizedWords("fixedpoint01", flat.m, ()))
    return synth_angle(flat, normalize(words, schemes[encoding], width=flat.m))


def qrng_pipeline(bins) -> Circuit:
    """Raw histogram heights to an amplitude-encoding circuit."""
    return synth_amplitude(normalize_pmf(bins, mode="probability"))


def read_pmf(text: str) -> list[float]:
    """Parse histogram heights: one per line, or CSV ``bin,height`` rows.

    Blank lines and ``#`` comments are skipped.  CSV bins must cover
    0..count-1 exactly (any order); the count must be a power of two.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("no histogram lines found")
    if any("," in ln for ln in lines):
        heights: dict[int, float] = {}
        for row in csv.reader(io.StringIO("\n".join(lines))):
            if len(row) != 2:
                raise ValueError(f"expected bin,height but got {row!r}")
            b = int(row[0].strip())
            if b in heights:
                raise ValueError(f"bin {b} listed twice")
            heights[b] = float(row[1].strip())
        count = len(heights)
        if sorted(heights) != list(range(count)):
            raise ValueError("CSV bins must cover 0..count-1 exactly")
        values = [heights[b] for b in range(count)]
    else:
        values = [float(ln) for ln in lines]
    count = len(values)
    if count & (count - 1):
        raise NotPowerOfTwo(f"{count} histogram bins is not a power of two")
    return values

"""Built-in verification backends.

Two execution models cover everything the synthesizers emit:

* reversible propagation of basis states through X-family gates, for
  checking classical circuits on full truth tables, and
* dense statevector simulation (capped at 20 qubits) for everything with
  rotations, Hadamards, or phases.

Sampling is a separate, seeded step so every histogram in reports and
tests is reproducible.  The generator is numpy's default PCG64, which is
stable across platforms for a fixed seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit
from .errors import NonClassicalGate, NonConvergent, TooManyQubits
from .funcprep import Pmf

MAX_STATEVECTOR_QUBITS = 20
CALIBRATION_CAP = 1 << 26

_SQ2 = 1.0 / math.sqrt(2.0)
_MATRICES = {
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "cz": np.array([[1, 0], [0, -1]], dtype=complex),
    "sx": np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex) / 2,
    "sxdg": np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]], dtype=complex) / 2,
}


def _gate_matrix(gate) -> np.ndarray:
    if gate.kind in _MATRICES:
        return _MATRICES[gate.kind]
    t = gate.angle / 2.0
    if gate.kind == "rx":
        return np.array([[math.cos(t), -1j * math.sin(t)], [-1j * math.sin(t), math.cos(t)]])
    if gate.kind == "ry":
        return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]], dtype=complex)
    if gate.kind == "rz":
        return np.array([[np.exp(-1j * t), 0], [0, np.exp(1j * t)]])
    raise ValueError(f"no matrix for gate kind {gate.kind!r}")


@dataclass(eq=False)
class Statevector:
    """Dense amplitudes; basis index bit (n-1-q) holds qubit q.

    Equivalently, writing an index as an n-character bitstring puts qubit 0
    leftmost, matching how table words are written.
    """

    amplitudes: np.ndarray
    num_qubits: int

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def distribution(self, qubits=None) -> np.ndarray:
        """Measurement distribution over the given qubits (default: all)."""
        probs = self.probabilities().reshape((2,) * self.num_qubits)
        if qubits is None:
            return probs.reshape(-1)
        keep = list(qubits)
        drop = tuple(q for q in range(self.num_qubits) if q not in keep)
        marginal = probs.sum(axis=drop) if drop else probs
        # axes of `marginal` follow ascending qubit index; reorder as asked
        order = [sorted(keep).index(q) for q in keep]
        return np.transpose(marginal, order).reshape(-1)


def run_reversible(circuit: Circuit, word: int) -> int:
    """Propagate one basis state; see run_reversible_table."""
    return run_reversible_table(circuit, [word])[0]


def run_reversible_table(circuit: Circuit, words=None) -> list[int]:
    """Propagate basis states through an X-family circuit.

    ``words`` defaults to the full domain.  Only (multi-)controlled X
    gates are allowed; anything else raises NonClassicalGate.  Inputs and
    results use the table word convention (qubit 0 is the most
    significant bit).

    The replay is bit-sliced: qubit q is one Python int whose bit i holds
    q's value in word i, so a gate costs a few big-int AND/XOR operations
    whatever the circuit width or the number of words.
    """
    n = circuit.num_qubits
    if words is None:
        words = np.arange(1 << n, dtype=np.uint64)
    else:
        words = list(words)
        if words and (min(words) < 0 or max(words) >> n):
            raise ValueError(f"an input word does not fit in {n} bits")
    rows = len(words)
    columns = _bit_columns(words, n)
    fire_all = (1 << rows) - 1
    for g in circuit.gates:
        if g.kind != "x":
            raise NonClassicalGate(f"{g.kind} gate has no classical action")
        fire = fire_all
        for q, positive in g.controls:
            fire &= columns[q] if positive else ~columns[q]
        columns[g.targets[0]] ^= fire
    return _words_of(columns, rows)


def _word_width(n: int) -> int:
    """Bytes per word in the big-endian byte matrix: 8, or more past 64 bits."""
    return max(8, (n + 7) // 8)


def _bit_place(n: int, q: int) -> tuple[int, int]:
    """(byte column, shift) of qubit q's bit in the byte matrix of n-bit words."""
    p = 8 * _word_width(n) - n + q
    return p >> 3, 7 - (p & 7)


def _bit_columns(words, n: int) -> list[int]:
    """One int per qubit, bit i of it set iff word i has that qubit set."""
    width = _word_width(n)
    if width == 8:
        matrix = np.asarray(words, dtype=">u8").view(np.uint8).reshape(-1, 8)
    else:
        matrix = np.frombuffer(b"".join(w.to_bytes(width, "big") for w in words),
                               dtype=np.uint8).reshape(-1, width)
    columns = []
    for q in range(n):
        byte, shift = _bit_place(n, q)
        bits = (matrix[:, byte] >> shift) & 1
        columns.append(int.from_bytes(np.packbits(bits, bitorder="little").tobytes(),
                                      "little"))
    return columns


def _words_of(columns: list[int], rows: int) -> list[int]:
    """Inverse of _bit_columns."""
    n = len(columns)
    width = _word_width(n)
    matrix = np.zeros((rows, width), dtype=np.uint8)
    for q, column in enumerate(columns):
        raw = np.frombuffer(column.to_bytes((rows + 7) // 8, "little"), dtype=np.uint8)
        byte, shift = _bit_place(n, q)
        matrix[:, byte] |= np.unpackbits(raw, count=rows, bitorder="little") << shift
    if width == 8:
        return matrix.view(">u8").ravel().tolist()
    data = matrix.tobytes()
    return [int.from_bytes(data[i:i + width], "big") for i in range(0, len(data), width)]


def run_statevector(circuit: Circuit, initial: int = 0) -> Statevector:
    """Apply the circuit to |initial> exactly.

    Measurement gates leave the state untouched here; use sample() to draw
    outcomes.  Refuses circuits wider than MAX_STATEVECTOR_QUBITS.
    """
    n = circuit.num_qubits
    if n > MAX_STATEVECTOR_QUBITS:
        raise TooManyQubits(f"{n} qubits exceeds the dense-simulation cap of {MAX_STATEVECTOR_QUBITS}")
    if not 0 <= initial < (1 << n):
        raise ValueError(f"initial state {initial} does not fit in {n} bits")
    state = np.zeros(1 << n, dtype=complex)
    state[initial] = 1.0
    state = state.reshape((2,) * n)

    # X frame: the true state is `state` with every flipped axis reversed.
    # A bare X only toggles its qubit's bit; controls on a flipped qubit
    # fire on the other half, and a gate M on a flipped target acts as
    # X M X, which is M with both axes reversed.
    flipped = [False] * n
    for g in circuit.gates:
        if g.kind == "measure":
            continue
        target = g.targets[0]
        if g.kind == "x" and not g.controls:
            flipped[target] = not flipped[target]
            continue
        index: list = [slice(None)] * n
        for q, positive in g.controls:
            index[q] = int(positive) ^ flipped[q]
        if g.kind == "x":
            # a permutation: swap the target's |0> and |1> halves (slices,
            # not indices, so that both stay views when every axis is fixed)
            index[target] = slice(0, 1)
            zero = state[tuple(index)]
            index[target] = slice(1, 2)
            one = state[tuple(index)]
            swapped = zero.copy()
            zero[...] = one
            one[...] = swapped
            continue
        mat = _gate_matrix(g)
        if flipped[target]:
            mat = mat[::-1, ::-1]
        axis = target - sum(1 for q, _ in g.controls if q < target)
        view = state[tuple(index)]
        moved = np.moveaxis(view, axis, 0)
        updated = (mat @ moved.reshape(2, -1)).reshape(moved.shape)
        moved[...] = updated

    axes = tuple(q for q in range(n) if flipped[q])
    if axes:
        state = np.flip(state, axis=axes)
    return Statevector(amplitudes=state.reshape(-1), num_qubits=n)


@dataclass
class CountHistogram:
    """Counts per measured bitstring."""

    counts: dict[str, int]
    shots: int
    num_bits: int
    seed: int | None = field(default=None, compare=False)

    def probability(self, bitstring: str) -> float:
        return self.counts.get(bitstring, 0) / self.shots

    def empirical(self) -> np.ndarray:
        """Empirical distribution over all 2**num_bits bins."""
        probs = np.zeros(1 << self.num_bits)
        for bits, count in self.counts.items():
            probs[int(bits, 2)] = count / self.shots
        return probs

    def to_json(self) -> str:
        payload = {"shots": self.shots, "num_bits": self.num_bits, "counts": self.counts}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        lines = ["bitstring,count"]
        lines.extend(f"{bits},{self.counts[bits]}" for bits in sorted(self.counts))
        return "\n".join(lines) + "\n"


def _distribution_of(obj) -> tuple[np.ndarray, int]:
    if isinstance(obj, Circuit):
        sv = run_statevector(obj)
        measured = obj.measured_qubits()
        if measured:
            return sv.distribution(measured), len(measured)
        return sv.probabilities(), obj.num_qubits
    if isinstance(obj, Statevector):
        return obj.probabilities(), obj.num_qubits
    if isinstance(obj, Pmf):
        return np.asarray(obj.probs), obj.num_qubits
    probs = np.asarray(list(obj), dtype=float)
    num_bits = (len(probs) - 1).bit_length()
    if len(probs) != 1 << num_bits:
        raise ValueError("distribution length must be a power of two")
    return probs, num_bits


def sample(obj, shots: int, seed: int | None = None) -> CountHistogram:
    """Draw a multinomial sample from a circuit, state, or distribution.

    Circuits with measurement gates are sampled over the measured qubits in
    measurement order; bare circuits and states over all qubits.  The same
    seed always reproduces the same histogram.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    probs, num_bits = _distribution_of(obj)
    total = probs.sum()
    if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
        raise ValueError(f"distribution sums to {total}, not 1")
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, probs / total)
    counts = {
        format(i, f"0{num_bits}b"): int(c)
        for i, c in enumerate(draws)
        if c
    }
    return CountHistogram(counts=counts, shots=shots, num_bits=num_bits, seed=seed)


@dataclass(frozen=True)
class CalibrationResult:
    shots: int            # recommended count: 1.5x the first passing count
    calibrated_at: int    # the first tested count that met the threshold
    g: float              # per-shot G statistic at the recommended count
    p: float              # upper-tail chi-square probability of g (1 dof)
    threshold: float


def calibrate_shots(pmf: Pmf, circuit: Circuit | None = None, **options) -> int:
    """The recommended shot count of ``calibrate_shots_report``.

    ``options`` are that function's keyword arguments, with its defaults.
    """
    return calibrate_shots_report(pmf, circuit, **options).shots


def calibrate_shots_report(
    pmf: Pmf,
    circuit: Circuit | None = None,
    threshold: float = 1e-3,
    start_shots: int = 1000,
    margin: float = 1.5,
    seed: int = 0,
    cap: int = CALIBRATION_CAP,
) -> CalibrationResult:
    """Find a shot budget that makes sampled histograms track the target.

    Doubles the shot count until the per-shot G statistic of a sampled
    histogram against ``pmf`` drops below ``threshold``, then recommends
    ``margin`` times that count, rounded up.  Raises NonConvergent past
    ``cap`` shots.

    The raw G statistic grows like a chi-square variable with bins-1
    degrees of freedom, so an absolute threshold as small as 1e-3 is only
    meaningful per shot; the loop therefore compares G / shots, which is
    2 * KL(empirical || target).  The reported similarity p is the
    upper-tail chi-square probability (one degree of freedom) of the
    per-shot G measured at the recommended count.
    """
    from .stats import _chi2_sf, kl_divergence

    source = circuit if circuit is not None else pmf
    target = np.asarray(pmf.probs)

    shots = start_shots
    attempt = 0
    while True:
        hist = sample(source, shots, seed=seed + attempt)
        g_norm = 2.0 * kl_divergence(hist.empirical(), target)
        if g_norm < threshold:
            break
        shots *= 2
        attempt += 1
        if shots > cap:
            raise NonConvergent(f"no shot count below {cap} met G < {threshold}")

    recommended = math.ceil(margin * shots)
    final = sample(source, recommended, seed=seed + 1000)
    g_final = 2.0 * kl_divergence(final.empirical(), target)
    p_final = _chi2_sf(g_final, 1)
    return CalibrationResult(
        shots=recommended, calibrated_at=shots, g=g_final, p=p_final, threshold=threshold,
    )

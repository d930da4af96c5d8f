"""Built-in verification backends.

Two execution models cover everything the synthesizers emit:

* reversible propagation of basis states through X-family gates, for
  checking classical circuits on full truth tables, and
* dense statevector simulation (capped at 20 qubits) for everything with
  rotations, Hadamards, or phases.  A run of ``ry`` and ``cx`` gates on
  one target, as the amplitude encoder and its Gray-code form emit, is
  one multiplexed rotation: one Walsh-Hadamard transform of its angles
  and one vectorised 2x2 update, instead of a pass over the state per gate.

Sampling is a separate, seeded step so every histogram in reports and
tests is reproducible.  The generator is numpy's default PCG64, which is
stable across platforms for a fixed seed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .errors import NonClassicalGate, NonConvergent, SizeLimitExceeded, TooManyQubits
from .funcprep import Pmf, row_cap
from .stats import CountHistogram, _chi2_sf, kl_divergence

MAX_STATEVECTOR_QUBITS = 20
CALIBRATION_CAP = 1 << 26
CALIBRATION_START_SHOTS = 1000
CALIBRATION_MARGIN = 1.5  # the recommended count over the first one that passed
# sample() clears bins below this (under 1e-8 counts at 2^63 shots): a residue
# in place of an exact 0 changes how numpy consumes its stream, redrawing all
_SAMPLE_FLOOR = 2.0 ** -90

_SQ2 = 1.0 / math.sqrt(2.0)
_MATRICES = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
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

    def distribution(self, qubits=None) -> np.ndarray:
        """Measurement distribution over ``qubits`` in their order (default: all)."""
        probs = np.abs(self.amplitudes) ** 2
        if qubits is None:
            return probs
        probs = probs.reshape((2,) * self.num_qubits)
        keep = list(qubits)
        for i, q in enumerate(keep):
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit {q} lies outside 0..{self.num_qubits - 1}")
            if q in keep[:i]:
                raise ValueError(f"qubit {q} is listed more than once")
        drop = tuple(q for q in range(self.num_qubits) if q not in keep)
        marginal = probs.sum(axis=drop) if drop else probs
        # axes of `marginal` follow ascending qubit index; reorder as asked
        order = [sorted(keep).index(q) for q in keep]
        return np.transpose(marginal, order).reshape(-1)


def run_reversible_table(circuit: Circuit, words=None) -> list[int]:
    """Propagate basis states through an X-family circuit.

    ``words`` defaults to the full domain, which raises SizeLimitExceeded
    past the QSYNTH_MAX_ROWS cap.  Only (multi-)controlled X gates are
    allowed; anything else raises NonClassicalGate.  Inputs and results
    use the table word convention (qubit 0 is the most significant bit).

    The replay is bit-sliced: qubit q is one Python int whose bit i holds
    q's value in word i, so a gate costs a few big-int AND/XOR operations
    whatever the circuit width or the number of words.
    """
    n = circuit.num_qubits
    if words is None:
        cap = row_cap()
        if 1 << n > cap:
            raise SizeLimitExceeded(f"replaying every word needs {1 << n} rows, cap is {cap}")
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
        columns[g.target] ^= fire
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

    Each run of ``ry`` gates and singly controlled ``x`` gates on one
    target is applied at once, as a multiplexed rotation (see _apply_run).
    The state is the one before measurement; sample() reads the measured
    qubits from it.  Refuses circuits wider than MAX_STATEVECTOR_QUBITS.
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
    gates, start = circuit.gates, 0
    while start < len(gates):
        target, end = gates[start].target, start
        while end < len(gates) and _joins(gates[end], target):
            end += 1
        run = gates[start:max(end, start + 1)]
        if len(run) < 2 or not _apply_run(state, run, flipped):
            for g in run:
                _apply_gate(state, g, flipped)
        start += len(run)

    axes = tuple(q for q in range(n) if flipped[q])
    if axes:
        state = np.flip(state, axis=axes)
    return Statevector(amplitudes=state.reshape(-1), num_qubits=n)


def _joins(g, target: int) -> bool:
    """Whether ``g`` extends a run on ``target``: an ry or an x with at
    most one control on it, or a bare X anywhere."""
    if g.kind == "x" and not g.controls:
        return True
    return g.target == target and (g.kind == "ry" or g.kind == "x" and len(g.controls) == 1)


def _apply_run(state: np.ndarray, run, flipped: list[bool]) -> bool:
    """Apply a run as one multiplexed rotation; False if it does not fit.

    In stored (frame) coordinates the run is RY(angle[p]) then
    X^(flip + |mask & p|) on each pattern p of its controls: a cx adds its
    control to ``mask`` (and 1 to ``flip`` if it fires on 0), a bare X on
    the target adds 1 to ``flip``.  An RY after an X is the negated RY
    before it, so an ry controlled on all the controls adds its signed
    angle to direct[p], an uncontrolled one to walsh[mask], and angle =
    direct + WHT(walsh).  An ry on only some of the controls does not fit.
    """
    controls = sorted({q for q, _ in set().union(*(g.controls for g in run))})
    k = len(controls)
    if any(g.kind == "ry" and 0 < len(g.controls) < k for g in run):
        return False
    bit = {q: 1 << (k - 1 - j) for j, q in enumerate(controls)}
    # an ry fires on pattern sum(fires[c] for c in its controls) ^ frame
    fires = {(q, positive): b if positive else 0 for q, b in bit.items() for positive in (0, 1)}
    frame = sum(b for q, b in bit.items() if flipped[q])
    target = run[0].target
    sign = -1.0 if flipped[target] else 1.0
    walsh, direct = [0.0] * (1 << k), [0.0] * (1 << k)
    mask = flip = 0
    for g in run:
        q = g.target
        if g.kind == "ry" and g.controls:
            pattern = sum(map(fires.__getitem__, g.controls)) ^ frame
            negate = (flip + (mask & pattern).bit_count()) & 1
            direct[pattern] += -sign * g.angle if negate else sign * g.angle
        elif g.kind == "ry":
            walsh[mask] += -sign * g.angle if flip else sign * g.angle
        elif g.controls:
            (c, positive), = g.controls
            mask ^= bit[c]
            flip ^= positive == flipped[c]
        elif g.kind == "x" and q == target:
            flip ^= 1
        elif g.kind == "x":
            flipped[q] = not flipped[q]
            frame ^= bit.get(q, 0)
    angles = np.array(direct) + _walsh_hadamard(walsh)
    if mask or angles.any():
        odd = _walsh_hadamard(np.arange(1 << k) == mask) < 0  # |mask & p| is odd
        cos, sin = np.cos(angles / 2), np.sin(angles / 2)
        # RY = [[cos, -sin], [sin, cos]]; the X after it swaps the rows
        entries = (np.where(odd, sin, cos), np.where(odd, cos, -sin),
                   np.where(odd, cos, sin), np.where(odd, -sin, cos))
        shape = [2 if q in bit else 1 for q in range(state.ndim)]
        _update(state, [slice(None)] * state.ndim, target, *(e.reshape(shape) for e in entries))
    if flip:
        flipped[target] = not flipped[target]
    return True


def _walsh_hadamard(w) -> np.ndarray:
    """out[p] = sum over m of (-1)^|m & p| * w[m], in O(k * 2^k)."""
    w = np.asarray(w, dtype=float)
    size, half = w.size, 1
    while half < size:
        w = w.reshape(-1, 2, half)
        w = np.stack((w[:, 0] + w[:, 1], w[:, 0] - w[:, 1]), axis=1)
        half *= 2
    return w.reshape(-1)


def _update(state: np.ndarray, index: list, target: int, m00, m01, m10, m11) -> None:
    """Apply [[m00, m01], [m10, m11]] to the target's halves of state[index].

    Slices, not indices, so that both halves stay views when every axis
    is fixed; the entries are scalars or arrays that broadcast.
    """
    index[target] = slice(0, 1)
    zero = state[tuple(index)]
    index[target] = slice(1, 2)
    one = state[tuple(index)]
    new_zero = m00 * zero + m01 * one
    one *= m11
    one += m10 * zero
    zero[...] = new_zero


def _apply_gate(state: np.ndarray, g, flipped: list[bool]) -> None:
    """Apply one gate through the X frame."""
    target = g.target
    if g.kind == "x" and not g.controls:
        flipped[target] = not flipped[target]
    else:
        index: list = [slice(None)] * state.ndim
        for q, positive in g.controls:
            index[q] = int(positive) ^ flipped[q]
        mat = _gate_matrix(g)
        if flipped[target]:
            mat = mat[::-1, ::-1]
        _update(state, index, target, *mat.ravel())


def _distribution_of(obj) -> tuple[np.ndarray, int]:
    if isinstance(obj, Circuit):
        sv = run_statevector(obj)
        if obj.measured:
            return sv.distribution(obj.measured), len(obj.measured)
        return sv.distribution(), obj.num_qubits
    if isinstance(obj, Statevector):
        return obj.distribution(), obj.num_qubits
    if isinstance(obj, Pmf):
        return np.asarray(obj.probs), obj.num_qubits
    probs = np.asarray(list(obj), dtype=float)
    num_bits = (len(probs) - 1).bit_length()
    if len(probs) != 1 << num_bits:
        raise ValueError("distribution length must be a power of two")
    return probs, num_bits


def sample(obj, shots: int, seed: int | None = None) -> CountHistogram:
    """Draw a multinomial sample from a circuit, state, or distribution.

    A circuit with ``measured`` qubits is sampled over them, entry j as
    bit j; other circuits and states over all qubits.  The same
    seed always reproduces the same histogram.
    """
    if (type(shots) is bool or not isinstance(shots, numbers.Integral)
            or not 0 < shots < 1 << 63):  # numpy's int64
        raise ValueError(f"shots must be an integer in 1..2^63-1, got {shots!r}")
    if seed is not None and (type(seed) is bool or not isinstance(seed, numbers.Integral)
                             or seed < 0):
        raise ValueError(f"seed must be None or a non-negative integer, got {seed!r}")
    probs, num_bits = _distribution_of(obj)
    probs = np.where(probs < _SAMPLE_FLOOR, 0.0, probs)
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


def calibrate_shots_report(pmf: Pmf, circuit: Circuit | None = None, threshold: float = 1e-3,
                           seed: int = 0, cap: int = CALIBRATION_CAP) -> CalibrationResult:
    """Find a shot budget that makes sampled histograms track the target.

    Doubles the shot count, from CALIBRATION_START_SHOTS, until the
    per-shot G statistic of a sampled histogram against ``pmf`` drops
    below ``threshold``, then recommends CALIBRATION_MARGIN times that
    count, rounded up.  Raises NonConvergent past ``cap`` shots.

    The raw G statistic grows like a chi-square variable with bins-1
    degrees of freedom, so an absolute threshold as small as 1e-3 is only
    meaningful per shot; the loop therefore compares G / shots, which is
    2 * KL(empirical || target).  The reported similarity p is the
    upper-tail chi-square probability (one degree of freedom) of the
    per-shot G measured at the recommended count.
    """
    probs, _ = _distribution_of(circuit if circuit is not None else pmf)
    target = np.asarray(pmf.probs)

    shots = CALIBRATION_START_SHOTS
    attempt = 0
    while True:
        hist = sample(probs, shots, seed=seed + attempt)
        g_norm = 2.0 * kl_divergence(hist.empirical(), target)
        if g_norm < threshold:
            break
        shots *= 2
        attempt += 1
        if shots > cap:
            raise NonConvergent(f"no shot count below {cap} met G < {threshold}")

    recommended = math.ceil(CALIBRATION_MARGIN * shots)
    final = sample(probs, recommended, seed=seed + 1000)
    g_final = 2.0 * kl_divergence(final.empirical(), target)
    p_final = _chi2_sf(g_final, 1)
    return CalibrationResult(
        shots=recommended, calibrated_at=shots, g=g_final, p=p_final, threshold=threshold,
    )

"""Correctness references the benchmark computes itself.

Nothing here imports qsynth.  The QASM reader, the two simulators and the
readings of PLA and PMF files are written from the file formats and from
the encodings' documented conventions:

* X-family circuits (esop, tbs, tbs-rm) are replayed bit-sliced:
  one Python int per qubit whose bit j is that qubit's value on test
  vector j, so a k-controlled X is k ANDs and one XOR at any width.
* Everything else runs on a small dense statevector.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

UNIFORM_NAMES = frozenset({"x", "cx", "h", "rx", "ry", "rz", "measure"})
_FAMILIES = frozenset({"x", "z", "h", "rx", "ry", "rz", "sx", "sxdg"})
TOLERANCE = 1e-9
# Largest statevector check: qubits and gates x amplitudes.
MAX_QUBITS = 14
MAX_WORK = 1 << 28


class CheckFailed(Exception):
    """The output does not compute what its source specifies."""


# ---------------------------------------------------------------------------
# file readers
# ---------------------------------------------------------------------------

def gate_family(name: str) -> tuple[str, int]:
    """(base family, control count) of an emitted gate name."""
    if name.startswith("mc") and "_" in name:
        family, arity = name[2:].rsplit("_", 1)
        return family, int(arity)
    if name == "ccx":
        return "x", 2
    if name in _FAMILIES:
        return name, 0
    if name.startswith("c") and name[1:] in _FAMILIES:
        return name[1:], 1
    raise CheckFailed(f"unknown gate name {name!r}")


def read_qasm(text: str) -> tuple[int, list[tuple[str, float | None, tuple[int, ...]]]]:
    """Qubit count and (name, parameter, qubits) per applied gate."""
    num_qubits = None
    gates = []
    for line in text.splitlines():
        if not line or line.startswith(("//", "OPENQASM", "gate ", "creg")):
            continue
        if line.startswith("qreg"):
            num_qubits = int(line[line.index("[") + 1:line.index("]")])
            continue
        if line.startswith("measure"):
            qubit = int(line[line.index("[") + 1:line.index("]")])
            gates.append(("measure", None, (qubit,)))
            continue
        head, _, operands = line.rstrip(";").partition(" ")
        param = None
        if "(" in head:
            head, _, raw = head.partition("(")
            param = float(raw.rstrip(")"))
        gates.append((head, param, tuple(int(op.strip()[2:-1]) for op in operands.split(","))))
    if num_qubits is None:
        raise CheckFailed("no qreg declaration")
    return num_qubits, gates


class Pla:
    """A PLA read bit-sliced over all 2^n inputs (type fd: OR of cubes).

    ``on[k]`` has bit x set when output column k is 1 on input x,
    ``dc[k]`` when it is a don't-care, ``covered`` when some cube lists x.
    Column 0 is the leftmost, most significant, output character.
    """

    def __init__(self, text: str) -> None:
        n = m = None
        cubes = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("."):
                key, *rest = line.split()
                if key == ".i":
                    n = int(rest[0])
                elif key == ".o":
                    m = int(rest[0])
                elif key in (".e", ".end"):
                    break
                continue
            word = "".join(line.split()).replace("~", "-").replace("2", "-")
            cubes.append((word[:n], word[n:]))
        self.n, self.m = n, m
        size = 1 << n
        self.full = (1 << size) - 1
        self.inputs = [sum(1 << x for x in range(size) if (x >> (n - 1 - q)) & 1)
                       for q in range(n)]
        self.on = [0] * m
        self.dc = [0] * m
        self.covered = 0
        for ins, outs in cubes:
            match = self.full
            for q, c in enumerate(ins):
                if c == "1":
                    match &= self.inputs[q]
                elif c == "0":
                    match &= ~self.inputs[q]
            self.covered |= match
            for k, c in enumerate(outs):
                if c == "1":
                    self.on[k] |= match
                elif c == "-":
                    self.dc[k] |= match

    def minterms(self) -> list[int]:
        return [x for x in range(1 << self.n) if (self.covered >> x) & 1]

    def word(self, x: int) -> int:
        """Output word on input x, don't-cares read as 0."""
        value = 0
        for k in range(self.m):
            value = (value << 1) | ((self.on[k] >> x) & 1)
        return value


def read_pmf(text: str) -> list[float]:
    """Bin heights, one per line; blank lines and ``#`` comments skipped."""
    rows = [ln.strip() for ln in text.splitlines()]
    return [float(ln) for ln in rows if ln and not ln.startswith("#")]


# ---------------------------------------------------------------------------
# simulators
# ---------------------------------------------------------------------------

def replay_bits(num_qubits: int, gates, state: list[int], full: int) -> list[int]:
    """Bit-sliced run of an X-family circuit; ``state[q]`` is qubit q's int."""
    state = list(state)
    for name, _, qubits in gates:
        family, _ = gate_family(name)
        if family != "x":
            raise CheckFailed(f"{name} is not an X-family gate")
        *controls, target = qubits
        fire = full
        for c in controls:
            fire &= state[c]
        state[target] ^= fire
    return state


def _matrix(family: str, theta: float | None) -> tuple:
    if family == "h":
        s = 1 / math.sqrt(2)
        return s, s, s, -s
    if family == "rx":
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return c, -1j * s, -1j * s, c
    if family == "ry":
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return c, -s, s, c
    if family == "rz":
        return complex(math.cos(theta / 2), -math.sin(theta / 2)), 0, 0, \
            complex(math.cos(theta / 2), math.sin(theta / 2))
    if family == "z":
        return 1, 0, 0, -1
    if family == "sx":
        return (1 + 1j) / 2, (1 - 1j) / 2, (1 - 1j) / 2, (1 + 1j) / 2
    if family == "sxdg":
        return (1 - 1j) / 2, (1 + 1j) / 2, (1 + 1j) / 2, (1 - 1j) / 2
    raise CheckFailed(f"no matrix for {family!r}")


def simulate(num_qubits: int, gates, state: np.ndarray) -> np.ndarray:
    """Apply the gates to a flat statevector; qubit q is index bit n-1-q."""
    tensor = state.reshape((2,) * num_qubits)
    for name, theta, qubits in gates:
        if name == "measure":
            continue
        family, _ = gate_family(name)
        *controls, target = qubits
        index: list = [slice(None)] * num_qubits
        for c in controls:
            index[c] = 1
        index[target] = 0
        a0 = tensor[tuple(index) + (Ellipsis,)]
        index[target] = 1
        a1 = tensor[tuple(index) + (Ellipsis,)]
        if family == "x":
            kept = a0.copy()
            a0[...] = a1
            a1[...] = kept
            continue
        u00, u01, u10, u11 = _matrix(family, theta)
        b0 = u00 * a0 + u01 * a1
        b1 = u10 * a0 + u11 * a1
        a0[...] = b0
        a1[...] = b1
    return tensor.reshape(-1)


def fits_statevector(num_qubits: int, gate_count: int) -> bool:
    return num_qubits <= MAX_QUBITS and gate_count << num_qubits <= MAX_WORK


# ---------------------------------------------------------------------------
# checks; each returns a small dict of evidence or raises CheckFailed
# ---------------------------------------------------------------------------

def check_io_register(pla: Pla, num_qubits: int, gates) -> dict:
    """esop: |x>|0> -> |x>|f(x)> on every one of the 2^n inputs."""
    n, m = pla.n, pla.m
    if num_qubits != n + m:
        raise CheckFailed(f"{num_qubits} qubits, expected n+m = {n + m}")
    state = replay_bits(num_qubits, gates, pla.inputs + [0] * m, pla.full)
    for q in range(n):
        if state[q] != pla.inputs[q]:
            raise CheckFailed(f"input qubit {q} is not preserved")
    for k in range(m):
        bad = (state[n + k] ^ pla.on[k]) & ~pla.dc[k] & pla.full
        if bad:
            x = (bad & -bad).bit_length() - 1
            raise CheckFailed(f"output column {k} wrong on input {x:0{n}b}")
    return {"vectors": 1 << n}


def embedding(pla: Pla) -> tuple[int, dict[int, int]]:
    """Width and embedded input word per listed minterm.

    Follows the documented one-to-one embedding: N_dup, the largest
    output multiplicity, sets v = ceil(log2 N_dup) garbage bits and
    w = max(0, v + m - n) ancilla inputs; the width is max(n+w, m+v).
    Within a group of inputs sharing an output, the ancilla counts
    0, 1, 2, ... in ascending input order (mod 2^w); an input whose
    output is unique gets ancilla 0.  Outputs sit in the top m bits.
    """
    n, m = pla.n, pla.m
    xs = pla.minterms()
    words = {x: pla.word(x) for x in xs}
    multiplicity = Counter(words.values())
    n_dup = max(multiplicity.values(), default=0)
    if n_dup <= 1:
        w = max(0, m - n)
        return max(n + w, m), {x: x << w for x in xs}
    v = max(1, math.ceil(math.log2(n_dup)))
    w = max(0, v + m - n)
    seen: Counter = Counter()
    embedded = {}
    for x in xs:
        y = words[x]
        ancilla = seen[y] % (1 << w) if w and multiplicity[y] > 1 else 0
        seen[y] += 1
        embedded[x] = (x << w) | ancilla
    return max(n + w, m + v), embedded


def check_reversible(pla: Pla, num_qubits: int, gates) -> dict:
    """tbs/tbs-rm: each listed input, embedded, lands on f(x) in the top m bits."""
    width, embedded = embedding(pla)
    if num_qubits != width:
        raise CheckFailed(f"{num_qubits} qubits, expected embedding width {width}")
    xs = sorted(embedded)
    full = (1 << len(xs)) - 1
    start = [sum(1 << j for j, x in enumerate(xs)
                 if (embedded[x] >> (width - 1 - q)) & 1) for q in range(width)]
    state = replay_bits(width, gates, start, full)
    for q in range(pla.m):
        column = pla.m - 1 - q
        want = sum(1 << j for j, x in enumerate(xs) if (pla.word(x) >> column) & 1)
        if state[q] != want:
            raise CheckFailed(f"output bit {q} wrong on some listed input")
    return {"vectors": len(xs)}


def _angle_branches(pla: Pla, improved: bool) -> np.ndarray:
    """Expected data-qubit state per address, from the documented readings.

    Defined addresses in ascending order are table positions j.  Plain
    mode reads a word as 0.b1b2... (fixedpoint01); even positions store
    it as RX(2v), odd ones as an RZ(v) phase.  Improved mode shifts a
    word past its z leading zeros, reads it as b1b0.b-1... (significand
    S in [2, 4)) and stores RX(2S) then RZ(z).  Zero words store nothing.
    """
    n, m = pla.n, pla.m
    branches = np.zeros((1 << n, 2), dtype=complex)
    branches[:, 0] = 1.0
    for j, a in enumerate(pla.minterms()):
        x = pla.word(a)
        if x == 0:
            continue
        if improved:
            z = m - x.bit_length()
            s = (x << z) / (1 << (m - 2))
            branches[a] = (math.cos(s) * np.exp(-0.5j * z), -1j * math.sin(s) * np.exp(0.5j * z))
        else:
            v = x / (1 << m)
            if j % 2 == 0:
                branches[a] = (math.cos(v), -1j * math.sin(v))
            else:
                branches[a] = (np.exp(-0.5j * v), 0.0)
    return branches


def check_angle(pla: Pla, num_qubits: int, gates, improved: bool) -> dict:
    """One statevector run with the address register in uniform superposition.

    Checks P(d=1 | a) = sin^2 of each RX-stored value, then the relative
    phase of every address branch (RZ-stored words) once the single
    global phase the uniform lowering may add is divided out.  Ancillas
    must come back to |0>.
    """
    n = pla.n
    if num_qubits < n + 1:
        raise CheckFailed(f"{num_qubits} qubits, expected at least n+1 = {n + 1}")
    size = 1 << n
    rest = 1 << (num_qubits - n - 1)
    state = np.zeros(size * 2 * rest, dtype=complex)
    state[::2 * rest] = 1 / math.sqrt(size)
    amps = simulate(num_qubits, gates, state).reshape(size, 2, rest)
    leak = float(np.sum(np.abs(amps[:, :, 1:]) ** 2))
    if leak > TOLERANCE:
        raise CheckFailed(f"ancillas end in |0> only with probability {1 - leak}")
    got = amps[:, :, 0] * math.sqrt(size)
    want = _angle_branches(pla, improved)
    p_err = float(np.max(np.abs(np.abs(got[:, 1]) ** 2 - np.abs(want[:, 1]) ** 2)))
    if p_err > TOLERANCE:
        raise CheckFailed(f"P(d=1|a) off by {p_err}")
    overlap = np.vdot(want, got)
    if abs(overlap) < TOLERANCE:
        raise CheckFailed("state is orthogonal to the expected one")
    phase = overlap / abs(overlap)
    amp_err = float(np.max(np.abs(got - phase * want)))
    if amp_err > 1e-7:
        raise CheckFailed(f"address-branch amplitudes off by {amp_err} after the global phase")
    return {"p_err": p_err, "amp_err": amp_err}


def check_amplitude(heights: list[float], num_qubits: int, gates) -> dict:
    """|0...0> must measure bin i with probability height_i / sum(heights)."""
    total = math.fsum(heights)
    want = np.array([h / total for h in heights])
    k = (len(heights) - 1).bit_length()
    if num_qubits < k:
        raise CheckFailed(f"{num_qubits} qubits for {len(heights)} bins")
    state = np.zeros(1 << num_qubits, dtype=complex)
    state[0] = 1.0
    probs = np.abs(simulate(num_qubits, gates, state)) ** 2
    probs = probs.reshape(1 << k, 1 << (num_qubits - k))
    leak = float(probs[:, 1:].sum())
    err = float(np.max(np.abs(probs[:, 0] - want)))
    if leak > TOLERANCE or err > TOLERANCE:
        raise CheckFailed(f"distribution off by {err} (ancilla leak {leak})")
    return {"max_err": err}


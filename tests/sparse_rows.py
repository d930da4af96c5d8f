"""Sparse per-row replay of emitted QASM, for circuits too wide to simulate whole.

The state of one input row is {basis word: amplitude}, where bit q of a
word is qubit q.  X-family gates (``x``, ``cx``, ``ccx``, ``mcx_k``: the
last operand is the target, the others positive controls) permute words,
``rz`` multiplies phases, and ``h``, ``rx`` and ``ry`` split each word in
two; equal words merge and zero amplitudes drop.  It reads the QASM text
itself and shares no code with ``qsynth``.
"""

import cmath
import math
import re

_APPLY = re.compile(r"(\w+)(?:\(([^)]*)\))? (q\[\d+\](?:,q\[\d+\])*);")
_R = math.sqrt(0.5)
_SPLIT = {  # name -> angle -> m, with m[out][in] the amplitude of in -> out
    "h": lambda t: ((_R, _R), (_R, -_R)),
    "rx": lambda t: ((math.cos(t / 2), -1j * math.sin(t / 2)),
                     (-1j * math.sin(t / 2), math.cos(t / 2))),
    "ry": lambda t: ((math.cos(t / 2), -math.sin(t / 2)),
                     (math.sin(t / 2), math.cos(t / 2))),
}


def read_gates(text: str) -> list:
    """(name, angle or None, qubits) for each gate applied after ``qreg``."""
    body = text[text.index(";", text.index("qreg")) + 1:]
    gates = [(name, float(arg) if arg else None, [int(q) for q in re.findall(r"\d+", ops)])
             for name, arg, ops in _APPLY.findall(body)]
    if len(gates) != body.count(";"):
        raise ValueError("a statement after qreg is not a gate application")
    return gates


def replay(gates, word: int) -> dict:
    state = {word: 1.0}
    for name, angle, qubits in gates:
        *controls, t = qubits
        bit = 1 << t
        if name == "rz":
            phase = cmath.exp(0.5j * angle)
            state = {w: a * (phase if w & bit else 1 / phase) for w, a in state.items()}
        elif name in _SPLIT:
            m, out = _SPLIT[name](angle), {}
            for w, a in state.items():
                for b in (0, 1):
                    v = w & ~bit | b * bit
                    out[v] = out.get(v, 0) + m[b][(w >> t) & 1] * a
            state = {w: a for w, a in out.items() if abs(a) > 1e-12}
        elif name in ("x", "cx", "ccx") or name.startswith("mcx_"):
            mask = sum(1 << c for c in controls)
            state = {w ^ bit if w & mask == mask else w: a for w, a in state.items()}
        else:
            raise ValueError(f"no replay for {name!r}")
    return state


def row_mismatches(natural: str, uniform: str, inputs: int) -> int:
    """Input rows on which ``uniform`` misses the word ``natural`` replays to.

    A row matches when the uniform state has modulus 1 (within 1e-9) on
    that word, so every ancilla is back at 0, and the same amplitude as
    row 0: a circuit equal up to one global phase gives every row the
    same phase.
    """
    reference, lowered = read_gates(natural), read_gates(uniform)
    amps = []
    for row in range(1 << inputs):
        (word, _), = replay(reference, row).items()
        amps.append(replay(lowered, row).get(word, 0))
    return sum(abs(abs(a) - 1) > 1e-9 or abs(a - amps[0]) > 1e-9 for a in amps)

"""Minimal-qubit reversible synthesis over complete bijective tables.

Both variants sweep the input patterns in ascending order and, for each
pattern, append gates that move the current output value onto the input
value without disturbing any earlier (already settled) row.  The recorded
gate cascade maps the function to the identity, so the synthesized
circuit is the cascade reversed: simulating it on |x> yields |f(x)>.

The basic sweep uses Miller's unidirectional rule directly on output
values.  The spectral variant drives the subset-parity (positive-polarity
Reed-Muller) coefficient rows to the identity pattern instead, which
tends to pick larger strides per step; its compensating gates restore
rows the linear steps disturbed.

Bits within a table word are numbered LSB-first in the algorithms below;
qubit q of the emitted circuit carries bit (n-1-q), the same convention
the simulators use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate
from .errors import NoPivot, NotBijective, NotComplete, NotSquare, SizeLimitExceeded
from .funcprep import TruthTable

GATE_CAP = 50_000


@dataclass(frozen=True)
class TraceStep:
    """Snapshot taken after one input pattern was settled."""

    row: int
    table: tuple[int, ...]
    gates_added: int


@dataclass(frozen=True)
class SynthTrace:
    """Gates in application order plus per-row table snapshots.

    The gate list here is pre-reversal: running it as a circuit computes
    the inverse of the synthesized function, and after the step for row p
    every snapshot row 0..p maps to itself.
    """

    gates: tuple[Gate, ...]
    steps: tuple[TraceStep, ...]


def _check_square_bijection(table: TruthTable) -> None:
    if table.n != table.m:
        raise NotSquare(f"table is {table.n}x{table.m}")
    if not table.complete:
        raise NotBijective(f"table defines {len(table.entries)} of {1 << table.n} patterns")
    if not table.injective:
        raise NotBijective("table repeats an output value")


def _as_gate(n: int, mask: int, bit: int) -> Gate:
    controls = tuple((n - 1 - b, True) for b in range(n - 1, -1, -1) if (mask >> b) & 1)
    return Gate("x", (n - 1 - bit,), controls)


class _Sweep:
    """Shared bookkeeping: the evolving table and the recorded cascade."""

    def __init__(self, table: TruthTable, gate_cap: int) -> None:
        self.n = table.n
        self.y = np.array(table.as_list(), dtype=np.int64)
        self.gate_cap = gate_cap
        self.recorded: list[tuple[int, int]] = []

    def apply(self, mask: int, bit: int, start: int = 0) -> None:
        """Record one (multi-)controlled X and apply it to rows >= start."""
        if len(self.recorded) >= self.gate_cap:
            raise SizeLimitExceeded(
                f"synthesis would need more than {self.gate_cap} gates"
            )
        self.recorded.append((mask, bit))
        tail = self.y[start:]
        if mask:
            sel = (tail & mask) == mask
            tail[sel] ^= 1 << bit
        else:
            tail ^= 1 << bit

    def basic_row(self, x: int) -> int:
        """Miller's rule for one row; returns the number of gates added."""
        cur = int(self.y[x])
        if cur == x:
            return 0
        added = 0
        # raise the bits x has and the current value lacks, controlling on
        # the 1-bits of the (growing) current value
        for b in range(self.n):
            if (x >> b) & 1 and not (cur >> b) & 1:
                self.apply(cur, b, start=x)
                cur |= 1 << b
                added += 1
        # clear the extra bits, controlling on the 1-bits of x
        for b in range(self.n):
            if not (x >> b) & 1 and (cur >> b) & 1:
                self.apply(x, b, start=x)
                cur ^= 1 << b
                added += 1
        return added

    def circuit(self) -> Circuit:
        gates = tuple(_as_gate(self.n, m, b) for m, b in reversed(self.recorded))
        return Circuit(num_qubits=self.n, gates=gates)

    def trace_gates(self) -> tuple[Gate, ...]:
        return tuple(_as_gate(self.n, m, b) for m, b in self.recorded)


def synth_tbs_basic(
    table: TruthTable,
    gate_cap: int = GATE_CAP,
    with_trace: bool = False,
):
    """Synthesize a complete bijection on exactly n qubits.

    Ascending sweep; at each input pattern the current output is mapped
    onto the pattern with X gates controlled per Miller's unidirectional
    rule, which provably never disturbs earlier rows.  The reversed
    cascade is returned as the circuit.  Raises SizeLimitExceeded past
    ``gate_cap`` recorded gates.
    """
    _check_square_bijection(table)
    sweep = _Sweep(table, gate_cap)
    steps: list[TraceStep] = []
    for x in range(1 << table.n):
        added = sweep.basic_row(x)
        if with_trace:
            steps.append(TraceStep(row=x, table=tuple(int(v) for v in sweep.y), gates_added=added))
    circuit = sweep.circuit()
    if with_trace:
        return circuit, SynthTrace(gates=sweep.trace_gates(), steps=tuple(steps))
    return circuit


# ---------------------------------------------------------------------------
# subset-parity spectrum
# ---------------------------------------------------------------------------

def rm_spectrum(table: TruthTable) -> list[int]:
    """Positive-polarity Reed-Muller coefficient rows of a complete square table.

    Row i is the bitwise XOR of the output words over every submask of i,
    computed for all rows at once by the GF(2) butterfly.  The transform
    is an involution: applied to the rows it gives back the table.
    """
    if not table.complete:
        raise NotComplete(f"table defines {len(table.entries)} of {1 << table.n} patterns")
    if table.n != table.m:
        raise NotSquare(f"table is {table.n}x{table.m}")
    arr = np.array(table.as_list(), dtype=np.int64)
    idx = np.arange(arr.size)
    for k in range(table.n):
        hot = (idx >> k) & 1 == 1
        arr[hot] ^= arr[idx[hot] ^ (1 << k)]
    return arr.tolist()


def synth_tbs_rm(
    table: TruthTable,
    gate_cap: int = GATE_CAP,
    with_trace: bool = False,
):
    """Spectral sweep: drive the coefficient rows to the identity pattern.

    The identity function's spectrum has row 0 = 0, row 2^k = the k-th
    unit vector, and every other row 0.  Because all rows below the one
    being processed already match that pattern, the current row's
    coefficients follow directly from the function table: row 0 is f(0),
    a power-of-two row is the current f(i), and any other row is
    i XOR f(i).  Each step fixes one row:

    * row 0: one X per hot coefficient bit;
    * row 2^k: if bit k is missing, borrow it from a higher hot bit s via
      CX(s -> k); then CX(k -> j) clears every other hot bit j.  Such an
      s always exists for a bijection: rows below 2^k already map to
      themselves, so f(2^k) >= 2^k has a bit at or above k;
    * other rows i: with s the highest hot bit (binary(i) is always 0
      there), CX(s -> j) folds the other hot bits j into bit s, one
      multi-controlled X with controls on the 1-bits of i clears bit s,
      and re-applying the CX gates in reverse order compensates the rows
      below i that the fan-out disturbed.
    """
    _check_square_bijection(table)
    sweep = _Sweep(table, gate_cap)
    n = table.n
    steps: list[TraceStep] = []

    for i in range(1 << n):
        before = len(sweep.recorded)
        cur = int(sweep.y[i])
        if i == 0:
            r = cur
            for b in range(n):
                if (r >> b) & 1:
                    sweep.apply(0, b)
        elif i & (i - 1) == 0:
            k = i.bit_length() - 1
            r = cur
            if not (r >> k) & 1:
                higher = [j for j in range(k + 1, n) if (r >> j) & 1]
                if not higher:
                    raise NoPivot(f"row {i} has no coefficient bit above {k}")
                s = max(higher)
                sweep.apply(1 << s, k)
                r = int(sweep.y[i])
            for j in range(n):
                if j != k and (r >> j) & 1:
                    sweep.apply(1 << k, j)
        else:
            r = i ^ cur
            if r:
                s = r.bit_length() - 1
                others = [j for j in range(n) if j != s and (r >> j) & 1]
                for j in others:
                    sweep.apply(1 << s, j)
                sweep.apply(i, s)
                for j in reversed(others):
                    sweep.apply(1 << s, j)
        if with_trace:
            steps.append(TraceStep(
                row=i, table=tuple(int(v) for v in sweep.y),
                gates_added=len(sweep.recorded) - before,
            ))

    circuit = sweep.circuit()
    if with_trace:
        return circuit, SynthTrace(gates=sweep.trace_gates(), steps=tuple(steps))
    return circuit

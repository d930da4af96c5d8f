"""Minimal-qubit reversible synthesis over complete bijective tables.

Both variants sweep the input patterns in ascending order, in one loop
(``_run``) that takes the variant's row rule, and for each pattern append
gates that move the current output value onto the input value without
disturbing any earlier (already settled) row.  The recorded gate
cascade maps the function to the identity, so the synthesized circuit
is the cascade reversed: simulating it on |x> yields |f(x)>.

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
from functools import reduce
from operator import and_

import numpy as np

from .circuit import Circuit, Gate
from .errors import NoPivot, NotBijective, NotComplete, NotSquare, SizeLimitExceeded
from .funcprep import TruthTable
from .simulate import _bit_columns, _words_of

GATE_CAP = 50_000
_BLOCK = 4096  # settled rows are dropped from the sweep this many at a time


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
    return Gate("x", n - 1 - bit, controls)


class _Sweep:
    """Shared bookkeeping: the bit-sliced table and the recorded cascade.

    Bit i of ``cols[b]`` is bit b of row ``base + i``, as in run_reversible_table;
    the settled rows below ``base`` map to themselves and were dropped.
    """

    def __init__(self, table: TruthTable, gate_cap: int) -> None:
        self.n = table.n
        self.cols = _bit_columns(table.as_list(), self.n)[::-1]
        self.base = 0
        self.gate_cap = gate_cap
        self.recorded: list[tuple[int, int]] = []

    def apply(self, mask: int, bit: int) -> None:
        """Record one (multi-)controlled X and apply it to every live row."""
        if len(self.recorded) >= self.gate_cap:
            raise SizeLimitExceeded(f"synthesis would need more than {self.gate_cap} gates")
        self.recorded.append((mask, bit))
        controls = [c for b, c in enumerate(self.cols) if (mask >> b) & 1]
        live = reduce(and_, controls) if controls else (1 << ((1 << self.n) - self.base)) - 1
        self.cols[bit] ^= live

    def value(self, x: int) -> int:
        """Row x's current value; every row below x must be settled."""
        if x - self.base >= _BLOCK:
            self.cols = [c >> (x - self.base) for c in self.cols]
            self.base = x
        probe = 1 << (x - self.base)
        return sum(1 << b for b, c in enumerate(self.cols) if c & probe)

    def snapshot(self) -> tuple[int, ...]:
        """The whole table, settled rows included; the window stays put."""
        return (*range(self.base), *_words_of(self.cols[::-1], (1 << self.n) - self.base))

    def basic_row(self, x: int) -> None:
        """Miller's rule for one row.

        No gate fires on a settled row p < x, so all live rows may take it:
        both masks (the current value, >= x, and x) lie only in values >= x.
        """
        cur = self.value(x)
        # raise the bits x has and the current value lacks, controlling on
        # the 1-bits of the (growing) current value
        for b in range(self.n):
            if (x >> b) & 1 and not (cur >> b) & 1:
                self.apply(cur, b)
                cur |= 1 << b
        # clear the extra bits, controlling on the 1-bits of x
        for b in range(self.n):
            if not (x >> b) & 1 and (cur >> b) & 1:
                self.apply(x, b)

    def circuit(self) -> Circuit:
        """The reversed cascade, with one shared Gate per distinct gate."""
        made = {key: _as_gate(self.n, *key) for key in set(self.recorded)}
        return Circuit(num_qubits=self.n,
                       gates=tuple(made[key] for key in reversed(self.recorded)))


def _run(sweep: _Sweep, rule, with_trace: bool):
    """Settle each row in ascending order by ``rule(sweep, row)``; the circuit (and trace)."""
    steps: list[TraceStep] = []
    for x in range(1 << sweep.n):
        before = len(sweep.recorded)
        rule(sweep, x)
        if with_trace:
            steps.append(TraceStep(row=x, table=sweep.snapshot(),
                                   gates_added=len(sweep.recorded) - before))
    circuit = sweep.circuit()
    if with_trace:
        return circuit, SynthTrace(gates=circuit.gates[::-1], steps=tuple(steps))
    return circuit


def synth_tbs_basic(table: TruthTable, gate_cap: int = GATE_CAP, with_trace: bool = False):
    """Synthesize a complete bijection on exactly n qubits.

    Ascending sweep; at each input pattern the current output is mapped
    onto the pattern with X gates controlled per Miller's unidirectional
    rule, which provably never disturbs earlier rows.  The reversed
    cascade is returned as the circuit.  Raises SizeLimitExceeded past
    ``gate_cap`` recorded gates.
    """
    _check_square_bijection(table)
    return _run(_Sweep(table, gate_cap), _Sweep.basic_row, with_trace)


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


def synth_tbs_rm(table: TruthTable, gate_cap: int = GATE_CAP, with_trace: bool = False):
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
    return _run(_Sweep(table, gate_cap), _rm_row, with_trace)


def _rm_row(sweep: _Sweep, i: int) -> None:
    """One step of ``synth_tbs_rm``: bring coefficient row ``i`` to the identity's."""
    n = sweep.n
    r = sweep.value(i)
    if i == 0:
        for b in range(n):
            if (r >> b) & 1:
                sweep.apply(0, b)
    elif i & (i - 1) == 0:
        k = i.bit_length() - 1
        if not (r >> k) & 1:
            if not r >> (k + 1):
                raise NoPivot(f"row {i} has no coefficient bit above {k}")
            sweep.apply(1 << (r.bit_length() - 1), k)  # the highest hot bit
            r = sweep.value(i)
        for j in range(n):
            if j != k and (r >> j) & 1:
                sweep.apply(1 << k, j)
    else:
        r ^= i
        if r:
            s = r.bit_length() - 1
            others = [j for j in range(n) if j != s and (r >> j) & 1]
            for j in others:
                sweep.apply(1 << s, j)
            sweep.apply(i, s)
            for j in reversed(others):
                sweep.apply(1 << s, j)

"""Exclusive-sum-of-products synthesis.

A cube list is a ``PlaTable`` read with XOR semantics: an output bit is
the parity of the matching cubes that set it, so no output may be a
don't-care (each function here refuses one).  Cube lists produced by
exclusive-cover minimizers already mean exactly that, and for a disjoint
cover the XOR and OR readings agree on every minterm.  Cubes that mean OR
and may overlap go through ``_cover_to_xor`` first, as Grover's oracle does.

The circuit mapping is direct: each (cube, hot output bit) pair becomes
one X gate targeting that output qubit, with a positive control per
input 1, a negative control per input 0, and no control for a dash.
Input qubits are never targeted, so inputs pass through unchanged and
outputs accumulate f(x) by parity.

Evaluation is bit-sliced (evaluate_esop_table), one AND/XOR pass per cube
over every input word; ``qsynth verify`` takes its esop reference from it.
"""

from __future__ import annotations

from .circuit import Circuit, Gate
from .errors import WidthMismatch
from .pla import PlaTable
from .simulate import _bit_columns, _words_of


def _xor_cubes(table: PlaTable) -> tuple[tuple[str, str], ...]:
    """The cubes of ``table``: an XOR cube list has no output don't-care."""
    if any("-" in outs for _, outs in table.rows):
        raise WidthMismatch("assign output don't-cares before building an exclusive cover")
    return table.rows


def _intersect(a: str, b: str) -> str | None:
    out = []
    for ca, cb in zip(a, b):
        if ca == "-":
            out.append(cb)
        elif cb == "-" or ca == cb:
            out.append(ca)
        else:
            return None
    return "".join(out)


def _cover_to_xor(table: PlaTable) -> PlaTable:
    """Rewrite OR semantics as XOR semantics, output column by column.

    Folding a | b = a ^ b ^ ab over the cube list: adding a cube also adds
    its intersection with every term already present, so double-covered
    minterms get their parity corrected.  Used where a cover interpretation
    is required regardless of overlap (search predicates).  With one
    output, a disjoint list of hot cubes comes back unchanged, in order.
    A cube's output that is not 1, don't-care or not, sets nothing.
    """
    m = table.m
    merged: dict[str, int] = {}
    for k in range(m):
        terms: list[str] = []
        for ins, outs in table.rows:
            if outs[k] == "1":
                terms += [ins, *[t for t in (_intersect(e, ins) for e in terms) if t is not None]]
        for ins in terms:
            merged[ins] = merged.get(ins, 0) ^ (1 << (m - 1 - k))
    return PlaTable(table.n, m, tuple((ins, format(mask, f"0{m}b"))
                                      for ins, mask in merged.items() if mask))


def to_esop(table: PlaTable) -> PlaTable:
    """Read a cube list as an exclusive cover: ``table``, refused if it has
    an output don't-care."""
    _xor_cubes(table)
    return table


def evaluate_esop_table(table: PlaTable, words) -> list[int]:
    """XOR evaluation of the cube list on every word of ``words``.

    Bit-sliced like simulate.run_reversible_table: a cube ANDs each literal's
    input column (or its complement, for a 0) into one match mask over all
    words, and XORs that mask into the column of each hot output bit.
    """
    words = list(words)
    if words and (min(words) < 0 or max(words) >> table.n):
        raise ValueError(f"an input word does not fit in {table.n} bits")
    rows = len(words)
    every = (1 << rows) - 1
    columns = _bit_columns(words, table.n)
    outputs = [0] * table.m
    for ins, outs in _xor_cubes(table):
        match = every
        for j, c in enumerate(ins):
            if c != "-":
                match &= columns[j] if c == "1" else ~columns[j]
        for k, bit in enumerate(outs):
            if bit == "1":
                outputs[k] ^= match
    return _words_of(outputs, rows)


def synth_esop(table: PlaTable) -> Circuit:
    """Map each (cube, hot output bit) to one multi-controlled X gate.

    Qubits 0..n-1 carry the inputs, n..n+m-1 the outputs.  The circuit
    sends |x>|y> to |x>|y ^ f(x)>.
    """
    n, m = table.n, table.m
    gates: list[Gate] = []
    for ins, outs in _xor_cubes(table):
        controls = tuple((j, c == "1") for j, c in enumerate(ins) if c != "-")
        for k, bit in enumerate(outs):
            if bit == "1":
                gates.append(Gate("x", n + k, controls))
    labels = tuple(f"x{j}" for j in range(n)) + tuple(f"f{k}" for k in range(m))
    return Circuit(num_qubits=n + m, gates=tuple(gates), labels=labels)

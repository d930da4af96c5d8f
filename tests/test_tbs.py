"""Minimal-qubit synthesis of complete bijections, plain and spectral."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsynth import tbs
from qsynth.circuit import Circuit
from qsynth.errors import NotBijective, NotComplete, NotSquare, SizeLimitExceeded
from qsynth.funcprep import TruthTable
from qsynth.simulate import run_reversible_table
from qsynth.tbs import rm_spectrum, synth_tbs_basic, synth_tbs_rm

BOTH = pytest.mark.parametrize("synth", [synth_tbs_basic, synth_tbs_rm],
                               ids=["basic", "rm"])


def bijection(perm):
    n = (len(perm) - 1).bit_length()
    assert len(perm) == 1 << n
    return TruthTable(n=n, m=n, entries=dict(enumerate(perm)))


def realized(circuit):
    return run_reversible_table(circuit)


class TestValidation:
    @BOTH
    def test_non_square_rejected(self, synth):
        table = TruthTable(n=2, m=3, entries={x: x for x in range(4)})
        with pytest.raises(NotSquare):
            synth(table)

    @BOTH
    def test_incomplete_rejected(self, synth):
        table = TruthTable(n=2, m=2, entries={0: 1, 1: 0})
        with pytest.raises(NotBijective):
            synth(table)

    @BOTH
    def test_repeated_output_rejected(self, synth):
        table = TruthTable(n=2, m=2, entries={0: 1, 1: 1, 2: 2, 3: 3})
        with pytest.raises(NotBijective):
            synth(table)

    @BOTH
    def test_gate_cap(self, synth):
        # reversal of 3 bits needs more than one gate
        table = bijection([7 - x for x in range(8)])
        with pytest.raises(SizeLimitExceeded):
            synth(table, gate_cap=1)


class TestBasic:
    def test_identity_is_empty(self):
        circ = synth_tbs_basic(bijection(list(range(8))))
        assert circ.gates == ()
        assert circ.num_qubits == 3

    def test_single_bit_flip(self):
        # f(x) = x ^ 1 needs exactly one uncontrolled X on the low bit
        circ = synth_tbs_basic(bijection([1, 0, 3, 2]))
        assert len(circ.gates) == 1
        gate = circ.gates[0]
        assert gate.kind == "x" and gate.controls == ()
        assert gate.target == 1

    def test_cnot_function(self):
        # f(x1 x0) = (x1, x0 ^ x1)
        circ = synth_tbs_basic(bijection([0, 1, 3, 2]))
        assert realized(circ) == [0, 1, 3, 2]
        assert len(circ.gates) == 1
        assert circ.gates[0].controls == ((0, True),)

    def test_all_controls_positive(self, rng):
        for _ in range(10):
            perm = list(range(16))
            rng.shuffle(perm)
            circ = synth_tbs_basic(bijection(perm))
            for gate in circ.gates:
                assert gate.kind == "x"
                assert all(value for _, value in gate.controls)

    @BOTH
    def test_random_three_bit(self, synth, rng):
        for _ in range(40):
            perm = list(range(8))
            rng.shuffle(perm)
            assert realized(synth(bijection(perm))) == perm

    @BOTH
    def test_random_four_and_five_bit(self, synth, rng):
        for n in (4, 5):
            for _ in range(10):
                perm = list(range(1 << n))
                rng.shuffle(perm)
                assert realized(synth(bijection(perm))) == perm


class TestTrace:
    @BOTH
    def test_prefix_settles(self, synth, rng):
        perm = list(range(16))
        rng.shuffle(perm)
        _, trace = synth(bijection(perm), with_trace=True)
        for step in trace.steps:
            for x in range(step.row + 1):
                assert step.table[x] == x

    @BOTH
    def test_final_snapshot_is_identity(self, synth, rng):
        perm = list(range(8))
        rng.shuffle(perm)
        _, trace = synth(bijection(perm), with_trace=True)
        assert trace.steps[-1].table == tuple(range(8))

    @BOTH
    def test_gate_budget_bookkeeping(self, synth, rng):
        perm = list(range(8))
        rng.shuffle(perm)
        circ, trace = synth(bijection(perm), with_trace=True)
        assert sum(s.gates_added for s in trace.steps) == len(circ.gates)
        assert len(trace.gates) == len(circ.gates)

    @BOTH
    def test_trace_gates_compute_inverse(self, synth, rng):
        from qsynth.circuit import Circuit
        perm = list(range(16))
        rng.shuffle(perm)
        circ, trace = synth(bijection(perm), with_trace=True)
        assert circ.gates == tuple(reversed(trace.gates))
        forward = Circuit(num_qubits=4, gates=trace.gates)
        inverse = [0] * 16
        for x, y in enumerate(perm):
            inverse[y] = x
        assert realized(forward) == inverse


class TestSpectrum:
    def test_one_bit_rows(self):
        # row 0 = f(0); row 1 = f(0) ^ f(1)
        assert rm_spectrum(bijection([0, 1])) == [0, 1]
        assert rm_spectrum(bijection([1, 0])) == [1, 1]

    def test_identity_spectrum(self):
        # identity has unit-vector rows exactly at the powers of two
        rows = rm_spectrum(bijection(list(range(8))))
        for i in range(8):
            assert rows[i] == (i if i == 0 or i & (i - 1) == 0 else 0)

    def test_evaluate_inverts_transform(self, rng):
        # the butterfly is an involution: the spectrum of the rows is the table
        values = [rng.randrange(8) for _ in range(8)]
        rows = rm_spectrum(TruthTable(n=3, m=3, entries=dict(enumerate(values))))
        for i, row in enumerate(rows):  # row i: XOR of f over the submasks of i
            expected = 0
            for j in range(8):
                if j & i == j:
                    expected ^= values[j]
            assert row == expected
        assert rm_spectrum(TruthTable(n=3, m=3, entries=dict(enumerate(rows)))) == values

    def test_incomplete_rejected(self):
        table = TruthTable(n=2, m=2, entries={0: 3})
        with pytest.raises(NotComplete):
            rm_spectrum(table)

    def test_non_square_rejected(self):
        table = TruthTable(n=2, m=3, entries={x: x for x in range(4)})
        with pytest.raises(NotSquare):
            rm_spectrum(table)


class TestSpectralSweep:
    def test_identity_is_empty(self):
        circ = synth_tbs_rm(bijection(list(range(8))))
        assert circ.gates == ()

    def test_no_pivot_guard_never_fires(self, rng):
        # power-of-two rows of a bijection always hold a usable pivot
        for _ in range(30):
            perm = list(range(16))
            rng.shuffle(perm)
            circ = synth_tbs_rm(bijection(perm))
            assert realized(circ) == perm

    def test_swap_function(self):
        # f swaps the two bits; both methods must realize it on 2 qubits
        perm = [0, 2, 1, 3]
        for synth in (synth_tbs_basic, synth_tbs_rm):
            circ = synth(bijection(perm))
            assert circ.num_qubits == 2
            assert realized(circ) == perm


class ReferenceSweep:
    """The numpy sweep the bit-sliced one replaced, as a drop-in for it.

    It keeps the whole table and rewrites its tail from row ``start`` for
    every gate; Miller's rule applies its gates from the current row on.
    """

    def __init__(self, table, gate_cap):
        self.n = table.n
        self.y = np.array(table.as_list(), dtype=np.int64)
        self.gate_cap = gate_cap
        self.recorded = []

    def apply(self, mask, bit, start=0):
        if len(self.recorded) >= self.gate_cap:
            raise SizeLimitExceeded(
                f"synthesis would need more than {self.gate_cap} gates")
        self.recorded.append((mask, bit))
        tail = self.y[start:]
        if mask:
            tail[(tail & mask) == mask] ^= 1 << bit
        else:
            tail ^= 1 << bit

    def value(self, x):
        return int(self.y[x])

    def snapshot(self):
        return tuple(int(v) for v in self.y)

    def basic_row(self, x):
        cur = int(self.y[x])
        added = 0
        for b in range(self.n):
            if (x >> b) & 1 and not (cur >> b) & 1:
                self.apply(cur, b, start=x)
                cur |= 1 << b
                added += 1
        for b in range(self.n):
            if not (x >> b) & 1 and (cur >> b) & 1:
                self.apply(x, b, start=x)
                cur ^= 1 << b
                added += 1
        return added

    def circuit(self):
        gates = tuple(tbs._as_gate(self.n, m, b) for m, b in reversed(self.recorded))
        return Circuit(num_qubits=self.n, gates=gates)


def sweep_run(synth, table, cap, sweep_class):
    """Gates and snapshots of an uncapped traced run, and where ``cap`` stops it."""
    sweeps = []

    class Spy(sweep_class):
        def __init__(self, *args):
            super().__init__(*args)
            sweeps.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tbs, "_Sweep", Spy)
        circ, trace = synth(table, with_trace=True)
        try:
            synth(table, gate_cap=cap)
            stop = None
        except SizeLimitExceeded as exc:
            stop = (str(exc), len(sweeps[-1].recorded))
    return circ.gates, trace.gates, [(s.row, s.table, s.gates_added) for s in trace.steps], stop


class TestBitSlicedSweep:
    """The bit-sliced sweep records what the numpy table sweep recorded."""

    @pytest.mark.parametrize("block", [tbs._BLOCK, 1, 4])
    @BOTH
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(perm=st.integers(1, 6).flatmap(lambda n: st.permutations(range(1 << n))),
           cap=st.integers(0, 40))
    def test_matches_numpy_reference(self, synth, block, perm, cap):
        table = bijection(perm)
        expected = sweep_run(synth, table, cap, ReferenceSweep)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tbs, "_BLOCK", block)  # small blocks cross many row drops
            assert sweep_run(synth, table, cap, tbs._Sweep) == expected

    @BOTH
    def test_repeated_gates_share_one_object(self, synth, rng):
        perm = list(range(32))
        rng.shuffle(perm)
        gates = synth(bijection(perm)).gates
        assert len(set(gates)) < len(gates)  # the CX fan-outs repeat
        assert len({id(g) for g in gates}) == len(set(gates))

"""Basis, angle and amplitude memory circuits."""

import math

import numpy as np
import pytest

from qsynth.encoding import (
    angle_tree,
    qrng_pipeline,
    qrom_pipeline,
    read_pmf,
    synth_amplitude,
    synth_angle,
    synth_basis,
)
from qsynth.errors import NotNormalized, NotPowerOfTwo, ValueOutOfRange, WidthMismatch
from qsynth.funcprep import NormalizedWords, Pmf, TruthTable, normalize
from qsynth.pla import parse_pla
from qsynth.simulate import run_reversible_table, run_statevector


class TestMemoryImage:
    def test_address_out_of_range(self):
        with pytest.raises(WidthMismatch):
            TruthTable(n=2, m=2, entries={4: 0})

    def test_word_out_of_range(self):
        with pytest.raises(WidthMismatch):
            TruthTable(n=2, m=2, entries={0: 4})

    @pytest.mark.parametrize("scheme", ["basis", "fixedpoint01", "floatlike"])
    def test_addresses_read_in_ascending_order(self, scheme):
        words = {0: 2, 1: 5, 2: 3, 3: 7}
        ascending = TruthTable(n=2, m=3, entries=dict(sorted(words.items())))
        descending = TruthTable(n=2, m=3, entries=dict(sorted(words.items(), reverse=True)))
        if scheme == "basis":
            got, want = (synth_basis(t).gates for t in (descending, ascending))
        else:
            values = normalize([words[a] for a in sorted(words)], scheme, width=3)
            got, want = (synth_angle(t, values).gates for t in (descending, ascending))
        assert got == want
        if scheme == "fixedpoint01":
            # plain mode: even positions land in RX, odd ones in RZ
            assert [(g.kind, g.controls) for g in got] == [
                ("rx", ((0, False), (1, False))), ("rz", ((0, False), (1, True))),
                ("rx", ((0, True), (1, False))), ("rz", ((0, True), (1, True)))]


class TestBasis:
    def test_shape_and_labels(self):
        circ = synth_basis(TruthTable(n=2, m=3, entries={0: 5}))
        assert circ.num_qubits == 5
        assert circ.labels == ("a0", "a1", "d0", "d1", "d2")

    def test_gate_per_hot_bit_with_full_address(self):
        circ = synth_basis(TruthTable(n=2, m=2, entries={2: 3}))
        assert len(circ.gates) == 2
        for gate in circ.gates:
            assert gate.kind == "x"
            assert gate.controls == ((0, True), (1, False))
        assert {g.target for g in circ.gates} == {2, 3}

    def test_readback(self, rng):
        n, m = 3, 4
        stored = {a: rng.randrange(1 << m) for a in rng.sample(range(8), 5)}
        circ = synth_basis(TruthTable(n=n, m=m, entries=stored))
        words = run_reversible_table(circ, [a << m for a in range(1 << n)])
        for a, word in enumerate(words):
            assert word >> m == a
            assert word & ((1 << m) - 1) == stored.get(a, 0)

    def test_zero_words_cost_nothing(self):
        circ = synth_basis(TruthTable(n=2, m=2, entries={0: 0, 1: 0}))
        assert circ.gates == ()


class TestAngle:
    def two_pair_spec(self):
        return TruthTable(n=2, m=3, entries={1: 4, 2: 6})

    def test_value_count_must_match(self):
        words = NormalizedWords(scheme="fixedpoint01", width=3, values=(0.5,))
        with pytest.raises(ValueError, match="values for"):
            synth_angle(self.two_pair_spec(), normalized=words)

    def test_range_check(self):
        words = NormalizedWords(scheme="factor", width=3, values=(6.5, 0.25))
        with pytest.raises(ValueOutOfRange):
            synth_angle(self.two_pair_spec(), normalized=words)

    def test_even_rx_odd_rz(self):
        words = NormalizedWords(scheme="fixedpoint01", width=3, values=(0.5, 0.75))
        circ = synth_angle(self.two_pair_spec(), normalized=words)
        assert circ.num_qubits == 3
        assert circ.labels == ("a0", "a1", "d0")
        first, second = circ.gates
        assert first.kind == "rx" and first.angle == 1.0
        assert first.target == 2
        assert first.controls == ((0, False), (1, True))
        assert second.kind == "rz" and second.angle == 0.75
        assert second.controls == ((0, True), (1, False))

    def test_zero_values_emit_nothing(self):
        words = NormalizedWords(scheme="fixedpoint01", width=3, values=(0.0, 0.0))
        circ = synth_angle(self.two_pair_spec(), normalized=words)
        assert circ.gates == ()

    def test_rx_probability_readout(self):
        # the value stored at an even position reads back as sin^2(value)
        value = 0.6
        spec = TruthTable(n=2, m=3, entries={1: 4})
        words = NormalizedWords(scheme="fixedpoint01", width=3, values=(value,))
        circ = synth_angle(spec, normalized=words)
        hit = run_statevector(circ, initial=1 << 1).distribution(qubits=(2,))
        assert hit[1] == pytest.approx(math.sin(value) ** 2, abs=1e-12)
        miss = run_statevector(circ, initial=0).distribution(qubits=(2,))
        assert miss[1] == pytest.approx(0.0, abs=1e-12)

    def test_improved_layout(self):
        # 0b100 -> S=2, E=0; 0b011 -> S=3, E=1; 0b000 emits nothing
        spec = TruthTable(n=2, m=3, entries={0: 4, 1: 3, 2: 0})
        words = normalize([4, 3, 0], "floatlike", width=3)
        circ = synth_angle(spec, normalized=words)
        kinds = [(g.kind, g.angle, g.controls) for g in circ.gates]
        assert kinds == [
            ("rx", 4.0, ((0, False), (1, False))),
            ("rx", 6.0, ((0, False), (1, True))),
            ("rz", 1.0, ((0, False), (1, True))),
        ]

    def test_improved_zero_exponent_skips_rz(self):
        spec = TruthTable(n=1, m=3, entries={0: 4})
        words = normalize([4], "floatlike", width=3)
        circ = synth_angle(spec, normalized=words)
        assert [g.kind for g in circ.gates] == ["rx"]


class TestAngleTree:
    def test_uniform_angles(self):
        tree = angle_tree(Pmf(probs=(0.25,) * 4))
        assert tree.levels == ((math.pi / 4,), (math.pi / 4, math.pi / 4))

    def test_unnormalized_rejected(self):
        with pytest.raises(NotNormalized):
            angle_tree(Pmf(probs=(0.5, 0.4)))
        with pytest.raises(NotNormalized):
            angle_tree(Pmf(probs=(0.5, math.nan)))

    @pytest.mark.parametrize("probs, where", [
        ((1.5, -0.5), "bin 1 is negative"),
        ((0.5, 0.75, -0.25, 0.0), "bin 2 is negative"),
    ], ids=["two-bins", "four-bins"])
    def test_negative_bin_rejected(self, probs, where):
        # the split ratios were clamped to [0, 1], so these sums of 1 prepared
        # [1, 0] and [0.4, 0.6, 0, 0] without a word
        with pytest.raises(NotNormalized, match=where):
            synth_amplitude(Pmf(probs=probs))

    def test_zero_subtree_angle_is_zero(self):
        tree = angle_tree(Pmf(probs=(0.5, 0.5, 0.0, 0.0)))
        assert tree.levels[0] == (0.0,)
        assert tree.levels[1][1] == 0.0

    def test_reconstruct_matches_leaves(self, rng):
        raw = [rng.random() for _ in range(16)]
        total = math.fsum(raw)
        tree = angle_tree(Pmf(probs=tuple(v / total for v in raw)))
        for leaf in range(16):
            assert tree.reconstruct(leaf) == pytest.approx(tree.leaf_probs[leaf],
                                                           abs=1e-12)


class TestAmplitude:
    def test_full_tree_gate_count(self):
        circ = synth_amplitude(Pmf(probs=(1 / 32,) * 32))
        assert circ.num_qubits == 5
        assert len(circ.gates) == 31
        assert all(g.kind == "ry" for g in circ.gates)

    def test_level_controls_are_path_prefixes(self):
        circ = synth_amplitude(Pmf(probs=(0.25,) * 4))
        l0, l1a, l1b = circ.gates
        assert l0.target == 0 and l0.controls == ()
        assert l1a.target == 1 and l1a.controls == ((0, False),)
        assert l1b.target == 1 and l1b.controls == ((0, True),)

    def test_prepared_distribution(self, rng):
        raw = [rng.random() for _ in range(32)]
        total = math.fsum(raw)
        probs = tuple(v / total for v in raw)
        state = run_statevector(synth_amplitude(Pmf(probs=probs)))
        np.testing.assert_allclose(state.distribution(), probs, atol=1e-12)


class TestPipelines:
    PLA = """.i 2
.o 3
00 001
01 010
10 100
11 111
.e
"""

    def test_basis_pipeline_readback(self):
        circ = qrom_pipeline(parse_pla(self.PLA), encoding="basis")
        expected = {0: 1, 1: 2, 2: 4, 3: 7}
        words = run_reversible_table(circ, [a << 3 for a in range(4)])
        assert [word & 7 for word in words] == [expected[a] for a in range(4)]

    def test_angle_pipeline_default_scheme(self):
        circ = qrom_pipeline(parse_pla(self.PLA), encoding="angle")
        assert circ.num_qubits == 3
        # fixedpoint01 on 3-bit words: first stored value is 1/8
        assert circ.gates[0].kind == "rx"
        assert circ.gates[0].angle == pytest.approx(2 * (1 / 8))

    def test_improved_angle_pipeline(self):
        circ = qrom_pipeline(parse_pla(self.PLA), encoding="improved-angle")
        assert circ.num_qubits == 3
        assert {g.kind for g in circ.gates} <= {"rx", "rz"}

    @pytest.mark.parametrize("encoding", ["angle", "improved-angle"])
    def test_angle_memory_without_cubes(self, encoding):
        # every address holds 0, which costs no gates
        circ = qrom_pipeline(parse_pla(".i 2\n.o 1\n.e\n"), encoding=encoding)
        assert (circ.num_qubits, circ.gates) == (3, ())
        assert circ.labels == ("a0", "a1", "d0")

    def test_unknown_encoding(self):
        with pytest.raises(ValueError, match="unknown encoding"):
            qrom_pipeline(parse_pla(self.PLA), encoding="phase")

    def test_qrng_pipeline_probability_mode(self):
        circ = qrng_pipeline([1.0, 3.0])
        state = run_statevector(circ)
        np.testing.assert_allclose(state.distribution(), (0.25, 0.75), atol=1e-12)


class TestReadPmf:
    def test_plain_lines(self):
        text = "# heights\n\n0.5\n0.5\n"
        assert read_pmf(text) == [0.5, 0.5]

    def test_csv_any_order(self):
        text = "1,0.75\n0,0.25\n"
        assert read_pmf(text) == [0.25, 0.75]

    def test_csv_duplicate_bin(self):
        with pytest.raises(ValueError, match="twice"):
            read_pmf("0,0.5\n0,0.5\n")

    def test_csv_gap(self):
        with pytest.raises(ValueError, match="cover"):
            read_pmf("0,0.5\n2,0.5\n")

    def test_csv_bad_row(self):
        with pytest.raises(ValueError, match="bin,height"):
            read_pmf("0,0.5,extra\n1,0.5\n")

    def test_not_power_of_two(self):
        with pytest.raises(NotPowerOfTwo):
            read_pmf("0.4\n0.3\n0.3\n")

    def test_empty(self):
        with pytest.raises(ValueError, match="no histogram"):
            read_pmf("# nothing\n")

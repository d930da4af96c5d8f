"""Exclusive-cover construction and its direct circuit mapping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsynth.errors import WidthMismatch
from qsynth.esop import evaluate_esop_table, synth_esop, to_esop
from qsynth.pla import PlaTable
from qsynth.simulate import run_reversible_table


# the message `qsynth synth` prints for a cube list with an output '-'
OUTPUT_DASH = "^assign output don't-cares before building an exclusive cover$"


def table(n, m, rows):
    return PlaTable(n=n, m=m, rows=tuple(rows))


def brute_force(tbl):
    """OR reading of a cube list, minterm by minterm."""
    out = {}
    for x in range(1 << tbl.n):
        acc = 0
        for ins, outs in tbl.rows:
            if all(c == "-" or int(c) == ((x >> (tbl.n - 1 - j)) & 1)
                   for j, c in enumerate(ins)):
                acc |= int(outs, 2)
        out[x] = acc
    return out


def reference_evaluate(spec: PlaTable, x: int) -> int:
    """The per-row evaluation that evaluate_esop_table replaced, kept verbatim."""
    result = 0
    for ins, outs in spec.rows:
        match = True
        for j, c in enumerate(ins):
            if c == "-":
                continue
            bit = (x >> (spec.n - 1 - j)) & 1
            if bit != int(c):
                match = False
                break
        if match:
            result ^= int(outs, 2)
    return result


@st.composite
def specs_and_words(draw):
    """A random cube list (dashes, duplicate cubes, maybe no cubes) and word list."""
    n = draw(st.integers(1, 9))  # 2^9 rows: columns cross 64-bit words
    m = draw(st.integers(1, 4))
    cube = st.tuples(st.text("01-", min_size=n, max_size=n),
                     st.text("01", min_size=m, max_size=m))
    cubes = draw(st.lists(cube, max_size=12))
    cubes += draw(st.lists(st.sampled_from(cubes), max_size=4)) if cubes else []
    word = st.integers(0, (1 << n) - 1)
    words = draw(st.one_of(
        st.just(list(range(1 << n))),
        st.lists(word, max_size=200),  # unsorted and repeated
        st.lists(word, min_size=1, max_size=20).map(lambda w: w * 8)))
    return table(n, m, draw(st.permutations(cubes))), words


def random_table(rng, n, m, cubes):
    rows = []
    for _ in range(cubes):
        ins = "".join(rng.choice("01-") for _ in range(n))
        outs = format(rng.randrange(1, 1 << m), f"0{m}b")
        rows.append((ins, outs))
    return table(n, m, rows)


class TestToEsop:
    def test_rows_become_cubes_verbatim(self):
        tbl = table(2, 1, [("01", "1"), ("1-", "1")])
        spec = to_esop(tbl)
        assert spec.rows == (("01", "1"), ("1-", "1"))
        assert (spec.n, spec.m) == (2, 1)

    def test_output_dash_rejected(self):
        tbl = table(2, 2, [("01", "1-")])
        with pytest.raises(WidthMismatch, match=OUTPUT_DASH):
            to_esop(tbl)


@pytest.mark.parametrize("read", [
    synth_esop,
    lambda tbl: evaluate_esop_table(tbl, range(4)),
], ids=["synth_esop", "evaluate_esop_table"])
def test_output_dash_rejected(read):
    # parse_pla keeps an output '-', which an XOR reading must not take as 0;
    # the to_esop case is TestToEsop::test_output_dash_rejected
    tbl = table(2, 2, [("01", "1-"), ("1-", "01")])
    with pytest.raises(WidthMismatch, match=OUTPUT_DASH):
        read(tbl)


class TestEvaluate:
    def test_xor_of_matching_cubes(self):
        spec = table(2, 2, [("0-", "11"), ("-1", "01")])
        assert evaluate_esop_table(spec, [0b00]) == [0b11]
        assert evaluate_esop_table(spec, [0b01]) == [0b10]
        assert evaluate_esop_table(spec, [0b10]) == [0b00]
        assert evaluate_esop_table(spec, [0b11]) == [0b01]

    def test_duplicate_cube_cancels(self):
        spec = table(2, 1, [("01", "1"), ("01", "1")])
        for x in range(4):
            assert evaluate_esop_table(spec, [x]) == [0]

    def test_column_order_is_msb_first(self):
        spec = table(3, 1, [("1--", "1")])
        assert evaluate_esop_table(spec, [0b100]) == [1]
        assert evaluate_esop_table(spec, [0b011]) == [0]

    def test_disjoint_cover_matches_or_reading(self, rng):
        for _ in range(20):
            n = rng.randrange(2, 5)
            m = rng.randrange(1, 3)
            rows = [(format(x, f"0{n}b"), format(rng.randrange(1, 1 << m), f"0{m}b"))
                    for x in rng.sample(range(1 << n), rng.randrange(1, 1 << n))]
            tbl = table(n, m, rows)
            spec = to_esop(tbl)
            oracle = brute_force(tbl)
            domain = range(1 << n)
            assert evaluate_esop_table(spec, domain) == [oracle[x] for x in domain]


class TestEvaluateTable:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(case=specs_and_words())
    def test_matches_per_row_reference(self, case):
        spec, words = case
        assert evaluate_esop_table(spec, words) == [reference_evaluate(spec, x) for x in words]

    @pytest.mark.parametrize("word", [-1, 0b1000])
    def test_word_wider_than_inputs_rejected(self, word):
        # the per-row loop read only the low n bits of such a word
        spec = table(3, 1, [("1--", "1")])
        with pytest.raises(ValueError, match="does not fit in 3 bits"):
            evaluate_esop_table(spec, [0, word])
        with pytest.raises(ValueError, match="does not fit in 3 bits"):
            evaluate_esop_table(spec, [word])


class TestSynth:
    def test_qubit_count_and_labels(self):
        spec = table(3, 2, [("01-", "10")])
        circ = synth_esop(spec)
        assert circ.num_qubits == 5
        assert circ.labels == ("x0", "x1", "x2", "f0", "f1")

    def test_gate_per_hot_output_bit(self):
        spec = table(2, 2, [("01", "11"), ("1-", "01")])
        circ = synth_esop(spec)
        assert len(circ.gates) == 3
        g0, g1, g2 = circ.gates
        assert g0.target == 2 and g0.controls == ((0, False), (1, True))
        assert g1.target == 3 and g1.controls == ((0, False), (1, True))
        assert g2.target == 3 and g2.controls == ((0, True),)

    def test_dash_columns_have_no_controls(self):
        spec = table(3, 1, [("---", "1")])
        circ = synth_esop(spec)
        assert len(circ.gates) == 1
        assert circ.gates[0].controls == ()

    def test_inputs_pass_through(self):
        spec = table(3, 2, [("01-", "10"), ("--1", "11")])
        circ = synth_esop(spec)
        words = run_reversible_table(circ, [x << 2 for x in range(8)])
        for x, word in enumerate(words):
            assert word >> 2 == x

    def test_replay_matches_evaluation(self, rng):
        for _ in range(20):
            n = rng.randrange(1, 5)
            m = rng.randrange(1, 4)
            tbl = random_table(rng, n, m, rng.randrange(1, 7))
            spec = to_esop(tbl)
            circ = synth_esop(spec)
            words = run_reversible_table(circ, [x << m for x in range(1 << n)])
            want = evaluate_esop_table(spec, range(1 << n))
            assert [word & ((1 << m) - 1) for word in words] == want

    def test_nonzero_output_register_accumulates(self):
        spec = table(2, 2, [("1-", "11")])
        circ = synth_esop(spec)
        # |x=2>|y=01> -> |x>|y ^ 11> = |10>|10>
        assert run_reversible_table(circ, [(0b10 << 2) | 0b01]) == [(0b10 << 2) | 0b10]

    def test_empty_cube_list(self):
        spec = table(2, 1, [])
        circ = synth_esop(spec)
        assert circ.num_qubits == 3
        assert circ.gates == ()
        assert run_reversible_table(circ, [0b101]) == [0b101]

"""Search circuits built from cube predicates over a six-bit card deck."""

import hashlib
import math

import pytest

from qsynth.circuit import Circuit
from qsynth.errors import AllSolutions, NoSolutions
from qsynth.grover import (
    GroverSpec,
    build_grover,
    card_cube,
    card_predicate,
    iteration_sweep,
    solutions,
    success_probability,
    sweep_csv,
    _oracle_gates,
)
from qsynth.pla import PlaTable
from qsynth.qasm import emit_qasm
from qsynth.simulate import run_reversible_table, run_statevector


def predicate(n, rows):
    return PlaTable(n=n, m=1, rows=tuple(rows))


class TestCardEncoding:
    def test_suit_bits_first(self):
        assert card_cube(suit="diamonds") == "10----"
        assert card_cube(suit="clubs") == "00----"
        assert card_cube(suit="hearts") == "01----"
        assert card_cube(suit="spades") == "11----"

    def test_value_bits(self):
        assert card_cube(value=10) == "--1010"
        assert card_cube(value=1) == "--0001"
        assert card_cube(value=13) == "--1101"

    def test_full_card(self):
        assert card_cube(suit="diamonds", value=10) == "101010"

    def test_requires_a_constraint(self):
        with pytest.raises(ValueError, match="at least one"):
            card_cube()

    def test_unknown_suit(self):
        with pytest.raises(ValueError, match="unknown suit"):
            card_cube(suit="cups")

    def test_value_range(self):
        with pytest.raises(ValueError, match="1..13"):
            card_cube(value=0)
        with pytest.raises(ValueError, match="1..13"):
            card_cube(value=14)

    def test_predicate_shape(self):
        table = card_predicate(suit="clubs")
        assert (table.n, table.m) == (6, 1)
        assert table.rows == (("00----", "1"),)


class TestSolutions:
    def test_single_card(self):
        spec = GroverSpec(n=6, predicate=card_predicate("diamonds", 10), k=1)
        assert solutions(spec) == {0b101010}

    def test_suit_block(self):
        spec = GroverSpec(n=6, predicate=card_predicate("clubs"), k=1)
        assert solutions(spec) == set(range(16))

    def test_no_solutions(self):
        spec = GroverSpec(n=2, predicate=predicate(2, [("11", "0")]), k=1)
        with pytest.raises(NoSolutions):
            solutions(spec)

    def test_all_solutions(self):
        spec = GroverSpec(n=2, predicate=predicate(2, [("--", "1")]), k=1)
        with pytest.raises(AllSolutions):
            solutions(spec)


class TestSpecValidation:
    def test_predicate_width(self):
        with pytest.raises(ValueError, match="single-output"):
            GroverSpec(n=3, predicate=predicate(2, [("11", "1")]), k=1)

    def test_multi_output_rejected(self):
        table = PlaTable(n=3, m=2, rows=(("111", "10"),))
        with pytest.raises(ValueError, match="single-output"):
            GroverSpec(n=3, predicate=table, k=1)

    def test_negative_iterations(self):
        with pytest.raises(ValueError, match=">= 0"):
            GroverSpec(n=2, predicate=predicate(2, [("11", "1")]), k=-1)


class TestOracle:
    def oracle_flips(self, table):
        spec = GroverSpec(n=table.n, predicate=table, k=1)
        circ = Circuit(num_qubits=table.n + 1, gates=tuple(_oracle_gates(spec)))
        marked = set()
        outs = run_reversible_table(circ, [value << 1 for value in range(1 << table.n)])
        for value, out in enumerate(outs):
            assert out >> 1 == value
            if out & 1:
                marked.add(value)
        return marked

    def test_disjoint_cubes(self):
        table = predicate(3, [("11-", "1"), ("000", "1")])
        assert self.oracle_flips(table) == {6, 7, 0}

    def test_overlapping_cubes_flip_once(self):
        # OR semantics: the union must be marked, not the parity
        table = predicate(3, [("0--", "1"), ("-0-", "1")])
        assert self.oracle_flips(table) == {0, 1, 2, 3, 4, 5}


class TestBuildGrover:
    def test_shape(self):
        circ = build_grover(GroverSpec(n=6, predicate=card_predicate("clubs"), k=2))
        assert circ.num_qubits == 7
        assert circ.labels == ("x0", "x1", "x2", "x3", "x4", "x5", "anc")
        assert circ.measured == (0, 1, 2, 3, 4, 5)

    @pytest.mark.parametrize("cubes,k,sha256,qasm_sha256", [
        ((card_cube("diamonds", 10),), 6,
         "6733a534f9c4f38e10c5b158a6abce78f142000eb489dac7d215e3aa1243c4e7",
         "85eda873480922c44675684fb94f9d98aae5c2529343a517cb2452b8dfe4fd57"),
        ((card_cube("clubs"),), 2,
         "9950801592b22a3b0a705e489b0ed84fd464a3d5334121741b487408fd0dc965",
         "4cf93323db386542de35ea874ffc4f4c9ac7e0d36eff82a5ef00388ca802e7e1"),
        # overlapping cubes: the oracle goes through the exclusive rewrite
        ((card_cube("hearts"), card_cube(value=1)), 1,
         "a90e0a7874424f5b00bab190a5bd41f482dc36b09d9253a491643a2a0bf65df3",
         "becc3b02f604fb676c992ed02ebb5a8da740ba41bb87702ece4b9002935e9c0f"),
    ], ids=["diamonds-10", "clubs", "hearts-or-aces"])
    def test_card_gates_pinned(self, cubes, k, sha256, qasm_sha256):
        table = predicate(6, [(cube, "1") for cube in cubes])
        circ = build_grover(GroverSpec(n=6, predicate=table, k=k))
        assert hashlib.sha256(repr(circ.gates).encode()).hexdigest() == sha256
        assert hashlib.sha256(emit_qasm(circ).encode()).hexdigest() == qasm_sha256

    def test_degenerate_predicates_rejected(self):
        with pytest.raises(NoSolutions):
            build_grover(GroverSpec(n=2, predicate=predicate(2, [("11", "0")]), k=1))

    def test_zero_iterations_is_uniform(self):
        spec = GroverSpec(n=3, predicate=predicate(3, [("111", "1")]), k=0)
        circ = build_grover(spec)
        dist = run_statevector(circ).distribution(circ.measured)
        assert all(p == pytest.approx(1 / 8, abs=1e-12) for p in dist)


class TestSuccessProbability:
    def test_zero_rounds_gives_base_rate(self):
        assert success_probability(64, 16, 0) == pytest.approx(0.25)

    def test_quarter_mass_is_exact_after_one_round(self):
        for n in (2, 4, 6):
            N = 1 << n
            assert success_probability(N, N // 4, 1) == pytest.approx(1.0)

    def test_closed_form(self):
        theta_half = math.asin(math.sqrt(3 / 16))
        want = math.sin(5 * theta_half) ** 2
        assert success_probability(16, 3, 2) == pytest.approx(want, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            success_probability(8, 0, 1)
        with pytest.raises(ValueError):
            success_probability(8, 8, 1)
        with pytest.raises(ValueError):
            success_probability(8, 1, -1)


class TestSimulationMatchesModel:
    def mass_on_solutions(self, spec):
        circ = build_grover(spec)
        dist = run_statevector(circ).distribution(circ.measured)
        return math.fsum(dist[s] for s in solutions(spec))

    def test_single_solution_rounds(self):
        table = predicate(3, [("101", "1")])
        for k in range(5):
            spec = GroverSpec(n=3, predicate=table, k=k)
            assert self.mass_on_solutions(spec) == pytest.approx(
                success_probability(8, 1, k), abs=1e-9)

    def test_overlapping_predicate_rounds(self):
        table = predicate(3, [("0--", "1"), ("-0-", "1")])
        for k in range(4):
            spec = GroverSpec(n=3, predicate=table, k=k)
            assert self.mass_on_solutions(spec) == pytest.approx(
                success_probability(8, 6, k), abs=1e-9)


class TestSweep:
    def spec(self):
        return GroverSpec(n=3, predicate=predicate(3, [("11-", "1")]), k=0,
                          shots=256)

    def test_rows_and_analytic_column(self):
        rows = iteration_sweep(self.spec(), k_max=6, seed=1)
        assert [row.k for row in rows] == list(range(7))
        for row in rows:
            assert row.p_analytic == pytest.approx(
                success_probability(8, 2, row.k), rel=1e-15)
            assert row.p_simulated == pytest.approx(row.p_analytic, abs=1e-9)
            assert 0 <= row.hits <= row.shots == 256

    def test_seeded_hits_reproducible(self):
        first = iteration_sweep(self.spec(), k_max=3, seed=5)
        second = iteration_sweep(self.spec(), k_max=3, seed=5)
        assert first == second

    def test_csv_layout(self):
        rows = iteration_sweep(self.spec(), k_max=2, seed=0)
        text = sweep_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "k,p_analytic,p_simulated,shots,hits"
        assert len(lines) == 4
        k, pa, ps, shots, hits = lines[1].split(",")
        assert float(pa) == rows[0].p_analytic
        assert float(ps) == rows[0].p_simulated
        assert (int(k), int(shots), int(hits)) == (0, 256, rows[0].hits)

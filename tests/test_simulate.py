"""Reversible and statevector execution, sampling, shot calibration."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsynth import simulate
from qsynth.circuit import Circuit, Gate, cz, h, lower_negative_controls, ry, x
from qsynth.encoding import read_pmf, synth_amplitude
from qsynth.errors import NonClassicalGate, NonConvergent, SizeLimitExceeded, TooManyQubits
from qsynth.funcprep import Pmf, normalize_pmf
from qsynth.optimize import graycode_optimize, lower_to_uniform
from qsynth.qasm import emit_qasm, parse_qasm
from qsynth.simulate import (
    MAX_STATEVECTOR_QUBITS,
    CalibrationResult,
    CountHistogram,
    calibrate_shots_report,
    run_reversible_table,
    run_statevector,
    sample,
)

from conftest import bench_path, random_circuit, unitary

SV_KINDS = ("x", "h", "z", "rx", "ry", "rz", "sx", "sxdg")


def circuit(num_qubits, *gates):
    return Circuit(num_qubits=num_qubits, gates=tuple(gates))


def replay_word(circ, word):
    """Reference replay: one word, one gate and one control at a time."""
    n = circ.num_qubits
    for g in circ.gates:
        if all((word >> (n - 1 - q) & 1) == positive for q, positive in g.controls):
            word ^= 1 << (n - 1 - g.target)
    return word


class TestRunReversible:
    def test_qubit_zero_is_high_bit(self):
        assert run_reversible_table(circuit(2, x(0)), [0]) == [0b10]

    def test_positive_control(self):
        cx = circuit(2, x(1, (0,)))
        assert run_reversible_table(cx, [0b00]) == [0b00]
        assert run_reversible_table(cx, [0b10]) == [0b11]

    def test_negative_control(self):
        gate = Gate("x", 1, ((0, False),))
        circ = circuit(2, gate)
        assert run_reversible_table(circ, [0b00]) == [0b01]
        assert run_reversible_table(circ, [0b10]) == [0b10]

    def test_gates_apply_in_order(self):
        circ = circuit(2, x(0), x(1, (0,)))
        assert run_reversible_table(circ, [0b00]) == [0b11]

    def test_non_classical_gate_rejected(self):
        with pytest.raises(NonClassicalGate):
            run_reversible_table(circuit(1, h(0)), [0])

    def test_word_out_of_range(self):
        with pytest.raises(ValueError):
            run_reversible_table(circuit(2, x(0)), [4])

    def test_table_subset(self):
        circ = circuit(2, x(1, (0,)))
        assert run_reversible_table(circ, [0b10, 0b00]) == [0b11, 0b00]

    @pytest.mark.parametrize("num_qubits", [4, 9, 70])
    def test_table_matches_word_loop(self, rng, num_qubits):
        circ = random_circuit(rng, num_qubits, 40, kinds=("x",), max_controls=4)
        words = [rng.randrange(1 << num_qubits) for _ in range(50)]
        assert run_reversible_table(circ, words) == [
            replay_word(circ, w) for w in words]

    def test_wider_than_a_machine_word(self):
        # 70 qubits; qubit q is bit 69 - q of a word
        circ = circuit(70,
                       Gate("x", 69, ((0, True), (65, False))),
                       x(1, (69,)),
                       x(64))
        words = [1 << 69, (1 << 69) | (1 << 4), 0]
        want = [(1 << 69) | (1 << 68) | (1 << 5) | 1,
                (1 << 69) | (1 << 5) | (1 << 4),
                1 << 5]
        assert run_reversible_table(circ, words) == want
        assert [run_reversible_table(circ, [w])[0] for w in words] == want
        with pytest.raises(ValueError):
            run_reversible_table(circ, [1 << 70])

    @pytest.mark.parametrize("num_qubits", [5, 70])
    def test_full_domain_past_row_cap(self, monkeypatch, num_qubits):
        monkeypatch.setenv("QSYNTH_MAX_ROWS", "16")
        with pytest.raises(SizeLimitExceeded, match="cap is 16"):
            run_reversible_table(circuit(num_qubits, x(0)))
        # listed words are not capped, and 2^4 rows fit
        assert run_reversible_table(circuit(num_qubits, x(0)), [0]) == [1 << (num_qubits - 1)]
        assert run_reversible_table(circuit(4, x(0))) == [w ^ 8 for w in range(16)]


class TestRunStatevector:
    def test_initial_basis_state(self):
        state = run_statevector(circuit(2), initial=0b10)
        assert state.amplitudes[2] == 1.0

    def test_hadamard_uniform(self):
        state = run_statevector(circuit(3, h(0), h(1), h(2)))
        np.testing.assert_allclose(state.distribution(), [1 / 8] * 8, atol=1e-12)

    def test_bell_pair(self):
        state = run_statevector(circuit(2, h(0), x(1, (0,))))
        np.testing.assert_allclose(state.distribution(), [0.5, 0, 0, 0.5],
                                   atol=1e-12)

    def test_negative_control_fires_on_zero(self):
        gate = Gate("h", 1, ((0, False),))
        state = run_statevector(circuit(2, gate), initial=0)
        np.testing.assert_allclose(state.distribution(), [0.5, 0.5, 0, 0],
                                   atol=1e-12)

    def test_matches_unitary_columns(self, rng):
        circ = random_circuit(rng, 3, 10)
        mat = unitary(circ)
        for i in range(8):
            state = run_statevector(circ, initial=i)
            np.testing.assert_allclose(state.amplitudes, mat[:, i], atol=1e-12)

    def test_width_cap(self):
        with pytest.raises(TooManyQubits):
            run_statevector(circuit(MAX_STATEVECTOR_QUBITS + 1))

    def test_initial_out_of_range(self):
        with pytest.raises(ValueError):
            run_statevector(circuit(1), initial=2)


def statevector_per_gate(circ, initial=0):
    """Reference statevector: every gate, bare X included, applied in place."""
    from qsynth.simulate import _gate_matrix

    n = circ.num_qubits
    state = np.zeros(1 << n, dtype=complex)
    state[initial] = 1.0
    state = state.reshape((2,) * n)
    for g in circ.gates:
        index = [slice(None)] * n
        for q, positive in g.controls:
            index[q] = 1 if positive else 0
        target = g.target
        if g.kind == "x":
            index[target] = slice(0, 1)
            zero = state[tuple(index)]
            index[target] = slice(1, 2)
            one = state[tuple(index)]
            swapped = zero.copy()
            zero[...] = one
            one[...] = swapped
            continue
        mat = _gate_matrix(g)
        axis = target - sum(1 for q, _ in g.controls if q < target)
        moved = np.moveaxis(state[tuple(index)], axis, 0)
        moved[...] = (mat @ moved.reshape(2, -1)).reshape(moved.shape)
    return state.reshape(-1)


def flipped_circuit(rng, n, num_gates):
    """Random gates of every kind, most of them between bare X gates.

    The X gates leave qubits flipped for stretches, so controls of either
    polarity and targets land on flipped and unflipped qubits alike.
    """
    gates = []
    for _ in range(num_gates):
        gates.extend(x(q) for q in range(n) if rng.random() < 0.4)
        kind = rng.choice(SV_KINDS)
        target = rng.randrange(n)
        pool = [q for q in range(n) if q != target]
        k = rng.randint(0, min(3, len(pool)))
        controls = tuple((q, rng.random() < 0.5) for q in sorted(rng.sample(pool, k)))
        angle = rng.uniform(-6.0, 6.0) if kind in ("rx", "ry", "rz") else None
        gates.append(Gate(kind, target, controls, angle))
    return Circuit(num_qubits=n, gates=tuple(gates))


class TestXFrame:
    def test_matches_per_gate_reference(self, rng):
        for trial in range(40):
            n = rng.randint(1, 5) if trial % 4 else 5
            circ = flipped_circuit(rng, n, 25) if n > 1 else circuit(
                1, x(0), h(0), x(0), ry(0.4, 0), x(0))
            initial = rng.randrange(1 << n)
            got = run_statevector(circ, initial=initial).amplitudes
            want = statevector_per_gate(circ, initial)
            assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_every_qubit_flipped_at_the_end(self):
        circ = circuit(3, h(0), *(x(q) for q in range(3)))
        got = run_statevector(circ, initial=0b010).amplitudes
        assert np.allclose(got, statevector_per_gate(circ, 0b010), rtol=0, atol=1e-12)


class TestDistribution:
    def test_marginal_single_qubit(self):
        state = run_statevector(circuit(2, h(0)))
        np.testing.assert_allclose(state.distribution(qubits=(0,)), [0.5, 0.5],
                                   atol=1e-12)
        np.testing.assert_allclose(state.distribution(qubits=(1,)), [1.0, 0.0],
                                   atol=1e-12)

    def test_qubit_order_transposes(self):
        # qubit 0 stays |0>, qubit 1 becomes |1>
        state = run_statevector(circuit(2, x(1)))
        np.testing.assert_allclose(state.distribution(qubits=(0, 1)), [0, 1, 0, 0],
                                   atol=1e-12)
        np.testing.assert_allclose(state.distribution(qubits=(1, 0)), [0, 0, 1, 0],
                                   atol=1e-12)

    def test_default_is_full(self):
        # the default is every qubit in ascending order: qubit 1 is the low bit
        state = run_statevector(circuit(2, h(1)))
        np.testing.assert_allclose(state.distribution(), [0.5, 0.5, 0, 0],
                                   atol=1e-12)
        np.testing.assert_allclose(state.distribution(),
                                   state.distribution(qubits=(0, 1)), atol=1e-12)


    @pytest.mark.parametrize("qubits, where", [((5,), "qubit 5"), ((0, -1), "qubit -1")],
                             ids=["past-end", "negative"])
    def test_qubit_outside_register(self, qubits, where):
        state = run_statevector(circuit(2, h(1)))
        with pytest.raises(ValueError, match=f"{where} lies outside 0..1"):
            state.distribution(qubits=qubits)

class TestCountHistogram:
    def hist(self):
        return CountHistogram(counts={"10": 6, "01": 4}, shots=10, num_bits=2)

    def test_probability(self):
        assert self.hist().probability("10") == 0.6
        assert self.hist().probability("11") == 0.0

    def test_empirical_indexing(self):
        np.testing.assert_allclose(self.hist().empirical(), [0, 0.4, 0.6, 0])

    def test_json_round_trip(self):
        payload = json.loads(self.hist().to_json())
        assert payload == {"shots": 10, "num_bits": 2,
                           "counts": {"10": 6, "01": 4}}

    def test_csv_sorted(self):
        assert self.hist().to_csv() == "bitstring,count\n01,4\n10,6\n"

    def test_seed_not_part_of_equality(self):
        a = CountHistogram(counts={"0": 1}, shots=1, num_bits=1, seed=1)
        b = CountHistogram(counts={"0": 1}, shots=1, num_bits=1, seed=2)
        assert a == b


class TestSample:
    def test_seed_reproducible(self):
        first = sample([0.25, 0.75], 500, seed=7)
        second = sample([0.25, 0.75], 500, seed=7)
        assert first == second
        assert sample([0.25, 0.75], 500, seed=8) != first

    def test_counts_sum_to_shots(self):
        hist = sample([0.1, 0.2, 0.3, 0.4], 1000, seed=0)
        assert sum(hist.counts.values()) == 1000
        assert hist.num_bits == 2
        assert all(len(bits) == 2 for bits in hist.counts)

    def test_shots_positive(self):
        with pytest.raises(ValueError):
            sample([1.0], 0)

    def test_fractional_shots_rejected(self):
        # 1.5 used to draw one shot but record 1.5, so empirical() summed to 2/3
        with pytest.raises(ValueError, match="integer"):
            sample([0.5, 0.5], 1.5)

    def test_shots_past_int64_rejected(self):
        with pytest.raises(ValueError, match="2\\^63-1"):
            sample([0.5, 0.5], 1 << 63)
        most = (1 << 63) - 1
        assert sum(sample([0.5, 0.5], most, seed=0).counts.values()) == most

    @pytest.mark.parametrize("shots, seed, what", [
        (True, None, "shots"),   # drew one shot and wrote "shots": true
        (10, True, "seed"),      # numpy read it as seed 1
        (10, 1.5, "seed"),       # numpy's raw TypeError
        (10, -1, "seed"),        # numpy's message does not name the seed
    ], ids=["bool-shots", "bool-seed", "float-seed", "negative-seed"])
    def test_bad_shots_or_seed_named(self, shots, seed, what):
        with pytest.raises(ValueError, match=f"^{what} must be"):
            sample([0.5, 0.5], shots, seed=seed)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="sums to"):
            sample([0.5, 0.4], 10)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            sample([0.5, 0.25, 0.25], 10)

    def test_pmf_and_statevector_sources(self):
        pmf = Pmf(probs=(0.5, 0.5))
        assert sample(pmf, 100, seed=3) == sample([0.5, 0.5], 100, seed=3)
        state = run_statevector(circuit(1, h(0)))
        hist = sample(state, 100, seed=3)
        assert hist.num_bits == 1

    def test_rounding_residue_draws_like_zero(self):
        # numpy draws an exact-0 bin without consuming its stream, so a
        # residue left in its place must be cleared before sampling
        exact = [0.25, 0.0, 0.25, 0.25, 0.25, 0.0, 0.0, 0.0]
        residue = [0.25, 1e-33, 0.25, 0.25, 0.25, 0.0, 0.0, 0.0]
        assert sample(residue, 1000, seed=5) == sample(exact, 1000, seed=5)

    def test_deterministic_circuit(self):
        hist = sample(circuit(2, x(0)), 50, seed=1)
        assert hist.counts == {"10": 50}

    def test_measured_qubits_select_and_order(self):
        circ = Circuit(3, (x(2),), measured=(2, 0))
        hist = sample(circ, 20, seed=0)
        # qubit 2 reads 1 and comes first, qubit 0 reads 0
        assert hist.counts == {"10": 20}
        assert hist.num_bits == 2


class TestCalibration:
    def test_recommendation_is_margin_times_first_pass(self):
        pmf = Pmf(probs=(0.25,) * 4)
        report = calibrate_shots_report(pmf, seed=0)
        assert report.shots == math.ceil(1.5 * report.calibrated_at)
        assert report.calibrated_at % 1000 == 0
        assert report.g < report.threshold
        assert 0.0 <= report.p <= 1.0

    def test_seed_pinned(self):
        pmf = Pmf(probs=(0.125,) * 8)
        assert calibrate_shots_report(pmf, seed=0) == calibrate_shots_report(pmf, seed=0)

    def test_circuit_source(self):
        circ = circuit(1, h(0))
        pmf = Pmf(probs=(0.5, 0.5))
        shots = calibrate_shots_report(pmf, circuit=circ, seed=0).shots
        assert shots % 1500 == 0
        doublings = shots // 1500
        assert doublings & (doublings - 1) == 0

    def test_non_convergent(self):
        pmf = Pmf(probs=(0.5, 0.5))
        with pytest.raises(NonConvergent):
            calibrate_shots_report(pmf, threshold=1e-15, cap=8000)

    def test_tighter_threshold_needs_more_shots(self):
        pmf = Pmf(probs=(0.25,) * 4)
        loose = calibrate_shots_report(pmf, threshold=1e-2, seed=0)
        tight = calibrate_shots_report(pmf, threshold=1e-4, seed=0)
        assert tight.calibrated_at >= loose.calibrated_at


class TestRepeatedMeasurement:
    def test_distribution_names_the_qubit(self):
        state = run_statevector(circuit(2, h(0)))
        with pytest.raises(ValueError, match="qubit 0 "):
            state.distribution(qubits=(0, 0))
        with pytest.raises(ValueError, match="qubit 1 "):
            state.distribution(qubits=(1, 0, 1))

    def test_sample_circuit_measuring_twice(self):
        # such a circuit is refused where it is built, so sample never meets one
        with pytest.raises(ValueError, match="measured qubit 0 is listed more than once"):
            Circuit(2, (h(0),), measured=(0, 0))
        with pytest.raises(ValueError, match="measured qubit 1 "):
            Circuit(2, (h(0),), measured=(1, 0, 1))


class TestCalibrationSource:
    # values of the per-doubling sampler, which re-simulated the circuit;
    # bimodal's are those of its exact PMF, as its circuit's ~1e-33 residue
    # bins no longer reach the sampler
    PINNED = {
        "bimodal": CalibrationResult(shots=6000, calibrated_at=4000,
                                     g=0.000357550675439966, p=0.9849136915432024,
                                     threshold=0.001),
        "arbitrary": CalibrationResult(shots=96000, calibrated_at=64000,
                                       g=0.00025449235604719156, p=0.987272033833175,
                                       threshold=0.001),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_one_simulation_same_result(self, name, monkeypatch):
        pmf = normalize_pmf(read_pmf(bench_path(f"{name}.pmf").read_text()),
                            mode="probability")
        circ = synth_amplitude(pmf)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return run_statevector(*args, **kwargs)

        monkeypatch.setattr(simulate, "run_statevector", counted)
        report = calibrate_shots_report(pmf, circ)
        assert len(calls) == 1
        assert report == self.PINNED[name]
        assert report == calibrate_shots_report(pmf)  # the circuit samples like its PMF


def random_state_prefix(draw, n):
    """Gates that take a basis state to a generic complex superposition."""
    angle = st.floats(-6.0, 6.0, allow_nan=False)
    gates = []
    for q in range(n):
        gates += [Gate("rx", q, (), draw(angle)), Gate("rz", q, (), draw(angle))]
    gates += [cz(q, q + 1) for q in range(n - 1)]
    gates += [Gate("ry", q, (), draw(angle)) for q in range(n)]
    return gates


@st.composite
def run_circuits(draw):
    """Runs on one target in Gray form, tree form or both, cut by other gates.

    Bare X gates on the controls and on the target fall inside runs; h, rz, a two-control X and an ry on part of the control
    set end a run or make it fall back to per-gate replay.
    """
    n = draw(st.integers(2, 5))
    angle = st.floats(-6.0, 6.0, allow_nan=False)
    polarity = st.booleans()
    gates = random_state_prefix(draw, n)
    for _ in range(draw(st.integers(1, 5))):
        target = draw(st.integers(0, n - 1))
        others = [q for q in range(n) if q != target]
        controls = draw(st.lists(st.sampled_from(others), min_size=1, unique=True))
        form = draw(st.sampled_from(("gray", "tree", "mixed")))
        steps = {"gray": ("ry", "cx"), "tree": ("cry",), "mixed": ("ry", "cx", "cry")}[form]
        steps += ("x-control", "x-target")
        for _ in range(draw(st.integers(1, 12))):
            step = draw(st.sampled_from(steps))
            if step == "ry":
                gates.append(Gate("ry", target, (), draw(angle)))
            elif step == "cx":
                gates.append(Gate("x", target,
                                  ((draw(st.sampled_from(controls)), draw(polarity)),)))
            elif step == "cry":
                gates.append(Gate("ry", target,
                                  tuple((q, draw(polarity)) for q in controls), draw(angle)))
            elif step == "x-control":
                gates.append(x(draw(st.sampled_from(controls))))
            else:
                gates.append(x(target))
        cut = draw(st.sampled_from(("none", "h", "rz", "ccx", "partial")))
        if cut == "h":
            gates.append(h(draw(st.sampled_from(range(n)))))
        elif cut == "rz":
            gates.append(Gate("rz", target, (), draw(angle)))
        elif cut == "ccx" and n > 2:
            pair = draw(st.lists(st.sampled_from(others), min_size=2, max_size=2, unique=True))
            gates.append(Gate("x", target, tuple((q, draw(polarity)) for q in pair)))
        elif cut == "partial" and len(others) > 1:
            part = draw(st.lists(st.sampled_from(others), min_size=1,
                                 max_size=len(others) - 1, unique=True))
            gates.append(Gate("ry", target, tuple((q, draw(polarity)) for q in part),
                              draw(angle)))
    initial = draw(st.integers(0, (1 << n) - 1))
    return Circuit(num_qubits=n, gates=tuple(gates)), initial


class TestRunFusion:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(run_circuits())
    def test_matches_per_gate_reference(self, case):
        circ, initial = case
        got = run_statevector(circ, initial=initial).amplitudes
        want = statevector_per_gate(circ, initial)
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", ["dense", "sparse", "smooth"])
    def test_seeded_pmfs(self, shape):
        rng = np.random.default_rng(20240811)
        for k in (8, 10, 12):
            size = 1 << k
            if shape == "dense":
                heights = 1.0 - rng.random(size)
            elif shape == "sparse":  # zero-mass bins, so zero-angle subtrees
                heights = rng.random(size) * (rng.random(size) < 0.3)
            else:
                heights = 1e-3 + np.exp(-0.5 * ((np.arange(size) - size / 2) / (size / 8)) ** 2)
            pmf = normalize_pmf(list(heights), mode="probability")
            plain = synth_amplitude(pmf)
            gray = graycode_optimize(plain)
            for circ, gateset in ((plain, "natural"), (gray, "natural"),
                                  (lower_to_uniform(gray), "uniform")):
                parsed = parse_qasm(emit_qasm(lower_negative_controls(circ), gateset=gateset))
                got = run_statevector(parsed).amplitudes
                assert np.allclose(got, statevector_per_gate(parsed), rtol=0, atol=1e-12)
                assert np.allclose(np.abs(got) ** 2, pmf.probs, rtol=0, atol=1e-12)

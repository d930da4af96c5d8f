"""Unitary-preserving circuit passes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsynth.circuit import GATE_KINDS, ROTATION_KINDS, Circuit, Gate, cz, h, metrics, ry, rz, x
from qsynth.encoding import synth_amplitude
from qsynth.errors import NoSymmetry, NotNormalized
from qsynth.funcprep import Pmf
from qsynth.qasm import emit_qasm, parse_qasm
from qsynth.optimize import (
    PASSES,
    apply_passes,
    graycode_optimize,
    lower_to_uniform,
    mcx_ladder,
    remove_double_x,
    symmetric_optimize,
    toffoli_five,
)
from qsynth.simulate import run_statevector

from conftest import project_unitary, random_circuit, same_up_to_phase, unitary


def circuit(num_qubits, *gates):
    return Circuit(num_qubits=num_qubits, gates=tuple(gates))


class TestRemoveDoubleX:
    def test_adjacent_pair_cancels(self):
        circ = circuit(1, x(0), x(0))
        assert remove_double_x(circ).gates == ()

    def test_odd_count_leaves_one(self):
        circ = circuit(1, x(0), x(0), x(0))
        assert remove_double_x(circ).gates == (x(0),)

    def test_blocked_by_gate_on_same_qubit(self):
        circ = circuit(2, x(0), x(1, (0,)), x(0))
        assert len(remove_double_x(circ).gates) == 3

    def test_cancels_across_unrelated_gates(self):
        circ = circuit(2, x(0), h(1), x(0))
        assert remove_double_x(circ).gates == (h(1),)

    def test_controlled_x_not_removed(self):
        circ = circuit(2, x(1, (0,)), x(1, (0,)))
        assert len(remove_double_x(circ).gates) == 2

    def test_fixpoint_nesting(self):
        # inner pair removal exposes the outer pair
        circ = circuit(2, x(0), x(1), x(1), x(0))
        assert remove_double_x(circ).gates == ()

    def test_unitary_preserved(self, rng):
        for _ in range(10):
            circ = random_circuit(rng, 3, 12, kinds=("x", "h", "rz"))
            slim = remove_double_x(circ)
            assert np.allclose(unitary(slim), unitary(circ), atol=1e-12)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(picks=st.lists(st.tuples(st.sampled_from(("x", "x", "cx", "h")),
                                    st.integers(0, 2), st.integers(1, 2)),
                          max_size=16))
    def test_one_pass_is_the_fixpoint(self, picks):
        gates = []
        for kind, q, shift in picks:
            if kind == "cx":
                gates.append(x(q, ((q + shift) % 3,)))
            else:
                gates.append(x(q) if kind == "x" else h(q))
        once = remove_double_x(circuit(3, *gates))
        assert remove_double_x(once).gates == once.gates


class TestMcxLadder:
    def test_three_controls_become_toffolis(self):
        circ = circuit(4, x(3, (0, 1, 2)))
        low = mcx_ladder(circ)
        assert low.num_qubits == 6
        assert len(low.gates) == 5
        assert all(len(g.controls) <= 2 for g in low.gates)

    def test_action_preserved_with_clean_ancillas(self):
        circ = circuit(4, x(3, (0, 1, 2)), x(0))
        low = mcx_ladder(circ)
        assert np.allclose(project_unitary(low, 4), unitary(circ), atol=1e-12)

    def test_negative_polarities_ride_along(self):
        gate = Gate("x", 3, ((0, False), (1, True), (2, False)))
        circ = circuit(4, gate)
        low = mcx_ladder(circ)
        assert np.allclose(project_unitary(low, 4), unitary(circ), atol=1e-12)

    def test_shared_ancillas(self):
        circ = circuit(5, x(4, (0, 1, 2, 3)), x(4, (0, 1, 2)))
        low = mcx_ladder(circ)
        assert low.num_qubits == 5 + 3

    def test_small_gates_untouched(self):
        circ = circuit(3, x(2, (0, 1)), x(1, (0,)), h(2))
        low = mcx_ladder(circ)
        assert low.gates == circ.gates
        assert low.num_qubits == 3

    def test_labels_extended(self):
        base = Circuit(num_qubits=4, gates=(x(3, (0, 1, 2)),),
                       labels=("a", "b", "c", "d"))
        low = mcx_ladder(base)
        assert low.labels == ("a", "b", "c", "d", "anc0", "anc1")


def test_chains_share_toffoli_steps():
    # both gates open their chain with the (0, 1, ancilla 7) step
    circ = circuit(7, x(5, (0, 1, 2)), x(6, (0, 1, 3)))
    ladder = mcx_ladder(circ)
    assert ladder.gates[0] == x(7, (0, 1))
    assert ladder.gates[0] is ladder.gates[4] is ladder.gates[5] is ladder.gates[9]
    assert ladder.gates[1] != ladder.gates[6]
    # 7 gates per relative-phase chain step, 29 per three-control X
    low = lower_to_uniform(circ).gates
    assert all(a is b for a, b in zip(low[:7], low[29:36], strict=True))
    assert all(a is b for a, b in zip(low[:7], low[-7:], strict=True))


class TestFiveGate:
    def test_positive_toffoli_shape(self):
        circ = circuit(3, x(2, (0, 1)))
        low = toffoli_five(circ)
        assert [g.kind for g in low.gates] == ["sx", "x", "sxdg", "x", "sx"]
        assert all(len(g.controls) == 1 for g in low.gates)

    def test_exact_unitary(self):
        circ = circuit(3, x(2, (0, 1)))
        low = toffoli_five(circ)
        assert np.allclose(unitary(low), unitary(circ), atol=1e-12)

    def test_negative_controls_conjugated(self):
        gate = Gate("x", 2, ((0, False), (1, True)))
        circ = circuit(3, gate)
        low = toffoli_five(circ)
        assert all(len(g.controls) <= 1 for g in low.gates)
        assert np.allclose(unitary(low), unitary(circ), atol=1e-12)

    def test_other_gates_pass_through(self):
        circ = circuit(3, h(0), x(1, (0,)))
        low = toffoli_five(circ)
        assert low.gates == circ.gates


@pytest.mark.parametrize("decompose, gate", [
    (mcx_ladder, x(4, (0, 1, 2, 3))),
    (toffoli_five, Gate("x", 2, ((0, False), (1, True)))),
], ids=["mcx_ladder", "toffoli_five"])
def test_pass_repeats_one_expansion(decompose, gate):
    circ = circuit(5, gate, h(4), gate)
    low = decompose(circ)
    # a negative control's frame X opens before the first expansion and
    # closes after the second; h(4) leaves the frame on qubit 0 alone
    frame = sum(1 for _, pos in gate.controls if not pos)
    body = low.gates[frame:len(low.gates) - frame]
    half = len(body) // 2
    assert body[half] is circ.gates[1]
    assert all(a is b for a, b in zip(body[:half], body[half + 1:], strict=True))
    assert all(a is b for a, b in zip(low.gates[:frame], low.gates[:-frame - 1:-1]))


def uc_run(kind, target, controls, angles):
    """One rotation per control pattern, all patterns covered."""
    assert len(angles) == 1 << len(controls)
    gates = []
    for pattern, angle in enumerate(angles):
        ctl = tuple((q, bool((pattern >> j) & 1)) for j, q in enumerate(controls))
        gates.append(Gate(kind, target, ctl, angle))
    return gates


class TestGraycode:
    @pytest.mark.parametrize("kind", ["ry", "rz", "rx"])
    def test_run_flattened_exactly(self, kind, rng):
        angles = [rng.uniform(-2, 2) for _ in range(4)]
        circ = circuit(3, *uc_run(kind, 2, (0, 1), angles))
        flat = graycode_optimize(circ)
        assert all(len(g.controls) <= 1 for g in flat.gates)
        for gate in flat.gates:
            if gate.kind == kind:
                assert gate.controls == ()
        assert np.allclose(unitary(flat), unitary(circ), atol=1e-9)

    def test_entangler_choice(self):
        circ_rz = circuit(2, *uc_run("rz", 1, (0,), [0.3, 0.7]))
        kinds = {g.kind for g in graycode_optimize(circ_rz).gates}
        assert kinds == {"rz", "x"}
        circ_rx = circuit(2, *uc_run("rx", 1, (0,), [0.3, 0.7]))
        kinds = {g.kind for g in graycode_optimize(circ_rx).gates}
        assert kinds == {"rx", "z"}

    def test_incomplete_run_padded(self):
        circ = circuit(2, ry(0.8, 1, ((0, True),)))
        flat = graycode_optimize(circ)
        assert all(len(g.controls) <= 1 for g in flat.gates)
        assert np.allclose(unitary(flat), unitary(circ), atol=1e-9)

    def test_equal_angles_collapse(self):
        # equal angles over all patterns mean one plain rotation survives
        circ = circuit(3, *uc_run("ry", 2, (0, 1), [0.5, 0.5, 0.5, 0.5]))
        flat = graycode_optimize(circ)
        rotations = [g for g in flat.gates if g.kind == "ry"]
        assert len(rotations) == 1
        assert rotations[0].angle == pytest.approx(0.5)

    def test_non_rotations_break_runs(self):
        gates = uc_run("ry", 1, (0,), [0.3, 0.9])
        circ = circuit(2, gates[0], h(0), gates[1])
        flat = graycode_optimize(circ)
        assert np.allclose(unitary(flat), unitary(circ), atol=1e-9)

    def test_uncontrolled_rotations_pass_through(self):
        circ = circuit(1, ry(0.4, 0), rz(0.2, 0))
        assert graycode_optimize(circ).gates == circ.gates

    def test_amplitude_levels_flatten(self, rng):
        raw = [rng.random() for _ in range(8)]
        total = math.fsum(raw)
        circ = synth_amplitude(Pmf(probs=tuple(v / total for v in raw)))
        flat = graycode_optimize(circ)
        assert all(len(g.controls) <= 1 for g in flat.gates)
        state = run_statevector(flat)
        np.testing.assert_allclose(state.distribution(),
                                   [v / total for v in raw], atol=1e-9)


def reference_graycode(circ):
    """The O(4^k) math.fsum sign-system solve, kept as the exact reference."""

    def gray(i):
        return i ^ (i >> 1)

    def rewrite(run):
        kind = run[0].kind
        target = run[0].target
        controls = sorted(q for q, _ in run[0].controls)
        size = 1 << len(controls)
        thetas = [0.0] * size
        for gate in run:
            pattern = 0
            for j, q in enumerate(controls):
                if dict(gate.controls)[q]:
                    pattern |= 1 << j
            thetas[pattern] += gate.angle
        out = []
        for i in range(size):
            g = gray(i)
            alpha = math.fsum(
                (-1 if (b & g).bit_count() & 1 else 1) * thetas[b]
                for b in range(size)) / size
            if alpha != 0.0:
                out.append(Gate(kind, target, (), alpha))
            q = controls[(g ^ gray((i + 1) % size)).bit_length() - 1]
            out.append(cz(q, target) if kind == "rx" else x(target, (q,)))
        cancelled = []
        for gate in out:
            if cancelled and cancelled[-1] == gate and gate.kind in ("z", "x"):
                cancelled.pop()
            else:
                cancelled.append(gate)
        return cancelled

    out, run = [], []
    for gate in circ.gates + (h(0),):
        if run and not (
            gate.kind == run[0].kind and gate.target == run[0].target
            and sorted(q for q, _ in gate.controls)
            == sorted(q for q, _ in run[0].controls)
        ):
            out.extend(rewrite(run) if run[0].controls else run)
            run = []
        if gate.kind in ROTATION_KINDS:
            run.append(gate)
        else:
            out.append(gate)
    return tuple(out[:-1])


# signed, zero, subnormal, tiny normal (whose 2^-k share is subnormal) and
# ~1e3 angles
ANGLES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e3, -1e3]),
    st.floats(-1e3, 1e3, allow_nan=False),
    st.integers(-64, 64).map(lambda m: m * 5e-324),
    st.floats(-1.0, 1.0).map(lambda v: v * 2.0 ** -1017),
)
RUN_QUBITS = 7


@st.composite
def rotation_runs(draw):
    """Uniformly controlled rotation runs over 0-6 controls, one after another.

    Patterns may repeat or be missing, so runs are often incomplete.
    """
    gates = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(sorted(ROTATION_KINDS)))
        target = draw(st.integers(0, RUN_QUBITS - 1))
        others = [q for q in range(RUN_QUBITS) if q != target]
        controls = draw(st.lists(st.sampled_from(others), unique=True, max_size=6))
        k = len(controls)
        patterns = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1,
                                 max_size=min(80, 2 << k)))
        for pattern in patterns:
            ctl = tuple((q, bool(pattern >> j & 1)) for j, q in enumerate(controls))
            gates.append(Gate(kind, target, ctl, draw(ANGLES)))
    return Circuit(num_qubits=RUN_QUBITS, gates=tuple(gates))


class TestGraycodeReference:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(circ=rotation_runs())
    def test_matches_fsum_reference_exactly(self, circ):
        got = graycode_optimize(circ).gates
        want = reference_graycode(circ)
        assert got == want
        assert [g.angle for g in got] == [g.angle for g in want]

    def test_complete_patterns_of_every_width(self, rng):
        for k in range(7):
            angles = [rng.uniform(-4, 4) for _ in range(1 << k)]
            circ = circuit(k + 1, *uc_run("ry", k, tuple(range(k)), angles))
            assert graycode_optimize(circ).gates == reference_graycode(circ)


class TestSymmetric:
    def test_duplicate_halves(self):
        probs = (0.1, 0.15, 0.2, 0.05) * 2
        circ = symmetric_optimize(Pmf(probs=probs), "duplicate")
        state = run_statevector(circ)
        np.testing.assert_allclose(state.distribution(), probs, atol=1e-12)

    def test_mirror_halves(self):
        half = (0.05, 0.1, 0.15, 0.2)
        probs = half + tuple(reversed(half))
        circ = symmetric_optimize(Pmf(probs=probs), "mirror")
        state = run_statevector(circ)
        np.testing.assert_allclose(state.distribution(), probs, atol=1e-12)

    def test_missing_symmetry(self):
        with pytest.raises(NoSymmetry):
            symmetric_optimize(Pmf(probs=(0.4, 0.3, 0.2, 0.1)), "duplicate")

    def test_negative_bin_rejected(self):
        # duplicate halves whose shared half, doubled, is (1.5, -0.5)
        with pytest.raises(NotNormalized, match="bin 1 is negative"):
            symmetric_optimize(Pmf(probs=(0.75, -0.25) * 2), "duplicate")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown symmetry"):
            symmetric_optimize(Pmf(probs=(0.5, 0.5)), "fold")

    def test_saves_parameterized_gates(self):
        half = (0.02, 0.04, 0.06, 0.08, 0.1, 0.07, 0.03, 0.1)
        probs = half + half
        full = metrics(synth_amplitude(Pmf(probs=probs)))
        slim = metrics(symmetric_optimize(Pmf(probs=probs), "duplicate"))
        assert slim.parameterized_gate_count < full.parameterized_gate_count
        state = run_statevector(symmetric_optimize(Pmf(probs=probs), "duplicate"))
        np.testing.assert_allclose(state.distribution(), probs, atol=1e-12)

    def test_two_bins(self):
        circ = symmetric_optimize(Pmf(probs=(0.5, 0.5)), "duplicate")
        state = run_statevector(circ)
        np.testing.assert_allclose(state.distribution(), (0.5, 0.5), atol=1e-12)


RUN_KINDS = ("x", "rx", "ry", "rz", "z", "h")


@st.composite
def shared_control_runs(draw):
    """3-6 qubits; runs of 1-4 gates sharing 2-4 mixed-polarity controls.

    Each gate of a run has its own target and kind.  Zero to two
    separator gates, with at most one control, sit between runs, and a
    run may reuse the previous run's control qubits with new polarities.
    """
    def gate(target, controls):
        # X half the time, as in ESOP cubes, so that X runs of one control
        # qubit set but new polarities often meet
        kind = draw(st.one_of(st.just("x"), st.sampled_from(RUN_KINDS)))
        angle = draw(st.floats(-math.pi, math.pi)) if kind in ROTATION_KINDS else None
        return Gate(kind, target, controls, angle)

    n = draw(st.integers(3, 6))
    gates = []
    qubits = ()
    for _ in range(draw(st.integers(1, 3))):
        if not qubits or draw(st.booleans()):
            k = draw(st.integers(2, min(4, n - 1)))
            qubits = sorted(draw(st.permutations(range(n)))[:k])
        controls = tuple((q, draw(st.booleans())) for q in qubits)
        free = [q for q in range(n) if q not in qubits]
        for _ in range(draw(st.integers(1, 4))):
            gates.append(gate(draw(st.sampled_from(free)), controls))
        for _ in range(draw(st.integers(0, 2))):
            target, control = draw(st.permutations(range(n)))[:2]
            polarity = draw(st.booleans())
            gates.append(gate(target, ((control, polarity),) if draw(st.booleans()) else ()))
    return Circuit(num_qubits=n, gates=tuple(gates))


class TestLowerToUniform:
    ALLOWED = {"rx", "ry", "rz", "x", "h"}

    def check(self, circ):
        low = lower_to_uniform(circ)
        for gate in low.gates:
            assert gate.kind in self.ALLOWED
            assert len(gate.controls) <= 1
            assert all(pol for _, pol in gate.controls)
            if len(gate.controls) == 1:
                assert gate.kind == "x"
        want = unitary(circ)
        if low.num_qubits == circ.num_qubits:
            got = unitary(low)
        else:
            got = project_unitary(low, circ.num_qubits)
        assert same_up_to_phase(got, want, tol=1e-9)

    def test_toffoli(self):
        self.check(circuit(3, x(2, (0, 1))))

    def test_toffoli_needs_no_ancilla(self):
        assert lower_to_uniform(circuit(3, x(2, (0, 1)))).num_qubits == 3
        # a two-control rotation still goes through one chain ancilla
        assert lower_to_uniform(circuit(3, ry(0.9, 2, (0, 1)))).num_qubits == 4

    def test_many_controls(self):
        self.check(circuit(4, x(3, (0, 1, 2))))

    def test_toffolis_sharing_controls(self):
        # one control pair, three targets (the last an ancilla of the chain)
        self.check(circuit(5, x(2, (0, 1)), x(3, (0, 1)), x(4, (0, 1, 2)),
                           x(2, (0, 1))))

    def test_negative_controls(self):
        self.check(circuit(3, Gate("x", 2, ((0, False), (1, False)))))

    def test_controlled_rotations(self):
        self.check(circuit(2, ry(0.7, 1, ((0, True),)),
                           rz(0.3, 0, ((1, True),))))

    def test_controlled_h_and_z(self):
        self.check(circuit(2, Gate("h", 1, ((0, True),)),
                           Gate("z", 1, ((0, True),))))

    @pytest.mark.parametrize("kind, k", [(kind, k) for kind in sorted(GATE_KINDS) for k in (0, 1)]
                             + [("x", 2)])
    def test_each_kind_lowers_to_its_own_unitary(self, kind, k):
        # one gate at a time, so a wrong body cannot hide behind its neighbours
        gate = Gate(kind, 0, tuple((q, True) for q in range(1, k + 1)),
                    0.7 if kind in ROTATION_KINDS else None)
        circ = Circuit(k + 1, (gate,))
        self.check(circ)
        low = lower_to_uniform(circ)
        assert low.num_qubits == k + 1
        if kind in self.ALLOWED and k <= (kind == "x"):  # already in the set: the same object
            assert len(low.gates) == 1 and low.gates[0] is gate

    def test_exotic_bare_gates(self):
        self.check(circuit(1, Gate("z", 0), Gate("sx", 0),
                           Gate("sxdg", 0)))

    def test_multicontrolled_rotation(self):
        self.check(circuit(3, ry(0.9, 2, ((0, True), (1, True)))))

    def test_random_circuits(self, rng):
        for _ in range(10):
            self.check(random_circuit(rng, 3, 8))

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=st.data())
    def test_repeated_gates_property(self, data):
        circ = data.draw(circuits_with_repeats())
        self.check(circ)
        for gateset, c in (("natural", circ), ("uniform", lower_to_uniform(circ))):
            text = emit_qasm(c, gateset=gateset)
            assert emit_qasm(parse_qasm(text), gateset=gateset) == text

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(circ=shared_control_runs())
    def test_runs_of_shared_controls_property(self, circ):
        self.check(circ)
        ladder = mcx_ladder(circ)
        assert same_up_to_phase(project_unitary(ladder, circ.num_qubits), unitary(circ))


QUBITS = 5
KINDS = ("x", "h", "z", "rx", "ry", "rz", "sx", "sxdg")


@st.composite
def gates(draw):
    kind = draw(st.sampled_from(KINDS))
    target = draw(st.integers(0, QUBITS - 1))
    others = [q for q in range(QUBITS) if q != target]
    qubits = draw(st.lists(st.sampled_from(others), unique=True, max_size=4))
    # sorted, as the synthesizers emit them, so that Toffoli chains of
    # different gates share control pairs
    controls = tuple((q, draw(st.booleans())) for q in sorted(qubits))
    angle = None
    if kind in ("rx", "ry", "rz"):
        angle = draw(st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False))
    return Gate(kind, target, controls, angle)


@st.composite
def circuits_with_repeats(draw):
    """Circuits whose gate tuples repeat some Gate objects."""
    pool = draw(st.lists(gates(), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=6))
    return Circuit(num_qubits=QUBITS, gates=tuple(pool[i] for i in picks))


class TestApplyPasses:
    def test_pass_names(self):
        assert set(PASSES) == {"double-x", "mcx-ladder", "toffoli-5", "graycode"}
        assert (PASSES["mcx-ladder"], PASSES["toffoli-5"]) == (mcx_ladder, toffoli_five)

    def test_unknown_pass(self):
        with pytest.raises(ValueError, match="unknown pass"):
            apply_passes(circuit(1, x(0)), ["squash"])

    def test_passes_run_in_order(self):
        circ = circuit(3, x(0), x(0), x(2, (0, 1)))
        out = apply_passes(circ, ["double-x", "toffoli-5"])
        assert [g.kind for g in out.gates] == ["sx", "x", "sxdg", "x", "sx"]

    def test_empty_list_is_identity(self):
        circ = circuit(1, x(0))
        assert apply_passes(circ, []) is circ

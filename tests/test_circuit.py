"""Gate and circuit containers, metrics, negative-control lowering."""

import math
import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsynth.circuit import (
    GATE_KINDS,
    ROTATION_KINDS,
    Circuit,
    Gate,
    Metrics,
    cz,
    h,
    lower_negative_controls,
    metrics,
    rx,
    ry,
    x,
)
from qsynth.qasm import parse_qasm

from conftest import random_circuit, unitary


def test_gate_validation():
    # a Gate is a plain record: the circuit it joins rejects it
    for gate in (
        Gate("warp", 0),
        Gate("x", ()),                 # the target is one int, not a tuple
        Gate("x", 0, ((0, True),)),    # control overlaps target
        Gate("x", 0, ((1, True), (1, False))),
        Gate("x", 0, ((1, True), (1, True))),   # the same control twice
        Gate("x", 1, ((-1, True),)),   # a control below qubit 0
        Gate("x", 1, ((2, True),)),    # a control past the last qubit
        Gate("rx", 0),                 # missing angle
        Gate("x", 0, angle=1.0),       # angle on a fixed gate
        Gate("measure", 0),            # a measurement is not a gate
        Gate("h", (0, 1)),
    ):
        with pytest.raises(ValueError):
            Circuit(2, (gate,))


def test_helpers_build_expected_gates():
    g = x(2, ((0, True), (1, False)))
    assert g.kind == "x"
    assert g.target == 2
    assert g.controls == ((0, True), (1, False))
    assert rx(0.5, 1).angle == 0.5


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(num_qubits=0)
    with pytest.raises(ValueError):
        Circuit(num_qubits=1, gates=(x(1),))
    with pytest.raises(ValueError):
        Circuit(num_qubits=2, gates=(), labels=("a",))


@pytest.mark.parametrize("field, value, message", [
    ("num_qubits", 2.0, "the qubit count must be an int"),
    ("num_qubits", True, "the qubit count must be an int"),
    ("gates", [h(0)], "gates, labels and measured must be tuples"),
    ("labels", ["a", "b"], "gates, labels and measured must be tuples"),
    ("measured", [0], "gates, labels and measured must be tuples"),
    ("measured", (True,), "each measured qubit must be an int"),
    ("measured", (1.0,), "each measured qubit must be an int"),
    ("labels", ("a", ""), "each label must be a non-empty str with no whitespace"),
    ("labels", ("a", "b c"), "each label must be a non-empty str with no whitespace"),
    ("labels", ("a", "b\nx q[1];"), "each label must be a non-empty str with no whitespace"),
    ("labels", ("a", 1), "each label must be a non-empty str with no whitespace"),
], ids=["float-count", "bool-count", "list-gates", "list-labels", "list-measured",
        "bool-measured", "float-measured", "empty-label", "spaced-label", "newline-label",
        "int-label"])
def test_fields_its_qasm_cannot_carry_are_rejected(field, value, message):
    # each used to build; its QASM then failed to emit or to parse, or read
    # back as another circuit (the newline label as an extra x gate)
    fields = {"num_qubits": 2, "gates": (h(0),), "labels": (), "measured": (), field: value}
    with pytest.raises(ValueError, match=re.escape(message)):
        Circuit(**fields)


def test_measured_qubits_in_order():
    circ = Circuit(num_qubits=3, gates=(h(1),), measured=(2, 0, 1))
    assert circ.measured == (2, 0, 1)
    # measured counts for equality, labels do not
    assert circ != Circuit(3, (h(1),), measured=(2, 1, 0))
    assert Circuit(3, (h(1),), ("a", "b", "c"), (0, 2)) == Circuit(3, (h(1),), (), (0, 2))
    for bad in ((3,), (0, -1), (1, 1)):
        with pytest.raises(ValueError, match="measured qubit"):
            Circuit(3, (h(1),), measured=bad)


def test_metrics_counts():
    circ = Circuit(num_qubits=3, gates=(
        x(0), x(2, ((0, True), (1, True))), rx(0.3, 1)), measured=(0,))
    m = metrics(circ)
    assert m.qubits == 3
    # a measurement is not a gate: costs 1 + 3 + 1
    assert m.gate_count == 3
    assert m.complexity == 5
    assert m.parameterized_gate_count == 1
    assert asdict(m)["complexity"] == 5


def test_complexity_sums_controls_plus_targets():
    circ = Circuit(num_qubits=4, gates=(
        x(3, ((0, True), (1, False), (2, True))),))
    assert metrics(circ).complexity == 4


def test_depth_parallel_gates_share_a_layer():
    circ = Circuit(num_qubits=4, gates=(x(0), x(1), x(2), x(3)))
    assert metrics(circ).depth == 1


def test_depth_chains_on_shared_qubits():
    circ = Circuit(num_qubits=3, gates=(
        x(0), x(1, ((0, True),)), x(2, ((1, True),)), x(2)))
    assert metrics(circ).depth == 4


def test_depth_empty():
    assert metrics(Circuit(num_qubits=2)).depth == 0


def test_cz_needs_a_control():
    assert cz(0, 1) == Gate("z", 1, ((0, True),))
    with pytest.raises(ValueError, match="unknown gate kind 'cz'"):
        Circuit(2, (Gate("cz", 1, ((0, True),)),))


def test_lower_negative_controls_removes_them(rng):
    for _ in range(10):
        circ = random_circuit(rng, 4, 12)
        low = lower_negative_controls(circ)
        assert all(pos for g in low.gates for _, pos in g.controls)


def test_lower_negative_controls_preserves_unitary(rng):
    for _ in range(10):
        circ = random_circuit(rng, 3, 10)
        low = lower_negative_controls(circ)
        assert np.allclose(unitary(circ), unitary(low), atol=1e-12)


def test_lower_negative_controls_positive_only_is_identity():
    circ = Circuit(num_qubits=2, gates=(x(1, ((0, True),)), h(0)))
    assert lower_negative_controls(circ) is circ


def conjugated_reference(circuit: Circuit) -> Circuit:
    """Per-gate lowering: each negative control between its own X pair."""
    out = []
    for g in circuit.gates:
        xs = [x(q) for q, pos in g.controls if not pos]
        out += [*xs, replace(g, controls=tuple((q, True) for q, _ in g.controls)), *reversed(xs)]
    return Circuit(circuit.num_qubits, tuple(out))


@st.composite
def polarity_circuits(draw):
    """Random <= 5-qubit circuits of every kind with mixed polarities.

    Beside gates of random kind, some steps aim an X, bare or with
    controls, at a qubit an earlier gate used as a negative control, so
    it lands on a set frame bit.
    """
    n = draw(st.integers(1, 5))
    polarity = st.booleans()
    negatives: list[int] = []
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        step = draw(st.sampled_from(("gate", "gate", "frame-x")))
        if step == "frame-x" and negatives:
            target = draw(st.sampled_from(negatives))
            kind = "x"
        else:
            target = draw(st.integers(0, n - 1))
            kind = draw(st.sampled_from(sorted(GATE_KINDS)))
        others = [q for q in range(n) if q != target]
        chosen = draw(st.lists(st.sampled_from(others), max_size=min(3, len(others)),
                               unique=True)) if others else []
        controls = tuple((q, draw(polarity)) for q in chosen)
        negatives += [q for q, pos in controls if not pos]
        angle = draw(st.floats(-6.0, 6.0)) if kind in ROTATION_KINDS else None
        gates.append(Gate(kind, target, controls, angle))
    return Circuit(n, tuple(gates))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(polarity_circuits())
def test_lower_negative_controls_frame_matches_conjugation(circ):
    low = lower_negative_controls(circ)
    reference = conjugated_reference(circ)
    assert np.allclose(unitary(low), unitary(reference), rtol=0, atol=1e-12)
    assert all(pos for g in low.gates for _, pos in g.controls)
    assert len(low.gates) <= len(reference.gates)
    assert lower_negative_controls(low) is low


def test_lower_negative_controls_frame_spans_x_targets():
    # one X pair on qubit 0 serves both gates, across a CX that targets 0
    neg = x(2, ((0, False),))
    circ = Circuit(3, (neg, x(0, ((1, True),)), neg))
    low = lower_negative_controls(circ)
    assert [g.kind for g in low.gates] == ["x"] * 5
    assert low.gates[0] is low.gates[4]
    assert low.gates[1] is low.gates[3]
    assert low.gates[0].target == 0 and not low.gates[0].controls


def test_lower_negative_controls_flushes_before_other_targets():
    neg = x(1, ((0, False),))
    low = lower_negative_controls(Circuit(2, (neg, h(0), neg)))
    assert [(g.kind, g.target) for g in low.gates] == [
        ("x", 0), ("x", 1), ("x", 0), ("h", 0),
        ("x", 0), ("x", 1), ("x", 0)]


def reference_metrics(circuit: Circuit) -> Metrics:
    """The separate complexity, depth and parameterized-count loops."""
    level = [0] * circuit.num_qubits
    for qs in (g.qubits for g in circuit.gates):
        if len(qs) == 1:
            level[qs[0]] += 1
        elif len(qs) == 2:
            a, b = qs
            level[a] = level[b] = max(level[a], level[b]) + 1
        else:
            d = 1 + max(map(level.__getitem__, qs))
            for q in qs:
                level[q] = d
    return Metrics(
        qubits=circuit.num_qubits,
        gate_count=len(circuit.gates),
        complexity=sum(len(g.controls) + 1 for g in circuit.gates),
        depth=max(level),
        parameterized_gate_count=sum(1 for g in circuit.gates if g.angle is not None),
    )


@st.composite
def circuits_repeating_gates(draw):
    """``polarity_circuits`` gates, each drawn any number of times."""
    pool = draw(polarity_circuits())
    picks = draw(st.lists(st.integers(0, len(pool.gates) - 1), max_size=16)) if pool.gates else []
    return Circuit(pool.num_qubits, tuple(pool.gates[i] for i in picks))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(circuits_repeating_gates())
def test_metrics_matches_per_gate_reference(circ):
    assert metrics(circ) == reference_metrics(circ)


def reference_gate_check(g: Gate, n: int) -> None:
    """The checks before they moved into ``Circuit``: the former
    ``Gate.__post_init__``, then the circuit's qubit-range loop."""
    if g.kind not in GATE_KINDS:
        raise ValueError(f"unknown gate kind {g.kind!r}")
    if type(g.target) is not int:
        raise ValueError("the target must be an int")
    if not all(isinstance(c, tuple) and len(c) == 2 for c in g.controls):
        raise ValueError("each control must be a (qubit, polarity) pair")
    if any(type(positive) is not bool for _, positive in g.controls):
        raise ValueError("each polarity must be a bool")
    control_qubits = [q for q, _ in g.controls]
    if any(type(q) is not int for q in control_qubits):
        raise ValueError("each control qubit must be an int")
    if len(set(control_qubits)) != len(control_qubits):
        raise ValueError("repeated control qubit")
    if g.target in control_qubits:
        raise ValueError("control and target qubits overlap")
    if g.kind in ROTATION_KINDS:
        if type(g.angle) is not float or not math.isfinite(g.angle):
            raise ValueError(f"{g.kind} needs a finite float angle")
    elif g.angle is not None:
        raise ValueError(f"{g.kind} does not take an angle")
    for q in g.qubits:
        if not 0 <= q < n:
            raise ValueError(f"gate touches qubit {q} outside 0..{n - 1}")


@st.composite
def any_gates(draw):
    """(gate, n): any kind or an unknown one, a target, 0-3 controls,
    qubits in -1..n, and an angle or none, valid or not.

    Most targets are an int; the rest are a 1-tuple (the old tuple form),
    None or a bool.  Most controls are a pair; the rest are a bare qubit,
    a 1-tuple, a two-element list or a triple.  Most control qubits are an
    int; the rest are a bool or a float.  Most polarities are a bool; the
    rest are an int, a string or a numpy bool.  Angles are finite floats,
    None, or a NaN, an infinity, an int or a numpy float.  Half keep every
    qubit inside 0..n-1 and half repeat none, so each rule meets gates that
    break only it.
    """
    n = draw(st.integers(1, 4))
    qubit = st.integers(0, n - 1) if draw(st.booleans()) else st.integers(-1, n)
    qubits = draw(st.lists(qubit, min_size=1, max_size=4, unique=draw(st.booleans())))
    target = draw(st.sampled_from((qubits[0],) * 3 + ((qubits[0],), None, True)))

    def control(q):
        pair = (draw(st.sampled_from((q,) * 5 + (bool(q), float(q)))),
                draw(st.sampled_from((True, False) * 3 + (1, "no", np.True_))))
        return draw(st.sampled_from((pair,) * 6 + (q, (q,), list(pair), (*pair, q))))

    controls = tuple(control(q) for q in qubits[1:])
    kind = draw(st.sampled_from(sorted(GATE_KINDS) + ["warp"]))
    angle = draw(st.none() | st.floats(-6.0, 6.0)
                 | st.sampled_from((math.nan, math.inf, 1, np.float64(0.5))))
    return Gate(kind, target, controls, angle), n


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(any_gates())
def test_circuit_checks_match_reference(case):
    g, n = case
    try:
        reference_gate_check(g, n)
    except ValueError:
        # the message names the gate, so it comes from a rule, not a builtin
        with pytest.raises(ValueError, match=re.escape(g.kind)):
            Circuit(n, (g,))
    else:
        assert Circuit(n, (g, g)).gates == (g, g)


@pytest.mark.parametrize("join", [
    lambda g: Circuit(2, (g,)),
    lambda g: replace(Circuit(2), gates=(h(1), g)),
], ids=["init", "replace"])
def test_bad_gate_rejected_where_it_joins(join):
    with pytest.raises(ValueError, match=r"Gate\(kind='x'.* uses a qubit twice"):
        join(Gate("x", 0, ((0, True),)))


@pytest.mark.parametrize("gate", [
    Gate("x", [0]),
    Gate("x", 1, [(0, True)]),
], ids=["targets", "controls"])
def test_list_fields_rejected(gate):
    # a list target is no int, and a list of controls is no tuple
    with pytest.raises(ValueError, match=r"Gate\(kind='x'.* an int and the controls a tuple"):
        Circuit(2, (gate,))


@pytest.mark.parametrize("target", [(0,), None, True], ids=["tuple", "none", "bool"])
def test_non_int_targets_fail_loudly(target):
    # the old 1-tuple form; a bool would be written as q[True]; a list
    # target is test_list_fields_rejected[targets]
    with pytest.raises(ValueError, match="the target must be an int"):
        Circuit(1, (Gate("x", target),))


@pytest.mark.parametrize("control", [True, 1.0], ids=["bool", "float"])
def test_non_int_controls_fail_loudly(control):
    # a bool control would be written as q[True], which parse_qasm rejects
    with pytest.raises(ValueError, match="each control qubit must be an int"):
        Circuit(2, (Gate("x", 0, ((control, True),)),))


@pytest.mark.parametrize("control", [(0,), 0, (0, True, 1), [0, True]],
                         ids=["1-tuple", "bare", "triple", "list"])
def test_non_pair_controls_fail_loudly(control):
    # a bare qubit once raised a TypeError from unpacking, not a ValueError;
    # a list pair unpacked and built, then failed the first hash of its gate
    with pytest.raises(ValueError, match=r"Gate\(kind='x'.*: a control must be a \(qubit, pol"):
        Circuit(2, (Gate("x", 1, (control,)),))


def test_shared_control_tuple_is_checked_against_each_target():
    # gates after the first that share its control tuple skip the tuple's own check
    cs = ((0, True), (1, True))
    Circuit(3, (Gate("x", 2, cs), Gate("x", 2, cs)))
    with pytest.raises(ValueError, match="uses a qubit twice"):
        Circuit(3, (Gate("x", 2, cs), Gate("x", 1, cs)))


@pytest.mark.parametrize("positive", ["no", 1, np.True_], ids=["str", "int", "numpy"])
def test_non_bool_polarities_fail_loudly(positive):
    # ("no") was written as the positive cx q[0],q[1]
    with pytest.raises(ValueError, match=r"Gate\(kind='x'.*: each control polarity must be a bool"):
        Circuit(2, (Gate("x", 1, ((0, positive),)),))


@pytest.mark.parametrize("control", [0.9, (0.9, True), np.int64(0)], ids=["float", "pair", "numpy"])
def test_helpers_keep_control_qubits_as_given(control):
    # x(1, (0.9,)) was truncated to the control qubit 0
    with pytest.raises(ValueError, match="each control qubit must be an int"):
        Circuit(2, (x(1, (control,)),))


@pytest.mark.parametrize("angle", [np.float64(0.5), math.nan, math.inf, 1],
                         ids=["numpy", "nan", "inf", "int"])
def test_rotation_angles_are_finite_floats(angle):
    # the QASM of each would not parse, or would not read back byte for byte
    for gate in (Gate("ry", 0, (), angle), ry(angle, 0)):
        with pytest.raises(ValueError, match=r"Gate\(kind='ry'.*: a rotation angle must be"):
            Circuit(1, (gate,))


@pytest.mark.parametrize("gate, qubits", [
    (h(1), (1,)),
    (x(2, ((0, True), (1, False))), (0, 1, 2)),
    (rx(0.5, 0, ((3, True),)), (3, 0)),
], ids=["bare", "controlled", "control-above-target"])
def test_qubits_are_controls_then_target(gate, qubits):
    assert gate.qubits == qubits


def test_parse_qasm_rejects_a_repeated_operand():
    with pytest.raises(ValueError, match="twice"):
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[0];\n")

"""Serialization to self-contained OpenQASM 2.0 and parsing back."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsynth.circuit import (
    GATE_KINDS, ROTATION_KINDS, Circuit, Gate, cz, h, lower_negative_controls, ry, rz, x,
)
from qsynth.errors import UnsupportedGateForGateset, UnsupportedStatement
from qsynth.esop import to_esop, synth_esop
from qsynth.optimize import lower_to_uniform
from qsynth.pla import parse_pla
from qsynth.qasm import emit_qasm, parse_qasm
from qsynth.simulate import run_statevector

import qasm_reference as reference
from conftest import random_circuit, same_up_to_phase, unitary


def circuit(num_qubits, *gates):
    return Circuit(num_qubits=num_qubits, gates=tuple(gates))


class TestEmit:
    def test_header_and_register(self):
        text = emit_qasm(circuit(2, x(0)))
        lines = text.splitlines()
        assert lines[0] == "OPENQASM 2.0;"
        assert "qreg q[2];" in lines
        assert lines[-1] == "x q[0];"

    def test_no_include_and_all_names_defined(self):
        circ = circuit(4, x(3, (0, 1, 2)), ry(0.5, 1, ((0, True),)))
        text = emit_qasm(circ)
        assert "include" not in text
        for name in ("mcx_3", "cry", "mcu1_3", "cu1", "ccx", "h", "ry", "cx"):
            assert f"gate {name}" in text

    def test_gate_naming_by_arity(self):
        circ = circuit(4,
                       x(3),
                       x(3, (0,)),
                       x(3, (0, 1)),
                       x(3, (0, 1, 2)),
                       rz(0.5, 3, ((0, True),)))
        apps = [ln for ln in emit_qasm(circ).splitlines()
                if ln.endswith(";") and "q[" in ln and not ln.startswith(("gate", "qreg"))]
        assert apps == [
            "x q[3];",
            "cx q[0],q[3];",
            "ccx q[0],q[1],q[3];",
            "mcx_3 q[0],q[1],q[2],q[3];",
            "crz(0.5) q[0],q[3];",
        ]

    def test_angles_use_repr(self):
        theta = 0.1234567890123456789
        text = emit_qasm(circuit(1, ry(theta, 0)))
        assert f"ry({theta!r}) q[0];" in text

    def test_labels_comment(self):
        circ = Circuit(num_qubits=2, gates=(x(0),), labels=("x0", "f0"))
        assert "// labels: x0 f0\n" in emit_qasm(circ)

    def test_measure_lines_and_creg(self):
        circ = Circuit(3, (h(0),), measured=(2, 0))
        text = emit_qasm(circ)
        assert "qreg q[3];\ncreg c[2];\n" in text
        assert text.endswith("h q[0];\nmeasure q[2] -> c[0];\nmeasure q[0] -> c[1];\n")

    def test_negative_controls_conjugated(self):
        gate = Gate("x", 1, ((0, False),))
        text = emit_qasm(circuit(2, gate))
        apps = [ln for ln in text.splitlines() if ln.startswith(("x ", "cx "))]
        assert apps == ["x q[0];", "cx q[0],q[1];", "x q[0];"]

    def test_definitions_precede_applications(self):
        text = emit_qasm(circuit(3, x(2, (0, 1))))
        assert text.index("gate ccx") < text.index("qreg") < text.index("ccx q[0]")


class TestUniformGateset:
    def test_accepts_uniform_kinds(self):
        circ = Circuit(2, (x(0), x(1, (0,)), h(1), ry(0.3, 0),
                           rz(0.1, 1), Gate("rx", 0, (), 0.2)), measured=(0,))
        text = emit_qasm(circ, gateset="uniform")
        assert "OPENQASM 2.0;" in text

    @pytest.mark.parametrize("gate", [
        Gate("z", 0),
        cz(0, 1),
        Gate("sx", 0),
        Gate("x", 2, ((0, True), (1, True))),
        Gate("ry", 1, ((0, True),), 0.5),
    ], ids=["z", "cz", "sx", "ccx", "cry"])
    def test_rejects_richer_gates(self, gate):
        circ = circuit(3, gate)
        with pytest.raises(UnsupportedGateForGateset):
            emit_qasm(circ, gateset="uniform")

    def test_unknown_gateset(self):
        with pytest.raises(ValueError, match="unknown gateset"):
            emit_qasm(circuit(1, x(0)), gateset="bare")

    def test_unknown_gateset_without_gates(self):
        # no gate to check: the gate set is still checked up front
        for circ in (Circuit(2, measured=(0,)), circuit(2)):
            with pytest.raises(ValueError, match="unknown gateset"):
                emit_qasm(circ, gateset="bogus")


class TestParse:
    def test_round_trip_gates(self):
        circ = circuit(3, x(2, (0, 1)), ry(0.25, 1), cz(0, 1))
        parsed = parse_qasm(emit_qasm(circ))
        assert parsed.num_qubits == 3
        assert parsed.gates == circ.gates

    def test_labels_round_trip(self):
        circ = Circuit(num_qubits=2, gates=(x(0),), labels=("a0", "d0"))
        assert parse_qasm(emit_qasm(circ)).labels == ("a0", "d0")

    def test_measure_round_trip(self):
        circ = Circuit(3, (h(0),), measured=(2, 0))
        parsed = parse_qasm(emit_qasm(circ))
        assert parsed.measured == (2, 0)

    def test_gate_after_measurement(self):
        # a measurement ends the circuit, so this text has no Circuit
        with pytest.raises(UnsupportedStatement, match="follows a measurement"):
            parse_qasm("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\n"
                       "x q[0];\nmeasure q[0] -> c[0];\nx q[0];\n")

    def test_definitions_not_expanded(self):
        circ = circuit(3, x(2, (0, 1)))
        parsed = parse_qasm(emit_qasm(circ))
        assert len(parsed.gates) == 1
        assert parsed.gates[0].kind == "x"

    def test_comments_ignored(self):
        text = "OPENQASM 2.0;\n// a comment\nqreg q[1];\nx q[0]; // trailing\n"
        parsed = parse_qasm(text)
        assert parsed.gates == (x(0),)

    def test_missing_header(self):
        with pytest.raises(UnsupportedStatement, match="OPENQASM"):
            parse_qasm("qreg q[1];\nx q[0];\n")

    def test_missing_qreg(self):
        with pytest.raises(UnsupportedStatement, match="qreg"):
            parse_qasm("OPENQASM 2.0;\n")

    def test_multiple_qreg(self):
        with pytest.raises(UnsupportedStatement, match="multiple"):
            parse_qasm("OPENQASM 2.0;\nqreg q[1];\nqreg q[2];\n")

    def test_unknown_gate(self):
        with pytest.raises(UnsupportedStatement, match="unknown gate"):
            parse_qasm("OPENQASM 2.0;\nqreg q[2];\nswap q[0],q[1];\n")

    def test_phase_macro_not_applied_directly(self):
        # the parser resolves applications from a fixed table; the phase
        # helper names only ever appear inside definitions
        with pytest.raises(UnsupportedStatement):
            parse_qasm("OPENQASM 2.0;\nqreg q[3];\nmcu1_2(0.5) q[0],q[1],q[2];\n")

    def test_wrong_operand_count(self):
        with pytest.raises(UnsupportedStatement, match="expects"):
            parse_qasm("OPENQASM 2.0;\nqreg q[2];\nccx q[0],q[1];\n")

    def test_parameter_on_plain_gate(self):
        with pytest.raises(UnsupportedStatement, match="parameter"):
            parse_qasm("OPENQASM 2.0;\nqreg q[1];\nx(0.5) q[0];\n")

    @pytest.mark.parametrize("stmts", [
        "ry(pi/2) q[0];",
        "ry(inf) q[0];",
        "ry(nan) q[0];",
        # the shape is known from the first statement, so only the parameter is read
        "ry(0.5) q[0];\nry(-inf) q[0];",
        "ry(0.5) q[0];\nry(1e999) q[0];",
        "ry(0.5) q[0];\nry() q[0];",
    ], ids=["pi/2", "inf", "nan", "known-shape--inf", "known-shape-1e999", "known-shape-empty"])
    def test_parameter_must_be_a_finite_float(self, stmts):
        bad = stmts.splitlines()[-1].rstrip(";")
        with pytest.raises(UnsupportedStatement,
                           match=re.escape(f"{bad!r} is not a finite number")):
            parse_qasm("OPENQASM 2.0;\nqreg q[1];\n" + stmts)

    def test_rotation_needs_parameter(self):
        with pytest.raises(UnsupportedStatement, match="parameter"):
            parse_qasm("OPENQASM 2.0;\nqreg q[1];\nrz q[0];\n")

    @pytest.mark.parametrize("tail", [
        # bits swapped: the distribution would read q[1] as its first bit
        "creg c[2];\nmeasure q[0] -> c[1];\nmeasure q[1] -> c[0];\n",
        # a second bit past the one-bit creg
        "creg c[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n",
        # a repeated statement is cached by its text but checked again
        "creg c[2];\nmeasure q[0] -> c[0];\nmeasure q[0] -> c[0];\n",
        # no creg at all
        "measure q[0] -> c[0];\n",
    ])
    def test_measurement_writes_its_own_bit(self, tail):
        with pytest.raises(UnsupportedStatement, match="measurement"):
            parse_qasm("OPENQASM 2.0;\nqreg q[2];\n" + tail)

    def test_multiple_creg(self):
        with pytest.raises(UnsupportedStatement, match="multiple creg"):
            parse_qasm("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\ncreg c[1];\n")


class TestByteStability:
    def cases(self, rng):
        pla = parse_pla(".i 2\n.o 2\n00 01\n01 10\n10 11\n11 01\n.e\n")
        esop = synth_esop(to_esop(pla))
        yield esop
        yield lower_to_uniform(esop)
        yield Circuit(3, (h(0), x(1, (0,)), ry(0.7, 2, ((0, True), (1, True)))),
                      measured=(0, 1, 2))
        for _ in range(5):
            yield random_circuit(rng, 4, 12)

    def test_emit_parse_emit(self, rng):
        for circ in self.cases(rng):
            text = emit_qasm(circ)
            again = emit_qasm(parse_qasm(text))
            assert again == text

    def test_parse_preserves_simulation(self, rng):
        for circ in self.cases(rng):
            base = lower_negative_controls(circ)
            parsed = parse_qasm(emit_qasm(circ))
            want = run_statevector(base, initial=3)
            got = run_statevector(parsed, initial=3)
            np.testing.assert_allclose(got.amplitudes, want.amplitudes,
                                       atol=1e-12)


@st.composite
def one_target_circuits(draw):
    """Circuits of 1-5 qubits over every gate kind, 0-3 controls of mixed polarity."""
    n = draw(st.integers(1, 5))
    gates = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(sorted(GATE_KINDS)))
        target = draw(st.integers(0, n - 1))
        others = [q for q in range(n) if q != target]
        chosen = draw(st.lists(st.sampled_from(others), max_size=min(3, len(others)),
                               unique=True)) if others else []
        controls = tuple((q, draw(st.booleans())) for q in chosen)
        angle = draw(st.floats(-6.0, 6.0)) if kind in ROTATION_KINDS else None
        gates.append(Gate(kind, target, controls, angle))
    return Circuit(n, tuple(gates))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(one_target_circuits())
def test_parse_gives_back_the_emitted_gates(circ):
    # the emitter writes the X-framed circuit, so that is what reads back
    assert parse_qasm(emit_qasm(circ)).gates == lower_negative_controls(circ).gates
    uniform = lower_to_uniform(circ)
    assert parse_qasm(emit_qasm(uniform, "uniform")).gates == uniform.gates


def _rz(a):
    return np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)])


def _spec_u(theta, phi, lam):
    """The OpenQASM 2.0 builtin U (Cross et al., arXiv:1707.03429)."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return _rz(phi) @ np.array([[c, -s], [s, c]]) @ _rz(lam)


_SPEC_CX = np.eye(4)[[0, 1, 3, 2]]
_GATE_LINE = re.compile(r"gate (\w+)(?:\((\w+)\))? ([\w,]+) \{ (.*;) \}")
_STATEMENT = re.compile(r"(\w+)(?:\(([^)]*)\))? ([\w\[\],]+)")


def _value(expr, scope):
    """A body parameter, ``[-]atom[/divisor]``: a number, pi or the gate's parameter."""
    sign, atom, divisor = re.fullmatch(r"(-?)(\w+)(?:/(\d+))?", expr).groups()
    value = scope[atom] if atom in scope else float(atom)
    return (-value if sign else value) / int(divisor or 1)


def _apply(state, matrix, axes):
    """``matrix`` on the qubit ``axes`` of ``state``, every column at once."""
    k = len(axes)
    moved = np.tensordot(matrix.reshape((2,) * 2 * k), state, (range(k, 2 * k), axes))
    return np.moveaxis(moved, range(k), axes)


def expand_from_builtins(text):
    """The unitary of an emitted file, reading every gate body down to U
    and CX.  A body may call only U, CX or a gate defined on an earlier
    line.  The emitter's own reader and call regex are not used."""
    defs = {}  # name -> (parameter or None, argument names, body statements)
    apps = []
    for line in text.splitlines():
        if m := _GATE_LINE.fullmatch(line):
            name, param, args, body = m.groups()
            stmts = [_STATEMENT.fullmatch(s.strip()).groups() for s in body.split(";")[:-1]]
            for called, _, _ in stmts:
                assert called in ("U", "CX") or called in defs, f"{name} calls {called} undefined"
            defs[name] = param, args.split(","), stmts
        elif m := re.fullmatch(r"qreg q\[(\d+)\];", line):
            n = int(m.group(1))
        elif not line.startswith("OPENQASM"):
            apps.append(_STATEMENT.fullmatch(line.rstrip(";")).groups())
    state = np.eye(1 << n, dtype=complex).reshape((2,) * n + (1 << n,))

    def call(name, values, qubits):
        nonlocal state
        if name in ("U", "CX"):
            state = _apply(state, _spec_u(*values) if name == "U" else _SPEC_CX, qubits)
            return
        param, args, stmts = defs[name]
        scope = {"pi": math.pi, **({param: values[0]} if param else {})}
        where = dict(zip(args, qubits, strict=True))
        for called, exprs, operands in stmts:
            call(called, [_value(e, scope) for e in exprs.split(",")] if exprs else [],
                 [where[a] for a in operands.split(",")])

    for name, param, operands in apps:
        call(name, [float(param)] if param else [], [int(q) for q in re.findall(r"\d+", operands)])
    return state.reshape(1 << n, 1 << n)


class TestDefinitionSemantics:
    def test_controlled_h_body_order(self):
        # H = RY(pi/4) Z RY(-pi/4), so the negative rotation is applied first
        from qsynth.qasm import _BASE_DEFS
        assert "ry(-pi/4) b; cz a,b; ry(pi/4) b;" in _BASE_DEFS["ch"]

    @pytest.mark.parametrize("kind, k", [(kind, k) for kind in sorted(GATE_KINDS) for k in range(5)])
    def test_each_body_means_its_gate(self, kind, k):
        # every name the emitter writes for up to four controls: the file read
        # from U and CX is the IR gate's matrix up to one global phase
        gate = Gate(kind, 0, tuple((q, True) for q in range(1, k + 1)),
                    0.7 if kind in ROTATION_KINDS else None)
        circ = Circuit(k + 1, (gate,))
        assert same_up_to_phase(expand_from_builtins(emit_qasm(circ)), unitary(circ))


ODD_ANGLES = (-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, math.pi)
angles = st.sampled_from(ODD_ANGLES) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def repeated_shapes(draw, polarity=st.booleans()):
    """Circuits of 1-4 qubits whose gates take one of 1-4 shapes (kind,
    target, 0-3 controls of ``polarity``, mixed by default), each rotation
    with an angle of its own; some gate objects recur, and measured
    qubits (each at most once) and labels come and go."""
    n = draw(st.integers(1, 4))
    shapes = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(sorted(ROTATION_KINDS))
                    | st.sampled_from(sorted(GATE_KINDS)))
        target = draw(st.integers(0, n - 1))
        others = [q for q in range(n) if q != target]
        chosen = draw(st.lists(st.sampled_from(others), max_size=min(3, len(others)),
                               unique=True)) if others else []
        shapes.append((kind, target, tuple((q, draw(polarity)) for q in chosen)))
    gates, measured = [], []
    for _ in range(draw(st.integers(0, 14))):
        pick = draw(st.integers(0, len(shapes)))
        if pick == len(shapes):
            qubits = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
            measured += [q for q in draw(qubits) if q not in measured]
        elif gates and draw(st.integers(0, 4)) == 0:
            gates.append(gates[draw(st.integers(0, len(gates) - 1))])
        else:
            kind, target, controls = shapes[pick]
            angle = draw(angles) if kind in ROTATION_KINDS else None
            gates.append(Gate(kind, target, controls, angle))
    labels = tuple(f"b{q}" for q in range(n)) if draw(st.booleans()) else ()
    return Circuit(n, tuple(gates), labels, tuple(measured))


def failure(fn, *args):
    """The class of the exception ``fn(*args)`` raises, or None."""
    try:
        fn(*args)
    except Exception as err:  # noqa: BLE001 - the class is the result
        return type(err)
    return None


def read_back(circ):
    """Each gate's fields, the angle as ``float.hex``, and which gates are one object."""
    first: dict[int, int] = {}
    return (circ.num_qubits, circ.labels, circ.measured,
            [(g.kind, g.target, g.controls, None if g.angle is None else g.angle.hex())
             for g in circ.gates],
            [first.setdefault(id(g), i) for i, g in enumerate(circ.gates)])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(repeated_shapes())
def test_read_write_match_reference(circ):
    # the shape caches change the work per statement, never the bytes or the gates
    text = emit_qasm(circ)
    assert text == reference.emit_qasm(circ)
    parsed = parse_qasm(text)
    assert read_back(parsed) == read_back(reference.parse_qasm(text))
    assert emit_qasm(parsed) == text
    uniform = failure(emit_qasm, circ, "uniform")
    assert uniform is failure(reference.emit_qasm, circ, "uniform")
    if uniform is None:
        assert emit_qasm(circ, "uniform") == reference.emit_qasm(circ, "uniform")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(repeated_shapes(polarity=st.just(True)))
def test_emit_parse_gives_back_the_circuit(circ):
    # with positive controls only there is no X frame: every gate, every
    # measured qubit and the labels come back, though equal gates that
    # were distinct objects come back as one
    assert read_back(parse_qasm(emit_qasm(circ)))[:4] == read_back(circ)[:4]


BAD_PARAMETERS = ("pi/2", "inf", "-inf", "nan", "1e999", "", "0.5,0.5", "(0.5")


@st.composite
def malformed_streams(draw):
    """(QASM text, whether its one fault is a parameter that is not a
    finite float literal): an emitted circuit with bad statements spliced
    in among its applications, often right after a good statement of
    the same name, so that the parser meets the fault on a known shape."""
    circ = draw(repeated_shapes())
    k = draw(st.integers(0, circ.num_qubits - 1))
    rot = draw(st.sampled_from(sorted(ROTATION_KINDS)))
    good = f"{rot}({draw(angles)!r}) q[{k}];"
    fault = draw(st.sampled_from(("parameter", "plain", "missing", "operands")))
    bad = {
        "parameter": [good, f"{rot}({draw(st.sampled_from(BAD_PARAMETERS))}) q[{k}];"],
        "plain": [draw(st.sampled_from((f"x(0.5) q[{k}];", f"h(-0.0) q[{k}];",
                                         "cx(1) q[0],q[1];")))],
        "missing": [draw(st.sampled_from((f"{rot} q[{k}];", "crz q[0],q[1];")))],
        "operands": [good, draw(st.sampled_from((f"{rot}(0.25) q[{k}],q[{k}];",
                                                  "cry(0.5) q[0];", "ccx q[0],q[1];")))],
    }[fault]
    lines = emit_qasm(circ).splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith("qreg")) + 1
    at = draw(st.integers(start, len(lines)))
    return "\n".join(lines[:at] + bad + lines[at:]) + "\n", fault == "parameter"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(malformed_streams())
def test_malformed_streams_fail_alike(stream):
    text, bad_parameter = stream
    # the reference reads a bad parameter with a bare float: a ValueError
    # for "pi/2", and "inf" or "nan" go through as angles
    want = UnsupportedStatement if bad_parameter else failure(reference.parse_qasm, text)
    assert want is not None
    assert failure(parse_qasm, text) is want

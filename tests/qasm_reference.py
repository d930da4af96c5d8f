"""The QASM read/write path before its per-shape caches, kept as a test oracle.

``emit_qasm`` formats every distinct gate on its own and ``parse_qasm``
runs the statement regexes on every distinct statement, with the
parameter read by a bare ``float``.  The caching versions in
``qsynth.qasm`` must write the same bytes and read back the same gates;
only a parameter that is not a finite float literal may end differently
(here a ``ValueError`` from ``float``, or a non-finite angle that parses).
The name tables and definition texts are shared with ``qsynth.qasm``.
"""

import re

from qsynth.circuit import Circuit, Gate, _per_gate, lower_negative_controls
from qsynth.errors import UnsupportedGateForGateset, UnsupportedStatement
from qsynth.qasm import UNIFORM_GATESET, _collect_definitions, _mc_name, _resolve_name

_APP_RE = re.compile(
    r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*(?:\((?P<param>[^)]*)\))?\s*"
    r"(?P<args>q\[\d+\](?:\s*,\s*q\[\d+\])*)$"
)
_MEASURE_RE = re.compile(r"^measure\s+q\[(\d+)\]\s*->\s*c\[(\d+)\]$")
_REG_RE = re.compile(r"^([qc])reg\s+\1\[(\d+)\]$")
_OPERAND_RE = re.compile(r"q\[(\d+)\]")
_DEF_RE = re.compile(r"gate\s+[A-Za-z_][A-Za-z0-9_]*[^{]*\{[^}]*\}")


def emit_qasm(circuit: Circuit, gateset: str = "natural") -> str:
    if gateset not in ("natural", "uniform"):
        raise ValueError(f"unknown gateset {gateset!r}")
    circuit = lower_negative_controls(circuit)
    names: set[str] = set()

    def application(gate: Gate) -> str:
        if gateset == "uniform":
            ok = (
                gate.kind in UNIFORM_GATESET
                and len(gate.controls) <= (1 if gate.kind == "x" else 0)
            )
            if not ok:
                raise UnsupportedGateForGateset(
                    f"{gate.kind} with {len(gate.controls)} controls is outside "
                    "the uniform gateset"
                )
        name = _mc_name(gate.kind, len(gate.controls))
        names.add(name)
        operands = ",".join(f"q[{q}]" for q in gate.qubits)
        if gate.angle is not None:
            return f"{name}({gate.angle!r}) {operands};"
        return f"{name} {operands};"

    apps = list(_per_gate(circuit.gates, application))
    lines = ["OPENQASM 2.0;"]
    if circuit.labels:
        lines.append("// labels: " + " ".join(circuit.labels))
    lines.extend(_collect_definitions(names))
    lines.append(f"qreg q[{circuit.num_qubits}];")
    if circuit.measured:
        lines.append(f"creg c[{len(circuit.measured)}];")
    lines.extend(apps)
    lines.extend(f"measure q[{q}] -> c[{c}];" for c, q in enumerate(circuit.measured))
    return "\n".join(lines) + "\n"


def _parse_application(stmt: str) -> Gate:
    m = _APP_RE.fullmatch(stmt)
    if not m:
        raise UnsupportedStatement(f"cannot parse statement {stmt!r}")
    kind, n_controls = _resolve_name(m.group("name"))
    qubits = [int(tok) for tok in _OPERAND_RE.findall(m.group("args"))]
    if len(qubits) != n_controls + 1:
        raise UnsupportedStatement(
            f"{m.group('name')} expects {n_controls + 1} operands, "
            f"got {len(qubits)}"
        )
    param = m.group("param")
    angle = None
    if param is not None:
        if kind not in ("rx", "ry", "rz"):
            raise UnsupportedStatement(f"unexpected parameter on {m.group('name')}")
        angle = float(param)
    elif kind in ("rx", "ry", "rz"):
        raise UnsupportedStatement(f"{m.group('name')} needs a parameter")
    controls = tuple((q, True) for q in qubits[:-1])
    return Gate(kind, qubits[-1], controls, angle)


def parse_qasm(text: str) -> Circuit:
    labels: tuple[str, ...] = ()
    stripped: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("// labels:"):
            labels = tuple(line[len("// labels:"):].split())
            continue
        if "//" in line:
            line = line[: line.index("//")].strip()
        if line:
            stripped.append(line)
    body = " ".join(stripped)

    # remove gate definition blocks before splitting on semicolons
    body = _DEF_RE.sub("", body)

    statements = [s.strip() for s in body.split(";") if s.strip()]
    if not statements or statements[0] != "OPENQASM 2.0":
        raise UnsupportedStatement("file must start with OPENQASM 2.0;")

    size: dict[str, int] = {}  # register ("q" or "c") -> declared size
    measured: list[int] = []
    gates: list[Gate] = []
    gate_of: dict[str, Gate] = {}  # a repeated statement yields one shared Gate
    for stmt in statements[1:]:
        gate = gate_of.get(stmt)
        if gate is None:
            m = _REG_RE.fullmatch(stmt)
            if m:
                if m.group(1) in size:
                    raise UnsupportedStatement(f"multiple {m.group(1)}reg declarations")
                size[m.group(1)] = int(m.group(2))
                continue
            m = _MEASURE_RE.fullmatch(stmt)
            if m:  # the distribution reads measurement j as bit j
                clbit = int(m.group(2))
                if clbit != len(measured) or len(measured) >= size.get("c", 0):
                    raise UnsupportedStatement(
                        f"measurement {len(measured)} must write c[{len(measured)}] of the one "
                        f"creg, not c[{clbit}]")
                measured.append(int(m.group(1)))
                continue
            gate = gate_of[stmt] = _parse_application(stmt)
        if measured:
            raise UnsupportedStatement(f"gate {stmt!r} follows a measurement")
        gates.append(gate)

    if "q" not in size:
        raise UnsupportedStatement("missing qreg declaration")
    return Circuit(num_qubits=size["q"], gates=tuple(gates), labels=labels,
                   measured=tuple(measured))

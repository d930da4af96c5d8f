"""OpenQASM 2.0 emission and parsing.

Emitted files are self-contained: every gate name used is defined in the
file from the builtin U and CX primitives, so no include is needed.
A gate's name is its IR kind with its control count: the bare kind,
then c<kind> (cx, cz, crz, ...), ccx, and mc<kind>_<k> per arity (mcx_3,
mcrz_4, ...) with small recursive bodies.  Expanded from U and CX as the
specification defines them, each body equals its IR gate up to one
global phase, which is nonzero for most controlled bodies.  ``_inline``
lowers a gate to the uniform set by these same bodies, u1 read as rz.

The parser reads files shaped like the emitter's output: definitions are
skipped by name (never expanded) and applications map straight back to
IR gates: parsing gives back the emitted gates and measured qubits, and
emit -> parse -> emit is byte-stable for finite angles.  Anything else,
a parameter that is not a finite float literal included, raises
UnsupportedStatement.
Both directions work once per gate shape (name and operands), so a
rotation of a known shape costs one repr or one float of its angle.
"""

from __future__ import annotations

import functools
import math
import re

from .circuit import GATE_KINDS, ROTATION_KINDS, Circuit, Gate, _per_gate, lower_negative_controls
from .errors import UnsupportedGateForGateset, UnsupportedStatement

UNIFORM_GATESET = frozenset({"rx", "ry", "rz", "x", "h"})


def _uniform(kind: str, k: int) -> bool:
    """Whether the uniform gate set has ``kind`` with ``k`` controls: only x takes one."""
    return kind in UNIFORM_GATESET and k <= (kind == "x")


# ---------------------------------------------------------------------------
# gate definitions
# ---------------------------------------------------------------------------

_BASE_DEFS: dict[str, str] = {
    "u1": "gate u1(lambda) a { U(0,0,lambda) a; }",
    "x": "gate x a { U(pi,0,pi) a; }",
    "cx": "gate cx a,b { CX a,b; }",
    "z": "gate z a { u1(pi) a; }",
    "h": "gate h a { U(pi/2,0,pi) a; }",
    "sx": "gate sx a { U(pi/2,-pi/2,pi/2) a; }",
    "sxdg": "gate sxdg a { U(-pi/2,-pi/2,pi/2) a; }",
    "rx": "gate rx(theta) a { U(theta,-pi/2,pi/2) a; }",
    "ry": "gate ry(theta) a { U(theta,0,0) a; }",
    "rz": "gate rz(theta) a { u1(theta) a; }",
    "cz": "gate cz a,b { h b; cx a,b; h b; }",
    "cu1": "gate cu1(lambda) a,b { u1(lambda/2) a; cx a,b; u1(-lambda/2) b; "
           "cx a,b; u1(lambda/2) b; }",
    "crz": "gate crz(theta) a,b { u1(theta/2) b; cx a,b; u1(-theta/2) b; cx a,b; }",
    "cry": "gate cry(theta) a,b { ry(theta/2) b; cx a,b; ry(-theta/2) b; cx a,b; }",
    "crx": "gate crx(theta) a,b { h b; crz(theta) a,b; h b; }",
    "csx": "gate csx a,b { u1(pi/4) a; crx(pi/2) a,b; }",
    "csxdg": "gate csxdg a,b { u1(-pi/4) a; crx(-pi/2) a,b; }",
    "ccx": "gate ccx a,b,c { h c; cx b,c; u1(-pi/4) c; cx a,c; u1(pi/4) c; cx b,c; u1(-pi/4) c; "
           "cx a,c; u1(pi/4) b; u1(pi/4) c; h c; cx a,b; u1(pi/4) a; u1(-pi/4) b; cx a,b; }",
    "ch": "gate ch a,b { ry(-pi/4) b; cz a,b; ry(pi/4) b; }",
}

_MC_RE = re.compile(rf"mc({'|'.join(sorted(GATE_KINDS | {'u1'}))})_(\d+)")  # mc<family>_<k>


def _mc_name(family: str, k: int) -> str:
    """Name of the k-controlled member of a gate family."""
    if k == 0:
        return family
    if k == 1:
        return "c" + family
    if family == "x" and k == 2:
        return "ccx"
    return f"mc{family}_{k}"


# family: (gate before, inner family, inner argument, gate after); the
# gates before and after act on the target, the inner one has k controls
_MC_FRAMES = {
    "x": ("h", "u1", "(pi)", "h"),
    "z": ("h", "x", "", "h"),
    "rx": ("h", "rz", "(theta)", "h"),
    "h": ("ry(-pi/4)", "z", "", "ry(pi/4)"),
}


def _mc_def(family: str, k: int) -> str:
    """Definition text of an arity-k family member."""
    cs = [f"c{i}" for i in range(1, k + 1)]
    args = ",".join(cs + ["t"])
    name = _mc_name(family, k)
    sub_x = _mc_name("x", k - 1)
    if family in ("u1", "rz", "ry"):
        p = "lambda" if family == "u1" else "theta"
        base, tail = _mc_name(family, 1), _mc_name(family, k - 1)
        body = (
            f"{base}({p}/2) {cs[-1]},t; {sub_x} {','.join(cs)}; "
            f"{base}(-{p}/2) {cs[-1]},t; {sub_x} {','.join(cs)}; "
            f"{tail}({p}/2) {','.join(cs[:-1])},t;"
        )
        return f"gate {name}({p}) {args} {{ {body} }}"
    if family in _MC_FRAMES:
        before, inner, arg, after = _MC_FRAMES[family]
        inner = _mc_name(inner, k)
        param = arg if arg == "(theta)" else ""
        body = f"{before} t; {inner}{arg} {args}; {after} t;"
        return f"gate {name}{param} {args} {{ {body} }}"
    if family in ("sx", "sxdg"):
        sign = "" if family == "sx" else "-"
        phase = _mc_name("u1", k - 1)
        rot = _mc_name("rx", k)
        body = (
            f"{phase}({sign}pi/4) {','.join(cs)}; "
            f"{rot}({sign}pi/2) {args};"
        )
        return f"gate {name} {args} {{ {body} }}"
    raise ValueError(f"no multi-controlled form for {family!r}")


def _definition(name: str) -> str:
    if name in _BASE_DEFS:
        return _BASE_DEFS[name]
    m = _MC_RE.fullmatch(name)
    if not m:
        raise ValueError(f"unknown gate name {name!r}")
    return _mc_def(m.group(1), int(m.group(2)))


# a call in a body, name(-arg/divisor) operands; the builtins U, CX are upper case
_CALL_RE = re.compile(r"(?<=[{;] )([a-z]\w*)(?:\((-?)(\w+)(?:/(\d+))?\))? ([\w,]+);")


@functools.cache
def _leaves(kind: str, k: int) -> tuple:
    """The body of ``kind`` with ``k`` controls over the uniform set, every call inlined.

    A leaf is (kind, target, control or None, sign, base, divisor), qubits
    as positions among the gate's operands; a rotation's angle is sign *
    base / divisor, a base of None being the gate's own angle, and other
    leaves have divisor None.  u1 is read as rz, a global phase apart; bare
    sx and sxdg, whose U(...) bodies lie outside the set, are rx(+-pi/2).
    """
    if _uniform(kind, k):  # itself, on its own operands and angle
        return ((kind, k, k - 1 if k else None, 1.0, None, 1 if kind in ROTATION_KINDS else None),)
    if k == 0 and kind in ("sx", "sxdg"):
        return (("rx", 0, None, 1.0 if kind == "sx" else -1.0, math.pi, 2),)
    text = _definition(_mc_name(kind, k))
    formals = text.partition("{")[0].split()[-1].split(",")
    out = []
    for name, minus, base, div, args in _CALL_RE.findall(text):
        pos = [formals.index(a) for a in args.split(",")]
        for leaf, t, c, s, b, d in _leaves(*(("rz", 0) if name == "u1" else _NAME_TABLE[name])):
            if b is None and d is not None:  # the callee's angle is this call's argument
                s, b, d = -s if minus else s, math.pi if base == "pi" else None, d * int(div or 1)
            out.append((leaf, pos[t], None if c is None else pos[c], s, b, d))
    return tuple(out)


def _inline(gate: Gate) -> list[Gate]:
    """``gate`` (at most one control, or a Toffoli): itself if uniform, else its body's leaves."""
    k = len(gate.controls)
    if _uniform(gate.kind, k):
        return [gate]
    qs, angle = gate.qubits, gate.angle
    return [Gate(kind, qs[t], () if c is None else ((qs[c], True),),
                 None if d is None else s * (angle if b is None else b) / d)
            for kind, t, c, s, b, d in _leaves(gate.kind, k)]


def _collect_definitions(names) -> list[str]:
    """Definition lines for ``names`` and every gate their bodies call, callees first."""
    emitted: list[str] = []
    done: set[str] = set()

    def visit(name: str) -> None:
        if name in done:
            return
        done.add(name)
        for dep, *_ in _CALL_RE.findall(text := _definition(name)):
            visit(dep)
        emitted.append(text)

    for name in sorted(names, key=_def_sort_key):
        visit(name)
    return emitted


_BASE_ORDER = list(_BASE_DEFS)


def _def_sort_key(name: str):
    if name in _BASE_DEFS:
        return (0, _BASE_ORDER.index(name), "")
    m = _MC_RE.fullmatch(name)
    return (1, int(m.group(2)), m.group(1))


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def emit_qasm(circuit: Circuit, gateset: str = "natural") -> str:
    """Serialize a circuit; ``gateset`` is ``natural`` or ``uniform``.

    The uniform gateset admits only plain x/h/rx/ry/rz and cx and raises
    UnsupportedGateForGateset on anything else; emission never rewrites
    gates to fit.  The measured qubits are written after the last gate,
    entry j into c[j].  In both modes ``lower_negative_controls``
    makes negative controls positive through its X frame.  Angles are
    printed with repr so parsing them back is exact.  The check, the name
    and the operand list are worked out once per (kind, target,
    controls), and each distinct Gate object is formatted once.
    """
    if gateset not in ("natural", "uniform"):
        raise ValueError(f"unknown gateset {gateset!r}")
    circuit = lower_negative_controls(circuit)
    names: set[str] = set()
    shapes: dict = {}  # (kind, target, controls) -> its line, or the text around its angle

    def shape(kind: str, target: int, controls) -> str | tuple[str, str]:
        if gateset == "uniform" and not _uniform(kind, len(controls)):
            raise UnsupportedGateForGateset(
                f"{kind} with {len(controls)} controls is outside the uniform gateset")
        name = _mc_name(kind, len(controls))
        names.add(name)
        operands = ",".join([f"q[{q}]" for q, _ in controls] + [f"q[{target}]"])
        if kind in ROTATION_KINDS:
            return f"{name}(", f") {operands};"
        return f"{name} {operands};"

    def application(gate: Gate) -> str:
        key = gate.kind, gate.target, gate.controls
        text = shapes.get(key) or shapes.setdefault(key, shape(*key))
        return text if gate.angle is None else f"{text[0]}{gate.angle!r}{text[1]}"

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


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_APP_RE = re.compile(
    r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*(?:\((?P<param>[^)]*)\))?\s*"
    r"(?P<args>q\[\d+\](?:\s*,\s*q\[\d+\])*)$"
)
_MEASURE_RE = re.compile(r"^measure\s+q\[(\d+)\]\s*->\s*c\[(\d+)\]$")
_REG_RE = re.compile(r"^([qc])reg\s+\1\[(\d+)\]$")  # qreg q[n] or creg c[n]
_OPERAND_RE = re.compile(r"q\[(\d+)\]")
_DEF_RE = re.compile(r"gate\s+[A-Za-z_][A-Za-z0-9_]*[^{]*\{[^}]*\}")

# name -> (IR kind, control count): the emitter's names inverted, so
# cz reads back as a z with one control
_NAME_TABLE: dict[str, tuple[str, int]] = {
    _mc_name(kind, k): (kind, k) for kind in GATE_KINDS for k in (0, 1)
}
_NAME_TABLE.update(ccx=("x", 2))


def _resolve_name(name: str) -> tuple[str, int]:
    hit = _NAME_TABLE.get(name)
    if hit:
        return hit
    m = _MC_RE.fullmatch(name)
    if m and m.group(1) != "u1":
        return m.group(1), int(m.group(2))
    raise UnsupportedStatement(f"unknown gate {name!r}")


def _angle(param: str, stmt: str) -> float:
    """``param`` read as a finite float, else UnsupportedStatement."""
    try:
        if math.isfinite(angle := float(param)):
            return angle
    except ValueError:
        pass
    raise UnsupportedStatement(f"parameter of {stmt!r} is not a finite number")


def _parse_application(stmt: str) -> Gate:
    """The gate of one gate application statement."""
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
        if kind not in ROTATION_KINDS:
            raise UnsupportedStatement(f"unexpected parameter on {m.group('name')}")
        angle = _angle(param, stmt)
    elif kind in ROTATION_KINDS:
        raise UnsupportedStatement(f"{m.group('name')} needs a parameter")
    controls = tuple((q, True) for q in qubits[:-1])
    return Gate(kind, qubits[-1], controls, angle)


def parse_qasm(text: str) -> Circuit:
    """Parse emitter-shaped OpenQASM 2.0 back into a circuit.

    Gate definitions are skipped (names are resolved from a fixed table),
    so parsing never expands macro bodies.  Statements outside the
    emitter's repertoire raise UnsupportedStatement, and so do a j-th
    measurement that writes anything but bit j of the one declared creg
    and a gate after a measurement.  Repeated statements share one Gate
    instance.  A statement equal to an earlier one but for the text
    between its parentheses reuses that one's kind and qubits, so its
    own work is reading the parameter, which must be a finite float
    literal.
    """
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
    measured: list[int] = []  # measurement j reads qubit measured[j] into c[j]
    gates: list[Gate] = []
    gate_of: dict[str, Gate] = {}  # a repeated statement yields one shared Gate
    shape_of: dict[tuple[str, str], tuple] = {}  # text around a parameter -> the rest of its Gate
    for stmt in statements[1:]:
        gate = gate_of.get(stmt)
        if gate is None:
            head, paren, rest = stmt.partition("(")
            param, _, tail = rest.partition(")")
            shape = paren and shape_of.get((head, tail))
            if shape:
                gate = Gate(*shape, _angle(param, stmt))
            else:
                m = _REG_RE.fullmatch(stmt)
                if m:
                    if m.group(1) in size:
                        raise UnsupportedStatement(f"multiple {m.group(1)}reg declarations")
                    size[m.group(1)] = int(m.group(2))
                    continue
                m = _MEASURE_RE.fullmatch(stmt)
                if m:  # never cached, so a repeated one is checked again
                    j, clbit = len(measured), int(m.group(2))
                    if clbit != j or j >= size.get("c", 0):
                        raise UnsupportedStatement(
                            f"measurement {j} must write c[{j}] of the one creg, not c[{clbit}]")
                    measured.append(int(m.group(1)))
                    continue
                gate = _parse_application(stmt)
                if paren:
                    shape_of[head, tail] = gate.kind, gate.target, gate.controls
            gate_of[stmt] = gate
        if measured:
            raise UnsupportedStatement(f"gate {stmt!r} follows a measurement")
        gates.append(gate)

    if "q" not in size:
        raise UnsupportedStatement("missing qreg declaration")
    return Circuit(size["q"], tuple(gates), labels, tuple(measured))

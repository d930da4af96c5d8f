"""Technology-independent circuit representation.

A circuit is an ordered, immutable list of gates over a fixed number of
qubits.  Gates carry an optional set of controls; each control is a
(qubit, positive) pair, where a negative control fires on |0>;
``lower_negative_controls`` makes it positive through an X frame that
emits an X only where a qubit's polarity changes.  Each operation has
one form: a controlled Z is a ``z`` gate with a control (``cz`` builds
one), a gate count is ``len(circuit)``, a control count is
``len(gate.controls)``, and each other size is a field of ``metrics``.
Every gate has one int ``target``; each control's qubit is an int and
its polarity a bool, and the helpers convert neither (they read a bare
qubit q as (q, True)).  Rotation kinds carry a finite float angle in
radians; no other kind does.  A ``Gate`` is a plain record: the
``Circuit`` it joins checks it, once per distinct gate object.  A
measurement is not a gate: a circuit's ``measured`` qubits, each once,
follow its last gate.  A circuit's fields are what its QASM carries: an
int qubit count (not a bool), tuples, and labels free of whitespace.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from itertools import chain
from math import isfinite

ROTATION_KINDS = frozenset({"rx", "ry", "rz"})
GATE_KINDS = frozenset({"x", "h", "z", "rx", "ry", "rz", "sx", "sxdg"})


@dataclass(frozen=True)
class Gate:
    """A plain record; the ``Circuit`` it joins checks it."""

    kind: str
    target: int
    controls: tuple[tuple[int, bool], ...] = ()
    angle: float | None = None

    @property
    def qubits(self) -> tuple[int, ...]:
        """Every qubit the gate touches, controls first."""
        return (*[q for q, _ in self.controls], self.target)


def _coerce_controls(controls) -> tuple[tuple[int, bool], ...]:
    """Each bare control qubit as a positive ``(q, True)`` pair."""
    return tuple([c if isinstance(c, tuple) else (c, True) for c in controls])


def x(target: int, controls=()) -> Gate:
    return Gate("x", target, _coerce_controls(controls))


def h(target: int) -> Gate:
    return Gate("h", target)


def cz(control: int, target: int) -> Gate:
    return Gate("z", target, ((control, True),))


def rx(angle: float, target: int, controls=()) -> Gate:
    return Gate("rx", target, _coerce_controls(controls), angle)


def ry(angle: float, target: int, controls=()) -> Gate:
    return Gate("ry", target, _coerce_controls(controls), angle)


def rz(angle: float, target: int, controls=()) -> Gate:
    return Gate("rz", target, _coerce_controls(controls), angle)


def _distinct(gates) -> Iterable[Gate]:
    """Each Gate object of ``gates`` once, in first-seen order."""
    return dict(zip(map(id, gates), gates)).values()


def _per_gate(gates, fn) -> Iterator:
    """``fn(g)`` for every gate in order, computed once per distinct object.

    The cache is keyed by ``id``, which is sound because ``gates`` holds
    every object alive while the ids are taken; it lives only as long as
    the returned iterator.
    """
    ids = list(map(id, gates))
    cache = {i: fn(g) for i, g in dict(zip(ids, gates)).items()}
    return map(cache.__getitem__, ids)


def _rewrite(circuit: Circuit, expand) -> Circuit:
    """``circuit`` with each gate replaced by ``expand(gate)``.

    Each distinct gate object is expanded once, so the output repeats
    one expansion's Gate objects wherever its input gate recurs.
    """
    return replace(circuit, gates=tuple(chain.from_iterable(_per_gate(circuit.gates, expand))))


@dataclass(frozen=True)
class Circuit:
    """An immutable gate list over num_qubits qubits.

    ``gates`` may repeat one immutable Gate instance any number of times
    (lowered circuits do, heavily); whole-circuit walks that do real work
    per gate do it once per distinct object (see ``_per_gate``).
    Construction is the one place that checks gates, so a gate from the
    constructor, ``replace`` or ``parse_qasm`` meets every rule.
    ``measured`` lists the qubits read after the last gate; entry j is
    outcome bit j, and no qubit is listed twice.
    """

    num_qubits: int
    gates: tuple[Gate, ...] = ()
    labels: tuple[str, ...] = field(default=(), compare=False)
    measured: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        n = self.num_qubits
        if type(n) is not int:
            raise ValueError(f"the qubit count must be an int, got {n!r}")
        if n <= 0:
            raise ValueError("circuit needs at least one qubit")
        if not all(isinstance(f, tuple) for f in (self.gates, self.labels, self.measured)):
            raise ValueError("gates, labels and measured must be tuples")
        last = None  # the last control tuple that passed; a run of gates often shares one
        for g in _distinct(self.gates):
            if not (type(g.target) is int and isinstance(g.controls, tuple)):
                raise ValueError(f"{g}: the target must be an int and the controls a tuple")
            if g.kind not in GATE_KINDS:
                raise ValueError(f"unknown gate kind {g.kind!r}")
            if g.kind in ROTATION_KINDS:
                if not (type(g.angle) is float and isfinite(g.angle)):
                    raise ValueError(f"{g}: a rotation angle must be a finite float")
            elif g.angle is not None:
                raise ValueError(f"{g}: only rotations take an angle")
            if not 0 <= g.target < n:
                raise ValueError(f"{g} touches a qubit outside 0..{n - 1}")
            if g.controls:  # (int, bool) pairs; in range, apart from each other and the target
                if g.controls is not last:
                    try:  # a list pair unpacks, but does not hash
                        hash(g.controls)
                        cs = {q for q, pos in g.controls
                              if type(pos) is bool and type(q) is int and 0 <= q < n}
                    except (TypeError, ValueError):
                        raise ValueError(f"{g}: a control must be a (qubit, polarity) pair") from None
                    last = g.controls
                if len(cs) != len(g.controls) or g.target in cs:
                    raise ValueError(f"{g}: each control polarity must be a bool"
                                     if any(type(pos) is not bool for _, pos in g.controls)
                                     else f"{g}: each control qubit must be an int in 0..{n - 1}"
                                     if any(type(q) is not int or not 0 <= q < n for q, _ in g.controls)
                                     else f"{g} uses a qubit twice")
        if self.labels and len(self.labels) != n:
            raise ValueError("labels must name every qubit")
        if not all(type(s) is str and s.split() == [s] for s in self.labels):
            raise ValueError("each label must be a non-empty str with no whitespace")
        if not all(type(q) is int for q in self.measured):
            raise ValueError("each measured qubit must be an int")
        if not all(0 <= q < n for q in self.measured):
            raise ValueError(f"a measured qubit lies outside 0..{n - 1}")
        if twice := [q for q in self.measured if self.measured.count(q) > 1]:
            raise ValueError(f"measured qubit {twice[0]} is listed more than once")

    def __len__(self) -> int:
        return len(self.gates)


@dataclass(frozen=True)
class Metrics:
    qubits: int
    gate_count: int
    complexity: int
    depth: int
    parameterized_gate_count: int


def metrics(circuit: Circuit) -> Metrics:
    """Every size measure of ``circuit`` from one walk over its gates.

    Complexity sums controls plus the target over the gates, and the
    parameterized count counts gates that carry an angle; both count
    every occurrence of a repeated Gate object.  Depth is the longest
    chain of gates that pairwise share a qubit: two gates conflict iff
    they touch any common qubit (controls count).
    """
    level = [0] * circuit.num_qubits
    cost = params = 0
    for qs, angled in _per_gate(circuit.gates, lambda g: (g.qubits, g.angle is not None)):
        cost += len(qs)
        params += angled
        # one- and two-qubit gates, nearly all of a lowered circuit, inline
        if len(qs) == 1:
            level[qs[0]] += 1
        elif len(qs) == 2:
            a, b = qs
            level[a] = level[b] = max(level[a], level[b]) + 1
        else:
            d = 1 + max(map(level.__getitem__, qs))
            for q in qs:
                level[q] = d
    # a qubit's level only grows, so the deepest gate left its mark
    return Metrics(circuit.num_qubits, len(circuit.gates), cost, max(level), params)


def lower_negative_controls(circuit: Circuit) -> Circuit:
    """Make every control positive through one X frame bit per qubit.

    An X goes on a qubit only where its frame bit (an X owed to it)
    differs from what the next gate needs: set under a negative control,
    clear under a positive one or under a target of a kind other than X
    (X commutes with the frame), and clear at the end.  Each qubit's X
    and each distinct input gate's positive copy are one shared object.
    Idempotent: a circuit with only positive controls comes back as the
    same object.
    """
    if all(pos for g in _distinct(circuit.gates) for _, pos in g.controls):
        return circuit
    flips = [x(q) for q in range(circuit.num_qubits)]
    frame = [False] * circuit.num_qubits
    out: list[Gate] = []

    def positive(gate: Gate) -> Gate:  # a copy only when a control is negative
        return gate if all(pos for _, pos in gate.controls) else Gate(
            gate.kind, gate.target, tuple([(q, True) for q, _ in gate.controls]), gate.angle)

    for gate, lowered in zip(circuit.gates, _per_gate(circuit.gates, positive)):
        for q, pos in gate.controls:  # the frame bit must end as `not pos`
            if frame[q] == pos:
                frame[q] = not pos
                out.append(flips[q])
        if frame[gate.target] and gate.kind != "x":
            frame[gate.target] = False
            out.append(flips[gate.target])
        out.append(lowered)
    out += [flips[q] for q in range(circuit.num_qubits) if frame[q]]
    return replace(circuit, gates=tuple(out))

"""Post-synthesis circuit passes.

Every pass here preserves the circuit unitary (symmetric_optimize
preserves the output distribution); none of them knows anything about
hardware.  Pass order matters: the control-count reducers expect the
shapes their upstream synthesizers produce.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import replace
from operator import itemgetter

from .circuit import (
    ROTATION_KINDS,
    Circuit,
    Gate,
    _per_gate,
    _rewrite,
    cz,
    h,
    lower_negative_controls,
    ry,
    x,
)
from .encoding import synth_amplitude
from .errors import NoSymmetry
from .funcprep import Pmf
from .qasm import _inline

SYMMETRY_TOLERANCE = 1e-12


# ---------------------------------------------------------------------------
# double-X removal
# ---------------------------------------------------------------------------

def remove_double_x(circuit: Circuit) -> Circuit:
    """Delete adjacent self-cancelling X pairs.

    Only bare (uncontrolled) X gates are touched, and only when no gate
    between the two members acts on that qubit.  One pass reaches the
    fixpoint: once a pair cancels, every earlier X on that qubit is
    either matched already or blocked by a gate that stays.
    """
    out: list[Gate | None] = []
    # open_x[q] = index in `out` of an unmatched bare X on qubit q
    open_x: dict[int, int] = {}
    for gate in circuit.gates:
        q = gate.target
        if gate.kind == "x" and not gate.controls:
            if q in open_x:
                out[open_x.pop(q)] = None
                continue
            open_x[q] = len(out)
        else:  # pop each qubit directly: gate.qubits would build a tuple
            open_x.pop(q, None)
            for c, _ in gate.controls:
                open_x.pop(c, None)
        out.append(gate)
    return replace(circuit, gates=tuple(g for g in out if g is not None))


# ---------------------------------------------------------------------------
# Toffoli decompositions
# ---------------------------------------------------------------------------

def _ladder(circuit: Circuit, wants) -> Circuit:
    """Reduce each gate that ``wants`` picks to one control by a Toffoli chain.

    One walk groups each maximal run of consecutive picked gates that
    share one control tuple (polarities included, so a frame X or a
    polarity change ends a run).  With controls c1..ck the run's chain
    computes c1*c2 -> a1, c3*a1 -> a2, ... onto k-1 ancillas appended to
    ``circuit`` and shared by every run; the control polarities ride on
    the chain.  Each gate of the run, controlled by the last ancilla
    alone, sits between the chain and its mirror, which returns every
    ancilla to 0.  Each step is one ``Gate("x", a, (c1, c2))`` per
    (control, control, ancilla) for the whole call, so chains that share
    their leading controls share their steps' objects, and each distinct
    gate's ancilla-controlled copy is built once.
    """
    n = circuit.num_qubits
    step = functools.cache(lambda c1, c2, a: Gate("x", a, (c1, c2)))

    def lift(gate: Gate):
        if not wants(gate):
            return None, gate
        return gate.controls, Gate(gate.kind, gate.target,
                                   ((n + len(gate.controls) - 2, True),), gate.angle)

    out: list[Gate] = []
    extra = 0
    for c, run in itertools.groupby(_per_gate(circuit.gates, lift), itemgetter(0)):
        steps = [] if c is None else [step(c[0], c[1], n)] + [
            step(c[i], (n + i - 2, True), n + i - 1) for i in range(2, len(c))]
        extra = max(extra, len(steps))
        out += [*steps, *(gate for _, gate in run), *steps[::-1]]
    labels = circuit.labels + tuple(f"anc{i}" for i in range(extra)) if circuit.labels else ()
    return replace(circuit, num_qubits=n + extra, gates=tuple(out), labels=labels)


def _five_gate(gate: Gate) -> list[Gate]:
    """Exact five-gate form of a positive Toffoli (V = sqrt of X); others pass."""
    if gate.kind != "x" or len(gate.controls) != 2:
        return [gate]
    (a, _), (b, _) = gate.controls
    t = gate.target
    return [
        Gate("sx", t, ((b, True),)),
        Gate("x", b, ((a, True),)),
        Gate("sxdg", t, ((b, True),)),
        Gate("x", b, ((a, True),)),
        Gate("sx", t, ((a, True),)),
    ]


def mcx_ladder(circuit: Circuit) -> Circuit:
    """Reduce each X with three or more controls to true Toffolis.

    ``_ladder`` builds one chain of exact two-control Toffolis per run of
    such X gates that share a control tuple, over shared clean ancillas.
    """
    return _ladder(circuit, lambda g: g.kind == "x" and len(g.controls) >= 3)


def toffoli_five(circuit: Circuit) -> Circuit:
    """Rewrite each two-control X as two CX, two controlled sqrt(X) and one
    controlled inverse, after ``lower_negative_controls`` made controls positive."""
    return _rewrite(lower_negative_controls(circuit), _five_gate)


# ---------------------------------------------------------------------------
# Gray-code rewrite of uniformly controlled rotations
# ---------------------------------------------------------------------------

def _gray(i: int) -> int:
    return i ^ (i >> 1)


def _entangler(kind: str, control: int, target: int) -> Gate:
    # Z-conjugation flips RX and RY signs; X-conjugation flips RZ.
    if kind == "rx":
        return cz(control, target)
    return x(target, (control,))


def _walsh_angles(thetas: list[float]) -> list[float]:
    """Gray-ordered angles fsum(+-thetas) / size, by an exact butterfly.

    Angle i is the sum over patterns b of (-1)^popcount(b & gray(i)) *
    thetas[b], over size.  Every float is n / d with d a power of two,
    so over the largest d the signed sums are exact integers, found by
    an in-place Walsh-Hadamard butterfly in O(k * 2^k).  Int true
    division rounds correctly, so w / den is the float math.fsum gives;
    the division by size then repeats the reference formula's last step.
    """
    ratios = [t.as_integer_ratio() for t in thetas]
    den = max(d for _, d in ratios)
    w = [n * (den // d) for n, d in ratios]
    size = len(w)
    half = 1
    while half < size:
        for lo in range(0, size, 2 * half):
            mid, hi = lo + half, lo + 2 * half
            a, b = w[lo:mid], w[mid:hi]
            w[lo:hi] = [u + v for u, v in zip(a, b)] + [u - v for u, v in zip(a, b)]
        half *= 2
    return [(w[_gray(i)] / den) / size for i in range(size)]


def _rewrite_run(run: list[Gate], controls: list[int]) -> list[Gate]:
    """Replace one run over the sorted ``controls`` by its Gray-code form."""
    kind = run[0].kind
    target = run[0].target
    k = len(controls)
    size = 1 << k
    # pattern bit j corresponds to controls[j]
    bit = {q: 1 << j for j, q in enumerate(controls)}
    thetas = [0.0] * size
    for gate in run:
        pattern = 0
        for q, positive in gate.controls:
            if positive:
                pattern |= bit[q]
        thetas[pattern] += gate.angle
    alphas = _walsh_angles(thetas)
    entanglers = [_entangler(kind, q, target) for q in controls]
    out: list[Gate] = []
    for i in range(size):
        if alphas[i] != 0.0:
            out.append(Gate(kind, target, (), alphas[i]))
        diff = _gray(i) ^ _gray((i + 1) % size)
        out.append(entanglers[diff.bit_length() - 1])
    # adjacent copies of one entangler cancel once zero rotations are gone
    cancelled: list[Gate] = []
    for gate in out:
        if cancelled and cancelled[-1] is gate:
            cancelled.pop()
        else:
            cancelled.append(gate)
    return cancelled


def _run_key(gate: Gate):
    """Gates with equal keys form one run; None for every non-rotation."""
    if gate.kind not in ROTATION_KINDS:
        return None
    return gate.kind, gate.target, sorted(q for q, _ in gate.controls)


def graycode_optimize(circuit: Circuit) -> Circuit:
    """Flatten uniformly controlled rotation runs to single-control form.

    A run is a maximal stretch of consecutive rotations of one kind on
    one target whose gates all control on the same qubit set.  Each run
    is replaced by plain rotations interleaved with entanglers along a
    Gray sequence; the new angles solve the sign system tying per-pattern
    angles to path contributions.  Runs that do not cover every control
    pattern are padded with zero angles; zero-angle outputs are dropped.
    Gates that are not controlled rotations pass through untouched.

    A run over k controls costs O(k * 2^k) exact integer operations (a
    Walsh-Hadamard butterfly), and its angles are bit for bit the
    correctly rounded sums of the O(4^k) sign-system solution.

    Precondition: run it before emission, as ``--opt graycode`` does.  Read
    back from QASM, frame X gates part the rotations and each becomes a
    2^k-gate run: 701,075 gates for a 2^10-bin PMF, 2,045 as synthesized.
    """
    out: list[Gate] = []
    for key, run in itertools.groupby(circuit.gates, _run_key):
        if key and key[2]:
            out.extend(_rewrite_run(list(run), key[2]))
        else:
            out.extend(run)
    return replace(circuit, gates=tuple(out))


# ---------------------------------------------------------------------------
# symmetric distributions
# ---------------------------------------------------------------------------

def _shift(gate: Gate, offset: int) -> Gate:
    return Gate(
        gate.kind,
        gate.target + offset,
        tuple((q + offset, pol) for q, pol in gate.controls),
        gate.angle,
    )


def symmetric_optimize(pmf: Pmf, kind: str) -> Circuit:
    """Prepare a symmetric distribution with a shared half-size subtree.

    ``duplicate`` requires the first and second halves of the PMF to be
    equal: the branching qubit gets a plain H and the halved distribution
    is prepared once, uncontrolled.  ``mirror`` requires bin i to equal
    bin (last - i): after the same H and shared preparation, a CX fans
    the branching qubit onto every lower qubit, reflecting the second
    half out of the first.  Raises NoSymmetry when the required relation
    fails.  From an ``AngleTree``, pass ``Pmf(tree.leaf_probs)``.
    """
    probs = tuple(pmf)
    size = len(probs)
    nq = (size - 1).bit_length()
    half = size // 2
    if kind == "duplicate":
        mismatch = any(
            abs(probs[i] - probs[half + i]) > SYMMETRY_TOLERANCE for i in range(half)
        )
    elif kind == "mirror":
        mismatch = any(
            abs(probs[i] - probs[size - 1 - i]) > SYMMETRY_TOLERANCE
            for i in range(half)
        )
    else:
        raise ValueError(f"unknown symmetry kind {kind!r}")
    if mismatch or size < 2:
        raise NoSymmetry(f"bins lack the {kind} symmetry")

    gates: list[Gate] = [h(0)]
    if half > 1:
        shared = Pmf(probs=tuple(2.0 * p for p in probs[:half]))
        sub = synth_amplitude(shared)
        gates.extend(_shift(g, 1) for g in sub.gates)
    if kind == "mirror":
        gates.extend(x(q, (0,)) for q in range(1, nq))
    return Circuit(num_qubits=nq, gates=tuple(gates))


# ---------------------------------------------------------------------------
# full lowering to a uniform gate vocabulary
# ---------------------------------------------------------------------------

_T = math.pi / 4


def _relative_toffoli(step: Gate) -> list[Gate]:
    """Toffoli times diag(-1 on |a=1, b=0, t=1>) over {ry, cx}; its own inverse.

    For chain steps only, whose mirror cancels the phase (Barenco et al.
    1995, section 6.2): 7 gates where the exact body takes 15.
    """
    (a, _), (b, _), t = *step.controls, step.target
    return [ry(_T, t), x(t, (b,)), ry(_T, t), x(t, (a,)),
            ry(-_T, t), x(t, (b,)), ry(-_T, t)]


def lower_to_uniform(circuit: Circuit) -> Circuit:
    """Rewrite to {rx, ry, rz, cx, x, h}, up to global phase.

    Negative controls become positive through the X frame of
    ``lower_negative_controls``; every gate with two or more controls
    but a Toffoli goes through ``_ladder``'s chain (with shared appended
    ancillas), one chain per run of gates that share a control tuple.
    A Toffoli onto an appended ancilla is a chain step and becomes the
    7-gate relative-phase Toffoli, whose phase the step's mirror cancels.
    Every other gate is ``qasm._inline``'d: it stays if the uniform set has
    it, else it becomes the body of the definition the emitter writes for
    it, with u1 read as rz (a Toffoli of the input: the 15 gates of ccx).
    Each distinct gate object is lowered once, and the output repeats
    those immutable Gate instances wherever the same expansion recurs.
    """
    n = circuit.num_qubits
    laddered = _ladder(lower_negative_controls(circuit),
                       lambda g: len(g.controls) > 2 or len(g.controls) == 2 and g.kind != "x")
    # a gate onto an appended ancilla is a chain step
    return _rewrite(laddered, lambda g: _relative_toffoli(g) if g.target >= n else _inline(g))


PASSES = {
    "double-x": remove_double_x,
    "mcx-ladder": mcx_ladder,
    "toffoli-5": toffoli_five,
    "graycode": graycode_optimize,
}


def apply_passes(circuit: Circuit, names) -> Circuit:
    """Run named circuit passes in order (CLI flag spellings)."""
    for name in names:
        try:
            step = PASSES[name]
        except KeyError:
            raise ValueError(f"unknown pass {name!r}") from None
        circuit = step(circuit)
    return circuit

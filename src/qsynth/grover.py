"""Grover search assembled from cube-list predicates.

The oracle marks satisfying basis states by toggling an ancilla held in
the |-> state (phase kickback), one multi-controlled X per predicate
cube; overlapping cubes are first rewritten to exclusive form so each
solution is flipped exactly once.  The diffusion stage is the standard
inversion about the mean.  The rotation picture (the exact angle a
single iteration advances the state) drives both the analytic success
formula and the sweep table.
"""

from __future__ import annotations

import io
import csv
import math
from dataclasses import dataclass

from .circuit import Circuit, Gate, h, x
from .errors import AllSolutions, NoSolutions
from .esop import _cover_to_xor, synth_esop
from .funcprep import expand
from .pla import PlaTable
from .simulate import _distribution_of, sample

SUIT_BITS = {"clubs": "00", "hearts": "01", "diamonds": "10", "spades": "11"}
CARD_BITS = 6


@dataclass(frozen=True)
class GroverSpec:
    """Search problem: an n-bit database and a one-output predicate."""

    n: int
    predicate: PlaTable
    k: int
    shots: int = 1024

    def __post_init__(self) -> None:
        if self.predicate.n != self.n or self.predicate.m != 1:
            raise ValueError(
                f"predicate must be {self.n}-input single-output, got "
                f"{self.predicate.n}x{self.predicate.m}"
            )
        if self.k < 0:
            raise ValueError("iteration count must be >= 0")


def solutions(spec: GroverSpec) -> set[int]:
    """Satisfying minterms; raises if the search would be degenerate."""
    hits = {ins for ins, outs in expand(spec.predicate).rows if outs == "1"}
    if not hits:
        raise NoSolutions("predicate marks no states")
    if len(hits) == 1 << spec.n:
        raise AllSolutions("predicate marks every state")
    return {int(ins, 2) for ins in hits}


def _oracle_gates(spec: GroverSpec) -> tuple[Gate, ...]:
    return synth_esop(_cover_to_xor(spec.predicate)).gates


def _diffusion_gates(n: int) -> list[Gate]:
    gates: list[Gate] = [h(q) for q in range(n)]
    gates += [x(q) for q in range(n)]
    gates.append(h(n - 1))
    gates.append(Gate("x", n - 1, tuple((q, True) for q in range(n - 1))))
    gates.append(h(n - 1))
    gates += [x(q) for q in range(n)]
    gates += [h(q) for q in range(n)]
    return gates


def build_grover(spec: GroverSpec) -> Circuit:
    """Initialization, k oracle/diffusion rounds, data measurement.

    Uses n+1 qubits; the last is the kickback ancilla, prepared in |->
    and never measured.
    """
    solutions(spec)  # validate 1 <= M < N
    n = spec.n
    gates: list[Gate] = [h(q) for q in range(n)]
    gates += [x(n), h(n)]
    oracle = _oracle_gates(spec)
    diffusion = _diffusion_gates(n)
    for _ in range(spec.k):
        gates += oracle
        gates += diffusion
    labels = tuple(f"x{i}" for i in range(n)) + ("anc",)
    return Circuit(n + 1, tuple(gates), labels, measured=tuple(range(n)))


def success_probability(N: int, M: int, k: int) -> float:
    """Mass on solutions after k rounds: sin^2((2k+1) * arcsin(sqrt(M/N)))."""
    if not 1 <= M < N:
        raise ValueError(f"need 1 <= M < N, got M={M}, N={N}")
    if k < 0:
        raise ValueError("iteration count must be >= 0")
    half_theta = math.asin(math.sqrt(M / N))
    return math.sin((2 * k + 1) * half_theta) ** 2


@dataclass(frozen=True)
class SweepRow:
    k: int
    p_analytic: float
    p_simulated: float
    shots: int
    hits: int


def iteration_sweep(spec: GroverSpec, k_max: int, seed: int = 0) -> list[SweepRow]:
    """Analytic vs simulated success per iteration count 0..k_max.

    Iteration counts are not monotone in quality: the rotation picture
    oscillates, so small problems can get worse with more rounds.  The
    sampled ``hits`` column quantifies what the given shot budget would
    actually observe.
    """
    sols = solutions(spec)
    N = 1 << spec.n
    M = len(sols)
    rows = []
    for k in range(k_max + 1):
        circ = build_grover(GroverSpec(n=spec.n, predicate=spec.predicate,
                                       k=k, shots=spec.shots))
        dist, _ = _distribution_of(circ)
        p_sim = math.fsum(dist[s] for s in sols)
        hist = sample(dist, spec.shots, seed=seed + k)
        hits = sum(
            count for bits, count in hist.counts.items() if int(bits, 2) in sols
        )
        rows.append(SweepRow(
            k=k,
            p_analytic=success_probability(N, M, k),
            p_simulated=p_sim,
            shots=spec.shots,
            hits=hits,
        ))
    return rows


def sweep_csv(rows) -> str:
    """Serialize sweep rows with a fixed header."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "p_analytic", "p_simulated", "shots", "hits"])
    for row in rows:
        writer.writerow([row.k, repr(row.p_analytic), repr(row.p_simulated),
                         row.shots, row.hits])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# deck-of-cards predicates
# ---------------------------------------------------------------------------

def card_cube(suit: str | None = None, value: int | None = None) -> str:
    """Six-bit cube matching a suit and/or a value (1=ace .. 13=king).

    Two suit bits come first, then four value bits; unconstrained fields
    are dashes.
    """
    if suit is None and value is None:
        raise ValueError("constrain at least one of suit and value")
    if suit is not None:
        if suit not in SUIT_BITS:
            raise ValueError(f"unknown suit {suit!r}")
        s = SUIT_BITS[suit]
    else:
        s = "--"
    if value is not None:
        if not 1 <= value <= 13:
            raise ValueError(f"card value must be 1..13, got {value}")
        v = format(value, "04b")
    else:
        v = "----"
    return s + v


def card_predicate(suit: str | None = None, value: int | None = None) -> PlaTable:
    """Single-cube search predicate over the six-bit card encoding."""
    return PlaTable(n=CARD_BITS, m=1, rows=((card_cube(suit, value), "1"),))

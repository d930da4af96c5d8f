"""Shared fixtures and equivalence helpers for the test suite."""

import random
from pathlib import Path

import numpy as np
import pytest

from qsynth.circuit import Circuit, Gate
from qsynth.simulate import run_statevector

BENCH_DIR = Path(__file__).resolve().parent.parent / "src" / "qsynth" / "benchmarks"


@pytest.fixture
def rng():
    return random.Random(20240811)


@pytest.fixture
def nprng():
    return np.random.default_rng(20240811)


def bench_path(name: str) -> Path:
    return BENCH_DIR / name


def unitary(circuit: Circuit) -> np.ndarray:
    """Full unitary, one statevector run per basis column. Keep it small."""
    dim = 1 << circuit.num_qubits
    cols = [run_statevector(circuit, initial=i).amplitudes for i in range(dim)]
    return np.array(cols).T


def project_unitary(circuit: Circuit, main_qubits: int) -> np.ndarray:
    """Unitary restricted to ancillas staying |0>.

    Runs each basis state of the first ``main_qubits`` qubits with all
    ancillas cleared and checks the ancillas come back clean.
    """
    anc = circuit.num_qubits - main_qubits
    dim = 1 << main_qubits
    cols = []
    for i in range(dim):
        state = run_statevector(circuit, initial=i << anc)
        amps = state.amplitudes.reshape(dim, 1 << anc)
        if anc and np.linalg.norm(amps[:, 1:]) > 1e-9:
            raise AssertionError("ancilla qubits left dirty")
        cols.append(amps[:, 0])
    return np.array(cols).T


def same_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """Matrix (or vector) equality modulo one global phase."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) < 1e-12:
        return bool(np.allclose(a, b, atol=tol))
    phase = a[idx] / b[idx]
    if abs(abs(phase) - 1.0) > tol:
        return False
    return bool(np.allclose(a, phase * b, atol=tol))


def random_permutation_table(rng, n: int):
    from qsynth.funcprep import TruthTable

    perm = list(range(1 << n))
    rng.shuffle(perm)
    return TruthTable(n=n, m=n, entries={i: perm[i] for i in range(1 << n)})


def random_circuit(rng, num_qubits: int, num_gates: int,
                   kinds=("x", "h", "z", "rx", "ry", "rz", "sx", "sxdg"),
                   max_controls: int = 2) -> Circuit:
    """A random mixed circuit; control counts capped by the qubit budget."""
    gates = []
    for _ in range(num_gates):
        kind = rng.choice(kinds)
        target = rng.randrange(num_qubits)
        limit = min(max_controls, num_qubits - 1)
        k = rng.randint(0, limit)
        pool = [q for q in range(num_qubits) if q != target]
        controls = tuple(
            (q, rng.random() < 0.5) for q in sorted(rng.sample(pool, k)))
        angle = rng.uniform(0.1, 6.0) if kind in ("rx", "ry", "rz") else None
        gates.append(Gate(kind, target, controls, angle))
    return Circuit(num_qubits=num_qubits, gates=tuple(gates))

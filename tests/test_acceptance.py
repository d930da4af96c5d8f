"""Release gate: one test per headline guarantee of the toolkit.

Module tests cover internals.  Each test here pins an end-to-end behavior
at its stated tolerance, so a failing line names the broken guarantee
directly.  Everything is seeded; a red run is a regression, not noise.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from qsynth.circuit import Circuit, Gate, lower_negative_controls, metrics
from qsynth.encoding import read_pmf, synth_amplitude
from qsynth.esop import synth_esop, to_esop
from qsynth.funcprep import (
    TruthTable,
    assign_dont_cares,
    expand,
    normalize_pmf,
    prepare_bijection,
    to_truth_table,
)
from qsynth.grover import GroverSpec, build_grover, card_predicate, iteration_sweep
from qsynth.optimize import (
    graycode_optimize,
    mcx_ladder,
    remove_double_x,
    symmetric_optimize,
    toffoli_five,
)
from qsynth.pla import parse_pla, write_pla
from qsynth.qasm import emit_qasm, parse_qasm
from qsynth.simulate import (
    CountHistogram,
    calibrate_shots_report,
    run_reversible_table,
    run_statevector,
)
from qsynth.stats import g_statistic, js_divergence, kl_divergence
from qsynth.tbs import synth_tbs_basic, synth_tbs_rm

from conftest import bench_path, project_unitary, random_circuit, unitary

ESOP_QUBITS = {
    "squar5": 13, "Z9sym": 10, "inc": 16, "Z5xp1": 17, "dist": 13,
    "f51m": 16, "mlp4": 16, "clip": 14, "addm4": 17, "b11": 39,
    "apex4": 28, "ex5": 71,
}
TBS_QUBITS = {
    "squar5": 9, "Z9sym": 10, "Z5xp1": 10, "dist": 10, "f51m": 8, "clip": 11,
}
QRNG_NAMES = ("uniform", "binomial", "triangle", "bimodal", "arbitrary")
TIME_BUDGET_S = 60.0


def load_pla(name):
    return parse_pla(bench_path(f"{name}.pla").read_text())


def load_pmf(name):
    heights = read_pmf(bench_path(f"{name}.pmf").read_text())
    return normalize_pmf(heights, mode="probability")


def flat_table(pla):
    return to_truth_table(assign_dont_cares(expand(pla)))


def multiplexed_run(kind, target, controls, angles):
    """One rotation per control pattern, every pattern present."""
    gates = []
    for pattern, angle in enumerate(angles):
        ctl = tuple((q, bool((pattern >> j) & 1)) for j, q in enumerate(controls))
        gates.append(Gate(kind, target, ctl, angle))
    return gates


def test_benchmark_qubit_counts():
    for name, expected in ESOP_QUBITS.items():
        pla = load_pla(name)
        start = time.monotonic()
        circ = synth_esop(to_esop(pla))
        elapsed = time.monotonic() - start
        assert circ.num_qubits == expected == pla.n + pla.m, name
        assert elapsed < TIME_BUDGET_S, f"{name} esop took {elapsed:.1f}s"
    for name, expected in TBS_QUBITS.items():
        start = time.monotonic()
        onto, rtt = prepare_bijection(load_pla(name))
        circ = synth_tbs_basic(onto)
        elapsed = time.monotonic() - start
        assert circ.num_qubits == expected == rtt.table.n, name
        assert elapsed < TIME_BUDGET_S, f"{name} tbs took {elapsed:.1f}s"


def test_truth_table_equivalence():
    mismatches = 0

    narrow = sorted(n for n, q in ESOP_QUBITS.items() if q <= 16)
    assert narrow == sorted(["squar5", "Z9sym", "inc", "dist", "f51m",
                             "mlp4", "clip"])
    for name in narrow:
        pla = load_pla(name)
        table = flat_table(pla)
        circ = synth_esop(to_esop(pla))
        inputs = sorted(table.entries)
        mask = (1 << pla.m) - 1
        outs = run_reversible_table(circ, [x << pla.m for x in inputs])
        for x, word in zip(inputs, outs):
            if word & mask != table.entries[x] or word >> pla.m != x:
                mismatches += 1

    for name in TBS_QUBITS:
        pla = load_pla(name)
        table = flat_table(pla)
        onto, rtt = prepare_bijection(pla)
        inputs = sorted(table.entries)
        words = [rtt.input_map[x] for x in inputs]
        for synth in (synth_tbs_basic, synth_tbs_rm):
            outs = run_reversible_table(synth(onto), words)
            for x, word in zip(inputs, outs):
                if rtt.extract_output(word) != table.entries[x]:
                    mismatches += 1
    assert mismatches == 0

    domain = range(8)
    for perm in itertools.permutations(domain):
        table = TruthTable(n=3, m=3, entries=dict(enumerate(perm)))
        for synth in (synth_tbs_basic, synth_tbs_rm):
            assert tuple(run_reversible_table(synth(table), domain)) == perm


def test_qrng_fidelity():
    for name in QRNG_NAMES:
        pmf = load_pmf(name)
        circ = synth_amplitude(pmf)
        assert circ.num_qubits == 5, name
        assert metrics(circ).parameterized_gate_count == 31, name
        dist = run_statevector(circ).distribution()
        assert np.max(np.abs(dist - np.asarray(pmf.probs))) <= 1e-10, name

    dist = run_statevector(synth_amplitude(load_pmf("binomial"))).distribution()
    for k in range(32):
        weight = math.comb(5, k) / 32 if k <= 5 else 0.0
        assert abs(dist[k] - weight) <= 1e-12


def test_shot_calibration():
    published = {"uniform": 34_500, "bimodal": 6_000}
    for name, target in published.items():
        pmf = load_pmf(name)
        report = calibrate_shots_report(pmf, synth_amplitude(pmf), seed=0)
        assert target / 4 <= report.shots <= target * 4, (name, report.shots)
        assert report.g < 1e-3, (name, report.g)
        assert report.p > 0.97, (name, report.p)


def test_optimization_soundness():
    rng = random.Random(20260819)
    checked = 0

    def assert_close(a, b, label):
        assert np.max(np.abs(np.asarray(a) - np.asarray(b))) <= 1e-9, label

    # small circuits: exact unitary comparison for three rewrites
    for i in range(110):
        qubits = rng.randint(3, 6)
        circ = random_circuit(rng, qubits, rng.randint(10, 22),
                              kinds=("x", "h", "rx", "ry", "rz"),
                              max_controls=3)
        ref = unitary(circ)
        assert_close(unitary(remove_double_x(circ)), ref, f"double-x #{i}")
        ladder = mcx_ladder(circ)
        assert_close(project_unitary(ladder, qubits), ref, f"ladder #{i}")
        assert_close(unitary(toffoli_five(circ)), ref,
                     f"five-gate #{i}")
        checked += 1

    # larger circuits: basis-state spot checks after the ladder rewrite
    for i in range(30):
        qubits = rng.randint(8, 10)
        circ = random_circuit(rng, qubits, 24,
                              kinds=("x", "h", "rx", "ry", "rz"),
                              max_controls=4)
        lowered = remove_double_x(mcx_ladder(circ))
        anc = lowered.num_qubits - qubits
        for word in rng.sample(range(1 << qubits), 6):
            want = run_statevector(circ, initial=word).amplitudes
            got = run_statevector(lowered, initial=word << anc).amplitudes
            block = got.reshape(1 << qubits, 1 << anc)
            if anc:
                assert np.linalg.norm(block[:, 1:]) <= 1e-9, f"large #{i}"
            assert_close(block[:, 0], want, f"large #{i}")
        checked += 1

    # multiplexed rotation runs must flatten to single-control form
    for i in range(40):
        n_controls = rng.randint(1, 4)
        qubits = n_controls + 1
        order = list(range(qubits))
        rng.shuffle(order)
        target, controls = order[0], sorted(order[1:])
        kind = rng.choice(("rx", "ry", "rz"))
        angles = [rng.uniform(0.1, 3.0) for _ in range(1 << n_controls)]
        circ = Circuit(num_qubits=qubits,
                       gates=tuple(multiplexed_run(kind, target, controls,
                                                   angles)))
        flat = graycode_optimize(circ)
        assert all(len(g.controls) <= 1 for g in flat.gates), f"graycode #{i}"
        assert_close(unitary(flat), unitary(circ), f"graycode #{i}")
        checked += 1

    # pure Toffoli mixes for the five-gate rewrite
    for i in range(20):
        qubits = rng.randint(3, 5)
        circ = random_circuit(rng, qubits, 14, kinds=("x",), max_controls=2)
        five = toffoli_five(circ)
        assert_close(unitary(five), unitary(circ), f"toffoli mix #{i}")
        checked += 1

    assert checked == 200

    # symmetric state preparation stays faithful and saves >= 40% rotations
    for i in range(3):
        half = [rng.uniform(0.2, 1.0) for _ in range(16)]
        for tail, kind in ((half, "duplicate"), (half[::-1], "mirror")):
            pmf = normalize_pmf(half + tail, mode="probability")
            base = synth_amplitude(pmf)
            opt = symmetric_optimize(pmf, kind)
            saved = 1 - (metrics(opt).parameterized_gate_count
                         / metrics(base).parameterized_gate_count)
            assert saved >= 0.4, (kind, saved)
            got = run_statevector(opt).distribution()
            assert_close(got, pmf.probs, f"symmetric {kind} #{i}")


def test_grover_success_rates():
    start = time.monotonic()

    diamonds = GroverSpec(n=6, predicate=card_predicate("diamonds", 10), k=6)
    circ = build_grover(diamonds)
    dist = run_statevector(circ).distribution(circ.measured)
    assert dist[0b101010] >= 0.99

    clubs = GroverSpec(n=6, predicate=card_predicate("clubs"), k=0)
    rows = iteration_sweep(clubs, 12, seed=7)
    theta_half = math.asin(math.sqrt(16 / 64))
    for row in rows:
        model = math.sin((2 * row.k + 1) * theta_half) ** 2
        assert abs(row.p_simulated - model) <= 1e-9, row.k
        assert abs(row.p_analytic - model) <= 1e-12, row.k
    by_k = {row.k: row.p_simulated for row in rows}
    floor = min(by_k.values())
    assert by_k[1] == pytest.approx(1.0, abs=1e-9)
    assert by_k[4] == pytest.approx(1.0, abs=1e-9)
    assert by_k[2] == pytest.approx(floor, abs=1e-9)
    assert by_k[8] == pytest.approx(floor, abs=1e-9)
    assert floor == pytest.approx(0.25, abs=1e-9)

    assert time.monotonic() - start < TIME_BUDGET_S


def test_statistics_identities():
    rng = random.Random(20260407)
    ln2 = math.log(2)
    for trial in range(1000):
        bits = rng.choice((2, 3, 4, 5))
        bins = 1 << bits
        q = np.array([rng.uniform(0.05, 1.0) for _ in range(bins)])
        q /= q.sum()
        counts = {format(i, f"0{bits}b"): rng.randint(0, 60)
                  for i in range(bins)}
        counts = {k: v for k, v in counts.items() if v} or {"0" * bits: 5}
        shots = sum(counts.values())
        hist = CountHistogram(counts=counts, shots=shots, num_bits=bits)
        g, p = g_statistic(hist, q)
        kl = kl_divergence(hist.empirical(), q)
        assert math.isclose(g, 2 * shots * kl, rel_tol=1e-9, abs_tol=1e-12)
        assert kl >= 0.0
        assert 0.0 <= p <= 1.0
        if trial % 5 == 0:
            r = np.array([rng.uniform(0.05, 1.0) for _ in range(bins)])
            r /= r.sum()
            forward, backward = js_divergence(q, r), js_divergence(r, q)
            assert forward >= 0.0
            assert forward <= ln2 + 1e-12
            assert math.isclose(forward, backward, rel_tol=1e-12, abs_tol=1e-15)

    # observed == expected gives a G of exactly zero and certainty p
    hist = CountHistogram(counts={"00": 10, "01": 20, "10": 40, "11": 10},
                          shots=80, num_bits=2)
    g, p = g_statistic(hist, [0.125, 0.25, 0.5, 0.125])
    assert g == 0.0
    assert p == 1.0


def test_round_trip_stability():
    for name in ESOP_QUBITS:
        text = bench_path(f"{name}.pla").read_text()
        assert write_pla(parse_pla(text)) == text, name

    rng = random.Random(20260101)
    circuits = [
        synth_esop(to_esop(load_pla("squar5"))),
        synth_tbs_basic(prepare_bijection(load_pla("f51m"))[0]),
        synth_amplitude(load_pmf("triangle")),
        build_grover(GroverSpec(n=6, predicate=card_predicate("clubs"), k=1)),
    ]
    circuits += [random_circuit(rng, 4, 12) for _ in range(10)]
    for i, circ in enumerate(circuits):
        text = emit_qasm(circ)
        assert emit_qasm(parse_qasm(text)) == text, f"circuit #{i}"
        reference = lower_negative_controls(circ)
        recovered = parse_qasm(text)
        size = 1 << circ.num_qubits
        for word in (0, size - 1, rng.randrange(size)):
            a = run_statevector(recovered, initial=word).amplitudes
            b = run_statevector(reference, initial=word).amplitudes
            assert np.max(np.abs(a - b)) <= 1e-12, f"circuit #{i}"

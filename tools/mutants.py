"""Re-run the recorded mutation checks: each mutant must make its tests fail.

A mutant is a list of exact text replacements in one file of
``src/qsynth`` (most have one), plus the tests that must fail once it is
applied.  The tool copies ``src/`` and ``tests/`` into a temporary
directory, first runs every listed test on the unmutated copy (they
must pass there), then applies each mutant in turn, runs only its tests
with pytest, and restores the file.  The repository itself is never
written.

A mutant is killed when one of its tests fails, and survives when they
all pass.  An old text that is not in its file exactly once is an
error, not a skip, so a change that moves mutated code must move the
mutant with it; so is a pytest run that neither passes nor fails (a
test id that does not exist, a collection error).  Run from anywhere
(about three minutes on 2 CPUs):

    python3 tools/mutants.py

Prints one line per mutant and a summary.  Exit code 0 only when every
mutant is killed, 1 when one survives, 2 on an error.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/qsynth
    edits: tuple[tuple[str, str], ...]  # (old text, new text), in order
    tests: tuple[str, ...]


ESOP_PROPERTY = "tests/test_esop.py::TestEvaluateTable::test_matches_per_row_reference"
METRICS_PROPERTY = "tests/test_circuit.py::test_metrics_matches_per_gate_reference"
LOWERING_PROPERTY = (
    "tests/test_optimize.py::TestLowerToUniform::test_runs_of_shared_controls_property")
READ_WRITE_PROPERTY = "tests/test_qasm.py::test_read_write_match_reference"
FRAME_PROPERTY = "tests/test_circuit.py::test_lower_negative_controls_frame_matches_conjugation"
CHECK_PROPERTY = "tests/test_circuit.py::test_circuit_checks_match_reference"
ADDRESS_ORDER = "tests/test_encoding.py::TestMemoryImage::test_addresses_read_in_ascending_order"
ROUND_TRIP_PROPERTY = "tests/test_qasm.py::test_emit_parse_gives_back_the_circuit"
BODY_MEANING = "tests/test_qasm.py::TestDefinitionSemantics::test_each_body_means_its_gate"
EACH_KIND_LOWERED = (
    "tests/test_optimize.py::TestLowerToUniform::test_each_kind_lowers_to_its_own_unitary")
GATE_VALIDATION = "tests/test_circuit.py::test_gate_validation"
FIELD_RULES = "tests/test_circuit.py::test_fields_its_qasm_cannot_carry_are_rejected"

MUTANTS = (
    # the bit-sliced ESOP reference of `qsynth verify`
    Mutant("esop-zero-literal-uncomplemented", "esop.py", (
        ('match &= columns[j] if c == "1" else ~columns[j]',
         'match &= columns[j] if c == "1" else columns[j]'),), (ESOP_PROPERTY,)),
    Mutant("esop-or-into-output", "esop.py", (
        ("outputs[k] ^= match", "outputs[k] |= match"),), (ESOP_PROPERTY,)),
    # an XOR cube list has no output don't-care: none may be read as 0
    Mutant("esop-output-dash-read-as-0", "esop.py", (
        ('    if any("-" in outs for _, outs in table.rows):\n'
         '        raise WidthMismatch("assign output don\'t-cares before building an exclusive '
         'cover")\n', ""),),
        ("tests/test_esop.py::TestToEsop::test_output_dash_rejected",
         "tests/test_esop.py::test_output_dash_rejected")),
    # metrics' one walk
    Mutant("metrics-no-multi-qubit-level", "circuit.py", (
        ("            for q in qs:\n                level[q] = d\n", ""),), (METRICS_PROPERTY,)),
    Mutant("metrics-params-per-distinct-gate", "circuit.py", (
        ("cost, max(level), params)",
         "cost, max(level), sum(g.angle is not None for g in _distinct(circuit.gates)))"),),
        (METRICS_PROPERTY,)),
    # one Toffoli chain per run of shared controls
    Mutant("ladder-no-uncompute", "optimize.py", (
        ("out += [*steps, *(gate for _, gate in run), *steps[::-1]]",
         "out += [*steps, *(gate for _, gate in run)]"),), (LOWERING_PROPERTY,)),
    Mutant("ladder-runs-ignore-polarity", "optimize.py", (
        ("    for c, run in itertools.groupby(_per_gate(circuit.gates, lift), itemgetter(0)):\n",
         "    for _, run in itertools.groupby(_per_gate(circuit.gates, lift),\n"
         "                                    lambda p: p[0] and [q for q, _ in p[0]]):\n"
         "        run = list(run)\n"
         "        c = run[0][0]\n"),), (LOWERING_PROPERTY,)),
    Mutant("relative-phase-payload-toffoli", "optimize.py", (
        ("_relative_toffoli(g) if g.target >= n else _inline(g)",
         "_relative_toffoli(g) if len(g.controls) == 2 else _inline(g)"),),
        (LOWERING_PROPERTY, EACH_KIND_LOWERED)),
    # a mirror whose relative phase is not its chain's: the 7 gates reversed
    # with their angles unchanged (-1 on |a=1, b=0, t=0>), and the mirror a
    # copy with swapped controls.  Either edit alone is an equivalent mutant:
    # the reversed step is its own inverse too, and a swapped copy of the
    # committed step puts its -1 on a state a clean ancilla never reaches.
    Mutant("mirror-phase-not-the-chains", "optimize.py", (
        ("return [ry(_T, t), x(t, (b,)), ry(_T, t), x(t, (a,)),\n"
         "            ry(-_T, t), x(t, (b,)), ry(-_T, t)]",
         "return [ry(-_T, t), x(t, (b,)), ry(-_T, t), x(t, (a,)),\n"
         "            ry(_T, t), x(t, (b,)), ry(_T, t)]"),
        ("*steps[::-1]]", "*(step(*s.controls[::-1], s.target) for s in steps[::-1])]")),
        (LOWERING_PROPERTY,)),
    # QASM read and write, once per gate shape; cz reads back as a controlled z
    Mutant("parse-cz-own-kind", "qasm.py", (
        ('_NAME_TABLE.update(ccx=("x", 2))', '_NAME_TABLE.update(ccx=("x", 2), cz=("cz", 1))'),),
        (ROUND_TRIP_PROPERTY, READ_WRITE_PROPERTY,
         "tests/test_qasm.py::TestParse::test_round_trip_gates")),
    Mutant("parse-shape-hit-reuses-angle", "qasm.py", (
        ("gate = Gate(*shape, _angle(param, stmt))", "gate = Gate(*shape)"),
        ("shape_of[head, tail] = gate.kind, gate.target, gate.controls",
         "shape_of[head, tail] = gate.kind, gate.target, gate.controls, gate.angle")),
        (READ_WRITE_PROPERTY,)),
    Mutant("parse-shape-key-without-operands", "qasm.py", (
        ('param, _, tail = rest.partition(")")',
         'param, _, tail = *rest.partition(")")[:2], ""'),), (READ_WRITE_PROPERTY,)),
    Mutant("emit-shape-key-without-controls", "qasm.py", (
        ("key = gate.kind, gate.target, gate.controls", "key = gate.kind, gate.target"),
        ("shapes.setdefault(key, shape(*key))",
         "shapes.setdefault(key, shape(*key, gate.controls))")), (READ_WRITE_PROPERTY,)),
    # the X frame of lower_negative_controls, Gate.qubits and the Circuit check
    Mutant("frame-kept-under-other-targets", "circuit.py", (
        ('if frame[gate.target] and gate.kind != "x":',
         'if frame[gate.target] and gate.kind == "x":'),),
        (FRAME_PROPERTY,)),
    Mutant("frame-skips-target-flush", "circuit.py", (
        ('        if frame[gate.target] and gate.kind != "x":\n'
         "            frame[gate.target] = False\n"
         "            out.append(flips[gate.target])\n", ""),),
        (FRAME_PROPERTY,
         "tests/test_circuit.py::test_lower_negative_controls_flushes_before_other_targets")),
    Mutant("frame-comparison-inverted", "circuit.py", (
        ("if frame[q] == pos:", "if frame[q] != pos:"),), (FRAME_PROPERTY,)),
    Mutant("positive-copy-keeps-controls", "circuit.py", (
        ("gate.kind, gate.target, tuple([(q, True) for q, _ in gate.controls]), gate.angle)",
         "gate.kind, gate.target, gate.controls, gate.angle)"),), (FRAME_PROPERTY,)),
    Mutant("qubits-without-target", "circuit.py", (
        ("return (*[q for q, _ in self.controls], self.target)",
         "return tuple([q for q, _ in self.controls])"),), (METRICS_PROPERTY,)),
    Mutant("circuit-accepts-unknown-kind", "circuit.py", (
        ("            if g.kind not in GATE_KINDS:\n"
         '                raise ValueError(f"unknown gate kind {g.kind!r}")\n', ""),),
        (CHECK_PROPERTY, GATE_VALIDATION)),
    Mutant("circuit-accepts-fixed-kind-angle", "circuit.py", (
        ("            elif g.angle is not None:\n"
         '                raise ValueError(f"{g}: only rotations take an angle")\n', ""),),
        (CHECK_PROPERTY, GATE_VALIDATION)),
    Mutant("circuit-accepts-target-as-control", "circuit.py", (
        ("if len(cs) != len(g.controls) or g.target in cs:", "if len(cs) != len(g.controls):"),),
        (CHECK_PROPERTY, GATE_VALIDATION)),
    Mutant("circuit-drops-control-lower-bound", "circuit.py", (
        ("and type(q) is int and 0 <= q < n}", "and type(q) is int and q < n}"),),
        (GATE_VALIDATION,)),
    Mutant("circuit-drops-control-upper-bound", "circuit.py", (
        ("and type(q) is int and 0 <= q < n}", "and type(q) is int and 0 <= q}"),),
        (CHECK_PROPERTY, GATE_VALIDATION)),
    Mutant("circuit-accepts-same-control-twice", "circuit.py", (
        ("len(cs) != len(g.controls)", "len(cs) < len(set(g.controls))"),), (GATE_VALIDATION,)),
    Mutant("target-range-check-reads-qubit-0", "circuit.py", (
        ("if not 0 <= g.target < n:", "if not 0 <= 0 < n:"),), (CHECK_PROPERTY,)),
    Mutant("circuit-accepts-non-int-target", "circuit.py", (
        ("type(g.target) is int and isinstance(g.controls, tuple)",
         "isinstance(g.controls, tuple)"),),
        (CHECK_PROPERTY, "tests/test_circuit.py::test_non_int_targets_fail_loudly")),
    Mutant("circuit-accepts-bool-control", "circuit.py", (
        ("and type(q) is int and 0 <= q < n}", "and 0 <= q < n}"),),
        (CHECK_PROPERTY, "tests/test_circuit.py::test_non_int_controls_fail_loudly")),
    Mutant("circuit-accepts-non-bool-polarity", "circuit.py", (
        ("if type(pos) is bool and type(q) is int", "if type(q) is int"),),
        (CHECK_PROPERTY, "tests/test_circuit.py::test_non_bool_polarities_fail_loudly")),
    Mutant("circuit-accepts-list-control", "circuit.py", (
        ("                        hash(g.controls)\n", ""),),
        (CHECK_PROPERTY, "tests/test_circuit.py::test_non_pair_controls_fail_loudly")),
    Mutant("circuit-accepts-nonfinite-angle", "circuit.py", (
        ("type(g.angle) is float and isfinite(g.angle)", "type(g.angle) is float"),),
        (CHECK_PROPERTY, "tests/test_circuit.py::test_rotation_angles_are_finite_floats")),
    Mutant("helper-truncates-control-qubit", "circuit.py", (
        ("c if isinstance(c, tuple) else (c, True)",
         "(int(c[0]), c[1]) if isinstance(c, tuple) else (int(c), True)"),),
        ("tests/test_circuit.py::test_helpers_keep_control_qubits_as_given",)),
    Mutant("circuit-accepts-repeated-measured", "circuit.py", (
        ("        if twice := [q for q in self.measured if self.measured.count(q) > 1]:\n"
         '            raise ValueError(f"measured qubit {twice[0]} is listed more than once")\n',
         ""),),
        ("tests/test_circuit.py::test_measured_qubits_in_order",
         "tests/test_simulate.py::TestRepeatedMeasurement::test_sample_circuit_measuring_twice")),
    # a circuit's own fields are what its QASM carries
    Mutant("circuit-accepts-bool-qubit-count", "circuit.py", (
        ("if type(n) is not int:", "if not isinstance(n, int):"),), (FIELD_RULES,)),
    Mutant("circuit-accepts-list-fields", "circuit.py", (
        ("isinstance(f, tuple) for f in", "True for f in"),), (FIELD_RULES,)),
    Mutant("circuit-accepts-non-int-measured", "circuit.py", (
        ("all(type(q) is int for q in self.measured)", "True"),), (FIELD_RULES,)),
    Mutant("circuit-accepts-spaced-label", "circuit.py", (
        ("type(s) is str and s.split() == [s]", "type(s) is str"),), (FIELD_RULES,)),
    # the package resolves each public name from the module that defines it
    Mutant("init-name-under-wrong-module", "__init__.py", (
        ('"lower_negative_controls",\n        "metrics",\n', '"lower_negative_controls",\n'),
        ('"g_statistic", "js_divergence", "kl_divergence")',
         '"g_statistic", "js_divergence", "kl_divergence", "metrics")')),
        ("tests/test_package.py::test_each_name_is_its_modules_object",)),
    # the gate definitions: each body means its gate, and defines what it calls
    Mutant("mc-body-second-half-sign", "qasm.py", (
        ('f"{base}(-{p}/2) {cs[-1]},t;', 'f"{base}({p}/2) {cs[-1]},t;'),), (BODY_MEANING,)),
    Mutant("definition-skips-first-call", "qasm.py", (
        ('_CALL_RE = re.compile(r"(?<=[{;] )', '_CALL_RE = re.compile(r"(?<=[;] )'),),
        (BODY_MEANING,)),
    # the uniform lowering inlines those same bodies, so a wrong body fails both
    Mutant("crz-body-sign", "qasm.py", (
        ("u1(theta/2) b; cx a,b; u1(-theta/2) b;", "u1(theta/2) b; cx a,b; u1(theta/2) b;"),),
        (BODY_MEANING,)),
    Mutant("crz-body-sign-lowered", "qasm.py", (
        ("u1(theta/2) b; cx a,b; u1(-theta/2) b;", "u1(theta/2) b; cx a,b; u1(theta/2) b;"),),
        (EACH_KIND_LOWERED,)),
    Mutant("inline-drops-argument-sign", "qasm.py", (
        ("s, b, d = -s if minus else s,", "s, b, d = s,"),), (EACH_KIND_LOWERED,)),
    Mutant("inline-drops-divisor", "qasm.py", (
        ("d * int(div or 1)", "d"),), (EACH_KIND_LOWERED,)),
    # memory images read their addresses in ascending order
    Mutant("basis-addresses-unsorted", "encoding.py", (
        ("for a, x in sorted(table.entries.items()))", "for a, x in table.entries.items())"),),
        (ADDRESS_ORDER,)),
    Mutant("angle-addresses-unsorted", "encoding.py", (
        ("zip(sorted(table.entries), angles)", "zip(table.entries, angles)"),), (ADDRESS_ORDER,)),
    # a measurement ends the circuit
    Mutant("parse-gate-after-measurement", "qasm.py", (
        ('        if measured:\n            raise UnsupportedStatement(f"gate {stmt!r} follows '
         'a measurement")\n', ""),),
        ("tests/test_qasm.py::TestParse::test_gate_after_measurement",)),
    Mutant("emit-measured-reversed", "qasm.py", (
        ("enumerate(circuit.measured))", "enumerate(circuit.measured[::-1]))"),),
        (ROUND_TRIP_PROPERTY,)),
    # classical verify checks every input word, and a table stays as checked
    Mutant("verify-listed-minterms-only", "cli.py", (
        ("range(1 << table.n)", "sorted({int(ins, 2) for ins, _ in expand(table).rows})"),),
        ("tests/test_cli.py::TestVerify::test_unlisted_input_word_is_checked",)),
    Mutant("truth-table-mutable-dict", "funcprep.py", (
        ('        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))\n',
         ""),), ("tests/test_funcprep.py::test_truth_table_entries_read_only",)),
    # a negative bin, a bad seed or a qubit outside the register is named
    Mutant("angle-tree-accepts-negative-bin", "encoding.py", (
        ('    if negative:\n        raise NotNormalized(f"bin {negative[0]} is negative: '
         '{probs[negative[0]]!r}")\n', ""),),
        ("tests/test_encoding.py::TestAngleTree::test_negative_bin_rejected",
         "tests/test_optimize.py::TestSymmetric::test_negative_bin_rejected")),
    Mutant("sample-seed-unchecked", "simulate.py", (
        ('        raise ValueError(f"seed must be None or a non-negative integer, got {seed!r}")\n',
         "        pass\n"),),
        ("tests/test_simulate.py::TestSample::test_bad_shots_or_seed_named",)),
    Mutant("distribution-qubit-range-unchecked", "simulate.py", (
        ("            if not 0 <= q < self.num_qubits:\n"
         '                raise ValueError(f"qubit {q} lies outside 0..{self.num_qubits - 1}")\n',
         ""),),
        ("tests/test_simulate.py::TestDistribution::test_qubit_outside_register",)),
)


class MutantError(Exception):
    pass


def pytest(copy: Path, tests) -> int:
    """0 when every test passes, 1 when one fails; anything else is an error."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if done.returncode not in (0, 1):
        raise MutantError(f"pytest exited {done.returncode} on {' '.join(tests)}")
    return done.returncode


def killed(copy: Path, mutant: Mutant) -> bool:
    """Whether ``mutant`` makes one of its tests fail; the file is restored either way."""
    path = copy / "src" / "qsynth" / mutant.file
    original = text = path.read_text()
    for old, new in mutant.edits:
        if text.count(old) != 1:
            raise MutantError(f"{mutant.name}: {old!r} occurs {text.count(old)} times "
                              f"in {mutant.file}, not once")
        text = text.replace(old, new)
    path.write_text(text)
    try:
        return pytest(copy, mutant.tests) == 1
    finally:
        path.write_text(original)


def main() -> int:
    started = time.monotonic()
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    dead = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=skip)
        try:
            if pytest(copy, sorted({t for m in MUTANTS for t in m.tests})):
                raise MutantError("the listed tests fail on the unmutated code")
            for mutant in MUTANTS:
                t = time.monotonic()
                hit = killed(copy, mutant)
                dead += hit
                print(f"{'killed' if hit else 'SURVIVED':8}  {mutant.name:34} "
                      f"{time.monotonic() - t:5.1f} s", flush=True)
        except MutantError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print(f"{dead} of {len(MUTANTS)} mutants killed in {time.monotonic() - started:.0f} s")
    return 0 if dead == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end command-line behavior, run in process."""

import hashlib
import json
import os
import subprocess
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import pytest

import qsynth
from qsynth import cli
from qsynth.circuit import lower_negative_controls, x
from qsynth.cli import main
from qsynth.esop import synth_esop, to_esop
from qsynth.funcprep import assign_dont_cares, expand, to_truth_table
from qsynth.pla import PlaTable, parse_pla
from qsynth.optimize import lower_to_uniform
from qsynth.qasm import emit_qasm, parse_qasm

from conftest import BENCH_DIR, bench_path
from sparse_rows import row_mismatches
from test_esop import reference_evaluate

PLA = """.i 3
.o 2
000 01
001 10
010 11
011 01
100 10
101 11
110 01
111 10
.e
"""

PMF = "1\n2\n3\n2\n"


@pytest.fixture
def pla_file(tmp_path):
    path = tmp_path / "triple.pla"
    path.write_text(PLA)
    return path


@pytest.fixture
def pmf_file(tmp_path):
    path = tmp_path / "hill.pmf"
    path.write_text(PMF)
    return path


def run_synth(path, out, *extra):
    return main(["synth", str(path), "--out", str(out), *extra])


class TestSynth:
    def test_esop_outputs(self, pla_file, tmp_path, capsys):
        out = tmp_path / "triple.qasm"
        assert run_synth(pla_file, out, "--method", "esop") == 0
        circ = parse_qasm(out.read_text())
        assert circ.num_qubits == 5
        sidecar = json.loads((tmp_path / "triple.json").read_text())
        assert sidecar["schema_version"] == 1
        assert sidecar["source"] == "triple.pla"
        assert sidecar["method"] == "esop"
        assert sidecar["gateset"] == "natural"
        assert sidecar["opt"] == []
        assert sidecar["qubits"] == 5
        assert sidecar["gate_count"] == len(circ.gates)
        for key in ("complexity", "depth", "parameterized_gate_count",
                    "synth_time_us"):
            assert key in sidecar
        assert "wrote" in capsys.readouterr().out

    def test_default_output_name(self, pla_file, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["synth", str(pla_file), "--method", "tbs"]) == 0
        assert (tmp_path / "triple.tbs.qasm").exists()
        assert (tmp_path / "triple.tbs.json").exists()

    def test_deterministic_output(self, pla_file, tmp_path):
        first, second = tmp_path / "a.qasm", tmp_path / "b.qasm"
        run_synth(pla_file, first, "--method", "esop", "--opt", "double-x")
        run_synth(pla_file, second, "--method", "esop", "--opt", "double-x")
        assert first.read_bytes() == second.read_bytes()
        reports = []
        for stem in ("a", "b"):
            data = json.loads((tmp_path / f"{stem}.json").read_text())
            data.pop("synth_time_us")
            reports.append(data)
        assert reports[0] == reports[1]

    def test_amplitude_with_qubit_check(self, pmf_file, tmp_path):
        out = tmp_path / "hill.qasm"
        assert run_synth(pmf_file, out, "--qubits", "2") == 0
        circ = parse_qasm(out.read_text())
        assert circ.num_qubits == 2
        sidecar = json.loads((tmp_path / "hill.json").read_text())
        assert sidecar["method"] == "amplitude"
        assert sidecar["parameterized_gate_count"] == 3

    def test_amplitude_qubit_mismatch(self, pmf_file, tmp_path, capsys):
        out = tmp_path / "hill.qasm"
        assert run_synth(pmf_file, out, "--qubits", "3") == 4
        assert "bins" in capsys.readouterr().err

    @pytest.mark.parametrize("qubits", ["-1", "1000000000000"])
    def test_qubits_out_of_range(self, pmf_file, tmp_path, capsys, qubits):
        # neither is shifted: 1 << -1 raises, 1 << 10**12 asks for 125 GB
        assert run_synth(pmf_file, tmp_path / "hill.qasm", "--qubits", qubits) == 4
        assert f"--qubits {qubits} does not fit hill.pmf" in capsys.readouterr().err

    @pytest.mark.parametrize("height", ["nan", "inf"])
    def test_non_finite_height(self, tmp_path, height, capsys):
        source = tmp_path / "bad.pmf"
        source.write_text(f"1\n{height}\n")
        assert run_synth(source, tmp_path / "bad.qasm") == 4
        assert "finite" in capsys.readouterr().err

    def test_overflowing_heights(self, tmp_path, capsys):
        # each height is finite, their sum is not
        source = tmp_path / "huge.pmf"
        source.write_text("1e308\n1e308\n")
        assert run_synth(source, tmp_path / "huge.qasm") == 4
        assert "overflows" in capsys.readouterr().err

    def test_qubits_rejected_for_pla(self, tmp_path, capsys):
        out = tmp_path / "squar5.qasm"
        assert run_synth(bench_path("squar5.pla"), out, "--method", "esop",
                         "--qubits", "3") == 4
        assert "--qubits applies to .pmf sources" in capsys.readouterr().err
        assert not out.exists()

    def test_pla_requires_method(self, pla_file, tmp_path, capsys):
        assert run_synth(pla_file, tmp_path / "x.qasm") == 4
        assert "--method is required" in capsys.readouterr().err

    def test_amplitude_needs_pmf(self, pla_file, tmp_path, capsys):
        code = run_synth(pla_file, tmp_path / "x.qasm", "--method", "amplitude")
        assert code == 4
        assert ".pmf" in capsys.readouterr().err

    def test_pmf_rejects_pla_method(self, pmf_file, tmp_path, capsys):
        code = run_synth(pmf_file, tmp_path / "x.qasm", "--method", "esop")
        assert code == 4
        assert "amplitude" in capsys.readouterr().err

    def test_unknown_pass(self, pla_file, tmp_path, capsys):
        code = run_synth(pla_file, tmp_path / "x.qasm", "--method", "esop",
                         "--opt", "fuse")
        assert code == 4
        assert "unknown pass" in capsys.readouterr().err

    def test_bad_method_is_usage_error(self, pla_file, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_synth(pla_file, tmp_path / "x.qasm", "--method", "qft")
        assert err.value.code == 2

    def test_missing_source(self, tmp_path, capsys):
        code = main(["synth", str(tmp_path / "ghost.pla"), "--method", "esop",
                     "--out", str(tmp_path / "x.qasm")])
        assert code == 4
        capsys.readouterr()

    def test_uniform_gateset(self, pla_file, tmp_path):
        out = tmp_path / "u.qasm"
        assert run_synth(pla_file, out, "--method", "esop",
                         "--gateset", "uniform") == 0
        circ = parse_qasm(out.read_text())
        for gate in circ.gates:
            assert gate.kind in {"rx", "ry", "rz", "x", "h"}
            assert len(gate.controls) <= 1

    def test_row_cap_environment(self, pla_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QSYNTH_MAX_ROWS", "4")
        code = run_synth(pla_file, tmp_path / "x.qasm", "--method", "tbs")
        assert code == 4
        assert "SizeLimitExceeded" in capsys.readouterr().err

    def test_wide_bijection_reaches_gate_cap(self, tmp_path, capsys):
        # apex4's 2^20-row bijection: the sweep runs into the 50,000-gate cap
        out = tmp_path / "apex4.qasm"
        code = run_synth(bench_path("apex4.pla"), out, "--method", "tbs-rm")
        assert code == 4
        assert "SizeLimitExceeded" in capsys.readouterr().err
        assert not out.exists()

    def test_synth_timeout(self, tmp_path, capsys):
        out = tmp_path / "slow.qasm"
        code = main(["synth", str(bench_path("dist.pla")), "--method", "tbs",
                     "--timeout", "0.005", "--out", str(out)])
        assert code == 5
        assert "exceeded" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case, code, line", [
        ("empty-pmf", 4, "error: no histogram lines found"),
        ("three-bins", 4, "error: NotPowerOfTwo: 3 histogram bins is not a power of two"),
        ("row-cap", 4, "error: SizeLimitExceeded: "),
        ("crash", 1, "RuntimeError: worker bug"),
    ], ids=["empty-pmf", "three-bins", "row-cap", "crash"])
    def test_timeout_reports_failures_alike(self, tmp_path, monkeypatch, capsys,
                                            case, code, line):
        # --timeout synthesizes in a forked child; a failure must read as it
        # does in process: the same stderr and the same exit code
        source, method = tmp_path / "bins.pmf", "amplitude"
        if case == "empty-pmf":
            source.write_text("# no bins\n")
        elif case == "three-bins":
            source.write_text("1\n2\n3\n")
        else:
            source, method = bench_path("squar5.pla"), "tbs"
            if case == "row-cap":
                monkeypatch.setenv("QSYNTH_MAX_ROWS", "4")
            else:
                def boom(*args):
                    raise RuntimeError("worker bug")
                monkeypatch.setattr(cli, "_synthesize", boom)

        def run(*extra):
            try:
                status = run_synth(source, tmp_path / "x.qasm", "--method", method, *extra)
            except RuntimeError as exc:  # the interpreter ends on its last line, exit 1
                print(traceback.format_exception_only(exc)[-1], end="", file=sys.stderr)
                status = 1
            return status, capsys.readouterr().err

        plain = run()
        assert run("--timeout", "5") == plain
        assert plain[0] == code and plain[1].startswith(line)
        assert not (tmp_path / "x.qasm").exists()

    @pytest.mark.parametrize("seconds", ["-1", "0", "nan", "inf", "1e7", "soon"])
    def test_timeout_must_be_positive_and_finite(self, pla_file, tmp_path, seconds, capsys):
        out = tmp_path / "x.qasm"
        with pytest.raises(SystemExit) as err:
            run_synth(pla_file, out, "--method", "esop", "--timeout", seconds)
        assert err.value.code == 2
        assert "--timeout" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", cli.PLA_METHODS)
    def test_pla_without_cubes(self, tmp_path, method):
        source = tmp_path / "empty.pla"
        source.write_text(".i 2\n.o 1\n.e\n")
        out = tmp_path / "empty.qasm"
        assert run_synth(source, out, "--method", method) == 0
        assert json.loads(out.with_suffix(".json").read_text())["gate_count"] == 0

    def test_synth_with_generous_timeout(self, pla_file, tmp_path):
        out = tmp_path / "t.qasm"
        assert run_synth(pla_file, out, "--method", "esop",
                         "--timeout", "30") == 0
        plain = tmp_path / "p.qasm"
        run_synth(pla_file, plain, "--method", "esop")
        assert out.read_bytes() == plain.read_bytes()

    def test_timeout_with_large_output(self, tmp_path):
        # about 130 KB of QASM, more than the pipe buffer the forked
        # child writes it through
        source = bench_path("apex4.pla")
        out = tmp_path / "t.qasm"
        assert run_synth(source, out, "--method", "esop", "--timeout", "30") == 0
        plain = tmp_path / "p.qasm"
        assert run_synth(source, plain, "--method", "esop") == 0
        assert len(plain.read_bytes()) > 64 * 1024
        assert out.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("name,method,sha256", [
        ("clip", "esop",
         "64d70803b590f1d36be5afb3aa1d5e272dcbdf3312e6e1d291683a9e85748d56"),
        ("Z9sym", "angle",
         "47202249276477d3a3b2677b66fa3584b60e113665ac8a6651dbd5147445d163"),
    ], ids=["clip-esop", "Z9sym-angle"])
    def test_uniform_output_pinned(self, tmp_path, name, method, sha256):
        out = tmp_path / "u.qasm"
        assert run_synth(bench_path(f"{name}.pla"), out, "--method", method,
                         "--gateset", "uniform") == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    @pytest.mark.parametrize("gateset,sha256", [
        ("natural", "99e89b7a863657caba01b357d46eb4ac717c94555088b883c9dd079dbf122af9"),
        ("uniform", "99c579531af9d303485edcac4c02453763f764d7bb9baf736d199ae69c28ac54"),
    ], ids=["natural", "uniform"])
    def test_mcx_ladder_output_pinned(self, tmp_path, gateset, sha256):
        out = tmp_path / "l.qasm"
        assert run_synth(bench_path("clip.pla"), out, "--method", "esop",
                         "--opt", "mcx-ladder", "--gateset", gateset) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    @pytest.mark.parametrize("name,method", [
        ("clip", "esop"), ("Z9sym", "angle"), ("squar5", "esop")])
    def test_uniform_output_lowers_natural(self, tmp_path, name, method):
        natural, uniform = tmp_path / "n.qasm", tmp_path / "u.qasm"
        assert run_synth(bench_path(f"{name}.pla"), natural, "--method", method) == 0
        assert run_synth(bench_path(f"{name}.pla"), uniform, "--method", method,
                         "--gateset", "uniform") == 0
        lowered = lower_to_uniform(parse_qasm(natural.read_text()))
        assert uniform.read_text() == emit_qasm(lowered, "uniform")

    def test_uniform_esop_rows_match_natural(self, tmp_path):
        # a replay of every input row that shares no code with qsynth
        natural, uniform = tmp_path / "n.qasm", tmp_path / "u.qasm"
        assert run_synth(bench_path("squar5.pla"), natural, "--method", "esop") == 0
        assert run_synth(bench_path("squar5.pla"), uniform, "--method", "esop",
                         "--gateset", "uniform") == 0
        assert row_mismatches(natural.read_text(), uniform.read_text(), inputs=5) == 0

    def test_ir_gate_count_recorded(self, tmp_path):
        source = bench_path("clip.pla")
        ir = len(synth_esop(to_esop(parse_pla(source.read_text()))).gates)
        for gateset in ("natural", "uniform"):
            out = tmp_path / f"{gateset}.qasm"
            assert run_synth(source, out, "--method", "esop", "--gateset", gateset) == 0
            sidecar = json.loads(out.with_suffix(".json").read_text())
            assert sidecar["ir_gate_count"] == ir
            assert sidecar["gate_count"] == len(parse_qasm(out.read_text()).gates)
        assert run_synth(source, out, "--method", "esop", "--opt", "mcx-ladder") == 0
        laddered = json.loads(out.with_suffix(".json").read_text())["ir_gate_count"]
        assert laddered > ir

    @pytest.mark.parametrize("name", sorted(p.stem for p in BENCH_DIR.glob("*.pla")))
    def test_basis_is_esop_over_minterms(self, tmp_path, name):
        source = bench_path(f"{name}.pla")
        out = tmp_path / "b.qasm"
        assert run_synth(source, out, "--method", "basis") == 0
        flat = to_truth_table(assign_dont_cares(expand(parse_pla(source.read_text()))))
        cubes = tuple((format(a, f"0{flat.n}b"), format(word, f"0{flat.m}b"))
                      for a, word in sorted(flat.entries.items()))
        esop = synth_esop(PlaTable(flat.n, flat.m, cubes))
        text = out.read_text()
        assert parse_qasm(text).gates == lower_negative_controls(esop).gates
        labels = [f"a{i}" for i in range(flat.n)] + [f"d{i}" for i in range(flat.m)]
        assert text.splitlines()[1] == "// labels: " + " ".join(labels)

    @pytest.mark.parametrize("gateset", ["natural", "uniform"])
    def test_graycode_output_pinned(self, tmp_path, gateset):
        # the Gray-code angles of the O(4^k) fsum solve, to the last bit
        out = tmp_path / "g.qasm"
        assert run_synth(bench_path("arbitrary.pmf"), out, "--method", "amplitude",
                         "--opt", "graycode", "--gateset", gateset) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "fffb7d52a3aec4e043606b0fc024dae7fa3846e8e7cc1427b93c8001bafb66bd")

    def test_import_loads_no_scipy(self):
        src = str(Path(qsynth.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = ("import sys, qsynth.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestVerify:
    def synth_and_verify(self, source, method, tmp_path, *extra):
        out = tmp_path / f"{method}.qasm"
        assert run_synth(source, out, "--method", method) == 0
        return main(["verify", str(out), str(source), "--method", method,
                     *extra])

    def test_esop_report_fields(self, pla_file, tmp_path, capsys):
        out = tmp_path / "v.qasm"
        run_synth(pla_file, out, "--method", "esop")
        capsys.readouterr()
        assert main(["verify", str(out), str(pla_file),
                     "--method", "esop"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verified"] is True
        assert report["mismatches"] == 0
        assert report["rows_checked"] == 8
        assert report["mode"] == "classical"

    @pytest.mark.parametrize("method", ["tbs", "tbs-rm", "basis"])
    def test_classical_methods_pass(self, pla_file, tmp_path, method, capsys):
        assert self.synth_and_verify(pla_file, method, tmp_path) == 0
        capsys.readouterr()

    def test_corrupted_circuit_fails(self, pla_file, tmp_path, capsys):
        out = tmp_path / "bad.qasm"
        run_synth(pla_file, out, "--method", "esop")
        capsys.readouterr()
        out.write_text(out.read_text() + "x q[3];\n")
        code = main(["verify", str(out), str(pla_file), "--method", "esop"])
        assert code == 3
        report = json.loads(capsys.readouterr().out)
        assert report["verified"] is False
        assert report["mismatches"] > 0

    def test_wide_esop(self, tmp_path, capsys):
        # ex5: 71 qubits, so the words do not fit a machine integer
        source = bench_path("ex5.pla")
        for method in ("esop", "basis"):
            assert self.synth_and_verify(source, method, tmp_path) == 0, method
            report = json.loads(capsys.readouterr().out.split("\n", 1)[1])
            assert report["mismatches"] == 0
            assert report["rows_checked"] > 0

    @pytest.mark.parametrize("method, qubits", [("esop", 17), ("basis", 17), ("tbs", 16)])
    def test_mcx_ladder_ancillas(self, tmp_path, method, qubits, capsys):
        # the ladder appends ancillas past the source's qubits; they start
        # and must end at 0
        source = bench_path("squar5.pla")
        out = tmp_path / f"{method}.qasm"
        assert run_synth(source, out, "--method", method, "--opt", "mcx-ladder") == 0
        assert parse_qasm(out.read_text()).num_qubits == qubits
        capsys.readouterr()
        assert main(["verify", str(out), str(source), "--method", method]) == 0
        assert json.loads(capsys.readouterr().out)["mismatches"] == 0

    def test_dirty_ancilla_fails(self, tmp_path, capsys):
        source = bench_path("squar5.pla")
        out = tmp_path / "esop.qasm"
        run_synth(source, out, "--method", "esop", "--opt", "mcx-ladder")
        capsys.readouterr()
        out.write_text(out.read_text() + "x q[16];\n")
        assert main(["verify", str(out), str(source), "--method", "esop"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["mismatches"] == report["rows_checked"] == 32

    # rows_checked is 2^n: every input word, listed by the table or not
    ESOP_ROWS = {"Z5xp1": 128, "Z9sym": 512, "addm4": 512, "apex4": 512, "b11": 256,
                 "clip": 512, "dist": 256, "ex5": 256, "f51m": 256, "inc": 128,
                 "mlp4": 256, "squar5": 32}

    @pytest.mark.parametrize("name", sorted(ESOP_ROWS))
    def test_esop_every_packaged_pla(self, tmp_path, name, capsys):
        assert self.synth_and_verify(bench_path(f"{name}.pla"), "esop", tmp_path) == 0
        report = json.loads(capsys.readouterr().out.split("\n", 1)[1])
        assert (report["rows_checked"], report["mismatches"]) == (self.ESOP_ROWS[name], 0)

    def test_unlisted_input_word_is_checked(self, tmp_path, capsys):
        # Z9sym lists 420 of its 512 input words; an extra X on f0 under
        # 000000000, a word it does not list, must show as one mismatch
        source = bench_path("Z9sym.pla")
        out = tmp_path / "Z9sym.qasm"
        assert run_synth(source, out, "--method", "esop") == 0
        circ = parse_qasm(out.read_text())
        extra = x(9, tuple((q, False) for q in range(9)))
        out.write_text(emit_qasm(replace(circ, gates=(*circ.gates, extra))))
        capsys.readouterr()
        assert main(["verify", str(out), str(source), "--method", "esop"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert (report["rows_checked"], report["mismatches"]) == (512, 1)

    @pytest.mark.parametrize("method", ["esop", "basis"])
    def test_every_word_past_the_row_cap(self, tmp_path, method, monkeypatch, capsys):
        source = bench_path("squar5.pla")  # 32 input words
        out = tmp_path / "squar5.qasm"
        assert run_synth(source, out, "--method", method) == 0
        capsys.readouterr()
        monkeypatch.setenv("QSYNTH_MAX_ROWS", "16")
        assert main(["verify", str(out), str(source), "--method", method]) == 4
        assert "SizeLimitExceeded" in capsys.readouterr().err

    def test_gate_after_measurement(self, pla_file, tmp_path, capsys):
        out = tmp_path / "late.qasm"
        out.write_text("OPENQASM 2.0;\ngate x a { U(pi,0,pi) a; }\nqreg q[1];\ncreg c[1];\n"
                       "x q[0];\nmeasure q[0] -> c[0];\nx q[0];\n")
        assert main(["verify", str(out), str(pla_file), "--method", "esop"]) == 4
        assert "UnsupportedStatement" in capsys.readouterr().err

    def test_dropped_gate_past_first_machine_word(self, tmp_path, capsys):
        # clip: 512 rows over 9 inputs, so each bit-sliced column spans
        # eight 64-bit words; the last gate fires on row 511 only
        source = bench_path("clip.pla")
        out = tmp_path / "clip.qasm"
        assert run_synth(source, out, "--method", "esop") == 0
        spec = to_esop(parse_pla(source.read_text()))
        ins, outs = spec.rows[-1]
        k = outs.rindex("1")
        lines = out.read_text().splitlines(keepends=True)
        qubits = ",".join(f"q[{q}]" for q in (*range(9), 9 + k))
        assert (ins, lines[-1]) == ("111111111", f"mcx_9 {qubits};\n")
        out.write_text("".join(lines[:-1]))
        dropped = PlaTable(spec.n, spec.m, spec.rows[:-1] + (
            (ins, outs[:k] + "0" + outs[k + 1:]),))
        minterms = {int(row, 2) for row, _ in expand(parse_pla(source.read_text())).rows}
        predicted = sum(reference_evaluate(spec, a) != reference_evaluate(dropped, a)
                        for a in minterms)
        capsys.readouterr()
        assert main(["verify", str(out), str(source), "--method", "esop"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert (report["rows_checked"], report["mismatches"]) == (512, predicted)
        assert predicted == 1

    def test_uniform_amplitude_ancillas(self, tmp_path, capsys):
        # the uniform lowering's ladder adds 3 ancillas to bimodal's 5
        # qubits; they start and must end at 0
        source = bench_path("bimodal.pmf")
        out = tmp_path / "bimodal.qasm"
        assert run_synth(source, out, "--gateset", "uniform") == 0
        assert parse_qasm(out.read_text()).num_qubits == 8
        capsys.readouterr()
        assert main(["verify", str(out), str(source)]) == 0
        assert json.loads(capsys.readouterr().out)["max_abs_error"] <= 1e-9

    def test_amplitude_dirty_ancilla_fails(self, tmp_path, capsys):
        source = bench_path("bimodal.pmf")
        out = tmp_path / "bimodal.qasm"
        run_synth(source, out, "--gateset", "uniform")
        capsys.readouterr()
        out.write_text(out.read_text() + "x q[7];\n")
        assert main(["verify", str(out), str(source)]) == 3
        # every bin's probability sits on a row whose ancilla is 1
        report = json.loads(capsys.readouterr().out)
        assert report["max_abs_error"] == pytest.approx(
            max(cli.normalize_pmf(cli.read_pmf(source.read_text()), "probability")))

    def test_amplitude_report(self, pmf_file, tmp_path, capsys):
        out = tmp_path / "amp.qasm"
        run_synth(pmf_file, out)
        capsys.readouterr()
        assert main(["verify", str(out), str(pmf_file), "--shots", "2048",
                     "--seed", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "encoded"
        assert report["max_abs_error"] <= 1e-9
        assert report["verified"] is True
        assert 0.0 <= report["p"] <= 1.0
        assert report["shots"] == 2048

    def test_qubit_measured_twice(self, tmp_path, capsys):
        out = tmp_path / "twice.qasm"
        out.write_text("OPENQASM 2.0;\ngate h a { U(pi/2,0,pi) a; }\nqreg q[1];\n"
                       "creg c[2];\nh q[0];\nmeasure q[0] -> c[0];\n"
                       "measure q[0] -> c[1];\n")
        source = tmp_path / "four.pmf"
        source.write_text("1\n1\n1\n1\n")
        assert main(["verify", str(out), str(source)]) == 4
        assert "qubit 0 is listed more than once" in capsys.readouterr().err

    def test_shots_past_int64(self, pmf_file, tmp_path, capsys):
        out = tmp_path / "amp.qasm"
        run_synth(pmf_file, out)
        capsys.readouterr()
        assert main(["verify", str(out), str(pmf_file), "--shots", str(10 ** 20)]) == 4
        assert "shots must be an integer in 1..2^63-1" in capsys.readouterr().err

    @pytest.mark.parametrize("param", ["pi/2", "inf", "nan"])
    def test_bad_rotation_parameter(self, tmp_path, capsys, param):
        out = tmp_path / "bad.qasm"
        out.write_text(f"OPENQASM 2.0;\nqreg q[1];\nry({param}) q[0];\n")
        source = tmp_path / "two.pmf"
        source.write_text("1\n1\n")
        assert main(["verify", str(out), str(source)]) == 4
        assert capsys.readouterr().err.startswith("error: UnsupportedStatement:")

    def test_gate_repeating_a_qubit(self, pla_file, tmp_path, capsys):
        out = tmp_path / "bad.qasm"
        out.write_text("OPENQASM 2.0;\nqreg q[5];\ncx q[0],q[0];\n")
        assert main(["verify", str(out), str(pla_file), "--method", "esop"]) == 4
        assert "uses a qubit twice" in capsys.readouterr().err

    def test_report_written_to_file(self, pla_file, tmp_path, capsys):
        out = tmp_path / "w.qasm"
        run_synth(pla_file, out, "--method", "esop")
        capsys.readouterr()
        report_path = tmp_path / "report.json"
        main(["verify", str(out), str(pla_file), "--method", "esop",
              "--out", str(report_path)])
        assert json.loads(report_path.read_text()) == \
            json.loads(capsys.readouterr().out)

    def test_angle_not_verifiable(self, pla_file, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["verify", "x.qasm", str(pla_file), "--method", "angle"])
        assert err.value.code == 2

    def test_width_mismatch(self, pla_file, tmp_path, capsys):
        other = tmp_path / "other.pla"
        other.write_text(".i 2\n.o 2\n00 01\n01 10\n10 11\n11 01\n.e\n")
        out = tmp_path / "w2.qasm"
        for method in ("tbs", "esop", "basis"):
            run_synth(other, out, "--method", method)
            capsys.readouterr()
            code = main(["verify", str(out), str(pla_file), "--method", method])
            assert code == 3, method
            assert "VerificationFailed" in capsys.readouterr().err
        # a 10-qubit circuit checked against a 5-input, 8-output source
        run_synth(bench_path("Z9sym.pla"), out, "--method", "esop")
        capsys.readouterr()
        code = main(["verify", str(out), str(bench_path("squar5.pla")), "--method", "esop"])
        assert code == 3
        assert "circuit has 10 qubits but the source needs 13" in capsys.readouterr().err


class TestBench:
    def test_grid_csv(self, pla_file, pmf_file, capsys):
        code = main(["bench", "--functions", f"{pla_file},{pmf_file}",
                     "--methods", "esop,tbs,amplitude"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ("function,method,status,qubits,gate_count,"
                            "complexity,depth,parameterized_gate_count,"
                            "synth_time_us,error")
        rows = [line.split(",") for line in lines[1:]]
        assert [(r[0], r[1], r[2]) for r in rows] == [
            ("triple", "esop", "ok"),
            ("triple", "tbs", "ok"),
            ("hill", "amplitude", "ok"),
        ]

    def test_json_report(self, pla_file, tmp_path, capsys):
        out = tmp_path / "grid.json"
        code = main(["bench", "--functions", str(pla_file),
                     "--methods", "esop", "--report", "json",
                     "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert payload["timeout_s"] == 60.0
        cell = payload["cells"][0]
        assert cell["status"] == "ok"
        assert cell["function"] == "triple"
        assert "gate_count" in cell

    def test_json_report_carries_ir_gate_count(self, pla_file, capsys):
        assert main(["bench", "--functions", str(pla_file), "--methods", "esop",
                     "--report", "json"]) == 0
        cell = json.loads(capsys.readouterr().out)["cells"][0]
        assert cell["ir_gate_count"] <= cell["gate_count"]
        assert main(["bench", "--functions", str(pla_file), "--methods", "esop"]) == 0
        assert "ir_gate_count" not in capsys.readouterr().out

    @pytest.mark.parametrize("methods", [",", "amplitude"])
    def test_empty_grid_rejected(self, pla_file, methods, capsys):
        # no method applies to a PLA source, so no cell runs
        assert main(["bench", "--functions", str(pla_file), "--methods", methods]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no benchmark cells" in captured.err

    def test_error_cell_sets_exit_code(self, pla_file, monkeypatch, capsys):
        monkeypatch.setenv("QSYNTH_MAX_ROWS", "4")
        code = main(["bench", "--functions", str(pla_file),
                     "--methods", "tbs"])
        assert code == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1].split(",")[2] == "cap"
        assert "SizeLimitExceeded" in lines[1]

    def test_unsupported_cell(self, tmp_path, capsys):
        bad = tmp_path / "bad.pla"
        bad.write_text(".i 2\n.o 1\n111 1\n.e\n")
        code = main(["bench", "--functions", str(bad), "--methods", "esop",
                     "--report", "json"])
        assert code == 1
        (cell,) = json.loads(capsys.readouterr().out)["cells"]
        assert cell["status"] == "unsupported"
        assert cell["error"] and cell["detail"]

    def test_non_finite_pmf_cell(self, tmp_path, capsys):
        bad = tmp_path / "bad.pmf"
        bad.write_text("1\ninf\n")
        code = main(["bench", "--functions", str(bad), "--methods", "amplitude",
                     "--report", "json"])
        assert code == 1
        (cell,) = json.loads(capsys.readouterr().out)["cells"]
        assert (cell["status"], cell["error"]) == ("unsupported", "ValueError")

    def test_overflowing_pmf_cell(self, tmp_path, capsys):
        huge = tmp_path / "huge.pmf"
        huge.write_text("1e308\n1e308\n")
        code = main(["bench", "--functions", str(huge), "--methods", "amplitude",
                     "--report", "json"])
        assert code == 1
        (cell,) = json.loads(capsys.readouterr().out)["cells"]
        assert (cell["status"], cell["error"]) == ("unsupported", "ValueError")

    def test_crashed_cell(self, pla_file, monkeypatch, capsys):
        def boom(*args):
            raise RuntimeError("worker bug")
        monkeypatch.setattr(cli, "_synthesize", boom)
        code = main(["bench", "--functions", str(pla_file), "--methods", "esop",
                     "--report", "json"])
        assert code == 1
        (cell,) = json.loads(capsys.readouterr().out)["cells"]
        assert (cell["status"], cell["error"]) == ("crashed", "RuntimeError")

    def test_timeout_cell(self, capsys):
        code = main(["bench", "--functions", str(bench_path("dist.pla")),
                     "--methods", "tbs", "--timeout", "0.005"])
        assert code == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1].split(",")[2] == "timeout"

    @pytest.mark.parametrize("seconds", ["-1", "0", "nan", "inf", "1e7"])
    def test_timeout_must_be_positive_and_finite(self, pla_file, seconds, capsys):
        with pytest.raises(SystemExit) as err:
            main(["bench", "--functions", str(pla_file), "--methods", "esop",
                  "--timeout", seconds])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--timeout" in captured.err

    def test_unknown_method(self, pla_file, capsys):
        code = main(["bench", "--functions", str(pla_file),
                     "--methods", "qft"])
        assert code == 4
        assert "unknown method" in capsys.readouterr().err

    def test_empty_inputs(self, tmp_path, capsys):
        code = main(["bench", "--dir", str(tmp_path)])
        assert code == 4
        assert "no benchmark inputs" in capsys.readouterr().err

    def test_directory_discovery(self, pla_file, pmf_file, tmp_path, capsys):
        code = main(["bench", "--dir", str(tmp_path),
                     "--methods", "esop,amplitude"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        # .pla files sort before .pmf files in the discovery order
        assert [line.split(",")[0] for line in lines[1:]] == ["triple", "hill"]

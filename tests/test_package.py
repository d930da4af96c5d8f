"""The package's import contract, each check in a fresh interpreter.

``import qsynth`` loads no submodule and no numpy; a public name loads
its module on first use and is the object that module defines.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# each module and the public names it defines: the package's public API
PUBLIC = {
    "circuit": ("Circuit", "Gate", "Metrics", "lower_negative_controls", "metrics"),
    "encoding": ("AngleTree", "angle_tree", "qrng_pipeline", "qrom_pipeline", "read_pmf",
                 "synth_amplitude", "synth_angle", "synth_basis"),
    "errors": ("QsynthError",),
    "esop": ("evaluate_esop_table", "synth_esop", "to_esop"),
    "funcprep": ("Pmf", "RttResult", "TruthTable", "assign_dont_cares", "expand",
                 "make_one_to_one", "make_onto", "normalize", "normalize_pmf",
                 "prepare_bijection", "to_truth_table"),
    "grover": ("GroverSpec", "build_grover", "card_predicate", "iteration_sweep",
               "success_probability"),
    "optimize": ("PASSES", "apply_passes", "graycode_optimize", "lower_to_uniform",
                 "mcx_ladder", "remove_double_x", "symmetric_optimize", "toffoli_five"),
    "pla": ("PlaTable", "parse_pla", "write_pla"),
    "qasm": ("emit_qasm", "parse_qasm"),
    "simulate": ("Statevector", "calibrate_shots_report", "run_reversible_table",
                 "run_statevector", "sample"),
    "stats": ("CountHistogram", "g_statistic", "js_divergence", "kl_divergence"),
    "tbs": ("rm_spectrum", "synth_tbs_basic", "synth_tbs_rm"),
}


def run(code: str) -> list[str]:
    """The lines ``code`` prints in a fresh interpreter that imports this ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_import_loads_no_submodule_and_no_numpy():
    assert run("import sys, qsynth; print(sorted(m for m in sys.modules "
               "if m.startswith('qsynth.') or m.split('.')[0] == 'numpy'))") == ["[]"]


def test_stats_loads_without_simulate():
    assert run("import sys, qsynth.stats; "
               "print(sorted(m for m in sys.modules if m.startswith('qsynth.')))") == [
        "['qsynth.stats']"]


def test_star_import_binds_the_public_names():
    names = sorted(name for names in PUBLIC.values() for name in names)
    assert len(names) == 58
    assert run("from qsynth import *; print(sorted(n for n in dir() if n[0] != '_'))") == [
        str(names)]


def test_each_name_is_its_modules_object():
    assert run("import importlib, qsynth; print([f'{m}.{name}' "
               f"for m, names in {PUBLIC!r}.items() for name in names "
               "if getattr(qsynth, name) is not getattr(importlib.import_module("
               "f'qsynth.{m}'), name)])") == ["[]"]


def test_modules_resolve_and_unknown_names_raise():
    assert run("import qsynth; print(set(qsynth.__all__) <= set(dir(qsynth))); "
               "print(qsynth.simulate.__name__); print(hasattr(qsynth, 'no_such_name'))") == [
        "True", "qsynth.simulate", "False"]

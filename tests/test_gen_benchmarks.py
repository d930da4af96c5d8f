"""The packaged corpus is exactly what tools/gen_benchmarks.py generates."""

import importlib.util
from pathlib import Path

from qsynth.pla import write_pla

from conftest import BENCH_DIR

GENERATOR = Path(__file__).resolve().parent.parent / "tools" / "gen_benchmarks.py"


def load_generator():
    spec = importlib.util.spec_from_file_location("gen_benchmarks", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generator_reproduces_packaged_files():
    gen = load_generator()
    expected = {f"{name}.pla": write_pla(table) for name, table in gen.PLA_TABLES.items()}
    expected.update((f"{name}.pmf", gen.pmf_lines(name, heights))
                    for name, heights in gen.PMF_TABLES.items())
    packaged = {p.name for p in BENCH_DIR.iterdir() if p.suffix in (".pla", ".pmf")}
    assert packaged == set(expected)
    for name, text in expected.items():
        assert (BENCH_DIR / name).read_text() == text, name

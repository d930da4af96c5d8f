"""Compile classically specified switching functions into quantum circuits.

The toolkit reads two-level logic tables (.pla) or histogram files
(.pmf), prepares them classically (expansion, don't-care assignment,
reversible embedding, normalization), synthesizes circuits by one of
seven methods (ESOP, two transformation-based variants, three memory
encodings, amplitude encoding), optionally optimizes them, and emits
self-contained OpenQASM 2.0 alongside built-in simulation and
distribution statistics.

Every name in ``__all__`` can be imported from the package, and so can
each module that defines one.  The package loads a name's module on
first use (PEP 562), so ``import qsynth`` alone loads no submodule and
no numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# each module and the public names it defines
_EXPORTS = {
    "circuit": (
        "Circuit",
        "Gate",
        "Metrics",
        "lower_negative_controls",
        "metrics",
    ),
    "encoding": (
        "AngleTree",
        "angle_tree",
        "qrng_pipeline",
        "qrom_pipeline",
        "read_pmf",
        "synth_amplitude",
        "synth_angle",
        "synth_basis",
    ),
    "errors": ("QsynthError",),
    "esop": ("evaluate_esop_table", "synth_esop", "to_esop"),
    "funcprep": (
        "Pmf",
        "RttResult",
        "TruthTable",
        "assign_dont_cares",
        "expand",
        "make_one_to_one",
        "make_onto",
        "normalize",
        "normalize_pmf",
        "prepare_bijection",
        "to_truth_table",
    ),
    "grover": (
        "GroverSpec",
        "build_grover",
        "card_predicate",
        "iteration_sweep",
        "success_probability",
    ),
    "optimize": (
        "PASSES",
        "apply_passes",
        "graycode_optimize",
        "lower_to_uniform",
        "mcx_ladder",
        "remove_double_x",
        "symmetric_optimize",
        "toffoli_five",
    ),
    "pla": ("PlaTable", "parse_pla", "write_pla"),
    "qasm": ("emit_qasm", "parse_qasm"),
    "simulate": (
        "Statevector",
        "calibrate_shots_report",
        "run_reversible_table",
        "run_statevector",
        "sample",
    ),
    "stats": ("CountHistogram", "g_statistic", "js_divergence", "kl_divergence"),
    "tbs": ("rm_spectrum", "synth_tbs_basic", "synth_tbs_rm"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import ``name``'s module, or the submodule ``name``, on first use."""
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})

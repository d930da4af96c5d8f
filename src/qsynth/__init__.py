"""Compile classically specified switching functions into quantum circuits.

The toolkit reads two-level logic tables (.pla) or histogram files
(.pmf), prepares them classically (expansion, don't-care assignment,
reversible embedding, normalization), synthesizes circuits by one of
seven methods (ESOP, two transformation-based variants, three memory
encodings, amplitude encoding), optionally optimizes them, and emits
self-contained OpenQASM 2.0 alongside built-in simulation and
distribution statistics.
"""

from .circuit import (
    Circuit,
    Gate,
    Metrics,
    lower_negative_controls,
    metrics,
)
from .encoding import (
    AngleTree,
    angle_tree,
    qrng_pipeline,
    qrom_pipeline,
    read_pmf,
    synth_amplitude,
    synth_angle,
    synth_basis,
)
from .errors import QsynthError
from .esop import EsopSpec, evaluate_esop_table, synth_esop, to_esop
from .funcprep import (
    Pmf,
    RttResult,
    TruthTable,
    assign_dont_cares,
    expand,
    make_one_to_one,
    make_onto,
    normalize,
    normalize_pmf,
    prepare_bijection,
    to_truth_table,
)
from .grover import (
    GroverSpec,
    build_grover,
    card_predicate,
    iteration_sweep,
    success_probability,
)
from .optimize import (
    PASSES,
    apply_passes,
    graycode_optimize,
    lower_to_uniform,
    mcx_ladder,
    remove_double_x,
    symmetric_optimize,
    toffoli_five,
)
from .pla import PlaTable, parse_pla, write_pla
from .qasm import emit_qasm, parse_qasm
from .simulate import (
    CountHistogram,
    Statevector,
    calibrate_shots_report,
    run_reversible_table,
    run_statevector,
    sample,
)
from .stats import g_statistic, js_divergence, kl_divergence
from .tbs import rm_spectrum, synth_tbs_basic, synth_tbs_rm

__version__ = "0.1.0"

__all__ = [
    "AngleTree",
    "Circuit",
    "CountHistogram",
    "EsopSpec",
    "Gate",
    "GroverSpec",
    "Metrics",
    "PASSES",
    "PlaTable",
    "Pmf",
    "QsynthError",
    "RttResult",
    "Statevector",
    "TruthTable",
    "angle_tree",
    "apply_passes",
    "assign_dont_cares",
    "build_grover",
    "calibrate_shots_report",
    "card_predicate",
    "emit_qasm",
    "evaluate_esop_table",
    "expand",
    "g_statistic",
    "graycode_optimize",
    "iteration_sweep",
    "js_divergence",
    "kl_divergence",
    "lower_negative_controls",
    "lower_to_uniform",
    "make_one_to_one",
    "make_onto",
    "mcx_ladder",
    "metrics",
    "normalize",
    "normalize_pmf",
    "parse_pla",
    "parse_qasm",
    "prepare_bijection",
    "qrng_pipeline",
    "qrom_pipeline",
    "read_pmf",
    "remove_double_x",
    "rm_spectrum",
    "run_reversible_table",
    "run_statevector",
    "sample",
    "success_probability",
    "symmetric_optimize",
    "synth_amplitude",
    "synth_angle",
    "synth_basis",
    "synth_esop",
    "synth_tbs_basic",
    "synth_tbs_rm",
    "to_esop",
    "to_truth_table",
    "toffoli_five",
    "write_pla",
]

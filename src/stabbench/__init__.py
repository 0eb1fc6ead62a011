"""Stability workbench for LDPC stabilizer-code Hamiltonians."""

from .code import (
    CodeGraphMetrics,
    CodeParameters,
    InvalidCodeError,
    StabilizerCode,
    code_parameters,
    logicals,
    syndrome_of,
    validate,
)
from .constructors import (
    BipartiteTanner,
    SimpleGraph,
    hypergraph_product,
    ising_code,
    ising_toric,
    load_alist,
    random_biregular_classical,
    repetition_code,
    save_alist,
    toric_code,
)
from .flow import FlowConstants, flow_trajectory, stability_certificate
from .pauli import PauliString, commutes, multiply
from .quasilocal import QuasiLocalOperator, decompose, kappa_norm
from .soundness import (
    SoundnessFunction,
    expansion_profile,
    min_expansion,
    soundness_profile,
)
from .swt import (
    local_indistinguishability_check,
    solve_generator,
    spectral_report,
    swt_run,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteTanner",
    "CodeGraphMetrics",
    "CodeParameters",
    "FlowConstants",
    "InvalidCodeError",
    "PauliString",
    "QuasiLocalOperator",
    "SimpleGraph",
    "SoundnessFunction",
    "StabilizerCode",
    "code_parameters",
    "commutes",
    "decompose",
    "expansion_profile",
    "flow_trajectory",
    "hypergraph_product",
    "ising_code",
    "ising_toric",
    "kappa_norm",
    "load_alist",
    "local_indistinguishability_check",
    "logicals",
    "min_expansion",
    "multiply",
    "random_biregular_classical",
    "repetition_code",
    "save_alist",
    "solve_generator",
    "soundness_profile",
    "spectral_report",
    "stability_certificate",
    "swt_run",
    "syndrome_of",
    "toric_code",
    "validate",
]

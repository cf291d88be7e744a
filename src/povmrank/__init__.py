"""Informational completeness of truncated continuous-variable measurements.

Builds quadrature and photon-counting POVM operators on finite Fock
subspaces, counts the linearly independent elements they induce, checks
the closed-form rule m(2d-m), and verifies completeness operationally via
simulated homodyne data and maximum-likelihood reconstruction.
"""

from .completeness import (
    MeasurementSpec,
    RankReport,
    SweepTable,
    default_phases,
    design_matrix,
    displaced_counting_rank,
    min_phases_for_completeness,
    numerical_rank,
    povm_span_rank,
    predicted_rank,
    rank_for,
    sweep_table,
)
from .fock import (
    DensityMatrix,
    SupportSet,
    coherent_amplitudes,
    hermite_function_table,
    hermitian_to_real_vector,
    homodyne_pdf_grid,
    photon_number_probability,
    real_coordinates,
)
from .povm import (
    BinLayout,
    PovmSet,
    build_binned_quadrature_povm,
    default_x_max,
    displaced_number_operator,
    quadrature_bin_operator,
)
from .tomo import (
    BinnedHomodyne,
    MeasurementData,
    ReconstructionResult,
    ambiguity_witness,
    bin_samples,
    fidelity,
    ml_reconstruct,
    sample_homodyne,
    simulate_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "BinLayout",
    "BinnedHomodyne",
    "DensityMatrix",
    "MeasurementData",
    "MeasurementSpec",
    "PovmSet",
    "RankReport",
    "ReconstructionResult",
    "SupportSet",
    "SweepTable",
    "ambiguity_witness",
    "bin_samples",
    "build_binned_quadrature_povm",
    "coherent_amplitudes",
    "default_phases",
    "default_x_max",
    "design_matrix",
    "displaced_counting_rank",
    "displaced_number_operator",
    "fidelity",
    "hermite_function_table",
    "hermitian_to_real_vector",
    "homodyne_pdf_grid",
    "min_phases_for_completeness",
    "ml_reconstruct",
    "numerical_rank",
    "photon_number_probability",
    "povm_span_rank",
    "predicted_rank",
    "rank_for",
    "real_coordinates",
    "sample_homodyne",
    "simulate_dataset",
    "sweep_table",
]

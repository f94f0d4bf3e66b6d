"""Electromagnetic inverse medium scattering at a fixed frequency.

Forward scattering by volume integral equations, near/far-field data
operators, complex geometrical optics solutions, and Tikhonov inversion
with logarithmic-rate diagnostics.
"""

from .fourier import (
    BumpProfile,
    CubeGrid,
    RefractiveIndex,
    SobolevParams,
    UNITARY_FACTOR,
    embedding_constant,
    fourier_coeffs,
    hm_inner,
    hm_norm,
    inverse_fourier,
    make_test_index,
)

from .forward import (
    DipoleSource,
    FarFieldData,
    NearFieldData,
    PlaneWave,
    ScatteringSolver,
    SphereGrid,
    far_field_operator,
    near_field_operator,
)
from .cgo import (
    CgoSolution,
    FaddeevOperator,
    cgo_solve,
    cgo_vectors,
    q_bound,
    t_min,
)
from .spherical import FarCoeffs, far_coeffs, near_from_far
from .vsc import (
    VscReport,
    check_fourier_diff,
    data_diff_norm,
    highfreq_tail,
    schedule,
    vsc_check,
)
from .inversion import (
    ContrastMedium,
    InverseProblem,
    RateStudy,
    ReconstructionResult,
    add_noise,
    alpha_rule,
    band_limited_index,
    rate_study,
    tikhonov_reconstruct,
)
from .io import (
    read_data,
    read_far_coeffs,
    read_field,
    write_data,
    write_far_coeffs,
    write_field,
)

__all__ = [
    "BumpProfile",
    "CgoSolution",
    "ContrastMedium",
    "CubeGrid",
    "DipoleSource",
    "FaddeevOperator",
    "FarCoeffs",
    "FarFieldData",
    "InverseProblem",
    "NearFieldData",
    "PlaneWave",
    "RateStudy",
    "ReconstructionResult",
    "RefractiveIndex",
    "ScatteringSolver",
    "SobolevParams",
    "SphereGrid",
    "UNITARY_FACTOR",
    "VscReport",
    "add_noise",
    "alpha_rule",
    "band_limited_index",
    "cgo_solve",
    "cgo_vectors",
    "check_fourier_diff",
    "data_diff_norm",
    "embedding_constant",
    "far_coeffs",
    "far_field_operator",
    "fourier_coeffs",
    "highfreq_tail",
    "hm_inner",
    "hm_norm",
    "inverse_fourier",
    "make_test_index",
    "near_field_operator",
    "near_from_far",
    "q_bound",
    "rate_study",
    "read_data",
    "read_far_coeffs",
    "read_field",
    "schedule",
    "t_min",
    "tikhonov_reconstruct",
    "vsc_check",
    "write_data",
    "write_far_coeffs",
    "write_field",
]

"""Electromagnetic inverse medium scattering at a fixed frequency.

Forward scattering by volume integral equations, near/far-field data
operators, complex geometrical optics solutions, and Tikhonov inversion
with logarithmic-rate diagnostics.

``import emiscat`` loads no submodule: each name of ``__all__``, and each
submodule, is imported from its home module on first access (PEP 562),
so a run pays only for the modules it uses.
"""

import importlib

# home module of each exported name
_HOMES = {
    "fourier": ("BumpProfile", "CubeGrid", "RefractiveIndex", "SobolevParams",
                "UNITARY_FACTOR", "embedding_constant", "fourier_coeffs",
                "hm_inner", "hm_norm", "inverse_fourier", "make_test_index"),
    "forward": ("DipoleSource", "FarFieldData", "NearFieldData", "PlaneWave",
                "ScatteringSolver", "SphereGrid", "far_field_operator",
                "near_field_operator"),
    "cgo": ("CgoSolution", "FaddeevOperator", "cgo_solve", "cgo_vectors",
            "q_bound", "t_min"),
    "spherical": ("FarCoeffs", "far_coeffs", "near_from_far"),
    "vsc": ("VscReport", "check_fourier_diff", "data_diff_norm",
            "highfreq_tail", "schedule", "vsc_check"),
    "inversion": ("ContrastMedium", "InverseProblem", "RateStudy",
                  "ReconstructionResult", "add_noise", "alpha_rule",
                  "band_limited_index", "rate_study", "tikhonov_reconstruct"),
    "io": ("read_data", "read_far_coeffs", "read_field", "write_data",
           "write_far_coeffs", "write_field"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = ("cgo", "cli", "forward", "fourier", "inversion", "io",
               "spherical", "vsc")

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


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        module = importlib.import_module(f".{_HOME[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))

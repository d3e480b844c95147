"""Exact finite-n analysis of the Bolthausen-Sznitman coalescent.

The package covers the block counting process and the fixation line:
exact triangular spectral decompositions of their generators, transition
and hitting probabilities, absorption-time distributions with their
Gumbel limit and Edgeworth refinements, samplers for the Mittag-Leffler
and one-sided stable limit marginals, and exact-distribution Monte Carlo
with reproducible substreams.
"""

import importlib

from .combinatorics import (
    DEFAULT_NMAX,
    EULER_GAMMA,
    ZETA,
    general_binomial,
    signed_log_gamma,
    stirling_first,
    stirling_second,
)
from .spectral import (
    DegenerateSpectrumError,
    GeneratorKind,
    SpectralDecomposition,
    TriangularMatrix,
    VerificationReport,
    build_generator,
    closed_form_decomposition,
    generator_entry,
    recursive_decomposition,
    verify_decomposition,
)
from .analytics import (
    HittingMethod,
    NumericInstabilityError,
    TimePoint,
    absorption_cdf,
    block_tail_via_duality,
    edgeworth_c,
    edgeworth_cdf,
    fixation_marginal,
    fixation_pgf,
    fixation_transition,
    gumbel_cumulant,
    gumbel_limit_cdf,
    hitting_asymptotic,
    hitting_gf_coefficients,
    hitting_probability,
)
# limits and simulate import numpy, most of a cold start: they load on the
# first use of one of their names (PEP 562), so closed-form work never does.
_NUMPY_MODULES = ("limits", "simulate")


def __getattr__(name):
    if name not in __all__ and name not in _NUMPY_MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importing a submodule binds it here; bind the name asked for as well
    for sub in _NUMPY_MODULES:
        module = importlib.import_module(f"{__name__}.{sub}")
        if name in module.__all__:
            globals()[name] = getattr(module, name)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__, *_NUMPY_MODULES})


__version__ = "0.1.0"

__all__ = [
    "DEFAULT_NMAX",
    "EULER_GAMMA",
    "ZETA",
    "stirling_first",
    "stirling_second",
    "general_binomial",
    "signed_log_gamma",
    "GeneratorKind",
    "TriangularMatrix",
    "SpectralDecomposition",
    "VerificationReport",
    "DegenerateSpectrumError",
    "generator_entry",
    "build_generator",
    "closed_form_decomposition",
    "recursive_decomposition",
    "verify_decomposition",
    "TimePoint",
    "HittingMethod",
    "NumericInstabilityError",
    "fixation_pgf",
    "fixation_transition",
    "fixation_marginal",
    "block_tail_via_duality",
    "hitting_probability",
    "hitting_gf_coefficients",
    "hitting_asymptotic",
    "absorption_cdf",
    "gumbel_limit_cdf",
    "gumbel_cumulant",
    "edgeworth_c",
    "edgeworth_cdf",
    "LogProcess",
    "ml_moment",
    "sample_neveu",
    "sample_mittag_leffler",
    "mittag_leffler_cdf",
    "neveu_cdf",
    "neveu_laplace_fd",
    "log_cumulant",
    "siegmund_duality_gap",
    "check_pow_inequality",
    "PathSample",
    "EstimateWithError",
    "replicate_rng",
    "simulate_block",
    "simulate_fixation",
    "estimate_hitting",
    "sample_block_marginal",
    "sample_absorption_times",
    "sample_fixation_marginal",
    "scaled_marginal_sample",
    "ks_distance",
]

"""Exact finite-n analysis of the Bolthausen-Sznitman coalescent.

The package covers the block counting process and the fixation line:
exact triangular spectral decompositions of their generators, transition
and hitting probabilities, absorption-time distributions with their
Gumbel limit and Edgeworth refinements, samplers for the Mittag-Leffler
and one-sided stable limit marginals, and exact-distribution Monte Carlo
with reproducible substreams.

Each module's ``__all__`` lists its public names; the package exports
their union.
"""

import importlib

from . import analytics, combinatorics, spectral

# limits and simulate import numpy, most of a cold start: their names are
# listed here, so that the package knows them without importing numpy, and
# each module loads on the first use of one of its names (PEP 562), so
# closed-form work never does.  Each list equals its module's __all__.
_LAZY = {
    "limits": [
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
    ],
    "simulate": [
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
    ],
}

__version__ = "0.1.0"

__all__ = [
    *combinatorics.__all__,
    *spectral.__all__,
    *analytics.__all__,
    *_LAZY["limits"],
    *_LAZY["simulate"],
]

globals().update(
    {name: getattr(module, name) for module in (combinatorics, spectral, analytics) for name in module.__all__}
)


def __getattr__(name):
    for sub, names in _LAZY.items():
        if name == sub or name in names:
            # importing the submodule binds it here; bind its names as well
            module = importlib.import_module(f"{__name__}.{sub}")
            globals().update({n: getattr(module, n) for n in names})
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_LAZY})

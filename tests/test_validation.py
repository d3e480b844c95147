"""Every argument guard that raises ValueError, each reached by one call."""

import math
from fractions import Fraction

import pytest

from bscoal.analytics import (
    TimePoint,
    absorption_cdf,
    block_tail_via_duality,
    edgeworth_cdf,
    fixation_marginal,
    fixation_pgf,
    fixation_transition,
    gumbel_cumulant,
    gumbel_limit_cdf,
    hitting_gf_coefficients,
    hitting_probability,
)
from bscoal.combinatorics import DEFAULT_NMAX, general_binomial
from bscoal.limits import siegmund_duality_gap
from bscoal.simulate import estimate_hitting, replicate_rng, simulate_block, simulate_fixation
from bscoal.spectral import (
    GeneratorKind,
    SpectralDecomposition,
    TriangularMatrix,
    build_generator,
    closed_form_decomposition,
    eigenvalues,
    generator_entry,
    recursive_decomposition,
    verify_decomposition,
)

TP = TimePoint.from_time(1.0)
FIX = GeneratorKind.BS_FIXATION
KINGMAN = GeneratorKind.KINGMAN_FIXATION
ONE = ((Fraction(1),),)


def _mismatched_sizes():
    dec = closed_form_decomposition(FIX, 3)
    return SpectralDecomposition(FIX, 3, dec.R, dec.D, closed_form_decomposition(FIX, 2).L)


def _zero_generator(n):
    return TriangularMatrix(n, "upper", ((0,) * n,) * n)


GUARDS = {
    "TimePoint alpha": (lambda: TimePoint(0.0, 1.5), "alpha must lie in"),
    # from_alpha raised "math domain error" from the log before checking alpha
    "TimePoint.from_alpha 0": (lambda: TimePoint.from_alpha(0.0), r"alpha must lie in \(0, 1\], got 0\.0"),
    "TimePoint.from_alpha -1": (lambda: TimePoint.from_alpha(-1.0), r"alpha must lie in \(0, 1\], got -1\.0"),
    "fixation_pgf i": (lambda: fixation_pgf(0, TP, 0.5), "initial state must be positive"),
    "fixation_pgf z": (lambda: fixation_pgf(1, TP, 1.0), r"\|z\| < 1"),
    "fixation_transition state": (lambda: fixation_transition(0, 2, TP), "states must be positive"),
    "fixation_transition formula": (lambda: fixation_transition(1, 2, TP, "bogus"), "unknown formula"),
    "fixation_marginal j": (lambda: fixation_marginal(TP, 0), "state must be positive"),
    "hitting_probability state": (lambda: hitting_probability(0, 2), "states must be positive"),
    "hitting_gf_coefficients J": (lambda: hitting_gf_coefficients(3, 2), "need J >= i"),
    "gumbel_limit_cdf i": (lambda: gumbel_limit_cdf(0, 0.0), "need i >= 1"),
    "edgeworth_cdf i": (lambda: edgeworth_cdf(100, 0, 0.0, 1), "need i >= 1"),
    "gumbel_cumulant j < 1": (lambda: gumbel_cumulant(0), "must be positive"),
    "gumbel_cumulant j > 12": (lambda: gumbel_cumulant(13), "beyond tabulated zeta"),
    "siegmund_duality_gap reps": (
        lambda: siegmund_duality_gap(1.0, 1.0, 1.0, 0, replicate_rng(0)),
        "at least one replicate",
    ),
    "simulate_block n": (lambda: simulate_block(0, 1.0, replicate_rng(0)), "initial state must be positive"),
    "simulate_block n > 2^62": (lambda: simulate_block(2**62 + 1, 0.0, replicate_rng(0)), r"at most 2\^62"),
    "simulate_fixation n": (lambda: simulate_fixation(0, 10, replicate_rng(0)), "initial state must be positive"),
    "estimate_hitting i > j": (lambda: estimate_hitting(3, 2, 10, replicate_rng(0)), "need 1 <= i <= j"),
    "general_binomial j": (lambda: general_binomial(1.0, -1), "must be nonnegative"),
    # these raised OverflowError, or ValueError only by accident, or returned inf
    "general_binomial z = inf": (lambda: general_binomial(math.inf, 3), "finite z, got z=inf"),
    "general_binomial z = -inf": (lambda: general_binomial(-math.inf, 70), "finite z, got z=-inf"),
    "general_binomial z = nan": (lambda: general_binomial(math.nan, 3), "finite z, got z=nan"),
    "general_binomial product past range": (lambda: general_binomial(1e308, 3), "exceeds the float range"),
    "general_binomial negative past range": (lambda: general_binomial(-1e308, 3), "exceeds the float range"),
    "general_binomial log-gamma past range": (lambda: general_binomial(1e308, 70), "exceeds the float range"),
    "general_binomial exp past range": (lambda: general_binomial(1e5, 200), "exceeds the float range"),
    "general_binomial log-gamma cancels": (lambda: general_binomial(1e300, 70), "loses its digits"),
    # these raised OverflowError: int too large to convert to float
    "fixation_pgf i past float range": (lambda: fixation_pgf(2**1100, TP, 0.5), "state i of 1101 bits"),
    "fixation_marginal j past float range": (lambda: fixation_marginal(TP, 10**400), "state j of 1329 bits"),
    "absorption_cdf n past float range": (lambda: absorption_cdf(10**400, 1, 1.0), "n of 1329 bits"),
    "block_tail_via_duality n past float range": (
        lambda: block_tail_via_duality(10**400, 1, TP),
        "n of 1329 bits",
    ),
    "hitting_probability integral past float range": (
        lambda: hitting_probability(1, 10**400, "integral"),
        "j - i of 1329 bits",
    ),
    "absorption_cdf t past float range": (lambda: absorption_cdf(10, 2, 10**400), "t of 1329 bits exceeds the float range"),
    "TimePoint.from_time t past float range": (
        lambda: TimePoint.from_time(10**400),
        "t of 1329 bits exceeds the float range",
    ),
    "gumbel_limit_cdf x past float range": (lambda: gumbel_limit_cdf(2, 10**400), "x of 1329 bits exceeds the float range"),
    "gumbel_limit_cdf -x past float range": (
        lambda: gumbel_limit_cdf(2, -(10**400)),
        "x of 1329 bits exceeds the float range",
    ),
    "edgeworth_cdf x past float range": (
        lambda: edgeworth_cdf(100, 2, 10**400, 2),
        "x of 1329 bits exceeds the float range",
    ),
    "TriangularMatrix orientation": (lambda: TriangularMatrix(1, "diagonal", ONE), "orientation must be"),
    "TriangularMatrix ragged": (lambda: TriangularMatrix(2, "upper", ((1, 0), (1,))), "n x n array"),
    "TriangularMatrix.entry": (lambda: TriangularMatrix(1, "upper", ONE).entry(1, 2), r"outside 1\.\.1"),
    "generator_entry state": (lambda: generator_entry(FIX, 0, 1), "states must be positive"),
    "build_generator n": (lambda: build_generator(FIX, 0), "truncation size must be positive"),
    "closed_form_decomposition n": (lambda: closed_form_decomposition(FIX, 0), "truncation size must be positive"),
    # Kingman's closed forms and generator read no Stirling table, yet share its size bound
    "closed_form_decomposition kingman n": (
        lambda: closed_form_decomposition(KINGMAN, 10**5),
        "DEFAULT_NMAX = 256",
    ),
    "build_generator kingman n": (lambda: build_generator(KINGMAN, 10**5), "DEFAULT_NMAX = 256"),
    "recursive_decomposition count": (
        lambda: recursive_decomposition(build_generator(FIX, 3), eigenvalues(FIX, 2), FIX),
        "eigenvalue count",
    ),
    "verify_decomposition sizes": (lambda: verify_decomposition(_mismatched_sizes()), "size mismatch"),
    "verify_decomposition n": (
        lambda: verify_decomposition(
            SpectralDecomposition(FIX, 257, _zero_generator(257), (0,) * 257, _zero_generator(257))
        ),
        r"n = 257\b.*DEFAULT_NMAX = 256",
    ),
    # a user-built generator past the bound is refused before its eigenvalues are read
    "recursive_decomposition n": (
        lambda: recursive_decomposition(_zero_generator(DEFAULT_NMAX + 1), (), FIX),
        rf"n = {DEFAULT_NMAX + 1}\b.*DEFAULT_NMAX = {DEFAULT_NMAX}",
    ),
}


@pytest.mark.parametrize("call, message", GUARDS.values(), ids=GUARDS.keys())
def test_guard_raises_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("kind", list(GeneratorKind))
def test_spectrum_takes_the_generator_sizes(kind):
    # eigenvalues(kind, n) is bounded like the generator whose diagonal it is
    for n, message in (
        (0, "truncation size must be positive"),
        (-3, "truncation size must be positive"),
        (DEFAULT_NMAX + 1, rf"{kind.value} spectrum at n = {DEFAULT_NMAX + 1}\b.*DEFAULT_NMAX = {DEFAULT_NMAX}"),
    ):
        with pytest.raises(ValueError, match=message):
            eigenvalues(kind, n)
    assert eigenvalues(kind, DEFAULT_NMAX) == tuple(
        generator_entry(kind, i, i) for i in range(1, DEFAULT_NMAX + 1)
    )
    assert len(eigenvalues(kind, 1)) == 1


"""Limit-law samplers, Laplace transforms, cumulants, and the power inequality."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bscoal.analytics import TimePoint
from bscoal.limits import (
    LogProcess,
    check_pow_inequality,
    log_cumulant,
    mittag_leffler_cdf,
    ml_moment,
    neveu_cdf,
    neveu_laplace_fd,
    sample_mittag_leffler,
    sample_neveu,
    siegmund_duality_gap,
)
from bscoal.combinatorics import EULER_GAMMA
from bscoal.simulate import ks_distance, replicate_rng

REPS = 10**5


class TestMoments:
    def test_time_zero_degenerate(self):
        tp = TimePoint.from_time(0.0)
        assert ml_moment(tp, 3.7) == 1.0

    def test_order_zero(self):
        assert ml_moment(TimePoint.from_time(1.3), 0.0) == 1.0

    def test_half_alpha_second_moment(self):
        # Gamma(3)/Gamma(2) = 2
        tp = TimePoint.from_alpha(0.5)
        assert ml_moment(tp, 2.0) == pytest.approx(2.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            ml_moment(TimePoint.from_time(1.0), -1.0)


class TestSamplers:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_mittag_leffler_moments(self, alpha):
        tp = TimePoint.from_alpha(alpha)
        x = sample_mittag_leffler(tp, replicate_rng(101), size=REPS)
        for m in (1, 2, 3):
            xm = x**m
            se = xm.std() / math.sqrt(REPS)
            assert abs(xm.mean() - ml_moment(tp, m)) < 4 * se

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_neveu_laplace_transform(self, alpha):
        tp = TimePoint.from_alpha(alpha)
        y = sample_neveu(tp, replicate_rng(102), size=REPS)
        for lam in (0.5, 1.0, 2.0):
            e = np.exp(-lam * y)
            se = e.std() / math.sqrt(REPS)
            assert abs(e.mean() - math.exp(-(lam**alpha))) < 4 * se

    def test_alpha_one_degenerate(self):
        tp = TimePoint.from_time(0.0)
        rng = replicate_rng(0)
        assert sample_neveu(tp, rng) == 1.0
        assert np.all(sample_mittag_leffler(tp, rng, size=10) == 1.0)

    def test_scalar_draws(self):
        tp = TimePoint.from_time(1.0)
        v = sample_neveu(tp, replicate_rng(3))
        assert isinstance(v, float) and v > 0

    def test_stable_tail_exponent(self):
        # P(Y > y) ~ y^{-alpha}: log-log slope over a decade of thresholds
        alpha = 0.5
        tp = TimePoint.from_alpha(alpha)
        y = sample_neveu(tp, replicate_rng(104), size=4 * REPS)
        qs = np.array([10.0, 30.0, 100.0, 300.0])
        tails = np.array([(y > q).mean() for q in qs])
        slope = np.polyfit(np.log(qs), np.log(tails), 1)[0]
        assert slope == pytest.approx(-alpha, abs=0.05)

    @pytest.mark.parametrize("t", [6.0, 10.0, 20.0, 40.0])
    def test_mittag_leffler_finite_at_large_t(self, t):
        # alpha = e^-t is tiny: the draw must not pass through S = X^(-1/alpha)
        tp = TimePoint.from_time(t)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            x = sample_mittag_leffler(tp, replicate_rng(1), size=2 * REPS)
        assert np.all(np.isfinite(x)) and np.all(x > 0)
        se = x.std() / math.sqrt(x.size)
        assert abs(x.mean() - ml_moment(tp, 1)) < 5 * se

    @pytest.mark.parametrize("t", [6.0, 20.0])
    def test_neveu_out_of_float_range_raises(self, t):
        # log Y is of order e^t: most draws pass 1e308 or fall below 1e-308
        tp = TimePoint.from_time(t)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=f"t = {t!r}"):
                sample_neveu(tp, replicate_rng(1), size=REPS)

    def test_log_moments_match_cumulants(self):
        t = 0.7
        tp = TimePoint.from_time(t)
        ly = np.log(sample_neveu(tp, replicate_rng(105), size=REPS))
        spec = LogProcess("neveu", t)
        se1 = ly.std() / math.sqrt(REPS)
        assert abs(ly.mean() - log_cumulant(spec, 1)) < 4 * se1
        centered = ly - ly.mean()
        var = centered.var()
        se2 = (centered**2).std() / math.sqrt(REPS)
        assert abs(var - log_cumulant(spec, 2)) < 4 * se2


def _series_cdf(mpmath, alpha: float, x):
    """Mittag-Leffler CDF by its alternating power series, free of Kanter's
    representation: (1/(pi a)) sum_k (-1)^(k+1) Gamma(a k + 1) sin(pi a k) x^k / (k k!)."""
    with mpmath.workdps(100):
        a, x = mpmath.mpf(alpha), mpmath.mpf(x)
        total, k = mpmath.mpf(0), 1
        while True:
            term = mpmath.gamma(a * k + 1) * mpmath.sin(mpmath.pi * a * k) * x**k / (k * mpmath.factorial(k))
            total += term if k % 2 else -term
            if k > 10 and abs(term) < mpmath.mpf(10) ** -40:
                return float(total / (mpmath.pi * a))
            k += 1


class TestExactCdfs:
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 6.0, 20.0])
    def test_match_series_oracle(self, t):
        mpmath = pytest.importorskip("mpmath")
        tp = TimePoint.from_time(t)
        a = tp.alpha
        # the 0.1%-99.9% quantile range of X, and the stable points y = x^(-1/a)
        # that float64 can hold (at t = 20 only those near y = 1 remain)
        xs = np.logspace(-3.5, 1.0, 400)
        F = mittag_leffler_cdf(tp, xs)
        xs = xs[(F > 1e-3) & (F < 1 - 1e-3)][::10]
        for x, f in zip(xs, mittag_leffler_cdf(tp, xs)):
            assert abs(f - _series_cdf(mpmath, a, x)) < 1e-9, x
        with np.errstate(over="ignore", divide="ignore"):
            ys = np.concatenate((xs ** (-1.0 / a), [1e-300, 1.0, 1e300]))
        G = neveu_cdf(tp, ys)
        keep = (G > 1e-3) & (G < 1 - 1e-3)
        assert keep.sum() >= 3
        for y, g in zip(ys[keep], G[keep]):
            with mpmath.workdps(100):
                x = mpmath.mpf(y) ** -mpmath.mpf(a)
            assert abs(g - (1.0 - _series_cdf(mpmath, a, x))) < 1e-9, y

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_samplers_match_exact_cdfs(self, t):
        tp = TimePoint.from_time(t)
        crit = 1.95 / math.sqrt(REPS)  # one-sample Kolmogorov 0.999 quantile
        x = sample_mittag_leffler(tp, replicate_rng(110), size=REPS)
        assert ks_distance(x, lambda v: mittag_leffler_cdf(tp, v)) < crit
        y = sample_neveu(tp, replicate_rng(111), size=REPS)
        assert ks_distance(y, lambda v: neveu_cdf(tp, v)) < crit

    def test_time_zero_is_step_at_one(self):
        tp = TimePoint.from_time(0.0)
        pts = np.array([0.5, 1.0 - 1e-12, 1.0, 2.0])
        for cdf in (mittag_leffler_cdf, neveu_cdf):
            assert list(cdf(tp, pts)) == [0.0, 0.0, 1.0, 1.0]

    def test_nonpositive_gives_zero(self):
        for t in (0.5, 2.0):
            tp = TimePoint.from_time(t)
            for cdf in (mittag_leffler_cdf, neveu_cdf):
                assert np.all(cdf(tp, np.array([-np.inf, -3.0, 0.0])) == 0.0)
                assert cdf(tp, np.inf) == pytest.approx(1.0, abs=1e-15)
                assert math.isnan(cdf(tp, math.nan))

    def test_monotone(self):
        tp = TimePoint.from_time(1.0)
        grid = np.logspace(-6, 3, 500)
        for cdf in (mittag_leffler_cdf, neveu_cdf):
            assert np.all(np.diff(cdf(tp, grid)) >= 0.0)


class TestLaplaceRecursion:
    def test_single_time(self):
        for t, lam in ((0.5, 1.0), (1.0, 2.0)):
            alpha = math.exp(-t)
            assert neveu_laplace_fd([t], [lam]) == pytest.approx(
                math.exp(-(lam**alpha))
            )

    def test_marginal_consistency(self):
        # zero weight at the earlier time reduces to the later marginal
        assert neveu_laplace_fd([0.5, 1.0], [0.0, 2.0]) == pytest.approx(
            neveu_laplace_fd([1.0], [2.0])
        )

    def test_two_times_closed_form(self):
        t1, t2, l1, l2 = 0.5, 1.2, 0.7, 1.3
        a1, a2 = math.exp(-t1), math.exp(-t2)
        expect = math.exp(-((l1 + l2 ** (a2 / a1)) ** a1))
        assert neveu_laplace_fd([t1, t2], [l1, l2]) == pytest.approx(expect)

    def test_against_sampler(self):
        t, lam = 0.8, 1.0
        tp = TimePoint.from_time(t)
        y = sample_neveu(tp, replicate_rng(106), size=REPS)
        e = np.exp(-lam * y)
        se = e.std() / math.sqrt(REPS)
        assert abs(e.mean() - neveu_laplace_fd([t], [lam])) < 4 * se

    def test_monotone_and_bounded(self):
        for lams in ([0.1, 0.2, 0.3], [1.0, 0.5, 2.0]):
            v = neveu_laplace_fd([0.3, 0.6, 1.0], lams)
            assert 0.0 < v <= 1.0
        base = neveu_laplace_fd([0.3, 0.6], [0.5, 0.5])
        more = neveu_laplace_fd([0.3, 0.6], [0.9, 0.5])
        assert more < base

    def test_domain(self):
        with pytest.raises(ValueError):
            neveu_laplace_fd([1.0, 0.5], [1.0, 1.0])
        with pytest.raises(ValueError):
            neveu_laplace_fd([0.5], [-1.0])
        with pytest.raises(ValueError):
            neveu_laplace_fd([], [])


class TestLogCumulants:
    def test_first_cumulant_neveu(self):
        t = 0.9
        assert log_cumulant(LogProcess("neveu", t), 1) == pytest.approx(
            (math.exp(t) - 1) * EULER_GAMMA
        )

    def test_time_zero_vanishes(self):
        for which in ("neveu", "mittag-leffler"):
            for j in (1, 2, 3):
                assert log_cumulant(LogProcess(which, 0.0), j) == 0.0

    def test_second_cumulant_scaling(self):
        t = 0.5
        pi2_6 = math.pi**2 / 6
        assert log_cumulant(LogProcess("neveu", t), 2) == pytest.approx(
            (math.exp(2 * t) - 1) * pi2_6
        )
        assert log_cumulant(LogProcess("mittag-leffler", t), 2) == pytest.approx(
            (1 - math.exp(-2 * t)) * pi2_6
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            LogProcess("bogus", 1.0)
        with pytest.raises(ValueError):
            log_cumulant(LogProcess("neveu", 1.0), 0)


class TestDuality:
    def test_gap_near_zero(self):
        gap = siegmund_duality_gap(1.0, 1.0, 1.0, REPS, replicate_rng(107))
        assert abs(gap) < 3 * math.sqrt(0.5 / REPS)

    def test_x_zero_trivial(self):
        gap = siegmund_duality_gap(0.0, 1.0, 1.0, 1000, replicate_rng(108))
        assert gap == 0.0

    @pytest.mark.parametrize("t", [6.0, 20.0])
    def test_gap_near_zero_past_float_range(self, t):
        # most stable draws at these t leave (0, inf); the gap is formed in the log domain
        gap = siegmund_duality_gap(1.0, 2.0, t, REPS, replicate_rng(109))
        assert abs(gap) < 5 * math.sqrt(0.5 / REPS)


class TestPowInequality:
    def test_equality_edges(self):
        assert check_pow_inequality(0.0, 0.5)
        assert check_pow_inequality(2.0, 1.0)
        assert check_pow_inequality(0.0, 0.0)

    @given(
        x=st.floats(0.0, 10.0, allow_nan=False),
        alpha=st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=300)
    def test_holds_everywhere(self, x, alpha):
        assert check_pow_inequality(x, alpha)

    def test_domain(self):
        with pytest.raises(ValueError):
            check_pow_inequality(-1.0, 0.5)
        with pytest.raises(ValueError):
            check_pow_inequality(1.0, 1.5)

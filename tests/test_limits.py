"""Limit-law samplers, Laplace transforms, cumulants, and the power inequality."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bscoal import limits
from bscoal.analytics import NumericInstabilityError, TimePoint
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

    def test_nan_order_raises(self):
        with pytest.raises(ValueError):
            ml_moment(TimePoint.from_time(1.0), math.nan)

    def test_infinite_order_raises(self):
        with pytest.raises(NumericInstabilityError):
            ml_moment(TimePoint.from_time(1.0), math.inf)

    def test_past_float_range_raises(self):
        # Gamma(301) / Gamma(1 + 300 / e) is about 1e540
        tp = TimePoint.from_time(1.0)
        assert math.isfinite(ml_moment(tp, 150.0))
        with pytest.raises(NumericInstabilityError):
            ml_moment(tp, 300.0)


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

    @pytest.mark.parametrize("t", [6.0, 10.0, 20.0, 40.0, 700.0, 745.0])
    def test_mittag_leffler_finite_at_large_t(self, t):
        # alpha = e^-t is tiny: the draw must not pass through S = X^(-1/alpha)
        tp = TimePoint.from_time(t)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            x = sample_mittag_leffler(tp, replicate_rng(1), size=2 * REPS)
        assert np.all(np.isfinite(x)) and np.all(x > 0)
        se = x.std() / math.sqrt(x.size)
        assert abs(x.mean() - ml_moment(tp, 1)) < 5 * se

    @pytest.mark.parametrize("t", [6.0, 20.0, 40.0, 700.0, 745.0])
    def test_neveu_out_of_float_range_raises(self, t):
        # log Y is of order e^t: most draws pass 1e308 or fall below 1e-308
        tp = TimePoint.from_time(t)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=f"t = {t!r}"):
                sample_neveu(tp, replicate_rng(1), size=REPS)

    def test_near_alpha_one_finite(self):
        # t = 1e-12: 1 - alpha is 1e-12, so sin((1 - alpha) pi u) is as small as 1e-27
        tp = TimePoint.from_time(1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            x = sample_mittag_leffler(tp, replicate_rng(1), size=2 * REPS)
            y = sample_neveu(tp, replicate_rng(1), size=2 * REPS)
        assert np.all(np.isfinite(x)) and np.all(x > 0) and np.all(np.isfinite(y)) and np.all(y > 0)
        se = x.std() / math.sqrt(x.size)
        assert abs(x.mean() - ml_moment(tp, 1)) < 5 * se
        e = np.exp(-y)
        assert abs(e.mean() - math.exp(-1.0)) < 5 * e.std() / math.sqrt(y.size)

    @pytest.mark.parametrize("t", [0.5, 1.0, 745.0])
    def test_scalar_draw_is_the_first_of_one(self, t):
        tp = TimePoint.from_time(t)
        for sampler in (sample_mittag_leffler, sample_neveu):
            try:
                scalar = sampler(tp, replicate_rng(12))
            except ValueError:  # the stable law leaves the float64 range at t = 745
                with pytest.raises(ValueError):
                    sampler(tp, replicate_rng(12), size=1)
                continue
            one = sampler(tp, replicate_rng(12), size=1)
            assert isinstance(scalar, float) and one.shape == (1,)
            assert np.float64(scalar).tobytes() == one[0].tobytes()

    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_draws_leave_nodes_and_cdfs_as_they_were(self, t):
        # the kernel computes in its own buffers: sampling must not write into _NODES,
        # which every CDF evaluation reads
        tp = TimePoint.from_time(t)
        xs = np.logspace(-2.0, 1.0, 25)
        nodes = limits._NODES.copy()
        f, g = mittag_leffler_cdf(tp, xs), neveu_cdf(tp, xs)
        sample_mittag_leffler(tp, replicate_rng(13), size=REPS)
        sample_neveu(tp, replicate_rng(14), size=REPS)
        assert limits._NODES.tobytes() == nodes.tobytes()
        assert mittag_leffler_cdf(tp, xs).tobytes() == f.tobytes()
        assert neveu_cdf(tp, xs).tobytes() == g.tobytes()

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


def _three_sine_kernel(a: float, u):
    """k(u) = a log sin(a pi u) + (1-a) log sin((1-a) pi u) - log sin(pi u) term by term,
    by three sines and three logs with the kernel's clamp: the reference form of the kernel."""
    return (
        a * np.log(np.maximum(np.sin(a * np.pi * u), 5e-324))
        + (1.0 - a) * np.log(np.sin((1.0 - a) * np.pi * u))
        - np.log(np.sin(np.pi * u))
    )


def _mpmath_kernel(mpmath, a: float, u):
    """k(u) in 40 digits at the float arguments a pi u, (1-a) pi u and pi u that numpy forms,
    and with the float weights a and 1 - a."""
    b = 1.0 - a
    out = []
    with mpmath.workdps(40):
        for x1, x2, x3 in zip(a * np.pi * u, b * np.pi * u, np.pi * u):
            s1 = max(mpmath.sin(mpmath.mpf(x1)), mpmath.mpf(5e-324))
            s2, s3 = mpmath.sin(mpmath.mpf(x2)), mpmath.sin(mpmath.mpf(x3))
            out.append(float(a * mpmath.log(s1) + b * mpmath.log(s2) - mpmath.log(s3)))
    return np.array(out)


class TestKanterKernel:
    # u = 1, 1 - 2^-53 and 2^-53, every power 2^-k and 1 - 2^-k, and a grid of step 1/3000
    K = np.arange(1.0, 54.0)
    U = np.unique(np.concatenate(([1.0, 1.0 - 2.0**-53, 2.0**-53, 0.5], 2.0**-K, 1.0 - 2.0**-K,
                                  np.arange(1.0, 3001.0) / 3000)))

    @pytest.mark.parametrize("t", [1e-9, 0.5, 1.0, 4.0, 30.0, 700.0])
    def test_matches_mpmath(self, t):
        # largest error relative to max(1, |k|) over U: 4.4e-16 to 1.4e-15 (three sines:
        # 4.6e-15 to 8.8e-15); 6.9e-302 for both at t = 700
        mpmath = pytest.importorskip("mpmath")
        a = math.exp(-t)
        want = _mpmath_kernel(mpmath, a, self.U)
        err = np.abs(-limits._kanter_kernel(a, self.U) - want) / np.maximum(1.0, np.abs(want))
        assert err.max() < 4e-15

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 6.0])
    def test_samplers_match_three_sines_on_the_same_stream(self, t):
        # the samplers read rng.random(n), then rng.exponential(size=n); n spans two full
        # blocks of the kernel and part of a third
        tp, n = TimePoint.from_time(t), 2 * limits._BLOCK + 1000
        rng = replicate_rng(115)
        u = 1.0 - rng.random(n)
        log_x = (1.0 - tp.alpha) * np.log(rng.exponential(size=n)) - _three_sine_kernel(tp.alpha, u)
        x = sample_mittag_leffler(tp, replicate_rng(115), size=n)
        assert np.max(np.abs(x / np.exp(log_x) - 1.0)) < 1e-13
        with np.errstate(over="ignore", under="ignore"):
            y_want = np.exp(log_x / -tp.alpha)
        if np.all(y_want > 0.0) and np.all(y_want < math.inf):
            y = sample_neveu(tp, replicate_rng(115), size=n)
            assert np.max(np.abs(y / y_want - 1.0)) < 1e-13
        else:  # at t = 6 the stable draws leave the float64 range on either side
            assert t >= 6.0
            with pytest.raises(ValueError):
                sample_neveu(tp, replicate_rng(115), size=n)


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

    def test_graded_rule_is_numpys_leggauss_10(self):
        nodes, weights = np.polynomial.legendre.leggauss(10)
        assert limits._GL.tobytes() == nodes.tobytes() and limits._GW.tobytes() == weights.tobytes()

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

    @pytest.mark.parametrize("t", [700.0, 741.5, 745.0])
    def test_subnormal_alpha_keeps_the_alpha_to_zero_laws(self, t):
        # alpha = e^-t is subnormal from t of about 708 on, and sin(alpha pi u)
        # underflowed to 0 on part of (0, 1): draws came out inf, and from about
        # t = 741 the CDFs were off by up to 0.17 or NaN.  As alpha -> 0, X tends
        # to Exp(1) and so does Y^-alpha
        tp = TimePoint.from_time(t)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            x = sample_mittag_leffler(tp, replicate_rng(2), size=2 * REPS)
        assert np.all(np.isfinite(x)) and np.all(x > 0)
        pts = np.array([0.0, 1e-300, 1e-5, 0.5, 1.0, 2.0, 40.0, math.inf])
        assert np.max(np.abs(mittag_leffler_cdf(tp, pts) + np.expm1(-pts))) < 1e-13
        y = np.concatenate([[-1.0], pts])
        with np.errstate(divide="ignore"):
            want = np.where(y > 0, np.exp(-(np.abs(y) ** -tp.alpha)), 0.0)
        assert np.max(np.abs(neveu_cdf(tp, y) - want)) < 1e-13

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_nan_raises_and_one_type_per_shape(self, t):
        tp = TimePoint.from_time(t)
        for cdf in (mittag_leffler_cdf, neveu_cdf):
            for x in (math.nan, np.array([0.5, math.nan])):
                with pytest.raises(ValueError, match="nan"):
                    cdf(tp, x)
            for x in (0.0, 0.5, 2.0, math.inf, np.float64(3.0), np.array(2.0)):
                assert type(cdf(tp, x)) is float
            for shape in ((1,), (3,), (2, 2)):
                out = cdf(tp, np.full(shape, 2.0))
                assert type(out) is np.ndarray and out.shape == shape

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

    def test_nan_raises(self):
        for times, lams in (([math.nan], [1.0]), ([0.5, math.nan], [1.0, 1.0]), ([0.5], [math.nan])):
            with pytest.raises(ValueError):
                neveu_laplace_fd(times, lams)

    def test_past_alpha_underflow(self):
        # from t of about 745 on e^-t underflows to 0; the exponents come from time gaps
        assert neveu_laplace_fd([800.0, 801.0], [1.0, 1.0]) == pytest.approx(math.exp(-1.0), abs=1e-12)
        values = [neveu_laplace_fd([t, t + 1.0], [2.0, 3.0]) for t in np.linspace(740.0, 750.0, 101)]
        assert max(abs(a - b) for a, b in zip(values, values[1:])) <= 1e-12
        assert values[-1] == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_zero_weight_past_alpha_underflow(self):
        # 0^e = 0 for every e > 0, so a zero weight drops out at any time
        assert neveu_laplace_fd([800.0], [0.0]) == 1.0
        assert neveu_laplace_fd([0.0, 900.0], [1.0, 0.0]) == neveu_laplace_fd([0.0], [1.0])


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

    def test_nan_time_raises(self):
        with pytest.raises(ValueError):
            LogProcess("neveu", math.nan)

    def test_stable_past_float_range_raises(self):
        # e^800 overflows; the Mittag-Leffler cumulant stays bounded
        for t in (800.0, math.inf):
            with pytest.raises(NumericInstabilityError):
                log_cumulant(LogProcess("neveu", t), 1)
        assert log_cumulant(LogProcess("mittag-leffler", 800.0), 1) == -EULER_GAMMA


class TestDuality:
    def test_gap_near_zero(self):
        gap = siegmund_duality_gap(1.0, 1.0, 1.0, REPS, replicate_rng(107))
        assert abs(gap) < 3 * math.sqrt(0.5 / REPS)

    def test_x_zero_trivial(self):
        gap = siegmund_duality_gap(0.0, 1.0, 1.0, 1000, replicate_rng(108))
        assert gap == 0.0

    def test_nan_raises(self):
        for x, y, t in ((math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.nan)):
            with pytest.raises(ValueError):
                siegmund_duality_gap(x, y, t, 10, replicate_rng(110))

    @pytest.mark.parametrize("t", [6.0, 20.0, 745.0])
    def test_gap_near_zero_past_float_range(self, t):
        # most stable draws at these t leave (0, inf), and from t of about 709 on so does
        # log Y_t; the gap is formed in the log domain, scaled by alpha
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

    def test_nan_raises(self):
        for x, alpha in ((math.nan, 0.5), (1.0, math.nan)):
            with pytest.raises(ValueError):
                check_pow_inequality(x, alpha)

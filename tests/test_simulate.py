"""Exact jump laws, path invariants, reproducibility, and estimator accuracy."""

import math
from fractions import Fraction

import numpy as np
import pytest

from bscoal.analytics import TimePoint, absorption_cdf, block_tail_via_duality, fixation_marginal
from bscoal.limits import sample_mittag_leffler
from bscoal.simulate import (
    PathSample,
    estimate_hitting,
    ks_distance,
    replicate_rng,
    sample_absorption_times,
    sample_block_marginal,
    sample_fixation_marginal,
    scaled_marginal_sample,
    simulate_block,
    simulate_fixation,
)
from bscoal.simulate import _block_decrement  # noqa: F401  (jump-law test below)

# chi-square critical value at p = 0.001, df = 9 (frozen table value)
CHI2_CRIT_9_999 = 27.877


def block_decrement_pmf(i: int) -> list[Fraction]:
    """Exact decrement law from state i: pmf over m = 1..i-1."""
    pmf = [Fraction(i, (i - 1) * m * (m + 1)) for m in range(1, i - 1)]
    pmf.append(Fraction(1, (i - 1) ** 2))  # residual mass straight to state 1
    return pmf


class TestJumpLaws:
    def test_block_pmf_sums_to_one_exactly(self):
        for i in range(2, 101):
            assert sum(block_decrement_pmf(i), Fraction(0)) == 1

    def test_block_inverse_transform_matches_pmf(self):
        # the closed-form inverse transform must send the midpoint of each
        # cdf interval to the matching decrement
        for i in range(2, 61):
            pmf = block_decrement_pmf(i)
            cdf = [Fraction(0)]
            for p in pmf:
                cdf.append(cdf[-1] + p)
            for m in range(1, i):
                mid = float((cdf[m - 1] + cdf[m]) / 2)
                assert int(_block_decrement(float(i), mid)) == m

    def test_fixation_increment_chi_square(self):
        rng = replicate_rng(11)
        u = 1.0 - rng.random(10**6)
        eta = np.floor(1.0 / u).astype(np.int64)
        # bins m = 1..9 plus the tail m >= 10; P(m) = 1/(m(m+1)), tail 1/10
        obs = np.array([(eta == m).sum() for m in range(1, 10)] + [(eta >= 10).sum()])
        p = np.array([1.0 / (m * (m + 1)) for m in range(1, 10)] + [0.1])
        exp = p * eta.size
        chi2 = float(((obs - exp) ** 2 / exp).sum())
        assert chi2 < CHI2_CRIT_9_999


class TestPaths:
    def test_block_path_invariants(self):
        rng = replicate_rng(12)
        path = simulate_block(40, horizon=100.0, rng=rng)
        states = path.states
        assert states[0] == 40 and states[-1] == 1
        assert all(b < a for a, b in zip(states, states[1:]))
        assert all(t2 > t1 for t1, t2 in zip(path.jump_times, path.jump_times[1:]))

    def test_block_initial_state_one(self):
        path = simulate_block(1, horizon=5.0, rng=replicate_rng(13))
        assert len(path.jump_times) == 0 and list(path.states) == [1]

    def test_block_two_jumps_to_one_at_exponential_time(self):
        times = [
            simulate_block(2, horizon=1e9, rng=replicate_rng(14, k)).jump_times[0]
            for k in range(4000)
        ]
        assert np.mean(times) == pytest.approx(1.0, abs=4 / math.sqrt(4000))

    def test_fixation_path_invariants(self):
        path = simulate_fixation(3, state_cap=500, rng=replicate_rng(15))
        states = path.states
        assert states[0] == 3 and states[-1] > 500
        assert all(b > a for a, b in zip(states, states[1:]))

    def test_fixation_state_cap_domain(self):
        # NaN passes a `state_cap <= n` test and would stop the path at once
        for cap in (3, 2, math.nan):
            with pytest.raises(ValueError):
                simulate_fixation(3, cap, replicate_rng(15))

    def test_path_sample_shape_check(self):
        with pytest.raises(ValueError):
            PathSample("block", 3, np.array([0.5]), np.array([3]))


class TestReproducibility:
    def test_paths_bitwise(self):
        a = simulate_block(30, 2.0, replicate_rng(99))
        b = simulate_block(30, 2.0, replicate_rng(99))
        assert np.array_equal(a.jump_times, b.jump_times)
        assert np.array_equal(a.states, b.states)

    def test_marginals_bitwise(self):
        a = sample_fixation_marginal(50, 0.5, 200, replicate_rng(98))
        b = sample_fixation_marginal(50, 0.5, 200, replicate_rng(98))
        assert np.array_equal(a, b)

    def test_substreams_differ(self):
        a = sample_block_marginal(30, 1.0, 100, replicate_rng(97, 0))
        b = sample_block_marginal(30, 1.0, 100, replicate_rng(97, 1))
        assert not np.array_equal(a, b)


class TestEstimators:
    def test_hitting_trivial(self):
        est = estimate_hitting(4, 4, 100, replicate_rng(16))
        assert est.value == 1.0 and est.std_error == 0.0

    def test_hitting_needs_replicates(self):
        # zero replicates estimate nothing, also when i == j
        for i, j in ((1, 3), (2, 2)):
            with pytest.raises(ValueError):
                estimate_hitting(i, j, 0, replicate_rng(16))

    def test_hitting_one_to_three(self):
        est = estimate_hitting(1, 3, 10**5, replicate_rng(17))
        assert abs(est.value - 5 / 12) < 3 * est.std_error

    def test_block_marginal_matches_duality(self):
        tp = TimePoint.from_time(1.0)
        s = sample_block_marginal(30, 1.0, 10**5, replicate_rng(18))
        p = block_tail_via_duality(30, 3, tp)
        se = math.sqrt(p * (1 - p) / s.size)
        assert abs((s <= 3).mean() - p) < 3 * se

    def test_block_samplers_at_their_stopping_state(self):
        # started at the floor, no chain moves: absorption to n takes no
        # time, and one block stays one block
        assert np.array_equal(sample_absorption_times(7, 7, 50, replicate_rng(21)), np.zeros(50))
        ones = sample_block_marginal(1, 2.0, 50, replicate_rng(22))
        assert ones.dtype == np.int64 and np.array_equal(ones, np.ones(50))

    def test_absorption_times_match_cdf(self):
        taus = sample_absorption_times(50, 1, 10**5, replicate_rng(19))
        for t in (0.5, 1.0, 2.0):
            p = absorption_cdf(50, 1, t)
            se = math.sqrt(p * (1 - p) / taus.size)
            assert abs((taus <= t).mean() - p) < 3 * se

    def test_fixation_marginal_matches_exact_law(self):
        tp = TimePoint.from_time(0.7)
        s = sample_fixation_marginal(1, 0.7, 10**5, replicate_rng(20))
        for j in range(1, 11):
            p = fixation_marginal(tp, j)
            se = math.sqrt(p * (1 - p) / s.size)
            assert abs((s == j).mean() - p) < 3.5 * se

    def test_fixation_marginal_branching_mean(self):
        # mean of the state-1 marginal is 1/alpha, so from n it is n/alpha
        n, t = 200, 0.4
        s = sample_fixation_marginal(n, t, 20000, replicate_rng(21))
        alpha = math.exp(-t)
        se = s.std() / math.sqrt(s.size)
        assert abs(s.mean() - n / alpha) < 4 * se

    def test_scaled_block_time_zero(self):
        s = scaled_marginal_sample("block", 100, 0.0, 50, replicate_rng(22))
        assert np.all(s == 1.0)

    def test_scaled_domain(self):
        with pytest.raises(ValueError):
            scaled_marginal_sample("bogus", 10, 1.0, 10, replicate_rng(0))
        with pytest.raises(ValueError):
            scaled_marginal_sample("block", 1, 1.0, 10, replicate_rng(0))
        # NaN passes a `t < 0` test; the block samplers take t = inf
        # (absorption), the fixation line has no marginal there
        for t in (math.nan, -1.0):
            with pytest.raises(ValueError):
                sample_block_marginal(10, t, 3, replicate_rng(0))
            with pytest.raises(ValueError):
                simulate_block(10, t, replicate_rng(0))
        for t in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError):
                sample_fixation_marginal(3, t, 3, replicate_rng(0))
            with pytest.raises(ValueError):
                scaled_marginal_sample("fixation", 3, t, 3, replicate_rng(0))
        assert simulate_block(10, math.inf, replicate_rng(0)).states[-1] == 1


class TestKsDistance:
    def test_point_mass(self):
        cdf = lambda x: np.where(np.asarray(x) >= 2.0, 1.0, 0.0)
        assert ks_distance([2.0] * 50, cdf) <= 1 / 50

    def test_uniform_samples(self):
        rng = replicate_rng(23)
        u = rng.random(10**4)
        d = ks_distance(u, lambda x: np.clip(x, 0.0, 1.0))
        assert d < 0.025

    def test_scalar_cdf_callable(self):
        d = ks_distance([0.2, 0.5, 0.9], lambda x: min(max(float(x), 0.0), 1.0))
        assert 0.0 <= d <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_distance([], lambda x: 0.0)

    def test_nan_cdf_rejected(self):
        # an empty reference sample gives the ECDF 0/0 everywhere
        with pytest.raises(ValueError):
            ks_distance([0.5, 1.0], lambda x: np.full(np.shape(x), math.nan))

    def test_scaled_block_converges_to_mittag_leffler(self):
        tp = TimePoint.from_time(1.0)
        ref = np.sort(sample_mittag_leffler(tp, replicate_rng(24), size=200000))
        cdf = lambda x: np.searchsorted(ref, x, side="right") / ref.size
        d_small = ks_distance(
            scaled_marginal_sample("block", 100, 1.0, 4000, replicate_rng(25)), cdf
        )
        d_large = ks_distance(
            scaled_marginal_sample("block", 10000, 1.0, 4000, replicate_rng(26)), cdf
        )
        assert d_large < d_small


class _Uniforms:
    """Stands in for a Generator whose random(size) returns the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, size):
        assert size == self.u.size
        return self.u


def _uniform_at(x, t):
    """A uniform whose state-1 draw at time t is about x (h(x) = v, rounded
    onto the 2^-53 grid of rng.random)."""
    a = math.exp(-t)
    v = x**-a / math.gamma(1 - a)
    return 1.0 - round(v * 2.0**53) / 2.0**53


class TestStateOneInverse:
    """The state-1 draw is the smallest x with P(X <= x) >= u, for the
    Sibuya law P(X > x) = Gamma(x+1-a) / (Gamma(1-a) Gamma(x+1))."""

    @staticmethod
    def _oracle(u, t):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            a = mp.mpf(math.exp(-t))
            log_v = mp.log(1 - mp.mpf(u))

            def above(x):  # P(X > x) <= v, with x + 1 - a formed in mpmath
                return mp.loggamma(x + 1 - a) - mp.loggamma(x + 1) - mp.loggamma(1 - a) <= log_v

            lo, hi = 0, 1
            while not above(hi):
                lo, hi = hi, 2 * hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if above(mid) else (mid, hi)
            return hi

    @pytest.mark.parametrize("t", [0.5, 1.0, 1.5])
    def test_matches_60_digit_oracle(self, t):
        bulk = [0.0, 0.01, 0.2, 0.21, 0.4, 0.55]
        tail = [_uniform_at(10.0**e, t) for e in np.arange(1.6, 15.01, 0.45)]
        u = np.array(bulk + tail)
        x = sample_fixation_marginal(1, t, u.size, _Uniforms(u), {})
        assert x.dtype == np.int64
        for xi, ui in zip(x.tolist(), u.tolist()):
            q = self._oracle(ui, t)
            # past about 1e10 float64 cannot always separate neighbouring
            # survival values: off by one, or by a relative 4e-15
            tol = 0 if q <= 1e10 else max(1.0, 4e-15 * q)
            assert abs(xi - q) <= tol, (ui, xi, q)
        assert x[: len(bulk)].max() <= 32 < x[len(bulk) :].min()

    def test_tail_draws_counted(self):
        diag = {}
        u = [0.1, _uniform_at(1e3, 1.0), _uniform_at(1e6, 1.0)]
        sample_fixation_marginal(1, 1.0, 3, _Uniforms(u), diag)
        assert diag["tail_draws"] == 2

    def test_draw_past_int64_overflows(self):
        with pytest.raises(OverflowError):
            sample_fixation_marginal(1, 3.0, 1, _Uniforms([_uniform_at(3e19, 3.0)]))

    def test_row_sum_past_int64_overflows(self):
        # each draw fits in int64 (about 5e18), their sum does not
        u = [_uniform_at(5e18, 3.0)] * 2
        each = sample_fixation_marginal(1, 3.0, 2, _Uniforms(u))
        assert each.min() > 4e18 and each.max() < 2**63 - 1
        with pytest.raises(OverflowError):
            sample_fixation_marginal(2, 3.0, 1, _Uniforms(u))
        # below 2^63 - 1 the sum is exact
        u = [_uniform_at(4e18, 3.0)] * 2
        each = sample_fixation_marginal(1, 3.0, 2, _Uniforms(u))
        total = sample_fixation_marginal(2, 3.0, 1, _Uniforms(u))
        assert int(total[0]) == sum(each.tolist())

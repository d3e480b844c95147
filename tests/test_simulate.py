"""Exact jump laws, path invariants, reproducibility, and estimator accuracy."""

import math
from fractions import Fraction

import numpy as np
import pytest

from bscoal import simulate
from bscoal.analytics import (
    TimePoint,
    absorption_cdf,
    block_tail_via_duality,
    fixation_marginal,
    fixation_pgf,
    fixation_transition,
)
from bscoal.limits import mittag_leffler_cdf
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
from bscoal.simulate import _STIRLING, _block_step, _sibuya_above_one, _sibuya_tail

# chi-square critical value at p = 0.001, df = 9 (frozen table value)
CHI2_CRIT_9_999 = 27.877


def _block_decrement(i, v):
    """``_block_step`` vectorized over states i and uniforms v, as numpy floats:
    the jump law of the oracle ``_block_marginal_by_jumps``."""
    x = v * (i - 1) / (i - v * (i - 1))
    return np.clip(np.ceil(x), 1, i - 1)


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
        # cdf interval to the matching decrement, in the vectorized form and
        # in the scalar form of the path loop
        for i in range(2, 61):
            pmf = block_decrement_pmf(i)
            cdf = [Fraction(0)]
            for p in pmf:
                cdf.append(cdf[-1] + p)
            for m in range(1, i):
                mid = float((cdf[m - 1] + cdf[m]) / 2)
                assert int(_block_decrement(float(i), mid)) == m
                step = _block_step(i, mid)
                assert type(step) is int and step == m

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

    def test_fixation_state_cap_must_be_finite(self):
        # an int state never exceeds inf, so the path would never stop
        with pytest.raises(ValueError, match="finite"):
            simulate_fixation(1, math.inf, replicate_rng(15))

    def test_path_sample_shape_check(self):
        with pytest.raises(ValueError):
            PathSample("block", 3, np.array([0.5]), np.array([3]))


class ScalarCall(Exception):
    pass


class _NoScalarDraws:
    """Delegates to a Generator; a draw of one scalar (no size) raises."""

    def __init__(self, rng):
        self.rng = rng

    def random(self, size=None):
        if size is None:
            raise ScalarCall
        return self.rng.random(size)

    def exponential(self, scale=1.0, size=None):
        if size is None:
            raise ScalarCall
        return self.rng.exponential(scale, size)

    def standard_exponential(self, size=None):
        if size is None:
            raise ScalarCall
        return self.rng.standard_exponential(size)


def test_path_loops_call_no_numpy_scalars(monkeypatch):
    # a path draws its randomness in blocks and steps on Python floats
    want_block = simulate_block(1000, 1.0, replicate_rng(17))
    want_fix = [simulate_fixation(1, 50, replicate_rng(18, k)) for k in range(20)]

    def forbidden(*args, **kwargs):
        raise ScalarCall

    for name in ("clip", "ceil", "floor"):
        monkeypatch.setattr(np, name, forbidden)
    with pytest.raises(ScalarCall):
        _block_decrement(3.0, 0.5)
    with pytest.raises(ScalarCall):
        _NoScalarDraws(replicate_rng(17)).exponential()
    path = simulate_block(1000, 1.0, _NoScalarDraws(replicate_rng(17)))
    states, times = path.states, path.jump_times
    assert states[0] == 1000 and states[-1] >= 1 and (np.diff(states) < 0).all()
    assert (np.diff(times) > 0).all() and times[-1] <= 1.0
    assert len(times) > 2 * simulate._PATH_BLOCK  # the blocks refill
    assert np.array_equal(times, want_block.jump_times) and np.array_equal(states, want_block.states)
    for k, want in enumerate(want_fix):
        path = simulate_fixation(1, 50, _NoScalarDraws(replicate_rng(18, k)))
        assert path.states[0] == 1 and path.states[-1] > 50 and (np.diff(path.states) > 0).all()
        assert np.array_equal(path.states, want.states) and np.array_equal(path.jump_times, want.jump_times)


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
        # the state-1 marginal has no finite mean (P(X > x) ~ x^-alpha), so the
        # branching property is checked on a bounded mean: E[z^X]^n, at a z where
        # it is about e^-1
        n, t = 200, 0.4
        s = sample_fixation_marginal(n, t, 20000, replicate_rng(21))
        alpha = math.exp(-t)
        z = 1.0 - n ** (-1.0 / alpha)
        zs = np.exp(s * math.log(z))
        se = zs.std() / math.sqrt(s.size)
        assert abs(zs.mean() - fixation_pgf(n, TimePoint.from_time(t), z)) < 4 * se

    def test_fixation_marginal_matches_transition_row(self):
        # from n = 3, against the exact Stirling transition row, which reads no table
        n, t, reps = 3, 0.7, 10**5
        tp = TimePoint.from_time(t)
        s = sample_fixation_marginal(n, t, reps, replicate_rng(24))
        assert s.min() >= n
        row = [fixation_transition(n, j, tp) for j in range(n, 41)]
        for j, p in enumerate(row + [1.0 - math.fsum(row)], start=n):
            f = (s == j).mean() if j <= 40 else (s > 40).mean()
            assert abs(f - p) <= 5 * math.sqrt(p * (1 - p) / reps), (j, f, p)

    def test_fixation_marginal_tail_by_duality(self):
        # at t = 3 four draws in five are past the table, and a replicate passes
        # 2^63 - 1 (OverflowError) about one time in five: one replicate per call,
        # and an overflow counts as past every level
        n, t, calls = 2, 3.0, 5000
        tp = TimePoint.from_time(t)
        rng = replicate_rng(27)
        s = np.empty(calls)
        for k in range(calls):
            try:
                s[k] = sample_fixation_marginal(n, t, 1, rng)[0]
            except OverflowError:
                s[k] = math.inf
        for m in (3, 10, 100, 10**3, 10**6, 10**9):
            p = block_tail_via_duality(m, n, tp)
            f = (s >= m).mean()
            assert abs(f - p) <= 5 * math.sqrt(p * (1 - p) / calls), (m, f, p)

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
        # from n = 2^58 on, n draws of at most 32 could pass 2^63 - 1
        for n in (0, 2**58):
            with pytest.raises(ValueError):
                sample_fixation_marginal(n, 0.5, 3, replicate_rng(0))
        assert simulate_block(10, math.inf, replicate_rng(0)).states[-1] == 1


def _block_marginal_by_jumps(n, t, reps, rng):
    """The block count at time t by the vectorized jump chain: the oracle of the
    duality sampler.  Each round draws one exponential per chain above 1 and one
    uniform per chain whose next jump lands by t, in index order."""
    states = np.full(reps, n, dtype=np.int64)
    clocks = np.zeros(reps)
    active = np.flatnonzero(states > 1)
    while active.size:
        s = states[active].astype(np.float64)
        nt = clocks[active] + rng.exponential(size=active.size) / (s - 1.0)
        land = nt <= t
        active = active[land]
        clocks[active] = nt[land]
        states[active] -= _block_decrement(s[land], 1.0 - rng.random(active.size)).astype(np.int64)
        active = active[states[active] > 1]
    return states


class TestBlockMarginalByDuality:
    """N_t from n is the number of state-1 fixation draws whose sum first reaches n."""

    @pytest.mark.parametrize(
        "n, t, levels",
        [
            (50, 1.0, (1, 2, 3, 5, 10, 20)),
            (50, 0.1, (1, 3, 10, 20, 40)),
            (1000, 0.5, (1, 3, 10, 20, 40)),
            (30, 3.0, (1, 2, 3, 5)),
        ],
    )
    def test_matches_jump_chain_and_exact_tail(self, n, t, levels):
        reps, oracle_reps = 10**5, 2 * 10**4
        s = sample_block_marginal(n, t, reps, replicate_rng(31, n))
        chain = _block_marginal_by_jumps(n, t, oracle_reps, replicate_rng(32, n))
        assert s.dtype == np.int64 and s.min() >= 1 and s.max() <= n
        tp = TimePoint.from_time(t)
        for i in levels:
            p = block_tail_via_duality(n, i, tp)
            f = (s <= i).mean()
            assert abs(f - p) <= 5 * math.sqrt(p * (1 - p) / reps), (i, f, p)
            two_sample = math.sqrt(p * (1 - p) * (1 / reps + 1 / oracle_reps))
            assert abs(f - (chain <= i).mean()) <= 5 * two_sample, (i, f, (chain <= i).mean())

    def test_edge_cases(self):
        # n = 1 is in test_block_samplers_at_their_stopping_state
        rng = replicate_rng(33)
        assert np.array_equal(sample_block_marginal(40, math.inf, 20, rng), np.ones(20))
        empty = sample_block_marginal(40, 1.0, 0, rng)
        assert empty.dtype == np.int64 and empty.size == 0
        for n, t in ((40, math.nan), (0, 1.0), (2**62 + 1, 1.0)):
            with pytest.raises(ValueError):
                sample_block_marginal(n, t, 5, rng)

    def test_time_zero_stays_put(self):
        # e^-t rounds to 1 at t <= 2^-54: the Sibuya law is the point mass at 1
        for t in (0.0, 1e-17):
            assert np.array_equal(sample_block_marginal(40, t, 20, replicate_rng(33)), np.full(20, 40))
            assert np.array_equal(sample_fixation_marginal(40, t, 20, replicate_rng(33)), np.full(20, 40))

    def test_huge_n_is_cheap(self):
        # about n^(e^-t) state-1 draws per replicate, not O(n) jumps
        n = 10**12
        s = sample_block_marginal(n, 3.0, 10**4, replicate_rng(34))
        assert s.min() >= 1 and s.max() <= n

    def test_conditional_uniform_at_one_is_capped(self):
        # alpha + (1 - alpha) r can round to 1.0 (at t = 0.5), where 1 - u = 0 and the
        # quantile would be infinite; at t = 1 and 3 it is a draw far past int64
        r = np.array([np.nextafter(1.0, 0.0)])
        assert math.exp(-0.5) + (1 - math.exp(-0.5)) * r[0] == 1.0
        for t in (0.5, 1.0, 3.0):
            cdf = _table_cdf(math.exp(-t))
            assert _sibuya_above_one(cdf, r, 50).tolist() == [50]
            assert _sibuya_above_one(cdf, r, 10**12).tolist() == [10**12]


def _table_cdf(alpha):
    j = np.arange(1.0, 32.0)
    return np.cumsum(np.concatenate(([alpha], alpha * np.cumprod((j - alpha) / (j + 1.0)))))


class TestStateOneTable:
    @pytest.mark.parametrize("t", [0.01, 0.5, 1.0, 1.5, 3.0, 10.0])
    def test_guide_table_matches_binary_search(self, t):
        # the lookup against a linear scan for the first x whose cdf entry is >= u,
        # 33 past the table; u on a knot or next to one pins the side of the search
        alpha = math.exp(-t)
        cdf = _table_cdf(alpha)
        knots = cdf[cdf >= alpha]
        # given X >= 2, u = alpha + (1 - alpha) r spans [alpha, 1]
        r0 = (np.concatenate((knots, np.nextafter(knots, 0.0), np.nextafter(knots, 1.0))) - alpha) / (1 - alpha)
        r = np.concatenate((replicate_rng(35).random(10**4), r0, np.nextafter(r0, 0.0), np.nextafter(r0, 1.0), [0.0]))
        r = r[(r >= 0.0) & (r < 1.0)]
        u = (alpha + (1.0 - alpha) * r).tolist()
        table = cdf.tolist()
        assert len(set(u) & set(table)) >= 10
        want = np.array([next((x for x, c in enumerate(table, 1) if c >= v), 33) for v in u])
        # the cap keeps t = 10 (almost every draw past 1e9) from overflowing int64
        got = _sibuya_above_one(cdf, r, 10**6)
        inside = want <= 32
        assert np.array_equal(got[inside], want[inside])
        assert got[~inside].min(initial=33) >= 33

    @pytest.mark.parametrize("n, t, reps", [(3, 1.0, 1000), (3, 0.5, 200_000)])
    def test_chunks_read_one_uniform_stream(self, n, t, reps, monkeypatch):
        # every multinomial, then the uniforms of the draws past the table in
        # replicate order: smaller rounds, which split replicates, give the same
        diag = {}
        got = sample_fixation_marginal(n, t, reps, replicate_rng(36), diag)
        monkeypatch.setattr(simulate, "_ROUND", 1 if reps <= 1000 else 1000)
        again = {}
        assert np.array_equal(sample_fixation_marginal(n, t, reps, replicate_rng(36), again), got)
        assert again == diag and diag["tail_draws"] > 0


def _sibuya_tail_full_series(alpha, v, cap=None):
    """The tail inversion with the Stirling-series difference on every draw:
    the oracle of ``_sibuya_tail``, which adds it only where it can decide."""
    with np.errstate(divide="ignore", over="ignore"):
        z = np.ceil((v * math.gamma(1.0 - alpha)) ** np.divide(-1.0, alpha))
    if cap is not None:
        z = np.minimum(z, cap + 1.0)
    elif not z.max() < 2.0**63:
        raise OverflowError(f"fixation draw past 2^63 - 1 at alpha = {alpha!r}")
    w = z - alpha
    log_ge = (w - 0.5) * np.log1p(-alpha / z) - alpha * np.log(z) + alpha - math.lgamma(1.0 - alpha)
    log_ge += np.polyval(_STIRLING, 1.0 / (w * w)) / w - np.polyval(_STIRLING, 1.0 / (z * z)) / z
    x = np.maximum(z.astype(np.int64) - (log_ge <= np.log(v)), 33)
    return x if cap is None else np.minimum(x, cap)


def _outcome(f, *args):
    try:
        return f(*args)
    except OverflowError:
        return OverflowError


class TestTwoStageTail:
    @pytest.mark.parametrize("t", [1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0])
    def test_equals_full_series(self, t, monkeypatch):
        a = math.exp(-t)
        past = float(np.prod(1.0 - a / np.arange(1.0, 33.0)))  # P(X > 32)
        rng = replicate_rng(40, round(t * 1e6))
        u = rng.random(1 << 18)
        # ties: the float survival of integers past the table, and their neighbours
        m = np.unique(np.round(np.exp(rng.uniform(math.log(33.0), math.log(1e18), 4096))))
        w = m - a
        tie = (w - 0.5) * np.log1p(-a / m) - a * np.log(m) + a - math.lgamma(1.0 - a)
        tie = np.exp(tie + np.polyval(_STIRLING, 1.0 / (w * w)) / w - np.polyval(_STIRLING, 1.0 / (m * m)) / m)
        levels = np.concatenate((
            [past, past * 2.0**-53],
            past * (1.0 - u[::2]),  # uniform levels, and levels uniform in log down to 2^-53
            past * 2.0 ** (-53.0 * u[1::2]),
            tie, np.nextafter(tie, 0.0), np.nextafter(tie, 1.0),
        ))
        levels = levels[(levels > 0.0) & (levels <= past)]
        for cap in (None, 2, 3, 10**6, 2**62):
            for chunk in np.array_split(levels, 64):
                want = _outcome(_sibuya_tail_full_series, a, chunk, cap)
                got = _outcome(_sibuya_tail, a, chunk, cap)
                if want is OverflowError:
                    assert got is OverflowError
                else:
                    assert got is not OverflowError and got.dtype == want.dtype
                    assert np.array_equal(got, want)
        # the series decides some of these draws: without it they would differ
        monkeypatch.setattr(simulate, "_STIRLING", (0.0,))
        assert not np.array_equal(_sibuya_tail(a, levels, 2**62), _sibuya_tail_full_series(a, levels, 2**62))


def _estimate_hitting_by_masks(i, j, reps, rng):
    """The hitting estimate with every chain masked in every round: the
    oracle of ``estimate_hitting``, which keeps only the chains below j."""
    states = np.full(reps, i, dtype=np.int64)
    hit = np.zeros(reps, dtype=bool)
    while True:
        active = states < j
        if not active.any():
            break
        u = 1.0 - rng.random(int(active.sum()))
        states[active] += np.floor(1.0 / u).astype(np.int64)
        hit |= states == j
    return float(hit.mean())


@pytest.mark.parametrize("i, j", [(1, 7), (1, 50), (3, 4)])
def test_hitting_equals_mask_loop(i, j):
    rng, oracle_rng = replicate_rng(41, j), replicate_rng(41, j)
    assert estimate_hitting(i, j, 10**5, rng).value == _estimate_hitting_by_masks(i, j, 10**5, oracle_rng)
    assert rng.random() == oracle_rng.random()


def _absorption_times_by_masks(n, i, reps, rng):
    """The dual first passage with every chain masked in every round: the
    oracle of ``sample_absorption_times``, which keeps only the live chains."""
    states = np.full(reps, i, dtype=np.int64)
    clocks = np.zeros(reps)
    while True:
        live = states < n
        k = int(live.sum())
        if not k:
            break
        clocks[live] += rng.exponential(size=k) / states[live]
        states[live] += np.floor(1.0 / (1.0 - rng.random(k))).astype(np.int64)
    return clocks


class TestAbsorptionTimes:
    """tau from n to <= i has the law of the fixation line's first passage from i to >= n."""

    @pytest.mark.parametrize("n, i, reps", [(50, 1, 10**4), (1000, 5, 5000), (1000, 990, 5000), (10**5, 1, 100)])
    def test_equals_mask_loop(self, n, i, reps):
        rng, oracle_rng = replicate_rng(42, i), replicate_rng(42, i)
        got = sample_absorption_times(n, i, reps, rng)
        assert np.array_equal(got, _absorption_times_by_masks(n, i, reps, oracle_rng))
        assert rng.random() == oracle_rng.random()
        assert sample_absorption_times(n, i, reps, replicate_rng(42, i)).tobytes() == got.tobytes()

    @pytest.mark.parametrize(
        "n, i, times",
        [
            (100, 1, (1.5, 2.0, 3.0)),
            (1000, 5, (1.0, 1.5, 2.0)),
            (1000, 500, (0.05, 0.1, 0.15)),
            (1000, 990, (0.002, 0.004, 0.007)),
        ],
    )
    def test_law_matches_cdf(self, n, i, times):
        reps = 20000
        taus = sample_absorption_times(n, i, reps, replicate_rng(43, i))
        for t in times:
            p = absorption_cdf(n, i, t)
            z = ((taus <= t).mean() - p) / math.sqrt(p * (1 - p) / reps)
            assert abs(z) <= 5, (t, p, z)

    def test_domain(self):
        rng = replicate_rng(44)
        assert np.array_equal(sample_absorption_times(2**62, 2**62, 5, rng), np.zeros(5))
        # one jump from 2^62 - 1 passes 2^62 without wrapping int64
        assert (sample_absorption_times(2**62, 2**62 - 1, 5, rng) > 0).all()
        empty = sample_absorption_times(40, 1, 0, rng)
        assert empty.dtype == np.float64 and empty.size == 0
        for n, i in ((2**62 + 1, 1), (5, 6), (5, 0)):
            with pytest.raises(ValueError):
                sample_absorption_times(n, i, 3, rng)


class TestKsDistance:
    def test_point_mass(self):
        cdf = lambda x: np.where(np.asarray(x) >= 2.0, 1.0, 0.0)
        assert ks_distance([2.0] * 50, cdf) <= 1 / 50

    def test_uniform_samples(self):
        rng = replicate_rng(23)
        u = rng.random(10**4)
        d = ks_distance(u, lambda x: np.clip(x, 0.0, 1.0))
        assert d < 0.025

    def test_ties_match_per_sample_formula(self):
        # the sup over distinct values equals the textbook sup over the sorted sample
        s = np.array([9, 5, 1, 2, 5, 3, 2, 5], dtype=np.float64)
        cdf = lambda x: 1.0 - 1.0 / np.maximum(x, 1.0)
        m = s.size
        ref = max(
            max((i + 1) / m - cdf(v), cdf(np.nextafter(v, -np.inf)) - i / m)
            for i, v in enumerate(np.sort(s))
        )
        assert ks_distance(s, cdf) == max(ref, 0.0)

    def test_cdf_shape_mismatch_rejected(self):
        # a scalar cdf called on the array of sample values returns one value
        with pytest.raises(ValueError):
            ks_distance([0.2, 0.5, 0.9], lambda x: 0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_distance([], lambda x: 0.0)

    def test_nan_cdf_rejected(self):
        with pytest.raises(ValueError):
            ks_distance([0.5, 1.0], lambda x: np.full(np.shape(x), math.nan))

    def test_scaled_block_converges_to_mittag_leffler(self):
        tp = TimePoint.from_time(1.0)
        cdf = lambda x: mittag_leffler_cdf(tp, x)
        d_small = ks_distance(
            scaled_marginal_sample("block", 100, 1.0, 4000, replicate_rng(25)), cdf
        )
        d_large = ks_distance(
            scaled_marginal_sample("block", 10000, 1.0, 4000, replicate_rng(26)), cdf
        )
        assert d_large < d_small


class _Draws:
    """Stands in for a Generator.  multinomial(n, pvals, size) puts tails[k] of
    row k's n draws past the table and the others at 1; random(size) hands out
    the given uniforms in order."""

    def __init__(self, u, tails):
        self.u, self.tails, self.pvals = list(u), list(tails), None

    def multinomial(self, n, pvals, size):
        self.pvals = pvals
        counts = np.zeros((size, len(pvals)), dtype=np.int64)
        counts[:, -1] = self.tails[:size]
        counts[:, 0] = n - counts[:, -1]
        del self.tails[:size]
        return counts

    def random(self, size):
        assert size <= len(self.u)
        out, self.u = np.array(self.u[:size]), self.u[size:]
        return out


def _uniform_at(x, t, past_table=False):
    """A uniform whose state-1 draw at time t is about x (h(x) = v, rounded
    onto the 2^-53 grid of rng.random); with past_table, the uniform of a
    draw given X > 32, as the fixation sampler inverts it."""
    a = math.exp(-t)
    v = x**-a / math.gamma(1 - a)
    if past_table:
        v /= 1.0 - _table_cdf(a)[-1]
    return 1.0 - round(v * 2.0**53) / 2.0**53


class TestStateOneInverse:
    """The state-1 draw is the smallest x with P(X <= x) >= u, for the
    Sibuya law P(X > x) = Gamma(x+1-a) / (Gamma(1-a) Gamma(x+1))."""

    @staticmethod
    def _oracle(u, t, mass=1.0):
        """The smallest x with P(X > x) <= mass (1 - u), formed in mpmath."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            a = mp.mpf(math.exp(-t))
            log_v = mp.log(mp.mpf(mass) * (1 - mp.mpf(u)))

            def above(x):  # P(X > x) <= v, with x + 1 - a formed in mpmath
                return mp.loggamma(x + 1 - a) - mp.loggamma(x + 1) - mp.loggamma(1 - a) <= log_v

            lo, hi = 0, 1
            while not above(hi):
                lo, hi = hi, 2 * hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if above(mid) else (mid, hi)
            return hi

    @staticmethod
    def _assert_near(x, q, u):
        # past about 1e10 float64 cannot always separate neighbouring
        # survival values: off by one, or by a relative 4e-15
        tol = 0 if q <= 1e10 else max(1.0, 4e-15 * q)
        assert abs(x - q) <= tol, (u, x, q)

    @pytest.mark.parametrize("t", [0.5, 1.0, 1.5])
    def test_matches_60_digit_oracle(self, t):
        a = math.exp(-t)
        levels = 10.0 ** np.arange(1.6, 15.01, 0.45)
        # the table given X >= 2, as the block sampler reads it
        r = [0.01, 0.2, 0.21, 0.4, 0.55]
        x = _sibuya_above_one(_table_cdf(a), np.array(r), 10**12)
        assert x.dtype == np.int64
        for xi, ri in zip(x.tolist(), r):
            assert xi == self._oracle(ri, t, mass=1.0 - a), (ri, xi)
        # the tail helper, fed 1 - u for the uniform u of a draw past the table
        u = [_uniform_at(x, t) for x in levels]
        x = _sibuya_tail(a, 1.0 - np.array(u))
        assert x.dtype == np.int64 and x.min() >= 33
        for xi, ui in zip(x.tolist(), u):
            self._assert_near(xi, self._oracle(ui, t), ui)
        # the fixation sampler's draws past the table, given X > 32
        r = [_uniform_at(x, t, past_table=True) for x in levels]
        draws = _Draws(r, tails=[1] * len(r))
        x = sample_fixation_marginal(1, t, len(r), draws)
        assert x.dtype == np.int64
        for xi, ri in zip(x.tolist(), r):
            self._assert_near(xi, self._oracle(ri, t, mass=draws.pvals[-1]), ri)

    @pytest.mark.parametrize("t", [0.01, 0.1, 0.5])
    def test_draws_above_one_match_60_digit_oracle(self, t):
        # X given X >= 2, as the block sampler draws it: at small t, 1 - u formed from
        # u = alpha + (1 - alpha) r would lose the digits of the tail
        a = math.exp(-t)
        levels = 10.0 ** np.arange(1.6, 10.01, 0.4)
        r = [1.0 - round(x**-a / math.gamma(1 - a) / (1 - a) * 2.0**53) / 2.0**53 for x in levels]
        x = _sibuya_above_one(_table_cdf(a), np.array(r), 10**12)
        for xi, ri in zip(x.tolist(), r):
            assert xi == self._oracle(ri, t, mass=1.0 - a), (ri, xi)

    def test_tail_draws_counted(self):
        # three replicates from n = 3 with 1, 0 and 2 draws past the table
        t = 1.0
        u = [_uniform_at(x, t, past_table=True) for x in (1e3, 50.0, 1e6)]
        diag = {}
        draws = _Draws(u, tails=[1, 0, 2])
        got = sample_fixation_marginal(3, t, 3, draws, diag)
        x = _sibuya_tail(math.exp(-t), draws.pvals[-1] * (1.0 - np.array(u))).tolist()
        assert diag == {"tail_draws": 3}
        assert got.tolist() == [2 + x[0], 3, 1 + x[1] + x[2]]

    def test_draw_past_int64_overflows(self):
        # a call that raises reports no diagnostics
        diag = {}
        with pytest.raises(OverflowError):
            sample_fixation_marginal(1, 3.0, 1, _Draws([_uniform_at(3e19, 3.0, True)], [1]), diag)
        assert diag == {}

    def test_row_sum_past_int64_overflows(self, monkeypatch):
        # each draw fits in int64 (about 5e18), their sum does not
        u = [_uniform_at(5e18, 3.0, True)] * 2
        each = sample_fixation_marginal(1, 3.0, 2, _Draws(u, [1, 1]))
        assert each.min() > 4e18 and each.max() < 2**63 - 1
        with pytest.raises(OverflowError):
            sample_fixation_marginal(2, 3.0, 1, _Draws(u, [2]))
        # below 2^63 - 1 the sum is exact
        u = [_uniform_at(4e18, 3.0, True)] * 3
        each = sample_fixation_marginal(1, 3.0, 2, _Draws(u, [1, 1]))
        total = sample_fixation_marginal(2, 3.0, 1, _Draws(u, [2]))
        assert int(total[0]) == sum(each.tolist())
        # three draws of about 4e18 wrap int64 within one round, and pass
        # 2^63 - 1 on the third round of one draw each
        with pytest.raises(OverflowError):
            sample_fixation_marginal(3, 3.0, 1, _Draws(u, [3]))
        monkeypatch.setattr(simulate, "_ROUND", 1)
        assert sample_fixation_marginal(2, 3.0, 1, _Draws(u, [2])).tolist() == total.tolist()
        with pytest.raises(OverflowError):
            sample_fixation_marginal(3, 3.0, 1, _Draws(u, [3]))


@pytest.mark.parametrize(
    "name, call, work",
    [
        ("sample_block_marginal", lambda r: sample_block_marginal(2**62, 0.01, 1, r), "(1 - e^-t) n^(e^-t) rounds"),
        ("simulate_block", lambda r: simulate_block(2**62, 1.0, r), "n / log n jumps"),
        ("estimate_hitting", lambda r: estimate_hitting(1, 2**62, 1, r), "(j - i) / log(j - i) rounds"),
        ("sample_absorption_times", lambda r: sample_absorption_times(2**62, 1, 1, r), "(n - i) / log(n - i) rounds"),
        ("simulate_fixation", lambda r: simulate_fixation(1, 2**62, r), "(cap - n) / log(cap - n) jumps"),
        ("simulate_fixation", lambda r: simulate_fixation(1, 10**400, r), "(cap - n) / log(cap - n) jumps"),
    ],
)
def test_work_past_budget_raises_before_drawing(name, call, work):
    # each of these ran for hours or without end; now each names its work and
    # draws nothing
    rng = replicate_rng(45)
    with pytest.raises(ValueError) as exc:
        call(rng)
    msg = str(exc.value)
    assert name in msg and work in msg and "WORK_BUDGET" in msg, msg
    assert rng.random() == replicate_rng(45).random()


def test_work_budget_admits_the_documented_sizes():
    # the largest documented inputs sit inside the budget; about 1.9e8 is the
    # first absorption start it refuses
    assert simulate._climb_rounds(10**6 - 1) < simulate.WORK_BUDGET < simulate._climb_rounds(2 * 10**8)
    assert (1 - math.exp(-3.0)) * (10**12) ** math.exp(-3.0) < simulate.WORK_BUDGET
    with pytest.raises(ValueError, match="WORK_BUDGET"):
        sample_absorption_times(2 * 10**8, 1, 1, replicate_rng(46))


def test_short_block_path_from_a_large_n_is_charged_its_horizon():
    # the chain leaves n at rate n - 1, so about 0.2 jumps come before t = 1e-9,
    # far fewer than the n / log n it would take to absorb
    path = simulate_block(2 * 10**8, 1e-9, replicate_rng(47))
    assert path.n == path.states[0] == 2 * 10**8
    assert len(path.states) == len(path.jump_times) + 1 and np.all(path.jump_times <= 1e-9)
    # to absorption the charge is still n / log n, and still raises before drawing
    rng = replicate_rng(47)
    with pytest.raises(ValueError, match="n / log n jumps come to about 1.05e"):
        simulate_block(2 * 10**8, math.inf, rng)
    assert rng.random() == replicate_rng(47).random()

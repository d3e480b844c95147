"""Transition, hitting, absorption, and expansion formulas against oracles."""

import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bscoal import analytics
from bscoal.analytics import (
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
from bscoal.combinatorics import EULER_GAMMA, ZETA, stirling_second

# Exact hitting probabilities from state 1 to j = 1..7, frozen oracle.
HITTING_EXACT = [
    Fraction(1),
    Fraction(1, 2),
    Fraction(5, 12),
    Fraction(3, 8),
    Fraction(251, 720),
    Fraction(95, 288),
    Fraction(19087, 60480),
]


def d_stirling(k: int, i: int, x: float) -> float:
    """Reference d_{k i}(x) in the Stirling-number / falling-factorial form:
    sum_j S(k, j) (-1)^(j-1) i (i-1) ... (i-j+1) F^j (1-F)^(i-j), F the Gumbel-min CDF."""
    F = math.exp(-math.exp(-x))
    if k == 0:
        return 1.0 - (1.0 - F) ** i
    acc = 0.0
    falling = 1
    for j in range(1, k + 1):
        falling *= i - j + 1
        acc += (
            stirling_second(k, j) * ((-1) ** (j - 1)) * falling * (F**j) * ((1.0 - F) ** (i - j))
        )
    return acc


class TestTimePoint:
    def test_constructors_agree(self):
        tp = TimePoint.from_time(0.7)
        tp2 = TimePoint.from_alpha(tp.alpha)
        assert tp2.t == pytest.approx(0.7)

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ValueError):
            TimePoint(t=1.0, alpha=0.9)

    def test_domain(self):
        with pytest.raises(ValueError):
            TimePoint.from_time(-0.1)
        with pytest.raises(ValueError):
            TimePoint.from_alpha(0.0)


class TestTransition:
    def test_p11_is_exp_minus_t(self):
        for t in (0.1, 1.0, 2.5):
            tp = TimePoint.from_time(t)
            assert fixation_transition(1, 1, tp) == pytest.approx(math.exp(-t), abs=1e-14)

    def test_nonincreasing_states_have_zero_probability(self):
        tp = TimePoint.from_time(0.5)
        assert fixation_transition(5, 3, tp) == 0.0

    def test_two_formulas_agree(self):
        for t in (0.1, 0.5, 1.0, 3.0):
            tp = TimePoint.from_time(t)
            for i in range(1, 16):
                for j in range(i, 16):
                    a = fixation_transition(i, j, tp)
                    b = fixation_transition(i, j, tp, formula="binomial")
                    assert a == pytest.approx(b, abs=1e-10)

    def test_row_from_state_one_is_marginal(self):
        tp = TimePoint.from_time(0.7)
        for j in range(1, 12):
            assert fixation_transition(1, j, tp) == pytest.approx(
                fixation_marginal(tp, j), abs=1e-12
            )

    def test_chapman_kolmogorov(self):
        s, u = 0.4, 0.6
        tps, tpu, tpsu = map(TimePoint.from_time, (s, u, s + u))
        for i in (1, 3):
            for j in range(i, 16):
                lhs = fixation_transition(i, j, tpsu)
                rhs = math.fsum(
                    fixation_transition(i, k, tps) * fixation_transition(k, j, tpu)
                    for k in range(i, j + 1)
                )
                assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_pgf_partial_sum(self):
        tp = TimePoint.from_time(1.0)
        z = 0.5
        for i in (1, 3):
            part = math.fsum(
                fixation_transition(i, j, tp) * z**j for j in range(i, 200)
            )
            assert part == pytest.approx(fixation_pgf(i, tp, z), abs=1e-8)

    def test_branching_property_of_pgf(self):
        # pgf from i is the i-th power of the pgf from 1
        tp = TimePoint.from_time(0.8)
        for z in (-0.5, 0.2, 0.9):
            assert fixation_pgf(4, tp, z) == pytest.approx(
                fixation_pgf(1, tp, z) ** 4
            )

    def test_marginal_normalization_and_moments(self):
        tp = TimePoint.from_time(0.6)
        probs = [fixation_marginal(tp, j) for j in range(1, 20000)]
        # heavy tail: add the closed-form survival mass beyond the cutoff
        a = tp.alpha
        tail = math.exp(
            math.lgamma(20000 - a) - math.lgamma(1 - a) - math.lgamma(20000)
        )
        assert math.fsum(probs) + tail == pytest.approx(1.0, abs=1e-9)
        # E[1 / ((state+1)...(state+k))] = alpha / (k! (alpha + k))
        for k in (1, 2, 3):
            est = math.fsum(
                p / math.prod(range(j + 1, j + k + 1))
                for j, p in enumerate(probs, start=1)
            )
            assert est == pytest.approx(a / (math.factorial(k) * (a + k)), abs=1e-6)

    def test_degenerate_time_zero(self):
        tp = TimePoint.from_time(0.0)
        assert fixation_marginal(tp, 1) == 1.0
        assert fixation_marginal(tp, 5) == 0.0


class TestHitting:
    def test_paper_rationals_all_exact_methods(self):
        for method in (
            HittingMethod.CONVOLUTION,
            HittingMethod.STIRLING_DOUBLE,
            HittingMethod.STIRLING_SHIFT,
        ):
            vals = [hitting_probability(1, j, method) for j in range(1, 8)]
            assert vals == HITTING_EXACT

    def test_float_methods_match_exact(self):
        for j in range(1, 30):
            exact = float(hitting_probability(1, j))
            assert hitting_probability(1, j, HittingMethod.INTEGRAL) == pytest.approx(
                exact, abs=1e-9
            )

    def test_depends_only_on_difference(self):
        assert hitting_probability(4, 9) == hitting_probability(1, 6)

    def test_diagonal_and_below(self):
        assert hitting_probability(3, 3) == 1
        assert hitting_probability(5, 2) == 0

    def test_method_by_value_string(self):
        # the value string acts as the enum member, whichever branch it reaches
        for method in HittingMethod:
            for i, j in ((1, 7), (4, 4), (5, 3)):
                by_enum = hitting_probability(i, j, method)
                by_value = hitting_probability(i, j, method.value)
                assert by_value == by_enum and type(by_value) is type(by_enum)
            below = Fraction if method is not HittingMethod.INTEGRAL else float
            assert type(hitting_probability(5, 3, method.value)) is below
        for i, j in ((1, 3), (5, 3)):
            with pytest.raises(ValueError):
                hitting_probability(i, j, "renewal")

    def test_stirling_routes_name_their_bound(self, monkeypatch):
        # past DEFAULT_NMAX = 256 each Stirling route raises before it reads a
        # row, naming the state, the route and the bound; just inside, it answers.
        # _stirling_rows is where the routes read the tables, so a route that
        # reached it past the bound would fail here
        def no_rows(n):
            raise AssertionError(f"Stirling rows read up to {n}")

        tp = TimePoint.from_time(1.0)
        calls = [
            (lambda: hitting_probability(5, 257, HittingMethod.STIRLING_DOUBLE), "j = 257", "stirling-double"),
            (lambda: hitting_probability(50, 306, HittingMethod.STIRLING_SHIFT), "j - i + 1 = 257", "stirling-shift"),
            (lambda: fixation_transition(5, 257, tp), "j = 257", "stirling"),
        ]
        with monkeypatch.context() as m:
            m.setattr(analytics, "_stirling_rows", no_rows)
            for call, state, route in calls:
                with pytest.raises(ValueError) as exc:
                    call()
                msg = str(exc.value)
                assert state in msg and route in msg and "DEFAULT_NMAX = 256" in msg, msg
            # just inside the bound every route does read its rows there
            for call in (
                lambda: hitting_probability(5, 256, HittingMethod.STIRLING_DOUBLE),
                lambda: hitting_probability(50, 305, HittingMethod.STIRLING_SHIFT),
                lambda: fixation_transition(5, 256, tp),
            ):
                with pytest.raises(AssertionError, match="Stirling rows read up to 256"):
                    call()
        assert 0 < hitting_probability(50, 305, HittingMethod.STIRLING_SHIFT) < 1
        assert 0 <= fixation_transition(5, 256, tp) <= 1

    def test_renewal_route_domain(self, monkeypatch):
        # the convolution and gf routes stop at j - i = 1000; the integral does not.
        # A cold table grown to the last gap agrees with the integral there.
        monkeypatch.setattr(analytics, "_RENEWAL", analytics._RenewalMasses())
        exact = hitting_probability(1, 1001)
        integral = hitting_probability(1, 1001, HittingMethod.INTEGRAL)
        assert float(exact) == pytest.approx(integral, rel=1e-12, abs=0)
        last = [hitting_probability(1, j) for j in range(951, 1002)]
        assert all(a > b for a, b in zip(last, last[1:]))
        with pytest.raises(ValueError):
            hitting_probability(1, 1002)
        with pytest.raises(ValueError):
            hitting_gf_coefficients(1, 1002)
        assert 0 < hitting_probability(1, 1002, HittingMethod.INTEGRAL) < 1

    def test_gf_coefficients_need_a_positive_state(self):
        # z^i / ((1-z)(-log(1-z))) has no meaning as a hitting series for i < 1
        for i, J in ((0, 5), (-5, 3), (0, 0)):
            with pytest.raises(ValueError, match="states must be positive"):
                hitting_gf_coefficients(i, J)

    def test_gf_coefficient_vector_consistent(self):
        coeffs = hitting_gf_coefficients(1, 10)
        for j, c in enumerate(coeffs, start=1):
            assert c == pytest.approx(float(hitting_probability(1, j)), abs=1e-12)

    def test_renewal_growth_is_thread_safe(self):
        serial = analytics._RenewalMasses().upto(150)
        table = analytics._RenewalMasses()
        barrier = threading.Barrier(4)
        seen: list[dict] = [{} for _ in range(4)]

        def grow(slot):
            # each thread climbs to d = 150 in its own stride, and reads
            # each mass from one snapshot
            barrier.wait()
            for d in [*range(slot + 1, 151, slot + 1), 150]:
                seen[slot][d] = table.upto(d)[d]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=grow, args=(s,)) for s in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for values in seen:
            assert 150 in values
            assert all(v == serial[d] for d, v in values.items())
        assert table.upto(150) == serial

    @given(j=st.integers(2, 150))
    @settings(max_examples=60)
    def test_monotone_decreasing(self, j):
        assert hitting_probability(1, j + 1) < hitting_probability(1, j)

    def test_asymptotic_two_terms(self):
        j = 10**5
        h = hitting_probability(1, j, HittingMethod.INTEGRAL)
        assert abs(h - hitting_asymptotic(j)) * math.log(j) ** 3 < 10

    def test_gauss_legendre_is_numpys_rule(self):
        # the stored literals, mapped to [0, 1], against numpy's rule bit for bit
        nodes, weights = np.polynomial.legendre.leggauss(64)
        xs, ws, lgs = zip(*analytics._GAUSS_LEGENDRE)
        assert [x.hex() for x in xs] == [x.hex() for x in (0.5 * (nodes + 1.0)).tolist()]
        assert [w.hex() for w in ws] == [w.hex() for w in (0.5 * weights).tolist()]
        assert list(lgs) == [math.lgamma(x) for x in xs]

    def test_integral_matches_per_node_lgamma_reference(self):
        # the rule as numpy arrays, with lgamma(x) evaluated inside the sum
        nodes, weights = np.polynomial.legendre.leggauss(64)
        xs, ws = 0.5 * (nodes + 1.0), 0.5 * weights

        def reference(d):
            lg_d1 = math.lgamma(d + 1.0)
            return math.fsum(
                w * math.exp(math.lgamma(d + x) - math.lgamma(x) - lg_d1) for x, w in zip(xs, ws)
            )

        grid = sorted({*range(3001), *(round(10 ** (k / 16)) for k in range(97))})
        assert grid[-1] == 10**6
        assert [analytics._hitting_integral(d) for d in grid] == [reference(d) for d in grid]

    def test_asymptotic_domain(self):
        with pytest.raises(ValueError):
            hitting_asymptotic(1)


class TestAbsorption:
    def test_two_to_one_is_exponential(self):
        for t in (0.2, 1.0, 4.0):
            assert absorption_cdf(2, 1, t) == pytest.approx(1 - math.exp(-t), abs=1e-12)

    def test_monotone_in_t_and_i(self):
        ts = [0.2, 0.5, 1.0, 2.0, 4.0]
        vals = [absorption_cdf(40, 2, t) for t in ts]
        assert vals == sorted(vals)
        for t in (0.5, 1.5):
            by_i = [absorption_cdf(40, i, t) for i in range(1, 40)]
            # float tolerance: values saturate within 1e-9 of 1 at large i
            assert all(b >= a - 1e-9 for a, b in zip(by_i, by_i[1:]))

    def test_boundaries_and_domain(self):
        assert absorption_cdf(7, 7, 0.3) == 1.0
        with pytest.raises(ValueError):
            absorption_cdf(5, 6, 1.0)
        with pytest.raises(ValueError):
            absorption_cdf(5, 1, 0.0)
        with pytest.raises(ValueError, match="t = nan"):
            absorption_cdf(5, 1, math.nan)

    def test_duality_tail_equals_absorption(self):
        # reaching a state <= i by time t is the same event as sitting at <= i
        # at time t, because the block count is nonincreasing; both names
        # evaluate one survival sum, so they agree exactly, raises included
        # (i = 29 at t = 3 cancels past the [0, 1] guard)
        def outcome(fn, *args):
            try:
                return fn(*args)
            except NumericInstabilityError as exc:
                return str(exc)

        for n in (30, 10**4):
            for i in (1, 3, 29):
                for t in (0.1, 1.0, 3.0):
                    tp = TimePoint.from_time(t)
                    assert outcome(block_tail_via_duality, n, i, tp) == outcome(
                        absorption_cdf, n, i, t
                    )

    def test_matches_mpmath_at_gumbel_grid(self):
        # the survival sum at 50 digits, at the acceptance suite's Gumbel-limit
        # points; n stays <= 1e8 because the float sum drifts from n ~ 1e9 on
        # (lgamma cancellation: 6.9e-6 at 1e9, 6.4e-3 at 1e12)
        mpmath = pytest.importorskip("mpmath")
        for n in (10**6, 10**8):
            lln = math.log(math.log(n))
            for i in (1, 2, 3):
                for x in (-1, 0, 1, 2):
                    t = x + lln
                    with mpmath.workdps(50):
                        a = mpmath.exp(-mpmath.mpf(t))
                        ref = mpmath.fsum(
                            (-1) ** (j - 1) * math.comb(i, j)
                            * mpmath.exp(mpmath.loggamma(n - j * a) - mpmath.loggamma(n))
                            * mpmath.rgamma(1 - j * a)
                            for j in range(1, i + 1)
                        )
                    assert absorption_cdf(n, i, t) == pytest.approx(float(ref), abs=1e-6)

    def test_gumbel_limit_cdf(self):
        assert gumbel_limit_cdf(1, 0.0) == pytest.approx(math.exp(-1.0))
        # min of i Gumbels: 1 - (1 - F)^i
        F = math.exp(-math.exp(-0.3))
        assert gumbel_limit_cdf(3, 0.3) == pytest.approx(1 - (1 - F) ** 3)

    def test_gumbel_limit_cdf_left_tail_and_nan(self):
        # at x = -6, F = 6e-176 and the value is i F; from x = -7 on F is 0.0
        F = math.exp(-math.exp(6.0))
        assert gumbel_limit_cdf(1, -6.0) == pytest.approx(F, rel=1e-13)
        assert gumbel_limit_cdf(3, -6.0) == pytest.approx(3 * F, rel=1e-13)
        for x in (-7.0, -800.0, -math.inf):
            assert gumbel_limit_cdf(1, x) == gumbel_limit_cdf(3, x) == 0.0
        with pytest.raises(ValueError, match="x = nan"):
            gumbel_limit_cdf(2, math.nan)

    @pytest.mark.parametrize("i, x", [(2**62, -3.76), (10**8, -math.log(math.log(1e8)))])
    def test_gumbel_limit_keeps_i_f(self, i, x):
        # 1 - (1 - F)^i gave 0.0 at (2^62, -3.76), where 1 - F rounds to 1, and
        # was 1.8e-9 off at the bulk of i = 1e8; -expm1(i log1p(-F)) keeps i F
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            F = mpmath.exp(-mpmath.exp(-mpmath.mpf(x)))
            want = -mpmath.expm1(i * mpmath.log1p(-F))
        got = gumbel_limit_cdf(i, x)
        assert abs(got - want) <= 1e-14, (got, want)
        assert edgeworth_cdf(1000, i, x, 0) == got


class TestFloatRange:
    """From i of about 1030 on, C(i, j) leaves the float range; the Gumbel-min
    forms, which need no C(i, j), leave it only where i itself does."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: absorption_cdf(10**4, 1100, 1.0),
            lambda: block_tail_via_duality(10**4, 1100, TimePoint.from_time(1.0)),
            lambda: edgeworth_cdf(1000, 10**400, 0.5, 3),
            lambda: gumbel_limit_cdf(10**400, 0.5),
            lambda: fixation_transition(1100, 1101, TimePoint.from_time(1.0), "binomial"),
        ],
    )
    def test_binomial_past_float_range_is_instability(self, call):
        with pytest.raises(NumericInstabilityError, match="exceeds the float range"):
            call()

    def test_edgeworth_past_binomial_range_answers(self):
        assert edgeworth_cdf(1000, 1100, 0.5, 3) == 1.0
        assert edgeworth_cdf(1000, 2**1023, 0.5, 3) == 1.0
        for K in (0, 3, 12):
            assert edgeworth_cdf(1000, 10**5, 0.0, K) == 1.0
            assert edgeworth_cdf(1000, 10**5, 40.0, K) == 1.0


class TestEdgeworth:
    def test_gumbel_cumulants(self):
        assert gumbel_cumulant(1) == pytest.approx(EULER_GAMMA)
        assert gumbel_cumulant(2) == pytest.approx(math.pi**2 / 6)
        assert gumbel_cumulant(3) == pytest.approx(2 * ZETA[3])

    def test_c_coefficients(self):
        c = edgeworth_c(3)
        assert c[0] == 1.0
        assert c[1] == pytest.approx(-0.577216, abs=1e-5)
        assert c[2] == pytest.approx(-0.655878, abs=1e-5)
        assert c[3] == pytest.approx(0.042003, abs=1e-5)

    def test_c_matches_mpmath_taylor_coefficients(self):
        # the stored c_0..c_12 are the 50-digit Taylor coefficients of
        # 1/Gamma(1-x), correctly rounded
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            want = mpmath.taylor(lambda x: mpmath.rgamma(1 - x), 0, 12)
            errs = [abs(mpmath.mpf(c) - w) for c, w in zip(edgeworth_c(12), want)]
        assert len(errs) == 13
        assert max(errs) < 1e-16
        assert edgeworth_c(12) == tuple(float(w) for w in want)

    def test_c_matches_reciprocal_gamma_series(self):
        # c_k are the Taylor coefficients of 1/Gamma(1-x): check by finite
        # differences of the function itself at small x.
        c = edgeworth_c(4)
        for x in (0.05, -0.05, 0.1):
            f = math.exp(-math.lgamma(1.0 - x))
            series = math.fsum(c[k] * x**k for k in range(5))
            assert series == pytest.approx(f, abs=5e-6)

    def test_d_forms_agree(self):
        # the library's sum against sum_k c_k e^(-kx) d_stirling / ln^k
        assert analytics._STIRLING2 == [tuple(stirling_second(k, m) for m in range(k + 1)) for k in range(13)]
        for n in (10, 1000):
            ln = math.log(n)
            for K in range(6):
                c = edgeworth_c(K)
                for i in range(1, 6):
                    for x in (-2.0, -1.0, 0.0, 1.0, 2.0):
                        want = math.fsum(
                            c[k] * math.exp(-k * x) * d_stirling(k, i, x) / ln**k for k in range(K + 1)
                        )
                        assert edgeworth_cdf(n, i, x, K) == pytest.approx(want, abs=1e-12)

    def test_returned_values_within_1e9_of_mpmath(self):
        # Every value returned is within 1e-9 of the expansion at 60 digits, with
        # the exact c_k; around the bulk, x = -log log i, it may raise instead.
        mpmath = pytest.importorskip("mpmath")
        answered = 0
        with mpmath.workdps(60):
            c = [mpmath.mpf(1)]  # 1/Gamma(1 - t) = exp(-gamma t - sum_k zeta(k) t^k / k)
            for k in range(1, 13):
                zeta_terms = [mpmath.zeta(j) * c[k - j] for j in range(2, k + 1)]
                c.append(-mpmath.fsum([mpmath.euler * c[k - 1], *zeta_terms]) / k)
            for i in (23, 60, 100, 1100, 10**5):
                bulk = -math.log(math.log(i))
                for x in (bulk - 1.0, bulk - 0.5, bulk, bulk + 0.5, bulk + 1.0, 40.0, 800.0):
                    F = mpmath.exp(-mpmath.exp(-mpmath.mpf(x)))
                    d = [1 - (1 - F) ** i] + [
                        mpmath.fsum(
                            (-1) ** (m - 1) * stirling_second(k, m) * mpmath.ff(i, m) * F**m * (1 - F) ** (i - m)
                            for m in range(1, min(k, i) + 1)
                        )
                        for k in range(1, 13)
                    ]
                    for n in (100, 10**6):
                        r = mpmath.exp(-mpmath.mpf(x)) / mpmath.log(n)
                        for K in (0, 6, 12):
                            try:
                                value = edgeworth_cdf(n, i, x, K)
                            except NumericInstabilityError:
                                continue
                            want = mpmath.fsum(c[k] * r**k * d[k] for k in range(K + 1))
                            assert abs(value - want) <= 1e-9, (n, i, x, K, value, want)
                            answered += 1
        assert answered >= 150
        for i in (2**62, 10**400):
            for x in (-6.0, -3.76, 0.0, 40.0):
                for K in (0, 6, 12):
                    try:
                        assert not math.isnan(edgeworth_cdf(1000, i, x, K))
                    except NumericInstabilityError:
                        pass

    def test_order_zero_is_gumbel_limit(self):
        for i in (1, 2, 4):
            for x in (-1.0, 0.5):
                assert edgeworth_cdf(10**4, i, x, 0) == pytest.approx(
                    gumbel_limit_cdf(i, x), abs=1e-14
                )

    def test_expansion_improves_with_order(self):
        n = 10**4
        lln = math.log(math.log(n))
        for x in (-1.0, 0.0, 1.0):
            exact = absorption_cdf(n, 1, x + lln)
            errs = [abs(edgeworth_cdf(n, 1, x, K) - exact) for K in (0, 1, 2)]
            assert errs[1] < errs[0]
            assert errs[2] < errs[1]

    def test_left_tail_is_zero(self):
        # past x = -709.8 exp(-x) overflows; F = exp(-exp(-x)) is 0.0 from -6.7 on
        assert edgeworth_cdf(1000, 2, -120.0, 6) == 0.0
        assert edgeworth_cdf(1000, 2, -710.0, 0) == 0.0
        assert edgeworth_cdf(1000, 1, -math.inf, 12) == 0.0
        # the right tail: the k = 0 term alone would form exp(-0 * inf) = nan
        for K in (0, 3, 12):
            assert edgeworth_cdf(1000, 2, math.inf, K) == 1.0
        # no jump where the branch takes over: the formula is already ~0 above it
        for K in (0, 3, 12):
            for x in (-6.9, -6.5, -6.0):
                assert abs(edgeworth_cdf(1000, 3, x, K)) < 1e-150

    @pytest.mark.parametrize("n, i, x, K", [(1000, 100, 3.0, 0), (1000, 100, 0.5, 3), (1000, 60, 3.0, 0)])
    def test_former_cancelling_sums_answer(self, n, i, x, K):
        # the alternating binomial sums gave -9.8e11, -219 and -1.8 here; every
        # Stirling term carries (1 - F)^(i - m) < 1e-30, so the value rounds to 1
        assert edgeworth_cdf(n, i, x, K) == 1.0

    def test_rounding_bound_holds_below_onset(self):
        for K in (0, 3, 6):
            assert edgeworth_cdf(1000, 20, 3.0, K) == pytest.approx(1.0, abs=1e-3)
        assert edgeworth_cdf(1000, 20, 3.0, 0) == gumbel_limit_cdf(20, 3.0)

    def test_rounding_of_one_minus_f_answers_or_raises(self):
        # where F < 2^-53, 1 - F rounds to 1 whatever i F is: at i = 2^62,
        # x = -3.76, F is 2.2e-19 and i F about 1.  Every (1 - F)^(i - m) takes
        # F through log1p, so orders 0 and 1 answer; at orders 6 and 12 the
        # terms' rounding still passes 1e-9
        mpmath = pytest.importorskip("mpmath")
        n, i, x = 1000, 2**62, -3.76
        with mpmath.workdps(60):
            y = mpmath.exp(-mpmath.mpf(x))
            F = mpmath.exp(-y)
            d0 = -mpmath.expm1(i * mpmath.log1p(-F))
            d1 = i * F * mpmath.exp((i - 1) * mpmath.log1p(-F))
            want = d0 - mpmath.euler * y / mpmath.log(n) * d1  # c_1 = -gamma
        got = edgeworth_cdf(n, i, x, 1)
        assert abs(got - want) <= 1e-14, (got, want)
        for K in (6, 12):
            with pytest.raises(NumericInstabilityError, match="rounding bound"):
                edgeworth_cdf(n, i, x, K)
        assert edgeworth_cdf(n, i, x, 0) == gumbel_limit_cdf(i, x) > 0.6

    def test_nan_x_raises(self):
        with pytest.raises(ValueError, match="x = nan"):
            edgeworth_cdf(1000, 2, math.nan, 3)

    def test_c_cached_once_per_order(self):
        orders = range(13)
        first = [edgeworth_c(K) for K in orders]
        assert all(edgeworth_c(K) is c for K, c in zip(orders, first))
        for K in (-1, 13):
            with pytest.raises(ValueError):
                edgeworth_c(K)
        assert edgeworth_c.cache_info().currsize == 13

    def test_domain(self):
        with pytest.raises(ValueError):
            edgeworth_cdf(2, 1, 0.0, 1)
        with pytest.raises(ValueError):
            edgeworth_c(13)

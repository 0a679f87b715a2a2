import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.optimize import minimize

import oracles
from oracles import generate_pin_buckets

from depegwatch import metrics
from depegwatch.core import (
    LiquidityEvent,
    MetricSeries,
    MissingPriceError,
    NumericalError,
    PriceSample,
    PriceTable,
    TokenId,
    TradeEvent,
    ValidationError,
)
from depegwatch.metrics import (
    MetricConfig,
    PinParams,
    classify_sharks,
    estimate_pin,
    gini,
    net_lp_flow,
    net_swap_flow,
    order_count_buckets,
    pin_likelihood,
    pool_markout_series,
    rolling_pin,
    rolling_volatility,
    shannon_entropy,
    shark_flow,
    trade_markout,
)

A, B = TokenId("AAA"), TokenId("BBB")


def flat_prices(price_a=1.0, price_b=1.0, until=10 * 86400, step=300):
    samples = []
    for ts in range(0, until + step, step):
        samples.append(PriceSample(ts, A, price_a))
        samples.append(PriceSample(ts, B, price_b))
    return PriceTable(samples)


class TestEntropy:
    def test_uniform_two(self):
        assert shannon_entropy([50, 50]) == 1.0

    def test_uniform_four(self):
        assert shannon_entropy([25, 25, 25, 25]) == 2.0

    def test_degenerate(self):
        assert shannon_entropy([100, 0]) == 0.0

    def test_all_zero_rejected(self):
        with pytest.raises(ValidationError):
            shannon_entropy([0, 0])

    @given(st.lists(st.floats(0.01, 1e6), min_size=2, max_size=6),
           st.floats(0.1, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariant_and_maximal_when_equal(self, balances, c):
        h = shannon_entropy(balances)
        assert shannon_entropy([c * b for b in balances]) == pytest.approx(h)
        n = len(balances)
        assert h <= math.log2(n) + 1e-12
        assert shannon_entropy([1.0] * n) == pytest.approx(math.log2(n))


class TestGini:
    def test_equal_balances(self):
        assert gini([7, 7, 7]) == 0.0

    def test_perfect_inequality(self):
        assert gini([0, 1]) == 1.0

    def test_direct_evaluation(self):
        # sorted p = (1/6, 1/6, 4/6); (1/2)*((-2)(1/6) + 0(1/6) + 2(4/6)) = 1/2
        assert gini([1, 1, 4]) == pytest.approx(0.5, abs=1e-15)

    def test_needs_two(self):
        with pytest.raises(ValidationError):
            gini([5])

    @given(st.lists(st.floats(0.0, 1e6), min_size=2, max_size=6),
           st.floats(0.1, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariant(self, balances, c):
        if sum(balances) <= 0:
            return
        scaled = [c * b for b in balances]
        if sum(scaled) == 0:  # every balance underflowed
            with pytest.raises(ValidationError, match="all-zero"):
                gini(scaled)
        elif all(b >= sys.float_info.min for b in scaled if b > 0):
            # a subnormal product is rounded to a multiple of 5e-324,
            # which changes the ratios
            assert gini(scaled) == pytest.approx(gini(balances))


class TestFlows:
    def test_single_buy(self):
        trades = [TradeEvent(100, "t", B, 100.0, A, 100.0)]
        out = net_swap_flow(trades, A, 3600)
        assert out.points == [(3600, 100.0)]

    def test_buy_and_sell_same_bucket(self):
        trades = [TradeEvent(100, "t", B, 100.0, A, 100.0),
                  TradeEvent(200, "t", A, 40.0, B, 40.0)]
        out = net_swap_flow(trades, A, 3600)
        assert out.points == [(3600, 60.0)]

    def test_round_trip_nets_to_zero(self):
        trades = [TradeEvent(100, "arb", B, 100.0, A, 100.0),
                  TradeEvent(200, "arb", A, 100.0, B, 100.0)]
        out = net_swap_flow(trades, A, 3600)
        assert out.points == [(3600, 0.0)]

    def test_lp_deposit(self):
        events = [LiquidityEvent(50, "lp", {A: 100.0}, 100.0)]
        assert net_lp_flow(events, A, 3600).points == [(3600, 100.0)]

    def test_lp_deposit_then_withdraw(self):
        events = [LiquidityEvent(50, "lp", {A: 100.0}, 100.0),
                  LiquidityEvent(60, "lp", {A: -100.0}, -100.0)]
        assert net_lp_flow(events, A, 3600).points == [(3600, 0.0)]

    def test_withdraw_only_bucket(self):
        events = [LiquidityEvent(50, "lp", {A: -30.0}, -30.0)]
        assert net_lp_flow(events, A, 3600).points == [(3600, -30.0)]


class TestRollingVolatility:
    def test_constant_prices(self):
        prices = MetricSeries("p", "", np.arange(1, 6) * 3600,
                              np.full(5, 2.0))
        out = rolling_volatility(prices, 2)
        assert np.allclose(out.values, 0.0)

    def test_alternating_prices_equal_log2(self):
        # returns alternate +/- ln 2; population std over any window of 2 is ln 2
        vals = np.array([1.0, 2.0, 1.0, 2.0, 1.0])
        prices = MetricSeries("p", "", np.arange(1, 6) * 3600, vals)
        out = rolling_volatility(prices, 2)
        assert np.allclose(out.values, math.log(2), atol=1e-15)

    def test_warmup(self):
        prices = MetricSeries("p", "", np.arange(1, 4) * 3600,
                              np.array([1.0, 1.1, 1.2]))
        assert len(rolling_volatility(prices, 5)) == 0
        out = rolling_volatility(prices, 2)
        assert out.timestamps.tolist() == [3 * 3600]

    def test_rejects_nonpositive(self):
        prices = MetricSeries("p", "", np.array([1, 2]),
                              np.array([1.0, -1.0]))
        with pytest.raises(ValidationError):
            rolling_volatility(prices, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 200), st.integers(0, 2**32 - 1),
           st.integers(0, 250))
    def test_equals_per_window_loop(self, window, seed, extra):
        rng = np.random.default_rng(seed)
        n = window + extra
        prices = MetricSeries("p", "", np.arange(1, n + 1) * 3600,
                              np.exp(rng.normal(0, 0.05, n)))
        out = rolling_volatility(prices, window)
        expected = oracles.rolling_volatility(prices, window)
        assert out.values.tolist() == expected.values.tolist()
        assert out.timestamps.tolist() == expected.timestamps.tolist()


class TestMarkouts:
    def test_zero_markout_at_flat_prices(self):
        trade = TradeEvent(1000, "t", B, 100.0, A, 100.0)
        assert trade_markout(trade, flat_prices(), 300, "taker") == 0.0

    def test_direct_evaluation(self):
        # buy 100 A marked at 0.95, pay 100 B marked at 1.0
        trade = TradeEvent(1000, "t", B, 100.0, A, 100.0)
        prices = flat_prices(price_a=0.95, price_b=1.0)
        assert trade_markout(trade, prices, 300, "taker") == pytest.approx(-5.0)
        assert trade_markout(trade, prices, 300, "lp") == pytest.approx(5.0)

    def test_linearity(self):
        prices = flat_prices(price_a=0.97)
        t1 = TradeEvent(1000, "t", B, 100.0, A, 100.0)
        t2 = TradeEvent(1000, "t", B, 200.0, A, 200.0)
        assert trade_markout(t2, prices, 300) == pytest.approx(
            2 * trade_markout(t1, prices, 300))

    def test_sides_sum_to_zero_on_random_trades(self):
        rng = np.random.default_rng(3)
        prices = flat_prices(price_a=0.93, price_b=1.02)
        for _ in range(1000):
            ts = int(rng.integers(0, 86400))
            ain = float(rng.uniform(1, 1e4))
            aout = float(rng.uniform(1, 1e4))
            trade = TradeEvent(ts, "t", B, ain, A, aout)
            taker = trade_markout(trade, prices, 300, "taker")
            lp = trade_markout(trade, prices, 300, "lp")
            assert taker + lp == 0.0

    def test_missing_mark_price_raises(self):
        trade = TradeEvent(10**9, "t", B, 1.0, A, 1.0)
        with pytest.raises(MissingPriceError):
            trade_markout(trade, flat_prices(until=3600), 300)

    def test_series_skips_and_tallies(self):
        trades = [TradeEvent(1000, "t", B, 100.0, A, 100.0),
                  TradeEvent(10**9, "t", B, 1.0, A, 1.0)]
        series, skipped = pool_markout_series(trades, flat_prices(price_a=0.95),
                                              300, 3600)
        assert skipped == 1
        assert series.points == [(3600, 5.0)]

    def test_no_trades_empty_series(self):
        series, skipped = pool_markout_series([], flat_prices(), 300, 3600)
        assert len(series) == 0 and skipped == 0


def _trades_with_cumulative(markouts):
    """One trade per account sized so its taker markout equals the wanted
    cumulative value (price of A marked at 1.1 vs B at 1.0 -> 0.1 per unit)."""
    trades = []
    for k, m in enumerate(markouts):
        size = 10.0 * m  # taker markout = size*1.1 - size*1.0 = 0.1*size
        if size == 0:
            size = 1e-12
        trades.append(TradeEvent(100 + k, f"acct_{k}", B, size, A, size))
    return trades


class TestSharks:
    def setup_method(self):
        self.prices = flat_prices(price_a=1.1, price_b=1.0)
        self.cfg = MetricConfig(shark_quantile=0.01)

    def test_single_winner(self):
        markouts = [10.0] + [0.0] * 99
        sharks = classify_sharks(_trades_with_cumulative(markouts),
                                 self.prices, self.cfg)
        assert sharks == {"acct_0"}

    def test_all_tied_all_included(self):
        markouts = [5.0] * 20
        sharks = classify_sharks(_trades_with_cumulative(markouts),
                                 self.prices, self.cfg)
        assert sharks == {f"acct_{k}" for k in range(20)}

    def test_median_cutoff_rule(self):
        # cumulative markouts 1..10 at quantile 0.5 -> cutoff 6 -> {6..10}
        markouts = list(range(1, 11))
        cfg = MetricConfig(shark_quantile=0.5)
        sharks = classify_sharks(_trades_with_cumulative(markouts),
                                 self.prices, cfg)
        assert sharks == {f"acct_{k}" for k in range(5, 10)}

    def test_order_invariance(self):
        trades = _trades_with_cumulative([1.0, 7.0, 3.0, 9.0] * 5)
        cfg = MetricConfig(shark_quantile=0.25)
        fwd = classify_sharks(trades, self.prices, cfg)
        rev = classify_sharks(list(reversed(trades)), self.prices, cfg)
        assert fwd == rev

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            classify_sharks([], self.prices, self.cfg)

    def test_shark_flow_restriction(self):
        trades = [TradeEvent(100, "shark", B, 100.0, A, 100.0),
                  TradeEvent(200, "fish", A, 40.0, B, 40.0)]
        out = shark_flow(trades, {"shark"}, A, 3600)
        assert out.points == [(3600, 100.0)]
        assert out.metric_name == "sharkflow"
        assert len(shark_flow(trades, set(), A, 3600)) == 0
        both = shark_flow(trades, {"shark", "fish"}, A, 3600)
        assert both.points == net_swap_flow(trades, A, 3600).points


class TestPinLikelihood:
    def test_alpha_zero_reduces_to_poisson_product(self):
        # oracle: independent Poisson pmfs via scipy
        params = PinParams(0.0, 0.3, 5.0, 2.0, 3.0)
        buckets = [(0, 0), (1, 2), (4, 1), (10, 7)]
        expected = sum(stats.poisson.logpmf(b, 2.0) + stats.poisson.logpmf(s, 3.0)
                       for b, s in buckets)
        assert pin_likelihood(buckets, params) == pytest.approx(expected,
                                                                rel=1e-12)

    def test_empty_bucket_unit_rates(self):
        params = PinParams(0.0, 0.5, 1.0, 1.0, 1.0)
        assert pin_likelihood([(0, 0)], params) == pytest.approx(-2.0, abs=1e-12)

    def test_swap_symmetry(self):
        params = PinParams(0.35, 0.2, 4.0, 2.0, 7.0)
        swapped = PinParams(0.35, 0.8, 4.0, 7.0, 2.0)
        buckets = [(3, 9), (0, 4), (11, 2)]
        mirrored = [(s, b) for b, s in buckets]
        assert pin_likelihood(buckets, params) == pytest.approx(
            pin_likelihood(mirrored, swapped), rel=1e-12)

    def test_invalid_params_return_neg_inf(self):
        assert pin_likelihood([(1, 1)], PinParams(1.5, 0.5, 1, 1, 1)) == -math.inf

    def test_pin_formula(self):
        assert PinParams(1.0, 0.5, 2.0, 2.0, 2.0).pin == pytest.approx(1 / 3)
        assert PinParams(0.0, 0.5, 2.0, 2.0, 2.0).pin == 0.0


class TestEstimatePin:
    def test_pure_noise_gives_small_pin(self):
        buckets = generate_pin_buckets(300, 0.0, 0.5, 40, 50, 50, seed=3)
        _, pin = estimate_pin(buckets)
        assert pin < 0.05

    def test_recovers_planted_pin(self):
        true = PinParams(0.4, 0.1, 40, 50, 50)
        buckets = generate_pin_buckets(200, 0.4, 0.1, 40, 50, 50, seed=0)
        _, pin = estimate_pin(buckets)
        assert abs(pin - true.pin) < 0.05

    def test_ascent_over_every_start(self):
        buckets = generate_pin_buckets(60, 0.3, 0.2, 20, 30, 30, seed=1)
        params, _ = estimate_pin(buckets)
        final_ll = pin_likelihood(buckets, params)
        mean_b = np.mean([b for b, _ in buckets])
        mean_s = np.mean([s for _, s in buckets])
        for a0 in (0.1, 0.5):
            for t0 in (0.1, 0.5):
                for ei, eb, es in ((0.5 * (mean_b + mean_s), mean_b, mean_s),
                                   (mean_b + mean_s, 0.5 * mean_b, 0.5 * mean_s)):
                    start = PinParams(a0, t0, ei, eb, es)
                    assert final_ll >= pin_likelihood(buckets, start) - 1e-9

    def test_needs_two_buckets(self):
        with pytest.raises(ValidationError):
            estimate_pin([(1, 1)])


class TestRollingPin:
    def test_warmup_and_window(self):
        buckets = [(k * 86400, 10, 10) for k in range(1, 6)]
        [out] = rolling_pin([buckets], window=3)
        assert len(out) == 3
        assert out.timestamps.tolist() == [3 * 86400, 4 * 86400, 5 * 86400]

    def test_constant_rate_data_near_constant(self):
        data = generate_pin_buckets(12, 0.0, 0.5, 10, 30, 30, seed=9)
        buckets = [((k + 1) * 86400, b, s) for k, (b, s) in enumerate(data)]
        [out] = rolling_pin([buckets], window=6)
        assert np.all(out.values < 0.2)
        assert np.ptp(out.values) < 0.2

    def test_window_covering_all_equals_single_estimate(self):
        data = generate_pin_buckets(8, 0.5, 0.2, 15, 20, 20, seed=4)
        buckets = [((k + 1) * 86400, b, s) for k, (b, s) in enumerate(data)]
        [out] = rolling_pin([buckets], window=8)
        _, single = estimate_pin(data)
        assert len(out) == 1
        assert out.values[0] == pytest.approx(single, abs=1e-9)

    def test_many_series_equal_one_call_each(self):
        # different window counts, and a series too short for any window
        series = [[((k + 1) * 86400, b, s) for k, (b, s) in enumerate(
                      generate_pin_buckets(n, 0.4, 0.3, 12, 8, 8, seed=n))]
                  for n in (6, 3, 5)]
        together = rolling_pin(series, window=4, pool_id="p")
        assert [len(out) for out in together] == [3, 0, 2]
        for buckets, out in zip(series, together):
            [single] = rolling_pin([buckets], window=4, pool_id="p")
            assert out.pool_id == "p"
            assert out.timestamps.tolist() == single.timestamps.tolist()
            assert ([repr(v) for v in out.values.tolist()]
                    == [repr(v) for v in single.values.tolist()])
        assert rolling_pin([], window=4) == []


@st.composite
def pin_counts(draw, min_size=2, max_size=30):
    """(buys, sells) windows: all zero, one-sided or two-sided, counts up
    to 1e4."""
    top = draw(st.sampled_from([0, 1, 10, 100, 1000, 10_000]))
    buys, sells = draw(st.sampled_from([(top, top), (top, 0), (0, top)]))
    return draw(st.lists(st.tuples(st.integers(0, buys), st.integers(0, sells)),
                         min_size=min_size, max_size=max_size))


def fit_or_error(fit, buckets):
    try:
        params, pin = fit(buckets)
    except NumericalError as err:
        return str(err)
    return params, repr(pin)


def oracle_fit(buckets):
    return oracles.estimate_pin(buckets, likelihood=pin_likelihood)


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2))


class TestPinOracle:
    """The array search against one scipy search per start (tests/oracles).

    The Hypothesis fits give the oracle search the library
    ``pin_likelihood``, which ``test_objective_equals_scalar_likelihood``
    proves ``==`` to the scipy-``logsumexp`` reference; the edge windows
    use the reference itself.
    """

    @pytest.mark.slow
    @settings(max_examples=100, deadline=None)
    @given(pin_counts())
    def test_estimate_pin_equals_oracle(self, counts):
        assert (fit_or_error(estimate_pin, counts)
                == fit_or_error(oracle_fit, counts))

    @pytest.mark.slow
    @settings(max_examples=10, deadline=None)
    @given(pin_counts(min_size=3, max_size=12), st.integers(1, 2))
    def test_rolling_pin_equals_oracle_per_window(self, counts, extra):
        window = max(2, len(counts) - extra)
        buckets = [((k + 1) * 86400, b, s) for k, (b, s) in enumerate(counts)]
        [out] = rolling_pin([buckets], window)
        expected = [repr(oracle_fit(counts[k - window + 1:k + 1])[1])
                    for k in range(window - 1, len(counts))]
        assert [repr(v) for v in out.values.tolist()] == expected
        assert out.timestamps.tolist() == [ts for ts, _, _ in
                                           buckets[window - 1:]]

    @pytest.mark.parametrize("counts", [
        [(0, 0)] * 7,
        [(5, 0), (9, 0), (0, 0), (12, 0), (3, 0), (7, 0), (1, 0)],
        [(0, 4), (0, 0), (0, 11), (0, 2), (0, 6), (0, 9), (0, 1)],
        [(9990, 10000), (10000, 9985), (9970, 9999), (9999, 9993),
         (10000, 10000), (9981, 9996), (9990, 9970)],
        [(10000, 0), (9998, 0), (10000, 0)],
        [(3, 8), (11, 2)],
        [(0, 0), (1, 0)],
    ], ids=["all-zero", "buys-only", "sells-only", "near-1e4", "one-sided-1e4",
            "two-buckets", "two-buckets-sparse"])
    def test_edge_windows_equal_oracle(self, counts):
        assert (fit_or_error(estimate_pin, counts)
                == fit_or_error(oracles.estimate_pin, counts))

    def test_negative_counts_raise_before_any_search(self, monkeypatch):
        started = []
        monkeypatch.setattr(metrics, "_nelder_mead",
                            lambda *args: started.append(args))
        with pytest.raises(ValidationError, match="must be non-negative"):
            estimate_pin([(1, 2), (-1, 3)])
        buckets = [(k * 86400, 4, 4) for k in range(1, 9)] + [(9 * 86400, 4, -2)]
        with pytest.raises(ValidationError, match="must be non-negative"):
            rolling_pin([buckets[:4], buckets], 3)
        assert started == []

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                    min_size=2, max_size=8),
           st.lists(st.lists(st.floats(-800, 800), min_size=5, max_size=5),
                    min_size=1, max_size=6))
    def test_objective_equals_scalar_likelihood(self, counts, points):
        # +-800 saturates alpha/theta to 0 or 1 and underflows rates to 0
        params = [metrics._pin_from_vector(u) for u in np.array(points)]
        expected = [-oracles.pin_likelihood(counts, p) for p in params]
        f = metrics._pin_objective([counts])(np.array(points),
                                             np.zeros(len(points), dtype=int))
        assert f.tolist() == expected
        assert [-pin_likelihood(counts, p) for p in params] == expected

    @settings(max_examples=200, deadline=None)
    @given(pin_counts(max_size=12),
           st.lists(st.lists(st.floats(-5, 5), min_size=5, max_size=5),
                    min_size=1, max_size=8),
           st.sampled_from([3, 4]))
    def test_objective_equals_scalar_likelihood_in_fit_range(self, counts,
                                                             points, zeroed):
        # in [-5, 5]^5 every rate is positive and finite; the same points
        # with eps_b or eps_s underflowed to 0 take the zero-rate path
        one_zero = [u[:zeroed] + [-800.0] + u[zeroed + 1:] for u in points]
        for rows in (points, points + one_zero):
            params = [metrics._pin_from_vector(u) for u in rows]
            expected = [-oracles.pin_likelihood(counts, p) for p in params]
            f = metrics._pin_objective([counts])(
                np.array(rows), np.zeros(len(rows), dtype=int))
            assert f.tolist() == expected

    def test_search_builds_no_params_per_point(self, monkeypatch):
        series = [[((k + 1) * 86400, b, s) for k, (b, s) in enumerate(
                       generate_pin_buckets(n, 0.4, 0.3, 12, 8, 8, seed=n))]
                  for n in (6, 5)]
        expected = [[repr(v) for v in out.values.tolist()]
                    for out in rolling_pin(series, window=4)]
        built = []

        def counting(*args, **kwargs):
            built.append(1)
            return PinParams(*args, **kwargs)

        monkeypatch.setattr(metrics, "PinParams", counting)
        together = rolling_pin(series, window=4)
        searches = 8 * sum(len(out) for out in together)
        assert searches == 40 and len(built) <= searches
        assert [[repr(v) for v in out.values.tolist()]
                for out in together] == expected

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
               st.lists(st.sampled_from([0.0, -2.5, 0.7, 3.0]), min_size=n,
                        max_size=n), min_size=1, max_size=4)),
           st.integers(1, 60) | st.just(6000),
           st.integers(1, 60) | st.just(4000))
    def test_search_equals_scipy_within_budgets(self, x0, maxfev, maxiter):
        # small budgets stop scipy mid-iteration (its _MaxFuncCallError),
        # and each row of one call must still be its own scipy search
        x0 = np.array(x0)
        sizes = []

        def f(points, rows):
            sizes.append(len(rows))
            return np.array([rosenbrock(u) for u in points])

        x, fun = metrics._nelder_mead(f, x0, 1e-6, 1e-8, maxiter, maxfev)
        assert 0 not in sizes
        for row, x_row, fun_row in zip(x0, x, fun):
            ref = minimize(rosenbrock, row, method="Nelder-Mead",
                           options={"xatol": 1e-6, "fatol": 1e-8,
                                    "maxiter": maxiter, "maxfev": maxfev})
            assert x_row.tolist() == ref.x.tolist() and fun_row == ref.fun


class TestOrderCountBuckets:
    def test_buy_sell_classification(self):
        trades = [TradeEvent(100, "t", B, 1.0, A, 1.0),    # buy of A
                  TradeEvent(200, "t", A, 1.0, B, 1.0),    # sell of A
                  TradeEvent(300, "t", A, 1.0, B, 1.0)]
        buckets = order_count_buckets(trades, A, bucket=86400)
        assert buckets == [(86400, 1, 2)]

    def test_quiet_days_get_zero_buckets(self):
        day = 86400
        trades = [TradeEvent(100, "t", B, 1.0, A, 1.0),              # buy, day 1
                  TradeEvent(3 * day + 100, "t", A, 1.0, B, 1.0)]    # sell, day 4
        buckets = order_count_buckets(trades, A, bucket=day)
        assert buckets == [(day, 1, 0), (2 * day, 0, 0), (3 * day, 0, 0),
                           (4 * day, 0, 1)]


def test_package_never_imports_scipy_optimize():
    # the Nelder-Mead search is the package's own; importing scipy.optimize
    # would cost every command its load time and resident memory
    probe = (
        "import importlib, pkgutil, sys; sys.path.insert(0, sys.argv[1]); "
        "import depegwatch; "
        "[importlib.import_module(m.name) for m in "
        "pkgutil.iter_modules(depegwatch.__path__, 'depegwatch.')]; "
        "print(sorted(m for m in sys.modules if m.startswith('depegwatch'))); "
        "print('scipy.optimize' in sys.modules)")
    src = os.path.dirname(os.path.dirname(metrics.__file__))
    out = subprocess.run([sys.executable, "-c", probe, src], check=True,
                         capture_output=True, text=True,
                         timeout=60).stdout.splitlines()
    assert "'depegwatch.metrics'" in out[0] and "'depegwatch.cli'" in out[0]
    assert out[1] == "False"

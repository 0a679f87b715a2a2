import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import oracles
from depegwatch.core import (
    LiquidityEvent,
    MissingPriceError,
    MetricSeries,
    PriceSample,
    PriceTable,
    TokenId,
    TradeEvent,
    ValidationError,
    aggregate,
    fit_stats,
    gammaln,
    log_diff,
    standardize,
)


def series(values, timestamps=None, name="m", pool="p"):
    values = list(values)
    if timestamps is None:
        timestamps = [3600 * (k + 1) for k in range(len(values))]
    return MetricSeries(name, pool, np.array(timestamps, dtype=np.int64),
                        np.array(values, dtype=float))


class TestDomainTypes:
    def test_token_requires_symbol(self):
        with pytest.raises(ValidationError):
            TokenId("")

    def test_token_address_must_be_lowercase_hex(self):
        TokenId("USDC", "a" * 40)
        with pytest.raises(ValidationError):
            TokenId("USDC", "A" * 40)
        with pytest.raises(ValidationError):
            TokenId("USDC", "abc")

    def test_trade_invariants(self):
        a, b = TokenId("A"), TokenId("B")
        TradeEvent(0, "t", a, 1.0, b, 1.0)
        with pytest.raises(ValidationError):
            TradeEvent(0, "t", a, 0.0, b, 1.0)
        with pytest.raises(ValidationError):
            TradeEvent(0, "t", a, 1.0, a, 1.0)

    def test_liquidity_deltas_share_sign(self):
        a, b = TokenId("A"), TokenId("B")
        LiquidityEvent(0, "lp", {a: 5.0, b: 3.0}, 8.0)
        LiquidityEvent(0, "lp", {a: -5.0, b: -3.0}, -8.0)
        with pytest.raises(ValidationError):
            LiquidityEvent(0, "lp", {a: 5.0, b: -3.0}, 2.0)
        with pytest.raises(ValidationError):
            LiquidityEvent(0, "lp", {a: 5.0, b: 3.0}, -8.0)

    def test_price_sample_positive(self):
        with pytest.raises(ValidationError):
            PriceSample(0, TokenId("A"), 0.0)

    def test_series_timestamps_strictly_increase(self):
        with pytest.raises(ValidationError):
            series([1.0, 2.0], timestamps=[100, 100])


class TestAggregate:
    def test_sum_of_bucket(self):
        out = aggregate([(0, 1.0), (1800, 3.0)], 3600, "sum")
        assert out.points == [(3600, 4.0)]

    def test_last_mode(self):
        out = aggregate([(0, 5.0)], 3600, "last")
        assert out.points == [(3600, 5.0)]

    def test_empty_input_is_empty_series(self):
        assert len(aggregate([], 3600, "sum")) == 0

    def test_empty_buckets_zero_for_sum(self):
        out = aggregate([(0, 1.0), (2 * 3600 + 5, 2.0)], 3600, "sum")
        assert out.points == [(3600, 1.0), (7200, 0.0), (10800, 2.0)]

    def test_empty_buckets_carry_forward_for_last(self):
        out = aggregate([(0, 1.5), (2 * 3600 + 5, 2.5)], 3600, "last")
        assert out.points == [(3600, 1.5), (7200, 1.5), (10800, 2.5)]

    def test_mean_mode_is_unknown(self):
        with pytest.raises(ValidationError, match="unknown aggregation mode"):
            aggregate([(10, 1.0), (20, 3.0)], 3600, "mean")

    @given(st.lists(st.tuples(st.integers(0, 10**6),
                              st.floats(-1e6, 1e6)), min_size=1, max_size=40),
           st.sampled_from(["sum", "last"]))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_at_same_period(self, points, mode):
        once = aggregate(points, 3600, mode)
        twice = aggregate(once.points, 3600, mode)
        assert twice.points == once.points

    @given(st.sampled_from([1, 60, 3600]).flatmap(lambda period: st.tuples(
               st.just(period),
               st.lists(st.tuples(
                   st.integers(0, 6 * period) | st.sampled_from(
                       [0, period, period + 1, 5 * period, -1]),
                   st.floats(allow_nan=False, allow_infinity=False)
                   | st.integers(-10**6, 10**6)),
                   max_size=40))),
           st.sampled_from(["sum", "last"]))
    @settings(max_examples=300, deadline=None)
    def test_equals_array_oracle(self, period_points, mode):
        # ties, gaps, unsorted and empty input, int values, sums that
        # overflow to inf or nan, and a negative timestamp
        period, points = period_points

        def outcome(fn):
            try:
                out = fn(points, period, mode, metric_name="m", pool_id="p")
            except ValidationError as err:
                return str(err)
            return (out.metric_name, out.pool_id, out.timestamps.dtype,
                    out.timestamps.tolist(), out.values.dtype,
                    out.values.tobytes())

        # numpy scalars warn where Python floats overflow silently
        with np.errstate(over="ignore", invalid="ignore"):
            expected = outcome(oracles.aggregate)
        assert outcome(aggregate) == expected


class TestLogDiff:
    def test_e_ratio(self):
        out = log_diff(series([1.0, math.e, math.e]))
        assert out.values == pytest.approx([1.0, 0.0], abs=1e-15)

    def test_constant_series(self):
        assert log_diff(series([5.0, 5.0, 5.0])).values == pytest.approx([0.0, 0.0])

    def test_halving(self):
        out = log_diff(series([2.0, 1.0]))
        assert out.values[0] == pytest.approx(-0.6931471805599453, abs=1e-15)

    def test_rejects_nonpositive_naming_timestamp(self):
        with pytest.raises(ValidationError, match="7200"):
            log_diff(series([1.0, 0.0], timestamps=[3600, 7200]))

    def test_output_timestamps_drop_first(self):
        out = log_diff(series([1.0, 2.0, 3.0], timestamps=[10, 20, 30]))
        assert out.timestamps.tolist() == [20, 30]

    @given(st.lists(st.floats(0.01, 100.0), min_size=2, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_inverts_cumulative_exp(self, increments):
        # cumulative-exp of a diff series then log_diff recovers the diffs
        start = 1.0
        levels = [start]
        for r in increments:
            levels.append(levels[-1] * math.exp(math.log(r)))
        out = log_diff(series(levels))
        expected = [math.log(r) for r in increments]
        assert np.allclose(out.values, expected, atol=1e-12)


class TestStandardize:
    def test_unit_example(self):
        out = standardize(series([0.0, 2.0]), 1.0, 1.0)
        assert out.values.tolist() == [-1.0, 1.0]

    def test_direct_evaluation(self):
        out = standardize(series([3.0]), 1.0, 2.0)
        assert out.values.tolist() == [1.0]

    def test_self_fit_gives_zero_mean_unit_std(self):
        data = series([1.0, 4.0, -2.0, 0.5, 9.0])
        mean, std = fit_stats(data)
        out = standardize(data, mean, std)
        assert abs(float(np.mean(out.values))) < 1e-12
        assert abs(float(np.std(out.values)) - 1.0) < 1e-12

    def test_rejects_nonpositive_std(self):
        with pytest.raises(ValidationError):
            standardize(series([1.0]), 0.0, 0.0)



class TestPriceTable:
    def test_nearest_within_tolerance(self):
        tok = TokenId("A")
        table = PriceTable([PriceSample(100, tok, 1.0),
                            PriceSample(200, tok, 2.0)])
        assert table.lookup(tok, 140, tol=50) == 1.0
        assert table.lookup(tok, 160, tol=50) == 2.0
        assert table.lookup(tok, 400, tol=50) is None

    def test_tie_prefers_earlier(self):
        tok = TokenId("A")
        table = PriceTable([PriceSample(100, tok, 1.0),
                            PriceSample(200, tok, 2.0)])
        assert table.lookup(tok, 150, tol=100) == 1.0

    def test_missing_token(self):
        table = PriceTable([])
        assert table.lookup(TokenId("A"), 0, tol=10) is None

    @settings(max_examples=300, deadline=None)
    @given(
        samples=st.lists(st.tuples(st.integers(0, 6).map(lambda k: 10 * k),
                                   st.sampled_from("AB"),
                                   st.floats(1e-6, 1e6)), max_size=12),
        queries=st.lists(st.tuples(st.sampled_from("ABC"),
                                   st.integers(-3, 15).map(lambda k: 5 * k),
                                   st.sampled_from([0, 4, 5, 10, 15, 30])),
                         min_size=1, max_size=20),
    )
    def test_lookup_equals_array_oracle(self, samples, queries):
        # Samples on a 10 s grid and queries on a 5 s grid: duplicates,
        # equidistant ties and queries exactly at the tolerance edge are
        # common; C is never sampled.
        rows = [PriceSample(ts, TokenId(sym), px) for ts, sym, px in samples]
        table, ref = PriceTable(rows), oracles.PriceTable(rows)

        def at(t, token, ts, tol):
            try:
                return t.at(token, ts, tol)
            except MissingPriceError as err:
                return str(err)

        for sym, ts, tol in queries:
            token = TokenId(sym)
            got = table.lookup(token, ts, tol)
            assert got == ref.lookup(token, ts, tol)
            assert type(got) is type(ref.lookup(token, ts, tol))
            assert at(table, token, ts, tol) == at(ref, token, ts, tol)


class TestGammaln:
    """The port of cephes ``lgam`` against ``scipy.special.gammaln``, the
    library's log Gamma before the port, compared as int64 bit patterns."""

    @staticmethod
    def assert_bitwise(xs):
        xs = np.asarray(xs, dtype=float).ravel()
        got = np.array([gammaln(x) for x in xs.tolist()])
        np.testing.assert_array_equal(got.view(np.int64),
                                      special.gammaln(xs).view(np.int64))

    def test_integers_exhaustive(self):
        # log k! of every PIN count up to 2e5
        self.assert_bitwise(np.arange(1, 200_002))

    def test_grown_alphas(self):
        # every alpha of the tune grid's run-length tables
        self.assert_bitwise([np.add.accumulate(np.r_[10.0 ** e,
                                                     np.full(5001, 0.5)])
                             for e in range(-5, 5)])

    @settings(max_examples=2000, deadline=None)
    @given(st.floats(min_value=5e-324, max_value=1e308))
    def test_positive_floats(self, x):
        self.assert_bitwise([x])

    @pytest.mark.parametrize("edge", [1.0, 2.0, 3.0, 13.0, 1000.0, 1e8,
                                      2.556348e305])
    def test_branch_edges(self, edge):
        # just below 1, x + 1 rounds to 2, where the early return skips a
        # rational term that is nonzero there (at integers it is 0)
        below = above = edge
        xs = [edge]
        for _ in range(4):
            below, above = np.nextafter(below, 0), np.nextafter(above, np.inf)
            xs += [below, above]
        self.assert_bitwise(xs)

    def test_inf_and_nan_pass_through(self):
        self.assert_bitwise([math.inf, math.nan])

import dataclasses
import math

import numpy as np
import pytest

import oracles
from depegwatch import simulator
from depegwatch.core import (
    NumericalError,
    PriceTable,
    TokenId,
    ValidationError,
)
from depegwatch.evaluation import label_depegs
from depegwatch.metrics import net_swap_flow
from depegwatch.simulator import (
    DepegEvent,
    ScenarioConfig,
    SlippageRow,
    external_price_path,
    run_scenario,
    slippage_experiment,
)
from depegwatch.stableswap import (
    PoolState,
    invariant_residual,
    virtual_price,
)
from depegwatch import pipeline

USDX, USDY, USDZ = TokenId("USDX"), TokenId("USDY"), TokenId("USDZ")
DAY = 86400


def scenario(seed=7, duration=4 * DAY, target=0.8, start_day=2,
             noise_vol=2e-4, fee=0.0004, recovery=None, **overrides):
    kwargs = dict(
        seed=seed,
        duration=duration,
        step=300,
        tokens=(USDX, USDY),
        pool=PoolState((5e6, 5e6), amp=50.0, fee=fee, lp_supply=1e7),
        peg_prices={USDX: 1.0, USDY: 1.0},
        depeg_events=(DepegEvent(USDX, start=start_day * DAY,
                                 target_price=target, ramp=DAY,
                                 recovery=recovery),),
        noise_vol=noise_vol,
        arb_threshold=0.002,
        n_noise_traders=2,
        n_informed=2,
        informed_lead=6 * 3600,
        informed_fraction=0.005,
        lp_event_prob=0.02,
    )
    kwargs.update(overrides)
    return ScenarioConfig(**kwargs)


class TestExternalPricePath:
    def test_no_noise_no_events_constant_peg(self):
        cfg = scenario(noise_vol=0.0, depeg_events=())
        path = external_price_path(cfg, USDX)
        assert np.all(path.values == 1.0)

    def test_permanent_event_reaches_target_exactly(self):
        cfg = scenario(noise_vol=0.0, target=0.5)
        path = external_price_path(cfg, USDX)
        assert path.values[-1] == pytest.approx(0.5, abs=0.0)
        # other token untouched
        assert np.all(external_price_path(cfg, USDY).values == 1.0)

    def test_recovery_returns_to_peg(self):
        cfg = scenario(noise_vol=0.0, target=0.5, recovery=DAY // 2)
        path = external_price_path(cfg, USDX)
        assert path.values[-1] == pytest.approx(1.0, abs=0.0)
        assert path.values.min() == pytest.approx(0.5, abs=1e-12)

    RECOVERING = DepegEvent(USDX, start=DAY + 450, target_price=0.7,
                            ramp=DAY // 3 + 100, recovery=DAY // 2)
    PERMANENT = DepegEvent(USDX, start=3 * DAY, target_price=0.9, ramp=7200)
    # listed after an earlier event of the same token, which it overrides
    EARLY = DepegEvent(USDX, start=DAY // 2, target_price=0.95, ramp=3600,
                       recovery=4 * DAY)
    OTHER = DepegEvent(USDY, start=2 * DAY + 300, target_price=0.6,
                       ramp=DAY, recovery=2 * DAY)

    @pytest.mark.parametrize("events", [
        (), (RECOVERING,), (PERMANENT,), (PERMANENT, RECOVERING),
        (OTHER,), (PERMANENT, EARLY, RECOVERING, OTHER)],
        ids=["none", "recovering", "permanent", "out-of-order",
             "other-token", "all"])
    def test_levels_equal_per_step_levels(self, events):
        # the level is evaluated once per constant stretch; every byte
        # equals evaluating it at every step
        cfg = scenario(noise_vol=0.0, depeg_events=events)
        for token in cfg.tokens:
            path = external_price_path(cfg, token)
            want = np.array([simulator._level_at(cfg, token, int(t))
                             for t in path.timestamps])
            assert path.values.tobytes() == want.tobytes()

    def test_same_seed_identical_path(self):
        cfg = scenario(noise_vol=5e-4)
        a = external_price_path(cfg, USDX)
        b = external_price_path(cfg, USDX)
        assert np.array_equal(a.values, b.values)

    def test_different_seed_differs(self):
        a = external_price_path(scenario(seed=1, noise_vol=5e-4), USDX)
        b = external_price_path(scenario(seed=2, noise_vol=5e-4), USDX)
        assert not np.array_equal(a.values, b.values)

    def test_step_must_divide_duration(self):
        with pytest.raises(ValidationError):
            scenario(duration=4 * DAY + 1)


class TestRunScenario:
    def test_quiet_scenario_has_no_trades(self):
        cfg = scenario(noise_vol=0.0, depeg_events=(), n_noise_traders=0,
                       n_informed=0, lp_event_prob=0.0)
        out = run_scenario(cfg)
        assert out.stream.trades == ()
        assert not out.truncated

    def test_determinism_byte_identical(self):
        cfg = scenario()
        a, b = run_scenario(cfg), run_scenario(cfg)
        assert a.stream == b.stream
        assert a.prices == b.prices
        assert a.final_pool == b.final_pool

    def test_conservation_exact(self):
        out = run_scenario(scenario())
        idx = {t: k for k, t in enumerate(out.config.tokens)}
        events = [(e.ts, 0, e) for e in out.stream.trades] + \
                 [(e.ts, 1, e) for e in out.stream.liquidity]
        events.sort(key=lambda r: (r[0], r[1]))
        balances = list(out.config.pool.balances)
        lp = out.config.pool.lp_supply
        for _, kind, event in events:
            if kind == 0:
                balances[idx[event.token_in]] += event.amount_in
                balances[idx[event.token_out]] -= event.amount_out
            else:
                for token, delta in event.deltas.items():
                    balances[idx[token]] += delta
                lp += event.lp_token_delta
        assert tuple(balances) == out.final_pool.balances
        assert lp == out.final_pool.lp_supply

    def test_swaps_equal_oracle_that_resolves_d(self):
        cfg = scenario(seed=5, duration=2 * DAY, start_day=1, target=0.9,
                       noise_vol=1e-3, n_noise_traders=3,
                       tokens=(USDX, USDY, USDZ),
                       pool=PoolState((4e6, 4e6, 4e6), amp=50.0, fee=0.0004,
                                      lp_supply=1.2e7),
                       peg_prices={USDX: 1.0, USDY: 1.0, USDZ: 1.0})
        out = run_scenario(cfg)
        ref = oracles.run_scenario(cfg)
        assert sum(t.trader == "arb" for t in out.stream.trades) > 10
        assert out.stream.trades == ref.stream.trades
        assert out.prices == ref.prices
        assert out.stream.snapshots == ref.stream.snapshots
        assert out.stream.liquidity == ref.stream.liquidity
        assert out.final_pool == ref.final_pool
        assert out.truncated == ref.truncated

    def test_agent_names_are_shared(self):
        out = run_scenario(scenario(seed=1234))
        names: dict[str, str] = {}
        for trade in out.stream.trades:
            assert names.setdefault(trade.trader, trade.trader) is trade.trader
        assert set(names) == {"arb", "informed_0", "informed_1", "noise_0",
                              "noise_1"}

    def test_snapshots_satisfy_invariant_residual(self):
        out = run_scenario(scenario(duration=2 * DAY))
        for snap in out.stream.snapshots:
            state = PoolState(snap.balances, amp=50.0, fee=0.0004,
                              lp_supply=snap.lp_supply)
            assert abs(invariant_residual(state, state.d)) < 1e-10 * state.d

    def test_informed_selling_pushes_flow_negative(self):
        out = run_scenario(scenario(seed=1234, duration=4 * DAY))
        flow = net_swap_flow(out.stream.trades, USDX, 3600)
        start = out.config.depeg_events[0].start
        lead = out.config.informed_lead
        mask = (flow.timestamps > start - lead) & (flow.timestamps <= start)
        assert mask.sum() > 0
        assert flow.values[mask].sum() < 0

    def test_depeg_produces_share_price_labels(self):
        out = run_scenario(scenario(seed=1234, target=0.8, duration=4 * DAY))
        prices = PriceTable(out.prices)
        entry = pipeline.PoolRegistryEntry(
            "scenario", "s", "0" * 40, out.config.tokens, 50.0, 0.0004)
        sp, vp = pipeline.share_price_series(out.stream, prices, entry, 3600)
        labels = label_depegs(sp, vp)
        assert len(labels) >= 1
        assert max(l.deviation for l in labels) >= 0.05

    def test_zero_fee_zero_noise_constant_virtual_price(self):
        cfg = scenario(noise_vol=0.0, fee=0.0, depeg_events=(),
                       n_noise_traders=2, n_informed=0, lp_event_prob=0.0,
                       duration=1 * DAY)
        out = run_scenario(cfg)
        vps = []
        for snap in out.stream.snapshots:
            state = PoolState(snap.balances, amp=50.0, fee=0.0,
                              lp_supply=snap.lp_supply)
            vps.append(virtual_price(state))
        assert np.allclose(vps, vps[0], rtol=1e-12)

    def test_snapshot_every_period(self):
        out = run_scenario(scenario(duration=2 * DAY))
        ts = [s.ts for s in out.stream.snapshots]
        assert ts == list(range(3600, 2 * DAY + 3600, 3600))

    def test_streams_sorted(self):
        out = run_scenario(scenario())
        trade_ts = [t.ts for t in out.stream.trades]
        assert trade_ts == sorted(trade_ts)


def _drain(**overrides):
    # informed sellers dump 20x the pool's balance into a near
    # constant-sum pool until a swap would leave the other side drained
    kwargs = dict(seed=10, duration=2 * DAY, start_day=1, fee=0.0,
                  pool=PoolState((1e6, 1e6), amp=2000.0, fee=0.0,
                                 lp_supply=2e6),
                  n_informed=2, informed_fraction=20.0,
                  informed_lead=12 * 3600)
    return scenario(**{**kwargs, **overrides})


class TestScenarioOracle:
    """``run_scenario`` on a balance list and one cached D equals the loop
    that stepped a ``PoolState`` per trade and re-solved D on every call,
    field for field."""

    @pytest.mark.parametrize("cfg", [
        scenario(seed=3, duration=DAY, start_day=0, target=0.85,
                 noise_vol=1e-3, n_noise_traders=4, tokens=(USDX, USDY, USDZ),
                 pool=PoolState((3e6, 4e6, 5e6), amp=100.0, fee=0.0004,
                                lp_supply=1.2e7),
                 peg_prices={USDX: 1.0, USDY: 1.0, USDZ: 1.0}),
        # no noise trader swaps after the arbitrage checks, so an LP event
        # changes balances whose D is already solved
        scenario(seed=8, duration=DAY, start_day=0, lp_event_prob=0.6,
                 lp_fraction=0.05, recovery=DAY // 4, noise_vol=1e-3,
                 n_noise_traders=0),
        scenario(seed=9, duration=DAY, start_day=0, fee=0.0, noise_vol=1e-3,
                 pool=PoolState((2e6, 6e6), amp=1.0, fee=0.0,
                                lp_supply=8e6)),
        _drain(),
        # a withdrawal of more than the pool holds
        scenario(seed=12, duration=DAY, lp_event_prob=0.3, lp_fraction=1.0),
    ], ids=["three-tokens", "frequent-lp", "fee-0", "drained", "over-withdrawn"])
    def test_equals_state_per_trade_loop(self, cfg):
        out = run_scenario(cfg)
        ref = oracles.run_scenario(cfg)
        assert out.stream == ref.stream
        assert out.prices == ref.prices
        assert out.final_pool == ref.final_pool
        assert out.truncated == ref.truncated
        assert out.config is cfg and ref.config is cfg
        for token in cfg.tokens:
            assert (out.external_prices[token].values.tolist()
                    == ref.external_prices[token].values.tolist())
        assert len(out.stream.trades) > 10

    def test_truncation_cases_truncate(self):
        assert run_scenario(_drain()).truncated
        assert run_scenario(scenario(seed=12, duration=DAY, lp_event_prob=0.3,
                                     lp_fraction=1.0)).truncated

    def test_non_convergence_raises_like_the_oracle(self):
        cfg = _drain(informed_fraction=0.6,
                     pool=PoolState((1e6, 1e6), amp=50.0, fee=0.0,
                                    lp_supply=2e6))
        with pytest.raises(NumericalError) as err:
            run_scenario(cfg)
        with pytest.raises(NumericalError) as ref:
            oracles.run_scenario(cfg)
        assert str(err.value) == str(ref.value)

    def test_one_d_per_balance_change(self, monkeypatch):
        solved = []
        kernel = simulator._d

        def counting(balances, amp):
            solved.append(tuple(balances))
            return kernel(balances, amp)

        monkeypatch.setattr(simulator, "_d", counting)
        out = run_scenario(scenario(seed=4, duration=DAY, noise_vol=1e-3))
        # the initial pool plus at most one per trade and per LP event
        assert len(solved) <= (1 + len(out.stream.trades)
                               + len(out.stream.liquidity))
        assert len(set(solved)) == len(solved)


class TestScaleFree:
    @staticmethod
    def _three_tokens(k):
        def scale(value):
            return math.ldexp(value, k)
        return scenario(seed=3, duration=DAY, depeg_events=(DepegEvent(
                            USDX, start=DAY // 3, target_price=0.85,
                            ramp=DAY // 4, recovery=DAY // 4),),
                        noise_vol=1e-3, n_noise_traders=4, lp_event_prob=0.1,
                        tokens=(USDX, USDY, USDZ),
                        pool=PoolState((scale(3e6), scale(4e6), scale(5e6)),
                                       amp=100.0, fee=0.0004,
                                       lp_supply=scale(1.2e7)),
                        peg_prices={USDX: 1.0, USDY: 1.0, USDZ: 1.0})

    def test_pool_scaled_by_two_to_the_minus_540(self):
        # D^2 went subnormal there, and the swap output solver raised
        # NumericalError; the pool is now solved on a rescaled copy
        k = -540
        ref, out = (run_scenario(self._three_tokens(s)) for s in (0, k))

        def scale(value):
            return math.ldexp(value, k)
        assert not ref.truncated and not out.truncated
        assert {t.trader.split("_")[0] for t in ref.stream.trades} == {
            "informed", "arb", "noise"}
        assert len(ref.stream.liquidity) > 0
        assert [dataclasses.replace(t, amount_in=scale(t.amount_in),
                                    amount_out=scale(t.amount_out))
                for t in ref.stream.trades] == list(out.stream.trades)
        assert [dataclasses.replace(
                    e, deltas={t: scale(v) for t, v in e.deltas.items()},
                    lp_token_delta=scale(e.lp_token_delta))
                for e in ref.stream.liquidity] == list(out.stream.liquidity)
        assert [dataclasses.replace(s, balances=tuple(map(scale, s.balances)),
                                    lp_supply=scale(s.lp_supply))
                for s in ref.stream.snapshots] == list(out.stream.snapshots)
        assert out.prices == ref.prices


class TestSlippageExperiment:
    def test_balanced_pool_all_near_one(self):
        pool = PoolState((1e6, 1e6), amp=10.0)
        rows = slippage_experiment(pool, [5.0, 50.0, 500.0], imbalance=1.0)
        assert all(r.marginal_price == pytest.approx(1.0, abs=1e-4)
                   for r in rows)

    def test_marginal_price_increases_with_amp(self):
        pool = PoolState((1e6, 1e6), amp=10.0)
        rows = slippage_experiment(pool, [5.0, 50.0, 500.0], imbalance=4.0)
        prices = [r.marginal_price for r in rows]
        assert prices == sorted(prices)
        assert prices[0] < prices[-1]

    def test_single_amp_single_row(self):
        pool = PoolState((1e6, 1e6), amp=10.0)
        rows = slippage_experiment(pool, [42.0], imbalance=2.0)
        assert len(rows) == 1 and isinstance(rows[0], SlippageRow)
        assert rows[0].amp == 42.0

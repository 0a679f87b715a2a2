"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import json
import os
import time

import numpy as np
import pytest

from depegwatch import bocd, pipeline
from depegwatch.cli import main as cli_main
from depegwatch.core import (
    MetricSeries,
    PriceTable,
    TokenId,
    aggregate,
    fit_stats,
    log_diff,
    standardize,
)
from depegwatch.evaluation import (
    GridSpace,
    ScoringConfig,
    grid_axis,
    grid_configs,
    label_depegs,
    lf_score,
    price_threshold_crossings,
    tune,
)
from depegwatch.metrics import (
    PinParams,
    estimate_pin,
    gini,
    net_swap_flow,
    pool_markout_series,
    shannon_entropy,
    trade_markout,
)
from depegwatch.simulator import DepegEvent, ScenarioConfig, run_scenario
from depegwatch.stableswap import (
    PoolState,
    apply_swap,
    invariant_residual,
    virtual_price,
)
from oracles import (
    batch_detect,
    brute_force_run_length_posteriors,
    generate_pin_buckets,
    posterior,
)

PP = "posterior_predictive"
USDX, USDY = TokenId("USDX"), TokenId("USDY")
DAY = 86400
HOUR = 3600


def _ok(num, message):
    print(f"\nACCEPTANCE {num} PASS: {message}")


def test_criterion_1_bocd_exactness_against_brute_force():
    rng = np.random.default_rng(314)
    cfg = bocd.DetectorConfig(hazard_lambda=100.0,
                              prior=bocd.NGParams(0.0, 1.0, 1.0, 1.0),
                              prob_floor=0.0, predictive_scale=PP)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(12):
        T = int(rng.integers(2, 11))
        xs = rng.normal(0.0, 1.5, T).tolist()
        oracle = brute_force_run_length_posteriors(xs, cfg)
        state = bocd.init_state(cfg)
        for t, x in enumerate(xs, start=1):
            state, _ = bocd.step(state, x, cfg)
            got = dict(zip(state.runs.tolist(),
                           posterior(state.log_joint).tolist()))
            for r in set(oracle[t - 1]) | set(got):
                err = abs(oracle[t - 1].get(r, 0.0) - got.get(r, 0.0))
                worst = max(worst, err)
                assert err < 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _ok(1, f"12 sequences match the placement oracle; worst error "
           f"{worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_bocd_synthetic_jump_detection():
    rng = np.random.default_rng(2)
    xs = np.concatenate([rng.normal(0, 1, 500), rng.normal(5, 1, 500)])
    series = MetricSeries("m", "p", np.arange(1, 1001, dtype=np.int64) * HOUR,
                          xs)
    cfg = bocd.DetectorConfig(hazard_lambda=100.0,
                              prior=bocd.NGParams(0.0, 1.0, 1.0, 1.0),
                              predictive_scale=PP)
    started = time.perf_counter()
    changepoints, _, _ = bocd.detect_series(series, cfg)
    elapsed = time.perf_counter() - started
    steps = [cp.step for cp in changepoints]
    in_window = [s for s in steps if 500 <= s <= 505]
    quiet_range = [s for s in steps if 10 <= s <= 499]
    assert len(in_window) == 1
    assert quiet_range == []
    assert elapsed < 1.0
    _ok(2, f"jump flagged once at step {in_window[0]}, no emissions in "
           f"[10,499]; {elapsed:.2f}s")


def test_criterion_3_scoring_golden_values():
    report = lf_score([100], [98], ScoringConfig(margin_m=10, f_beta=1.0))
    assert report.precision == 1.0
    assert report.weighted_recall == 0.2
    assert report.lf_score == pytest.approx(1 / 3, abs=0)
    report2 = lf_score([100], [98, 50], ScoringConfig(margin_m=10, f_beta=1.0))
    assert abs(report2.lf_score - 2 / 7) < 1e-12
    _ok(3, f"(P,R,F)=({report.precision},{report.weighted_recall},"
           f"{report.lf_score:.6f}) and F={report2.lf_score:.6f} with a "
           f"false positive")


def test_criterion_4_stableswap_invariants():
    balanced = PoolState((1e6, 1e6, 1e6), amp=100.0)
    assert balanced.d == 3e6

    rng = np.random.default_rng(44)
    state = PoolState((1e6, 1e6, 1e6), amp=100.0, fee=0.0, lp_supply=3e6)
    worst = 0.0
    for _ in range(1000):
        i, j = (int(v) for v in rng.choice(3, size=2, replace=False))
        dx = float(rng.uniform(10.0, 2e5))
        d_before = state.d
        state, _ = apply_swap(state, i, j, dx)
        residual = abs(invariant_residual(state, d_before))
        worst = max(worst, residual / d_before)
        assert residual < 1e-10 * d_before

    rng = np.random.default_rng(45)
    charged = PoolState((1e6, 1e6, 1e6), amp=100.0, fee=0.0004, lp_supply=3e6)
    vp = virtual_price(charged)
    for _ in range(1000):
        i, j = (int(v) for v in rng.choice(3, size=2, replace=False))
        dx = float(rng.uniform(10.0, 2e5))
        charged, _ = apply_swap(charged, int(i), int(j), dx)
        vp_next = virtual_price(charged)
        assert vp_next >= vp
        vp = vp_next

    from depegwatch.simulator import slippage_experiment
    rows = slippage_experiment(PoolState((1e6, 1e6), amp=10.0),
                               [5.0, 50.0, 500.0], imbalance=4.0)
    prices = [r.marginal_price for r in rows]
    assert prices[0] < prices[1] < prices[2]
    _ok(4, f"balanced D exact; 1000 swaps worst residual {worst:.2e}*D; "
           f"virtual price monotone; slippage prices {prices}")


def test_criterion_5_metric_analytics():
    assert shannon_entropy([50, 50]) == 1.0
    assert abs(gini([1, 1, 4]) - 0.5) < 1e-12

    from depegwatch.core import PriceSample, TradeEvent
    samples = []
    for ts in range(0, 2 * DAY, 300):
        samples.append(PriceSample(ts, USDX, 0.97))
        samples.append(PriceSample(ts, USDY, 1.01))
    prices = PriceTable(samples)
    rng = np.random.default_rng(55)
    for _ in range(1000):
        ts = int(rng.integers(0, DAY))
        trade = TradeEvent(ts, "t", USDY, float(rng.uniform(1, 1e4)),
                           USDX, float(rng.uniform(1, 1e4)))
        taker = trade_markout(trade, prices, 300, "taker")
        lp = trade_markout(trade, prices, 300, "lp")
        assert taker + lp == 0.0

    assert PinParams(1.0, 0.5, 2.0, 2.0, 2.0).pin == 1 / 3

    true_pin = PinParams(0.4, 0.1, 40.0, 50.0, 50.0).pin
    buckets = generate_pin_buckets(200, 0.4, 0.1, 40, 50, 50, seed=0)
    started = time.perf_counter()
    _, estimated = estimate_pin(buckets)
    elapsed = time.perf_counter() - started
    assert abs(estimated - true_pin) < 0.05
    assert elapsed < 30.0
    _ok(5, f"entropy/gini/markout/PIN-formula exact; estimated PIN "
           f"{estimated:.4f} vs true {true_pin:.4f} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 6: end-to-end scenario


def _scenario(seed, depeg_day):
    return ScenarioConfig(
        seed=seed, duration=14 * DAY, step=300, tokens=(USDX, USDY),
        pool=PoolState((5e6, 5e6), amp=50.0, fee=0.0004, lp_supply=1e7),
        peg_prices={USDX: 1.0, USDY: 1.0},
        depeg_events=(DepegEvent(USDX, start=depeg_day * DAY,
                                 target_price=0.85, ramp=DAY),),
        noise_vol=2e-4, arb_threshold=0.002, n_noise_traders=2,
        n_informed=2, informed_lead=6 * HOUR, informed_fraction=0.005,
        lp_event_prob=0.02)


def _raw_metric(output, metric, prices):
    stream = output.stream
    if metric == "netSwapFlow":
        return net_swap_flow(stream.trades, USDX, HOUR, pool_id="scenario")
    if metric == "shannonsEntropy":
        points = [(s.ts, shannon_entropy(s.balances)) for s in stream.snapshots]
        return aggregate(points, HOUR, "last", metric_name="shannonsEntropy",
                         pool_id="scenario")
    if metric == "300.Markout":
        series, _ = pool_markout_series(stream.trades, prices, 300, HOUR,
                                        pool_id="scenario")
        return series
    raise AssertionError(metric)


def _labels_for(output, prices):
    entry = pipeline.PoolRegistryEntry("scenario", "s", "0" * 40,
                                       output.config.tokens, 50.0, 0.0004)
    sp, vp = pipeline.share_price_series(output.stream, prices, entry, HOUR)
    return [l.ts for l in label_depegs(sp, vp)]


def test_criterion_6_end_to_end_scenario():
    started = time.perf_counter()
    transforms = {"netSwapFlow": "none", "shannonsEntropy": "log_diff",
                  "300.Markout": "none"}
    margin = 48 * HOUR
    scoring = ScoringConfig(margin_m=margin)
    base_cfg = bocd.DetectorConfig(predictive_scale=PP)

    train_out = run_scenario(_scenario(seed=777, depeg_day=8))
    test_out = run_scenario(_scenario(seed=1234, depeg_day=9))
    train_prices = PriceTable(train_out.prices)
    test_prices = PriceTable(test_out.prices)

    train_labels = _labels_for(train_out, train_prices)
    test_labels = _labels_for(test_out, test_prices)
    assert len(test_labels) >= 1, "scenario must produce at least one label"

    ext = test_out.external_prices[USDX]
    crossings = price_threshold_crossings(ext, 0.99)
    assert crossings, "depeg scenario must cross the price threshold"
    first_crossing = crossings[0]

    leading, positive_lf = [], []
    for metric, transform in transforms.items():
        train_series = _raw_metric(train_out, metric, train_prices)
        test_series = _raw_metric(test_out, metric, test_prices)
        train_series = pipeline.transform_series(train_series, transform)
        test_series = pipeline.transform_series(test_series, transform)
        mean, std = fit_stats(train_series)
        train_series = standardize(train_series, mean, std)
        test_series = standardize(test_series, mean, std)

        prior, _ = tune(train_series, train_labels, GridSpace(), scoring,
                        base_cfg)
        cfg = bocd.DetectorConfig(prior=prior, predictive_scale=PP)
        changepoints, _, _ = bocd.detect_series(test_series, cfg)
        cp_ts = [cp.ts for cp in changepoints]
        report = lf_score(test_labels, cp_ts, scoring)
        leads = [first_crossing - t for t in cp_ts
                 if 0 <= first_crossing - t <= margin]
        if leads:
            leading.append((metric, max(leads)))
        if report.lf_score > 0:
            positive_lf.append((metric, report.lf_score))

    elapsed = time.perf_counter() - started
    assert len(leading) >= 2, f"only {leading} led the price crossing"
    assert len(positive_lf) >= 2, f"only {positive_lf} scored above zero"
    assert elapsed < 120.0
    _ok(6, f"{len(test_labels)} labels; leading detectors {leading} "
           f"(seconds before the {first_crossing}s crossing); lF "
           f"{positive_lf}; {elapsed:.0f}s")


def test_full_grid_detection_equals_unfactored_oracle():
    # the factored kernel over all 1000 priors on criterion 6's 336-step
    # netSwapFlow training series, bit for bit
    output = run_scenario(_scenario(seed=777, depeg_day=8))
    series = _raw_metric(output, "netSwapFlow", PriceTable(output.prices))
    series = standardize(series, *fit_stats(series))
    assert len(series) == 336
    cfg = bocd.DetectorConfig(predictive_scale=PP)
    axis = grid_axis(GridSpace())
    emits, runs, log_joint = bocd.detect_batch(series, axis, axis, axis, cfg)
    want_emits, want_runs, want_lj = batch_detect(series, grid_configs(),
                                                  cfg)
    assert np.array_equal(emits, want_emits)
    assert np.array_equal(runs, want_runs)
    assert log_joint.shape == want_lj.shape
    assert np.array_equal(log_joint.view(np.int64), want_lj.view(np.int64))


def test_criterion_7_determinism_and_resume(tmp_path):
    # split-stream detection equals whole-stream detection bit for bit
    rng = np.random.default_rng(71)
    values = np.concatenate([rng.normal(0, 1, 120), rng.normal(3, 1, 80)])
    series = MetricSeries("m", "p",
                          np.arange(1, 201, dtype=np.int64) * HOUR, values)
    cfg = bocd.DetectorConfig(predictive_scale=PP)
    whole_cps, whole_trace, whole_state = bocd.detect_series(series, cfg)
    first = MetricSeries("m", "p", series.timestamps[:97].copy(),
                         series.values[:97].copy())
    second = MetricSeries("m", "p", series.timestamps[97:].copy(),
                          series.values[97:].copy())
    cps1, trace1, mid = bocd.detect_series(first, cfg)
    restored, cfg2 = bocd.state_from_dict(
        json.loads(json.dumps(bocd.state_to_dict(mid, cfg))))
    cps2, trace2, end = bocd.detect_series(second, cfg2, restored)
    assert cps1 + cps2 == whole_cps
    assert trace1 + trace2 == whole_trace
    assert np.array_equal(end.log_joint, whole_state.log_joint)

    # identical seeds give identical output digests per manifest
    scenario_doc = {
        "seed": 99, "duration": 2 * DAY, "step": 300,
        "tokens": [{"symbol": "USDX"}, {"symbol": "USDY"}],
        "pool": {"balances": [5e6, 5e6], "amp": 50.0, "fee": 0.0004,
                 "lp_supply": 1e7},
        "peg_prices": {"USDX": 1.0, "USDY": 1.0},
        "depeg_events": [{"token": "USDX", "start": DAY,
                          "target_price": 0.9, "ramp": DAY // 2}],
        "noise_vol": 2e-4, "n_noise_traders": 2, "n_informed": 1,
        "informed_lead": 3 * HOUR, "lp_event_prob": 0.02,
    }
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(scenario_doc))
    digests = []
    for name in ("a", "b"):
        out_dir = str(tmp_path / name)
        assert cli_main(["simulate", "--config", str(config_path),
                         "--out-dir", out_dir]) == 0
        manifest = json.load(open(os.path.join(out_dir,
                                               pipeline.MANIFEST_NAME)))
        digests.append(manifest["outputs"])
    assert digests[0] == digests[1]
    _ok(7, f"split == whole ({len(whole_cps)} changepoints, "
           f"{len(whole_trace)} trace rows); simulate digests identical "
           f"across runs")


def test_criterion_8_grid_search_space():
    configs = grid_configs(GridSpace())
    assert len(configs) == 1000
    members = {(c.alpha, c.beta, c.kappa) for c in configs}
    reference_rows = [
        (0.1, 1000.0, 1.0),      # entropy models
        (1e-5, 1.0, 10000.0),    # sharkflow models
        (100.0, 100.0, 10000.0),  # gini models
        (0.1, 100.0, 1000.0),    # LP flow models
        (0.01, 1000.0, 1.0),     # swap flow models
        (10.0, 100.0, 1e-4),     # markout models
    ]
    for triple in reference_rows:
        assert triple in members
    assert all(c.mu == 0.0 for c in configs)
    _ok(8, "default grid has exactly 1000 configs and contains every "
           "published hyperparameter row")

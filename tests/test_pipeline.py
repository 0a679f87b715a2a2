import copy
import csv
import dataclasses
import json
import math
import os
import shlex
import shutil
import types
import typing
from pathlib import Path

import numpy as np
import pytest

from depegwatch import bocd, evaluation, pipeline
from depegwatch.cli import SeriesStats, TunedParams, main
from depegwatch.core import (
    EventStream,
    MetricSeries,
    MissingPriceError,
    PriceSample,
    PriceTable,
    TokenId,
    TradeEvent,
    ValidationError,
)
from depegwatch.simulator import DepegEvent, ScenarioConfig, run_scenario
from depegwatch.stableswap import PoolState
import oracles
from oracles import scalar_detect_series, scalar_state_v1
from test_acceptance import _scenario

USDX, USDY = TokenId("USDX"), TokenId("USDY")
DAY = 86400


def small_scenario(seed=11, duration=3 * DAY):
    return ScenarioConfig(
        seed=seed, duration=duration, step=300, tokens=(USDX, USDY),
        pool=PoolState((5e6, 5e6), amp=50.0, fee=0.0004, lp_supply=1e7),
        peg_prices={USDX: 1.0, USDY: 1.0},
        depeg_events=(DepegEvent(USDX, start=2 * DAY, target_price=0.85,
                                 ramp=DAY),),
        noise_vol=2e-4, arb_threshold=0.002, n_noise_traders=2,
        n_informed=2, informed_lead=6 * 3600, informed_fraction=0.005,
        lp_event_prob=0.02)


def _floats(n, seed=0):
    return [float(x) for x in np.random.default_rng(seed).standard_normal(n)]


_TS = [k * 3600 for k in range(1, 41)]
# kind -> (header, rows written, reader, row -> expected read-back item,
#          a numeric field)
FORMATS = {
    "metric": (pipeline.METRIC_HEADER,
               list(zip(_TS, [x * 1e-7 for x in _floats(40)])),
               lambda p: pipeline.read_metric_series(p).points, tuple,
               "value"),
    "labels": (pipeline.LABELS_HEADER, list(zip(_TS, _floats(40, 1))),
               pipeline.read_labels, tuple, "deviation"),
    "changepoints": (pipeline.CHANGEPOINTS_HEADER,
                     [(ts, k, k % 7, abs(x)) for k, (ts, x)
                      in enumerate(zip(_TS, _floats(40, 2)))],
                     pipeline.read_changepoints, lambda row: row[0],
                     "probability"),
    "scores": (pipeline.SCORES_HEADER,
               [("p1", "netSwapFlow", 1 / 3, 0.1 + 0.2, 2 / 7, "1e-05",
                 "100.0", "1.0"),
                ("p2", "pin", 0.0, 5e-324, 1.0, "", "", "")],
               pipeline.read_score_rows, list, "R"),
    "prices": (pipeline.PRICES_HEADER,
               [(ts, "USDX", 1.0 + x * 1e-3)
                for ts, x in zip(_TS, _floats(40, 3))],
               lambda p: [(s.ts, s.token.symbol, s.usd_price)
                          for s in pipeline.read_price_samples(p)],
               tuple, "usd_price"),
}


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("bundle")
    output = run_scenario(small_scenario())
    written = pipeline.write_scenario(str(out_dir), output)
    pipeline.write_manifest(str(out_dir), "simulate", [], written, {})
    return str(out_dir), output


class TestRoundTrip:
    def test_ingest_reproduces_streams(self, scenario_dir):
        data_dir, output = scenario_dir
        registry = pipeline.load_pool_registry(
            os.path.join(data_dir, "registry.json"))
        streams, prices = pipeline.ingest(data_dir, registry)
        stream = streams["scenario"]
        assert len(stream.trades) == len(output.stream.trades)
        for a, b in zip(stream.trades, output.stream.trades):
            assert (a.ts, a.trader, a.amount_in, a.amount_out) == \
                (b.ts, b.trader, b.amount_in, b.amount_out)
            assert a.token_in.symbol == b.token_in.symbol
        assert len(stream.liquidity) == len(output.stream.liquidity)
        for a, b in zip(stream.liquidity, output.stream.liquidity):
            assert a.lp_token_delta == b.lp_token_delta
            assert {t.symbol: d for t, d in a.deltas.items()} == \
                {t.symbol: d for t, d in b.deltas.items()}
        assert len(stream.snapshots) == len(output.stream.snapshots)
        for a, b in zip(stream.snapshots, output.stream.snapshots):
            assert a.balances == b.balances and a.lp_supply == b.lp_supply

    def test_ingest_shares_agent_names(self, scenario_dir):
        data_dir, _ = scenario_dir
        registry = pipeline.load_pool_registry(
            os.path.join(data_dir, "registry.json"))
        stream = pipeline.ingest(data_dir, registry)[0]["scenario"]
        names: dict[str, str] = {}
        for name in ([t.trader for t in stream.trades]
                     + [e.provider for e in stream.liquidity]):
            assert names.setdefault(name, name) is name
        assert {"arb", "informed_0", "noise_1", "lp_0"} <= set(names)

    @pytest.mark.parametrize("kind", list(FORMATS))
    def test_metric_series_round_trip_exact(self, tmp_path, kind):
        header, rows, read, expect, _ = FORMATS[kind]
        path = str(tmp_path / f"{kind}.csv")
        pipeline.write_csv(path, header, rows)
        want = [expect(row) for row in rows]
        # repr tells apart every float bit pattern and int from np.int64
        assert repr(read(path)) == repr(want)

    @pytest.mark.parametrize("kind", list(FORMATS))
    def test_non_numeric_field_names_line_and_field(self, tmp_path, kind):
        header, rows, read, _, field = FORMATS[kind]
        bad = list(rows[1])
        bad[header.index(field)] = "x1"
        path = str(tmp_path / f"{kind}.csv")
        pipeline.write_csv(path, header, [rows[0], bad])
        with pytest.raises(ValidationError) as err:
            read(path)
        assert str(err.value) == \
            f"{path}:3: field {field} must be a finite number, got 'x1'"


class TestValidation:
    def _write(self, tmp_path, name, header, rows):
        path = tmp_path / name
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        return str(tmp_path)

    def _registry(self, tmp_path):
        doc = {"pools": [{"pool_id": "pool", "tokens": [
            {"symbol": "USDX"}, {"symbol": "USDY"}], "amp": 50.0}]}
        (tmp_path / "registry.json").write_text(json.dumps(doc))
        return pipeline.load_pool_registry(str(tmp_path / "registry.json"))

    def test_zero_amount_names_line(self, tmp_path):
        registry = self._registry(tmp_path)
        data_dir = self._write(
            tmp_path, "trades.csv", pipeline.TRADES_HEADER,
            [[100, "pool", "t", "USDX", "1.0", "USDY", "1.0"],
             [200, "pool", "t", "USDX", "0", "USDY", "1.0"]])
        with pytest.raises(ValidationError, match="trades.csv:3"):
            pipeline.ingest(data_dir, registry)

    def test_unknown_pool_id(self, tmp_path):
        registry = self._registry(tmp_path)
        for row, problem in (
                ([100, "other", "t", "USDX", "1.0", "USDY", "1.0"],
                 "unknown pool_id 'other'"),
                ([100, "pool", "t", "USDX", "1.0", "USDZ", "1.0"],
                 "token 'USDZ' not in pool 'pool'")):
            data_dir = self._write(tmp_path, "trades.csv",
                                   pipeline.TRADES_HEADER, [row])
            path = os.path.join(data_dir, "trades.csv")
            with pytest.raises(ValidationError) as err:
                pipeline.ingest(data_dir, registry)
            # the path:line prefix appears exactly once
            assert str(err.value) == f"{path}:2: {problem}"

    def test_header_mismatch(self, tmp_path):
        registry = self._registry(tmp_path)
        data_dir = self._write(tmp_path, "trades.csv",
                               ["ts", "who"], [[1, "x"]])
        with pytest.raises(ValidationError, match="header"):
            pipeline.ingest(data_dir, registry)

    def test_unsorted_beyond_tolerance(self, tmp_path):
        registry = self._registry(tmp_path)
        data_dir = self._write(
            tmp_path, "trades.csv", pipeline.TRADES_HEADER,
            [[90000, "pool", "t", "USDX", "1.0", "USDY", "1.0"],
             [100, "pool", "t", "USDX", "1.0", "USDY", "1.0"]])
        with pytest.raises(ValidationError, match="unsorted"):
            pipeline.ingest(data_dir, registry)

    def test_each_pool_is_ordered_on_its_own(self, tmp_path):
        doc = {"pools": [{"pool_id": p, "tokens": [
            {"symbol": "USDX"}, {"symbol": "USDY"}], "amp": 50.0}
            for p in ("a", "b")]}
        (tmp_path / "registry.json").write_text(json.dumps(doc))
        registry = pipeline.load_pool_registry(
            str(tmp_path / "registry.json"))
        data_dir = self._write(
            tmp_path, "trades.csv", pipeline.TRADES_HEADER,
            [[90000, "a", "t", "USDX", "1.0", "USDY", "1.0"],
             [100, "b", "t", "USDX", "1.0", "USDY", "1.0"],
             [200, "b", "t", "USDX", "1.0", "USDY", "1.0"]])
        streams, _ = pipeline.ingest(data_dir, registry)
        assert [len(streams[p].trades) for p in "ab"] == [1, 2]

    def test_duplicate_timestamps_keep_stable_order(self, tmp_path):
        registry = self._registry(tmp_path)
        data_dir = self._write(
            tmp_path, "trades.csv", pipeline.TRADES_HEADER,
            [[100, "pool", "a", "USDX", "1.0", "USDY", "1.0"],
             [100, "pool", "b", "USDX", "2.0", "USDY", "2.0"]])
        streams, _ = pipeline.ingest(data_dir, registry)
        assert [t.trader for t in streams["pool"].trades] == ["a", "b"]


class TestMetricsCommand:
    def test_metric_files_and_names(self, scenario_dir, tmp_path):
        data_dir, _ = scenario_dir
        out_dir = str(tmp_path / "metrics")
        assert main(["metrics", "--data-dir", data_dir,
                     "--out-dir", out_dir]) == 0
        names = set(os.listdir(out_dir))
        for expected in ["scenario__shannonsEntropy.csv",
                         "scenario__giniCoefficient.csv",
                         "scenario__netSwapFlow__USDX.csv",
                         "scenario__netSwapFlow__USDY.csv",
                         "scenario__netLPFlow__USDX.csv",
                         "scenario__logReturns__USDX.csv",
                         "scenario__300.Markout.csv",
                         "scenario__sharkflow__USDX.csv",
                         pipeline.MANIFEST_NAME]:
            assert expected in names
        # deterministic digests: rerun and compare manifests
        out2 = str(tmp_path / "metrics2")
        assert main(["metrics", "--data-dir", data_dir,
                     "--out-dir", out2]) == 0
        m1 = json.load(open(os.path.join(out_dir, pipeline.MANIFEST_NAME)))
        m2 = json.load(open(os.path.join(out2, pipeline.MANIFEST_NAME)))
        assert m1["outputs"] == m2["outputs"]

    def test_empty_stream_headers_only(self, tmp_path):
        doc = {"pools": [{"pool_id": "empty", "tokens": [
            {"symbol": "USDX"}, {"symbol": "USDY"}], "amp": 10.0}]}
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        (data_dir / "registry.json").write_text(json.dumps(doc))
        out_dir = str(tmp_path / "m")
        assert main(["metrics", "--data-dir", str(data_dir),
                     "--out-dir", out_dir]) == 0
        flow = os.path.join(out_dir, "empty__netSwapFlow__USDX.csv")
        assert open(flow).read().strip() == "ts,value"


def _stream_over_days(days):
    """Two-token stream with one trade every six hours for ``days`` days,
    plus hourly peg prices."""
    trades = tuple(TradeEvent(ts, "t", USDX if k % 2 else USDY, 100.0,
                              USDY if k % 2 else USDX, 99.0)
                   for k, ts in enumerate(range(1, days * DAY, 6 * 3600)))
    prices = PriceTable(PriceSample(ts, token, 1.0)
                        for ts in range(0, days * DAY + 3600, 3600)
                        for token in (USDX, USDY))
    return EventStream("p", (USDX, USDY), trades=trades), prices


class TestPoolMetrics:
    @pytest.mark.parametrize("days, pin_tokens", [(6, 0), (7, 2)])
    def test_pin_buckets_only_for_a_full_window(self, monkeypatch, days,
                                                pin_tokens):
        stream, prices = _stream_over_days(days)
        calls = []
        count_buckets = pipeline.metrics.order_count_buckets

        def counting(*args):
            calls.append(args[1])
            return count_buckets(*args)

        monkeypatch.setattr(pipeline.metrics, "order_count_buckets", counting)
        entry = pipeline.PoolRegistryEntry("p", "p", "0" * 40, (USDX, USDY),
                                           50.0, 0.0004)
        out = pipeline.compute_pool_metrics(stream, prices, entry)
        assert len(calls) == pin_tokens
        assert [t for name, t, _ in out if name == "pin"] == calls


class TestDetectCommand:
    def test_resume_equivalence_on_fixture(self, tmp_path):
        rng = np.random.default_rng(21)
        values = np.concatenate([rng.normal(0, 1, 100),
                                 rng.normal(4, 1, 100)])
        series = MetricSeries("m", "p", np.arange(1, 201) * 3600, values)
        whole = tmp_path / "whole.csv"
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        pipeline.write_metric_series(str(whole), series)
        pipeline.write_metric_series(str(first), MetricSeries(
            "m", "p", series.timestamps[:100].copy(),
            series.values[:100].copy()))
        pipeline.write_metric_series(str(second), MetricSeries(
            "m", "p", series.timestamps[100:].copy(),
            series.values[100:].copy()))

        whole_dir = str(tmp_path / "whole_out")
        assert main(["detect", "--metric-file", str(whole),
                     "--predictive-scale", "posterior_predictive",
                     "--out-dir", whole_dir]) == 0

        split_dir1 = str(tmp_path / "s1")
        state_path = str(tmp_path / "state.json")
        assert main(["detect", "--metric-file", str(first),
                     "--predictive-scale", "posterior_predictive",
                     "--save-state", state_path,
                     "--out-dir", split_dir1]) == 0
        split_dir2 = str(tmp_path / "s2")
        assert main(["detect", "--metric-file", str(second),
                     "--state", state_path,
                     "--out-dir", split_dir2]) == 0

        whole_cp = open(os.path.join(whole_dir, "changepoints.csv")).read()
        part1 = open(os.path.join(split_dir1, "changepoints.csv")).read()
        part2 = open(os.path.join(split_dir2, "changepoints.csv")).read()
        header, _, body1 = part1.partition("\n")
        _, _, body2 = part2.partition("\n")
        assert whole_cp == header + "\n" + body1 + body2

        whole_rl = open(os.path.join(whole_dir, "runlength.csv")).read()
        rl1 = open(os.path.join(split_dir1, "runlength.csv")).read()
        rl2 = open(os.path.join(split_dir2, "runlength.csv")).read()
        rl_header, _, rl_body1 = rl1.partition("\n")
        _, _, rl_body2 = rl2.partition("\n")
        assert whole_rl == rl_header + "\n" + rl_body1 + rl_body2

    def test_constant_series_no_changepoints(self, tmp_path):
        series = MetricSeries("m", "p", np.arange(1, 101) * 3600,
                              np.zeros(100))
        path = tmp_path / "m.csv"
        pipeline.write_metric_series(str(path), series)
        out_dir = str(tmp_path / "out")
        assert main(["detect", "--metric-file", str(path),
                     "--predictive-scale", "posterior_predictive",
                     "--out-dir", out_dir]) == 0
        lines = open(os.path.join(out_dir, "changepoints.csv")).read().strip()
        assert lines == "ts,step,run_length,probability"

    def test_resume_from_version_one_state(self, tmp_path):
        rng = np.random.default_rng(21)
        values = rng.normal(0, 1, 120)
        stamps = np.arange(1, 121) * 3600
        second = tmp_path / "second.csv"
        pipeline.write_metric_series(str(second), MetricSeries(
            "m", "p", stamps[60:].copy(), values[60:].copy()))
        cfg = bocd.DetectorConfig(predictive_scale="posterior_predictive")
        _, _, mid = scalar_detect_series(MetricSeries(
            "m", "p", stamps[:60].copy(), values[:60].copy()), cfg)
        v1 = scalar_state_v1(mid, cfg)
        v2 = bocd.state_to_dict(bocd.RunLengthState(
            mid.t, mid.runs, mid.log_joint, mid.mu, mid.beta, mid.prev_gamma,
            mid.map_probability), cfg)
        outputs = []
        for name, doc in (("v1", v1), ("v2", v2)):
            state_path = tmp_path / f"{name}.json"
            state_path.write_text(json.dumps(doc))
            out_dir = tmp_path / name
            assert main(["detect", "--metric-file", str(second),
                         "--state", str(state_path),
                         "--out-dir", str(out_dir)]) == 0
            outputs.append([(out_dir / f).read_text()
                            for f in ("changepoints.csv", "runlength.csv")])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("flags, expected", [
        ([], 40.0), (["--hazard", "5"], 5.0)], ids=["from-params", "flag"])
    def test_hazard_flag_overrides_params(self, tmp_path, flags, expected):
        path = tmp_path / "m.csv"
        pipeline.write_metric_series(str(path), MetricSeries(
            "m", "p", np.arange(1, 21) * 3600, np.array(_floats(20))))
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"hazard_lambda": 40.0, "alpha": 3.0}))
        out_dir = tmp_path / "out"
        assert main(["detect", "--metric-file", str(path),
                     "--params", str(params), "--alpha", "2", *flags,
                     "--out-dir", str(out_dir)]) == 0
        config = json.loads((out_dir / pipeline.MANIFEST_NAME).read_text())[
            "config"]
        assert config["hazard_lambda"] == expected
        assert config["prior"]["alpha"] == 2.0

    def test_resume_missing_state_errors(self, tmp_path):
        series = MetricSeries("m", "p", np.arange(1, 4) * 3600,
                              np.zeros(3))
        path = tmp_path / "m.csv"
        pipeline.write_metric_series(str(path), series)
        code = main(["detect", "--metric-file", str(path),
                     "--state", str(tmp_path / "missing.json"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2


class TestManifest:
    def test_verify_ok_and_tamper_detected(self, scenario_dir, tmp_path):
        data_dir, _ = scenario_dir
        manifest = os.path.join(data_dir, pipeline.MANIFEST_NAME)
        assert main(["verify", "--manifest", manifest]) == 0
        # tamper with a copy
        import shutil
        copy_dir = str(tmp_path / "copy")
        shutil.copytree(data_dir, copy_dir)
        with open(os.path.join(copy_dir, "prices.csv"), "a") as fh:
            fh.write("tampered\n")
        assert main(["verify", "--manifest",
                     os.path.join(copy_dir, pipeline.MANIFEST_NAME)]) == 2


_FRESH_STATE = bocd.state_to_dict(bocd.init_state(bocd.DetectorConfig()),
                                   bocd.DetectorConfig())
_SCENARIO_DOC = {
    "seed": 1, "duration": DAY, "step": 300,
    "tokens": [{"symbol": "USDX"}, {"symbol": "USDY"}],
    "pool": {"balances": [5e6, 5e6], "amp": 50.0, "lp_supply": 1e7},
    "peg_prices": {"USDX": 1.0, "USDY": 1.0},
}
_EVENT = {"token": "USDX", "start": 3600, "target_price": 0.9, "ramp": 3600}
_REGISTRY_DOC = {"pools": [{"pool_id": "p", "amp": 50.0, "tokens": [
    {"symbol": "USDX"}, {"symbol": "USDY"}]}]}


def _with(doc, path, value):
    """A deep copy of ``doc`` with the entry at ``path`` set to ``value``."""
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


# Every dataclass read from a JSON document: the command that reads it, a
# valid document and the path of the dataclass's object in that document.
_PLACES = [
    (ScenarioConfig, "simulate", {**_SCENARIO_DOC, "depeg_events": [_EVENT]},
     ()),
    (DepegEvent, "simulate", {**_SCENARIO_DOC, "depeg_events": [_EVENT]},
     ("depeg_events", 0)),
    (PoolState, "simulate", _SCENARIO_DOC, ("pool",)),
    (TokenId, "simulate", _SCENARIO_DOC, ("tokens", 0)),
    (pipeline.PoolRegistryEntry, "metrics", _REGISTRY_DOC, ("pools", 0)),
    (bocd.RunLengthState, "resume", _FRESH_STATE, ()),
    (bocd.DetectorConfig, "resume", _FRESH_STATE, ("config",)),
    (bocd.NGParams, "resume", _FRESH_STATE, ("config", "prior")),
    (TunedParams, "detect", {"standardize": {"mean": 0.0, "std": 1.0}}, ()),
    (SeriesStats, "detect", {"standardize": {"mean": 0.0, "std": 1.0}},
     ("standardize",)),
]


def _wrong_value(hint):
    """A JSON value of the wrong type for a field annotated ``hint``: true
    for an integer, a number for a string, a string for anything else."""
    if typing.get_origin(hint) is types.UnionType:
        (hint,) = (a for a in typing.get_args(hint) if a is not type(None))
    return True if hint is int else 1 if hint is str else "x"


def _field_rows():
    """One wrong-typed row per field of every dataclass in ``_PLACES``."""
    for cls, command, doc, path in _PLACES:
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            bad = _with(doc, (*path, f.name), _wrong_value(hints[f.name]))
            yield pytest.param(command, json.dumps(bad),
                               id=f"{cls.__name__}.{f.name}")


_BAD_DOCUMENTS = [
    pytest.param("simulate", json.dumps({"seed": 1}),
                 id="scenario-missing-field"),
    pytest.param("simulate", '{"seed": 1, "duration"',
                 id="scenario-truncated"),
    pytest.param("simulate", "[1, 2]", id="scenario-list"),
    pytest.param("metrics", json.dumps({"pools": [{"pool_id": "p", "tokens": [
        {"symbol": "USDX"}, {"symbol": "USDY"}]}]}),
        id="registry-missing-amp"),
    pytest.param("metrics", '{"pools": [{"pool_id": "p",',
                 id="registry-truncated"),
    pytest.param("detect", '{"alpha": 2.0', id="params-truncated"),
    pytest.param("resume", '{"version": 2,', id="state-truncated"),
    pytest.param("score", '{"alpha"', id="score-params-truncated"),
    pytest.param("verify", '{"outputs": {', id="manifest-truncated"),
    pytest.param("resume", json.dumps({"version": 2}), id="state-incomplete"),
    pytest.param("resume", json.dumps({**_FRESH_STATE, "t": "x"}),
                 id="state-t-type"),
    pytest.param("resume", json.dumps({**_FRESH_STATE, "config": [1]}),
                 id="state-config-type"),
    pytest.param("metrics", json.dumps(
        _with(_REGISTRY_DOC, ("pools", 0, "amp"), "x")),
        id="registry-amp-type"),
    pytest.param("simulate", json.dumps(
        _with(_SCENARIO_DOC, ("pool", "amp"), "x")), id="scenario-amp-type"),
    pytest.param("detect", json.dumps({"standardize": {}}),
                 id="params-standardize-incomplete"),
    pytest.param("detect", json.dumps({"alpha": "x"}),
                 id="params-alpha-type"),
    pytest.param("detect", json.dumps({"standardize": {"mean": "a",
                                                       "std": 1}}),
                 id="params-mean-type"),
    pytest.param("score", json.dumps({"alpha": "x"}),
                 id="score-params-alpha-type"),
    pytest.param("simulate", json.dumps({**_SCENARIO_DOC, "seed": "x"}),
                 id="scenario-seed-type"),
    pytest.param("simulate", json.dumps({**_SCENARIO_DOC, "noise_vol": "x"}),
                 id="scenario-noise-vol-type"),
    pytest.param("simulate", json.dumps({**_SCENARIO_DOC,
                                         "n_noise_traders": "2"}),
                 id="scenario-noise-traders-type"),
    pytest.param("simulate", json.dumps({**_SCENARIO_DOC,
                                         "lp_event_prob": "0.1"}),
                 id="scenario-lp-event-prob-type"),
    pytest.param("simulate", json.dumps({**_SCENARIO_DOC,
                                         "peg_prices": [1.0, 1.0]}),
                 id="scenario-peg-prices-type"),
    pytest.param("simulate", json.dumps({**_SCENARIO_DOC,
                                         "arb_threshold": None}),
                 id="scenario-arb-threshold-null"),
    pytest.param("simulate", json.dumps(
        {**_SCENARIO_DOC, "tokens": [{"symbol": "USDX"}, {"symbol": "USDX"}],
         "peg_prices": {"USDX": 1.0}}), id="scenario-repeated-token"),
    # values that a loader cast or ignored instead of rejecting
    *(pytest.param("simulate", json.dumps(
        {**_SCENARIO_DOC, "depeg_events": [{**_EVENT, field: value}]}),
        id=f"scenario-event-{field}-{value}")
      for field, value in (("start", "x"), ("start", 3600.5),
                           ("ramp", True))),
    pytest.param("simulate", json.dumps(
        _with(_SCENARIO_DOC, ("pool", "balances"), ["1e6", 1e6])),
        id="scenario-balance-string"),
    pytest.param("simulate", json.dumps(
        _with(_SCENARIO_DOC, ("pool", "amp"), True)), id="scenario-amp-true"),
    pytest.param("metrics", json.dumps(
        _with(_REGISTRY_DOC, ("pools", 0, "amp"), True)),
        id="registry-amp-true"),
    pytest.param("metrics", json.dumps(
        _with(_REGISTRY_DOC, ("pools", 0, "fee"), "0.001")),
        id="registry-fee-string"),
    pytest.param("metrics", json.dumps(
        {"pools": _REGISTRY_DOC["pools"] * 2}), id="registry-duplicate-pool"),
    pytest.param("detect", '{"alpha": 1e400}', id="params-alpha-inf"),
    pytest.param("resume", json.dumps({**_FRESH_STATE, "version": True}),
                 id="state-version-true"),
    *(pytest.param("resume", json.dumps({**_FRESH_STATE, **arrays}),
                   id=f"state-{name}")
      for name, arrays in (
          ("misaligned", {"runs": [0, 1]}),
          ("empty", {"runs": [], "log_joint": [], "mu": [], "beta": []}),
          ("negative-run", {"runs": [-1]}),
          ("repeated-run", {"runs": [0, 0], "log_joint": [0.0, 0.0],
                            "mu": [0.0, 0.0], "beta": [1.0, 1.0]}),
          ("run-past-max", {"t": 6000, "runs": [0, 6000],
                            "log_joint": [0.0, 0.0], "mu": [0.0, 0.0],
                            "beta": [1.0, 1.0]}),
          ("run-past-t", {"runs": [0, 5], "log_joint": [0.0, 0.0],
                          "mu": [0.0, 0.0], "beta": [1.0, 1.0]}),
          ("run-true", {"runs": [True]}),
          # numpy alone would read these as [0, 1] and [0.0, 1.0]
          ("runs-with-true", {"t": 1, "runs": [0, True],
                              "log_joint": [0.0, 0.0], "mu": [0.0, 0.0],
                              "beta": [1.0, 1.0]}),
          ("log-joint-with-true", {"t": 1, "runs": [0, 1],
                                   "log_joint": [0.0, True],
                                   "mu": [0.0, 0.0], "beta": [1.0, 1.0]}),
          ("log-joint-string", {"log_joint": ["0"]}),
          ("mu-null", {"mu": [None]}),
          ("beta-nested", {"beta": [[1.0]]}),
          # json reads NaN and Infinity
          ("log-joint-nan", {"log_joint": [math.nan]}),
          ("log-joint-inf", {"log_joint": [math.inf]}),
          ("log-joint-all-neg-inf", {"log_joint": [-math.inf]}),
          ("mu-inf", {"mu": [math.inf]}),
          ("beta-zero", {"beta": [0.0]}),
          ("beta-nan", {"beta": [math.nan]}),
          ("beta-inf", {"beta": [math.inf]}))),
    pytest.param("verify", json.dumps({"outputs": [1]}),
                 id="manifest-outputs-list"),
    pytest.param("verify", json.dumps({"outputs": "x"}),
                 id="manifest-outputs-string"),
    pytest.param("verify", json.dumps({"outputs": {"a.csv": 1}}),
                 id="manifest-digest-number"),
    *_field_rows(),
]


# Every float column of every CSV file that a command reads: the command,
# the file and the column.
_FLOAT_COLUMNS = [
    *(("metrics", name, field) for name, field in (
        ("trades.csv", "amount_in"), ("trades.csv", "amount_out"),
        ("liquidity.csv", "delta"), ("liquidity.csv", "lp_token_delta"),
        ("reserves.csv", "balance"), ("reserves.csv", "lp_supply"),
        ("prices.csv", "usd_price"))),
    ("detect", "m.csv", "value"),
    ("score", "labels.csv", "deviation"),
    ("score", "cp.csv", "probability"),
    *(("report", "scores.csv", field) for field in ("F", "P", "R")),
]


def _run(tmp_path, command, text):
    """Exit code of ``command`` reading the document ``text`` as its
    JSON input, and the path it was written to."""
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    metric, labels, cps = (str(tmp_path / n) for n in
                           ("m.csv", "labels.csv", "cp.csv"))
    pipeline.write_csv(metric, pipeline.METRIC_HEADER, [(3600, 1.0)])
    pipeline.write_csv(labels, pipeline.LABELS_HEADER, [])
    pipeline.write_csv(cps, pipeline.CHANGEPOINTS_HEADER, [])
    out = str(tmp_path / "o")
    argv = {
        "simulate": ["simulate", "--config", str(bad), "--out-dir", out],
        "metrics": ["metrics", "--data-dir", str(tmp_path),
                    "--registry", str(bad), "--out-dir", out],
        "detect": ["detect", "--metric-file", metric,
                   "--params", str(bad), "--out-dir", out],
        "resume": ["detect", "--metric-file", metric,
                   "--state", str(bad), "--out-dir", out],
        "score": ["score", "--labels", labels,
                  "--changepoints", cps, "--pool", "p",
                  "--metric", "m", "--params", str(bad),
                  "--out", str(tmp_path / "scores.csv")],
        "verify": ["verify", "--manifest", str(bad)],
    }[command]
    return main(argv), bad


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert main(["simulate"]) == 1

    def test_unknown_command_is_one(self):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("argv", [
        ["detect", "--metric-file", "m.csv", "--resume"],
        ["--out-dir", "out", "verify", "--help"],
        ["--config", "scenario.json", "simulate"],
        ["--seed", "3", "verify", "--help"],
        ["--period", "60", "verify", "--help"],
    ], ids=["detect-resume", "out-dir", "config", "seed", "period"])
    def test_removed_option_is_one(self, argv, capsys):
        assert main(argv) == 1
        assert "No such option" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text", _BAD_DOCUMENTS)
    def test_validation_error_is_two(self, tmp_path, command, text, capsys):
        code, bad = _run(tmp_path, command, text)
        assert code == 2
        assert f"error: {bad}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command, text", [
        pytest.param(command, text, id=f"{command}-{k}")
        for k, (command, text) in enumerate(sorted(
            {(command, json.dumps(doc)) for _, command, doc, _ in _PLACES}))])
    def test_field_row_documents_are_valid(self, tmp_path, command, text):
        # so that each wrong-typed field row fails on its one field only
        assert _run(tmp_path, command, text)[0] == 0

    @pytest.mark.parametrize("doc, where", [
        ({**_SCENARIO_DOC, "peg_prices": {**_SCENARIO_DOC["peg_prices"],
                                          "USDZ": 1.0}}, "peg_prices"),
        ({**_SCENARIO_DOC, "depeg_events": [{**_EVENT, "token": "USDZ"}]},
         "depeg_events[0].token"),
    ], ids=["peg-prices", "depeg-event"])
    def test_unknown_token_is_named(self, tmp_path, doc, where, capsys):
        code, bad = _run(tmp_path, "simulate", json.dumps(doc))
        assert code == 2
        assert (f"error: {bad}: {where}: unknown token 'USDZ'"
                in capsys.readouterr().err)

    # pools of any scale solve on a rescaled copy, so these fail at every
    # scale: the balance product underflows to 0, and D overflows to inf
    @pytest.mark.parametrize("pool, reason", [
        ({**_SCENARIO_DOC["pool"], "balances": [1e-10, 1e-320]},
         "the balance product underflows to 0"),
        ({**_SCENARIO_DOC["pool"], "balances": [1e308, 1e308]},
         "D exceeds the float range"),
    ], ids=["scenario-underflowing-balances", "scenario-overflowing-balances"])
    def test_numerical_failure_is_three(self, tmp_path, pool, reason, capsys):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({**_SCENARIO_DOC, "pool": pool}))
        assert main(["simulate", "--config", str(config),
                     "--out-dir", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and reason in err

    @pytest.mark.parametrize("size", [1e-160, 1e-301, 1e160])
    def test_tiny_and_huge_pools_simulate(self, tmp_path, size):
        # each of these exited 3 before D was solved on a rescaled copy
        config = tmp_path / "scenario.json"
        pool = {**_SCENARIO_DOC["pool"], "balances": [size, size],
                "lp_supply": 2 * size}
        config.write_text(json.dumps({
            **_SCENARIO_DOC, "pool": pool, "n_noise_traders": 2,
            "depeg_events": [_EVENT]}))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(config),
                     "--out-dir", str(out)]) == 0
        assert len(pipeline.read_price_samples(str(out / "prices.csv"))) > 0
        with open(out / "trades.csv") as fh:
            assert len(fh.readlines()) > 100

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("command, name, field", _FLOAT_COLUMNS)
    def test_non_finite_field_is_two(self, scenario_dir, tmp_path, command,
                                     name, field, value, capsys):
        # float() reads each of these; a nan amount or an inf price went
        # through to metric files written with exit code 0
        data = tmp_path / "data"
        shutil.copytree(scenario_dir[0], data)
        for kind, file in (("metric", "m.csv"), ("labels", "labels.csv"),
                           ("changepoints", "cp.csv"),
                           ("scores", "scores.csv")):
            pipeline.write_csv(str(data / file), *FORMATS[kind][:2])
        path = data / name
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[2][rows[0].index(field)] = value
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        out = str(tmp_path / "o")
        argv = {
            "metrics": ["metrics", "--data-dir", str(data), "--out-dir", out],
            "detect": ["detect", "--metric-file", str(path),
                       "--out-dir", out],
            "score": ["score", "--labels", str(data / "labels.csv"),
                      "--changepoints", str(data / "cp.csv"), "--pool", "p",
                      "--metric", "m", "--out", str(tmp_path / "s.csv")],
            "report": ["report", "--scores", str(path), "--out-dir", out],
        }[command]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {path}:3: field {field} must be a finite number, "
            f"got {value!r}\n")

    def test_overflowing_observation_is_three(self, tmp_path, capsys):
        metric = str(tmp_path / "m.csv")
        pipeline.write_csv(metric, pipeline.METRIC_HEADER,
                           [(3600, 0.1), (7200, 1e200), (10800, 0.2)])
        # numpy warns of the overflow, and the test settings turn a
        # RuntimeWarning into an error, so this also checks it is silenced
        code = main(["detect", "--metric-file", metric,
                     "--out-dir", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err == ("numerical failure: observation at step 2: no finite "
                       "likelihood\n")

    def test_integer_amp_gives_identical_files(self, tmp_path):
        # a float field passes an integer through unchanged, so registry.json
        # echoes it, and every file computed from it must not move
        files = []
        for amp in (50, 50.0):
            config = tmp_path / f"scenario-{amp!r}.json"
            config.write_text(json.dumps({
                **_with(_SCENARIO_DOC, ("pool", "amp"), amp),
                "duration": 2 * DAY, "depeg_events": [
                    {**_EVENT, "start": DAY, "target_price": 0.8}],
                "noise_vol": 1e-3, "n_noise_traders": 4,
                "lp_event_prob": 0.05}))
            market = tmp_path / f"market-{amp!r}"
            assert main(["simulate", "--config", str(config),
                         "--out-dir", str(market)]) == 0
            assert main(["metrics", "--data-dir", str(market),
                         "--out-dir", str(market / "metrics")]) == 0
            assert main(["label", "--data-dir", str(market), "--pool-id",
                         "scenario", "--threshold", "0.01",
                         "--out", str(market / "labels.csv")]) == 0
            files.append({p.relative_to(market): p.read_bytes()
                          for p in sorted(market.rglob("*.csv"))})
        assert files[0] == files[1]
        assert len(files[0]) > 10
        assert files[0][Path("labels.csv")].count(b"\n") > 1


class TestScoreAndReport:
    def test_score_columns_exact(self, tmp_path):
        labels = tmp_path / "labels.csv"
        pipeline.write_csv(str(labels), pipeline.LABELS_HEADER,
                           [(100 * 3600, 0.07)])
        cps = tmp_path / "cp.csv"
        pipeline.write_csv(str(cps), pipeline.CHANGEPOINTS_HEADER,
                           [(98 * 3600, 98, 0, 0.9)])
        out = tmp_path / "scores.csv"
        assert main(["score", "--labels", str(labels),
                     "--changepoints", str(cps), "--pool", "pool",
                     "--metric", "netSwapFlow",
                     "--margin", str(10 * 3600),
                     "--out", str(out)]) == 0
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["pool", "metric", "F", "P", "R",
                           "alpha", "beta", "kappa"]
        assert rows[1][0] == "pool" and rows[1][1] == "netSwapFlow"
        assert float(rows[1][3]) == 1.0
        assert float(rows[1][4]) == pytest.approx(0.2)
        assert float(rows[1][2]) == pytest.approx(1 / 3)

    def test_score_append_keeps_one_header(self, tmp_path):
        labels = tmp_path / "labels.csv"
        pipeline.write_csv(str(labels), pipeline.LABELS_HEADER,
                           [(100 * 3600, 0.07)])
        cps = tmp_path / "cp.csv"
        pipeline.write_csv(str(cps), pipeline.CHANGEPOINTS_HEADER,
                           [(98 * 3600, 98, 0, 0.9)])
        out = tmp_path / "scores.csv"
        for metric in ("netSwapFlow", "pin", "sharkflow"):
            assert main(["score", "--labels", str(labels),
                         "--changepoints", str(cps), "--pool", "pool",
                         "--metric", metric, "--margin", str(10 * 3600),
                         "--out", str(out), "--append"]) == 0
        rows = pipeline.read_score_rows(str(out))
        assert [r[1] for r in rows] == ["netSwapFlow", "pin", "sharkflow"]

    def test_report_merges_scores_and_leadtime(self, tmp_path):
        scores = tmp_path / "scores.csv"
        pipeline.write_csv(str(scores), pipeline.SCORES_HEADER,
                           [("p1", "netSwapFlow", 0.5, 0.5, 0.5, 1, 1, 1)])
        prices = tmp_path / "prices.csv"
        rows = [(k * 3600, "USDX", 1.0 if k < 10 else 0.98)
                for k in range(1, 20)]
        pipeline.write_csv(str(prices), pipeline.PRICES_HEADER, rows)
        cps = tmp_path / "cp.csv"
        pipeline.write_csv(str(cps), pipeline.CHANGEPOINTS_HEADER,
                           [(8 * 3600, 8, 0, 0.9)])
        out_dir = str(tmp_path / "rep")
        assert main(["report", "--scores", str(scores), "--prices",
                     str(prices), "--token", "USDX", "--level", "0.99",
                     "--changepoints", str(cps),
                     "--out-dir", out_dir]) == 0
        table = list(csv.reader(open(os.path.join(out_dir,
                                                  "pool_results.csv"))))
        assert table[0] == pipeline.SCORES_HEADER
        lead = list(csv.reader(open(os.path.join(out_dir, "leadtime.csv"))))
        assert lead[0] == ["crossing_ts", "changepoint_ts", "lead_seconds"]
        assert lead[1] == [str(10 * 3600), str(8 * 3600), str(2 * 3600)]

    def test_no_depeg_scenario_empty_leadtime(self, tmp_path):
        prices = tmp_path / "prices.csv"
        rows = [(k * 3600, "USDX", 1.0) for k in range(1, 20)]
        pipeline.write_csv(str(prices), pipeline.PRICES_HEADER, rows)
        cps = tmp_path / "cp.csv"
        pipeline.write_csv(str(cps), pipeline.CHANGEPOINTS_HEADER, [])
        out_dir = str(tmp_path / "rep")
        assert main(["report", "--prices", str(prices), "--token", "USDX",
                     "--changepoints", str(cps), "--out-dir", out_dir]) == 0
        lead = open(os.path.join(out_dir, "leadtime.csv")).read().strip()
        assert lead == "crossing_ts,changepoint_ts,lead_seconds"


class TestLabelCommand:
    def test_label_output(self, scenario_dir, tmp_path):
        data_dir, _ = scenario_dir
        out = tmp_path / "labels.csv"
        assert main(["label", "--data-dir", data_dir, "--pool-id",
                     "scenario", "--out", str(out)]) == 0
        rows = pipeline.read_labels(str(out))
        assert len(rows) >= 1
        assert all(dev >= 0.05 for _, dev in rows)


    def test_missing_token_prices_exit_two(self, scenario_dir, tmp_path):
        data_dir, _ = scenario_dir
        bundle = tmp_path / "bundle"
        shutil.copytree(data_dir, bundle)
        prices = (bundle / "prices.csv").read_text().splitlines(keepends=True)
        (bundle / "prices.csv").write_text("".join(
            line for line in prices if ",USDY," not in line))
        assert main(["label", "--data-dir", str(bundle), "--pool-id",
                     "scenario", "--out", str(tmp_path / "labels.csv")]) == 2


    @pytest.mark.parametrize("command", ["label", "metrics"])
    @pytest.mark.parametrize("row, field, replace, problem", [
        # a second USDX row for the first snapshot, right after the first
        (1, 3, False, "repeated USDX row"),
        # the first snapshot's USDY row with another lp_supply
        (2, 4, True, "lp_supply 1.0 differs from"),
    ], ids=["repeated-token", "lp-supply"])
    def test_inconsistent_snapshot_names_line(self, scenario_dir, tmp_path,
                                              capsys, command, row, field,
                                              replace, problem):
        data_dir, _ = scenario_dir
        bundle = tmp_path / "bundle"
        shutil.copytree(data_dir, bundle)
        reserves = bundle / "reserves.csv"
        rows = [line.split(",") for line in
                reserves.read_text().splitlines()]
        assert rows[1][2] == "USDX" and rows[2][2] == "USDY"
        edited = rows[row][:field] + ["1.0"] + rows[row][field + 1:]
        rows[2:2 + replace] = [edited]  # becomes line 3 of the file
        reserves.write_text("".join(",".join(r) + "\n" for r in rows))
        argv = {"label": ["label", "--data-dir", str(bundle), "--pool-id",
                          "scenario", "--out", str(tmp_path / "labels.csv")],
                "metrics": ["metrics", "--data-dir", str(bundle),
                            "--out-dir", str(tmp_path / "m")]}[command]
        assert main(argv) == 2
        assert f"{reserves}:3: {problem}" in capsys.readouterr().err

    def test_malformed_trades_row_still_labels(self, scenario_dir, tmp_path):
        # label reads only reserves.csv and prices.csv
        data_dir, _ = scenario_dir
        bundle = tmp_path / "bundle"
        shutil.copytree(data_dir, bundle)
        with open(bundle / "trades.csv", "a", encoding="utf-8") as fh:
            fh.write("x,scenario,t,USDX,1.0,USDY,1.0\n")
        labels = []
        for where in (data_dir, bundle):
            out = tmp_path / f"labels-{len(labels)}.csv"
            assert main(["label", "--data-dir", str(where), "--pool-id",
                         "scenario", "--out", str(out)]) == 0
            labels.append(out.read_bytes())
        assert labels[0] == labels[1]


class TestSharePrice:
    @pytest.fixture(scope="class")
    def market(self):
        output = run_scenario(_scenario(seed=1234, depeg_day=9))  # 14 days
        entry = pipeline.PoolRegistryEntry(
            "scenario", "s", "0" * 40, output.config.tokens, 50.0, 0.0004)
        return output, entry

    @staticmethod
    def _outcome(stream, table, entry, share_price_series):
        try:
            sp, vp = share_price_series(stream, table, entry, 3600)
        except MissingPriceError as err:
            return str(err)
        return [(s.metric_name, s.pool_id, s.timestamps.tolist(),
                 s.values.tobytes()) for s in (sp, vp)]

    @pytest.mark.parametrize("gaps", [
        {},
        {USDY: (3 * DAY, 3 * DAY + 4 * 3600)},
        {USDX: (5 * DAY, 5 * DAY + 4 * 3600),
         USDY: (5 * DAY, 5 * DAY + 4 * 3600)},
    ], ids=["all-priced", "usdy-gap", "both-gap"])
    def test_equals_per_snapshot_loop(self, market, gaps):
        # a gap longer than twice the tolerance leaves snapshots unpriced;
        # the error names the first (snapshot, token) the loop reaches
        output, entry = market

        def outside_gap(sample):
            start, end = gaps.get(sample.token, (0, 0))
            return not start <= sample.ts < end

        samples = list(filter(outside_gap, output.prices))
        got = self._outcome(output.stream, PriceTable(samples), entry,
                            pipeline.share_price_series)
        assert got == self._outcome(output.stream,
                                    oracles.PriceTable(samples), entry,
                                    oracles.share_price_series)
        assert isinstance(got, list) == (not gaps)


class TestTuneCommand:
    def test_tune_then_detect_with_params(self, tmp_path):
        rng = np.random.default_rng(33)
        values = np.concatenate([rng.normal(0, 1, 80), rng.normal(6, 1, 20)])
        series = MetricSeries("m", "p", np.arange(1, 101) * 3600, values)
        metric_file = tmp_path / "metric.csv"
        pipeline.write_metric_series(str(metric_file), series)
        jump_ts = int(series.timestamps[80])
        labels = tmp_path / "labels.csv"
        pipeline.write_csv(str(labels), pipeline.LABELS_HEADER,
                           [(jump_ts + k * 3600, 0.06) for k in (1, 2, 3)])
        params = tmp_path / "tuned.json"
        assert main(["tune", "--metric-file", str(metric_file),
                     "--labels", str(labels), "--metric", "netSwapFlow",
                     "--exponent-lo", "-1", "--exponent-hi", "1",
                     "--predictive-scale", "posterior_predictive",
                     "--margin", str(6 * 3600),
                     "--out", str(params)]) == 0
        doc = json.load(open(params))
        assert {"alpha", "beta", "kappa", "transform",
                "standardize", "train_score"} <= set(doc)
        assert doc["train_score"]["F"] > 0
        assert doc["transform"] == "none"

        with open(tmp_path / "grid.csv", newline="") as fh:
            grid = list(csv.DictReader(fh))
        assert list(grid[0]) == ["alpha", "beta", "kappa", "F", "P", "R",
                                 "n_changepoints"]
        priors = evaluation.grid_configs(evaluation.GridSpace((-1, 1)))
        assert [(float(r["alpha"]), float(r["beta"]), float(r["kappa"]))
                for r in grid] == [(p.alpha, p.beta, p.kappa) for p in priors]
        chosen = next(r for r in grid if float(r["alpha"]) == doc["alpha"]
                      and float(r["beta"]) == doc["beta"]
                      and float(r["kappa"]) == doc["kappa"])
        assert float(chosen["F"]) == doc["train_score"]["F"]
        assert max(float(r["F"]) for r in grid) == doc["train_score"]["F"]
        assert all(int(r["n_changepoints"]) >= 0 for r in grid)

        out_dir = str(tmp_path / "det")
        assert main(["detect", "--metric-file", str(metric_file),
                     "--params", str(params), "--out-dir", out_dir]) == 0
        cps = pipeline.read_changepoints(os.path.join(out_dir,
                                                      "changepoints.csv"))
        assert any(abs(ts - jump_ts) <= 2 * 3600 for ts in cps)

    def test_tune_without_labels_fails_validation(self, tmp_path):
        series = MetricSeries("m", "p", np.arange(1, 31) * 3600,
                              np.random.default_rng(0).standard_normal(30))
        metric_file = tmp_path / "metric.csv"
        pipeline.write_metric_series(str(metric_file), series)
        labels = tmp_path / "labels.csv"
        pipeline.write_csv(str(labels), pipeline.LABELS_HEADER, [])
        code = main(["tune", "--metric-file", str(metric_file),
                     "--labels", str(labels),
                     "--exponent-lo", "0", "--exponent-hi", "0",
                     "--out", str(tmp_path / "t.json")])
        assert code == 2


def _readme_commands():
    """The ``depegwatch`` lines of the README's command-line block, as
    argument lists with continuation lines joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("## Command-line pipeline", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines
            if line.strip() and not line.lstrip().startswith("#")]


class TestReadme:
    def test_command_block_runs(self, tmp_path, monkeypatch):
        # the two scenario files the block reads, shortened to three days
        for name, seed, depeg_day in (("train", 777, 1), ("test", 1234, 2)):
            (tmp_path / f"{name}_scenario.json").write_text(json.dumps({
                **_SCENARIO_DOC, "seed": seed, "duration": 3 * DAY,
                "pool": {**_SCENARIO_DOC["pool"], "fee": 0.0004},
                "depeg_events": [{"token": "USDX", "start": depeg_day * DAY,
                                  "target_price": 0.85, "ramp": DAY // 2}],
                "noise_vol": 2e-4, "n_noise_traders": 2, "n_informed": 2,
                "informed_lead": 6 * 3600, "lp_event_prob": 0.02}))
        monkeypatch.chdir(tmp_path)
        commands = _readme_commands()
        assert len(commands) == 11
        for argv in commands:
            assert argv[0] == "depegwatch"
            assert main(argv[1:]) == 0, argv

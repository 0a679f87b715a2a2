"""File formats and orchestration for the command-line pipeline.

CSV schemas (exact headers):

* trades.csv:       ts,pool_id,trader,token_in,amount_in,token_out,amount_out
* liquidity.csv:    ts,pool_id,provider,token,delta,lp_token_delta
* reserves.csv:     ts,pool_id,token,balance,lp_supply
* prices.csv:       ts,token,usd_price
* metric files:     ts,value
* labels.csv:       ts,deviation
* changepoints.csv: ts,step,run_length,probability
* runlength.csv:    ts,step,run_length,probability
* grid.csv:         alpha,beta,kappa,F,P,R,n_changepoints
* scores.csv:       pool,metric,F,P,R,alpha,beta,kappa (also pool_results.csv)
* leadtime.csv:     crossing_ts,changepoint_ts,lead_seconds

Decimal values are written as shortest round-trip strings, so re-reading a
file reproduces the exact float bits. Every reader checks the header and
parses each column by its type; a bad row fails with a ``file:line``
message. Config files are JSON, read by ``core.from_json``; ``simulate``,
``metrics``, ``detect`` and ``report`` write a manifest recording sha256
digests of their inputs and outputs.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
from dataclasses import dataclass
from functools import cache
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import metrics, stableswap
from .core import (
    EventStream,
    LiquidityEvent,
    MetricSeries,
    MissingPriceError,
    PriceSample,
    PriceTable,
    ReserveSnapshot,
    TokenId,
    TradeEvent,
    ValidationError,
    aggregate,
    bucket_end,
    from_json,
    log_diff,
)
from .simulator import ScenarioConfig, ScenarioOutput

TRADES_HEADER = ["ts", "pool_id", "trader", "token_in", "amount_in",
                 "token_out", "amount_out"]
LIQUIDITY_HEADER = ["ts", "pool_id", "provider", "token", "delta",
                    "lp_token_delta"]
RESERVES_HEADER = ["ts", "pool_id", "token", "balance", "lp_supply"]
PRICES_HEADER = ["ts", "token", "usd_price"]
CHANGEPOINTS_HEADER = ["ts", "step", "run_length", "probability"]
LABELS_HEADER = ["ts", "deviation"]
SCORES_HEADER = ["pool", "metric", "F", "P", "R", "alpha", "beta", "kappa"]
METRIC_HEADER = ["ts", "value"]
GRID_HEADER = ["alpha", "beta", "kappa", "F", "P", "R", "n_changepoints"]
LEADTIME_HEADER = ["crossing_ts", "changepoint_ts", "lead_seconds"]

# Transform applied to a raw metric series before standardizing + detecting.
DEFAULT_TRANSFORMS = {
    "shannonsEntropy": "log_diff",
    "giniCoefficient": "diff",
}


def fmt(x: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


@dataclass(frozen=True)
class PoolRegistryEntry:
    pool_id: str
    name: str
    address: str
    tokens: tuple[TokenId, ...]
    amp: float
    fee: float = 0.0

    def __post_init__(self) -> None:
        if len(self.tokens) < 2:
            raise ValidationError(f"pool {self.pool_id} needs >= 2 tokens")


def _load_json(path: str) -> dict:
    """The JSON object in ``path``; malformed JSON fails as ``path: ...``."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise ValidationError(f"{path}: {err}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    return doc


def load_pool_registry(path: str) -> dict[str, PoolRegistryEntry]:
    pools = _load_json(path).get("pools", [])
    if isinstance(pools, list):  # name defaults to the id, address to zeros
        pools = [{"name": pool.get("pool_id"), "address": "0" * 40, **pool}
                 if isinstance(pool, dict) else pool for pool in pools]
    registry: dict[str, PoolRegistryEntry] = {}
    for entry in from_json(tuple[PoolRegistryEntry, ...], pools, path,
                           "pools"):
        if entry.pool_id in registry:
            raise ValidationError(f"{path}: duplicate pool_id {entry.pool_id}")
        registry[entry.pool_id] = entry
    if not registry:
        raise ValidationError(f"no pools defined in {path}")
    return registry


def _read(path: str, header: list[str],
          types: Sequence[type]) -> Iterator[tuple[int, list]]:
    """Yield (line number, typed row) for each data row of a CSV file.

    Line 1 must equal ``header``; each field is parsed by the matching entry
    of ``types`` (``str``, ``int`` or ``float``).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None:
            raise ValidationError(f"{path}: empty file")
        if first != header:
            raise ValidationError(
                f"{path}:1: header {first!r} does not match "
                f"schema {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValidationError(
                    f"{path}:{lineno}: expected {len(header)} fields, "
                    f"got {len(row)}")
            typed = []
            for name, kind, raw in zip(header, types, row):
                try:
                    typed.append(kind(raw))
                except ValueError:
                    what = "an integer" if kind is int else "a number"
                    raise ValidationError(
                        f"{path}:{lineno}: field {name} must be {what}, "
                        f"got {raw!r}") from None
            yield lineno, typed


def _read_events(path: str, header: list[str], types: Sequence[type],
                 period: int) -> Iterator[tuple[int, list]]:
    """``_read`` for a pool event file (ts, pool_id, ...): a row's ts may
    fall at most one period behind the previous row of the same pool."""
    last: dict[str, int] = {}
    for lineno, row in _read(path, header, types):
        ts, pool_id = row[0], row[1]
        if ts < last.get(pool_id, ts) - period:
            raise ValidationError(
                f"{path}: timestamps unsorted beyond one period at row "
                f"{lineno}")
        last[pool_id] = ts
        yield lineno, row


def _price_samples(path: str, tokens: Mapping[str, TokenId],
                   symbol: str | None = None) -> list[PriceSample]:
    samples = []
    for lineno, (ts, sym, px) in _read(path, PRICES_HEADER,
                                       (int, str, float)):
        if symbol is not None and sym != symbol:
            continue
        try:
            samples.append(PriceSample(ts, tokens.get(sym) or TokenId(sym),
                                       px))
        except ValidationError as err:
            raise ValidationError(f"{path}:{lineno}: {err}") from None
    return samples


def ingest(
    data_dir: str,
    registry: Mapping[str, PoolRegistryEntry],
    period: int = 3600,
) -> tuple[dict[str, EventStream], PriceTable]:
    """Load and validate the CSV bundle in ``data_dir``.

    Returns one EventStream per pool plus the shared price table. Rows that
    violate type invariants fail with file:line messages; a pool's rows may
    arrive up to one period out of order and are stably sorted afterwards.
    """
    token_lookup: dict[tuple[str, str], TokenId] = {}
    symbol_tokens: dict[str, TokenId] = {}
    for entry in registry.values():
        for token in entry.tokens:
            token_lookup[(entry.pool_id, token.symbol)] = token
            symbol_tokens.setdefault(token.symbol, token)

    def resolve(path: str, lineno: int, pool_id: str, symbol: str) -> TokenId:
        if pool_id not in registry:
            raise ValidationError(f"{path}:{lineno}: unknown pool_id {pool_id!r}")
        token = token_lookup.get((pool_id, symbol))
        if token is None:
            raise ValidationError(
                f"{path}:{lineno}: token {symbol!r} not in pool {pool_id!r}")
        return token

    trades: dict[str, list[TradeEvent]] = {p: [] for p in registry}
    path = os.path.join(data_dir, "trades.csv")
    if os.path.exists(path):
        for lineno, (ts, pool_id, trader, sym_in, amount_in, sym_out,
                     amount_out) in _read_events(
                path, TRADES_HEADER, (int, str, str, str, float, str, float),
                period):
            token_in = resolve(path, lineno, pool_id, sym_in)
            token_out = resolve(path, lineno, pool_id, sym_out)
            try:
                trade = TradeEvent(ts=ts, trader=trader, token_in=token_in,
                                   amount_in=amount_in, token_out=token_out,
                                   amount_out=amount_out)
            except ValidationError as err:
                raise ValidationError(f"{path}:{lineno}: {err}") from None
            trades[pool_id].append(trade)

    liquidity: dict[str, list[LiquidityEvent]] = {p: [] for p in registry}
    path = os.path.join(data_dir, "liquidity.csv")
    if os.path.exists(path):
        rows = _read_events(path, LIQUIDITY_HEADER,
                            (int, str, str, str, float, float), period)
        # One event spans consecutive rows, one row per token leg.
        for (ts, pool_id, provider, lp_delta), legs in itertools.groupby(
                rows, key=lambda item: itemgetter(0, 1, 2, 5)(item[1])):
            deltas: dict[TokenId, float] = {}
            for lineno, (_, _, _, symbol, delta, _) in legs:
                token = resolve(path, lineno, pool_id, symbol)
                if token in deltas:
                    delta += deltas[token]
                deltas[token] = delta
            liquidity[pool_id].append(LiquidityEvent(
                ts=ts, provider=provider, deltas=deltas,
                lp_token_delta=lp_delta))

    snapshots: dict[str, list[ReserveSnapshot]] = {p: [] for p in registry}
    path = os.path.join(data_dir, "reserves.csv")
    if os.path.exists(path):
        grouped: dict[tuple[str, int], tuple[float, dict]] = {}
        for lineno, (ts, pool_id, symbol, balance, lp_supply) in _read_events(
                path, RESERVES_HEADER, (int, str, str, float, float), period):
            token = resolve(path, lineno, pool_id, symbol)
            if balance < 0:
                raise ValidationError(f"{path}:{lineno}: negative balance")
            _, balances = grouped.setdefault((pool_id, ts), (lp_supply, {}))
            balances[token] = balance
        for (pool_id, ts), (lp_supply, balances) in grouped.items():
            entry = registry[pool_id]
            missing = [t.symbol for t in entry.tokens if t not in balances]
            if missing:
                raise ValidationError(
                    f"{path}: snapshot at ts {ts} for {pool_id} missing "
                    f"balances for {missing}")
            snapshots[pool_id].append(ReserveSnapshot(
                ts=ts, balances=tuple(balances[t] for t in entry.tokens),
                lp_supply=lp_supply))

    path = os.path.join(data_dir, "prices.csv")
    samples = (_price_samples(path, symbol_tokens)
               if os.path.exists(path) else [])

    streams = {}
    for pool_id, entry in registry.items():
        streams[pool_id] = EventStream(
            pool_id=pool_id, tokens=entry.tokens,
            trades=tuple(sorted(trades[pool_id], key=lambda e: e.ts)),
            liquidity=tuple(sorted(liquidity[pool_id], key=lambda e: e.ts)),
            snapshots=tuple(sorted(snapshots[pool_id], key=lambda s: s.ts)))
    return streams, PriceTable(samples)


# ---------------------------------------------------------------------------
# Writers


def write_csv(path: str, header: list[str], rows: Iterable[Sequence],
              append: bool = False) -> None:
    """Write ``rows`` under ``header``; with ``append``, add them to the end
    of an existing file instead, whose header is kept."""
    fresh = not (append and os.path.exists(path))
    with open(path, "w" if fresh else "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(header)
        for row in rows:
            writer.writerow([cell if isinstance(cell, str) else fmt(cell)
                             for cell in row])


def write_metric_series(path: str, series: MetricSeries) -> None:
    write_csv(path, METRIC_HEADER, series.points)


def read_metric_series(path: str) -> MetricSeries:
    """A metric file's points; the name and pool are not in the file, so
    both are empty."""
    ts, values = [], []
    for _, (t, v) in _read(path, METRIC_HEADER, (int, float)):
        ts.append(t)
        values.append(v)
    return MetricSeries("", "",
                        np.array(ts, dtype=np.int64), np.array(values))


def read_labels(path: str) -> list[tuple[int, float]]:
    return [(ts, deviation)
            for _, (ts, deviation) in _read(path, LABELS_HEADER, (int, float))]


def read_changepoints(path: str) -> list[int]:
    return [row[0] for _, row in _read(path, CHANGEPOINTS_HEADER,
                                       (int, int, int, float))]


def read_score_rows(path: str) -> list[list]:
    """Rows of a scores.csv; F, P and R are floats, the prior's alpha, beta
    and kappa stay text because score leaves them empty without --params."""
    return [row for _, row in _read(path, SCORES_HEADER,
                                    (str, str, float, float, float,
                                     str, str, str))]


def read_price_samples(path: str, symbol: str | None = None) -> list[PriceSample]:
    return _price_samples(path, {}, symbol)


def write_scenario(out_dir: str, output: ScenarioOutput) -> list[str]:
    """Write the CSV bundle, registry, and truth schedule for a scenario."""
    os.makedirs(out_dir, exist_ok=True)
    cfg = output.config
    stream = output.stream
    written = []

    path = os.path.join(out_dir, "trades.csv")
    write_csv(path, TRADES_HEADER,
              ((t.ts, stream.pool_id, t.trader, t.token_in.symbol, t.amount_in,
                t.token_out.symbol, t.amount_out) for t in stream.trades))
    written.append(path)

    path = os.path.join(out_dir, "liquidity.csv")
    write_csv(path, LIQUIDITY_HEADER,
              ((event.ts, stream.pool_id, event.provider, token.symbol,
                event.deltas[token], event.lp_token_delta)
               for event in stream.liquidity
               for token in cfg.tokens if token in event.deltas))
    written.append(path)

    path = os.path.join(out_dir, "reserves.csv")
    write_csv(path, RESERVES_HEADER,
              ((snap.ts, stream.pool_id, token.symbol, balance,
                snap.lp_supply)
               for snap in stream.snapshots
               for token, balance in zip(cfg.tokens, snap.balances)))
    written.append(path)

    path = os.path.join(out_dir, "prices.csv")
    write_csv(path, PRICES_HEADER,
              ((p.ts, p.token.symbol, p.usd_price) for p in output.prices))
    written.append(path)

    path = os.path.join(out_dir, "registry.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"pools": [{
            "pool_id": stream.pool_id,
            "name": "synthetic scenario pool",
            "tokens": [{"symbol": t.symbol, "address": t.address}
                       for t in cfg.tokens],
            "amp": cfg.pool.amp,
            "fee": cfg.pool.fee,
        }]}, fh, indent=2)
        fh.write("\n")
    written.append(path)

    path = os.path.join(out_dir, "truth.json")
    truth = {
        "rng": cfg.rng,
        "seed": cfg.seed,
        "truncated": output.truncated,
        "depeg_events": [{
            "token": e.token.symbol,
            "start": e.start,
            "target_price": e.target_price,
            "ramp": e.ramp,
            "recovery": e.recovery,
        } for e in cfg.depeg_events],
        "external_prices": {
            token.symbol: [[int(t), float(v)] for t, v in series.points]
            for token, series in sorted(output.external_prices.items(),
                                        key=lambda kv: kv[0].symbol)
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=2)
        fh.write("\n")
    written.append(path)
    return written


def load_scenario_config(path: str) -> ScenarioConfig:
    """The scenario at ``path``; ``peg_prices`` keys and depeg-event
    ``token`` values name scenario tokens by symbol."""
    doc = _load_json(path)
    tokens = from_json(tuple[TokenId, ...], doc.get("tokens", []), path,
                       "tokens")
    return from_json(ScenarioConfig, doc, path,
                     tokens={t.symbol: t for t in tokens})


# ---------------------------------------------------------------------------
# Metric orchestration


def compute_pool_metrics(
    stream: EventStream,
    prices: PriceTable,
    entry: PoolRegistryEntry,
    cfg: metrics.MetricConfig | None = None,
    period: int = 3600,
) -> list[tuple[str, TokenId | None, MetricSeries]]:
    """Every metric series for one pool, named exactly like the score tables."""
    cfg = cfg or metrics.MetricConfig(window=period)
    out: list[tuple[str, TokenId | None, MetricSeries]] = []
    pool_id = stream.pool_id

    if stream.snapshots:
        snap_points_entropy = [
            (s.ts, metrics.shannon_entropy(s.balances)) for s in stream.snapshots]
        out.append(("shannonsEntropy", None, aggregate(
            snap_points_entropy, period, "last",
            metric_name="shannonsEntropy", pool_id=pool_id)))
        snap_points_gini = [
            (s.ts, metrics.gini(s.balances)) for s in stream.snapshots]
        out.append(("giniCoefficient", None, aggregate(
            snap_points_gini, period, "last",
            metric_name="giniCoefficient", pool_id=pool_id)))

    for token in stream.tokens:
        series = metrics.net_swap_flow(stream.trades, token, period,
                                       pool_id=pool_id)
        out.append(("netSwapFlow", token, series))
        series = metrics.net_lp_flow(stream.liquidity, token, period,
                                     pool_id=pool_id)
        out.append(("netLPFlow", token, series))
        try:
            price_series = prices.series(token, period)
        except MissingPriceError:
            price_series = None
        if price_series is not None and len(price_series) >= 2:
            out.append(("logReturns", token,
                        log_diff(price_series).with_name("logReturns")))

    markout_name = f"{cfg.markout_horizon}.Markout"
    markout_series, _ = metrics.pool_markout_series(
        stream.trades, prices, cfg.markout_horizon, period,
        pool_id=pool_id, tolerance=cfg.price_tolerance)
    out.append((markout_name, None, markout_series.with_name(markout_name)))

    if stream.trades:
        sharks = metrics.classify_sharks(stream.trades, prices, cfg)
        for token in stream.tokens:
            out.append(("sharkflow", token, metrics.shark_flow(
                stream.trades, sharks, token, period, pool_id=pool_id)))

        # No token's buckets can span more than the whole trade stream.
        span = (bucket_end(stream.trades[-1].ts, cfg.pin_bucket)
                - bucket_end(stream.trades[0].ts, cfg.pin_bucket))
        if span // cfg.pin_bucket + 1 >= cfg.pin_window:
            # one call for all tokens, so a search round serves every window
            tokens, bucket_series = [], []
            for token in stream.tokens:
                buckets = metrics.order_count_buckets(stream.trades, token,
                                                      cfg.pin_bucket)
                if len(buckets) >= cfg.pin_window:
                    tokens.append(token)
                    bucket_series.append(buckets)
            pins = metrics.rolling_pin(bucket_series, cfg.pin_window,
                                       pool_id=pool_id)
            out.extend(("pin", token, pin) for token, pin in zip(tokens, pins))
    return out


def metric_filename(pool_id: str, metric_name: str,
                    token: TokenId | None) -> str:
    stem = f"{pool_id}__{metric_name}"
    if token is not None:
        stem += f"__{token.symbol}"
    return stem + ".csv"


def transform_series(series: MetricSeries, transform: str) -> MetricSeries:
    if transform == "none":
        return series
    if transform == "log_diff":
        return log_diff(series)
    if transform == "diff":
        return MetricSeries(series.metric_name, series.pool_id,
                            series.timestamps[1:].copy(),
                            np.diff(series.values))
    raise ValidationError(f"unknown transform {transform!r}")


def share_price_series(stream: EventStream, prices: PriceTable,
                       entry: PoolRegistryEntry,
                       period: int = 3600) -> tuple[MetricSeries, MetricSeries]:
    """(LP share price, virtual price) series from reserve snapshots."""
    if not stream.snapshots:
        raise ValidationError(f"pool {stream.pool_id} has no reserve snapshots")
    sp_points, vp_points = [], []
    for snap in stream.snapshots:
        state = stableswap.PoolState(balances=snap.balances, amp=entry.amp,
                                     fee=entry.fee, lp_supply=snap.lp_supply)
        price_map = {token: prices.at(token, snap.ts, period)
                     for token in stream.tokens}
        sp_points.append((snap.ts, stableswap.lp_share_price(
            state, stream.tokens, price_map)))
        vp_points.append((snap.ts, stableswap.virtual_price(state)))
    sp = aggregate(sp_points, period, "last", metric_name="lpSharePrice",
                   pool_id=stream.pool_id)
    vp = aggregate(vp_points, period, "last", metric_name="virtualPrice",
                   pool_id=stream.pool_id)
    return sp, vp


# ---------------------------------------------------------------------------
# Manifests

MANIFEST_NAME = "manifest.json"


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


@cache
def _tool_version() -> str:
    # importlib.metadata takes tens of milliseconds to import, so only a
    # command that writes a manifest pays for it
    from importlib import metadata
    try:
        return metadata.version("depegwatch")
    except metadata.PackageNotFoundError:  # running from a source tree
        return "0.0.0-dev"


def write_manifest(out_dir: str, command: str, inputs: Sequence[str],
                   outputs: Sequence[str], config: dict | None = None) -> str:
    manifest = {
        "tool": f"depegwatch {_tool_version()}",
        "command": command,
        "config": config or {},
        "inputs": {os.path.basename(p): sha256_file(p) for p in sorted(inputs)},
        "outputs": {os.path.basename(p): sha256_file(p) for p in sorted(outputs)},
    }
    path = os.path.join(out_dir, MANIFEST_NAME)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def verify_manifest(path: str) -> list[str]:
    """Re-hash the manifest's outputs; returns a list of mismatch messages."""
    outputs = from_json(Mapping[str, str], _load_json(path).get("outputs", {}),
                        path, "outputs")
    base = os.path.dirname(path)
    problems = []
    for name, digest in outputs.items():
        target = os.path.join(base, name)
        if not os.path.exists(target):
            problems.append(f"missing output file {name}")
        elif sha256_file(target) != digest:
            problems.append(f"digest mismatch for {name}")
    return problems

"""Shared domain types for pool event streams plus the series transforms
(bucketing, log differences, standardization) applied before detection.

All types are immutable values and all transforms are pure functions, so
everything here is safe to use from any number of threads.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

# Seconds since the Unix epoch, UTC.
Timestamp = int

DEFAULT_PERIOD = 3600


class ValidationError(ValueError):
    """Input data violates a documented invariant."""


class NumericalError(ArithmeticError):
    """An iterative numerical routine failed to converge."""


class MissingPriceError(LookupError):
    """No usable price sample for a token at the requested time."""


def _check_address(address: str) -> None:
    if len(address) != 40 or any(c not in "0123456789abcdef" for c in address):
        raise ValidationError(
            f"token address must be 40 lowercase hex chars, got {address!r}"
        )


@dataclass(frozen=True)
class TokenId:
    """A pool token: symbol plus optional on-chain address (synthetic tokens
    carry no address)."""

    symbol: str
    address: str | None = None

    def __post_init__(self) -> None:
        if not self.symbol:
            raise ValidationError("token symbol must be non-empty")
        if self.address is not None:
            _check_address(self.address)

    def __str__(self) -> str:
        return self.symbol


@dataclass(frozen=True)
class TradeEvent:
    """One swap against the pool, from the taker's perspective: the taker
    pays ``amount_in`` of ``token_in`` and receives ``amount_out`` of
    ``token_out``."""

    ts: Timestamp
    trader: str
    token_in: TokenId
    amount_in: float
    token_out: TokenId
    amount_out: float

    def __post_init__(self) -> None:
        if self.ts < 0:
            raise ValidationError("trade timestamp must be non-negative")
        if self.amount_in <= 0 or self.amount_out <= 0:
            raise ValidationError("trade amounts must be positive")
        if self.token_in == self.token_out:
            raise ValidationError("token_in and token_out must differ")


@dataclass(frozen=True)
class LiquidityEvent:
    """A deposit (positive deltas) or withdrawal (negative deltas) by one
    provider. All per-token deltas and the LP-token delta share one sign."""

    ts: Timestamp
    provider: str
    deltas: Mapping[TokenId, float]
    lp_token_delta: float

    def __post_init__(self) -> None:
        if self.ts < 0:
            raise ValidationError("liquidity timestamp must be non-negative")
        signs = {d > 0 for d in self.deltas.values() if d != 0}
        if len(signs) > 1:
            raise ValidationError("liquidity deltas must share one sign")
        if signs and self.lp_token_delta != 0:
            if (self.lp_token_delta > 0) != signs.pop():
                raise ValidationError("lp_token_delta sign must match deltas")
        object.__setattr__(self, "deltas", dict(self.deltas))


@dataclass(frozen=True)
class PriceSample:
    """A spot USD price observation for one token."""

    ts: Timestamp
    token: TokenId
    usd_price: float

    def __post_init__(self) -> None:
        if self.ts < 0:
            raise ValidationError("price timestamp must be non-negative")
        if not self.usd_price > 0:
            raise ValidationError(f"usd_price must be > 0, got {self.usd_price}")


@dataclass(frozen=True)
class ReserveSnapshot:
    """Pool balances and LP supply observed at one instant; balances are
    ordered like the pool's token list."""

    ts: Timestamp
    balances: tuple[float, ...]
    lp_supply: float


@dataclass(frozen=True)
class EventStream:
    """Everything observed for one pool, each stream sorted by timestamp."""

    pool_id: str
    tokens: tuple[TokenId, ...]
    trades: tuple[TradeEvent, ...] = ()
    liquidity: tuple[LiquidityEvent, ...] = ()
    snapshots: tuple[ReserveSnapshot, ...] = ()

    def __post_init__(self) -> None:
        for name in ("trades", "liquidity", "snapshots"):
            events = getattr(self, name)
            if any(b.ts < a.ts for a, b in zip(events, events[1:])):
                raise ValidationError(f"{name} not sorted by timestamp")


@dataclass(frozen=True)
class MetricSeries:
    """A named scalar series for one pool. Timestamps strictly increase;
    after aggregation the spacing is uniform."""

    metric_name: str
    pool_id: str
    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps, dtype=np.int64)
        vals = np.asarray(self.values, dtype=np.float64)
        if ts.shape != vals.shape or ts.ndim != 1:
            raise ValidationError("timestamps and values must be 1-d and equal length")
        if ts.size and np.any(np.diff(ts) <= 0):
            raise ValidationError("series timestamps must strictly increase")
        ts.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return int(self.timestamps.size)

    @property
    def points(self) -> list[tuple[Timestamp, float]]:
        return [(int(t), float(v)) for t, v in zip(self.timestamps, self.values)]

    def slice_between(self, start: Timestamp | None, end: Timestamp | None) -> "MetricSeries":
        """Points with start <= ts <= end (either bound optional)."""
        mask = np.ones(len(self), dtype=bool)
        if start is not None:
            mask &= self.timestamps >= start
        if end is not None:
            mask &= self.timestamps <= end
        return MetricSeries(self.metric_name, self.pool_id,
                            self.timestamps[mask].copy(), self.values[mask].copy())

    def with_name(self, metric_name: str) -> "MetricSeries":
        return MetricSeries(metric_name, self.pool_id,
                            self.timestamps.copy(), self.values.copy())


def bucket_end(ts: Timestamp, period: int) -> Timestamp:
    """End label of the period bucket containing ``ts``.

    Buckets are right-closed, ``((k-1)*period, k*period]``, labelled by their
    end. ts = 0 opens the first bucket (label = period), so event time zero
    and an already-bucketed label never collide.
    """
    if ts < 0:
        raise ValidationError("timestamps must be non-negative")
    label = -(-ts // period) * period
    return label if label > 0 else period


def aggregate(
    points: Iterable[tuple[Timestamp, float]],
    period: int = DEFAULT_PERIOD,
    mode: str = "sum",
    *,
    metric_name: str = "",
    pool_id: str = "",
) -> MetricSeries:
    """Bucket raw points into a uniformly spaced series.

    One output point per bucket covering [first, last]; empty buckets get 0
    in ``sum`` mode and the carried-forward value in ``last``/``mean`` mode.
    Empty input yields an empty series. Idempotent at a fixed period.
    """
    if period <= 0:
        raise ValidationError("period must be positive")
    if mode not in ("sum", "last", "mean"):
        raise ValidationError(f"unknown aggregation mode {mode!r}")
    pts = sorted(points, key=lambda p: p[0])
    if not pts:
        return MetricSeries(metric_name, pool_id, np.array([], dtype=np.int64),
                            np.array([], dtype=np.float64))

    first = bucket_end(pts[0][0], period)
    last = bucket_end(pts[-1][0], period)
    labels = np.arange(first, last + period, period, dtype=np.int64)
    # Python floats add as float64 does, without a numpy scalar per write
    sums, counts, lasts = ([0.0] * labels.size, [0] * labels.size,
                           [math.nan] * labels.size)
    for ts, value in pts:
        k = (bucket_end(ts, period) - first) // period
        sums[k] += value
        counts[k] += 1
        lasts[k] = value

    out = sums
    if mode != "sum":
        out, carried = [], math.nan
        for total, count, latest in zip(sums, counts, lasts):
            if count:
                carried = latest if mode == "last" else total / count
            out.append(carried)
    return MetricSeries(metric_name, pool_id, labels, out)


def log_diff(series: MetricSeries) -> MetricSeries:
    """Log differences ln(v_{k+1} / v_k); output drops the first timestamp."""
    vals = series.values
    bad = np.nonzero(vals <= 0)[0]
    if bad.size:
        ts = int(series.timestamps[bad[0]])
        raise ValidationError(
            f"log_diff requires positive values; value {vals[bad[0]]} at ts {ts}"
        )
    if len(series) < 2:
        return MetricSeries(series.metric_name, series.pool_id,
                            np.array([], dtype=np.int64), np.array([]))
    return MetricSeries(series.metric_name, series.pool_id,
                        series.timestamps[1:].copy(), np.diff(np.log(vals)))


def fit_stats(
    series: MetricSeries,
    start: Timestamp | None = None,
    end: Timestamp | None = None,
) -> tuple[float, float]:
    """(mean, population std) over the training slice [start, end]."""
    sliced = series.slice_between(start, end)
    if len(sliced) == 0:
        raise ValidationError("cannot fit statistics on an empty slice")
    return float(np.mean(sliced.values)), float(np.std(sliced.values))


def standardize(series: MetricSeries, ref_mean: float, ref_std: float) -> MetricSeries:
    """(v - ref_mean) / ref_std with statistics frozen by the caller."""
    if not ref_std > 0:
        raise ValidationError(f"ref_std must be > 0, got {ref_std}")
    return MetricSeries(series.metric_name, series.pool_id,
                        series.timestamps.copy(),
                        (series.values - ref_mean) / ref_std)


class PriceTable:
    """Price samples per token with nearest-sample lookup.

    Lookup returns the sample closest to the requested time within the
    tolerance, preferring the earlier sample on exact ties so results do not
    depend on insertion order.
    """

    def __init__(self, samples: Iterable[PriceSample]):
        by_token: dict[TokenId, list[tuple[int, float]]] = {}
        for s in samples:
            by_token.setdefault(s.token, []).append((s.ts, s.usd_price))
        # Plain lists: bisecting a numpy array boxes every probe.
        self._data: dict[TokenId, tuple[list[int], list[float]]] = {}
        for token, pairs in by_token.items():
            pairs.sort(key=lambda p: p[0])
            self._data[token] = ([int(p[0]) for p in pairs],
                                 [float(p[1]) for p in pairs])

    def lookup(self, token: TokenId, ts: Timestamp, tol: int) -> float | None:
        """Price of ``token`` nearest ``ts`` within ``tol`` seconds, else None."""
        entry = self._data.get(token)
        if entry is None:
            return None
        times, prices = entry
        i = bisect_left(times, ts)
        best: tuple[int, float] | None = None
        for j in (i - 1, i):
            if 0 <= j < len(times):
                dist = abs(times[j] - ts)
                if dist <= tol and (best is None or dist < best[0]):
                    best = (dist, prices[j])
        return None if best is None else best[1]

    def at(self, token: TokenId, ts: Timestamp, tol: int) -> float:
        """Like :meth:`lookup` but raises when no sample qualifies."""
        price = self.lookup(token, ts, tol)
        if price is None:
            raise MissingPriceError(
                f"no price for {token.symbol} within {tol}s of ts {ts}"
            )
        return price

    def series(self, token: TokenId, period: int = DEFAULT_PERIOD) -> MetricSeries:
        """Token price bucketed to a uniform grid (last sample per bucket)."""
        entry = self._data.get(token)
        if entry is None:
            raise MissingPriceError(f"no samples for token {token.symbol}")
        return aggregate(zip(*entry), period, "last",
                         metric_name="price", pool_id=token.symbol)

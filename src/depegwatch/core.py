"""Shared domain types for pool event streams plus the series transforms
(bucketing, log differences, standardization) applied before detection,
the log Gamma function that the detector and the PIN fit share, and the
typed reader of every JSON document.

All types are immutable values and all transforms are pure functions, so
everything here is safe to use from any number of threads.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import types
from bisect import bisect_left
from collections import abc
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Mapping, get_args, get_origin, get_type_hints

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
    in ``sum`` mode and the carried-forward value in ``last`` mode.
    Empty input yields an empty series. Idempotent at a fixed period.
    """
    if period <= 0:
        raise ValidationError("period must be positive")
    if mode not in ("sum", "last"):
        raise ValidationError(f"unknown aggregation mode {mode!r}")
    pts = sorted(points, key=lambda p: p[0])
    if not pts:
        return MetricSeries(metric_name, pool_id, np.array([], dtype=np.int64),
                            np.array([], dtype=np.float64))

    first = bucket_end(pts[0][0], period)
    last = bucket_end(pts[-1][0], period)
    labels = np.arange(first, last + period, period, dtype=np.int64)
    # Python floats add as float64 does, without a numpy scalar per write
    out = [0.0 if mode == "sum" else None] * labels.size
    for ts, value in pts:
        k = (bucket_end(ts, period) - first) // period
        if mode == "sum":
            out[k] += value
        else:
            out[k] = value
    if mode == "last":  # an empty bucket carries the previous value forward
        carried = math.nan
        for k, value in enumerate(out):
            if value is None:
                out[k] = carried
            else:
                carried = value
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


def fit_stats(series: MetricSeries) -> tuple[float, float]:
    """(mean, population std) of a training series."""
    if len(series) == 0:
        raise ValidationError("cannot fit statistics on an empty series")
    return float(np.mean(series.values)), float(np.std(series.values))


def standardize(series: MetricSeries, ref_mean: float, ref_std: float) -> MetricSeries:
    """(v - ref_mean) / ref_std with statistics frozen by the caller."""
    if not ref_std > 0:
        raise ValidationError(f"ref_std must be > 0, got {ref_std}")
    return MetricSeries(series.metric_name, series.pool_id,
                        series.timestamps.copy(),
                        (series.values - ref_mean) / ref_std)


# cephes lgam's coefficients: Stirling's series (A) and the rational
# approximation of log Gamma on [2, 3] (B over C, C's leading 1 implied)
_A0, _A1, _A2, _A3, _A4 = (
    8.11614167470508450300E-4, -5.95061904284301438324E-4,
    7.93650340457716943945E-4, -2.77777777730099687205E-3,
    8.33333333333331927722E-2)
_B0, _B1, _B2, _B3, _B4, _B5 = (
    -1.37825152569120859100E3, -3.88016315134637840924E4,
    -3.31612992738871184744E5, -1.16237097492762307383E6,
    -1.72173700820839662146E6, -8.53555664245765465627E5)
_C0, _C1, _C2, _C3, _C4, _C5 = (
    -3.51815701436523470549E2, -1.70642106651881159223E4,
    -2.20528590553854454839E5, -1.13933444367982507207E6,
    -2.53252307177582951285E6, -2.01889141433532773231E6)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))


def gammaln(x: float) -> float:
    """log Gamma(x) for x > 0, bit for bit ``scipy.special.gammaln``.

    A port of cephes ``lgam``, the routine behind scipy's, operation by
    operation and with the same libm ``log``: below 13 it steps x into
    [2, 3) by the recurrence Gamma(x + 1) = x Gamma(x) and adds the rational
    approximation there; from 13 it sums Stirling's series, shorter from
    1000 and cut to its leading terms past 1e8. +inf and NaN pass through.
    """
    if not math.isfinite(x):
        return x
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        return math.log(z) + x * (
            ((((_B0 * x + _B1) * x + _B2) * x + _B3) * x + _B4) * x + _B5) / (
            (((((x + _C0) * x + _C1) * x + _C2) * x + _C3) * x + _C4) * x
            + _C5)
    if x > 2.556348e305:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p
                     - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + ((((_A0 * p + _A1) * p + _A2) * p + _A3) * p + _A4) / x


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


_SCALARS = {int: "an integer", str: "a string"}
_hints = cache(get_type_hints)  # annotations are strings until resolved


def from_json(kind, value, source: str, where: str = "",
              tokens: Mapping[str, TokenId] | None = None):
    """``value``, at the dotted path ``where`` of the JSON document
    ``source``, read as the annotation ``kind``: a dataclass (fields without
    a default required, unknown keys ignored), ``X | None``, ``tuple[X,
    ...]``, ``Mapping[K, X]``, ``NDArray`` (converted whole), ``int``,
    ``float`` (finite, kept as written) or ``str``; no number is a boolean,
    and with ``tokens`` a ``TokenId`` may be a symbol. Failures raise
    ``ValidationError("<source>: ...")``."""
    try:
        return _read(kind, value, where, tokens or {})
    except ValidationError as err:
        raise ValidationError(f"{source}: {err}") from None


def _read(kind, value, where: str, tokens: Mapping[str, TokenId]):
    origin, args = get_origin(kind), get_args(kind)
    if origin is types.UnionType:  # X | None
        return None if value is None else _read(args[0], value, where, tokens)
    if kind is TokenId and tokens and isinstance(value, str):
        if value not in tokens:
            raise ValidationError(f"{where}: unknown token {value!r}")
        return tokens[value]
    if origin is np.ndarray:  # NDArray[dtype]
        dtype = np.dtype(get_args(args[1])[0])
        try:
            array = np.asarray(value)
        except ValueError:  # ragged nesting
            array = np.asarray(None)
        # numpy reads a boolean among numbers as 0 or 1, so look for one
        if array.ndim != 1 or array.dtype.kind not in (
                "iu" if dtype.kind in "iu" else "iuf") or bool in set(
                    map(type, value)):
            raise ValidationError(f"{where} must be a list of {dtype} values")
        return array.astype(dtype, copy=False)
    if dataclasses.is_dataclass(kind) or origin is abc.Mapping:
        fits, what = isinstance(value, dict), "an object"
    elif origin is tuple:
        fits, what = isinstance(value, list), "a list"
    elif kind is float:
        fits, what = (isinstance(value, (int, float))
                      and abs(value) <= sys.float_info.max), "a number"
    else:
        fits, what = isinstance(value, kind), _SCALARS[kind]
    if not fits or isinstance(value, bool):
        raise ValidationError(f"{where or 'document'} must be {what}")
    if origin is tuple:  # tuple[X, ...]
        return tuple(_read(args[0], item, f"{where}[{i}]", tokens)
                     for i, item in enumerate(value))
    if origin is abc.Mapping:
        return {_read(args[0], key, where, tokens):
                _read(args[1], item, f"{where}.{key}", tokens)
                for key, item in value.items()}
    if not dataclasses.is_dataclass(kind):
        return value
    hints, found = _hints(kind), {}
    for f in dataclasses.fields(kind):
        name = f"{where}.{f.name}" if where else f.name
        if f.name in value:
            found[f.name] = _read(hints[f.name], value[f.name], name, tokens)
        elif f.default is f.default_factory is dataclasses.MISSING:
            raise ValidationError(f"missing field {name}")
    return kind(**found)

"""Trading and composition metrics computed from pool event streams.

Covers pool-composition measures (Shannon entropy, Gini coefficient), flow
measures (net swap flow, net LP flow, shark flow), price volatility, trade
markouts, shark classification, and the probability of informed trading
(PIN) fitted by maximum likelihood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import minimize
from scipy.special import gammaln, logsumexp

from .core import (
    MetricSeries,
    NumericalError,
    MissingPriceError,
    PriceTable,
    Timestamp,
    TokenId,
    TradeEvent,
    LiquidityEvent,
    ValidationError,
    aggregate,
)


@dataclass(frozen=True)
class MetricConfig:
    """Windows and thresholds shared by the metric computations."""

    window: int = 3600              # bucket width for flow metrics, seconds
    markout_horizon: int = 300      # mark time offset, seconds
    shark_markout_horizon: int = 86400
    shark_quantile: float = 0.01    # top fraction of takers kept as sharks
    pin_bucket: int = 86400         # order-count bucket width, seconds
    pin_window: int = 7             # rolling PIN estimation window, buckets
    price_tolerance: int = 3600     # max distance to a usable mark price

    def __post_init__(self) -> None:
        for name in ("window", "markout_horizon", "shark_markout_horizon",
                     "pin_bucket", "pin_window", "price_tolerance"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if not 0 < self.shark_quantile < 1:
            raise ValidationError("shark_quantile must lie in (0, 1)")


@dataclass(frozen=True)
class PinParams:
    """Mixture parameters of the informed-trading model: event probability,
    good-news probability, and Poisson intensities for informed, uninformed
    buy, and uninformed sell order arrivals."""

    alpha: float
    theta: float
    eps_i: float
    eps_b: float
    eps_s: float

    def is_valid(self) -> bool:
        return (0 <= self.alpha <= 1 and 0 <= self.theta <= 1
                and self.eps_i >= 0 and self.eps_b >= 0 and self.eps_s >= 0)

    @property
    def pin(self) -> float:
        """Probability that any given trade is informed."""
        denom = self.eps_b + self.eps_s + self.alpha * self.eps_i
        return 0.0 if denom == 0 else self.alpha * self.eps_i / denom


def shannon_entropy(balances: Sequence[float]) -> float:
    """Entropy in bits of the normalized balance distribution."""
    arr = np.asarray(balances, dtype=float)
    if np.any(arr < 0):
        raise ValidationError("balances must be non-negative")
    total = arr.sum()
    if total <= 0:
        raise ValidationError("entropy undefined for all-zero balances")
    p = arr / total
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def gini(balances: Sequence[float]) -> float:
    """Gini coefficient of the normalized balances; 0 = perfectly balanced."""
    arr = np.sort(np.asarray(balances, dtype=float))
    n = arr.size
    if n < 2:
        raise ValidationError("gini requires at least 2 balances")
    if np.any(arr < 0):
        raise ValidationError("balances must be non-negative")
    total = arr.sum()
    if total <= 0:
        raise ValidationError("gini undefined for all-zero balances")
    p = arr / total
    i = np.arange(1, n + 1)
    return float(((2 * i - n - 1) * p).sum() / (n - 1))


def net_swap_flow(trades: Iterable[TradeEvent], token: TokenId,
                  window: int = 3600, *, pool_id: str = "") -> MetricSeries:
    """Net amount of ``token`` bought from the pool by takers per window.

    Positive means takers withdrew the token on net (pool sold it); taker
    sells push the value negative.
    """
    points = []
    for trade in trades:
        if trade.token_out == token:
            points.append((trade.ts, trade.amount_out))
        elif trade.token_in == token:
            points.append((trade.ts, -trade.amount_in))
    return aggregate(points, window, "sum",
                     metric_name="netSwapFlow", pool_id=pool_id)


def net_lp_flow(events: Iterable[LiquidityEvent], token: TokenId,
                window: int = 3600, *, pool_id: str = "") -> MetricSeries:
    """Net amount of ``token`` deposited per window; withdrawals negative."""
    points = [(e.ts, e.deltas[token]) for e in events if token in e.deltas]
    return aggregate(points, window, "sum",
                     metric_name="netLPFlow", pool_id=pool_id)


def rolling_volatility(prices: MetricSeries, window: int) -> MetricSeries:
    """Population std of trailing log returns; starts once the window fills."""
    if window < 2:
        raise ValidationError("volatility window must cover >= 2 returns")
    if np.any(prices.values <= 0):
        raise ValidationError("volatility requires positive prices")
    returns = np.diff(np.log(prices.values))
    if returns.size < window:
        return MetricSeries(prices.metric_name, prices.pool_id,
                            np.array([], dtype=np.int64), np.array([]))
    out_ts = prices.timestamps[window:]
    out = np.empty(returns.size - window + 1)
    for k in range(out.size):
        out[k] = np.std(returns[k:k + window])
    return MetricSeries(prices.metric_name, prices.pool_id, out_ts.copy(), out)


def trade_markout(trade: TradeEvent, prices: PriceTable, horizon: int,
                  side: str = "taker", *, tolerance: int = 3600) -> float:
    """Dollar markout of one trade at ``horizon`` seconds after execution.

    Taker side: amount_out * p_out(ts+h) - amount_in * p_in(ts+h); the LP
    side is its negation. Raises MissingPriceError when either mark price
    has no sample within the tolerance.
    """
    if side not in ("taker", "lp"):
        raise ValidationError(f"side must be 'taker' or 'lp', got {side!r}")
    mark = trade.ts + horizon
    p_out = prices.at(trade.token_out, mark, tolerance)
    p_in = prices.at(trade.token_in, mark, tolerance)
    taker = trade.amount_out * p_out - trade.amount_in * p_in
    return taker if side == "taker" else -taker


def pool_markout_series(trades: Iterable[TradeEvent], prices: PriceTable,
                        horizon: int = 300, window: int = 3600, *,
                        pool_id: str = "",
                        tolerance: int = 3600) -> tuple[MetricSeries, int]:
    """Per-window sums of LP-side markouts.

    Returns (series, skipped) where ``skipped`` counts trades dropped for
    missing mark prices.
    """
    points = []
    skipped = 0
    for trade in trades:
        try:
            m = trade_markout(trade, prices, horizon, "lp", tolerance=tolerance)
        except MissingPriceError:
            skipped += 1
            continue
        points.append((trade.ts, m))
    series = aggregate(points, window, "sum",
                       metric_name="markout", pool_id=pool_id)
    return series, skipped


def classify_sharks(trades: Sequence[TradeEvent], prices: PriceTable,
                    cfg: MetricConfig) -> set[str]:
    """Accounts whose cumulative taker markout reaches the top quantile.

    Cumulative markouts use the shark horizon; the cutoff is the empirical
    (1 - shark_quantile) quantile with ties at the cutoff included, so the
    result does not depend on trade ordering.
    """
    if not trades:
        raise ValidationError("shark classification needs a non-empty trade corpus")
    cumulative: dict[str, float] = {}
    for trade in trades:
        try:
            m = trade_markout(trade, prices, cfg.shark_markout_horizon, "taker",
                              tolerance=cfg.price_tolerance)
        except MissingPriceError:
            continue
        cumulative[trade.trader] = cumulative.get(trade.trader, 0.0) + m
    if not cumulative:
        return set()
    scores = np.array(sorted(cumulative.values()))
    cutoff = float(np.quantile(scores, 1.0 - cfg.shark_quantile, method="higher"))
    return {trader for trader, score in cumulative.items() if score >= cutoff}


def shark_flow(trades: Iterable[TradeEvent], sharks: set[str], token: TokenId,
               window: int = 3600, *, pool_id: str = "") -> MetricSeries:
    """Net swap flow restricted to trades by shark accounts."""
    series = net_swap_flow((t for t in trades if t.trader in sharks),
                           token, window, pool_id=pool_id)
    return series.with_name("sharkflow")


def _poisson_logpmf(k: np.ndarray, rate: float) -> np.ndarray:
    # log of rate^k e^-rate / k!, with 0^0 treated as 1
    if rate == 0:
        return np.where(k == 0, 0.0, -np.inf)
    return k * math.log(rate) - rate - gammaln(k + 1)


def pin_likelihood(buckets: Sequence[tuple[int, int]], params: PinParams) -> float:
    """Log likelihood of (buy, sell) order counts under the informed-trading
    mixture: good-news, bad-news, and no-event branches combined with
    log-sum-exp. Invalid parameters yield -inf rather than raising.
    """
    if not params.is_valid():
        return -math.inf
    b = np.array([bucket[0] for bucket in buckets], dtype=float)
    s = np.array([bucket[1] for bucket in buckets], dtype=float)
    if np.any(b < 0) or np.any(s < 0):
        raise ValidationError("order counts must be non-negative")

    with np.errstate(divide="ignore"):
        log_alpha = math.log(params.alpha) if params.alpha > 0 else -math.inf
        log_not_alpha = math.log1p(-params.alpha) if params.alpha < 1 else -math.inf
        log_theta = math.log(params.theta) if params.theta > 0 else -math.inf
        log_not_theta = math.log1p(-params.theta) if params.theta < 1 else -math.inf

    # informed buying: buys arrive at eps_i + eps_b
    good = (log_alpha + log_not_theta
            + _poisson_logpmf(b, params.eps_i + params.eps_b)
            + _poisson_logpmf(s, params.eps_s))
    # informed selling: sells arrive at eps_i + eps_s
    bad = (log_alpha + log_theta
           + _poisson_logpmf(s, params.eps_i + params.eps_s)
           + _poisson_logpmf(b, params.eps_b))
    none = (log_not_alpha
            + _poisson_logpmf(b, params.eps_b)
            + _poisson_logpmf(s, params.eps_s))
    per_bucket = logsumexp(np.stack([good, bad, none]), axis=0)
    total = float(per_bucket.sum())
    return total if math.isfinite(total) else -math.inf


def _expit(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-min(z, 700.0)))
    return math.exp(max(z, -700.0)) / (1.0 + math.exp(max(z, -700.0)))


def _pin_from_vector(u: np.ndarray) -> PinParams:
    return PinParams(alpha=_expit(u[0]), theta=_expit(u[1]),
                     eps_i=math.exp(min(u[2], 700.0)),
                     eps_b=math.exp(min(u[3], 700.0)),
                     eps_s=math.exp(min(u[4], 700.0)))


def _logit(p: float) -> float:
    p = min(max(p, 1e-9), 1 - 1e-9)
    return math.log(p / (1 - p))


def estimate_pin(buckets: Sequence[tuple[int, int]],
                 tol: float = 1e-8) -> tuple[PinParams, float]:
    """Maximum-likelihood mixture fit and the resulting PIN value.

    Derivative-free simplex search in an unconstrained space (logit for the
    probabilities, log for the rates) from 8 deterministic starts spanning
    alpha, theta in {0.1, 0.5} with rate starts from the sample means.
    """
    if len(buckets) < 2:
        raise ValidationError("PIN estimation needs at least 2 buckets")
    mean_b = max(float(np.mean([b for b, _ in buckets])), 0.1)
    mean_s = max(float(np.mean([s for _, s in buckets])), 0.1)
    rate_starts = [
        (0.5 * (mean_b + mean_s), mean_b, mean_s),
        (mean_b + mean_s, 0.5 * mean_b, 0.5 * mean_s),
    ]

    def objective(u: np.ndarray) -> float:
        return -pin_likelihood(buckets, _pin_from_vector(u))

    best: tuple[float, PinParams] | None = None
    start_lls = []
    for alpha0 in (0.1, 0.5):
        for theta0 in (0.1, 0.5):
            for eps_i0, eps_b0, eps_s0 in rate_starts:
                u0 = np.array([_logit(alpha0), _logit(theta0),
                               math.log(eps_i0), math.log(eps_b0),
                               math.log(eps_s0)])
                start_lls.append(-objective(u0))
                result = minimize(objective, u0, method="Nelder-Mead",
                                  options={"fatol": tol, "xatol": 1e-6,
                                           "maxiter": 4000, "maxfev": 6000})
                ll = -float(result.fun)
                if math.isfinite(ll) and (best is None or ll > best[0]):
                    best = (ll, _pin_from_vector(result.x))
    if best is None or best[0] < max(start_lls):
        raise NumericalError(f"PIN optimization failed; best so far {best}")
    params = best[1]
    return params, params.pin


def rolling_pin(bucket_series: Sequence[tuple[Timestamp, int, int]],
                window: int, *, pool_id: str = "") -> MetricSeries:
    """PIN re-estimated over each trailing window of order-count buckets."""
    if window < 2:
        raise ValidationError("rolling PIN window must cover >= 2 buckets")
    if len(bucket_series) < window:
        return MetricSeries("pin", pool_id, np.array([], dtype=np.int64),
                            np.array([]))
    ts_out, values = [], []
    for k in range(window - 1, len(bucket_series)):
        chunk = [(b, s) for _, b, s in bucket_series[k - window + 1:k + 1]]
        _, pin = estimate_pin(chunk)
        ts_out.append(bucket_series[k][0])
        values.append(pin)
    return MetricSeries("pin", pool_id, np.array(ts_out, dtype=np.int64),
                        np.array(values))


def order_count_buckets(trades: Iterable[TradeEvent], token: TokenId,
                        bucket: int = 86400) -> list[tuple[Timestamp, int, int]]:
    """Daily-style (ts, buys, sells) counts for one token.

    A trade with token_out == token is a buy of that token; token_in ==
    token is a sell. Buckets run without gaps from the first to the last
    trade touching the token, so a quiet bucket counts (0, 0).
    """
    legs = [t for t in trades if token in (t.token_in, t.token_out)]
    buys = aggregate(((t.ts, float(t.token_out == token)) for t in legs),
                     bucket, "sum")
    sells = aggregate(((t.ts, float(t.token_in == token)) for t in legs),
                      bucket, "sum")
    return [(int(ts), int(b), int(s)) for ts, b, s
            in zip(buys.timestamps, buys.values, sells.values)]

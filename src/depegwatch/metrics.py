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
from scipy.special import gammaln

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


def pin_likelihood(buckets: Sequence[tuple[int, int]], params: PinParams) -> float:
    """Log likelihood of (buy, sell) order counts under the informed-trading
    mixture: good-news, bad-news, and no-event branches combined with
    log-sum-exp. This is the one-point case of ``_pin_loglik``. Invalid
    parameters yield -inf rather than raising, before the counts are checked.
    """
    if not params.is_valid():
        return -math.inf
    return float(_pin_loglik(*_pin_counts([buckets]), [params])[0])


def _pin_counts(windows: Sequence[Sequence[tuple[int, int]]]):
    """The counts of the four Poisson terms (informed buys, sells, informed
    sells, buys) as a (term x window x bucket) array, and their
    ``gammaln(k + 1)``."""
    b = np.array([[bucket[0] for bucket in w] for w in windows], dtype=float)
    s = np.array([[bucket[1] for bucket in w] for w in windows], dtype=float)
    if np.any(b < 0) or np.any(s < 0):
        raise ValidationError("order counts must be non-negative")
    k = np.stack([b, s, s, b])
    return k, gammaln(k + 1)


def _pin_loglik(k: np.ndarray, log_k_fact: np.ndarray,
                params: Sequence[PinParams]) -> np.ndarray:
    """Mixture log likelihood of column i of the (term x point x bucket)
    counts from ``_pin_counts`` under ``params[i]``.

    The branch log weights, the rates and their logs are scalars per point
    from ``math``. A Poisson term is ``k * log(rate) - rate - log(k!)``, or
    0 for ``k == 0`` and -inf otherwise at a zero rate. Each branch adds its
    terms in a fixed order (the bad-news branch its sell term first), and
    the log-sum-exp over branches is scipy 1.17's: the max, the ties ``m``
    at the max, the sum ``s`` of ``exp`` of the rest, then
    ``log1p(s / m) + log(m) + max``. An invalid point, or a non-finite
    total, scores -inf.
    """
    consts = []
    for p in params:
        if not p.is_valid():  # every branch weighs 0: zero rates, -inf weights
            consts.append((-math.inf,) * 3 + (0.0,) * 8)
            continue
        rates = (p.eps_i + p.eps_b, p.eps_s, p.eps_i + p.eps_s, p.eps_b)
        log_alpha = math.log(p.alpha) if p.alpha > 0 else -math.inf
        log_not_alpha = math.log1p(-p.alpha) if p.alpha < 1 else -math.inf
        log_theta = math.log(p.theta) if p.theta > 0 else -math.inf
        log_not_theta = math.log1p(-p.theta) if p.theta < 1 else -math.inf
        consts.append((log_alpha + log_not_theta, log_alpha + log_theta,
                       log_not_alpha, *rates,  # a zero rate's log is unused
                       *[math.log(r or 1.0) for r in rates]))
    consts = np.array(consts).T[:, :, None]
    weights, rates, log_rates = consts[:3], consts[3:7], consts[7:]
    terms = np.where(rates > 0, k * log_rates - rates - log_k_fact,
                     np.where(k == 0, 0.0, -np.inf))
    # good news: informed buys + sells; bad news: informed sells + buys;
    # no event: buys + sells
    branches = weights + terms[[0, 2, 3]] + terms[[1, 3, 1]]
    top = branches.max(axis=0)
    at_top = branches == top
    ties = at_top.sum(axis=0).astype(float)
    with np.errstate(invalid="ignore"):  # -inf - -inf where all are -inf
        rest = np.where(at_top, 0.0, np.exp(branches - top)).sum(axis=0)
    total = (np.log1p(rest / ties) + np.log(ties) + top).sum(axis=1)
    return np.where(np.isfinite(total), total, -np.inf)


def _expit(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-min(z, 700.0)))
    return math.exp(max(z, -700.0)) / (1.0 + math.exp(max(z, -700.0)))


def _pin_from_vector(u: Sequence[float]) -> PinParams:
    return PinParams(alpha=_expit(u[0]), theta=_expit(u[1]),
                     eps_i=math.exp(min(u[2], 700.0)),
                     eps_b=math.exp(min(u[3], 700.0)),
                     eps_s=math.exp(min(u[4], 700.0)))


def _logit(p: float) -> float:
    p = min(max(p, 1e-9), 1 - 1e-9)
    return math.log(p / (1 - p))


def _pin_starts(buckets: Sequence[tuple[int, int]]) -> list[np.ndarray]:
    # alpha, theta in {0.1, 0.5} with rate starts from the sample means
    mean_b = max(float(np.mean([b for b, _ in buckets])), 0.1)
    mean_s = max(float(np.mean([s for _, s in buckets])), 0.1)
    rate_starts = [
        (0.5 * (mean_b + mean_s), mean_b, mean_s),
        (mean_b + mean_s, 0.5 * mean_b, 0.5 * mean_s),
    ]
    return [np.array([_logit(alpha0), _logit(theta0), math.log(eps_i0),
                      math.log(eps_b0), math.log(eps_s0)])
            for alpha0 in (0.1, 0.5) for theta0 in (0.1, 0.5)
            for eps_i0, eps_b0, eps_s0 in rate_starts]


class _MaxFevReached(Exception):
    """scipy's ``_MaxFuncCallError``: an evaluation past ``maxfev``."""


def _spend(fcalls: int, maxfev: int) -> None:
    if fcalls >= maxfev:
        raise _MaxFevReached


def _nelder_mead(x0: np.ndarray, xatol: float, fatol: float, maxiter: int,
                 maxfev: int):
    """scipy 1.17.1's ``_minimize_neldermead`` as a generator.

    Only the path ``estimate_pin`` used is kept: no bounds, no callback,
    ``adaptive=False``. The generator yields (k, n) blocks of points, is
    sent their k objective values and returns ``(x, fun)``. Points that
    scipy evaluates one after another without looking at the values (the
    initial simplex, a shrink) come as one block. Running out of ``maxfev``
    aborts the iteration where scipy's ``_MaxFuncCallError`` would, and
    every array expression is scipy's, so the iterates are bit-identical.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    N = len(x0)
    sim = np.empty((N + 1, N), dtype=x0.dtype)
    sim[0] = x0
    for k in range(N):
        y = np.array(x0, copy=True)
        if y[k] != 0:
            y[k] = (1 + 0.05) * y[k]
        else:
            y[k] = 0.00025
        sim[k + 1] = y
    fsim = np.full((N + 1,), np.inf, dtype=float)
    fcalls = min(N + 1, maxfev)
    fsim[:fcalls] = yield sim[:fcalls]
    ind = np.argsort(fsim)
    sim = np.take(sim, ind, 0)
    fsim = np.take(fsim, ind, 0)
    ind = np.argsort(fsim)
    fsim = np.take(fsim, ind, 0)
    sim = np.take(sim, ind, 0)

    iterations = 1
    while fcalls < maxfev and iterations < maxiter:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol and
                    np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break

            xbar = np.add.reduce(sim[:-1], 0) / N
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = (yield xr[None])[0]
            fcalls += 1
            doshrink = 0

            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                _spend(fcalls, maxfev)
                fxe = (yield xe[None])[0]
                fcalls += 1

                if fxe < fxr:
                    sim[-1] = xe
                    fsim[-1] = fxe
                else:
                    sim[-1] = xr
                    fsim[-1] = fxr
            else:  # fsim[0] <= fxr
                if fxr < fsim[-2]:
                    sim[-1] = xr
                    fsim[-1] = fxr
                else:  # fxr >= fsim[-2]
                    # Perform contraction
                    if fxr < fsim[-1]:
                        xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                        _spend(fcalls, maxfev)
                        fxc = (yield xc[None])[0]
                        fcalls += 1

                        if fxc <= fxr:
                            sim[-1] = xc
                            fsim[-1] = fxc
                        else:
                            doshrink = 1
                    else:
                        # Perform an inside contraction
                        xcc = (1 - psi) * xbar + psi * sim[-1]
                        _spend(fcalls, maxfev)
                        fxcc = (yield xcc[None])[0]
                        fcalls += 1

                        if fxcc < fsim[-1]:
                            sim[-1] = xcc
                            fsim[-1] = fxcc
                        else:
                            doshrink = 1

                    if doshrink:
                        # scipy moves vertex j before calling on it, so the
                        # call past maxfev raises with its vertex moved
                        n = min(N, maxfev - fcalls)
                        for j in range(1, min(N, n + 1) + 1):
                            sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        if n:
                            fsim[1:n + 1] = yield sim[1:n + 1]
                            fcalls += n
                        if n < N:
                            raise _MaxFevReached
            iterations += 1
        except _MaxFevReached:
            pass
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    return sim[0], np.min(fsim)


def _pin_objective(windows: Sequence[Sequence[tuple[int, int]]]):
    """``-pin_likelihood`` of many points at once, each on its own window.

    The returned ``f(points, owner)`` maps row i of ``points`` (a vector in
    ``_pin_from_vector``'s space) to its parameters and scores them on
    ``windows[owner[i]]`` in one ``_pin_loglik`` block. Every window has the
    same length; the counts and their ``gammaln(k + 1)`` are built once.
    """
    k, log_k_fact = _pin_counts(windows)

    def objective(points: np.ndarray, owner: np.ndarray) -> np.ndarray:
        params = [_pin_from_vector(u) for u in points.tolist()]
        return -_pin_loglik(k[:, owner], log_k_fact[:, owner], params)

    return objective


def _fit_pin(windows: Sequence[Sequence[tuple[int, int]]],
             tol: float) -> list[PinParams]:
    """Maximum-likelihood fit of each window, all searches in lockstep.

    Every start of every window is one ``_nelder_mead`` search; each round
    gathers the points that all live searches ask for into one objective
    call. A window's fit is the best finite search result, and it must be
    at least as likely as the window's best start.
    """
    objective = _pin_objective(windows)
    starts = [u0 for w in windows for u0 in _pin_starts(w)]
    owner = np.arange(len(starts)) // (len(starts) // len(windows))
    start_lls = -objective(np.array(starts), owner)
    searches = [_nelder_mead(u0, 1e-6, tol, 4000, 6000) for u0 in starts]
    blocks = [next(search) for search in searches]
    results: list = [None] * len(searches)
    live = list(range(len(searches)))
    while live:
        sizes = [len(blocks[i]) for i in live]
        f = objective(np.concatenate([blocks[i] for i in live]),
                      np.repeat(owner[live], sizes))
        still, pos = [], 0
        for i, k in zip(live, sizes):
            try:
                blocks[i] = searches[i].send(f[pos:pos + k])
                still.append(i)
            except StopIteration as done:
                results[i] = done.value
            pos += k
        live = still

    fits = []
    for w in range(len(windows)):
        best: tuple[float, PinParams] | None = None
        for i in np.flatnonzero(owner == w):
            x, fun = results[i]
            ll = -float(fun)
            if math.isfinite(ll) and (best is None or ll > best[0]):
                best = (ll, _pin_from_vector(x))
        if best is None or best[0] < max(start_lls[owner == w]):
            raise NumericalError(f"PIN optimization failed; best so far {best}")
        fits.append(best[1])
    return fits


def estimate_pin(buckets: Sequence[tuple[int, int]],
                 tol: float = 1e-8) -> tuple[PinParams, float]:
    """Maximum-likelihood mixture fit and the resulting PIN value.

    Derivative-free simplex search in an unconstrained space (logit for the
    probabilities, log for the rates) from 8 deterministic starts spanning
    alpha, theta in {0.1, 0.5} with rate starts from the sample means. The
    search is scipy's Nelder-Mead, ported so the 8 starts advance in
    lockstep with one batched likelihood call per round; the fit is
    bit-identical to running ``scipy.optimize.minimize`` on each start.
    """
    if len(buckets) < 2:
        raise ValidationError("PIN estimation needs at least 2 buckets")
    params = _fit_pin([buckets], tol)[0]
    return params, params.pin


def rolling_pin(bucket_series: Sequence[tuple[Timestamp, int, int]],
                window: int, *, pool_id: str = "") -> MetricSeries:
    """PIN re-estimated over each trailing window of order-count buckets.

    Each window is fitted as by ``estimate_pin``, but every start of every
    window advances in lockstep, so a round makes one likelihood call.
    """
    if window < 2:
        raise ValidationError("rolling PIN window must cover >= 2 buckets")
    ends = range(window - 1, len(bucket_series))
    windows = [[(b, s) for _, b, s in bucket_series[k - window + 1:k + 1]]
               for k in ends]
    pins = [params.pin for params in _fit_pin(windows, 1e-8)] if windows else []
    return MetricSeries("pin", pool_id,
                        np.array([bucket_series[k][0] for k in ends],
                                 dtype=np.int64),
                        np.array(pins))


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

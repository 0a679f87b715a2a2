"""Trading and composition metrics computed from pool event streams.

Covers pool-composition measures (Shannon entropy, Gini coefficient), flow
measures (net swap flow, net LP flow, shark flow), trade markouts, shark
classification, and the probability of informed trading (PIN) fitted by
maximum likelihood. PIN's ``log k!`` comes from
:func:`depegwatch.core.gammaln`, which equals ``scipy.special.gammaln`` bit
for bit; scipy is only a test dependency.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .core import (
    MetricSeries,
    NumericalError,
    PriceTable,
    Timestamp,
    TokenId,
    TradeEvent,
    LiquidityEvent,
    ValidationError,
    aggregate_columns,
    gammaln,
    whole_seconds,
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


class TradeColumns:
    """A trade stream as arrays, one row per trade in the given order:
    ``ts`` (int64 seconds; whole float seconds are cast), ``amount_in`` and ``amount_out``, and the codes
    ``token_in``, ``token_out`` (into ``tokens``) and ``trader`` (into
    ``traders``), both lists in order of first appearance.

    The trade metrics below take one in place of their ``trades``, so one
    stream's metrics share one walk over its trades.
    """

    def __init__(self, trades: Iterable[TradeEvent]):
        if not isinstance(trades, (list, tuple)):
            trades = list(trades)
        # one column at a time, so no per-trade row is ever built
        self.ts = whole_seconds([t.ts for t in trades], "trade timestamps")
        self.amount_in = np.array([t.amount_in for t in trades], dtype=float)
        self.amount_out = np.array([t.amount_out for t in trades], dtype=float)
        tokens: dict[TokenId, int] = {}
        traders: dict[str, int] = {}
        self.token_in = np.array([tokens.setdefault(t.token_in, len(tokens))
                                  for t in trades], dtype=np.intp)
        self.token_out = np.array([tokens.setdefault(t.token_out, len(tokens))
                                   for t in trades], dtype=np.intp)
        self.trader = np.array([traders.setdefault(t.trader, len(traders))
                                for t in trades], dtype=np.intp)
        self.tokens = list(tokens)
        self.traders = list(traders)
        self._codes = tokens

    def __len__(self) -> int:
        return int(self.ts.size)

    def code(self, token: TokenId) -> int:
        """Index of ``token`` in ``tokens``; -1 when no trade touches it."""
        return self._codes.get(token, -1)


def _columns(trades: Iterable[TradeEvent] | TradeColumns) -> TradeColumns:
    return trades if isinstance(trades, TradeColumns) else TradeColumns(trades)


def _swap_flow(trades: TradeColumns, token: TokenId, window: int,
               metric_name: str, pool_id: str,
               rows: np.ndarray | None = None) -> MetricSeries:
    """Per-window net amount of ``token`` that takers bought, over the
    trades ``rows`` selects (all by default)."""
    code = trades.code(token)
    bought = trades.token_out == code
    legs = bought | (trades.token_in == code)
    if rows is not None:
        legs &= rows
    values = np.where(bought, trades.amount_out, -trades.amount_in)
    return aggregate_columns(trades.ts[legs], values[legs], window, "sum",
                             metric_name=metric_name, pool_id=pool_id)


def net_swap_flow(trades: Iterable[TradeEvent] | TradeColumns, token: TokenId,
                  window: int = 3600, *, pool_id: str = "") -> MetricSeries:
    """Net amount of ``token`` bought from the pool by takers per window.

    Positive means takers withdrew the token on net (pool sold it); taker
    sells push the value negative.
    """
    return _swap_flow(_columns(trades), token, window, "netSwapFlow", pool_id)


def net_lp_flow(events: Iterable[LiquidityEvent], token: TokenId,
                window: int = 3600, *, pool_id: str = "") -> MetricSeries:
    """Net amount of ``token`` deposited per window; withdrawals negative."""
    legs = [e for e in events if token in e.deltas]
    return aggregate_columns([e.ts for e in legs],
                             [e.deltas[token] for e in legs], window, "sum",
                             metric_name="netLPFlow", pool_id=pool_id)


def trade_markout(trade: TradeEvent, prices: PriceTable, horizon: int,
                  side: str = "taker", *, tolerance: int = 3600) -> float:
    """Dollar markout of one trade at ``horizon`` seconds after execution.

    Taker side: amount_out * p_out(ts+h) - amount_in * p_in(ts+h); the LP
    side is its negation. The one-trade case of ``_taker_markouts``; raises
    MissingPriceError when either mark price has no sample within the
    tolerance.
    """
    if side not in ("taker", "lp"):
        raise ValidationError(f"side must be 'taker' or 'lp', got {side!r}")
    taker, priced = _taker_markouts(TradeColumns([trade]), prices, horizon,
                                    tolerance)
    if not priced[0]:  # ``at`` names the first missing mark price
        for token in (trade.token_out, trade.token_in):
            prices.at(token, trade.ts + horizon, tolerance)
    return float(taker[0]) if side == "taker" else -float(taker[0])


def _taker_markouts(trades: TradeColumns, prices: PriceTable, horizon: int,
                    tolerance: int) -> tuple[np.ndarray, np.ndarray]:
    """Every trade's taker-side ``trade_markout``, and where both of its
    mark prices exist (elsewhere the markout is NaN)."""
    marks = trades.ts + horizon
    at = np.empty((len(trades.tokens), len(trades)))
    for code, token in enumerate(trades.tokens):
        at[code] = prices.lookup_all(token, marks, tolerance)
    rows = np.arange(len(trades))
    p_out, p_in = at[trades.token_out, rows], at[trades.token_in, rows]
    priced = ~(np.isnan(p_out) | np.isnan(p_in))
    return trades.amount_out * p_out - trades.amount_in * p_in, priced


def pool_markout_series(trades: Iterable[TradeEvent] | TradeColumns,
                        prices: PriceTable, horizon: int = 300,
                        window: int = 3600, *, pool_id: str = "",
                        tolerance: int = 3600) -> tuple[MetricSeries, int]:
    """Per-window sums of LP-side markouts.

    Returns (series, skipped) where ``skipped`` counts trades dropped for
    missing mark prices.
    """
    trades = _columns(trades)
    taker, priced = _taker_markouts(trades, prices, horizon, tolerance)
    series = aggregate_columns(trades.ts[priced], -taker[priced], window,
                               metric_name="markout", pool_id=pool_id)
    return series, len(trades) - int(priced.sum())


def classify_sharks(trades: Sequence[TradeEvent] | TradeColumns,
                    prices: PriceTable, cfg: MetricConfig) -> set[str]:
    """Accounts whose cumulative taker markout reaches the top quantile.

    Cumulative markouts use the shark horizon, summed in trade order; the
    cutoff is the empirical (1 - shark_quantile) quantile with ties at the
    cutoff included, so the result does not depend on trade ordering.
    """
    if not trades:
        raise ValidationError("shark classification needs a non-empty trade corpus")
    trades = _columns(trades)
    taker, priced = _taker_markouts(trades, prices, cfg.shark_markout_horizon,
                                    cfg.price_tolerance)
    who = trades.trader[priced]
    if not who.size:
        return set()
    n = len(trades.traders)
    totals = np.bincount(who, weights=taker[priced], minlength=n)
    seen = np.bincount(who, minlength=n) > 0
    cutoff = float(np.quantile(np.sort(totals[seen]), 1.0 - cfg.shark_quantile,
                               method="higher"))
    return {trades.traders[k]
            for k in np.flatnonzero(seen & (totals >= cutoff)).tolist()}


def shark_flow(trades: Iterable[TradeEvent] | TradeColumns, sharks: set[str],
               token: TokenId, window: int = 3600, *,
               pool_id: str = "") -> MetricSeries:
    """Net swap flow restricted to trades by shark accounts."""
    trades = _columns(trades)
    is_shark = np.array([name in sharks for name in trades.traders], dtype=bool)
    return _swap_flow(trades, token, window, "sharkflow", pool_id,
                      is_shark[trades.trader])


@lru_cache(maxsize=4096)
def _log_factorial(k: float) -> float:
    return gammaln(k + 1.0)


def _pin_counts(windows: Sequence[Sequence[tuple[int, int]]]) -> np.ndarray:
    """The (8 x window x bucket) count block of ``_pin_loglik``: rows 0-3
    hold the counts of its four Poisson terms (buys, sells, buys, sells)
    and rows 4-7 ``gammaln(k + 1)`` of rows 0-3."""
    b = np.array([[bucket[0] for bucket in w] for w in windows], dtype=float)
    s = np.array([[bucket[1] for bucket in w] for w in windows], dtype=float)
    if np.any(b < 0) or np.any(s < 0):
        raise ValidationError("order counts must be non-negative")
    log_b, log_s = (np.fromiter(map(_log_factorial, k.ravel().tolist()),
                                float, k.size).reshape(k.shape)
                    for k in (b, s))
    return np.stack([b, s, b, s, log_b, log_s, log_b, log_s])


# every branch of an invalid point weighs -inf, with zero rates
_INVALID_CONSTS = (-math.inf,) * 3 + (0.0,) * 8


def _pin_consts(alpha: float, theta: float, eps_i: float, eps_b: float,
                eps_s: float) -> tuple[float, ...]:
    """The 11 constants of one point of ``_pin_loglik``: the good-news,
    bad-news and no-event log weights, the rates of the four term rows of
    ``_pin_counts`` (``eps_i + eps_b``, ``eps_i + eps_s``, ``eps_b``,
    ``eps_s``) and their logs. An invalid point (a NaN included) gets
    ``_INVALID_CONSTS``."""
    if not (0 <= alpha <= 1 and 0 <= theta <= 1
            and eps_i >= 0 and eps_b >= 0 and eps_s >= 0):
        return _INVALID_CONSTS
    log_alpha = math.log(alpha) if alpha > 0 else -math.inf
    log_theta = math.log(theta) if theta > 0 else -math.inf
    log_not_theta = math.log1p(-theta) if theta < 1 else -math.inf
    rate_b, rate_s = eps_i + eps_b, eps_i + eps_s  # on good, bad news
    return (log_alpha + log_not_theta, log_alpha + log_theta,
            math.log1p(-alpha) if alpha < 1 else -math.inf,
            rate_b, rate_s, eps_b, eps_s,  # a zero rate's log is unused
            math.log(rate_b or 1.0), math.log(rate_s or 1.0),
            math.log(eps_b or 1.0), math.log(eps_s or 1.0))


_FLOOR = -sys.float_info.max


def _pin_loglik(block: np.ndarray,
                consts: Sequence[tuple[float, ...]]) -> np.ndarray:
    """Mixture log likelihood of column i of the (8 x point x bucket)
    block from ``_pin_counts`` under the ``_pin_consts`` tuple
    ``consts[i]``.

    A Poisson term is ``k * log(rate) - rate - log(k!)``; only when some
    rate is 0 do that rate's terms become 0 for ``k == 0`` and -inf
    otherwise. A branch is its log weight plus two of the four terms: good
    news terms 0 and 3, bad news 1 and 2, no event 2 and 3. The log-sum-exp
    over branches is scipy 1.17's: the max, the ties ``m`` at the max, the
    sum ``s`` of ``exp`` of the rest, then ``log1p(s / m) + log(m) + max``.
    An invalid point, or a non-finite total, scores -inf.
    """
    consts = np.array(consts, dtype=float).T[:, :, None]
    weights, rates, log_rates = consts[:3], consts[3:7], consts[7:]
    k = block[:4]
    terms = k * log_rates - rates - block[4:]
    if not rates.all():
        terms = np.where(rates > 0, terms, np.where(k == 0, 0.0, -np.inf))
    branches = weights + terms[:3] + terms[[3, 2, 3]]
    top = branches.max(axis=0)
    at_top = branches == top
    ties = at_top.sum(axis=0, dtype=float)
    # where every branch is -inf, all are at the top and none is summed;
    # the floor only keeps -inf - -inf out of the subtraction
    rest = np.where(at_top, 0.0,
                    np.exp(branches - np.maximum(top, _FLOOR))).sum(axis=0)
    total = (np.log1p(rest / ties) + np.log(ties) + top).sum(axis=1)
    return np.where(np.isfinite(total), total, -np.inf)


def _expit(z: float) -> float:
    # -min(z, 700.0) and max(z, -700.0) as conditionals, NaN passing through
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-700.0 if z > 700.0 else -z))
    e = math.exp(-700.0 if z < -700.0 else z)
    return e / (1.0 + e)


def _rate(v: float) -> float:
    return math.exp(700.0 if v > 700.0 else v)  # min(v, 700.0), NaN kept


def _pin_from_vector(u: Sequence[float]) -> PinParams:
    return PinParams(alpha=_expit(u[0]), theta=_expit(u[1]), eps_i=_rate(u[2]),
                     eps_b=_rate(u[3]), eps_s=_rate(u[4]))


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


def _nelder_mead(f, x0: np.ndarray, xatol: float, fatol: float,
                 maxiter: int, maxfev: int) -> tuple[np.ndarray, np.ndarray]:
    """scipy 1.17.1's ``_minimize_neldermead`` from every row of ``x0``.

    Only the path ``estimate_pin`` uses is kept: no bounds, no callback,
    ``adaptive=False``. Row s of the (search x N) ``x0`` starts search s;
    the searches still running share one (search x N+1 x N) simplex array
    with their own ``fcalls`` and ``iterations`` counters, and a search
    leaves it when it stops. ``f(points, rows)`` scores point i for search
    ``rows[i]``; a round makes at most three calls (the reflections, the
    second points and, only when some search shrinks, the shrunk vertices)
    and none with zero points. Every array expression and every ``maxfev``
    cut is scipy's, so row s of the returned ``(x, fun)`` is bit-identical
    to ``scipy.optimize.minimize(method="Nelder-Mead")`` from ``x0[s]``.
    """
    S, N = x0.shape
    sim = np.repeat(x0[:, None, :], N + 1, axis=1)
    k = np.arange(N)
    y = sim[:, k + 1, k]
    sim[:, k + 1, k] = np.where(y != 0, (1 + 0.05) * y, 0.00025)
    fsim = np.full((S, N + 1), np.inf)
    n0 = min(N + 1, maxfev)
    if n0:
        fsim[:, :n0] = f(sim[:, :n0].reshape(-1, N),
                         np.repeat(np.arange(S), n0)).reshape(S, n0)

    def sort(s, fs):
        at = np.arange(len(fs))[:, None]
        ind = np.argsort(fs, axis=1)
        return s[at, ind], fs[at, ind]

    # s, fs, fcalls and iterations hold the searches still running, rows.
    # A search that stops keeps the simplex sorted at the end of its last
    # round: scipy's final sort leaves a sorted simplex as it is.
    s, fs = sort(*sort(sim, fsim))  # scipy sorts the initial simplex twice
    rows = np.arange(S)
    fcalls = np.full(S, n0)
    iterations = np.ones(S, dtype=int)
    x, fun = np.empty((S, N)), np.empty(S)
    while True:
        done = ((fcalls >= maxfev) | (iterations >= maxiter)
                | ((np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) <= xatol)
                   # max |fs[0] - fs[k]| of the sorted values, bit for bit
                   & (fs[:, -1] - fs[:, 0] <= fatol)))
        if done.any():
            x[rows[done]], fun[rows[done]] = s[done, 0], fs[done].min(axis=1)
            go = ~done
            rows, s, fs = rows[go], s[go], fs[go]
            fcalls, iterations = fcalls[go], iterations[go]
        if not rows.size:
            return x, fun

        # (1 + c) * xbar - c * worst: reflect c = 1, expand 2, contract
        # outside 0.5, inside -0.5 (1 * a is a, and a - (-b) is a + b, bit
        # for bit)
        xbar = np.add.reduce(s[:, :-1], 1) / N
        xr = 2 * xbar - s[:, -1]
        fxr = f(xr, rows)
        fcalls += 1
        expand = fxr < fs[:, 0]
        accept = ~expand & (fxr < fs[:, -2])
        outside = ~expand & ~accept & (fxr < fs[:, -1])
        c = np.where(expand, 2.0, np.where(outside, 0.5, -0.5))[:, None]
        x2 = (1 + c) * xbar - c * s[:, -1]
        second = ~accept & (fcalls < maxfev)
        f2 = np.full(rows.size, np.nan)
        if second.any():
            f2[second] = f(x2[second], rows[second])
            fcalls[second] += 1
        keep_2 = second & np.where(expand, f2 < fxr, np.where(
            outside, f2 <= fxr, f2 < fs[:, -1]))
        keep_r = accept | (second & expand & ~keep_2)
        shrink = second & ~expand & ~keep_2
        s[keep_r, -1], fs[keep_r, -1] = xr[keep_r], fxr[keep_r]
        s[keep_2, -1], fs[keep_2, -1] = x2[keep_2], f2[keep_2]

        if shrink.any():
            # scipy moves vertex j before calling on it, so the call past
            # maxfev aborts with its vertex moved
            n = np.minimum(N, maxfev - fcalls)
            moved = shrink[:, None] & (k <= n[:, None])
            s[:, 1:] = np.where(moved[:, :, None],
                                s[:, :1] + 0.5 * (s[:, 1:] - s[:, :1]),
                                s[:, 1:])
            scored = moved & (k < n[:, None])
            if scored.any():
                fs[:, 1:][scored] = f(s[:, 1:][scored],
                                      np.repeat(rows, scored.sum(axis=1)))
                fcalls += scored.sum(axis=1)
        # scipy does not count a round cut short by maxfev, but such a
        # round leaves fcalls == maxfev, so the search stops either way
        iterations += 1
        s, fs = sort(s, fs)


def _pin_objective(windows: Sequence[Sequence[tuple[int, int]]]):
    """Negative log likelihood of many PIN points, each on its own window.

    The returned ``f(points, owner)`` maps row i of ``points`` (a vector in
    ``_pin_from_vector``'s space) straight to its ``_pin_consts``, with the
    same ``math`` calls as ``_pin_from_vector`` and no ``PinParams``, and
    scores it on ``windows[owner[i]]`` in one ``_pin_loglik`` block. Every
    window has the same length; the block of counts is built once.
    """
    block = _pin_counts(windows)

    def objective(points: np.ndarray, owner: np.ndarray) -> np.ndarray:
        consts = [_pin_consts(_expit(a), _expit(t), _rate(i), _rate(b),
                              _rate(s)) for a, t, i, b, s in points.tolist()]
        return -_pin_loglik(block[:, owner], consts)

    return objective


def _fit_pin(windows: Sequence[Sequence[tuple[int, int]]],
             tol: float) -> list[PinParams]:
    """Maximum-likelihood fit of each window, every start of every window
    in one ``_nelder_mead`` call.

    A window's fit is the best finite search result, and it must be at
    least as likely as the window's best start.
    """
    objective = _pin_objective(windows)
    starts = np.array([u0 for w in windows for u0 in _pin_starts(w)])
    owner = np.arange(len(starts)) // (len(starts) // len(windows))
    start_lls = -objective(starts, owner)
    x, fun = _nelder_mead(lambda points, rows: objective(points, owner[rows]),
                          starts, 1e-6, tol, 4000, 6000)
    fits = []
    for w in range(len(windows)):
        best: tuple[float, PinParams] | None = None
        for i in np.flatnonzero(owner == w):
            ll = -float(fun[i])
            if math.isfinite(ll) and (best is None or ll > best[0]):
                best = (ll, _pin_from_vector(x[i]))
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
    search is scipy's Nelder-Mead, ported to run all 8 starts as one array
    program; the fit is bit-identical to running
    ``scipy.optimize.minimize`` on each start.
    """
    if len(buckets) < 2:
        raise ValidationError("PIN estimation needs at least 2 buckets")
    params = _fit_pin([buckets], tol)[0]
    return params, params.pin


def rolling_pin(bucket_series: Sequence[Sequence[tuple[Timestamp, int, int]]],
                window: int, *, pool_id: str = "") -> list[MetricSeries]:
    """PIN re-estimated over each trailing window of each order-count
    bucket series; one ``MetricSeries`` per input series.

    Each window is fitted as by ``estimate_pin``, but every start of every
    window of every series runs in one search, so a search round makes at
    most three likelihood calls for all of them.
    """
    if window < 2:
        raise ValidationError("rolling PIN window must cover >= 2 buckets")
    ends = [range(window - 1, len(series)) for series in bucket_series]
    windows = [[(b, s) for _, b, s in series[k - window + 1:k + 1]]
               for series, series_ends in zip(bucket_series, ends)
               for k in series_ends]
    pins = np.array([params.pin for params in _fit_pin(windows, 1e-8)]
                    if windows else [])
    per_series = np.split(pins, np.cumsum([len(e) for e in ends])[:-1])
    return [MetricSeries("pin", pool_id,
                         np.array([series[k][0] for k in series_ends],
                                  dtype=np.int64), values)
            for series, series_ends, values
            in zip(bucket_series, ends, per_series)]


def order_count_buckets(trades: Iterable[TradeEvent] | TradeColumns,
                        token: TokenId, bucket: int = 86400
                        ) -> list[tuple[Timestamp, int, int]]:
    """Daily-style (ts, buys, sells) counts for one token.

    A trade with token_out == token is a buy of that token; token_in ==
    token is a sell. Buckets run without gaps from the first to the last
    trade touching the token, so a quiet bucket counts (0, 0).
    """
    trades = _columns(trades)
    code = trades.code(token)
    bought = trades.token_out == code
    legs = bought | (trades.token_in == code)
    ts, buy = trades.ts[legs], bought[legs]
    buys = aggregate_columns(ts, buy.astype(float), bucket)
    sells = aggregate_columns(ts, (~buy).astype(float), bucket)
    return [(ts, int(b), int(s)) for ts, b, s in zip(
        buys.timestamps.tolist(), buys.values.tolist(), sells.values.tolist())]

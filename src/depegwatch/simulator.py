"""Synthetic StableSwap market scenarios with planted, labelled depegs.

A scenario evolves an external price path per token (random walk around the
peg, with deterministic log-linear ramps during depeg events) and three
agent populations acting on the pool every step: informed sellers who dump
the soon-depegging token ahead of the event, arbitrageurs who close gaps
between pool and external prices, and small two-sided noise traders.
Occasional proportional deposits/withdrawals exercise the liquidity stream.

All randomness comes from counter-based Philox streams keyed by the scenario
seed, so identical configs reproduce byte-identical outputs on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .core import (
    EventStream,
    LiquidityEvent,
    MetricSeries,
    PriceSample,
    ReserveSnapshot,
    Timestamp,
    TokenId,
    TradeEvent,
    ValidationError,
)
from .stableswap import (
    PoolState,
    _d,
    _price_after,
    _slope,
    _step,
    _swap,
    marginal_price,
)

_U64 = (1 << 64) - 1
_AGENT_STREAM = 1 << 32  # keeps agent draws clear of per-token price streams


@dataclass(frozen=True)
class DepegEvent:
    """One planted depeg: ramp from peg to ``target_price`` over ``ramp``
    seconds starting at ``start``; ramp symmetrically back over ``recovery``
    seconds when set, else the depeg is permanent."""

    token: TokenId
    start: Timestamp
    target_price: float
    ramp: int
    recovery: int | None = None

    def __post_init__(self) -> None:
        if self.ramp <= 0:
            raise ValidationError("depeg ramp must be positive")
        if not self.target_price > 0:
            raise ValidationError("depeg target price must be positive")
        if self.recovery is not None and self.recovery <= 0:
            raise ValidationError("recovery must be positive when given")


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    duration: int
    step: int
    tokens: tuple[TokenId, ...]
    pool: PoolState
    peg_prices: Mapping[TokenId, float]
    depeg_events: tuple[DepegEvent, ...] = ()
    noise_vol: float = 0.0          # per-step lognormal sigma of external price
    arb_threshold: float = 0.002    # min relative price gap before arbs trade
    n_noise_traders: int = 0
    n_informed: int = 0
    informed_lead: int = 0          # informed selling starts this early
    informed_fraction: float = 0.005  # of pool balance sold per step
    noise_fraction: float = 1e-4
    lp_event_prob: float = 0.0
    lp_fraction: float = 0.005
    snapshot_period: int = 3600
    rng: str = "philox"

    def __post_init__(self) -> None:
        if self.step <= 0 or self.duration <= 0:
            raise ValidationError("step and duration must be positive")
        if self.duration % self.step != 0:
            raise ValidationError("step must divide duration")
        if self.informed_lead < 0:
            raise ValidationError("informed_lead must be non-negative")
        if len(self.tokens) != self.pool.n:
            raise ValidationError("token list must match pool balances")
        if len(set(self.tokens)) != len(self.tokens):
            raise ValidationError("token list must not repeat a token")
        for token in self.tokens:
            if token not in self.peg_prices:
                raise ValidationError(f"missing peg price for {token.symbol}")
        for event in self.depeg_events:
            if event.token not in self.tokens:
                raise ValidationError(
                    f"depeg event token {event.token.symbol} not in pool")
        if self.rng != "philox":
            raise ValidationError("only the 'philox' counter-based rng is supported")
        object.__setattr__(self, "peg_prices", dict(self.peg_prices))


@dataclass(frozen=True)
class ScenarioOutput:
    stream: EventStream
    prices: tuple[PriceSample, ...]
    external_prices: dict[TokenId, MetricSeries]
    config: ScenarioConfig
    final_pool: PoolState
    truncated: bool = False


def _stream_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed & _U64, stream & _U64]))


def _level_at(cfg: ScenarioConfig, token: TokenId, t: int) -> float:
    """Deterministic price level: peg outside events, log-linear inside."""
    log_level = math.log(cfg.peg_prices[token])
    for event in cfg.depeg_events:
        if event.token != token or t < event.start:
            continue
        log_peg = math.log(cfg.peg_prices[token])
        log_target = math.log(event.target_price)
        if t < event.start + event.ramp:
            frac = (t - event.start) / event.ramp
            log_level = log_peg + (log_target - log_peg) * frac
        elif event.recovery is None:
            log_level = log_target
        elif t < event.start + event.ramp + event.recovery:
            frac = (t - event.start - event.ramp) / event.recovery
            log_level = log_target + (log_peg - log_target) * frac
        else:
            log_level = log_peg
    return math.exp(log_level)


def external_price_path(cfg: ScenarioConfig, token: TokenId) -> MetricSeries:
    """Per-step external price: geometric random walk around the level path.

    The same seed always yields the same path; each token draws from its own
    Philox stream so paths do not depend on evaluation order.
    """
    idx = cfg.tokens.index(token)
    rng = _stream_rng(cfg.seed, idx)
    n_steps = cfg.duration // cfg.step
    times = np.arange(0, cfg.duration + cfg.step, cfg.step, dtype=np.int64)
    shocks = rng.standard_normal(n_steps) * cfg.noise_vol if cfg.noise_vol > 0 \
        else np.zeros(n_steps)
    walk = np.concatenate(([0.0], np.cumsum(shocks)))
    return MetricSeries("externalPrice", token.symbol, times,
                        _levels(cfg, token, times) * np.exp(walk))


def _levels(cfg: ScenarioConfig, token: TokenId,
            times: np.ndarray) -> np.ndarray:
    """:func:`_level_at` at each of the ascending ``times``: per step inside
    an event's ramp or recovery, and once for each stretch between event
    boundaries outside them, where the level is one constant."""
    moving = []  # the [begin, end) spans of the token's ramps and recoveries
    for event in cfg.depeg_events:
        if event.token == token:
            ramp_end = event.start + event.ramp
            moving.append((event.start, ramp_end))
            if event.recovery is not None:
                moving.append((ramp_end, ramp_end + event.recovery))
    edges = [edge for span in moving for edge in span]
    cuts = sorted({0, times.size, *np.searchsorted(times, edges).tolist()})
    levels = np.empty(times.size)
    for a, b in zip(cuts, cuts[1:]):
        first = int(times[a])
        if any(begin <= first < end for begin, end in moving):
            levels[a:b] = [_level_at(cfg, token, t)
                           for t in times[a:b].tolist()]
        else:
            levels[a:b] = _level_at(cfg, token, first)
    return levels


def _informed_targets(cfg: ScenarioConfig, t: int) -> list[TokenId]:
    out = []
    for event in cfg.depeg_events:
        if event.start - cfg.informed_lead <= t < event.start:
            out.append(event.token)
    return out


def _arb_size(balances: Sequence[float], amp: float, fee: float, d: float,
              i: int, j: int, target_ratio: float) -> float:
    """Largest sell of token i that keeps the pool's marginal price of i at
    or above the external ratio (bisection; 0 when even a dust trade
    overshoots). ``d`` is the invariant of ``balances``; each trial is
    priced on its post-trade balances."""
    lo, hi = 0.0, 0.45 * balances[i]
    if _price_after(balances, amp, fee, d, i, j, hi) > target_ratio:
        return hi
    for _ in range(24):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _price_after(balances, amp, fee, d, i, j, mid) > target_ratio:
            lo = mid
        else:
            hi = mid
    return lo


def run_scenario(cfg: ScenarioConfig) -> ScenarioOutput:
    """Simulate the full scenario and return streams the pipeline can ingest.

    The pool steps as a balance list, its LP supply and its D, which is
    solved when first needed after a balance changes. Every swap and LP
    event makes the checks a ``PoolState`` would, so the outputs equal
    stepping one ``PoolState`` per trade, bit for bit; only ``final_pool``
    is built.
    """
    paths = {token: external_price_path(cfg, token) for token in cfg.tokens}
    ext_values = [paths[token].values.tolist() for token in cfg.tokens]
    rng = _stream_rng(cfg.seed, _AGENT_STREAM)
    amp, fee = cfg.pool.amp, cfg.pool.fee
    balances, lp_supply = list(cfg.pool.balances), cfg.pool.lp_supply
    d = None  # D of balances, or None until solved

    trades: list[TradeEvent] = []
    liquidity: list[LiquidityEvent] = []
    snapshots: list[ReserveSnapshot] = []
    price_samples: list[PriceSample] = []
    truncated = False

    for token, values in zip(cfg.tokens, ext_values):
        price_samples.append(PriceSample(0, token, values[0]))

    n_tokens = len(cfg.tokens)
    min_balance = 1e-9 * max(cfg.pool.balances)
    # one name per agent, shared by all of its trades
    informed = [f"informed_{a}" for a in range(cfg.n_informed)]
    noise = [f"noise_{a}" for a in range(cfg.n_noise_traders)]

    def pool_d() -> float:
        nonlocal d
        if d is None:
            d = _d(balances, amp)
        return d

    def try_swap(i: int, j: int, dx: float, trader: str) -> None:
        nonlocal balances, d
        if dx <= 0:
            return
        after, dy = _swap(balances, amp, fee, pool_d(), i, j, dx)
        if dy <= 0 or after[j] <= min_balance:
            raise ValidationError("pool drained")
        balances, d = after, None
        trades.append(TradeEvent(t, trader, cfg.tokens[i], dx,
                                 cfg.tokens[j], dy))

    n_steps = cfg.duration // cfg.step
    for k in range(1, n_steps + 1):
        t = k * cfg.step
        ext = [values[k] for values in ext_values]
        try:
            # Informed agents unload the soon-depegging token into the pool.
            for token in _informed_targets(cfg, t):
                if cfg.n_informed <= 0:
                    break
                i = cfg.tokens.index(token)
                j = 1 if i == 0 else 0  # the first other token
                per_agent = cfg.informed_fraction * balances[i] / cfg.n_informed
                for trader in informed:
                    try_swap(i, j, per_agent, trader)

            # Arbitrageurs close pool-vs-external price gaps above threshold.
            for i in range(n_tokens):
                for j in range(n_tokens):
                    if i == j:
                        continue
                    ratio = ext[i] / ext[j]
                    h = _step(balances[i])
                    d_now = pool_d()
                    price = _slope(balances, amp, d_now, i, j, h)
                    if price / ratio - 1.0 > cfg.arb_threshold:
                        dx = _arb_size(balances, amp, fee, d_now, i, j, ratio)
                        try_swap(i, j, dx, "arb")

            # Noise traders: small random two-sided swaps.
            for trader in noise:
                i = int(rng.integers(0, n_tokens))
                j = int(rng.integers(0, n_tokens - 1))
                if j >= i:
                    j += 1
                size = cfg.noise_fraction * balances[i] * \
                    math.exp(0.5 * rng.standard_normal())
                try_swap(i, j, size, trader)

            # Occasional proportional deposit or withdrawal.
            if cfg.lp_event_prob > 0 and rng.random() < cfg.lp_event_prob:
                frac = cfg.lp_fraction * (0.5 + rng.random())
                sign = 1.0 if rng.random() < 0.5 else -1.0
                deltas = {token: sign * frac * bal
                          for token, bal in zip(cfg.tokens, balances)}
                lp_delta = sign * frac * lp_supply
                after = [b + deltas[token]
                         for token, b in zip(cfg.tokens, balances)]
                lp_after = lp_supply + lp_delta
                if any(b < 0 for b in after):
                    raise ValidationError("balances must be non-negative")
                if lp_after < 0:
                    raise ValidationError("lp_supply must be non-negative")
                balances, lp_supply, d = after, lp_after, None
                liquidity.append(LiquidityEvent(t, "lp_0", deltas, lp_delta))
        except ValidationError:
            truncated = True

        for token, price in zip(cfg.tokens, ext):
            price_samples.append(PriceSample(t, token, price))
        if t % cfg.snapshot_period == 0:
            snapshots.append(ReserveSnapshot(t, tuple(balances), lp_supply))
        if truncated:
            break

    stream = EventStream(pool_id="scenario", tokens=cfg.tokens,
                         trades=tuple(trades), liquidity=tuple(liquidity),
                         snapshots=tuple(snapshots))
    final_pool = PoolState(tuple(balances), amp, fee, lp_supply)
    return ScenarioOutput(stream=stream, prices=tuple(price_samples),
                          external_prices=paths, config=cfg,
                          final_pool=final_pool, truncated=truncated)


@dataclass(frozen=True)
class SlippageRow:
    amp: float
    marginal_price: float


def slippage_experiment(pool: PoolState, a_values: list[float],
                        imbalance: float) -> list[SlippageRow]:
    """Marginal price of selling the over-supplied token, per amplification.

    The pool's total balance is redistributed so token 0 holds ``imbalance``
    times each other token's share; lower amplification buys the seller a
    strictly worse marginal price.
    """
    if imbalance <= 0:
        raise ValidationError("imbalance must be positive")
    n = pool.n
    total = sum(pool.balances)
    unit = total / (imbalance + (n - 1))
    balances = tuple([imbalance * unit] + [unit] * (n - 1))
    rows = []
    for amp in a_values:
        state = replace(pool, amp=amp, balances=balances)
        rows.append(SlippageRow(amp, marginal_price(state, 0, 1)))
    return rows

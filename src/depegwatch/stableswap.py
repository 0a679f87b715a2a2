"""StableSwap invariant math over real-valued balances.

The pool invariant in canonical form is

    A * n^n * sum(x) + D = A * D * n^n + D^(n+1) / (n^n * prod(x))

Two float kernels over balance tuples do the work: ``_d`` solves it for D
by Newton's method with a bisection fallback, and ``_dy`` holds D fixed
and solves for the counter-balance of a swap. D is solved once per pool
state (``PoolState.d``) or per priced trial (``_price_after``), never with
a residual unless ``compute_d`` asks for one. Everything operates on
float64; this is an analytics library, not a fixed-point contract port.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from .core import NumericalError, TokenId, ValidationError

MAX_ITERATIONS = 255
REL_TOL = 1e-10


@dataclass(frozen=True)
class PoolState:
    """Balances, amplification, output fee fraction, and LP token supply."""

    balances: tuple[float, ...]
    amp: float
    fee: float = 0.0
    lp_supply: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "balances", tuple(float(b) for b in self.balances))
        if len(self.balances) < 2:
            raise ValidationError("pool needs at least 2 tokens")
        if any(b < 0 for b in self.balances):
            raise ValidationError("balances must be non-negative")
        if not self.amp > 0:
            raise ValidationError("amplification must be strictly positive")
        if not 0 <= self.fee <= 0.01:
            raise ValidationError("fee must lie in [0, 0.01]")
        if self.lp_supply < 0:
            raise ValidationError("lp_supply must be non-negative")

    @property
    def n(self) -> int:
        return len(self.balances)

    @cached_property
    def d(self) -> float:
        """Invariant D, solved on first use; ``replace`` starts a new cache."""
        return _d(self.balances, self.amp)[0]


@dataclass(frozen=True)
class InvariantSolution:
    d: float
    iterations: int
    residual: float


def invariant_residual(state: PoolState, d: float) -> float:
    """Signed value of the canonical invariant at a candidate D."""
    return _residual(state.balances, state.amp, d)


def _residual(balances: Sequence[float], amp: float, d: float) -> float:
    n = len(balances)
    ann = amp * n**n
    s = sum(balances)
    prod = math.prod(balances)
    return ann * s + d - ann * d - d ** (n + 1) / (n**n * prod)


def compute_d(state: PoolState) -> InvariantSolution:
    """Solve the invariant for D, with the iteration count and residual.

    Converged when |dD| < 1e-10 * D within 255 Newton iterations from
    sum(x); if Newton leaves the feasible bracket it falls back to bisection
    on [n * geomean(x), sum(x)], which provably brackets the root.
    """
    d, iterations = _d(state.balances, state.amp)
    return InvariantSolution(d, iterations, invariant_residual(state, d))


def _d(balances: Sequence[float], amp: float) -> tuple[float, int]:
    """Invariant D of the balances and the iterations spent: Newton steps,
    or 255 plus the bisection steps after a fallback."""
    if any(b <= 0 for b in balances):
        raise ValidationError("compute_d requires strictly positive balances")
    n = len(balances)
    s = sum(balances)
    ann = amp * n**n

    d = s
    for iteration in range(1, MAX_ITERATIONS + 1):
        d_p = d
        for x in balances:
            d_p = d_p * d / (x * n)
        d_prev = d
        d = (ann * s + n * d_p) * d / ((ann - 1.0) * d + (n + 1) * d_p)
        if not math.isfinite(d) or d <= 0:
            break
        if abs(d - d_prev) < REL_TOL * d:
            return d, iteration

    return _bisect_d(balances, amp, s)


def _bisect_d(balances: Sequence[float], amp: float, s: float) -> tuple[float, int]:
    # Residual is >= 0 at n*geomean(x) and <= 0 at sum(x) (AM-GM), so the
    # unique positive root is bracketed even for extreme imbalance.
    if math.prod(balances) == 0:  # the residual divides by it
        raise NumericalError(
            "invariant solver failed; the balance product underflows to 0")
    n = len(balances)
    lo = n * math.exp(sum(math.log(x) for x in balances) / n)
    hi = s
    f_lo = _residual(balances, amp, lo)
    f_hi = _residual(balances, amp, hi)
    if f_lo < 0 or f_hi > 0:
        raise NumericalError(
            f"invariant solver failed; residuals at bracket: {f_lo}, {f_hi}"
        )
    iterations = 0
    while hi - lo > REL_TOL * lo and iterations < 200:
        mid = 0.5 * (lo + hi)
        if _residual(balances, amp, mid) >= 0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    d = 0.5 * (lo + hi)
    residual = _residual(balances, amp, d)
    if abs(residual) > REL_TOL * d * max(1.0, amp * n**n):
        raise NumericalError(f"invariant solver did not converge; residual {residual}")
    return d, MAX_ITERATIONS + iterations


def _dy(balances: Sequence[float], amp: float, d: float, i: int, j: int,
        dx: float) -> float:
    """Fee-free output of token j for selling dx > 0 of token i at D: the
    balance of j that keeps the invariant given the other balances."""
    n = len(balances)
    ann = amp * n**n
    others = [b + dx if k == i else b for k, b in enumerate(balances) if k != j]
    c = d
    for x in others:
        c = c * d / (x * n)
    c = c * d / (ann * n)
    b = sum(others) + d / ann

    y = d
    for _ in range(MAX_ITERATIONS):
        y_prev = y
        y = (y * y + c) / (2.0 * y + b - d)
        if abs(y - y_prev) < 1e-14 * d:
            break
    else:
        raise NumericalError("swap output solver did not converge")
    if not math.isfinite(y) or y <= 0:
        raise ValidationError("swap would drain the pool")
    return max(balances[j] - y, 0.0)  # float noise at dx -> 0


def _check_pair(state: PoolState, i: int, j: int) -> None:
    if i == j:
        raise ValidationError("swap requires distinct token indices")
    if not 0 <= i < state.n or not 0 <= j < state.n:
        raise ValidationError("token index out of range")


def get_dy(state: PoolState, i: int, j: int, dx: float) -> float:
    """Output amount of token j for selling dx of token i, after the fee."""
    _check_pair(state, i, j)
    return _fee_dy(state, i, j, dx)


def _fee_dy(state: PoolState, i: int, j: int, dx: float) -> float:
    if dx < 0:
        raise ValidationError("dx must be non-negative")
    if dx == 0:
        return 0.0
    return _dy(state.balances, state.amp, state.d, i, j, dx) * (1.0 - state.fee)


def apply_swap(state: PoolState, i: int, j: int, dx: float) -> tuple[PoolState, float]:
    """Execute the swap on a copy of the state; the fee remains in the pool."""
    dy = get_dy(state, i, j, dx)
    balances = list(state.balances)
    balances[i] += dx
    balances[j] -= dy
    return PoolState(tuple(balances), state.amp, state.fee, state.lp_supply), dy


def virtual_price(state: PoolState) -> float:
    """D per LP token: the share value assuming every token sits at peg."""
    if state.lp_supply <= 0:
        raise ValidationError("virtual price requires lp_supply > 0")
    return state.d / state.lp_supply


def lp_share_price(state: PoolState, tokens: Sequence[TokenId],
                   prices: Mapping[TokenId, float]) -> float:
    """Market value of one LP token: <balances, prices> / lp_supply."""
    if state.lp_supply <= 0:
        raise ValidationError("lp share price requires lp_supply > 0")
    if len(tokens) != state.n:
        raise ValidationError("token list must match pool balances")
    total = 0.0
    for token, balance in zip(tokens, state.balances):
        if token not in prices:
            raise ValidationError(f"missing price for token {token.symbol}")
        total += balance * prices[token]
    return total / state.lp_supply


def leverage_chi(state: PoolState) -> float:
    """Leverage parameter: amp * prod(x) / (D/n)^n; equals amp at equilibrium."""
    return state.amp * math.prod(state.balances) / (state.d / state.n) ** state.n


def marginal_price(state: PoolState, i: int, j: int) -> float:
    """Marginal dy/dx for selling token i into token j, fee ignored.

    Central finite difference of the fee-free swap output around
    dx = 1e-6 * x_i.
    """
    _check_pair(state, i, j)
    h = _step(state.balances[i])
    return _slope(state.balances, state.amp, state.d, i, j, h)


def _price_after(state: PoolState, i: int, j: int, dx: float) -> float:
    """``marginal_price(apply_swap(state, i, j, dx)[0], i, j)``, bit for bit
    and with the same checks, priced on the post-trade balance tuple: dy at
    the pool's cached D, then the trial's own D, and no ``PoolState``. The
    pair (i, j) must already be valid for the state."""
    dy = _fee_dy(state, i, j, dx)
    balances = list(state.balances)
    balances[i] += dx
    balances[j] -= dy
    if balances[j] < 0:
        raise ValidationError("balances must be non-negative")
    h = _step(balances[i])
    return _slope(balances, state.amp, _d(balances, state.amp)[0], i, j, h)


def _step(x_i: float) -> float:
    """Finite-difference step of the marginal price: 1e-6 * x_i, positive."""
    h = 1e-6 * x_i
    if h <= 0:
        raise ValidationError("marginal price requires a positive balance")
    return h


def _slope(balances: Sequence[float], amp: float, d: float, i: int, j: int,
           h: float) -> float:
    """Central difference (f(1.5h) - f(0.5h)) / h of the fee-free output."""
    return (_dy(balances, amp, d, i, j, 1.5 * h)
            - _dy(balances, amp, d, i, j, 0.5 * h)) / h

"""StableSwap invariant math over real-valued balances.

The pool invariant in canonical form is

    A * n^n * sum(x) + D = A * D * n^n + D^(n+1) / (n^n * prod(x))

solved for D by Newton's method with a bisection fallback, once per pool
state (``PoolState.d``). Swap outputs hold that D fixed and solve for the
counter-balance. Everything operates on float64; this is an analytics
library, not a fixed-point contract port.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
        return compute_d(self).d


@dataclass(frozen=True)
class InvariantSolution:
    d: float
    iterations: int
    residual: float


def invariant_residual(state: PoolState, d: float) -> float:
    """Signed value of the canonical invariant at a candidate D."""
    n = state.n
    ann = state.amp * n**n
    s = sum(state.balances)
    prod = math.prod(state.balances)
    return ann * s + d - ann * d - d ** (n + 1) / (n**n * prod)


def compute_d(state: PoolState) -> InvariantSolution:
    """Solve the invariant for D, starting Newton from sum(x).

    Converged when |dD| < 1e-10 * D within 255 iterations; if Newton leaves
    the feasible bracket it falls back to bisection on
    [n * geomean(x), sum(x)], which provably brackets the root.
    """
    if any(b <= 0 for b in state.balances):
        raise ValidationError("compute_d requires strictly positive balances")
    n = state.n
    s = sum(state.balances)
    ann = state.amp * n**n

    d = s
    for iteration in range(1, MAX_ITERATIONS + 1):
        d_p = d
        for x in state.balances:
            d_p = d_p * d / (x * n)
        d_prev = d
        d = (ann * s + n * d_p) * d / ((ann - 1.0) * d + (n + 1) * d_p)
        if not math.isfinite(d) or d <= 0:
            break
        if abs(d - d_prev) < REL_TOL * d:
            return InvariantSolution(d, iteration, invariant_residual(state, d))

    return _bisect_d(state, s)


def _bisect_d(state: PoolState, s: float) -> InvariantSolution:
    # Residual is >= 0 at n*geomean(x) and <= 0 at sum(x) (AM-GM), so the
    # unique positive root is bracketed even for extreme imbalance.
    n = state.n
    lo = n * math.exp(sum(math.log(x) for x in state.balances) / n)
    hi = s
    f_lo = invariant_residual(state, lo)
    f_hi = invariant_residual(state, hi)
    if f_lo < 0 or f_hi > 0:
        raise NumericalError(
            f"invariant solver failed; residuals at bracket: {f_lo}, {f_hi}"
        )
    iterations = 0
    while hi - lo > REL_TOL * lo and iterations < 200:
        mid = 0.5 * (lo + hi)
        if invariant_residual(state, mid) >= 0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    d = 0.5 * (lo + hi)
    residual = invariant_residual(state, d)
    if abs(residual) > REL_TOL * d * max(1.0, state.amp * n**n):
        raise NumericalError(f"invariant solver did not converge; residual {residual}")
    return InvariantSolution(d, MAX_ITERATIONS + iterations, residual)


def _solve_balance(state: PoolState, j: int, others: Sequence[float], d: float) -> float:
    """Balance of token j that keeps the invariant at D given the other balances."""
    n = state.n
    ann = state.amp * n**n
    s_other = sum(others)
    c = d
    for x in others:
        c = c * d / (x * n)
    c = c * d / (ann * n)
    b = s_other + d / ann

    y = d
    for _ in range(MAX_ITERATIONS):
        y_prev = y
        y = (y * y + c) / (2.0 * y + b - d)
        if abs(y - y_prev) < 1e-14 * d:
            return y
    raise NumericalError("swap output solver did not converge")


def _check_pair(state: PoolState, i: int, j: int) -> None:
    if i == j:
        raise ValidationError("swap requires distinct token indices")
    if not 0 <= i < state.n or not 0 <= j < state.n:
        raise ValidationError("token index out of range")


def _gross_dy(state: PoolState, i: int, j: int, dx: float) -> float:
    """Fee-free output of token j for selling dx > 0 of token i."""
    others = [b + dx if k == i else b
              for k, b in enumerate(state.balances) if k != j]
    y = _solve_balance(state, j, others, state.d)
    if not math.isfinite(y) or y <= 0:
        raise ValidationError("swap would drain the pool")
    return max(state.balances[j] - y, 0.0)  # float noise at dx -> 0


def get_dy(state: PoolState, i: int, j: int, dx: float) -> float:
    """Output amount of token j for selling dx of token i, after the fee."""
    _check_pair(state, i, j)
    if dx < 0:
        raise ValidationError("dx must be non-negative")
    if dx == 0:
        return 0.0
    return _gross_dy(state, i, j, dx) * (1.0 - state.fee)


def apply_swap(state: PoolState, i: int, j: int, dx: float) -> tuple[PoolState, float]:
    """Execute the swap on a copy of the state; the fee remains in the pool."""
    dy = get_dy(state, i, j, dx)
    balances = list(state.balances)
    balances[i] += dx
    balances[j] -= dy
    return replace(state, balances=tuple(balances)), dy


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
    h = 1e-6 * state.balances[i]
    if h <= 0:
        raise ValidationError("marginal price requires a positive balance")
    return (_gross_dy(state, i, j, 1.5 * h) - _gross_dy(state, i, j, 0.5 * h)) / h

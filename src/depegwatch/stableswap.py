"""StableSwap invariant math over real-valued balances.

The pool invariant in canonical form is

    A * n^n * sum(x) + D = A * D * n^n + D^(n+1) / (n^n * prod(x))

Two float kernels over balance tuples do the work: ``_d`` solves it for D
by Newton's method with a bisection fallback, and ``_dy`` holds D fixed
and solves for the counter-balance of a swap. D is solved once per pool
state (``PoolState.d``) or per priced trial (``_price_after``), never with
a residual. ``_swap``, which ``apply_swap`` wraps, and ``_price_after``
are the swap and the post-trade price on a plain balance list and its D,
for callers that step a pool without a ``PoolState`` per trade. D is
homogeneous of degree 1, so a tiny or huge pool, whose balance sum (or D)
lies outside [2^-100, 2^100], is solved on a copy scaled by a power of
two, exactly, and scaled back; an overflowing sum scales by the largest
balance, and a D past the float range raises ``NumericalError``.
Everything operates on float64; this is an analytics library, not a
fixed-point contract port.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from .core import NumericalError, TokenId, ValidationError

MAX_ITERATIONS = 255
REL_TOL = 1e-10
_TINY, _HUGE = 2.0 ** -100, 2.0 ** 100  # solved as is between these


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
        if not all(0 <= b < math.inf for b in self.balances):
            raise ValidationError("balances must be finite and non-negative")
        if not 0 < self.amp < math.inf:
            raise ValidationError("amplification must be finite and > 0")
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
        return _d(self.balances, self.amp)


def invariant_residual(state: PoolState, d: float) -> float:
    """Signed value of the canonical invariant at a candidate D."""
    return _residual(state.balances, state.amp, d)


def _rescaled(balances: Sequence[float], x: float) -> tuple[int, list[float]]:
    """The e that puts x / 2^e in [0.5, 1), and the balances over 2^e."""
    e = math.frexp(x)[1]
    scaled = [math.ldexp(b, -e) for b in balances]
    if 0.0 in scaled:
        raise NumericalError("the balances span more than the float range")
    return e, scaled


def _residual(balances: Sequence[float], amp: float, d: float) -> float:
    n = len(balances)
    ann = amp * n**n
    s = sum(balances)
    if not _TINY < s < _HUGE and 0 < s < math.inf:
        e, scaled = _rescaled(balances, s)
        return math.ldexp(_residual(scaled, amp, math.ldexp(d, -e)), e)
    prod = math.prod(balances)
    try:
        power = d ** (n + 1)
    except OverflowError:
        raise NumericalError(
            f"invariant residual overflows at D = {d}") from None
    return ann * s + d - ann * d - power / (n**n * prod)


def _d(balances: Sequence[float], amp: float) -> float:
    """Invariant D of the balances.

    Converged when |dD| < 1e-10 * D within 255 Newton iterations from
    sum(x); if Newton leaves the feasible bracket it falls back to bisection
    on [n * geomean(x), sum(x)], which provably brackets the root.
    """
    for b in balances:
        if b <= 0:
            raise ValidationError("D requires strictly positive balances")
    n = len(balances)
    s = sum(balances)
    # a sum of finite balances that overflows scales by the largest one
    scale = max(balances) if s == math.inf else s
    if not _TINY < scale < _HUGE and scale < math.inf:  # NaN fails both
        e, scaled = _rescaled(balances, scale)
        try:
            return math.ldexp(_d(scaled, amp), e)
        except OverflowError:
            raise NumericalError("D exceeds the float range") from None
    ann = amp * n**n
    # loop invariants, each the same float the loop computed every time
    xn = [x * n for x in balances]
    ann_s, ann_1, n_1 = ann * s, ann - 1.0, n + 1

    d = s
    for _ in range(MAX_ITERATIONS):
        d_p = d
        for x_n in xn:
            d_p = d_p * d / x_n
        d_prev = d
        d = (ann_s + n * d_p) * d / (ann_1 * d + n_1 * d_p)
        if not math.isfinite(d) or d <= 0:
            break
        tol = REL_TOL * d
        if -tol < d - d_prev < tol:  # abs(d - d_prev) < tol, NaN included
            return d

    return _bisect_d(balances, amp, s)


def _bisect_d(balances: Sequence[float], amp: float, s: float) -> float:
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
    if not f_lo >= 0 or not f_hi <= 0:  # a NaN residual fails too
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
    if not abs(residual) <= REL_TOL * d * max(1.0, amp * n**n):
        raise NumericalError(f"invariant solver did not converge; residual {residual}")
    return d


def _dy(balances: Sequence[float], amp: float, d: float, i: int, j: int,
        dx: float) -> float:
    """Fee-free output of token j for selling dx > 0 of token i at D: the
    balance of j that keeps the invariant given the other balances."""
    if not _TINY < d < _HUGE and 0 < d < math.inf:
        e, scaled = _rescaled(balances, d)
        return math.ldexp(_dy(scaled, amp, math.ldexp(d, -e), i, j,
                              math.ldexp(dx, -e)), e)
    n = len(balances)
    ann = amp * n**n
    others = list(balances)
    others[i] += dx
    del others[j]
    c = d
    for x in others:
        c = c * d / (x * n)
    c = c * d / (ann * n)
    b = sum(others) + d / ann
    tol = 1e-14 * d

    y = d
    for _ in range(MAX_ITERATIONS):
        y_prev = y
        y = (y * y + c) / (2.0 * y + b - d)
        if -tol < y - y_prev < tol:  # abs(y - y_prev) < tol, NaN included
            break
    else:
        raise NumericalError("swap output solver did not converge")
    if not math.isfinite(y) or y <= 0:
        raise ValidationError("swap would drain the pool")
    dy = balances[j] - y
    return 0.0 if dy < 0.0 else dy  # float noise at dx -> 0


def _check_pair(state: PoolState, i: int, j: int) -> None:
    if i == j:
        raise ValidationError("swap requires distinct token indices")
    if not 0 <= i < state.n or not 0 <= j < state.n:
        raise ValidationError("token index out of range")


def _swap(balances: Sequence[float], amp: float, fee: float, d: float, i: int,
          j: int, dx: float) -> tuple[list[float], float]:
    """The swap on a balance list whose invariant is ``d``: the new
    balances and the output after the fee, which stays in the pool. The
    pair (i, j) must be valid; ``d`` is unused unless dx > 0."""
    if dx < 0:
        raise ValidationError("dx must be non-negative")
    dy = 0.0 if dx == 0 else _dy(balances, amp, d, i, j, dx) * (1.0 - fee)
    after = list(balances)
    after[i] += dx
    after[j] -= dy
    if after[j] < 0:  # the only balance a swap lowers
        raise ValidationError("balances must be non-negative")
    return after, dy


def apply_swap(state: PoolState, i: int, j: int, dx: float) -> tuple[PoolState, float]:
    """Execute the swap on a copy of the state; the fee remains in the pool."""
    _check_pair(state, i, j)
    # D is solved only when the swap prices; dx < 0 fails its own check
    d = 0.0 if dx <= 0 else state.d
    after, dy = _swap(state.balances, state.amp, state.fee, d, i, j, dx)
    return PoolState(tuple(after), state.amp, state.fee, state.lp_supply), dy


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


def marginal_price(state: PoolState, i: int, j: int) -> float:
    """Marginal dy/dx for selling token i into token j, fee ignored.

    Central finite difference of the fee-free swap output around
    dx = 1e-6 * x_i.
    """
    _check_pair(state, i, j)
    h = _step(state.balances[i])
    return _slope(state.balances, state.amp, state.d, i, j, h)


def _price_after(balances: Sequence[float], amp: float, fee: float, d: float,
                 i: int, j: int, dx: float) -> float:
    """``marginal_price(apply_swap(state, i, j, dx)[0], i, j)`` for the
    state of these balances, whose invariant is ``d``: bit for bit and with
    the same checks, priced on the post-trade balances at their own D, with
    no ``PoolState``. The pair (i, j) must be valid."""
    after, _ = _swap(balances, amp, fee, d, i, j, dx)
    h = _step(after[i])
    return _slope(after, amp, _d(after, amp), i, j, h)


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

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from depegwatch import simulator, stableswap
from depegwatch.core import NumericalError, TokenId, ValidationError
from depegwatch.stableswap import (
    InvariantSolution,
    PoolState,
    apply_swap,
    compute_d,
    get_dy,
    invariant_residual,
    leverage_chi,
    lp_share_price,
    marginal_price,
    virtual_price,
)


def bisection_d(state, tol=1e-12):
    """Independent oracle: bisection on [max(x), sum(x)].

    Valid whenever the residual changes sign across that bracket, which holds
    for the moderately imbalanced pools used here.
    """
    lo, hi = max(state.balances), sum(state.balances)
    f_lo = invariant_residual(state, lo)
    f_hi = invariant_residual(state, hi)
    assert f_lo >= 0 >= f_hi, "oracle bracket must straddle the root"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if invariant_residual(state, mid) >= 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol * lo:
            break
    return 0.5 * (lo + hi)


class TestComputeD:
    @pytest.mark.parametrize("amp", [1.0, 10.0, 100.0, 5000.0])
    def test_balanced_pool_d_is_sum(self, amp):
        sol = compute_d(PoolState((1e6, 1e6, 1e6), amp=amp))
        assert sol.d == pytest.approx(3e6, rel=1e-14)

    def test_imbalanced_pool_residual(self):
        state = PoolState((2e6, 1e6), amp=100.0)
        sol = compute_d(state)
        assert abs(invariant_residual(state, sol.d)) < 1e-10 * sol.d

    def test_against_bisection_oracle(self):
        state = PoolState((1.0, 1.0), amp=1.0)
        sol = compute_d(state)
        assert sol.d == pytest.approx(bisection_d(state), rel=1e-9)

    @pytest.mark.parametrize("balances,amp", [
        ((3e6, 1e6), 20.0),
        ((1e5, 4e5, 2e5), 75.0),
        ((9.0, 1.5), 300.0),
    ])
    def test_oracle_cross_checks(self, balances, amp):
        state = PoolState(balances, amp=amp)
        assert compute_d(state).d == pytest.approx(bisection_d(state), rel=1e-9)

    def test_rejects_zero_balance(self):
        with pytest.raises(ValidationError):
            compute_d(PoolState((1e6, 0.0), amp=10.0))

    @given(st.lists(st.floats(1e3, 1e7), min_size=2, max_size=4),
           st.floats(1.0, 2000.0), st.floats(0.01, 100.0))
    @settings(max_examples=80, deadline=None)
    def test_homogeneity(self, balances, amp, scale):
        base = compute_d(PoolState(tuple(balances), amp=amp)).d
        scaled = compute_d(PoolState(tuple(scale * b for b in balances),
                                     amp=amp)).d
        assert scaled == pytest.approx(scale * base, rel=1e-9)

    @given(st.floats(1.0, 10.0), st.floats(10.0, 1000.0))
    @settings(max_examples=60, deadline=None)
    def test_bracket_property(self, ratio, amp):
        # max(x) <= D <= sum(x) for moderate imbalance
        state = PoolState((ratio * 1e6, 1e6), amp=amp)
        d = compute_d(state).d
        assert max(state.balances) <= d <= sum(state.balances) * (1 + 1e-12)

    def test_solution_fields(self):
        sol = compute_d(PoolState((2e6, 1e6), amp=100.0))
        assert isinstance(sol, InvariantSolution)
        assert sol.iterations >= 1


class TestGetDy:
    def test_zero_in_zero_out(self):
        state = PoolState((1e6, 1e6), amp=100.0)
        assert get_dy(state, 0, 1, 0.0) == 0.0

    def test_small_swap_near_parity(self):
        state = PoolState((1e6, 1e6), amp=100.0, fee=0.0)
        dy = get_dy(state, 0, 1, 1.0)
        assert dy <= 1.0
        assert dy == pytest.approx(1.0, abs=1e-5)

    def test_dy_below_dx_and_monotone(self):
        state = PoolState((1e6, 1e6), amp=100.0, fee=0.0)
        sizes = [10.0, 1e3, 1e5]
        ratios = [get_dy(state, 0, 1, dx) / dx for dx in sizes]
        assert all(r <= 1.0 for r in ratios)
        assert ratios == sorted(ratios, reverse=True)

    def test_post_swap_state_keeps_invariant(self):
        state = PoolState((1e6, 2e6, 5e5), amp=80.0, fee=0.0)
        d0 = compute_d(state).d
        new_state, dy = apply_swap(state, 0, 2, 12345.0)
        assert dy > 0
        assert abs(invariant_residual(new_state, d0)) < 1e-10 * d0

    def test_rejects_same_index(self):
        state = PoolState((1e6, 1e6), amp=10.0)
        with pytest.raises(ValidationError):
            get_dy(state, 1, 1, 10.0)

    def test_fee_reduces_output(self):
        free = PoolState((1e6, 1e6), amp=100.0, fee=0.0)
        charged = PoolState((1e6, 1e6), amp=100.0, fee=0.001)
        dx = 5000.0
        assert get_dy(charged, 0, 1, dx) == pytest.approx(
            get_dy(free, 0, 1, dx) * 0.999, rel=1e-12)


class TestVirtualPrice:
    def test_fresh_pool_is_one(self):
        state = PoolState((1e6, 1e6), amp=100.0, lp_supply=2e6)
        assert virtual_price(state) == pytest.approx(1.0, rel=1e-12)

    def test_round_trip_swap_increases(self):
        state = PoolState((1e6, 1e6), amp=100.0, fee=0.0004, lp_supply=2e6)
        before = virtual_price(state)
        state, dy = apply_swap(state, 0, 1, 5e4)
        state, _ = apply_swap(state, 1, 0, dy)
        assert virtual_price(state) > before

    def test_scale_invariance(self):
        a = PoolState((1e6, 3e6), amp=50.0, lp_supply=4e6)
        b = PoolState((2e6, 6e6), amp=50.0, lp_supply=8e6)
        assert virtual_price(a) == pytest.approx(virtual_price(b), rel=1e-12)

    def test_requires_supply(self):
        with pytest.raises(ValidationError):
            virtual_price(PoolState((1e6, 1e6), amp=10.0, lp_supply=0.0))

    def test_never_decreases_across_swaps(self):
        rng = np.random.default_rng(5)
        state = PoolState((1e6, 1e6, 1e6), amp=200.0, fee=0.0004,
                          lp_supply=3e6)
        vp = virtual_price(state)
        for _ in range(50):
            i, j = rng.choice(3, size=2, replace=False)
            dx = float(rng.uniform(10.0, 5e4))
            state, _ = apply_swap(state, int(i), int(j), dx)
            vp_new = virtual_price(state)
            assert vp_new >= vp - 1e-15
            vp = vp_new


class TestLpSharePrice:
    def setup_method(self):
        self.tokens = (TokenId("A"), TokenId("B"))

    def test_at_peg(self):
        state = PoolState((100.0, 100.0), amp=10.0, lp_supply=200.0)
        prices = {self.tokens[0]: 1.0, self.tokens[1]: 1.0}
        assert lp_share_price(state, self.tokens, prices) == 1.0

    def test_depegged_token(self):
        state = PoolState((100.0, 100.0), amp=10.0, lp_supply=200.0)
        prices = {self.tokens[0]: 1.0, self.tokens[1]: 0.5}
        assert lp_share_price(state, self.tokens, prices) == 0.75

    def test_zero_balances(self):
        state = PoolState((0.0, 0.0), amp=10.0, lp_supply=200.0)
        prices = {self.tokens[0]: 1.0, self.tokens[1]: 1.0}
        assert lp_share_price(state, self.tokens, prices) == 0.0

    def test_missing_price_names_token(self):
        state = PoolState((1.0, 1.0), amp=10.0, lp_supply=2.0)
        with pytest.raises(ValidationError, match="B"):
            lp_share_price(state, self.tokens, {self.tokens[0]: 1.0})


class TestLeverageChi:
    def test_balanced_equals_amp(self):
        assert leverage_chi(PoolState((5e5, 5e5), amp=77.0)) == pytest.approx(
            77.0, rel=1e-12)

    @given(st.floats(1.1, 50.0), st.floats(1.0, 500.0))
    @settings(max_examples=60, deadline=None)
    def test_imbalanced_below_amp(self, ratio, amp):
        chi = leverage_chi(PoolState((ratio * 1e6, 1e6), amp=amp))
        assert chi < amp

    def test_zero_amp_rejected_by_pool_state(self):
        with pytest.raises(ValidationError):
            PoolState((1e6, 1e6), amp=0.0)


class TestMarginalPrice:
    def test_balanced_pool_is_one(self):
        state = PoolState((1e6, 1e6), amp=100.0)
        assert marginal_price(state, 0, 1) == pytest.approx(1.0, abs=1e-6)

    def test_lower_amp_worse_price_for_abundant_seller(self):
        low = PoolState((4e6, 1e6), amp=10.0)
        high = PoolState((4e6, 1e6), amp=1000.0)
        assert marginal_price(low, 0, 1) < marginal_price(high, 0, 1)

    def test_inverse_symmetry(self):
        state = PoolState((4e6, 1e6), amp=25.0)
        product = marginal_price(state, 0, 1) * marginal_price(state, 1, 0)
        assert product == pytest.approx(1.0, abs=1e-5)


def _outcome(fn, *args):
    """Return value of ``fn(*args)``, or the library error it raised."""
    try:
        return fn(*args)
    except (ValidationError, NumericalError) as err:
        return type(err), str(err)


def _oracle_outcome(fn, *args):
    """``_outcome`` of an oracle call, with one stated difference: where the
    balance product underflows to 0, the oracle's bisection divides by it
    and raises ZeroDivisionError, while the library raises NumericalError
    before computing any residual."""
    try:
        return _outcome(fn, *args)
    except ZeroDivisionError:
        return (NumericalError,
                "invariant solver failed; the balance product underflows to 0")


class TestSwapOracle:
    """Swaps at the state's cached D equal the oracle that re-solves D on
    every call, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        balances=st.lists(st.floats(1e3, 1e9), min_size=2, max_size=3),
        amp=st.floats(1.0, 5000.0),
        fee=st.floats(0.0, 0.01),
        trades=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1),
                                  st.floats(0.0, 2.0)),
                        min_size=1, max_size=6),
    )
    def test_library_equals_oracle(self, balances, amp, fee, trades):
        state = PoolState(tuple(balances), amp=amp, fee=fee,
                          lp_supply=sum(balances))
        n = state.n
        for a, b, frac in trades:
            i = a % n
            j = (i + 1 + b % (n - 1)) % n
            dx = frac * state.balances[i]
            assert (_outcome(marginal_price, state, i, j)
                    == _oracle_outcome(oracles.marginal_price, state, i, j))
            assert (_outcome(get_dy, state, i, j, dx)
                    == _oracle_outcome(oracles.get_dy, state, i, j, dx))
            assert virtual_price(state) == compute_d(state).d / state.lp_supply
            swapped = _outcome(apply_swap, state, i, j, dx)
            assert swapped == _oracle_outcome(oracles.apply_swap, state, i,
                                              j, dx)
            if not isinstance(swapped[0], PoolState):
                break
            state = swapped[0]

    def test_one_state_solves_d_once(self, monkeypatch):
        solved = []
        kernel = stableswap._d

        def counting(balances, amp):
            solved.append((balances, amp))
            return kernel(balances, amp)

        monkeypatch.setattr(stableswap, "_d", counting)
        state = PoolState((3e6, 1e6, 2e6), amp=100.0, fee=0.0004,
                          lp_supply=6e6)
        marginal_price(state, 0, 1)
        apply_swap(state, 0, 1, 1e4)
        virtual_price(state)
        leverage_chi(state)
        assert solved == [(state.balances, state.amp)]

    def test_state_d_computes_no_residual(self, monkeypatch):
        def fail(*args):
            raise AssertionError("residual computed")

        monkeypatch.setattr(stableswap, "invariant_residual", fail)
        monkeypatch.setattr(stableswap, "_residual", fail)
        state = PoolState((3e6, 1e6, 2e6), amp=100.0, fee=0.0004,
                          lp_supply=6e6)
        assert state.d == oracles.compute_d(state).d
        assert marginal_price(state, 0, 1) == oracles.marginal_price(state, 0, 1)

    @pytest.mark.parametrize("balances,amp", [
        ((3e6, 1e6, 2e6), 100.0),
        ((1e9, 1.0), 5000.0),
        ((2.5, 7.0, 1e-3, 4.0), 0.5),
    ])
    def test_compute_d_keeps_iterations_and_residual(self, balances, amp):
        state = PoolState(balances, amp=amp)
        sol = compute_d(state)
        assert sol == oracles.compute_d(state)
        assert sol.d == state.d
        assert sol.residual == invariant_residual(state, state.d)

    def test_cached_d_leaves_value_semantics(self):
        state = PoolState((3e6, 1e6), amp=100.0, fee=0.0004, lp_supply=4e6)
        fresh = PoolState((3e6, 1e6), amp=100.0, fee=0.0004, lp_supply=4e6)
        assert state.d == compute_d(fresh).d
        assert state == fresh and hash(state) == hash(fresh)
        assert repr(state) == repr(fresh)
        moved = replace(state, balances=(2e6, 2e6))
        assert moved.d == compute_d(PoolState((2e6, 2e6), amp=100.0)).d


class TestTrialPrice:
    """A simulator arbitrage trial priced on the post-trade balances equals
    swapping to a new state and pricing that, outcome for outcome."""

    @settings(max_examples=300, deadline=None)
    @given(
        balances=st.lists(st.floats(1e-3, 1e12), min_size=2, max_size=4),
        zeroed=st.one_of(st.none(), st.tuples(
            st.integers(0, 3), st.sampled_from([0.0, 1e-310, 5e-324]))),
        amp=st.floats(0.01, 1e4),
        fee=st.floats(0.0, 0.01),
        pair=st.tuples(st.integers(0, 3), st.integers(0, 2)),
        frac=st.one_of(st.floats(-1.0, 3.0), st.just(0.0), st.just(math.inf),
                       st.floats(1e-18, 1e-9), st.floats(1e3, 1e12)),
    )
    def test_equals_swap_then_marginal_price(self, balances, zeroed, amp, fee,
                                             pair, frac):
        if zeroed is not None:  # an empty or underflowing balance
            balances[zeroed[0] % len(balances)] = zeroed[1]
        state = PoolState(tuple(balances), amp=amp, fee=fee)
        n = state.n
        i = pair[0] % n
        j = (i + 1 + pair[1] % (n - 1)) % n
        dx = frac * state.balances[i]

        def reference():
            return oracles.marginal_price(
                oracles.apply_swap(state, i, j, dx)[0], i, j)

        assert (_outcome(stableswap._price_after, state, i, j, dx)
                == _oracle_outcome(reference))

    def test_one_d_per_trial(self, monkeypatch):
        state = PoolState((6e6, 2e6, 4e6), amp=50.0, fee=0.0004)
        state.d  # the pool's own D is cached before trials start
        solved, trials = [], []
        kernel, price_after = stableswap._d, stableswap._price_after

        def counting_d(balances, amp):
            solved.append(balances)
            return kernel(balances, amp)

        def counting_trial(*args):
            trials.append(args)
            return price_after(*args)

        monkeypatch.setattr(stableswap, "_d", counting_d)
        monkeypatch.setattr(simulator, "_price_after", counting_trial)
        dx = simulator._arb_size(state, 1, 0, 1.002)  # the scarce token
        assert 0 < dx < 0.45 * state.balances[1]
        assert len(trials) > 10 and len(solved) == len(trials)

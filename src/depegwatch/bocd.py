"""Online Bayesian changepoint detection with a Student-t predictive.

The detector tracks the posterior over run lengths (steps since the last
changepoint) under a constant hazard. Each run-length hypothesis carries
Normal-Gamma parameters updated by conjugacy; the one-step predictive is a
Student-t. All mass arithmetic happens in log space, since run lengths in
the thousands underflow linear space: pruning compares each log-joint with
the step's normaliser plus log(prob_floor), and the MAP run length is the
log-joint's argmax.

:func:`detect_batch` advances a block of detectors that share hazard,
pruning and predictive scale but not their prior. The block is factored
over the prior grid's (alpha, beta, kappa) axes: the log-joint has one row
per prior, but each other quantity is kept once per axis value it depends
on, and numpy broadcasting forms the predictive with the same operations in
the same order as one row per prior would. The online :func:`step` works on
one detector's flat per-hypothesis arrays. Both form the Student-t
predictive and the Normal-Gamma update in one helper, and each equals its
reference in the tests bit for bit: the block equals one row per prior, and
the step equals the batched kernel on a 1x1x1 grid. The Student-t
normaliser comes from :func:`depegwatch.core.gammaln`, a port of the cephes
routine behind ``scipy.special.gammaln`` that equals it bit for bit; scipy
is only a test dependency.

Two predictive-scale conventions are supported:

* ``paper``: scale^2 = beta / (alpha * kappa), i.e. the Normal-Gamma
  parameter mapping without the predictive correction (default).
* ``posterior_predictive``: scale^2 = beta * (kappa + 1) / (alpha * kappa),
  the exact posterior predictive of the conjugate model.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .core import (MetricSeries, NumericalError, Timestamp, ValidationError,
                   from_json, gammaln)

PREDICTIVE_SCALES = ("paper", "posterior_predictive")


@dataclass(frozen=True)
class NGParams:
    """Normal-Gamma parameters (mu, alpha, beta, kappa). The implied
    Student-t has nu = 2*alpha degrees of freedom."""

    mu: float
    alpha: float
    beta: float
    kappa: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0 and self.beta > 0 and self.kappa > 0):
            raise ValidationError("alpha, beta, kappa must be strictly positive")


@dataclass(frozen=True)
class DetectorConfig:
    hazard_lambda: float = 100.0
    prior: NGParams = field(default_factory=lambda: NGParams(0.0, 1.0, 1.0, 1.0))
    prob_floor: float = 1e-12       # hypotheses below this posterior are pruned
    max_run_length: int = 5000
    predictive_scale: str = "paper"

    def __post_init__(self) -> None:
        if not self.hazard_lambda > 1:
            raise ValidationError("hazard_lambda must exceed 1")
        if not (self.prob_floor == 0.0 or 0 < self.prob_floor < 1e-6):
            raise ValidationError("prob_floor must be 0 (off) or in (0, 1e-6)")
        if self.max_run_length < 1:
            raise ValidationError("max_run_length must be >= 1")
        if self.predictive_scale not in PREDICTIVE_SCALES:
            raise ValidationError(
                f"predictive_scale must be one of {PREDICTIVE_SCALES}")


@dataclass(frozen=True)
class RunLengthState:
    """Posterior over run lengths after ``t`` observations.

    Arrays are aligned: ``log_joint[k]`` is log P(r_t = runs[k], x_{1:t})
    and ``mu[k]``, ``beta[k]`` are that hypothesis's Normal-Gamma location
    and rate. Its ``alpha`` and ``kappa`` are the prior's plus ``runs[k]``
    half-steps and steps, so they live in run-length tables, not here.
    ``runs`` is strictly increasing with runs[0] == 0 after the first step.
    """

    t: int
    runs: NDArray[np.int64]
    log_joint: NDArray[np.float64]
    mu: NDArray[np.float64]
    beta: NDArray[np.float64]
    prev_gamma: int
    map_probability: float = 1.0  # posterior of the MAP run length at step t


class Changepoint(NamedTuple):
    ts: Timestamp
    step: int
    map_run_length: int
    probability: float


class RunLengthPoint(NamedTuple):
    ts: Timestamp
    step: int
    run_length: int
    probability: float


def hazard(cfg: DetectorConfig) -> float:
    """Constant per-step changepoint probability, 1 / lambda."""
    return 1.0 / cfg.hazard_lambda


class _Tables(NamedTuple):
    """Functions of the run length r over a factored (alpha, beta, kappa)
    block, each with n run lengths on its last axis: kappa_r, kappa_{r+1}
    and 2 kappa_{r+1} are (K, n); alpha_r * kappa_r is (A, 1, K, n); nu_r,
    nu_r * pi, (nu_r + 1) / 2 and the Student-t normaliser
    gammaln((nu_r+1)/2) - gammaln(nu_r/2) depend on alpha alone and are
    (A, 1, 1, n). The singleton axes broadcast over beta and kappa."""

    kappa: np.ndarray
    kappa1: np.ndarray
    two_kappa1: np.ndarray
    alpha_kappa: np.ndarray
    nu: np.ndarray
    nu_pi: np.ndarray
    half_nu1: np.ndarray
    log_norm: np.ndarray


def _run_tables(alpha0: np.ndarray, kappa0: np.ndarray, n: int) -> _Tables:
    """The tables of the prior axes ``alpha0`` (A,) and ``kappa0`` (K,)."""
    # accumulate adds 0.5 and 1.0 one run length at a time, so every entry
    # equals the prior's parameter updated r times by conjugacy, bit for bit
    def grown(start, inc, size):
        steps = np.full((start.size, size), inc)
        steps[:, 0] = start
        return np.add.accumulate(steps, axis=1)

    alpha_all = grown(alpha0, 0.5, n + 1)
    alpha = alpha_all[:, :n]
    kappa_all = grown(kappa0, 1.0, n + 1)
    kappa, kappa1 = kappa_all[:, :n], kappa_all[:, 1:]
    nu = 2.0 * alpha
    # (nu_r + 1) / 2 is alpha_{r+1} and nu_r / 2 is alpha_r, bit for bit
    # (doubling and halving are exact), so the normaliser is the difference
    # of neighbours in one gammaln row per alpha
    log_gamma = np.fromiter(map(gammaln, alpha_all.ravel().tolist()), float,
                            alpha_all.size).reshape(alpha_all.shape)
    return _Tables(kappa, kappa1, 2.0 * kappa1,
                   (alpha[:, None] * kappa)[:, None],
                   *(table[:, None, None] for table in (
                       nu, nu * math.pi, alpha_all[:, 1:],
                       log_gamma[:, 1:] - log_gamma[:, :-1])))


_TABLES_KEPT = 32
_kept_tables: dict[tuple[float, float], np.ndarray] = {}


def _prior_tables(alpha0: float, kappa0: float, size: int) -> np.ndarray:
    """The tables of one prior stacked as (8, m) with m >= size, for
    indexing by runs. An entry does not depend on the table's length, so
    each (alpha, kappa) keeps one table and rebuilds it only to grow it;
    the most recently used ``_TABLES_KEPT`` are kept."""
    key = (alpha0, kappa0)
    stacked = _kept_tables.pop(key, None)
    if stacked is None or stacked.shape[1] < size:
        stacked = np.stack([table.ravel() for table in _run_tables(
            np.array([alpha0]), np.array([kappa0]), size)])
        stacked.flags.writeable = False  # shared by every caller
    _kept_tables[key] = stacked
    if len(_kept_tables) > _TABLES_KEPT:
        del _kept_tables[next(iter(_kept_tables))]
    return stacked


def _row_lse(values: np.ndarray) -> np.ndarray:
    """Row-wise log(sum(exp(values))); each row needs a finite maximum."""
    peak = values.max(axis=1, keepdims=True)
    return peak[:, 0] + np.log(np.exp(values - peak).sum(axis=1))


def _predict_update(x: float, mu: np.ndarray, beta: np.ndarray, tables,
                    predictive_scale: str, mu_out: np.ndarray,
                    beta_out: np.ndarray) -> np.ndarray:
    """The Student-t log predictive of ``x`` under hypotheses with
    Normal-Gamma means ``mu`` and rates ``beta``, whose run lengths
    ``tables`` describe (the eight tables of :class:`_Tables` in order,
    broadcasting against ``mu`` and ``beta``). Writes each hypothesis's
    conjugate update by ``x`` to ``mu_out`` and ``beta_out``, which may be
    ``mu`` and ``beta``."""
    kappa, kappa1, two_kappa1, alpha_kappa, nu, nu_pi, half_nu1, log_norm = \
        tables
    if predictive_scale == "paper":
        sigma_sq = beta / alpha_kappa
    else:
        sigma_sq = beta * kappa1 / alpha_kappa
    dev_sq = (x - mu) ** 2
    log_pred = (log_norm - 0.5 * np.log(nu_pi * sigma_sq)
                - half_nu1 * np.log1p(dev_sq / (nu * sigma_sq)))
    np.add(beta, kappa * dev_sq / two_kappa1, out=beta_out)
    np.divide(kappa * mu + x, kappa1, out=mu_out)
    return log_pred


def _advance(x: float, log_joint: np.ndarray, mu: np.ndarray,
             beta: np.ndarray, tables: _Tables, runs: np.ndarray,
             prior_mu, prior_beta, cfg: DetectorConfig, t: int):
    """Advance a factored block of detectors that share ``cfg`` by one
    observation, the ``t``-th, in place.

    The block's rows are the priors of an (alpha, beta, kappa) grid in C
    order, A x B x K of them, all with one prior mean. ``log_joint`` is
    (A B K, n + 1); ``mu`` (K, n + 1) holds each kappa's Normal-Gamma means,
    which are all that rows sharing kappa differ in, and ``beta``
    (B, K, n + 1) each (beta, kappa)'s rates. Columns 1..n hold hypotheses
    that ``tables`` describe (see :class:`_Tables`); column 0 receives the
    fresh run-length-zero hypothesis, with ``prior_mu`` and ``prior_beta``
    (broadcast to (K,) and (B, K)). Broadcasting forms every value with the
    same operations in the same order as a block with one row of each
    quantity per prior, so every float equals that block's. ``runs`` holds
    every column's run length after the step, ascending. A hypothesis
    below the row's normaliser ``lse`` plus log(prob_floor), or past
    ``max_run_length``, is pruned: it becomes -inf and its mass moves to run
    length zero (``lse`` stays the row's total, since the step splits it
    into h and 1 - h and pruning only moves mass). A hypothesis whose
    likelihood is zero becomes -inf without any mass to move. Returns each
    row's MAP column after pruning (first maximum of the log-joint, so the
    smallest run length wins ties); raises :class:`NumericalError` if some
    row's ``lse`` is not finite.
    """
    h = hazard(cfg)
    m, b = mu[..., 1:], beta[..., 1:]
    log_pred = _predict_update(x, m, b, tables, cfg.predictive_scale, m, b)
    weighted = log_joint[:, 1:] + log_pred.reshape(log_joint.shape[0], -1)
    lse = _row_lse(weighted)
    if not np.isfinite(lse).all():
        raise NumericalError(f"observation at step {t}: no finite likelihood")
    log_joint[:, 0] = lse + math.log(h)
    np.add(weighted, math.log1p(-h), out=log_joint[:, 1:])
    mu[..., 0] = prior_mu
    beta[..., 0] = prior_beta

    log_floor = math.log(cfg.prob_floor) if cfg.prob_floor else -math.inf
    drop = log_joint < (lse + log_floor)[:, None]
    if runs[-1] > cfg.max_run_length:
        drop[:, runs > cfg.max_run_length] = True
    drop[:, 0] = False
    drop &= log_joint > -math.inf  # not the ones pruned before
    # row-major: rows ascend, then runs
    rows, cols = np.divmod(np.flatnonzero(drop), drop.shape[1])
    if rows.size:
        dropped = log_joint[rows, cols]
        log_joint[rows, cols] = -math.inf
        starts = np.empty(rows.size, dtype=bool)  # each hit row's first
        starts[0] = True
        np.not_equal(rows[1:], rows[:-1], out=starts[1:])
        first = np.flatnonzero(starts)
        hit = rows[first]
        peak = np.maximum.reduceat(dropped, first)
        mass = peak + np.log(np.add.reduceat(
            np.exp(dropped - peak[np.cumsum(starts) - 1]), first))
        log_joint[hit, 0] = np.logaddexp(log_joint[hit, 0], mass)
    return log_joint.argmax(axis=1)


def init_state(cfg: DetectorConfig) -> RunLengthState:
    """Fresh state with all mass on run length zero and prior parameters."""
    return RunLengthState(
        t=0,
        runs=np.array([0], dtype=np.int64),
        log_joint=np.array([0.0]),
        mu=np.array([cfg.prior.mu]),
        beta=np.array([cfg.prior.beta]),
        prev_gamma=0,
    )


def step(state: RunLengthState, x: float, cfg: DetectorConfig,
         ts: Timestamp = 0) -> tuple[RunLengthState, Changepoint | None]:
    """Advance the run-length posterior by one observation.

    Every surviving hypothesis grows by one with probability (1 - H) and a
    fresh run-length-zero hypothesis absorbs the hazard-weighted mass of all
    predecessors. A changepoint is emitted at this step whenever the MAP run
    length breaks the previous MAP's continuation (gamma_t != gamma_{t-1}+1);
    ties at the argmax resolve to the smallest run length. Pruning follows
    :func:`_advance`. The step works on the state's flat arrays with the
    floating-point operations of the batched kernel on a 1x1x1 grid, in the
    same order, so it equals that kernel bit for bit.
    """
    if not math.isfinite(x):
        raise ValidationError(f"observation at step {state.t + 1} is not finite")
    t = state.t + 1
    n = state.runs.size
    oldest = int(state.runs[-1])
    # table length: a power of two past the oldest run, capped at the
    # longest run length that pruning keeps
    stacked = _prior_tables(cfg.prior.alpha, cfg.prior.kappa,
                            min(cfg.max_run_length + 1,
                                1 << oldest.bit_length()))
    # runs are 0..n-1 unless pruning has cut into the middle
    tables = stacked[:, :n] if oldest == n - 1 else stacked[:, state.runs]
    log_joint, mu, beta = np.empty((3, n + 1))
    weighted = state.log_joint + _predict_update(
        x, state.mu, state.beta, tables, cfg.predictive_scale, mu[1:],
        beta[1:])
    peak = weighted.max()
    lse = peak + np.log(np.exp(weighted - peak).sum())
    if not math.isfinite(lse):
        raise NumericalError(f"observation at step {t}: no finite likelihood")
    h = hazard(cfg)
    log_joint[0] = lse + math.log(h)
    np.add(weighted, math.log1p(-h), out=log_joint[1:])
    mu[0], beta[0] = cfg.prior.mu, cfg.prior.beta
    runs = np.empty(n + 1, dtype=np.int64)
    runs[0] = 0
    np.add(state.runs, 1, out=runs[1:])

    # one scan finds the pruned hypotheses and those whose likelihood is
    # zero (-inf); with pruning off the bound is the lowest float, so that
    # the scan still finds the latter
    bound = (lse + math.log(cfg.prob_floor) if cfg.prob_floor
             else -sys.float_info.max)
    drop = log_joint[1:] < bound
    if oldest >= cfg.max_run_length:
        drop[-1] = True
    gone, = drop.nonzero()
    if gone.size:
        gone += 1
        dropped = log_joint[gone]
        dropped = dropped[dropped > -math.inf]  # only these hold mass
        if dropped.size:
            # reduceat adds as _advance's row segments do; a plain sum
            # pairs the terms and changes the last bits
            peak = dropped.max()
            mass = peak + np.log(np.add.reduceat(np.exp(dropped - peak), [0]))
            log_joint[0] = np.logaddexp(log_joint[0], mass[0])
        log_joint[gone] = -math.inf
    col = int(log_joint.argmax())
    gamma = int(runs[col])
    peak = log_joint[col]  # the maximum, as a second max would find
    map_prob = float(np.exp(peak - (peak + np.log(
        np.exp(log_joint - peak).sum()))))
    if gone.size:
        live = np.ones(n + 1, dtype=bool)
        live[gone] = False
        runs, log_joint, mu, beta = (runs[live], log_joint[live], mu[live],
                                     beta[live])
    new_state = RunLengthState(t=t, runs=runs, log_joint=log_joint, mu=mu,
                               beta=beta, prev_gamma=gamma,
                               map_probability=map_prob)
    changepoint = None
    if gamma != state.prev_gamma + 1:
        changepoint = Changepoint(ts=ts, step=t, map_run_length=gamma,
                                  probability=map_prob)
    return new_state, changepoint


def detect_series(
    series: MetricSeries,
    cfg: DetectorConfig,
    state: RunLengthState | None = None,
) -> tuple[list[Changepoint], list[RunLengthPoint], RunLengthState]:
    """Run the detector over a series, optionally resuming from a state.

    Returns the emitted changepoints, the per-step MAP run-length trace, and
    the final state (resume-ready: feeding the second half of a series to a
    detector restarted from the midpoint state reproduces the whole-series
    output bit for bit).
    """
    if state is None:
        state = init_state(cfg)
    changepoints: list[Changepoint] = []
    trace: list[RunLengthPoint] = []
    with np.errstate(all="ignore"):  # NumericalError is the only report
        for ts, x in zip(series.timestamps, series.values):
            state, cp = step(state, float(x), cfg, ts=int(ts))
            trace.append(RunLengthPoint(int(ts), state.t, state.prev_gamma,
                                        state.map_probability))
            if cp is not None:
                changepoints.append(cp)
    return changepoints, trace, state


def detect_batch(series: MetricSeries, alphas: Sequence[float],
                 betas: Sequence[float], kappas: Sequence[float],
                 cfg: DetectorConfig) -> tuple[np.ndarray, np.ndarray,
                                               np.ndarray]:
    """Run one detector per prior of the grid ``alphas`` x ``betas`` x
    ``kappas`` over a series in a single vectorized pass.

    The priors have mu = 0, as the tune grid pins it, and share ``cfg``'s
    hazard, pruning and predictive scale (``cfg.prior`` is ignored). Rows
    are in :func:`depegwatch.evaluation.grid_configs` order: alpha slowest,
    kappa fastest. Each prior sees exactly the recursion of :func:`step`;
    only the summation order inside the row log-sum-exps differs. Returns a
    (priors, T) mask of the steps that emit a changepoint, the final run
    lengths (n,) and the final (priors, n) log-joint block, in which a
    prior's pruned hypotheses are -inf.

    The block is factored (see :func:`_advance`): the Normal-Gamma means
    are kept per kappa, the rates per (beta, kappa) and the run-length
    tables per alpha and (alpha, kappa). Columns are indexed by start step,
    last step first, so no hypothesis moves: at step t the fresh hypothesis
    takes column T - t and a column's run length is its index minus T - t.
    Each step touches only the columns up to the oldest hypothesis still
    live in any row.
    """
    values = series.values
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValidationError(
            f"observation at step {bad[0] + 1} is not finite")
    n_steps = len(values)
    n_priors = len(alphas) * len(betas) * len(kappas)
    prior_beta = np.array(betas, dtype=float)[:, None]
    tables = _run_tables(np.array(alphas, dtype=float),
                         np.array(kappas, dtype=float),
                         max(min(n_steps, cfg.max_run_length + 1), 1))
    log_joint = np.full((n_priors, n_steps + 1), -math.inf)
    mu = np.empty((len(kappas), n_steps + 1))
    beta = np.empty((len(betas), len(kappas), n_steps + 1))
    log_joint[:, n_steps] = 0.0
    mu[:, n_steps], beta[..., n_steps] = 0.0, prior_beta
    all_runs = np.arange(n_steps + 1)
    emits = np.zeros((n_priors, n_steps), dtype=bool)
    prev_gamma = np.zeros(n_priors, dtype=np.int64)
    lo, end = n_steps, n_steps + 1  # the live columns are lo..end-1
    with np.errstate(all="ignore"):  # NumericalError is the only report
        for t in range(1, n_steps + 1):
            lo = n_steps - t
            width = end - lo
            window = _Tables(*(table[..., :width - 1] for table in tables))
            map_col = _advance(
                float(values[t - 1]), log_joint[:, lo:end], mu[:, lo:end],
                beta[..., lo:end], window, all_runs[:width], 0.0, prior_beta,
                cfg, t)
            emits[:, t - 1] = map_col != prev_gamma + 1
            prev_gamma = map_col
            # the window ends at its oldest column until every row lost it
            if not (log_joint[:, end - 1] > -math.inf).any():
                live = np.flatnonzero(
                    (log_joint[:, lo:end] > -math.inf).any(axis=0))
                end = lo + int(live[-1]) + 1
    return emits, all_runs[:end - lo], log_joint[:, lo:end]


STATE_VERSION = 2  # version 1 also stored the alpha and kappa arrays


def state_to_dict(state: RunLengthState, cfg: DetectorConfig) -> dict:
    """Versioned, JSON-ready snapshot with log-space values.

    Floats survive JSON round-trips exactly (shortest-repr encoding), so a
    resumed detector continues bit-identically.
    """
    return {
        "version": STATE_VERSION,
        "t": state.t,
        "prev_gamma": state.prev_gamma,
        "map_probability": state.map_probability,
        "runs": state.runs.tolist(),
        "log_joint": state.log_joint.tolist(),
        "mu": state.mu.tolist(),
        "beta": state.beta.tolist(),
        "config": {
            "hazard_lambda": cfg.hazard_lambda,
            "prob_floor": cfg.prob_floor,
            "max_run_length": cfg.max_run_length,
            "predictive_scale": cfg.predictive_scale,
            "prior": {"mu": cfg.prior.mu, "alpha": cfg.prior.alpha,
                      "beta": cfg.prior.beta, "kappa": cfg.prior.kappa},
        },
    }


def state_from_dict(doc: dict, source: str = "state"
                    ) -> tuple[RunLengthState, DetectorConfig]:
    """Read a version-2 or version-1 snapshot (version 1's alpha and kappa
    arrays equal the run-length tables, so they are not read); errors name
    ``source``. The config must be complete: a default would resume a
    different detector."""
    version = from_json(int, doc.get("version"), source, "version")
    if version not in (1, STATE_VERSION):
        raise ValidationError(f"{source}: unsupported state version "
                              f"{version}; expected 1 or {STATE_VERSION}")
    config = doc.get("config", {})
    cfg = from_json(DetectorConfig, config, source, "config")
    for f in fields(DetectorConfig):
        if f.name not in config:
            raise ValidationError(f"{source}: missing field config.{f.name}")
    state = from_json(RunLengthState, doc, source)
    runs = state.runs
    if not (runs.size == state.log_joint.size == state.mu.size
            == state.beta.size >= 1 and 0 <= runs[0] <= runs[-1]
            <= min(state.t, cfg.max_run_length) and np.all(np.diff(runs) > 0)):
        raise ValidationError(f"{source}: misaligned arrays, or runs outside "
                              "[0, min(t, max_run_length)] or not rising")
    # json reads NaN and Infinity, which would poison every later step; a
    # log_joint with no finite entry is a posterior with no mass
    if not ((state.log_joint < math.inf).all()
            and np.isfinite(state.log_joint).any()
            and np.isfinite(state.mu).all()
            and (state.beta > 0).all() and np.isfinite(state.beta).all()):
        raise ValidationError(f"{source}: log_joint must be below +inf and "
                              "not all -inf, mu finite and beta finite and "
                              "> 0, with no NaN")
    return state, cfg

"""Independent oracles shared by the unit and acceptance suites.

Nothing here reuses the library's sequential code paths: run-length
posteriors come from explicit path enumeration with batch-form parameter
updates and scipy densities, and PIN test data is drawn from the mixture's
generative story directly.

``log_sum_exp`` and ``posterior`` are the scalar log-sum-exp and
``RunLengthState.posterior`` that the library dropped when its kernel began
to prune and pick the MAP in log space; tests read a state's run-length
posterior through them.

The scalar detector below is the original one-prior, one-step recursion that
the batched kernel in ``depegwatch.bocd`` replaced. It keeps the Normal-Gamma
``alpha`` and ``kappa`` arrays per hypothesis, recomputes the Student-t
normaliser on every step, and serves as the reference for the batched
``tune`` and for version-1 state documents.

``batch_detect`` is ``bocd.detect_batch`` from before its block was
factored over the grid's axes: it takes a list of priors and keeps every
quantity and every run-length table once per prior, merges pruned rows with
``np.unique`` and scans the whole block for the live window every step.
The factored kernel must equal it bit for bit.

``grid_step`` is ``bocd.step`` from before it worked on the state's flat
arrays: it copies the state into a 1x1x1 block and runs the batched kernel
``bocd._advance`` on it, computes the MAP probability with a second row
log-sum-exp and compacts after a ``min()`` scan. ``_advance`` itself is
checked against ``batch_detect`` below. The flat ``step`` must equal
``grid_step`` bit for bit.

``run_tables`` and ``pin_counts`` are ``bocd._run_tables`` and
``metrics._pin_counts`` from before the library computed log Gamma with its
own port of cephes ``lgam``: they call ``scipy.special.gammaln`` on every
entry, and the library must equal them bit for bit.

``pin_likelihood`` below is the PIN mixture likelihood from before the
library scored every point in one batched block: one branch array per
mixture component, combined by ``scipy.special.logsumexp``. The library's
block must equal it bit for bit. ``estimate_pin`` is the PIN fit from
before all Nelder-Mead starts ran as one array search: one
``scipy.optimize.minimize`` call per start on a scalar likelihood, by
default the reference one. The array search must match it bit for bit.

``aggregate`` is the bucketing loop from before the library bucketed
columns with ``np.bincount``: it writes every point into numpy arrays, one
scalar at a time. The library must equal it bit for bit.

The swap functions at the end are the StableSwap output path from before D
was cached on the pool state: every call re-solves D with ``compute_d``, and
``marginal_price`` differences two ``get_dy`` calls on a fee-free copy of the
state. ``compute_d`` and ``_solve_balance`` are frozen copies of the
``PoolState``-based solvers from before the library moved to kernels over
balance tuples (``compute_d`` also returns the iteration count and the
residual, which the library no longer keeps), and ``arb_size`` is the
simulator's arbitrage bisection from before its trials skipped building a
``PoolState``. The library must match all of them bit for bit.

``run_scenario`` is the simulator loop from before it stepped on a balance
list and one cached D: it builds a ``PoolState`` per trade and prices
through the D-resolving swap functions. The library must equal it field
for field.

``PriceTable`` is the nearest-sample lookup from before every library
lookup went through ``np.searchsorted``: it bisects an int64 array, one
time at a time. The library's ``lookup`` and ``at``, and the share price
marked through ``lookup_all``, must equal it.

The trade metrics at the end (``net_swap_flow``, ``pool_markout_series``,
``classify_sharks``, ``shark_flow`` and ``order_count_buckets``) walk the
trades one at a time, look up two mark prices per trade through
``PriceTable.at`` and bucket with ``aggregate`` above. The library's
columnar versions must equal them bit for bit.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy import stats
from scipy.optimize import minimize
from scipy.special import gammaln, logsumexp

from depegwatch.bocd import (
    PREDICTIVE_SCALES,
    Changepoint,
    DetectorConfig,
    NGParams,
    RunLengthPoint,
    RunLengthState,
    _advance,
    _prior_tables,
    _Tables,
    hazard,
)
from depegwatch import simulator
from depegwatch.core import (
    EventStream,
    LiquidityEvent,
    MetricSeries,
    MissingPriceError,
    NumericalError,
    PriceSample,
    ReserveSnapshot,
    TradeEvent,
    ValidationError,
)
from depegwatch.metrics import PinParams, _logit, _pin_from_vector
from depegwatch.stableswap import (
    PoolState,
    lp_share_price,
    virtual_price,
)
from depegwatch.evaluation import (
    GridSpace,
    ScoreReport,
    ScoringConfig,
    grid_configs,
    lf_score,
)


def log_sum_exp(values: np.ndarray) -> float:
    """Stable log(sum(exp(values))) for 1-d arrays; -inf for empty input."""
    if values.size == 0:
        return -math.inf
    peak = values.max()
    if not math.isfinite(peak):
        return float(peak)
    return float(peak + math.log(np.exp(values - peak).sum()))


def posterior(log_joint: np.ndarray) -> np.ndarray:
    """The run-length posterior of a state's ``log_joint``."""
    return np.exp(log_joint - log_sum_exp(log_joint))


def batch_posterior(prior: NGParams, seg) -> NGParams:
    """Normal-Gamma posterior from a whole segment at once."""
    m = len(seg)
    if m == 0:
        return prior
    y = np.asarray(seg, dtype=float)
    ybar = float(y.mean())
    kappa_m = prior.kappa + m
    return NGParams(
        mu=(prior.kappa * prior.mu + y.sum()) / kappa_m,
        alpha=prior.alpha + m / 2.0,
        beta=(prior.beta + 0.5 * float(((y - ybar) ** 2).sum())
              + prior.kappa * m * (ybar - prior.mu) ** 2 / (2.0 * kappa_m)),
        kappa=kappa_m,
    )


def scipy_t_logpdf(x: float, p: NGParams, mode: str) -> float:
    if mode == "paper":
        scale_sq = p.beta / (p.alpha * p.kappa)
    else:
        scale_sq = p.beta * (p.kappa + 1.0) / (p.alpha * p.kappa)
    return float(stats.t.logpdf(x, df=2.0 * p.alpha, loc=p.mu,
                                scale=math.sqrt(scale_sq)))


def brute_force_run_length_posteriors(xs, cfg: DetectorConfig):
    """Per-step run-length posteriors by enumerating every reset/grow path.

    Each path assigns every step a reset (hazard H) or a growth (1 - H); the
    observation at step t is scored by the predictive fitted on the current
    segment's earlier observations.
    """
    T = len(xs)
    H = 1.0 / cfg.hazard_lambda
    pred = {}
    for t in range(1, T + 1):
        for r in range(t):
            params = batch_posterior(cfg.prior, xs[t - 1 - r:t - 1])
            pred[(r, t)] = scipy_t_logpdf(xs[t - 1], params,
                                          cfg.predictive_scale)
    posteriors = []
    for t in range(1, T + 1):
        acc: dict[int, float] = {}
        for bits in range(2**t):
            r = 0
            logw = 0.0
            for s in range(1, t + 1):
                logw += pred[(r, s)]
                if (bits >> (s - 1)) & 1:
                    logw += math.log(H)
                    r = 0
                else:
                    logw += math.log1p(-H)
                    r += 1
            acc[r] = acc.get(r, 0.0) + math.exp(logw)
        z = sum(acc.values())
        posteriors.append({r: v / z for r, v in acc.items()})
    return posteriors


def generate_pin_buckets(n, alpha, theta, eps_i, eps_b, eps_s, seed):
    """Synthetic (buys, sells) counts drawn from the informed-trading
    mixture itself."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    out = []
    for _ in range(n):
        if rng.random() < alpha:
            if rng.random() < theta:
                b, s = rng.poisson(eps_b), rng.poisson(eps_i + eps_s)
            else:
                b, s = rng.poisson(eps_i + eps_b), rng.poisson(eps_s)
        else:
            b, s = rng.poisson(eps_b), rng.poisson(eps_s)
        out.append((int(b), int(s)))
    return out


def pin_counts(windows) -> np.ndarray:
    """The (12 x window x bucket) count block, with ``gammaln(k + 1)`` of
    all six count rows (reference for ``metrics._pin_counts``)."""
    b = np.array([[bucket[0] for bucket in w] for w in windows], dtype=float)
    s = np.array([[bucket[1] for bucket in w] for w in windows], dtype=float)
    if np.any(b < 0) or np.any(s < 0):
        raise ValidationError("order counts must be non-negative")
    k = np.stack([b, s, b, s, b, s])
    return np.concatenate([k, gammaln(k + 1)])


def _poisson_logpmf(k: np.ndarray, rate: float) -> np.ndarray:
    # log of rate^k e^-rate / k!, with 0^0 treated as 1
    if rate == 0:
        return np.where(k == 0, 0.0, -np.inf)
    return k * math.log(rate) - rate - gammaln(k + 1)


def pin_likelihood(buckets: Sequence[tuple[int, int]], params: PinParams) -> float:
    """Mixture log likelihood with scipy's ``logsumexp`` (reference for
    ``metrics._pin_objective``); invalid parameters score -inf."""
    if not (0 <= params.alpha <= 1 and 0 <= params.theta <= 1
            and params.eps_i >= 0 and params.eps_b >= 0 and params.eps_s >= 0):
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


def estimate_pin(buckets, tol=1e-8, likelihood=pin_likelihood):
    """One scipy Nelder-Mead search per start, one ``likelihood`` call per
    evaluation (reference for ``metrics.estimate_pin``)."""
    if len(buckets) < 2:
        raise ValidationError("PIN estimation needs at least 2 buckets")
    mean_b = max(float(np.mean([b for b, _ in buckets])), 0.1)
    mean_s = max(float(np.mean([s for _, s in buckets])), 0.1)
    rate_starts = [
        (0.5 * (mean_b + mean_s), mean_b, mean_s),
        (mean_b + mean_s, 0.5 * mean_b, 0.5 * mean_s),
    ]

    def objective(u):
        return -likelihood(buckets, _pin_from_vector(u))

    best = None
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


def bucket_end(ts, period):
    """End label of the right-closed period bucket ``((k-1)*period,
    k*period]`` containing ``ts``; ts = 0 opens the first bucket."""
    if ts < 0:
        raise ValidationError("timestamps must be non-negative")
    label = -(-ts // period) * period
    return label if label > 0 else period


def aggregate(points, period, mode, *, metric_name="", pool_id=""):
    """Bucketing into numpy arrays, one scalar write per point (reference
    for ``core.aggregate``)."""
    if period <= 0:
        raise ValidationError("period must be positive")
    if mode not in ("sum", "last", "mean"):
        raise ValidationError(f"unknown aggregation mode {mode!r}")
    pts = sorted(points, key=lambda p: p[0])
    if not pts:
        return MetricSeries(metric_name, pool_id, np.array([], dtype=np.int64),
                            np.array([], dtype=np.float64))

    first = bucket_end(pts[0][0], period)
    last = bucket_end(pts[-1][0], period)
    labels = np.arange(first, last + period, period, dtype=np.int64)
    sums = np.zeros(labels.size)
    counts = np.zeros(labels.size)
    lasts = np.full(labels.size, np.nan)
    for ts, value in pts:
        k = (bucket_end(ts, period) - first) // period
        sums[k] += value
        counts[k] += 1
        lasts[k] = value

    out = np.empty(labels.size)
    if mode == "sum":
        out[:] = sums
    else:
        carried = math.nan
        for k in range(labels.size):
            if counts[k]:
                carried = lasts[k] if mode == "last" else sums[k] / counts[k]
            out[k] = carried
    return MetricSeries(metric_name, pool_id, labels, out)


# ---------------------------------------------------------------------------
# Scalar run-length recursion (reference for the batched kernel)


@dataclass(frozen=True)
class ScalarState:
    """Run-length posterior with explicit per-hypothesis Normal-Gamma
    parameters, as the version-1 state document stores it."""

    t: int
    runs: np.ndarray
    log_joint: np.ndarray
    mu: np.ndarray
    kappa: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    prev_gamma: int
    map_probability: float = 1.0


def _t_logpdf_arrays(x, mu, alpha, beta, kappa, scale_mode):
    nu = 2.0 * alpha
    if scale_mode == "paper":
        sigma_sq = beta / (alpha * kappa)
    else:
        sigma_sq = beta * (kappa + 1.0) / (alpha * kappa)
    z_sq = (x - mu) ** 2 / (nu * sigma_sq)
    return (gammaln((nu + 1.0) / 2.0) - gammaln(nu / 2.0)
            - 0.5 * np.log(nu * math.pi * sigma_sq)
            - (nu + 1.0) / 2.0 * np.log1p(z_sq))


def run_tables(alpha0: np.ndarray, kappa0: np.ndarray, n: int):
    """The seven (prior x run length) tables that ``bocd._run_tables`` built
    one row per prior before the block was factored, the Student-t
    normaliser from ``gammaln`` on every entry: kappa_r, kappa_{r+1},
    alpha_r * kappa_r, nu_r, nu_r * pi, (nu_r + 1) / 2, log normaliser."""
    def grown(start, inc, size):
        steps = np.full((start.size, size), inc)
        steps[:, 0] = start
        return np.add.accumulate(steps, axis=1)

    alpha = grown(alpha0, 0.5, n)
    kappa_all = grown(kappa0, 1.0, n + 1)
    kappa = kappa_all[:, :n]
    nu = 2.0 * alpha
    half_nu1 = (nu + 1.0) / 2.0
    return (kappa, kappa_all[:, 1:], alpha * kappa, nu, nu * math.pi,
            half_nu1, gammaln(half_nu1) - gammaln(nu / 2.0))


def student_t_logpdf(x: float, p: NGParams,
                     scale_mode: str = "paper") -> float:
    """Log density of the Student-t predictive at ``x``."""
    if scale_mode not in PREDICTIVE_SCALES:
        raise ValidationError(f"scale_mode must be one of {PREDICTIVE_SCALES}")
    return float(_t_logpdf_arrays(
        x, np.array([p.mu]), np.array([p.alpha]),
        np.array([p.beta]), np.array([p.kappa]), scale_mode)[0])


def ng_update(p: NGParams, x: float) -> NGParams:
    """Posterior Normal-Gamma parameters after observing ``x``."""
    return NGParams(
        mu=(p.kappa * p.mu + x) / (p.kappa + 1.0),
        alpha=p.alpha + 0.5,
        beta=p.beta + p.kappa * (x - p.mu) ** 2 / (2.0 * (p.kappa + 1.0)),
        kappa=p.kappa + 1.0,
    )


def scalar_init_state(cfg: DetectorConfig) -> ScalarState:
    p = cfg.prior
    return ScalarState(t=0, runs=np.array([0], dtype=np.int64),
                       log_joint=np.array([0.0]), mu=np.array([p.mu]),
                       kappa=np.array([p.kappa]), alpha=np.array([p.alpha]),
                       beta=np.array([p.beta]), prev_gamma=0)


def scalar_step(state: ScalarState, x: float, cfg: DetectorConfig,
                ts: int = 0) -> tuple[ScalarState, Changepoint | None]:
    """One Adams & MacKay update for one prior; ties at the MAP resolve to
    the smallest run length, pruned mass goes to run length zero."""
    if not math.isfinite(x):
        raise ValidationError(f"observation at step {state.t + 1} is not finite")
    h = hazard(cfg)
    log_pred = _t_logpdf_arrays(x, state.mu, state.alpha, state.beta,
                                state.kappa, cfg.predictive_scale)
    weighted = state.log_joint + log_pred
    log_r0 = log_sum_exp(weighted) + math.log(h)

    runs = np.concatenate(([0], state.runs + 1))
    log_joint = np.concatenate(([log_r0], weighted + math.log1p(-h)))
    prior = cfg.prior
    kappa1 = state.kappa + 1.0
    mu = np.concatenate(([prior.mu], (state.kappa * state.mu + x) / kappa1))
    alpha = np.concatenate(([prior.alpha], state.alpha + 0.5))
    beta = np.concatenate(
        ([prior.beta],
         state.beta + state.kappa * (x - state.mu) ** 2 / (2.0 * kappa1)))
    kappa = np.concatenate(([prior.kappa], kappa1))

    posterior = np.exp(log_joint - log_sum_exp(log_joint))
    keep = (posterior >= cfg.prob_floor) & (runs <= cfg.max_run_length)
    keep[0] = True
    if not keep.all():
        dropped = log_joint[~keep]
        log_joint = log_joint.copy()
        log_joint[0] = np.logaddexp(log_joint[0], log_sum_exp(dropped))
        runs, log_joint = runs[keep], log_joint[keep]
        mu, alpha, beta, kappa = mu[keep], alpha[keep], beta[keep], kappa[keep]
        posterior = np.exp(log_joint - log_sum_exp(log_joint))

    map_idx = int(np.argmax(posterior))
    gamma = int(runs[map_idx])
    map_prob = float(posterior[map_idx])
    t = state.t + 1
    new_state = ScalarState(t=t, runs=runs, log_joint=log_joint, mu=mu,
                            kappa=kappa, alpha=alpha, beta=beta,
                            prev_gamma=gamma, map_probability=map_prob)
    changepoint = None
    if gamma != state.prev_gamma + 1:
        changepoint = Changepoint(ts=ts, step=t, map_run_length=gamma,
                                  probability=map_prob)
    return new_state, changepoint


def scalar_detect_series(series: MetricSeries, cfg: DetectorConfig,
                         state: ScalarState | None = None):
    """The scalar loop over a series: (changepoints, trace, final state)."""
    state = state or scalar_init_state(cfg)
    changepoints, trace = [], []
    for ts, x in zip(series.timestamps, series.values):
        state, cp = scalar_step(state, float(x), cfg, ts=int(ts))
        trace.append(RunLengthPoint(int(ts), state.t, state.prev_gamma,
                                    state.map_probability))
        if cp is not None:
            changepoints.append(cp)
    return changepoints, trace, state


def scalar_state_v1(state: ScalarState, cfg: DetectorConfig) -> dict:
    """The version-1 state document, alpha and kappa arrays included."""
    return {
        "version": 1, "t": state.t, "prev_gamma": state.prev_gamma,
        "map_probability": state.map_probability,
        "runs": [int(r) for r in state.runs],
        **{key: [float(v) for v in getattr(state, key)]
           for key in ("log_joint", "mu", "kappa", "alpha", "beta")},
        "config": {
            "hazard_lambda": cfg.hazard_lambda, "prob_floor": cfg.prob_floor,
            "max_run_length": cfg.max_run_length,
            "predictive_scale": cfg.predictive_scale,
            "prior": {"mu": cfg.prior.mu, "alpha": cfg.prior.alpha,
                      "beta": cfg.prior.beta, "kappa": cfg.prior.kappa},
        },
    }


def scalar_tune(train_series: MetricSeries, labels: Sequence[int],
                space: GridSpace, scoring_cfg: ScoringConfig,
                base: DetectorConfig):
    """Grid search with one scalar detection per prior. Returns the chosen
    prior, its report (F, then P, then smallest exponents) and every
    prior's (changepoint steps, final state) in grid order."""
    def key(p):
        return (math.log(p.alpha, 10.0), math.log(p.beta, 10.0),
                math.log(p.kappa, 10.0))

    best, runs = None, []
    for prior in grid_configs(space):
        cfg = DetectorConfig(hazard_lambda=base.hazard_lambda, prior=prior,
                             prob_floor=base.prob_floor,
                             max_run_length=base.max_run_length,
                             predictive_scale=base.predictive_scale)
        changepoints, _, final = scalar_detect_series(train_series, cfg)
        runs.append(([cp.step for cp in changepoints], final))
        report = lf_score(labels, [cp.ts for cp in changepoints],
                          scoring_cfg, prior=prior)
        rank = (report.lf_score, report.precision)
        if (best is None or rank > best[0]
                or (rank == best[0] and key(prior) < key(best[1]))):
            best = (rank, prior, report)
    _, prior, report = best
    if report.lf_score == 0.0:
        report = ScoreReport(
            precision=report.precision, weighted_recall=report.weighted_recall,
            lf_score=report.lf_score, matches=report.matches,
            false_positives=report.false_positives, prior=report.prior,
            note="no configuration scored above zero; returned tie-break minimum")
    return prior, report, runs


def _row_lse(values: np.ndarray) -> np.ndarray:
    peak = values.max(axis=1, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0
    return peak[:, 0] + np.log(np.exp(values - peak).sum(axis=1))


def _batch_advance(x, log_joint, mu, beta, tables, runs, prior_mu,
                   prior_beta, cfg):
    """One step of B detectors, every quantity one row per prior; returns
    each row's MAP column."""
    kappa, kappa1, alpha_kappa, nu, nu_pi, half_nu1, log_norm = tables
    h = hazard(cfg)
    m, b = mu[:, 1:], beta[:, 1:]
    if cfg.predictive_scale == "paper":
        sigma_sq = b / alpha_kappa
    else:
        sigma_sq = b * kappa1 / alpha_kappa
    dev_sq = (x - m) ** 2
    log_pred = (log_norm - 0.5 * np.log(nu_pi * sigma_sq)
                - half_nu1 * np.log1p(dev_sq / (nu * sigma_sq)))
    weighted = log_joint[:, 1:] + log_pred
    log_joint[:, 0] = _row_lse(weighted) + math.log(h)
    np.add(weighted, math.log1p(-h), out=log_joint[:, 1:])
    b += kappa * dev_sq / (2.0 * kappa1)
    m[...] = (kappa * m + x) / kappa1
    mu[:, 0] = prior_mu
    beta[:, 0] = prior_beta

    posterior = np.exp(log_joint - _row_lse(log_joint)[:, None])
    drop = posterior < cfg.prob_floor
    drop[:, runs > cfg.max_run_length] = True
    drop[:, 0] = False
    drop &= log_joint > -math.inf
    rows, cols = np.nonzero(drop)
    if rows.size:
        dropped = log_joint[rows, cols]
        log_joint[rows, cols] = -math.inf
        hit, first, count = np.unique(rows, return_index=True,
                                      return_counts=True)
        peak = np.maximum.reduceat(dropped, first)
        mass = peak + np.log(np.add.reduceat(
            np.exp(dropped - np.repeat(peak, count)), first))
        log_joint[hit, 0] = np.logaddexp(log_joint[hit, 0], mass)
        posterior[hit] = np.exp(
            log_joint[hit] - _row_lse(log_joint[hit])[:, None])
    return posterior.argmax(axis=1)


def batch_detect(series: MetricSeries, priors: Sequence[NGParams],
                 cfg: DetectorConfig):
    """(emits, runs, log_joint) of one detector per prior, as
    ``bocd.detect_batch`` returns them, over a (prior x run length) block
    with every quantity and table kept per prior."""
    values = series.values
    n_priors, n_steps = len(priors), len(values)
    prior_mu = np.array([p.mu for p in priors])
    prior_beta = np.array([p.beta for p in priors])
    tables = run_tables(np.array([p.alpha for p in priors]),
                        np.array([p.kappa for p in priors]),
                        max(min(n_steps, cfg.max_run_length + 1), 1))
    log_joint = np.full((n_priors, n_steps + 1), -math.inf)
    mu = np.empty((n_priors, n_steps + 1))
    beta = np.empty((n_priors, n_steps + 1))
    log_joint[:, n_steps] = 0.0
    mu[:, n_steps], beta[:, n_steps] = prior_mu, prior_beta
    all_runs = np.arange(n_steps + 1)
    emits = np.zeros((n_priors, n_steps), dtype=bool)
    prev_gamma = np.zeros(n_priors, dtype=np.int64)
    lo, end = n_steps, n_steps + 1
    for t in range(1, n_steps + 1):
        lo = n_steps - t
        width = end - lo
        map_col = _batch_advance(
            float(values[t - 1]), log_joint[:, lo:end], mu[:, lo:end],
            beta[:, lo:end], [table[:, :width - 1] for table in tables],
            all_runs[:width], prior_mu, prior_beta, cfg)
        emits[:, t - 1] = map_col != prev_gamma + 1
        prev_gamma = map_col
        live = np.flatnonzero((log_joint[:, lo:end] > -math.inf).any(axis=0))
        end = lo + int(live[-1]) + 1
    return emits, all_runs[:end - lo], log_joint[:, lo:end]


def grid_step(state: RunLengthState, x: float, cfg: DetectorConfig,
              ts=0) -> tuple[RunLengthState, Changepoint | None]:
    """``bocd.step`` as the batched kernel on a 1x1x1 grid: the state is
    copied into a (3, 1, 1, n + 1) block, ``bocd._advance`` prunes row-wise,
    a second row log-sum-exp gives the MAP probability and a ``min()`` scan
    decides whether to compact."""
    if not math.isfinite(x):
        raise ValidationError(f"observation at step {state.t + 1} is not finite")
    n = state.runs.size
    oldest = int(state.runs[-1])
    stacked = _prior_tables(cfg.prior.alpha, cfg.prior.kappa,
                            min(cfg.max_run_length + 1,
                                1 << oldest.bit_length()))
    tables = _Tables(*stacked[:, :n] if oldest == n - 1
                     else stacked[:, state.runs])
    block = np.empty((3, 1, 1, n + 1))
    log_joint, mu, beta = block[0, 0], block[1, 0], block[2]
    log_joint[0, 1:], mu[0, 1:], beta[0, 0, 1:] = (state.log_joint,
                                                   state.mu, state.beta)
    runs = np.empty(n + 1, dtype=np.int64)
    runs[0] = 0
    np.add(state.runs, 1, out=runs[1:])
    t = state.t + 1
    map_col = _advance(x, log_joint, mu, beta, tables, runs, cfg.prior.mu,
                       cfg.prior.beta, cfg, t)
    col = int(map_col[0])
    gamma = int(runs[col])
    map_prob = float(np.exp(log_joint[:, col] - _row_lse(log_joint))[0])
    log_joint, mu, beta = log_joint[0], mu[0], beta[0, 0]
    if log_joint.min() == -math.inf:
        live = log_joint > -math.inf
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


# ---------------------------------------------------------------------------
# Swap outputs with D re-solved on every call (reference for PoolState.d)


MAX_ITERATIONS = 255
REL_TOL = 1e-10


@dataclass(frozen=True)
class InvariantSolution:
    d: float
    iterations: int
    residual: float


def invariant_residual(state: PoolState, d: float) -> float:
    n = state.n
    ann = state.amp * n**n
    s = sum(state.balances)
    prod = math.prod(state.balances)
    return ann * s + d - ann * d - d ** (n + 1) / (n**n * prod)


def compute_d(state: PoolState) -> InvariantSolution:
    if any(b <= 0 for b in state.balances):
        raise ValidationError("D requires strictly positive balances")
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


def _solve_balance(state: PoolState, j: int, others: Sequence[float],
                   d: float) -> float:
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


def get_dy(state: PoolState, i: int, j: int, dx: float) -> float:
    if i == j:
        raise ValidationError("swap requires distinct token indices")
    if not 0 <= i < state.n or not 0 <= j < state.n:
        raise ValidationError("token index out of range")
    if dx < 0:
        raise ValidationError("dx must be non-negative")
    if dx == 0:
        return 0.0
    d = compute_d(state).d
    others = [
        state.balances[k] + (dx if k == i else 0.0)
        for k in range(state.n)
        if k != j
    ]
    y = _solve_balance(state, j, others, d)
    if not math.isfinite(y) or y <= 0:
        raise ValidationError("swap would drain the pool")
    gross = state.balances[j] - y
    if gross < 0:  # float noise at dx -> 0
        gross = 0.0
    return gross * (1.0 - state.fee)


def apply_swap(state: PoolState, i: int, j: int,
               dx: float) -> tuple[PoolState, float]:
    dy = get_dy(state, i, j, dx)
    balances = list(state.balances)
    balances[i] += dx
    balances[j] -= dy
    return replace(state, balances=tuple(balances)), dy


def marginal_price(state: PoolState, i: int, j: int) -> float:
    if i == j:
        raise ValidationError("marginal price requires distinct token indices")
    free = replace(state, fee=0.0)
    h = 1e-6 * state.balances[i]
    if h <= 0:
        raise ValidationError("marginal price requires a positive balance")
    return (get_dy(free, i, j, 1.5 * h) - get_dy(free, i, j, 0.5 * h)) / h


def arb_size(state: PoolState, i: int, j: int, target_ratio: float) -> float:
    lo, hi = 0.0, 0.45 * state.balances[i]
    if marginal_price(apply_swap(state, i, j, hi)[0], i, j) > target_ratio:
        return hi
    for _ in range(24):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        trial = apply_swap(state, i, j, mid)[0]
        if marginal_price(trial, i, j) > target_ratio:
            lo = mid
        else:
            hi = mid
    return lo


def run_scenario(cfg):
    """``simulator.run_scenario`` as it stepped one ``PoolState`` per trade:
    every swap, marginal price and arbitrage trial goes through the
    D-resolving functions above (reference for the balance-list loop)."""
    paths = {token: simulator.external_price_path(cfg, token)
             for token in cfg.tokens}
    rng = simulator._stream_rng(cfg.seed, simulator._AGENT_STREAM)
    state = cfg.pool
    trades, liquidity, snapshots, price_samples = [], [], [], []
    truncated = False
    for token in cfg.tokens:
        price_samples.append(PriceSample(0, token,
                                         float(paths[token].values[0])))
    min_balance = 1e-9 * max(cfg.pool.balances)
    n_steps = cfg.duration // cfg.step
    for k in range(1, n_steps + 1):
        t = k * cfg.step
        ext = {token: float(paths[token].values[k]) for token in cfg.tokens}

        def try_swap(i, j, dx, trader):
            nonlocal state
            if dx <= 0:
                return
            new_state, dy = apply_swap(state, i, j, dx)
            if dy <= 0 or new_state.balances[j] <= min_balance:
                raise ValidationError("pool drained")
            state = new_state
            trades.append(TradeEvent(t, trader, cfg.tokens[i], dx,
                                     cfg.tokens[j], dy))

        try:
            for token in simulator._informed_targets(cfg, t):
                if cfg.n_informed <= 0:
                    break
                i = cfg.tokens.index(token)
                j = 1 if i == 0 else 0
                per_agent = (cfg.informed_fraction * state.balances[i]
                             / cfg.n_informed)
                for a in range(cfg.n_informed):
                    try_swap(i, j, per_agent, f"informed_{a}")
            for i in range(len(cfg.tokens)):
                for j in range(len(cfg.tokens)):
                    if i == j:
                        continue
                    ratio = ext[cfg.tokens[i]] / ext[cfg.tokens[j]]
                    if (marginal_price(state, i, j) / ratio - 1.0
                            > cfg.arb_threshold):
                        try_swap(i, j, arb_size(state, i, j, ratio), "arb")
            for a in range(cfg.n_noise_traders):
                i = int(rng.integers(0, len(cfg.tokens)))
                j = int(rng.integers(0, len(cfg.tokens) - 1))
                if j >= i:
                    j += 1
                size = cfg.noise_fraction * state.balances[i] * \
                    math.exp(0.5 * rng.standard_normal())
                try_swap(i, j, size, f"noise_{a}")
            if cfg.lp_event_prob > 0 and rng.random() < cfg.lp_event_prob:
                frac = cfg.lp_fraction * (0.5 + rng.random())
                sign = 1.0 if rng.random() < 0.5 else -1.0
                deltas = {token: sign * frac * bal
                          for token, bal in zip(cfg.tokens, state.balances)}
                lp_delta = sign * frac * state.lp_supply
                balances = tuple(b + deltas[token] for token, b
                                 in zip(cfg.tokens, state.balances))
                state = replace(state, balances=balances,
                                lp_supply=state.lp_supply + lp_delta)
                liquidity.append(LiquidityEvent(t, "lp_0", deltas, lp_delta))
        except ValidationError:
            truncated = True
        for token in cfg.tokens:
            price_samples.append(PriceSample(t, token, ext[token]))
        if t % cfg.snapshot_period == 0:
            snapshots.append(ReserveSnapshot(t, state.balances,
                                             state.lp_supply))
        if truncated:
            break
    stream = EventStream(pool_id="scenario", tokens=cfg.tokens,
                         trades=tuple(trades), liquidity=tuple(liquidity),
                         snapshots=tuple(snapshots))
    return simulator.ScenarioOutput(
        stream=stream, prices=tuple(price_samples), external_prices=paths,
        config=cfg, final_pool=state, truncated=truncated)


# ---------------------------------------------------------------------------
# Nearest-sample price lookup on int64 arrays (reference for PriceTable),
# and the share price marked through it


class PriceTable:
    def __init__(self, samples):
        by_token = {}
        for s in samples:
            by_token.setdefault(s.token, []).append((s.ts, s.usd_price))
        self._data = {}
        for token, pairs in by_token.items():
            pairs.sort(key=lambda p: p[0])
            ts = np.array([p[0] for p in pairs], dtype=np.int64)
            px = np.array([p[1] for p in pairs])
            self._data[token] = (ts, px)

    def lookup(self, token, ts, tol):
        entry = self._data.get(token)
        if entry is None:
            return None
        times, prices = entry
        i = bisect_left(times, ts)
        best = None
        for j in (i - 1, i):
            if 0 <= j < times.size:
                dist = abs(int(times[j]) - ts)
                if dist <= tol and (best is None or dist < best[0]):
                    best = (dist, float(prices[j]))
        return None if best is None else best[1]

    def at(self, token, ts, tol):
        price = self.lookup(token, ts, tol)
        if price is None:
            raise MissingPriceError(
                f"no price for {token.symbol} within {tol}s of ts {ts}"
            )
        return price


def share_price_series(stream, prices, entry, period=3600):
    """``pipeline.share_price_series`` one snapshot at a time, each token
    marked through ``prices.at``."""
    sp_points, vp_points = [], []
    for snap in stream.snapshots:
        state = PoolState(balances=snap.balances, amp=entry.amp,
                          fee=entry.fee, lp_supply=snap.lp_supply)
        price_map = {token: prices.at(token, snap.ts, period)
                     for token in stream.tokens}
        sp_points.append((snap.ts, lp_share_price(state, stream.tokens,
                                                  price_map)))
        vp_points.append((snap.ts, virtual_price(state)))
    return (aggregate(sp_points, period, "last", metric_name="lpSharePrice",
                      pool_id=stream.pool_id),
            aggregate(vp_points, period, "last", metric_name="virtualPrice",
                      pool_id=stream.pool_id))


# ---------------------------------------------------------------------------
# Trade metrics one trade at a time (reference for the columnar metrics)


def _markout(trade, prices, horizon, tolerance):
    mark = trade.ts + horizon
    p_out = prices.at(trade.token_out, mark, tolerance)
    p_in = prices.at(trade.token_in, mark, tolerance)
    return trade.amount_out * p_out - trade.amount_in * p_in


def net_swap_flow(trades, token, window=3600, *, pool_id=""):
    points = []
    for trade in trades:
        if trade.token_out == token:
            points.append((trade.ts, trade.amount_out))
        elif trade.token_in == token:
            points.append((trade.ts, -trade.amount_in))
    return aggregate(points, window, "sum", metric_name="netSwapFlow",
                     pool_id=pool_id)


def pool_markout_series(trades, prices, horizon=300, window=3600, *,
                        pool_id="", tolerance=3600):
    points, skipped = [], 0
    for trade in trades:
        try:
            m = -_markout(trade, prices, horizon, tolerance)
        except MissingPriceError:
            skipped += 1
            continue
        points.append((trade.ts, m))
    return aggregate(points, window, "sum", metric_name="markout",
                     pool_id=pool_id), skipped


def classify_sharks(trades, prices, cfg):
    if not trades:
        raise ValidationError("shark classification needs a non-empty trade corpus")
    cumulative = {}
    for trade in trades:
        try:
            m = _markout(trade, prices, cfg.shark_markout_horizon,
                         cfg.price_tolerance)
        except MissingPriceError:
            continue
        cumulative[trade.trader] = cumulative.get(trade.trader, 0.0) + m
    if not cumulative:
        return set()
    scores = np.array(sorted(cumulative.values()))
    cutoff = float(np.quantile(scores, 1.0 - cfg.shark_quantile,
                               method="higher"))
    return {trader for trader, score in cumulative.items() if score >= cutoff}


def shark_flow(trades, sharks, token, window=3600, *, pool_id=""):
    return net_swap_flow([t for t in trades if t.trader in sharks], token,
                         window, pool_id=pool_id).with_name("sharkflow")


def order_count_buckets(trades, token, bucket=86400):
    legs = [t for t in trades if token in (t.token_in, t.token_out)]
    buys = aggregate([(t.ts, float(t.token_out == token)) for t in legs],
                     bucket, "sum")
    sells = aggregate([(t.ts, float(t.token_in == token)) for t in legs],
                      bucket, "sum")
    return [(int(ts), int(b), int(s)) for ts, b, s
            in zip(buys.timestamps, buys.values, sells.values)]

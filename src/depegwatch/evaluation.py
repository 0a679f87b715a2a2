"""Depeg labelling and leading-indicator scoring.

True depegs are labelled wherever the LP share price sits 5% or more below
the pool's virtual price. Predicted changepoints are scored as leading
indicators: a prediction matches a label when it falls at most M seconds
before it, recall weights each match by how early it was, and the combined
leading F-score drives hyperparameter grid search.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bocd import DetectorConfig, NGParams, detect_batch
from .core import MetricSeries, Timestamp, ValidationError


# (priors x steps) cells per batched detection in score_grid
_BATCH_CELLS = 1 << 20

GRID_BASE = 10.0


@dataclass(frozen=True)
class DepegLabel:
    ts: Timestamp
    deviation: float


@dataclass(frozen=True)
class ScoringConfig:
    margin_m: int = 48 * 3600     # max lead for a prediction to count, seconds
    f_beta: float = 1.0
    depeg_threshold: float = 0.05

    def __post_init__(self) -> None:
        if self.margin_m <= 0:
            raise ValidationError("margin_m must be positive")
        if not self.f_beta > 0:
            raise ValidationError("f_beta must be positive")


@dataclass(frozen=True)
class ScoreReport:
    precision: float
    weighted_recall: float
    lf_score: float
    matches: tuple[tuple[Timestamp, Timestamp, float], ...]
    false_positives: tuple[Timestamp, ...]
    scoring: ScoringConfig
    prior: NGParams | None = None
    note: str = ""


@dataclass(frozen=True)
class GridSpace:
    """Log-spaced hyperparameter grid: every (alpha, beta, kappa) equal to
    GRID_BASE**i over the exponent range, mu pinned at zero."""

    exponent_range: tuple[int, int] = (-5, 4)

    def __post_init__(self) -> None:
        lo, hi = self.exponent_range
        if lo > hi:
            raise ValidationError("exponent_range must be non-empty")

    @property
    def exponents(self) -> range:
        return range(self.exponent_range[0], self.exponent_range[1] + 1)


def label_depegs(share_prices: MetricSeries, virtual_prices: MetricSeries,
                 cfg: ScoringConfig | None = None) -> list[DepegLabel]:
    """Label every timestamp where (vp - sp) / vp >= threshold."""
    cfg = cfg or ScoringConfig()
    if (len(share_prices) != len(virtual_prices)
            or np.any(share_prices.timestamps != virtual_prices.timestamps)):
        raise ValidationError("share and virtual price series are misaligned")
    deviation = (virtual_prices.values - share_prices.values) / virtual_prices.values
    return [
        DepegLabel(int(ts), float(dev))
        for ts, dev in zip(share_prices.timestamps, deviation)
        if dev >= cfg.depeg_threshold
    ]


def price_threshold_crossings(prices: MetricSeries, level: float) -> list[Timestamp]:
    """Timestamps where the series crosses from >= level to < level."""
    vals = prices.values
    out: list[Timestamp] = []
    for k in range(1, len(prices)):
        if vals[k - 1] >= level and vals[k] < level:
            out.append(int(prices.timestamps[k]))
    return out


def match_true_positives(
    labels: Sequence[Timestamp],
    predictions: Sequence[Timestamp],
    margin_m: int,
) -> list[tuple[Timestamp, Timestamp, float]]:
    """Match each label to at most one leading prediction.

    A prediction x qualifies for label tau when 0 <= tau - x <= M. Labels are
    processed in time order and take the earliest still-unmatched qualifying
    prediction; the match weight is (tau - x) / M. The matching is injective
    in both directions.
    """
    labels = sorted(labels)
    predictions = sorted(predictions)
    taken = [False] * len(predictions)
    matches: list[tuple[Timestamp, Timestamp, float]] = []
    start = 0
    for tau in labels:
        while start < len(predictions) and predictions[start] < tau - margin_m:
            start += 1
        for idx in range(start, len(predictions)):
            x = predictions[idx]
            if x > tau:
                break
            if not taken[idx]:
                taken[idx] = True
                matches.append((tau, x, (tau - x) / margin_m))
                break
    return matches


def lf_score(labels: Sequence[Timestamp], predictions: Sequence[Timestamp],
             cfg: ScoringConfig | None = None,
             prior: NGParams | None = None) -> ScoreReport:
    """Precision, lead-weighted recall, and the leading F-score.

    Conventions: no predictions -> P = 0; no labels -> R = 0; if both P and
    R are zero the F-score is 0.
    """
    cfg = cfg or ScoringConfig()
    matches = match_true_positives(labels, predictions, cfg.margin_m)
    matched_preds = {x for _, x, _ in matches}
    precision = len(matches) / len(predictions) if predictions else 0.0
    recall = sum(w for _, _, w in matches) / len(labels) if labels else 0.0
    b_sq = cfg.f_beta**2
    # harmonic form of (1+b^2)PR/(b^2 P + R); hits simple fractions exactly
    f = (1 + b_sq) / (b_sq / recall + 1 / precision) \
        if precision > 0 and recall > 0 else 0.0
    false_positives = tuple(x for x in sorted(predictions)
                            if x not in matched_preds)
    return ScoreReport(precision=precision, weighted_recall=recall, lf_score=f,
                       matches=tuple(matches), false_positives=false_positives,
                       scoring=cfg, prior=prior)


def grid_configs(space: GridSpace | None = None) -> list[NGParams]:
    """All (alpha, beta, kappa) power combinations in deterministic
    (lexicographic exponent) order."""
    space = space or GridSpace()
    return [
        NGParams(mu=0.0, alpha=GRID_BASE**i, beta=GRID_BASE**j,
                 kappa=GRID_BASE**k)
        for i in space.exponents
        for j in space.exponents
        for k in space.exponents
    ]


def score_grid(
    train_series: MetricSeries,
    labels: Sequence[Timestamp],
    space: GridSpace | None = None,
    scoring_cfg: ScoringConfig | None = None,
    detector_cfg_base: DetectorConfig | None = None,
) -> list[ScoreReport]:
    """Score every grid prior, in grid order, from batched detections (one
    unless the series is long).

    Raises when the training slice contains no depeg labels (nothing to
    train against).
    """
    if not labels:
        raise ValidationError("no depegs in training slice")
    priors = grid_configs(space)
    scoring_cfg = scoring_cfg or ScoringConfig()
    base = detector_cfg_base or DetectorConfig()
    timestamps = train_series.timestamps
    reports: list[ScoreReport] = []
    # priors in chunks, so that a long series keeps the blocks small
    chunk = max(1, _BATCH_CELLS // (len(train_series) + 1))
    for lo in range(0, len(priors), chunk):
        emits, _, _ = detect_batch(train_series, priors[lo:lo + chunk], base)
        reports += [lf_score(labels, timestamps[row].tolist(), scoring_cfg,
                             prior=prior)
                    for prior, row in zip(priors[lo:lo + chunk], emits)]
    return reports


def best_of_grid(
        reports: Sequence[ScoreReport]) -> tuple[NGParams, ScoreReport]:
    """The prior with the highest leading F-score among grid-ordered reports.

    Ties break toward higher precision, then the lexicographically smallest
    exponents (the first in grid order), so results are deterministic.
    """
    best = max(reports, key=lambda r: (r.lf_score, r.precision))
    if best.lf_score == 0.0:
        best = dataclasses.replace(best, note=(
            "no configuration scored above zero; returned tie-break minimum"))
    return best.prior, best


def tune(
    train_series: MetricSeries,
    labels: Sequence[Timestamp],
    space: GridSpace | None = None,
    scoring_cfg: ScoringConfig | None = None,
    detector_cfg_base: DetectorConfig | None = None,
) -> tuple[NGParams, ScoreReport]:
    """Grid-search the Normal-Gamma prior that maximizes the leading F-score.

    One batched detector pass covers the whole grid (:func:`score_grid`);
    the choice follows :func:`best_of_grid`. Raises when the training slice
    contains no depeg labels (nothing to train against).
    """
    return best_of_grid(score_grid(train_series, labels, space, scoring_cfg,
                                   detector_cfg_base))

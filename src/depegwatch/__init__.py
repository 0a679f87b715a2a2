"""Depeg detection for StableSwap pools.

Public surface: domain types and series transforms (:mod:`depegwatch.core`),
pool invariant math (:mod:`depegwatch.stableswap`), market metrics
(:mod:`depegwatch.metrics`), the online changepoint detector
(:mod:`depegwatch.bocd`), labelling and scoring (:mod:`depegwatch.evaluation`),
the scenario simulator (:mod:`depegwatch.simulator`), and the file pipeline
plus CLI (:mod:`depegwatch.pipeline`, :mod:`depegwatch.cli`).
"""

from .core import (
    EventStream,
    LiquidityEvent,
    MetricSeries,
    MissingPriceError,
    NumericalError,
    PriceSample,
    PriceTable,
    ReserveSnapshot,
    Timestamp,
    TokenId,
    TradeEvent,
    ValidationError,
    aggregate,
    fit_stats,
    log_diff,
    standardize,
)
from .stableswap import PoolState

__all__ = [
    "EventStream",
    "LiquidityEvent",
    "MetricSeries",
    "MissingPriceError",
    "NumericalError",
    "PoolState",
    "PriceSample",
    "PriceTable",
    "ReserveSnapshot",
    "Timestamp",
    "TokenId",
    "TradeEvent",
    "ValidationError",
    "aggregate",
    "fit_stats",
    "log_diff",
    "standardize",
]

__version__ = "0.1.0"

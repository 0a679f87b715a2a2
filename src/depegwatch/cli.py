"""Command-line pipeline: simulate -> metrics -> label -> detect -> tune ->
score -> report, plus manifest verification.

The group takes no options. Every ``--out-dir`` defaults to the working
directory; ``metrics``, ``label`` and ``report`` bucket by
``core.DEFAULT_PERIOD`` (hourly); ``detect --state PATH`` resumes from a
state that ``detect --save-state`` wrote.

Exit codes: 0 ok, 1 usage error, 2 data validation failure, 3 numerical
failure.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import click

from . import bocd, evaluation, metrics, pipeline
from .core import (
    DEFAULT_PERIOD,
    MissingPriceError,
    NumericalError,
    PriceTable,
    TokenId,
    ValidationError,
    fit_stats,
    from_json,
    standardize,
)
from .simulator import run_scenario


@click.group()
def cli() -> None:
    """Depeg detection pipeline for StableSwap pools."""


def _registry_for(data_dir: str, registry_path: str | None):
    path = registry_path or os.path.join(data_dir, "registry.json")
    if not os.path.exists(path):
        raise ValidationError(f"pool registry not found at {path}")
    return pipeline.load_pool_registry(path)


@cli.command()
@click.option("--config", "config_path", type=click.Path(exists=True),
              required=True, help="Scenario JSON.")
@click.option("--out-dir", type=click.Path(), default=".",
              help="Directory for the CSV bundle.")
def simulate(config_path: str, out_dir: str) -> None:
    """Run a synthetic market scenario and write its CSV bundle."""
    os.makedirs(out_dir, exist_ok=True)
    cfg = pipeline.load_scenario_config(config_path)
    output = run_scenario(cfg)
    written = pipeline.write_scenario(out_dir, output)
    pipeline.write_manifest(out_dir, "simulate", [config_path], written,
                            {"seed": cfg.seed, "rng": cfg.rng})
    click.echo(f"scenario written to {out_dir} "
               f"({len(output.stream.trades)} trades"
               f"{', truncated' if output.truncated else ''})")


@cli.command("metrics")
@click.option("--data-dir", type=click.Path(exists=True), required=True)
@click.option("--registry", "registry_path", type=click.Path(), default=None)
@click.option("--out-dir", type=click.Path(), default=".")
@click.option("--markout-horizon", type=int, default=300)
def metrics_cmd(data_dir: str, registry_path: str | None, out_dir: str,
                markout_horizon: int) -> None:
    """Compute every metric series for every pool in the data bundle,
    bucketed hourly."""
    os.makedirs(out_dir, exist_ok=True)
    period = DEFAULT_PERIOD
    registry = _registry_for(data_dir, registry_path)
    streams, prices = pipeline.ingest(data_dir, registry, period)
    cfg = metrics.MetricConfig(window=period, markout_horizon=markout_horizon,
                               price_tolerance=period)
    inputs = [os.path.join(data_dir, n) for n in
              ("trades.csv", "liquidity.csv", "reserves.csv", "prices.csv")
              if os.path.exists(os.path.join(data_dir, n))]
    written = []
    for pool_id, stream in sorted(streams.items()):
        for name, token, series in pipeline.compute_pool_metrics(
                stream, prices, registry[pool_id], cfg, period):
            path = os.path.join(out_dir,
                                pipeline.metric_filename(pool_id, name, token))
            pipeline.write_metric_series(path, series)
            written.append(path)
    pipeline.write_manifest(out_dir, "metrics", inputs, written,
                            {"period": period,
                             "markout_horizon": markout_horizon})
    click.echo(f"wrote {len(written)} metric files to {out_dir}")


@cli.command()
@click.option("--data-dir", type=click.Path(exists=True), required=True)
@click.option("--registry", "registry_path", type=click.Path(), default=None)
@click.option("--pool-id", required=True)
@click.option("--threshold", type=float, default=0.05,
              help="Share-price deviation that defines a depeg.")
@click.option("--out", "out_path", type=click.Path(), required=True)
def label(data_dir: str, registry_path: str | None, pool_id: str,
          threshold: float, out_path: str) -> None:
    """Label true depegs from hourly LP share price vs virtual price."""
    registry = _registry_for(data_dir, registry_path)
    if pool_id not in registry:
        raise ValidationError(f"unknown pool_id {pool_id!r}")
    streams, prices = pipeline.ingest(data_dir, registry, DEFAULT_PERIOD)
    sp, vp = pipeline.share_price_series(streams[pool_id], prices,
                                         registry[pool_id], DEFAULT_PERIOD)
    cfg = evaluation.ScoringConfig(depeg_threshold=threshold)
    labels = evaluation.label_depegs(sp, vp, cfg)
    pipeline.write_csv(out_path, pipeline.LABELS_HEADER,
                       [(l.ts, l.deviation) for l in labels])
    click.echo(f"{len(labels)} depeg labels -> {out_path}")


@dataclasses.dataclass(frozen=True)
class SeriesStats:
    mean: float
    std: float


@dataclasses.dataclass(frozen=True)
class TunedParams:
    """A ``--params`` document as ``tune`` writes it; an absent field is
    None, so ``score`` can leave its prior column empty."""

    transform: str | None = None
    standardize: SeriesStats | None = None
    mu: float | None = None
    alpha: float | None = None
    beta: float | None = None
    kappa: float | None = None
    hazard_lambda: float | None = None
    predictive_scale: str | None = None


def _given(*values):
    """The first value that is not None: flag, params document, default."""
    return next(v for v in values if v is not None)


@cli.command()
@click.option("--metric-file", type=click.Path(exists=True), required=True)
@click.option("--params", "params_path", type=click.Path(exists=True),
              default=None, help="Tuned parameter JSON from the tune command.")
@click.option("--transform",
              type=click.Choice(["none", "diff", "log_diff"]), default=None)
@click.option("--alpha", type=float, default=None)
@click.option("--beta", type=float, default=None)
@click.option("--kappa", type=float, default=None)
@click.option("--hazard", "hazard_lambda", type=float, default=None)
@click.option("--predictive-scale",
              type=click.Choice(list(bocd.PREDICTIVE_SCALES)), default=None)
@click.option("--state", "state_path", type=click.Path(), default=None,
              help="Detector state JSON (from --save-state) to resume "
                   "from; its config replaces the prior, hazard and "
                   "predictive-scale flags.")
@click.option("--save-state", "save_state_path", type=click.Path(), default=None)
@click.option("--out-dir", type=click.Path(), default=".")
def detect(metric_file: str, params_path: str | None, transform: str | None,
           alpha: float | None, beta: float | None, kappa: float | None,
           hazard_lambda: float | None, predictive_scale: str | None,
           state_path: str | None, save_state_path: str | None,
           out_dir: str) -> None:
    """Detect changepoints on a metric file; resumable via saved state."""
    os.makedirs(out_dir, exist_ok=True)
    params = (from_json(TunedParams, pipeline._load_json(params_path),
                        params_path) if params_path else TunedParams())
    transform = _given(transform, params.transform, "none")

    state = None
    if state_path:
        if not os.path.exists(state_path):
            raise ValidationError(f"state file not found: {state_path}")
        state, cfg = bocd.state_from_dict(pipeline._load_json(state_path),
                                          state_path)
    else:
        prior = bocd.NGParams(
            mu=_given(params.mu, 0.0),
            alpha=_given(alpha, params.alpha, 1.0),
            beta=_given(beta, params.beta, 1.0),
            kappa=_given(kappa, params.kappa, 1.0))
        cfg = bocd.DetectorConfig(
            hazard_lambda=_given(hazard_lambda, params.hazard_lambda, 100.0),
            prior=prior,
            predictive_scale=_given(predictive_scale,
                                    params.predictive_scale, "paper"))

    series = pipeline.transform_series(
        pipeline.read_metric_series(metric_file), transform)
    if params.standardize is not None:
        series = standardize(series, params.standardize.mean,
                             params.standardize.std)
    changepoints, trace, final_state = bocd.detect_series(series, cfg, state)

    cp_path = os.path.join(out_dir, "changepoints.csv")
    pipeline.write_csv(cp_path, pipeline.CHANGEPOINTS_HEADER,
                       [(c.ts, c.step, c.map_run_length, c.probability)
                        for c in changepoints])
    rl_path = os.path.join(out_dir, "runlength.csv")
    pipeline.write_csv(rl_path, pipeline.CHANGEPOINTS_HEADER,
                       [(p.ts, p.step, p.run_length, p.probability)
                        for p in trace])
    written = [cp_path, rl_path]
    if save_state_path:
        with open(save_state_path, "w", encoding="utf-8") as fh:
            json.dump(bocd.state_to_dict(final_state, cfg), fh)
            fh.write("\n")
        written.append(save_state_path)
    pipeline.write_manifest(out_dir, "detect", [metric_file], written,
                            {"transform": transform,
                             "hazard_lambda": cfg.hazard_lambda,
                             "prior": dataclasses.asdict(cfg.prior),
                             "predictive_scale": cfg.predictive_scale})
    click.echo(f"{len(changepoints)} changepoints -> {cp_path}")


@cli.command()
@click.option("--metric-file", type=click.Path(exists=True), required=True)
@click.option("--labels", "labels_path", type=click.Path(exists=True),
              required=True)
@click.option("--metric", "metric_name", default=None,
              help="Metric name; selects the default transform.")
@click.option("--transform",
              type=click.Choice(["none", "diff", "log_diff"]), default=None)
@click.option("--margin", type=int, default=48 * 3600)
@click.option("--f-beta", type=float, default=1.0)
@click.option("--exponent-lo", type=int, default=-5)
@click.option("--exponent-hi", type=int, default=4)
@click.option("--hazard", "hazard_lambda", type=float, default=100.0)
@click.option("--predictive-scale",
              type=click.Choice(list(bocd.PREDICTIVE_SCALES)),
              default="paper")
@click.option("--out", "out_path", type=click.Path(), required=True)
def tune(metric_file: str, labels_path: str, metric_name: str | None,
         transform: str | None, margin: int, f_beta: float, exponent_lo: int,
         exponent_hi: int, hazard_lambda: float, predictive_scale: str,
         out_path: str) -> None:
    """Grid-search detector hyperparameters against labelled depegs.

    Writes the chosen prior to --out and every prior's score to grid.csv in
    the same directory."""
    if transform is None:
        transform = pipeline.DEFAULT_TRANSFORMS.get(metric_name or "", "none")
    raw = pipeline.read_metric_series(metric_file)
    transformed = pipeline.transform_series(raw, transform)
    if len(transformed) == 0:
        raise ValidationError("metric file has too few points to tune on")
    mean, std = fit_stats(transformed)
    if std <= 0:
        raise ValidationError("training series is constant; cannot standardize")
    train = standardize(transformed, mean, std)

    label_ts = [ts for ts, _ in pipeline.read_labels(labels_path)]
    scoring = evaluation.ScoringConfig(margin_m=margin, f_beta=f_beta)
    space = evaluation.GridSpace(exponent_range=(exponent_lo, exponent_hi))
    base = bocd.DetectorConfig(hazard_lambda=hazard_lambda,
                               predictive_scale=predictive_scale)
    reports = evaluation.score_grid(train, label_ts, space, scoring, base)
    prior, report = evaluation.best_of_grid(reports)

    doc = {
        "metric": metric_name or "",
        "transform": transform,
        "standardize": {"mean": mean, "std": std},
        "hazard_lambda": hazard_lambda,
        "predictive_scale": predictive_scale,
        "mu": prior.mu,
        "alpha": prior.alpha,
        "beta": prior.beta,
        "kappa": prior.kappa,
        "train_score": {"F": report.lf_score, "P": report.precision,
                        "R": report.weighted_recall},
    }
    if report.note:
        doc["note"] = report.note
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    pipeline.write_csv(
        os.path.join(os.path.dirname(out_path), "grid.csv"),
        pipeline.GRID_HEADER,
        [(r.prior.alpha, r.prior.beta, r.prior.kappa, r.lf_score, r.precision,
          r.weighted_recall, len(r.matches) + len(r.false_positives))
         for r in reports])
    click.echo(f"best prior alpha={prior.alpha} beta={prior.beta} "
               f"kappa={prior.kappa} lF={report.lf_score:.5f} -> {out_path}")


@cli.command()
@click.option("--labels", "labels_path", type=click.Path(exists=True),
              required=True)
@click.option("--changepoints", "cp_path", type=click.Path(exists=True),
              required=True)
@click.option("--pool", required=True)
@click.option("--metric", "metric_name", required=True)
@click.option("--params", "params_path", type=click.Path(exists=True),
              default=None)
@click.option("--margin", type=int, default=48 * 3600)
@click.option("--f-beta", type=float, default=1.0)
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--append", is_flag=True, default=False)
def score(labels_path: str, cp_path: str, pool: str, metric_name: str,
          params_path: str | None, margin: int, f_beta: float, out_path: str,
          append: bool) -> None:
    """Score changepoints as leading indicators of labelled depegs."""
    label_ts = [ts for ts, _ in pipeline.read_labels(labels_path)]
    predictions = pipeline.read_changepoints(cp_path)
    scoring = evaluation.ScoringConfig(margin_m=margin, f_beta=f_beta)
    report = evaluation.lf_score(label_ts, predictions, scoring)
    params = (from_json(TunedParams, pipeline._load_json(params_path),
                        params_path) if params_path else TunedParams())
    row = (pool, metric_name, report.lf_score, report.precision,
           report.weighted_recall,
           *("" if value is None else pipeline.fmt(value)
             for value in (params.alpha, params.beta, params.kappa)))
    pipeline.write_csv(out_path, pipeline.SCORES_HEADER, [row], append=append)
    click.echo(f"F={report.lf_score:.5f} P={report.precision:.5f} "
               f"R={report.weighted_recall:.5f} -> {out_path}")


@cli.command()
@click.option("--scores", "score_paths", type=click.Path(exists=True),
              multiple=True, help="Score CSVs to merge into the results table.")
@click.option("--prices", "prices_path", type=click.Path(exists=True),
              default=None)
@click.option("--token", "token_symbol", default=None)
@click.option("--level", type=float, default=0.99)
@click.option("--changepoints", "cp_path", type=click.Path(exists=True),
              default=None)
@click.option("--margin", type=int, default=48 * 3600)
@click.option("--out-dir", type=click.Path(), default=".")
def report(score_paths: tuple[str, ...], prices_path: str | None,
           token_symbol: str | None, level: float, cp_path: str | None,
           margin: int, out_dir: str) -> None:
    """Emit the pool-results table and the per-event lead-time report
    (token price bucketed hourly)."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    inputs = list(score_paths)

    if score_paths:
        rows = []
        for path in score_paths:
            rows.extend(pipeline.read_score_rows(path))
        rows.sort(key=lambda r: (r[0], r[1]))
        table_path = os.path.join(out_dir, "pool_results.csv")
        pipeline.write_csv(table_path, pipeline.SCORES_HEADER, rows)
        written.append(table_path)

    if prices_path and token_symbol and cp_path:
        inputs += [prices_path, cp_path]
        samples = pipeline.read_price_samples(prices_path, token_symbol)
        table = PriceTable(samples)
        series = table.series(TokenId(token_symbol), DEFAULT_PERIOD)
        crossings = evaluation.price_threshold_crossings(series, level)
        predictions = sorted(pipeline.read_changepoints(cp_path))
        lead_rows = []
        for crossing in crossings:
            eligible = [x for x in predictions
                        if 0 <= crossing - x <= margin]
            if eligible:
                first = eligible[0]
                lead_rows.append((crossing, first, crossing - first))
            else:
                lead_rows.append((crossing, "", ""))
        lead_path = os.path.join(out_dir, "leadtime.csv")
        pipeline.write_csv(lead_path, pipeline.LEADTIME_HEADER, lead_rows)
        written.append(lead_path)

    if not written:
        raise click.UsageError(
            "report needs --scores and/or --prices/--token/--changepoints")
    pipeline.write_manifest(out_dir, "report", inputs, written,
                            {"level": level, "margin": margin})
    for path in written:
        click.echo(f"wrote {path}")


@cli.command()
@click.option("--manifest", "manifest_path", type=click.Path(exists=True),
              required=True)
def verify(manifest_path: str) -> None:
    """Re-check the output digests recorded in a manifest."""
    problems = pipeline.verify_manifest(manifest_path)
    if problems:
        for problem in problems:
            click.echo(f"FAIL: {problem}")
        raise ValidationError(f"{len(problems)} manifest mismatches")
    click.echo("manifest verified: all digests match")


def main(argv: list[str] | None = None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as err:
        return err.exit_code
    except click.UsageError as err:
        err.show()
        return 1
    except click.ClickException as err:
        err.show()
        return 1
    except (ValidationError, MissingPriceError) as err:
        click.echo(f"error: {err}", err=True)
        return 2
    except NumericalError as err:
        click.echo(f"numerical failure: {err}", err=True)
        return 3
    except OSError as err:
        click.echo(f"error: {err}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

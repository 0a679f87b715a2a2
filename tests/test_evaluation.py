import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depegwatch.bocd import DetectorConfig, NGParams, detect_batch
from depegwatch import evaluation
from depegwatch.core import MetricSeries, ValidationError
from depegwatch.evaluation import (
    GridSpace,
    ScoringConfig,
    grid_axis,
    grid_configs,
    label_depegs,
    lf_score,
    match_true_positives,
    price_threshold_crossings,
    score_grid,
    tune,
)
from oracles import scalar_tune

PP = "posterior_predictive"


def series(values, timestamps=None, name="m"):
    values = list(values)
    if timestamps is None:
        timestamps = [3600 * (k + 1) for k in range(len(values))]
    return MetricSeries(name, "pool", np.array(timestamps, dtype=np.int64),
                        np.array(values, dtype=float))


class TestLabelDepegs:
    def test_deviation_six_percent_labelled(self):
        labels = label_depegs(series([0.94]), series([1.0]))
        assert len(labels) == 1
        assert labels[0].deviation == pytest.approx(0.06)

    def test_deviation_four_percent_not_labelled(self):
        assert label_depegs(series([0.96]), series([1.0])) == []

    def test_premium_never_labelled(self):
        assert label_depegs(series([1.10]), series([1.0])) == []

    def test_threshold_boundary_is_labelled(self):
        labels = label_depegs(series([0.95]), series([1.0]))
        assert len(labels) == 1

    def test_misaligned_series_rejected(self):
        with pytest.raises(ValidationError):
            label_depegs(series([1.0, 1.0]),
                         series([1.0, 1.0], timestamps=[3600, 9999]))


class TestPriceThresholdCrossings:
    def test_single_dip(self):
        prices = series([1.0, 0.985])
        assert price_threshold_crossings(prices, 0.99) == [7200]

    def test_monotone_above(self):
        assert price_threshold_crossings(series([1.0, 1.01, 1.0]), 0.99) == []

    def test_oscillation_counts_each_crossing(self):
        vals, n = [], 4
        for _ in range(n):
            vals += [1.0, 0.98]
        prices = series(vals)
        assert len(price_threshold_crossings(prices, 0.99)) == n


class TestMatching:
    def test_leading_prediction_weight(self):
        assert match_true_positives([100], [98], 10) == [(100, 98, 0.2)]

    def test_lagging_prediction_never_matches(self):
        assert match_true_positives([100], [101], 10) == []

    def test_earliest_eligible_wins(self):
        matches = match_true_positives([100], [90, 95], 10)
        assert matches == [(100, 90, 1.0)]

    def test_injective_both_ways(self):
        matches = match_true_positives([100, 101], [99], 10)
        assert len(matches) == 1

    def test_exact_time_match_weight_zero(self):
        assert match_true_positives([100], [100], 10) == [(100, 100, 0.0)]

    @given(st.sets(st.integers(0, 5000), max_size=15),
           st.sets(st.integers(0, 5000), max_size=15),
           st.integers(1, 500))
    @settings(max_examples=100, deadline=None)
    def test_properties(self, labels, predictions, margin):
        labels, predictions = sorted(labels), sorted(predictions)
        matches = match_true_positives(labels, predictions, margin)
        assert all(0.0 <= w <= 1.0 for _, _, w in matches)
        assert len({x for _, x, _ in matches}) == len(matches)
        assert len({tau for tau, _, _ in matches}) == len(matches)
        assert len(matches) <= min(len(labels), len(predictions))
        shuffled = match_true_positives(list(reversed(labels)),
                                        list(reversed(predictions)), margin)
        assert sorted(matches) == sorted(shuffled)


class TestLfScore:
    def test_golden_single_match(self):
        report = lf_score([100], [98], ScoringConfig(margin_m=10, f_beta=1.0))
        assert report.precision == 1.0
        assert report.weighted_recall == pytest.approx(0.2)
        assert report.lf_score == pytest.approx(1 / 3)

    def test_golden_with_false_positive(self):
        report = lf_score([100], [98, 50], ScoringConfig(margin_m=10))
        assert report.precision == 0.5
        assert report.weighted_recall == pytest.approx(0.2)
        assert report.lf_score == pytest.approx(2 / 7, abs=1e-12)
        assert report.false_positives == (50,)

    def test_empty_predictions(self):
        report = lf_score([100], [], ScoringConfig(margin_m=10))
        assert (report.precision, report.weighted_recall,
                report.lf_score) == (0.0, 0.0, 0.0)

    def test_empty_labels(self):
        report = lf_score([], [5], ScoringConfig(margin_m=10))
        assert report.weighted_recall == 0.0 and report.lf_score == 0.0

    def test_reduces_to_classical_f1_with_unit_weights(self):
        # weights forced to 1 by exact-margin leads; compare with the
        # direct harmonic-mean computation
        margin = 10
        labels = [100, 200, 300]
        predictions = [90, 190, 250]
        report = lf_score(labels, predictions, ScoringConfig(margin_m=margin))
        matched = len(report.matches)
        p = matched / len(predictions)
        r = sum(w for *_, w in report.matches) / len(labels)
        f_direct = 2 * p * r / (p + r)
        assert report.lf_score == pytest.approx(f_direct, rel=1e-12)
        assert all(w == 1.0 for *_, w in report.matches[:2])

    def test_beta_weighting(self):
        cfg = ScoringConfig(margin_m=10, f_beta=2.0)
        report = lf_score([100], [98], cfg)
        p, r = 1.0, 0.2
        assert report.lf_score == pytest.approx(5 * p * r / (4 * p + r))

    @given(st.lists(st.integers(0, 2000), min_size=1, max_size=10),
           st.lists(st.integers(0, 2000), min_size=1, max_size=10),
           st.integers(0, 2000))
    @settings(max_examples=80, deadline=None)
    def test_adding_unmatched_prediction_never_raises_precision(
            self, labels, predictions, extra):
        cfg = ScoringConfig(margin_m=50)
        base = lf_score(labels, predictions, cfg)
        more = lf_score(labels, predictions + [extra], cfg)
        if extra in more.false_positives:
            assert more.precision <= base.precision + 1e-12

    @given(st.sets(st.integers(0, 2000), min_size=1, max_size=10),
           st.sets(st.integers(0, 2000), min_size=1, max_size=10),
           st.integers(3000, 4000))
    @settings(max_examples=80, deadline=None)
    def test_adding_matched_pair_never_lowers_recall(
            self, labels, predictions, new_label):
        # the injected pair is far from all existing events and matches
        cfg = ScoringConfig(margin_m=50)
        base = lf_score(sorted(labels), sorted(predictions), cfg)
        more = lf_score(sorted(labels | {new_label + 10}),
                        sorted(predictions | {new_label}), cfg)
        base_weight_sum = base.weighted_recall * len(labels)
        more_weight_sum = more.weighted_recall * (len(labels) + 1)
        assert more_weight_sum >= base_weight_sum - 1e-12


class TestGridConfigs:
    def test_default_grid_size(self):
        assert len(grid_configs(GridSpace())) == 1000

    def test_single_point_space(self):
        configs = grid_configs(GridSpace(exponent_range=(0, 0)))
        assert configs == [NGParams(0.0, 1.0, 1.0, 1.0)]

    def test_reference_rows_are_members(self):
        members = {(c.alpha, c.beta, c.kappa) for c in grid_configs()}
        for triple in [(0.1, 1000.0, 1.0), (1e-5, 1.0, 10000.0),
                       (100.0, 100.0, 10000.0), (0.1, 100.0, 1000.0),
                       (0.01, 1000.0, 1.0), (10.0, 100.0, 1e-4)]:
            assert triple in members

    def test_mu_fixed_at_zero(self):
        assert all(c.mu == 0.0 for c in grid_configs())


class TestTune:
    def test_no_labels_is_an_error(self):
        with pytest.raises(ValidationError, match="no depegs"):
            tune(series([0.0, 0.1]), [])

    def test_grid_of_one_returns_it(self):
        rng = np.random.default_rng(0)
        data = series(rng.standard_normal(50))
        prior, report = tune(data, [3600 * 10],
                             GridSpace(exponent_range=(0, 0)))
        assert (prior.alpha, prior.beta, prior.kappa) == (1.0, 1.0, 1.0)

    def test_all_zero_scores_flagged_and_deterministic(self):
        # constant series emits no changepoints under any config
        data = series(np.zeros(30))
        space = GridSpace(exponent_range=(0, 1))
        prior, report = tune(data, [3600 * 5], space,
                             detector_cfg_base=DetectorConfig(
                                 predictive_scale=PP))
        assert report.lf_score == 0.0
        assert report.note != ""
        assert (prior.alpha, prior.beta, prior.kappa) == (1.0, 1.0, 1.0)

    def test_recovers_config_that_detects_planted_jump(self):
        # the only detectable structure is a mean jump at step 61 of 80; the
        # labels trail it so a leading detection carries positive weight
        rng = np.random.default_rng(5)
        values = np.concatenate([rng.normal(0, 1, 60), rng.normal(8, 1, 20)])
        data = series(values)
        jump_ts = int(data.timestamps[60])
        labels = [jump_ts + 3600 * k for k in (1, 2, 3)]
        space = GridSpace(exponent_range=(-1, 1))
        prior, report = tune(
            data, labels, space,
            ScoringConfig(margin_m=6 * 3600),
            DetectorConfig(predictive_scale=PP))
        assert report.lf_score > 0.0
        assert len(report.matches) >= 1
        matched_preds = [x for _, x, _ in report.matches]
        assert any(abs(x - jump_ts) <= 2 * 3600 for x in matched_preds)


class TestBatchedTune:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_scalar_oracle(self, data):
        values = data.draw(st.lists(
            st.floats(-6.0, 6.0, allow_nan=False), min_size=2, max_size=30))
        shift = data.draw(st.floats(-8.0, 8.0))
        cut = data.draw(st.integers(0, len(values)))
        train = series([v + shift * (k >= cut) for k, v in enumerate(values)])
        stamps = train.timestamps.tolist()
        labels = data.draw(st.lists(st.sampled_from(stamps), min_size=1,
                                    max_size=4, unique=True))
        lo = data.draw(st.integers(-3, 2))
        space = GridSpace((lo, lo + data.draw(st.integers(0, 1))))
        scoring = ScoringConfig(margin_m=3600 * data.draw(st.integers(1, 6)))
        pruning = data.draw(st.sampled_from([
            {}, {"prob_floor": 0.0},
            {"prob_floor": 0.0, "max_run_length": 4},
            {"max_run_length": 7}]))
        base = DetectorConfig(
            hazard_lambda=data.draw(st.sampled_from([3.0, 20.0, 100.0])),
            predictive_scale=data.draw(st.sampled_from(["paper", PP])),
            **pruning)

        prior, report = tune(train, labels, space, scoring, base)
        want_prior, want_report, per_prior = scalar_tune(
            train, labels, space, scoring, base)
        assert prior == want_prior
        assert report == want_report

        axis = grid_axis(space)
        emits, runs, log_joint = detect_batch(train, axis, axis, axis, base)
        for row, got_lj, (steps, final) in zip(emits, log_joint, per_prior):
            assert (np.flatnonzero(row) + 1).tolist() == steps
            live = got_lj > -np.inf
            assert runs[live].tolist() == final.runs.tolist()
            np.testing.assert_allclose(got_lj[live], final.log_joint,
                                       rtol=1e-12)

    def test_score_grid_in_grid_order_whatever_the_chunking(
            self, monkeypatch):
        rng = np.random.default_rng(3)
        data = series(np.concatenate([rng.normal(0, 1, 30),
                                      rng.normal(5, 1, 10)]))
        space = GridSpace((-1, 1))
        labels = [int(data.timestamps[31])]
        reports = score_grid(data, labels, space)
        assert [r.prior for r in reports] == grid_configs(space)
        chunks = []

        def recorded(train, alphas, betas, kappas, cfg):
            chunks.append((alphas, betas))
            return detect_batch(train, alphas, betas, kappas, cfg)

        monkeypatch.setattr(evaluation, "detect_batch", recorded)
        axis = [0.1, 1.0, 10.0]
        # one alpha slab (3 x 3 priors) per chunk
        monkeypatch.setattr(evaluation, "_BATCH_CELLS", 9 * (len(data) + 1))
        assert score_grid(data, labels, space) == reports
        assert chunks == [([alpha], axis) for alpha in axis]
        # under one slab: at most two betas (2 x 3 priors) per chunk
        chunks.clear()
        monkeypatch.setattr(evaluation, "_BATCH_CELLS", 8 * (len(data) + 1))
        assert score_grid(data, labels, space) == reports
        assert chunks == [([alpha], betas) for alpha in axis
                          for betas in (axis[:2], axis[2:])]

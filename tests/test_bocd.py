import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from depegwatch import bocd
from depegwatch.bocd import (
    Changepoint,
    DetectorConfig,
    NGParams,
    RunLengthState,
    _run_tables,
    detect_batch,
    detect_series,
    hazard,
    init_state,
    state_from_dict,
    state_to_dict,
    step,
)
from depegwatch.core import MetricSeries, NumericalError, ValidationError
from depegwatch.evaluation import GridSpace, grid_axis, grid_configs
from oracles import (
    ScalarState,
    batch_detect,
    brute_force_run_length_posteriors,
    grid_step,
    log_sum_exp,
    ng_update,
    posterior,
    run_tables,
    scalar_detect_series,
    scalar_state_v1,
    scalar_step,
    scipy_t_logpdf,
    student_t_logpdf,
)

PP = "posterior_predictive"


def make_series(values, start_ts=3600, period=3600):
    values = np.asarray(values, dtype=float)
    ts = start_ts + period * np.arange(len(values), dtype=np.int64)
    return MetricSeries("m", "p", ts, values)


class TestHazard:
    def test_default_lambda(self):
        assert hazard(DetectorConfig(hazard_lambda=100.0)) == 0.01

    def test_lambda_two(self):
        assert hazard(DetectorConfig(hazard_lambda=2.0)) == 0.5

    def test_constant_in_run_length(self):
        cfg = DetectorConfig()
        assert len({hazard(cfg) for _ in range(5)}) == 1

    def test_lambda_must_exceed_one(self):
        with pytest.raises(ValidationError):
            DetectorConfig(hazard_lambda=1.0)


class TestStudentTLogpdf:
    @pytest.mark.parametrize("mode", ["paper", PP])
    def test_symmetric_about_mu(self, mode):
        p = NGParams(0.7, 2.0, 1.5, 3.0)
        for dx in (0.1, 1.0, 4.2):
            assert student_t_logpdf(p.mu + dx, p, mode) == pytest.approx(
                student_t_logpdf(p.mu - dx, p, mode), rel=1e-14)

    @pytest.mark.parametrize("mode", ["paper", PP])
    def test_maximized_at_mu(self, mode):
        p = NGParams(-1.2, 1.0, 2.0, 0.5)
        peak = student_t_logpdf(p.mu, p, mode)
        for dx in (0.05, 0.5, 2.0):
            assert student_t_logpdf(p.mu + dx, p, mode) < peak

    @pytest.mark.parametrize("mode", ["paper", PP])
    @pytest.mark.parametrize("params", [
        NGParams(0.0, 1.0, 1.0, 1.0),
        NGParams(0.5, 2.5, 0.3, 4.0),
        NGParams(-2.0, 0.7, 5.0, 0.2),
    ])
    def test_normalizes_to_one(self, mode, params):
        # quadrature oracle
        total, err = integrate.quad(
            lambda x: math.exp(student_t_logpdf(x, params, mode)),
            -np.inf, np.inf, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_paper_scale_omits_kappa_plus_one(self):
        p = NGParams(0.0, 1.0, 1.0, 1.0)
        assert student_t_logpdf(0.0, p, "paper") == pytest.approx(
            scipy_t_logpdf(0.0, p, "paper"), rel=1e-12)
        assert student_t_logpdf(0.0, p, PP) == pytest.approx(
            scipy_t_logpdf(0.0, p, PP), rel=1e-12)
        assert student_t_logpdf(0.0, p, "paper") != pytest.approx(
            student_t_logpdf(0.0, p, PP), rel=1e-3)


class TestNGUpdate:
    def test_observation_at_mean_keeps_mu_beta(self):
        p = NGParams(1.5, 2.0, 3.0, 4.0)
        out = ng_update(p, 1.5)
        assert out.mu == p.mu and out.beta == p.beta
        assert out.kappa == p.kappa + 1 and out.alpha == p.alpha + 0.5

    def test_direct_evaluation(self):
        out = ng_update(NGParams(0.0, 1.0, 1.0, 1.0), 2.0)
        assert out == NGParams(mu=1.0, alpha=1.5, beta=2.0, kappa=2.0)

    def test_repeated_updates_grow_kappa_alpha(self):
        p = NGParams(0.0, 1.0, 1.0, 1.0)
        for _ in range(7):
            p = ng_update(p, 0.3)
        assert p.kappa == 8.0 and p.alpha == 4.5

    def test_positivity_required(self):
        with pytest.raises(ValidationError):
            NGParams(0.0, 0.0, 1.0, 1.0)


class TestStep:
    def test_first_observation_posterior(self):
        cfg = DetectorConfig(hazard_lambda=100.0)
        state, cp = step(init_state(cfg), 0.37, cfg)
        post = dict(zip(state.runs.tolist(),
                        posterior(state.log_joint).tolist()))
        assert post[0] == pytest.approx(0.01, rel=1e-12)
        assert post[1] == pytest.approx(0.99, rel=1e-12)
        assert state.prev_gamma == 1
        assert cp is None

    def test_iid_prior_consistent_data_never_emits(self):
        rng = np.random.default_rng(42)
        cfg = DetectorConfig(predictive_scale=PP)
        state = init_state(cfg)
        for t, x in enumerate(rng.standard_normal(50), start=1):
            state, cp = step(state, float(x), cfg)
            assert state.prev_gamma == t
            assert cp is None

    def test_jump_detected_within_three_steps(self):
        rng = np.random.default_rng(11)
        xs = np.concatenate([rng.normal(0, 1, 500), rng.normal(10, 1, 10)])
        cfg = DetectorConfig(predictive_scale=PP)
        cps, _, _ = detect_series(make_series(xs), cfg)
        assert any(501 <= cp.step <= 503 for cp in cps)

    def test_rejects_non_finite(self):
        cfg = DetectorConfig()
        with pytest.raises(ValidationError):
            step(init_state(cfg), float("nan"), cfg)

    def test_posterior_normalizes_every_step(self):
        rng = np.random.default_rng(1)
        cfg = DetectorConfig(predictive_scale=PP)
        state = init_state(cfg)
        for x in rng.standard_normal(200) * 3:
            state, _ = step(state, float(x), cfg)
            assert posterior(state.log_joint).sum() == pytest.approx(
                1.0, abs=1e-9)

    def test_support_grows_by_one_or_resets(self):
        rng = np.random.default_rng(8)
        cfg = DetectorConfig(prob_floor=0.0)
        state = init_state(cfg)
        for t, x in enumerate(rng.standard_normal(40), start=1):
            state, _ = step(state, float(x), cfg)
            assert state.runs.tolist() == list(range(t + 1))

    @pytest.mark.parametrize("x", [1e200, -1e200])
    def test_overflowing_observation_is_numerical_error(self, x):
        # (x - mu) ** 2 overflows, so no hypothesis has a finite likelihood
        cfg = DetectorConfig()
        state, _ = step(init_state(cfg), 0.5, cfg)
        with np.errstate(all="ignore"), pytest.raises(
                NumericalError, match="step 2"):
            step(state, x, cfg)


def bits(value):
    return np.asarray(value, dtype=float).view(np.int64)


def assert_steps_equal_grid_oracle(state, values, cfg):
    """Feed ``values`` to ``step`` and to the 1x1x1 grid oracle from
    ``state`` and compare every output bit for bit; an observation that
    raises must raise the same error in both."""
    got = want = state
    with np.errstate(all="ignore"):
        for k, x in enumerate(values):
            try:
                want, want_cp = grid_step(want, x, cfg, ts=k)
            except NumericalError as err:
                with pytest.raises(NumericalError, match=str(err)):
                    step(got, x, cfg, ts=k)
                return
            got, cp = step(got, x, cfg, ts=k)
            assert cp == want_cp
            assert (got.t, got.prev_gamma) == (want.t, want.prev_gamma)
            assert bits(got.map_probability) == bits(want.map_probability)
            assert np.array_equal(got.runs, want.runs)
            for name in ("log_joint", "mu", "beta"):
                assert np.array_equal(bits(getattr(got, name)),
                                      bits(getattr(want, name))), name


class TestStepEqualsGridOracle:
    """``step`` on flat arrays against the batched kernel on a 1x1x1
    grid."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_random_runs(self, data):
        pruning = data.draw(st.sampled_from([
            {}, {"prob_floor": 0.0}, {"max_run_length": 4},
            {"prob_floor": 0.0, "max_run_length": 6}]))
        cfg = DetectorConfig(
            hazard_lambda=data.draw(st.sampled_from([3.0, 20.0, 100.0])),
            prior=NGParams(data.draw(st.floats(-2.0, 2.0)),
                           data.draw(st.floats(0.05, 20.0)),
                           data.draw(st.floats(1e-3, 1e3)),
                           data.draw(st.floats(0.05, 20.0))),
            predictive_scale=data.draw(st.sampled_from(["paper", PP])),
            **pruning)
        state = init_state(cfg)
        if data.draw(st.booleans()):
            # a resumed state whose runs need not be 0..n-1
            runs = sorted(data.draw(st.sets(
                st.integers(0, min(cfg.max_run_length, 60)), min_size=1,
                max_size=12)))
            size = st.lists(st.floats(-40.0, 0.0), min_size=len(runs),
                            max_size=len(runs))
            state = RunLengthState(
                t=runs[-1] + data.draw(st.integers(0, 5)),
                runs=np.array(runs, dtype=np.int64),
                log_joint=np.array(data.draw(size)),
                mu=np.array(data.draw(size)) / 10.0,
                beta=np.exp(np.array(data.draw(size)) / 5.0),
                prev_gamma=data.draw(st.sampled_from(runs)))
        values = data.draw(st.lists(st.one_of(
            st.floats(-6.0, 6.0), st.sampled_from([1e154, -1e154])),
            max_size=40))
        assert_steps_equal_grid_oracle(state, values, cfg)

    @pytest.mark.parametrize("mode", ["paper", PP])
    @pytest.mark.parametrize("prob_floor", [DetectorConfig.prob_floor, 0.0],
                             ids=["default", "off"])
    def test_zero_likelihood_pattern(self, mode, prob_floor):
        # run length 2 sees 0 and 1e154, so -1e154 overflows its (x - mu)^2
        cfg = DetectorConfig(prob_floor=prob_floor, predictive_scale=mode)
        assert_steps_equal_grid_oracle(init_state(cfg),
                                       [0.0, 1e154, -1e154, 0.5, -1e154],
                                       cfg)

    @pytest.mark.parametrize("mode", ["paper", PP])
    @pytest.mark.parametrize("prob_floor", [DetectorConfig.prob_floor, 0.0],
                             ids=["default", "off"])
    def test_long_run(self, mode, prob_floor):
        # past numpy's 128-element summation blocks, with shifts that
        # prune into the middle of the runs
        rng = np.random.default_rng(23)
        values = np.concatenate([rng.normal(0, 1, 500), rng.normal(3, 2, 200),
                                 rng.normal(0, 1, 300)]).tolist()
        cfg = DetectorConfig(prob_floor=prob_floor, predictive_scale=mode)
        assert_steps_equal_grid_oracle(init_state(cfg), values, cfg)

    def test_capped_run_leaves_with_many_pruned(self):
        # the run past max_run_length holds most of the mass and leaves
        # with 19 hypotheses below the floor, so the order in which the
        # dropped masses are summed shows in run length zero's last bits
        cfg = DetectorConfig(max_run_length=20)
        rng = np.random.default_rng(0)
        for _ in range(20):
            log_joint = rng.uniform(-33.0, -29.0, 21)
            log_joint[0], log_joint[20] = -0.5, 0.0
            state = RunLengthState(
                t=30, runs=np.arange(21), log_joint=log_joint,
                mu=rng.normal(0.0, 0.1, 21), beta=np.ones(21), prev_gamma=20)
            assert_steps_equal_grid_oracle(state, [0.1], cfg)

    def test_resumed_state_with_gaps(self):
        cfg = DetectorConfig(predictive_scale=PP, max_run_length=50)
        state = RunLengthState(
            t=60, runs=np.array([0, 3, 4, 17, 40, 50]),
            log_joint=np.array([-3.0, -1.0, -0.5, -2.0, -30.0, -4.0]),
            mu=np.array([0.0, 0.2, -0.1, 0.4, 1.0, 0.05]),
            beta=np.array([1.0, 1.3, 0.9, 2.0, 5.0, 1.1]), prev_gamma=4)
        assert_steps_equal_grid_oracle(
            state, np.random.default_rng(5).normal(0, 1, 80).tolist(), cfg)


class TestExactness:
    @pytest.mark.parametrize("mode", ["paper", PP])
    def test_matches_brute_force_enumeration(self, mode):
        rng = np.random.default_rng(123)
        cfg = DetectorConfig(hazard_lambda=50.0,
                             prior=NGParams(0.0, 1.5, 0.8, 2.0),
                             prob_floor=0.0, predictive_scale=mode)
        for _ in range(6):
            T = int(rng.integers(2, 11))
            xs = rng.normal(0, 2, T).tolist()
            oracle = brute_force_run_length_posteriors(xs, cfg)
            state = init_state(cfg)
            for t, x in enumerate(xs, start=1):
                state, _ = step(state, x, cfg)
                got = dict(zip(state.runs.tolist(),
                               posterior(state.log_joint).tolist()))
                for r in set(oracle[t - 1]) | set(got):
                    assert abs(oracle[t - 1].get(r, 0.0) - got.get(r, 0.0)) < 1e-8


class TestPruning:
    def test_floor_does_not_change_emissions(self):
        rng = np.random.default_rng(2)
        xs = np.concatenate([rng.normal(0, 1, 300), rng.normal(5, 1, 100)])
        series = make_series(xs)
        base = dict(hazard_lambda=100.0, predictive_scale=PP)
        pruned, _, _ = detect_series(series, DetectorConfig(
            prob_floor=1e-12, **base))
        exact, _, _ = detect_series(series, DetectorConfig(
            prob_floor=0.0, **base))
        assert [c.step for c in pruned] == [c.step for c in exact]

    def test_max_run_length_caps_support(self):
        rng = np.random.default_rng(3)
        cfg = DetectorConfig(max_run_length=20, prob_floor=0.0,
                             predictive_scale=PP)
        state = init_state(cfg)
        for x in rng.standard_normal(60):
            state, _ = step(state, float(x), cfg)
        assert state.runs.max() <= 20

    @pytest.mark.parametrize("scale", [1.0 + 1e-6, 1.0 - 1e-6])
    @pytest.mark.parametrize("mode", ["paper", PP])
    def test_hypothesis_at_the_floor(self, scale, mode):
        # two hypotheses, set so that after one step run length 2 holds
        # prob_floor * scale of the posterior: kept above, pruned below
        cfg = DetectorConfig(hazard_lambda=20.0, prob_floor=1e-9,
                             prior=NGParams(0.0, 1.5, 0.8, 2.0),
                             predictive_scale=mode)
        h, x = hazard(cfg), 0.3
        params = [NGParams(0.2, 1.5, 0.8, 2.0), NGParams(-0.4, 2.0, 1.1, 3.0)]
        log_pred = [student_t_logpdf(x, p, mode) for p in params]
        share = cfg.prob_floor * scale / (1.0 - h)
        log_joint = np.array([0.0, log_pred[0] - log_pred[1]
                              + math.log(share / (1.0 - share))])
        runs = np.array([0, 1])
        mu = np.array([p.mu for p in params])
        beta = np.array([p.beta for p in params])
        state = RunLengthState(1, runs, log_joint, mu, beta, prev_gamma=1)
        oracle = ScalarState(1, runs, log_joint, mu,
                             np.array([p.kappa for p in params]),
                             np.array([p.alpha for p in params]), beta,
                             prev_gamma=1)
        got, cp = step(state, x, cfg)
        want, want_cp = scalar_step(oracle, x, cfg)
        kept = [0, 1, 2] if scale > 1 else [0, 1]
        assert got.runs.tolist() == want.runs.tolist() == kept
        assert got.prev_gamma == want.prev_gamma
        assert (cp is None) == (want_cp is None)
        np.testing.assert_allclose(got.log_joint, want.log_joint, rtol=1e-12)

    @pytest.mark.parametrize("prob_floor", [DetectorConfig.prob_floor, 0.0],
                             ids=["default", "off"])
    def test_zero_likelihood_hypothesis_is_dropped(self, prob_floor):
        # run length 2 has seen 0 and 1e154, so at -1e154 its (x - mu)^2
        # overflows: its likelihood is zero, it holds no mass, and a state
        # that kept it would carry -inf and inf; with pruning off too
        cfg = DetectorConfig(prob_floor=prob_floor)
        _, _, state = detect_series(make_series([0.0, 1e154, -1e154]), cfg)
        assert state.runs.tolist() == [0, 1]
        assert np.isfinite(state.log_joint).all()
        assert np.isfinite(state.beta).all()
        json.dumps(state_to_dict(state, cfg), allow_nan=False)

    def test_prob_floor_validation(self):
        DetectorConfig(prob_floor=0.0)
        DetectorConfig(prob_floor=1e-9)
        with pytest.raises(ValidationError):
            DetectorConfig(prob_floor=1e-3)


class TestDetectSeries:
    def test_empty_series(self):
        cps, trace, state = detect_series(make_series([]), DetectorConfig())
        assert cps == [] and trace == [] and state.t == 0

    def test_constant_zero_series_no_emissions(self):
        cps, _, _ = detect_series(make_series(np.zeros(100)),
                                  DetectorConfig(predictive_scale=PP))
        assert cps == []

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        series = make_series(rng.standard_normal(150))
        cfg = DetectorConfig(predictive_scale=PP)
        a = detect_series(series, cfg)
        b = detect_series(series, cfg)
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_trace_has_one_point_per_step(self):
        series = make_series([0.1, -0.2, 0.3])
        _, trace, _ = detect_series(series, DetectorConfig())
        assert [p.step for p in trace] == [1, 2, 3]
        assert [p.ts for p in trace] == series.timestamps.tolist()

    def test_emission_marks_discontinuity_step(self):
        rng = np.random.default_rng(2)
        xs = np.concatenate([rng.normal(0, 1, 500), rng.normal(5, 1, 500)])
        cps, trace, _ = detect_series(make_series(xs),
                                      DetectorConfig(predictive_scale=PP))
        steps = [c.step for c in cps]
        assert steps == [501]
        assert all(isinstance(c, Changepoint) and 0 < c.probability <= 1
                   for c in cps)


class TestStatePersistence:
    def test_round_trip_preserves_bits(self):
        rng = np.random.default_rng(4)
        cfg = DetectorConfig(predictive_scale=PP)
        state = init_state(cfg)
        for x in rng.standard_normal(37):
            state, _ = step(state, float(x), cfg)
        doc = json.loads(json.dumps(state_to_dict(state, cfg)))
        restored, cfg2 = state_from_dict(doc)
        assert cfg2 == cfg
        assert restored.t == state.t
        assert restored.prev_gamma == state.prev_gamma
        assert np.array_equal(restored.log_joint, state.log_joint)
        assert np.array_equal(restored.mu, state.mu)
        assert np.array_equal(restored.beta, state.beta)

    def test_resume_equals_whole_run_bit_exact(self):
        rng = np.random.default_rng(6)
        series = make_series(np.concatenate([rng.normal(0, 1, 100),
                                             rng.normal(3, 1, 100)]))
        cfg = DetectorConfig(predictive_scale=PP)
        whole_cps, whole_trace, whole_state = detect_series(series, cfg)

        first = MetricSeries("m", "p", series.timestamps[:100].copy(),
                             series.values[:100].copy())
        second = MetricSeries("m", "p", series.timestamps[100:].copy(),
                              series.values[100:].copy())
        cps1, trace1, mid_state = detect_series(first, cfg)
        doc = json.loads(json.dumps(state_to_dict(mid_state, cfg)))
        resumed, cfg2 = state_from_dict(doc)
        cps2, trace2, end_state = detect_series(second, cfg2, resumed)

        assert cps1 + cps2 == whole_cps
        assert trace1 + trace2 == whole_trace
        assert np.array_equal(end_state.log_joint, whole_state.log_joint)

    def test_dict_equals_per_element_form(self):
        # a long state whose runs were pruned in the middle
        rng = np.random.default_rng(3)
        xs = np.concatenate([rng.normal(0, 1, 2000), rng.normal(4, 1, 5),
                             rng.normal(0, 1, 1000)])
        cfg = DetectorConfig(predictive_scale=PP)
        _, _, state = detect_series(make_series(xs), cfg)
        assert state.runs.size > 1000
        assert state.runs[-1] + 1 > state.runs.size
        doc = state_to_dict(state, cfg)
        per_element = dict(doc, runs=[int(r) for r in state.runs], **{
            key: [float(v) for v in getattr(state, key)]
            for key in ("log_joint", "mu", "beta")})
        assert json.dumps(doc) == json.dumps(per_element)

    def test_version_two_omits_alpha_and_kappa(self):
        cfg = DetectorConfig()
        state, _ = step(init_state(cfg), 0.5, cfg)
        doc = state_to_dict(state, cfg)
        assert doc["version"] == 2
        assert "alpha" not in doc and "kappa" not in doc

    def test_version_one_document_resumes_bit_identically(self):
        rng = np.random.default_rng(6)
        xs = np.concatenate([rng.normal(0, 1, 100), rng.normal(3, 1, 100)])
        series = make_series(xs)
        first = MetricSeries("m", "p", series.timestamps[:100].copy(),
                             xs[:100].copy())
        second = MetricSeries("m", "p", series.timestamps[100:].copy(),
                              xs[100:].copy())
        cfg = DetectorConfig(predictive_scale=PP)
        _, _, mid = scalar_detect_series(first, cfg)
        doc = json.loads(json.dumps(scalar_state_v1(mid, cfg)))
        resumed, cfg2 = state_from_dict(doc)
        assert cfg2 == cfg

        uninterrupted = RunLengthState(mid.t, mid.runs, mid.log_joint, mid.mu,
                                       mid.beta, mid.prev_gamma,
                                       mid.map_probability)
        cps, trace, end = detect_series(second, cfg, uninterrupted)
        cps2, trace2, end2 = detect_series(second, cfg2, resumed)
        assert cps2 == cps and trace2 == trace
        for key in ("runs", "log_joint", "mu", "beta"):
            assert np.array_equal(getattr(end2, key), getattr(end, key))
        # the dropped alpha and kappa arrays carried nothing the tables lack
        want_cps, _, want_end = scalar_detect_series(second, cfg, mid)
        assert [c.step for c in cps2] == [c.step for c in want_cps]
        assert np.array_equal(end2.runs, want_end.runs)
        np.testing.assert_allclose(end2.log_joint, want_end.log_joint,
                                   rtol=1e-12)

    def test_version_mismatch_rejected(self):
        cfg = DetectorConfig()
        doc = state_to_dict(init_state(cfg), cfg)
        doc["version"] = 99
        with pytest.raises(ValidationError):
            state_from_dict(doc)


class TestDetectBatch:
    def test_rows_match_single_detections(self):
        rng = np.random.default_rng(12)
        series = make_series(np.concatenate([rng.normal(0, 1, 60),
                                             rng.normal(4, 1, 40)]))
        cfg = DetectorConfig(predictive_scale=PP)
        # the grid of three priors' values: (1, 1, 1), (0.1, 10, 0.1) and
        # (10, 0.1, 10) among its 27
        alphas, betas, kappas = [1.0, 0.1, 10.0], [1.0, 10.0, 0.1], \
            [1.0, 0.1, 10.0]
        priors = [NGParams(0.0, a, b, k)
                  for a in alphas for b in betas for k in kappas]
        emits, runs, log_joint = detect_batch(series, alphas, betas, kappas,
                                              cfg)
        assert emits.shape == (27, 100)
        for prior, row, lj in zip(priors, emits, log_joint):
            cps, _, state = detect_series(series, DetectorConfig(
                prior=prior, predictive_scale=PP))
            assert (np.flatnonzero(row) + 1).tolist() == [c.step for c in cps]
            live = lj > -np.inf
            assert np.array_equal(runs[live], state.runs)
            np.testing.assert_allclose(lj[live], state.log_joint, rtol=1e-12)

    def test_empty_series(self):
        emits, runs, log_joint = detect_batch(
            make_series([]), [1.0], [1.0], [1.0], DetectorConfig())
        assert emits.shape == (1, 0)
        assert runs.tolist() == [0] and log_joint.tolist() == [[0.0]]

    def test_overflowing_observation_is_numerical_error(self):
        # no numpy warning either, which the test settings turn into errors
        with pytest.raises(NumericalError, match="step 3"):
            detect_batch(make_series([0.1, 0.2, 1e200, 0.3]), [1.0, 2.0],
                         [1.0], [1.0, 0.5], DetectorConfig())

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="step 2"):
            detect_batch(make_series([0.1, math.inf, 0.2]), [1.0], [1.0],
                         [1.0], DetectorConfig())

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_equals_unfactored_oracle(self, data):
        # bit for bit: the factored block forms every value with the same
        # operations in the same order as one row per prior
        axis = st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=3)
        alphas, betas, kappas = data.draw(axis), data.draw(axis), \
            data.draw(axis)
        values = data.draw(st.lists(st.floats(-6.0, 6.0), max_size=30))
        shift = data.draw(st.floats(-8.0, 8.0))
        cut = data.draw(st.integers(0, len(values)))
        series = make_series([v + shift * (k >= cut)
                              for k, v in enumerate(values)])
        pruning = data.draw(st.sampled_from([
            {}, {"prob_floor": 0.0},
            {"prob_floor": 0.0, "max_run_length": 4},
            {"max_run_length": 7}]))
        cfg = DetectorConfig(
            hazard_lambda=data.draw(st.sampled_from([3.0, 20.0, 100.0])),
            predictive_scale=data.draw(st.sampled_from(["paper", PP])),
            **pruning)
        emits, runs, log_joint = detect_batch(series, alphas, betas, kappas,
                                              cfg)
        want_emits, want_runs, want_lj = batch_detect(
            series, [NGParams(0.0, a, b, k)
                     for a in alphas for b in betas for k in kappas], cfg)
        assert np.array_equal(emits, want_emits)
        assert np.array_equal(runs, want_runs)
        assert log_joint.shape == want_lj.shape
        assert np.array_equal(log_joint.view(np.int64),
                              want_lj.view(np.int64))


class TestPriorTables:
    def test_repeated_detections_build_no_tables(self, monkeypatch):
        # one table per (alpha, kappa), grown by doubling: a second round
        # over 27 priors (9 distinct (alpha, kappa)) finds every table kept
        series = make_series(np.random.default_rng(8).normal(0, 1, 300))
        built = []
        run_tables_ = bocd._run_tables

        def counted(*args):
            built.append(args[2])
            return run_tables_(*args)

        monkeypatch.setattr(bocd, "_run_tables", counted)
        rounds = []
        for _ in range(2):
            built.clear()
            outputs = []
            for prior in grid_configs(GridSpace((-1, 1))):
                cps, trace, state = detect_series(series, DetectorConfig(
                    prior=prior, predictive_scale=PP))
                outputs.append((cps, trace, state.t, state.prev_gamma,
                                state.map_probability, state.runs.tolist(),
                                state.log_joint.tolist(), state.mu.tolist(),
                                state.beta.tolist()))
            rounds.append(repr(outputs))
        assert built == []
        assert rounds[0] == rounds[1]


class TestRunTables:
    """All eight factored tables against the per-prior scipy ``gammaln``
    oracle, bit for bit."""

    @staticmethod
    def assert_tables_equal(alphas, kappas, n):
        alphas, kappas = np.asarray(alphas), np.asarray(kappas)
        got = _run_tables(alphas, kappas, n)
        # the oracle has one row per (alpha, kappa), alpha slowest
        kappa, kappa1, *rest = run_tables(np.repeat(alphas, kappas.size),
                                          np.tile(kappas, alphas.size), n)
        want = (kappa, kappa1, 2.0 * kappa1, *rest)
        for name, table, ref in zip(got._fields, got, want):
            assert table.shape[-1] == n, name
            full = np.broadcast_to(table, (alphas.size, 1, kappas.size, n))
            np.testing.assert_array_equal(full.reshape(-1, n).view(np.int64),
                                          ref.view(np.int64), err_msg=name)

    def test_full_grid(self):
        # the tune grid's axes at 512 run lengths, then at the 5001 of
        # max_run_length's default
        axis = grid_axis()
        self.assert_tables_equal(axis, axis, 512)
        self.assert_tables_equal(axis, axis, 5001)

    @settings(max_examples=60, deadline=None)
    @given(alphas=st.lists(st.floats(5e-324, 1e10), min_size=1, max_size=4),
           kappa=st.floats(1e-6, 1e6), n=st.integers(1, 300))
    def test_odd_alphas(self, alphas, kappa, n):
        # a repeated alpha gets equal rows
        self.assert_tables_equal(alphas + alphas[::-1], [kappa], n)


class TestLogSumExp:
    def test_matches_naive(self):
        arr = np.array([-1000.0, -1001.0, -999.5])
        naive = math.log(sum(math.exp(v + 1000) for v in arr)) - 1000
        assert log_sum_exp(arr) == pytest.approx(naive, rel=1e-12)

    def test_empty_and_neg_inf(self):
        assert log_sum_exp(np.array([])) == -math.inf
        assert log_sum_exp(np.array([-math.inf, -math.inf])) == -math.inf

import dataclasses

import numpy as np
import pytest

from spdsgd import manifold
from spdsgd.experiment import (
    FitDomainError,
    FitInputs,
    SweepConfig,
    batch_lower_bound,
    check_monotone_convex,
    closed_form_critical_batch,
    critical_batch,
    fit_model,
    log_grid_second_differences,
    model_steps,
    sweep,
)
from spdsgd.objective import Dataset, loss
from spdsgd.rsgd import _KINDS, StepSchedule

from conftest import random_spd


def cloud(rng, n, d, spread=0.4):
    raw = rng.standard_normal((n, d, d)) * spread
    return Dataset(manifold.exp_map(np.eye(d), 0.5 * (raw + raw.transpose(0, 2, 1))))


def small_sweep_config(rng, **over):
    data = cloud(rng, 16, 3)
    x0 = manifold.exp_map(np.eye(3), np.diag([1.0, -0.8, 0.6]))
    f0 = loss(x0, data)
    defaults = dict(
        data=data,
        x0=x0,
        schedules=(StepSchedule.constant(0.05),),
        epsilons=(0.8 * f0,),
        batch_sizes=(2, 4),
        seeds=(0, 1),
        max_steps=500,
    )
    defaults.update(over)
    return SweepConfig(**defaults)


class TestSweep:
    def test_cell_cardinality(self, rng):
        record = sweep(small_sweep_config(rng))
        assert len(record.cells) == 1 * 1 * 2 * 2
        assert list(record.cells) == record.keys_in_grid_order()

    def test_deterministic_and_parallelism_independent(self, rng):
        config1 = small_sweep_config(rng)
        config2 = SweepConfig(**{**config1.__dict__, "n_jobs": 3})
        r1, r2 = sweep(config1), sweep(config2)
        for key in r1.keys_in_grid_order():
            a, b = r1.cells[key], r2.cells[key]
            assert (a.steps, a.sfo, a.error) == (b.steps, b.sfo, b.error)
            assert a.final_f == b.final_f  # bitwise: same float exactly

    def test_noiseless_steps_independent_of_batch(self, rng):
        a = random_spd(rng, 3)
        data = Dataset(a[None])
        x0 = np.eye(3)
        eps = 0.25 * loss(x0, data)
        config = SweepConfig(
            data=data,
            x0=x0,
            schedules=(StepSchedule.constant(0.01),),
            epsilons=(eps,),
            batch_sizes=(1, 2, 4),
            seeds=(0, 1),
            max_steps=2000,
        )
        record = sweep(config)
        ks = {cell.steps for cell in record.cells.values()}
        assert len(ks) == 1 and None not in ks

    def test_censored_cells_flagged(self, rng):
        config = small_sweep_config(rng, epsilons=(1e-12,), max_steps=5)
        record = sweep(config)
        for cell in record.cells.values():
            assert cell.censored
            assert cell.steps is None and cell.sfo is None

    def test_aggregate_shapes(self, rng):
        config = small_sweep_config(rng)
        record = sweep(config)
        agg = record.aggregate(config.schedules[0].label, config.epsilons[0])
        assert [b for b, *_ in agg] == list(config.batch_sizes)

    def test_config_validation(self, rng):
        with pytest.raises(ValueError, match="ascending"):
            small_sweep_config(rng, batch_sizes=(4, 2))
        with pytest.raises(ValueError, match="two seeds"):
            small_sweep_config(rng, seeds=(0,))
        with pytest.raises(ValueError, match="positive"):
            small_sweep_config(rng, epsilons=(-1.0,))
        for eps in ((np.nan,), (0.5, np.inf)):
            with pytest.raises(ValueError, match="finite"):
                small_sweep_config(rng, epsilons=eps)

    def test_config_rejects_repeated_cells(self, rng):
        with pytest.raises(ValueError, match="seeds must be distinct"):
            small_sweep_config(rng, seeds=(0, 0))
        with pytest.raises(ValueError, match="schedules must be distinct"):
            small_sweep_config(
                rng, schedules=(StepSchedule.constant(0.05), StepSchedule.constant(0.05))
            )
        with pytest.raises(ValueError, match="nonnegative"):
            small_sweep_config(rng, seeds=(-1, 0))


class TestMonotoneConvex:
    def test_hand_example(self):
        report = check_monotone_convex([(1, 10.0), (2, 5.0), (4, 3.0)])
        assert report.spearman_steps == pytest.approx(-1.0)
        assert report.min_second_diff_steps == pytest.approx(3.0)  # 3 - 2*5 + 10
        assert report.monotone_pass and report.steps_convex_pass

    def test_constant_series_passes(self):
        report = check_monotone_convex([(1, 7.0), (2, 7.0), (4, 7.0)])
        assert report.steps_nonincreasing
        assert np.isnan(report.spearman_steps)
        assert report.monotone_pass
        assert report.min_second_diff_steps == 0.0
        assert report.steps_convex_pass and report.sfo_convex_pass

    def test_model_generated_curve_passes(self):
        inputs = FitInputs(sigma2=1.0, grad_bound=1.0, alpha=1e-3, eps=0.1)
        bs = [2**p for p in range(4, 10)]
        pts = [(b, model_steps("constant", b, 1.0, 1.0, inputs)) for b in bs]
        report = check_monotone_convex(pts)
        assert report.passed

    def test_requires_three_points(self):
        with pytest.raises(ValueError):
            check_monotone_convex([(1, 2.0), (2, 1.0)])

    def test_second_differences_match_plain_on_uniform_grid(self):
        v = np.array([9.0, 4.0, 2.5, 2.0])
        d2 = log_grid_second_differences([2, 4, 8, 16], v)
        np.testing.assert_allclose(d2, v[2:] - 2 * v[1:-1] + v[:-2], rtol=1e-12)


CONST_INPUTS = FitInputs(sigma2=1.5, grad_bound=0.8, alpha=1e-3, eps=0.1)
STAIR_INPUTS = FitInputs(
    sigma2=1.5, grad_bound=0.8, alpha=1e-3, eps=0.1, gamma=0.5, max_stage=4
)
BATCHES = [2**p for p in range(4, 10)]


def model_points(kind, c1, c2, inputs):
    return [(b, model_steps(kind, b, c1, c2, inputs)) for b in BATCHES]


class TestFitModel:
    # Every schedule kind needs a model; STAIR_INPUTS carries every field any model reads.
    @pytest.mark.parametrize("kind,inputs", [(kind, STAIR_INPUTS) for kind in _KINDS])
    def test_recovers_known_constants(self, kind, inputs):
        c1_true, c2_true = 2.3, 7.7
        fit = fit_model(kind, model_points(kind, c1_true, c2_true, inputs), inputs)
        assert fit.c1 == pytest.approx(c1_true, rel=1e-6)
        assert fit.c2 == pytest.approx(c2_true, rel=1e-6)
        assert fit.residual_norm < 1e-9

    def test_staircase_curve_is_scaled_constant_curve(self):
        c1, c2 = 2.3, 7.7
        fit_c = fit_model("constant", model_points("constant", c1, c2, CONST_INPUTS), CONST_INPUTS)
        fit_s = fit_model("staircase", model_points("staircase", c1, c2, STAIR_INPUTS), STAIR_INPUTS)
        scale = STAIR_INPUTS.alpha * STAIR_INPUTS.gamma**STAIR_INPUTS.max_stage
        for b in BATCHES:
            k_c = model_steps("constant", b, fit_c.c1, fit_c.c2, CONST_INPUTS)
            k_s = model_steps("staircase", b, fit_s.c1, fit_s.c2, STAIR_INPUTS)
            assert k_s == pytest.approx(k_c / scale, rel=1e-6)

    def test_scale_consistency(self):
        c1, c2 = 2.3, 7.7
        pts = model_points("constant", c1, c2, CONST_INPUTS)
        fit1 = fit_model("constant", pts, CONST_INPUTS)
        fit2 = fit_model("constant", [(b, 3.5 * k) for b, k in pts], CONST_INPUTS)
        assert fit2.c1 == pytest.approx(fit1.c1, rel=1e-6)
        assert fit2.c2 == pytest.approx(3.5 * fit1.c2, rel=1e-6)
        lo = batch_lower_bound("constant", max(fit1.c1, fit2.c1), CONST_INPUTS) * 1.2
        b1 = critical_batch(fit1, (lo, 10.0)).critical_numeric
        b2 = critical_batch(fit2, (lo, 10.0)).critical_numeric
        assert b2 == pytest.approx(b1, rel=1e-6)

    def test_noisy_data_still_fits(self):
        rng = np.random.default_rng(8)
        pts = [
            (b, k * np.exp(rng.normal(0, 0.05)))
            for b, k in model_points("constant", 2.3, 7.7, CONST_INPUTS)
        ]
        fit = fit_model("constant", pts, CONST_INPUTS)
        assert fit.c1 > 0 and fit.c2 > 0
        assert fit.residual_norm < 0.5

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            fit_model("constant", [(16, 100.0)], CONST_INPUTS)

    def test_rejects_nonpositive_steps(self):
        with pytest.raises(ValueError):
            fit_model("constant", [(16, 0.0), (32, 5.0)], CONST_INPUTS)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown model kind 'momentum'"):
            model_steps("momentum", 16, 2.3, 7.7, CONST_INPUTS)
        with pytest.raises(ValueError, match="unknown model kind 'momentum'"):
            batch_lower_bound("momentum", 2.3, CONST_INPUTS)
        with pytest.raises(ValueError, match="unknown model kind 'momentum'"):
            fit_model("momentum", model_points("constant", 2.3, 7.7, CONST_INPUTS), CONST_INPUTS)

    @pytest.mark.parametrize(
        "field, value",
        [("sigma2", np.nan), ("grad_bound", np.inf), ("eps", np.nan), ("alpha", 0.0),
         ("alpha", np.inf)],
    )
    def test_inputs_reject_non_finite_constants(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            dataclasses.replace(CONST_INPUTS, **{field: value})


class TestCriticalBatch:
    def test_numeric_matches_closed_form_constant(self):
        c1, c2 = 1.0, 1.0
        inputs = FitInputs(sigma2=1.0, grad_bound=1.0, alpha=1e-3, eps=0.1)
        fit = fit_model("constant", model_points("constant", c1, c2, inputs), inputs)
        expected = 2 * fit.c1 * inputs.sigma2 * inputs.alpha / (
            inputs.eps - inputs.grad_bound**2 * inputs.alpha * fit.c1
        )
        out = critical_batch(fit, (0.012, 10.0))
        assert not out.critical_at_boundary
        assert out.critical_numeric == pytest.approx(expected, rel=1e-6)
        assert out.critical_closed_form == pytest.approx(expected, rel=1e-12)
        # Independent check: the complexity derivative vanishes at b*.
        h = 1e-6 * expected
        kb = lambda b: model_steps("constant", b, fit.c1, fit.c2, inputs) * b
        deriv = (kb(expected + h) - kb(expected - h)) / (2 * h)
        assert abs(deriv) < 1e-6 * kb(expected)

    def test_numeric_matches_closed_form_inverse_sqrt(self):
        inputs = CONST_INPUTS
        fit = fit_model(
            "inverse_sqrt", model_points("inverse_sqrt", 2.3, 7.7, inputs), inputs
        )
        expected = 2 * fit.c1 * inputs.sigma2 / (
            2 * fit.c1 * inputs.grad_bound**2 + fit.c2
        )
        out = critical_batch(fit, (0.05, 50.0))
        assert not out.critical_at_boundary
        assert out.critical_numeric == pytest.approx(expected, rel=1e-6)

    def test_zero_noise_pins_boundary(self):
        inputs = FitInputs(sigma2=0.0, grad_bound=0.8, alpha=1e-3, eps=0.1)
        pts = model_points("constant", 2.3, 7.7, inputs)
        fit = fit_model("constant", pts, inputs)
        out = critical_batch(fit, (16.0, 512.0))
        assert out.critical_at_boundary
        assert out.critical_numeric == 16.0
        assert out.critical_closed_form is None

    def test_staircase_and_constant_share_minimizer(self):
        c1, c2 = 2.3, 7.7
        fit_c = fit_model("constant", model_points("constant", c1, c2, CONST_INPUTS), CONST_INPUTS)
        fit_s = fit_model("staircase", model_points("staircase", c1, c2, STAIR_INPUTS), STAIR_INPUTS)
        lo = batch_lower_bound("constant", max(fit_c.c1, fit_s.c1), CONST_INPUTS) * 1.2
        b_c = critical_batch(fit_c, (lo, 10.0)).critical_numeric
        b_s = critical_batch(fit_s, (lo, 10.0)).critical_numeric
        assert b_s == pytest.approx(b_c, rel=1e-6)

    def test_range_below_domain_rejected(self):
        fit = fit_model("constant", model_points("constant", 2.3, 7.7, CONST_INPUTS), CONST_INPUTS)
        bound = batch_lower_bound("constant", fit.c1, CONST_INPUTS)
        with pytest.raises(FitDomainError):
            critical_batch(fit, (0.5 * bound, 10.0))

    def test_closed_form_none_when_margin_nonpositive(self):
        inputs = FitInputs(sigma2=1.0, grad_bound=10.0, alpha=0.5, eps=0.1)
        from spdsgd.experiment import FitResult

        fit = FitResult(kind="constant", c1=1.0, c2=1.0, inputs=inputs, residual_norm=0.0)
        assert closed_form_critical_batch(fit) is None

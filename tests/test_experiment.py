import dataclasses
import os
import subprocess
import sys
import weakref
from itertools import product

import numpy as np
import pytest

from spdsgd import experiment, manifold, objective, rsgd, symmat
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
from spdsgd.rsgd import _KINDS, RunConfig, RunError, StepSchedule, _descend, run

from conftest import capped_fit_case, random_fit_case, random_spd


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
        config = small_sweep_config(rng, schedules=(StepSchedule.constant(0.05),
                                                    StepSchedule.inverse_sqrt()))
        e = config.epsilons[0]
        record = sweep(dataclasses.replace(config, epsilons=(e, 0.9 * e)))
        assert len(record.cells) == 2 * 2 * 2 * 2
        assert list(record.cells) == list(
            product(("constant:0.05", "inverse_sqrt"), (e, 0.9 * e), (2, 4), (0, 1))
        )

    def test_deterministic_and_parallelism_independent(self, rng):
        config1 = small_sweep_config(rng)
        config2 = SweepConfig(**{**config1.__dict__, "n_jobs": 3})
        r1, r2 = sweep(config1), sweep(config2)
        assert list(r1.cells) == list(r2.cells)
        for key, a in r1.cells.items():
            b = r2.cells[key]
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

    def test_cells_match_full_runs(self, rng):
        # Cells evaluate the loss only where a threshold can be crossed; each
        # K and final loss must still be the full run's, bit for bit.
        config = small_sweep_config(
            rng,
            schedules=(
                StepSchedule.constant(0.05),
                StepSchedule.inverse_sqrt(),
                StepSchedule.staircase(0.1, 0.5, 10, 3),
            ),
            batch_sizes=(1, 4, 32),
            max_steps=300,
        )
        f0 = loss(config.x0, config.data)
        config = dataclasses.replace(config, epsilons=(0.6 * f0, 0.3 * f0, 0.2 * f0))
        record = sweep(config)
        for schedule in config.schedules:
            for b in config.batch_sizes:
                for seed in config.seeds:
                    full = run(RunConfig(config.data, config.x0, schedule, b, seed,
                                         config.max_steps, epsilons=config.epsilons))
                    for e in config.epsilons:
                        cell = record.cells[(schedule.label, e, b, seed)]
                        assert cell.steps == full.steps_to_epsilon[e]
                        assert cell.final_f == full.f[-1]

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
        # Each threshold once, in first-seen order: the order of the CSV's rows.
        assert small_sweep_config(rng, epsilons=(0.5, 0.25, 0.5)).epsilons == (0.5, 0.25)

    def test_config_rejects_repeated_cells(self, rng):
        with pytest.raises(ValueError, match="seeds must be distinct"):
            small_sweep_config(rng, seeds=(0, 0))
        with pytest.raises(ValueError, match="schedules must be distinct"):
            small_sweep_config(
                rng, schedules=(StepSchedule.constant(0.05), StepSchedule.constant(0.05))
            )
        with pytest.raises(ValueError, match="nonnegative"):
            small_sweep_config(rng, seeds=(-1, 0))

    @pytest.mark.parametrize("field, value, named", [
        ("batch_sizes", (1.7, 2.2), "batch size"), ("seeds", (0, 1.5), "seed"),
        ("max_steps", 2.5, "max_steps"),
    ])
    def test_config_rejects_non_integers(self, rng, field, value, named):
        # int() would store (1, 2) for batches (1.7, 2.2).
        with pytest.raises(TypeError, match=f"{named} must be an integer"):
            small_sweep_config(rng, **{field: value})


def lockstep_config(rng, **over):
    # A constant and a staircase schedule that share their first 10 steps,
    # inverse_sqrt, and a batch above N = 16.
    config = small_sweep_config(
        rng,
        schedules=(
            StepSchedule.constant(0.05),
            StepSchedule.staircase(0.05, 0.5, 10, 3),
            StepSchedule.inverse_sqrt(),
        ),
        batch_sizes=(1, 4, 19),
        seeds=(0, 1, 2),
        max_steps=200,
    )
    f0 = loss(config.x0, config.data)
    return dataclasses.replace(config, **{"epsilons": (0.6 * f0, 0.3 * f0, 0.2 * f0), **over})


def lone_run(config, schedule, b, seed, **over):
    fields = {"max_steps": config.max_steps,
              "epsilons": tuple(sorted(config.epsilons, reverse=True)), **over}
    return RunConfig(config.data, config.x0, schedule, b, seed, **fields)


def count_calls(monkeypatch):
    """``(points evaluated, _eigh calls made outside full evaluations)``."""
    points, outside, depth = [], [], [0]
    summary, eigh = objective.objective_summary, symmat._eigh

    def counted_summary(m, data):
        points.append(m)
        depth[0] += 1
        try:
            return summary(m, data)
        finally:
            depth[0] -= 1

    def counted_eigh(s):
        if not depth[0]:
            outside.append(np.shape(s))
        return eigh(s)

    monkeypatch.setattr(objective, "objective_summary", counted_summary)
    monkeypatch.setattr(symmat, "_eigh", counted_eigh)
    return points, outside


class TestLockstep:
    def test_cells_equal_lone_skip_path_runs(self, rng):
        config = lockstep_config(rng)
        record = sweep(config)
        for schedule in config.schedules:
            for b in config.batch_sizes:
                for seed in config.seeds:
                    ((hits, final_f, _, _, _),) = _descend([lone_run(config, schedule, b, seed)])
                    for e in config.epsilons:
                        cell = record.cells[(schedule.label, e, b, seed)]
                        assert (cell.steps, cell.final_f, cell.error) == (hits[e], final_f, None)
                        assert cell.wall_ms > 0

    def test_failure_stops_only_its_own_runs(self, rng, monkeypatch):
        # The eigensolver fails on one iterate of (constant, b = 4, seed 1),
        # inside the staircase's shared prefix, where the stacked root pairs
        # of the skipped iterates meet it: those two runs' cells get the
        # error a lone run reports, and every other cell is unchanged.
        config = lockstep_config(rng)
        clean = sweep(config)
        target = run(lone_run(config, StepSchedule.constant(0.05), 4, 1, max_steps=6)).final_point
        eigh = symmat._eigh

        def failing(s):
            if np.any(np.all(np.reshape(s, (-1, 3, 3)) == target, axis=(1, 2))):
                raise symmat.NumericalError("eigensolver stub failed")
            return eigh(s)

        monkeypatch.setattr(symmat, "_eigh", failing)
        record = sweep(config)
        failed = {(label, b, seed) for (label, _, b, seed), cell in record.cells.items()
                  if cell.error is not None}
        assert failed == {("constant:0.05", 4, 1), ("staircase:0.05,0.5,10,3", 4, 1)}
        for schedule in config.schedules[:2]:
            (outcome,) = _descend([lone_run(config, schedule, 4, 1)])
            assert isinstance(outcome, RunError)
            assert str(outcome) == "update failed at step 6: eigensolver stub failed"
            for e in config.epsilons:
                assert record.cells[(schedule.label, e, 4, 1)].error == str(outcome)
        for key, cell in record.cells.items():
            if (key[0], key[2], key[3]) not in failed:
                assert (cell.steps, cell.final_f) == (clean.cells[key].steps, clean.cells[key].final_f)

    def test_x0_is_evaluated_once(self, rng, monkeypatch):
        config = lockstep_config(rng)
        points, _ = count_calls(monkeypatch)
        sweep(config)
        assert sum(np.array_equal(p, config.x0) for p in points) == 1

    def test_at_most_one_earlier_summary_is_alive(self, rng, monkeypatch):
        # An evaluated branch keeps its anchor's four values, not the summary
        # with its per-matrix stacks, once its batch gradient is taken.
        built, alive = [], []
        summary = objective.objective_summary

        def recorded(m, data):
            alive.append(sum(ref() is not None for ref in built))
            s = summary(m, data)
            built.append(weakref.ref(s))
            return s

        monkeypatch.setattr(objective, "objective_summary", recorded)
        sweep(lockstep_config(rng))
        assert len(built) > 50 and max(alive) <= 1

    def test_eigh_calls_do_not_grow_with_seeds(self, rng, monkeypatch):
        # Every cell is censored, so every run takes all 30 steps; the rows
        # of all batches fit in one call of N = 64 rows.
        data = cloud(rng, 64, 3)
        config = small_sweep_config(rng, data=data, epsilons=(1e-9,), batch_sizes=(1, 4),
                                    max_steps=30)
        counts = []
        for seeds in ((0, 1), (0, 1, 2, 3, 4, 5)):
            points, outside = count_calls(monkeypatch)
            record = sweep(dataclasses.replace(config, seeds=seeds))
            assert all(cell.censored for cell in record.cells.values())
            assert len(points) == 1 + len(record.cells)  # x0, then each run's last iterate
            counts.append(len(outside))
        assert counts[0] == counts[1] == 30 + 3 * 29  # exp maps; bounds, roots, rows

    def test_shared_prefix_costs_no_evaluation(self, rng, monkeypatch):
        # Within max_steps <= T, the staircase takes the constant's steps.
        config = small_sweep_config(rng, batch_sizes=(1, 4), max_steps=40)
        counts = []
        for schedules in ((StepSchedule.constant(0.05),),
                          (StepSchedule.constant(0.05), StepSchedule.staircase(0.05, 0.5, 40, 2))):
            points, _ = count_calls(monkeypatch)
            record = sweep(dataclasses.replace(config, schedules=schedules))
            counts.append(len(points))
        assert counts[0] == counts[1] > 1
        for (label, e, b, seed), cell in record.cells.items():
            twin = record.cells[("constant:0.05", e, b, seed)]
            assert (cell.steps, cell.final_f) == (twin.steps, twin.final_f)

    def test_threads_never_outnumber_groups(self, rng, monkeypatch):
        workers = []

        class Recording(rsgd.ThreadPoolExecutor):
            def __init__(self, max_workers):
                workers.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(rsgd, "ThreadPoolExecutor", Recording)
        config = small_sweep_config(rng, n_jobs=8)
        record = sweep(config)
        assert workers == [4]  # 2 batches x 2 seeds
        serial = sweep(dataclasses.replace(config, n_jobs=1))
        assert workers == [4]
        for key, cell in record.cells.items():
            assert (cell.steps, cell.final_f) == (serial.cells[key].steps, serial.cells[key].final_f)

    def test_threads_never_split_a_branch(self, rng, monkeypatch):
        # The constant and the staircase share every step of a (batch, seed):
        # dealt together, each thread evaluates only its own x0 once more.
        config = small_sweep_config(
            rng, schedules=(StepSchedule.constant(0.05), StepSchedule.staircase(0.05, 0.5, 40, 2)),
            batch_sizes=(1, 4), seeds=(0, 1, 2), max_steps=40)
        counts, records = [], []
        for jobs in (1, 2, 4, 8):
            points, _ = count_calls(monkeypatch)
            records.append(sweep(dataclasses.replace(config, n_jobs=jobs)))
            counts.append(len(points))
        assert counts == [counts[0] + min(jobs, 2 * 3) - 1 for jobs in (1, 2, 4, 8)]
        for record in records[1:]:
            assert list(record.cells) == list(records[0].cells)
            for key, cell in record.cells.items():
                twin = records[0].cells[key]
                assert (cell.steps, cell.sfo, cell.final_f, cell.error) == (
                    twin.steps, twin.sfo, twin.final_f, twin.error)

    def test_dealt_outcomes_equal_serial_ones(self, rng):
        config = lockstep_config(rng)
        pairs = ((1, 0), (4, 1), (19, 2), (1, 2), (4, 0))  # five branches of two runs
        configs = [lone_run(config, s, b, seed) for b, seed in pairs for s in config.schedules[:2]]
        serial, dealt = _descend(configs), _descend(configs, jobs=3)
        for (hits, f, x, steps, _), (hits2, f2, x2, steps2, _) in zip(serial, dealt):
            assert (hits, f, steps) == (hits2, f2, steps2)
            assert np.array_equal(x, x2)

    def test_seeds_must_fit_a_philox_key(self, rng):
        small_sweep_config(rng, seeds=(0, 2**64 - 1))
        with pytest.raises(ValueError, match="below 2\\^64"):
            small_sweep_config(rng, seeds=(0, 2**64))


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
        [("sigma2", np.nan), ("grad_bound", np.inf), ("grad_bound", 1e200), ("eps", np.nan),
         ("alpha", 0.0), ("alpha", np.inf)],
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


# Fits made from C1 = 2.3, C2 = 7.7 at b = 16..512; their closed forms are
# about 2.8346 (inverse_sqrt), 0.07003 (constant) and 18.675 (noisy constant),
# and the quiet inputs have none.
INVSQRT_INPUTS = FitInputs(sigma2=5.0, grad_bound=0.3, alpha=2e-3, eps=0.05)
NOISY_INPUTS = dataclasses.replace(CONST_INPUTS, sigma2=400.0)
QUIET_INPUTS = dataclasses.replace(CONST_INPUTS, sigma2=0.0)
B_STAR_INVSQRT, B_STAR_CONST = 2.834606852353942, 0.07003085417339304


@pytest.mark.parametrize(
    "kind, inputs, b_range",
    [
        ("inverse_sqrt", INVSQRT_INPUTS, (1.0, 1e6)),
        ("inverse_sqrt", INVSQRT_INPUTS, (16.0, 16.0016)),
        ("inverse_sqrt", INVSQRT_INPUTS, (1e-3, 1e6)),
        ("inverse_sqrt", INVSQRT_INPUTS, (2.8, 2.87)),
        ("inverse_sqrt", INVSQRT_INPUTS, (B_STAR_INVSQRT * (1 - 1e-3), 100.0)),
        ("inverse_sqrt", INVSQRT_INPUTS, (B_STAR_INVSQRT * (1 + 1e-3), 100.0)),
        ("inverse_sqrt", INVSQRT_INPUTS, (0.5, B_STAR_INVSQRT * (1 + 1e-3))),
        ("inverse_sqrt", INVSQRT_INPUTS, (0.5, B_STAR_INVSQRT * (1 - 1e-3))),
        ("constant", CONST_INPUTS, (0.04, 1e6)),
        ("constant", CONST_INPUTS, (0.05, 10.0)),
        ("constant", CONST_INPUTS, (0.0699, 0.0701)),
        ("constant", CONST_INPUTS, (0.04, B_STAR_CONST * (1 - 1e-3))),
        ("constant", CONST_INPUTS, (B_STAR_CONST * (1 + 1e-3), 1e3)),
        ("constant", NOISY_INPUTS, (10.0, 1e6)),
        ("constant", NOISY_INPUTS, (16.0, 16.0016)),
        ("constant", NOISY_INPUTS, (18.6, 18.8)),
        ("constant", NOISY_INPUTS, (1e4, 1e6)),
        ("constant", QUIET_INPUTS, (1.0, 1e6)),
        ("constant", QUIET_INPUTS, (16.0, 16.0016)),
        ("inverse_sqrt", QUIET_INPUTS, (1.0, 1e6)),
        ("inverse_sqrt", QUIET_INPUTS, (16.0, 16.0016)),
        ("inverse_sqrt", INVSQRT_INPUTS, (1.0, 1e200)),
    ],
)
def test_critical_batch_is_the_clamped_closed_form(kind, inputs, b_range):
    from scipy import optimize

    fit = fit_model(kind, model_points(kind, 2.3, 7.7, inputs), inputs)
    lo, hi = b_range

    def sfo(log_b: float) -> float:
        b = np.exp(log_b)
        return float(model_steps(kind, b, fit.c1, fit.c2, inputs)) * b

    # An oracle of its own: SciPy's bounded search over log b.  K*b is convex
    # in b on the range, so an end no higher than the search's point is the minimum.
    res = optimize.minimize_scalar(sfo, bounds=(np.log(lo), np.log(hi)), method="bounded",
                                   options={"xatol": 1e-12})
    end = min((sfo(np.log(lo)), lo), (sfo(np.log(hi)), hi))
    expected = end[1] if end[0] <= res.fun else float(np.exp(res.x))
    out = critical_batch(fit, b_range)
    assert out.critical_numeric == pytest.approx(expected, rel=1e-6)
    assert out.critical_at_boundary == (expected in (lo, hi))


def capture_searches(monkeypatch):
    """Record (objective, start, result) of every simplex search fit_model makes.

    The recorded objective remembers its values by the bits of its argument,
    so a search that retraces fit_model's steps costs no new evaluations.
    """
    searches = []
    real = experiment._nelder_mead

    def spy(func, x0, **options):
        memo = {}

        def remembered(x):
            key = np.asarray(x, dtype=np.float64).tobytes()
            if key not in memo:
                memo[key] = func(x)
            return memo[key]

        result = real(remembered, x0, **options)
        searches.append((remembered, np.array(x0), result))
        return result

    monkeypatch.setattr(experiment, "_nelder_mead", spy)
    return searches, real


def scipy_search(func, x0, maxiter=4000, maxfev=8000):
    from scipy import optimize

    return optimize.minimize(func, x0, method="Nelder-Mead", options={
        "xatol": 1e-14, "fatol": 1e-16, "maxiter": maxiter, "maxfev": maxfev})


def same_bits(ours, ref) -> bool:
    x, fun, message = ours
    return (x.tobytes() == ref.x.tobytes() and message == ref.message
            and np.float64(fun).tobytes() == np.float64(ref.fun).tobytes())


def test_simplex_search_matches_scipy_bit_for_bit(monkeypatch):
    searches, nelder_mead = capture_searches(monkeypatch)
    rng = np.random.default_rng(20)
    n_cases = 306
    for case in range(n_cases):
        kind, points, inputs, label = random_fit_case(rng, case)
        try:
            fit_model(kind, points, inputs)
        except (experiment.FitDomainError, experiment.FitError):
            pass
        func, x0, ours = searches[-1]
        assert same_bits(ours, scipy_search(func, x0)), label
        # Both early stops, from the same start: the evaluation cap (also
        # inside the first simplex) and the iteration cap.
        for maxiter, maxfev in [(4000, 2), (4000, int(rng.integers(4, 60))),
                                (int(rng.integers(1, 40)), 8000)]:
            ours = nelder_mead(func, x0, xatol=1e-14, fatol=1e-16, maxiter=maxiter, maxfev=maxfev)
            assert same_bits(ours, scipy_search(func, x0, maxiter, maxfev)), (
                f"{label}, maxiter {maxiter}, maxfev {maxfev}")
    assert len(searches) == n_cases


def test_fit_keeps_why_its_search_stopped():
    kind, points, inputs = capped_fit_case()
    fit = fit_model(kind, points, inputs)
    assert fit.message == "Maximum number of function evaluations has been exceeded."
    assert critical_batch(fit, (points[0][0], points[-1][0])).message == fit.message
    inputs = FitInputs(sigma2=1.0, grad_bound=1.0, alpha=0.1, eps=0.5)
    points = [(b, float(model_steps("constant", b, 2.0, 3.0, inputs))) for b in (1, 4, 16)]
    assert fit_model("constant", points, inputs).message == "Optimization terminated successfully."


def test_spearman_matches_scipy_with_ties():
    from scipy import stats

    rng = np.random.default_rng(21)
    for trial in range(500):
        n = int(rng.integers(3, 30))
        bs = np.sort(rng.choice(np.arange(1, 2000), size=n, replace=False))
        # Few distinct values, so most series have ties.
        ks = rng.choice(np.exp(rng.normal(size=int(rng.integers(2, 12)))), size=n)
        if np.all(ks == ks[0]):
            continue
        report = check_monotone_convex(list(zip(bs.tolist(), ks.tolist())))
        expected = float(stats.spearmanr(bs, ks).statistic)
        assert report.spearman_steps == pytest.approx(expected, abs=1e-12), trial
    assert np.isnan(check_monotone_convex([(1, 3.0), (2, 3.0), (4, 3.0), (8, 3.0)]).spearman_steps)
    assert np.isnan(check_monotone_convex([(1, 3.0), (2, np.nan), (4, 1.0)]).spearman_steps)


def test_pipeline_runs_with_scipy_unimportable(tmp_path):
    # numpy is spdsgd's only runtime dependency: with every scipy import
    # refused, gen -> sweep -> fit and the K(b) checks still run.
    code = (
        "import sys\n"
        "class RefuseScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'scipy':\n"
        "            raise ImportError('scipy refused: ' + name)\n"
        "sys.meta_path.insert(0, RefuseScipy())\n"
        "from spdsgd import cli\n"
        "from spdsgd.experiment import FitInputs, check_monotone_convex, fit_model, model_steps\n"
        "data, sweep = sys.argv[1] + '/data.msf', sys.argv[1] + '/sweep.csv'\n"
        "assert cli.main(['gen', '--n', '12', '--d', '3', '--spread', '0.4', '--center', "
        "'scale:2', '--seed', '3', '--out', data]) == 0\n"
        "assert cli.main(['sweep', '--data', data, '--schedule', 'staircase:0.05,0.5,20,2', "
        "'--epsilons', '0.9', '--batches', '2^2..2^4', '--seeds', '0,1', '--steps', '400', "
        "'--out', sweep]) == 0\n"
        "assert cli.main(['fit', '--sweep-csv', sweep, '--schedule', 'staircase', "
        "'--epsilon', '0.9', '--sigma2', '1', '--G', '1']) == 0\n"
        "inputs = FitInputs(sigma2=1.0, grad_bound=1.0, alpha=0.1, eps=0.5)\n"
        "points = [(b, float(model_steps('constant', b, 2.0, 3.0, inputs))) for b in (1, 4, 16)]\n"
        "fit = fit_model('constant', points, inputs)\n"
        "assert abs(fit.c1 / 2.0 - 1) < 1e-6 and abs(fit.c2 / 3.0 - 1) < 1e-6, fit\n"
        "report = check_monotone_convex([(1, 10.0), (2, 6.0), (4, 4.0), (8, 4.0)])\n"
        "assert report.passed and report.spearman_steps < -0.9, report\n"
        "assert not [m for m in sys.modules if m.partition('.')[0] == 'scipy']\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}  # the spdsgd under test
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                          text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert "C1" in done.stdout, done.stdout

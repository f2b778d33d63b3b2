import numpy as np
import pytest

from numpy.random import Generator, Philox

from spdsgd import dataio, manifold, objective, rsgd, symmat
from spdsgd.objective import (
    Ball,
    Dataset,
    estimate_smoothness,
    full_gradient,
    gradient_variance,
    loss,
    sample_batch,
)
from spdsgd.rsgd import (
    _BOUND_MARGIN,
    ConvergenceError,
    RunConfig,
    RunError,
    StepSchedule,
    _descend,
    _loss_lower_bound,
    reference_centroid,
    rsgd_step,
    run,
    stationarity_gap,
    step_rng,
    step_size,
)

from conftest import random_spd, random_tangent


def cloud(rng, n, d, spread=0.4, center=None):
    center = np.eye(d) if center is None else center
    raw = rng.standard_normal((n, d, d)) * spread
    return Dataset(manifold.exp_map(center, 0.5 * (raw + raw.transpose(0, 2, 1))))


class TestStepSchedule:
    def test_constant(self):
        s = StepSchedule.constant(5e-4)
        assert all(step_size(s, k) == 5e-4 for k in (0, 3, 10**6))

    def test_inverse_sqrt(self):
        s = StepSchedule.inverse_sqrt()
        assert step_size(s, 0) == 1.0
        assert step_size(s, 3) == pytest.approx(0.5)

    def test_staircase_sequence(self):
        s = StepSchedule.staircase(0.5, 0.5, period=3, max_stage=2)
        got = [step_size(s, k) for k in range(10)]
        expected = [0.5, 0.5, 0.5, 0.25, 0.25, 0.25, 0.125, 0.125, 0.125, 0.125]
        assert got == expected

    def test_staircase_bounds(self):
        s = StepSchedule.staircase(0.3, 0.7, period=5, max_stage=4)
        vals = [step_size(s, k) for k in range(100)]
        assert max(vals) == 0.3
        assert min(vals) == pytest.approx(0.3 * 0.7**4)

    def test_validation(self):
        with pytest.raises(ValueError):
            StepSchedule.constant(0.0)
        with pytest.raises(ValueError):
            StepSchedule.constant(1.5)
        with pytest.raises(ValueError):
            StepSchedule.staircase(0.5, 1.0, 3, 2)
        with pytest.raises(ValueError):
            StepSchedule.staircase(0.5, 0.5, 0, 2)
        with pytest.raises(ValueError):
            StepSchedule("momentum")

    def test_labels_unique(self):
        a = StepSchedule.constant(0.01)
        b = StepSchedule.constant(0.02)
        assert a.label != b.label
        assert StepSchedule.inverse_sqrt().label == "inverse_sqrt"

    def test_schedule_labels_parse_back(self):
        for schedule in (
            StepSchedule.constant(0.0005),
            StepSchedule.inverse_sqrt(),
            StepSchedule.staircase(0.01, 0.5, 100, 10),
        ):
            assert StepSchedule.parse(schedule.label) == schedule


class TestStep:
    def test_zero_gradient_fixed_point(self, rng):
        a = random_spd(rng, 3)
        data = Dataset(np.repeat(a[None], 4, axis=0))
        out = rsgd_step(a, data, np.array([0, 1]), 0.1)
        np.testing.assert_allclose(out, a, rtol=1e-12)

    def test_moves_toward_single_target(self, rng):
        a = random_spd(rng, 3)
        data = Dataset(a[None])
        x = random_spd(rng, 3)
        x_next = rsgd_step(x, data, np.array([0]), 0.05)
        assert manifold.distance(x_next, a) < manifold.distance(x, a)

    def test_requires_positive_step(self, rng):
        data = cloud(rng, 4, 3)
        with pytest.raises(ValueError):
            rsgd_step(np.eye(3), data, np.array([0]), 0.0)


class TestRun:
    def make_config(self, rng, **over):
        data = cloud(rng, 16, 3)
        defaults = dict(
            data=data,
            x0=np.eye(3),
            schedule=StepSchedule.constant(0.05),
            batch_size=4,
            seed=7,
            max_steps=30,
        )
        defaults.update(over)
        return RunConfig(**defaults)

    def test_zero_steps_records_initial_only(self, rng):
        record = run(self.make_config(rng, max_steps=0))
        assert record.f.size == 1
        assert record.alpha.size == 0
        assert record.steps == 0

    def test_deterministic_given_seed(self, rng):
        config = self.make_config(rng)
        r1, r2 = run(config), run(config)
        np.testing.assert_array_equal(r1.f, r2.f)
        np.testing.assert_array_equal(r1.grad_norm, r2.grad_norm)
        np.testing.assert_array_equal(r1.final_point, r2.final_point)
        assert r1.steps_to_epsilon == r2.steps_to_epsilon

    def test_matches_manual_step_composition(self, rng):
        config = self.make_config(rng, max_steps=5)
        record = run(config)
        x = config.x0
        for k in range(5):
            batch = sample_batch(step_rng(config.seed, k), config.data.n, config.batch_size)
            x = rsgd_step(x, config.data, batch, step_size(config.schedule, k))
        np.testing.assert_array_equal(record.final_point, x)

    def test_single_point_dataset_converges_monotonically(self, rng):
        a = random_spd(rng, 3)
        config = RunConfig(
            data=Dataset(a[None]),
            x0=np.eye(3),
            schedule=StepSchedule.constant(0.01),
            batch_size=1,
            seed=0,
            max_steps=10_000,
            epsilons=(1e-8,),
        )
        record = run(config)
        assert record.steps_to_epsilon[1e-8] is not None
        assert record.f[-1] < 1e-8
        assert np.all(np.diff(record.f) < 0)

    def test_epsilon_hits_are_monotone(self, rng):
        eps = (2.0, 1.0, 0.5)
        record = run(self.make_config(rng, epsilons=eps, max_steps=400))
        hits = [record.steps_to_epsilon[e] for e in eps]
        known = [h for h in hits if h is not None]
        assert known == sorted(known)
        # No threshold reached after a smaller one.
        for big, small in zip(hits, hits[1:]):
            if small is not None:
                assert big is not None and big <= small

    def test_early_stop_when_all_thresholds_hit(self, rng):
        record = run(self.make_config(rng, epsilons=(10.0,), max_steps=500))
        assert record.steps == record.steps_to_epsilon[10.0]

    def test_reference_metrics_recorded(self, rng):
        data = cloud(rng, 16, 3)
        ref = reference_centroid(data, 1e-9)
        config = RunConfig(
            data=data,
            x0=manifold.exp_map(np.eye(3), np.diag([0.5, -0.2, 0.1])),
            schedule=StepSchedule.constant(0.05),
            batch_size=4,
            seed=3,
            max_steps=20,
            reference=ref,
        )
        record = run(config)
        assert np.all(np.isfinite(record.stationarity))
        assert np.all(record.ref_distance >= 0)
        assert record.max_ref_distance == pytest.approx(record.ref_distance.max())

    def test_config_validation(self, rng):
        data = cloud(rng, 8, 3)
        with pytest.raises(ValueError):
            RunConfig(data, np.eye(3), StepSchedule.constant(0.1), 0, 0, 10)
        config = RunConfig(
            data, np.eye(3), StepSchedule.constant(0.1), 2, 0, 10, epsilons=(0.25, 0.5, 0.25)
        )
        assert config.epsilons == (0.5, 0.25)
        with pytest.raises(ValueError, match="positive definite"):
            RunConfig(data, np.diag([1.0, -1.0, 1.0]), StepSchedule.constant(0.1), 2, 0, 10)
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            RunConfig(data, np.eye(3), StepSchedule.constant(0.1), 2, -1, 10)
        for eps in ((0.5, np.nan), (np.inf, 0.5)):
            with pytest.raises(ValueError, match="finite"):
                RunConfig(data, np.eye(3), StepSchedule.constant(0.1), 2, 0, 10, epsilons=eps)


class TestReferenceCentroid:
    def test_single_point(self, rng):
        a = random_spd(rng, 3)
        out = reference_centroid(Dataset(a[None]), 1e-10)
        assert manifold.distance(out, a) < 1e-9

    def test_commuting_pair_geometric_mean(self):
        data = Dataset(np.stack([np.diag([np.e**2, 1.0]), np.diag([np.e**-2, 1.0])]))
        out = reference_centroid(data, 1e-10)
        assert manifold.distance(out, np.eye(2)) < 1e-8

    def test_gradient_below_tolerance(self, rng):
        data = cloud(rng, 20, 3)
        tol = 1e-8
        out = reference_centroid(data, tol)
        assert manifold.norm(out, full_gradient(out, data)) < tol

    def test_stationarity_gap_at_oracle(self, rng):
        data = cloud(rng, 20, 3)
        tol = 1e-9
        star = reference_centroid(data, tol)
        grad = full_gradient(star, data)
        for _ in range(100):
            y = manifold.exp_map(star, random_tangent(rng, 3, 2.0))
            gap = stationarity_gap(star, grad, y)
            assert gap <= tol * manifold.distance(star, y) + 1e-12

    @pytest.mark.parametrize("spread", [0.4, 2.0])
    def test_hessian_product_is_the_geodesic_second_derivative(self, rng, spread):
        # (f(x+) - 2 f(x) + f(x-)) / t^2 along exp_x(+-t x^1/2 eta x^1/2) is
        # <eta, Hess f eta>, twice the whitened half-Hessian's form.  At spread
        # 2, f's rounding over t^2 reaches 3e-5 relative at t = 1e-3.
        data = cloud(rng, 16, 4, spread=spread)
        x = random_spd(rng, 4)
        summary = objective.objective_summary(x, data)
        half, _ = summary.roots
        hess = objective._whitened_hessian(summary)
        t = 1e-2
        for _ in range(3):
            eta = random_tangent(rng, 4, 1.0)
            f_plus, f_minus = (loss(manifold.exp_map(x, s * t * half @ eta @ half), data)
                               for s in (1.0, -1.0))
            second = (f_plus - 2.0 * summary.value + f_minus) / t**2
            assert second == pytest.approx(2.0 * np.vdot(eta, hess(eta)), rel=1e-5)
            assert np.vdot(eta, hess(eta)) >= np.vdot(eta, eta)

    def test_commuting_data_take_one_newton_step(self, rng, monkeypatch):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        spectra = np.exp(rng.uniform(-2.0, 2.0, size=(8, 3)))
        data = Dataset(np.stack([(q * w) @ q.T for w in spectra]))
        calls = count_evaluations(monkeypatch)
        out = reference_centroid(data, 1e-10)
        assert len(calls) == 2
        geometric = (q * np.exp(np.log(spectra).mean(axis=0))) @ q.T
        assert manifold.distance(out, geometric) < 1e-12

    def test_far_spread_converges(self, rng, monkeypatch):
        data = cloud(rng, 32, 4, spread=2.0)
        calls = count_evaluations(monkeypatch)
        out = reference_centroid(data, 1e-9)
        assert len(calls) <= 8
        assert manifold.norm(out, full_gradient(out, data)) < 1e-9

    def test_rejected_step_halves_alpha(self, rng, monkeypatch):
        # An 8-fold overshoot raises f and the gradient norm: the oracle
        # halves alpha three times, to the Newton step, and converges.
        data = cloud(rng, 32, 4, spread=2.0)
        newton = rsgd._newton_direction
        monkeypatch.setattr(rsgd, "_newton_direction", lambda summary: 8.0 * newton(summary))
        calls = count_evaluations(monkeypatch)
        out = reference_centroid(data, 1e-9)
        f0, f1 = (loss(x, data) for x in calls[:2])
        assert f1 > f0
        assert manifold.norm(out, full_gradient(out, data)) < 1e-9

    @pytest.mark.parametrize(
        "gen, scale",
        [(lambda: Generator(Philox(key=np.uint64(0))), 0.8),
         (lambda: Generator(Philox(key=np.uint64(1))), 0.8),
         (lambda: np.random.default_rng(20240501), 1.0)],
        ids=["bench-seed0", "bench-seed1", "acceptance"],
    )
    def test_256_by_5_sets_take_at_most_five_evaluations(self, gen, scale, monkeypatch):
        # The benchmark's `spdsgd gen --n 256 --d 5 --spread 0.5 --center
        # scale:0.8` at seeds 0 and 1, and the acceptance tests' data set.
        data = dataio.generate_synthetic(gen(), 256, 5, scale * np.eye(5), 0.5)
        calls = count_evaluations(monkeypatch)
        reference_centroid(data, 1e-9)
        assert len(calls) <= 5

    def test_unreachable_tolerance_raises(self, rng):
        with pytest.raises(ConvergenceError, match="step size collapsed") as exc:
            reference_centroid(cloud(rng, 8, 3), 1e-30)
        assert 0.0 < exc.value.grad_norm < np.inf


def count_evaluations(monkeypatch) -> list:
    """Record the point of every full evaluation from here on."""
    calls = []
    summary = objective.objective_summary

    def counted(m, data):
        calls.append(m)
        return summary(m, data)

    monkeypatch.setattr(objective, "objective_summary", counted)
    return calls


class TestConvergenceBounds:
    """Statistical checks of the descent and stationarity-decay bounds."""

    N_SEEDS = 20

    def _mean_and_se(self, values):
        values = np.asarray(values)
        return values.mean(), values.std(ddof=1) / np.sqrt(values.size)

    def test_smooth_descent_bound_constant_step(self):
        rng = np.random.default_rng(41)
        data = cloud(rng, 32, 3, spread=0.4)
        x0 = manifold.exp_map(np.eye(3), np.diag([0.6, -0.4, 0.2]))
        l_hat = estimate_smoothness(
            data, 300, np.random.default_rng(1), Ball(np.eye(3), 1.5)
        )
        alpha = 1.0 / l_hat
        k_steps, b = 200, 4
        f0 = loss(x0, data)
        f_star = loss(reference_centroid(data, 1e-10), data)
        c1 = 2.0 * (f0 - f_star) / ((2.0 - l_hat * alpha) * alpha)
        c2 = l_hat * alpha / (2.0 - l_hat * alpha)

        stats, sigma2 = [], 0.0
        for seed in range(self.N_SEEDS):
            record = run(
                RunConfig(data, x0, StepSchedule.constant(alpha), b, seed, k_steps)
            )
            stats.append(np.mean(record.grad_norm[:k_steps] ** 2))
            sigma2 = max(sigma2, record.sigma2_max)
        mean, se = self._mean_and_se(stats)
        assert mean <= c1 / k_steps + c2 * sigma2 / b + 3 * se

    def _stationarity_runs(self, schedule, alpha_for_bound=None):
        rng = np.random.default_rng(43)
        data = cloud(rng, 32, 3, spread=0.3)
        star = reference_centroid(data, 1e-10)
        x0 = np.mean(data.points, axis=0)
        k_steps, b = 200, 4
        per_seed, d_hat, g_hat, sigma2 = [], 0.0, 0.0, 0.0
        for seed in range(self.N_SEEDS):
            record = run(
                RunConfig(
                    data, x0, schedule, b, seed, k_steps, reference=star
                )
            )
            per_seed.append(np.mean(record.stationarity[:k_steps]))
            d_hat = max(d_hat, record.max_ref_distance)
            g_hat = max(g_hat, record.grad_norm_max)
            sigma2 = max(sigma2, record.sigma2_max)
        mean, se = self._mean_and_se(per_seed)
        zeta = manifold.curvature_factor(manifold.SPD_CURVATURE_LOWER_BOUND, d_hat)
        return mean, se, zeta, d_hat, g_hat, sigma2, k_steps, b

    def test_stationarity_decay_constant_step(self):
        alpha = 0.05
        mean, se, zeta, d_hat, g_hat, sigma2, k, b = self._stationarity_runs(
            StepSchedule.constant(alpha)
        )
        c1, c2 = zeta / 2.0, d_hat / (2.0 * alpha)
        assert mean <= (sigma2 / b + g_hat**2) * alpha * c1 + c2 / k + 3 * se

    def test_stationarity_decay_inverse_sqrt(self):
        schedule = StepSchedule.inverse_sqrt()
        mean, se, zeta, d_hat, g_hat, sigma2, k, b = self._stationarity_runs(schedule)
        c1, c2 = zeta / 2.0, d_hat / 2.0
        alphas = np.array([step_size(schedule, i) for i in range(k)])
        rhs = (sigma2 / b + g_hat**2) * c1 * alphas.mean() + c2 / (alphas[-1] * k)
        assert mean <= rhs + 3 * se


def test_midrun_failure_carries_state(rng):
    # An overflowing update (step size 1 from very far away) must surface as
    # a run error with the step index and the last finite iterate.
    data = cloud(rng, 4, 3)
    x0 = np.exp(40.0) * np.eye(3)
    with pytest.raises(RunError) as err:
        run(RunConfig(data, x0, StepSchedule.constant(1.0), 2, 0, 50))
    assert err.value.step >= 0
    assert np.all(np.isfinite(err.value.last_point))


def test_non_finite_update_carries_last_finite_point(rng, monkeypatch):
    # The loop's exponential map skips input checks; a non-finite iterate
    # must still end the run with the point it was computed from.
    data = cloud(rng, 4, 3)
    monkeypatch.setattr(manifold, "_exp_map", lambda roots, x: np.full_like(x, np.nan))
    with pytest.raises(RunError, match="update failed at step 0") as err:
        run(RunConfig(data, np.eye(3), StepSchedule.constant(0.1), 2, 0, 5))
    assert err.value.step == 0
    np.testing.assert_array_equal(err.value.last_point, np.eye(3))


@pytest.mark.parametrize("with_reference, per_step", [(True, 4), (False, 3)])
def test_run_decomposes_each_point_once(rng, monkeypatch, with_reference, per_step):
    # Per step: the iterate's root pair and the whitened data stack (the
    # summary), the exponential map, and with a reference one whitened log.
    data = cloud(rng, 8, 3)
    reference = reference_centroid(data, 1e-9) if with_reference else None
    config = RunConfig(data, np.eye(3), StepSchedule.constant(0.05), 2, 0, 5, reference=reference)
    calls = []
    eigh = symmat._eigh
    monkeypatch.setattr(symmat, "_eigh", lambda s: calls.append(np.shape(s)) or eigh(s))
    record = run(config)
    # Steps plus the final iterate's evaluation, which takes no update.
    assert len(calls) == per_step * record.steps + (per_step - 1)


def test_run_composes_no_more_rows_than_the_batch(rng, monkeypatch):
    # A full evaluation reads the mean whitened log off the eigenvectors and
    # log spectra; no N-row stack of log matrices is ever composed.
    data = cloud(rng, 64, 3)
    rows = []
    compose = symmat.compose

    def counted(v, fw):
        rows.append(int(np.prod(np.shape(v)[:-2])))
        return compose(v, fw)

    monkeypatch.setattr(symmat, "compose", counted)
    monkeypatch.setattr(objective, "compose", counted, raising=False)
    record = run(RunConfig(data, np.eye(3), StepSchedule.constant(0.05), 4, 0, 20))
    assert record.steps == 20 and rows and max(rows) <= 4


def test_sigma2_reporting(rng):
    data = cloud(rng, 16, 3)
    config = RunConfig(data, np.eye(3), StepSchedule.constant(0.05), 4, 1, 20)
    record = run(config)
    assert record.sigma2_initial == pytest.approx(gradient_variance(np.eye(3), data))
    assert record.sigma2_max >= record.sigma2_initial


def test_reference_centroid_bad_tolerance(rng):
    with pytest.raises(ValueError):
        reference_centroid(cloud(rng, 4, 3), 0.0)


def far_start(d=3):
    return manifold.exp_map(np.eye(d), np.diag([1.0, -0.8, 0.6][:d]))


def far_pair(rng, distance=8.0):
    """``(a, x, u)``: a random SPD ``a``, a unit tangent ``u`` at it, and
    ``x = exp_map(a, distance u)``."""
    a = random_spd(rng, 3)
    u = random_tangent(rng, 3, 1.0)
    u /= np.sqrt(manifold.inner(a, u, u))
    return a, manifold.exp_map(a, distance * u), u


def diagonal_cloud(rng, n, d, spread=0.4):
    return Dataset(np.stack([np.diag(np.exp(rng.normal(0.0, spread, size=d))) for _ in range(n)]))


def count_evaluations(monkeypatch):
    """Record the point of every full objective evaluation."""
    points = []
    summary = objective.objective_summary
    monkeypatch.setattr(
        objective, "objective_summary", lambda m, data: points.append(m) or summary(m, data)
    )
    return points


class TestHittingSteps:
    """``_descend``'s skip path: runs without an observer, as a sweep cell takes them."""

    SCHEDULES = (
        StepSchedule.constant(0.05),
        StepSchedule.inverse_sqrt(),
        StepSchedule.staircase(0.1, 0.5, 10, 3),
    )

    @staticmethod
    def assert_matches_run_at_adversarial_thresholds(data, schedule, b):
        # A threshold equal to a recorded loss, or one ulp either side of it,
        # is where a bound without slack would skip a hit.
        trace = run(RunConfig(data, far_start(), schedule, b, 3, 60)).f
        for k in (1, 2, 7, 30, 60):
            f_k = trace[k]
            eps = (np.nextafter(f_k, np.inf), f_k, np.nextafter(f_k, -np.inf))
            config = RunConfig(data, far_start(), schedule, b, 3, 60, epsilons=eps)
            record = run(config)
            ((hits, final_f, _, steps, _),) = _descend([config])
            assert hits == record.steps_to_epsilon
            assert (final_f, steps) == (record.f[-1], record.steps)

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: s.kind)
    @pytest.mark.parametrize("b", [1, 4, 32])
    def test_matches_run_at_adversarial_thresholds(self, rng, schedule, b):
        self.assert_matches_run_at_adversarial_thresholds(cloud(rng, 32, 3), schedule, b)

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: s.kind)
    def test_matches_run_where_bound_is_tight(self, rng, schedule):
        # With one data matrix every step heads straight for it, so the
        # iterates, the anchor and the data point lie on one geodesic and the
        # bound equals f until a step overshoots.
        data = Dataset(random_spd(rng, 3)[None])
        self.assert_matches_run_at_adversarial_thresholds(data, schedule, 2)

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: s.kind)
    @pytest.mark.parametrize("b", [1, 4, 32])
    def test_matches_run_on_diagonal_data(self, rng, schedule, b):
        # Diagonal data and a diagonal start commute, so the bound equals f
        # and every skip decision sits on the edge.
        self.assert_matches_run_at_adversarial_thresholds(diagonal_cloud(rng, 32, 3), schedule, b)

    def test_matches_run_from_a_far_anchor(self, rng, monkeypatch):
        # One data matrix at distance 8 and steps that cover 90% of the way:
        # the start stays the anchor until a threshold is near, so the
        # bound's terms are about 64 while f and the thresholds reach 1e-14.
        a, x0, _ = far_pair(rng)
        data, schedule = Dataset(a[None]), StepSchedule.constant(0.45)
        trace = run(RunConfig(data, x0, schedule, 1, 0, 9)).f
        evaluated = count_evaluations(monkeypatch)
        for k in range(1, 9):
            eps = (np.nextafter(trace[k], np.inf), trace[k], np.nextafter(trace[k], -np.inf))
            config = RunConfig(data, x0, schedule, 1, 0, 9, epsilons=eps)
            ((hits, final_f, _, steps, _),) = _descend([config])
            assert hits == {eps[0]: k, eps[1]: k + 1, eps[2]: k + 1}
            assert (final_f, steps) == (trace[k + 1], k + 1)
        assert len(evaluated) < 4 * 8

    def test_evaluates_a_fifth_of_a_sweep_cell(self, rng, monkeypatch):
        # The sweep benchmark's regime: 256 matrices of spread 0.5 around a
        # centre at distance 0.5 from the start, thresholds at 1/2 and 1/4 of
        # the excess loss.
        data = cloud(rng, 256, 5, spread=0.5, center=np.exp(-0.5 / np.sqrt(5)) * np.eye(5))
        f_star = loss(reference_centroid(data, 1e-9), data)
        f0 = loss(np.eye(5), data)
        eps = tuple(f_star + r * (f0 - f_star) for r in (0.5, 0.25))
        for schedule in (StepSchedule.constant(0.005), StepSchedule.staircase(0.005, 0.5, 60, 4)):
            config = RunConfig(data, np.eye(5), schedule, 32, 0, 20_000, epsilons=eps)
            evaluated = count_evaluations(monkeypatch)
            ((hits, _, _, steps, _),) = _descend([config])
            assert hits[eps[1]] == steps
            assert len(evaluated) < (steps + 1) / 5

    def test_bound_is_taken_from_the_last_evaluated_iterate(self, rng, monkeypatch):
        data = cloud(rng, 32, 3)
        f0 = loss(far_start(), data)
        config = RunConfig(data, far_start(), StepSchedule.constant(0.05), 4, 0, 400,
                           epsilons=tuple(f0 * r for r in (0.8, 0.6, 0.45, 0.4, 0.35)))
        summaries, fresh = [], []
        summary, bound = objective.objective_summary, rsgd._loss_lower_bound

        def last_roots(anchor):  # a one-run anchor is a stack of one
            return all(np.array_equal(a[0], b) for a, b in zip(anchor[1], summaries[-1].roots))

        monkeypatch.setattr(objective, "objective_summary",
                            lambda m, data: summaries.append(summary(m, data)) or summaries[-1])
        monkeypatch.setattr(rsgd, "_loss_lower_bound",
                            lambda anchor, y: fresh.append(last_roots(anchor)) or bound(anchor, y))
        _descend([config])
        assert len(summaries) > 5 and len(fresh) > len(summaries)
        assert all(fresh)

    def test_failed_bound_falls_back_to_evaluation(self, rng, monkeypatch):
        data = cloud(rng, 32, 3)
        config = RunConfig(data, far_start(), StepSchedule.constant(0.05), 4, 0, 30,
                           epsilons=(1e-12,))
        record = run(config)

        def fail(roots, q):
            raise symmat.DomainError("eigenvalue -1 is not positive", -1.0)

        monkeypatch.setattr(manifold, "_whitened_log", fail)
        evaluated = count_evaluations(monkeypatch)
        ((hits, final_f, _, steps, _),) = _descend([config])
        assert len(evaluated) == steps + 1
        assert (hits, final_f, steps) == (record.steps_to_epsilon, record.f[-1], record.steps)

    def test_evaluates_fewer_iterates_than_it_steps(self, rng, monkeypatch):
        data = cloud(rng, 32, 3)
        f0 = objective.loss(far_start(), data)
        config = RunConfig(
            data, far_start(), StepSchedule.constant(0.05), 4, 0, 400, epsilons=(0.35 * f0,)
        )
        evaluated = count_evaluations(monkeypatch)
        ((hits, _, _, steps, _),) = _descend([config])
        assert hits[0.35 * f0] == steps
        assert len(evaluated) < steps

    def test_censored_run_evaluates_last_iterate(self, rng, monkeypatch):
        data = cloud(rng, 32, 3)
        config = RunConfig(
            data, far_start(), StepSchedule.constant(0.05), 4, 0, 40, epsilons=(1e-12,)
        )
        record = run(config)
        evaluated = count_evaluations(monkeypatch)
        ((hits, final_f, _, steps, _),) = _descend([config])
        assert hits == {1e-12: None} and steps == 40
        assert len(evaluated) < steps
        np.testing.assert_array_equal(evaluated[-1], record.final_point)
        assert final_f == record.f[-1]

    def test_run_evaluates_every_iterate(self, rng, monkeypatch):
        data = cloud(rng, 32, 3)
        evaluated = count_evaluations(monkeypatch)
        record = run(
            RunConfig(data, far_start(), StepSchedule.constant(0.05), 4, 0, 25, epsilons=(1e-12,))
        )
        assert len(evaluated) == record.steps + 1

    def test_failure_carries_state(self, rng):
        data = cloud(rng, 4, 3)
        (outcome,) = _descend(
            [RunConfig(data, np.exp(40.0) * np.eye(3), StepSchedule.constant(1.0), 2, 0, 50)]
        )
        assert isinstance(outcome, RunError)
        assert np.all(np.isfinite(outcome.last_point))


class TestLossLowerBound:
    @pytest.mark.parametrize("n", [1, 2, 16, 64])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_below_the_loss(self, rng, n, d):
        # Badly conditioned data, anchors and far points: the bound never
        # exceeds the evaluated loss by more than rounding, 1000 times below
        # the margin the loop allows for.
        for _ in range(8):
            data = Dataset(np.stack(
                [random_spd(rng, d, cond=10.0 ** rng.uniform(0, 6)) for _ in range(n)]
            ))
            x_a = random_spd(rng, d, cond=10.0 ** rng.uniform(0, 6))
            y = manifold.exp_map(x_a, random_tangent(rng, d, 8.0))
            lb, scale = _loss_lower_bound(rsgd._anchor(objective.objective_summary(x_a, data)), y)
            assert lb - loss(y, data) <= 1e-3 * _BOUND_MARGIN * scale

    @pytest.mark.parametrize("n", [1, 2, 16, 64])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_equals_the_loss_where_everything_commutes(self, rng, n, d):
        data = diagonal_cloud(rng, n, d, spread=2.0)
        for _ in range(8):
            x_a, y = (np.diag(np.exp(rng.normal(0.0, 2.0, size=d))) for _ in range(2))
            lb, _ = _loss_lower_bound(rsgd._anchor(objective.objective_summary(x_a, data)), y)
            assert lb == pytest.approx(loss(y, data), rel=1e-12)

    def test_margin_covers_a_far_anchor(self, rng):
        # Near the one data point, seen from an anchor at distance 8: L_y and
        # m_a are about 8 in norm and differ by about t, so the rounding of
        # their difference dwarfs 1e-9 of lb itself; the scale term covers it.
        a, x_a, direction = far_pair(rng)
        summary = objective.objective_summary(x_a, Dataset(a[None]))
        assert np.linalg.norm(summary._mean_log) == pytest.approx(8.0, rel=1e-9)
        anchor = rsgd._anchor(summary)
        errors = []
        for t in (1e-5, 1e-6, 1e-7):
            y = manifold.exp_map(a, t * direction)
            lb, scale = _loss_lower_bound(anchor, y)
            f = loss(y, Dataset(a[None]))
            assert lb - f <= _BOUND_MARGIN * scale
            errors.append(abs(lb - f) / f)
        assert max(errors) > 1e-9


def test_seed_must_fit_a_philox_key(rng):
    data = cloud(rng, 8, 3)
    RunConfig(data, np.eye(3), StepSchedule.constant(0.1), 2, 2**64 - 1, 10)
    with pytest.raises(ValueError, match="seed must be below 2\\^64"):
        RunConfig(data, np.eye(3), StepSchedule.constant(0.1), 2, 2**64, 10)


@pytest.mark.parametrize("name", ["x0", "reference"])
def test_points_must_match_the_data(rng, name):
    # A mismatch would otherwise surface inside the loop, at step 0.
    data = cloud(rng, 8, 3)
    points = {"x0": np.eye(3), "reference": np.eye(3), name: np.eye(4)}
    shapes = r"the data's shape \(3, 3\), got \(4, 4\)"
    with pytest.raises(ValueError, match=f"{name} must have {shapes}"):
        RunConfig(data, points["x0"], StepSchedule.constant(0.1), 2, 0, 10,
                  reference=points["reference"])


@pytest.mark.parametrize("field", ["batch_size", "seed", "max_steps"])
def test_run_inputs_must_be_integers(rng, field):
    # A float would key Philox with its floor, or count steps or draw a batch
    # by a rounding of its own.
    data = cloud(rng, 8, 3)
    fields = {"batch_size": 2, "seed": 1, "max_steps": 3}
    with pytest.raises(TypeError, match=f"{field} must be an integer, got 2.5"):
        RunConfig(data, np.eye(3), StepSchedule.constant(0.1), **{**fields, field: 2.5})
    config = RunConfig(data, np.eye(3), StepSchedule.constant(0.1),
                       **{**fields, field: np.uint64(fields[field])})
    assert type(getattr(config, field)) is int


def test_caller_error_inside_the_loop_is_not_a_run_error(rng, monkeypatch):
    # Only the geometry's own failures become a RunError; any other
    # ValueError is the caller's, and it is raised as it is.
    data = cloud(rng, 8, 3)

    def fail(m, data):
        raise ValueError("caller's mistake")

    monkeypatch.setattr(objective, "objective_summary", fail)
    config = RunConfig(data, np.eye(3), StepSchedule.constant(0.1), 2, 0, 5)
    with pytest.raises(ValueError, match="caller's mistake"):
        _descend([config])
    with pytest.raises(ValueError, match="caller's mistake"):
        run(config)


class TestStackedKernels:
    # Runs advanced in lockstep stack one matrix per run; each must get the
    # floats of its lone call, or a sweep cell would drift from `run`.
    @pytest.mark.parametrize("m", [1, 2, 7, 300])
    def test_root_pair_log_and_exp_match_lone_calls_bitwise(self, rng, m):
        d = 5
        xs = np.stack([random_spd(rng, d, cond=10.0 ** rng.uniform(0, 4)) for _ in range(m)])
        ys = np.stack([manifold.exp_map(x, random_tangent(rng, d, 3.0)) for x in xs])
        ts = np.stack([random_tangent(rng, d, 2.0) for _ in range(m)])
        roots = manifold.sqrt_and_inv_sqrt(xs)
        logs, exps = manifold._whitened_log(roots, ys), manifold._exp_map(roots, ts)
        for i in range(m):
            lone = manifold.sqrt_and_inv_sqrt(xs[i])
            np.testing.assert_array_equal(roots[0][i], lone[0])
            np.testing.assert_array_equal(roots[1][i], lone[1])
            np.testing.assert_array_equal(logs[i], manifold._whitened_log(lone, ys[i]))
            np.testing.assert_array_equal(exps[i], manifold._exp_map(lone, ts[i]))

    def test_bounds_and_batch_gradients_match_lone_calls_bitwise(self, rng):
        data = cloud(rng, 16, 3)
        xs = [random_spd(rng, 3) for _ in range(6)]
        ys = [manifold.exp_map(x, random_tangent(rng, 3, 2.0)) for x in xs]
        anchors = [rsgd._anchor(objective.objective_summary(x, data)) for x in xs]
        lone = [_loss_lower_bound(a, y) for a, y in zip(anchors, ys)]
        lb, scale = _loss_lower_bound(rsgd._stack(anchors), np.stack(ys))
        assert list(zip(lb, scale)) == lone
        # Rows of several points split across stacked calls of 16 rows.
        batches = [rng.integers(0, 16, size=b) for b in (1, 4, 19, 7, 2, 16)]
        roots = [manifold.sqrt_and_inv_sqrt(y) for y in ys]
        grads = objective._batch_gradients(roots, data.points, batches, 16)
        for y, batch, g in zip(ys, batches, grads):
            np.testing.assert_array_equal(g, objective.batch_gradient(y, data, batch))

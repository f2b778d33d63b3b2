import numpy as np
import pytest

from spdsgd import manifold
from spdsgd.objective import (
    Ball,
    Dataset,
    batch_gradient,
    batch_gradient_from_summary,
    estimate_smoothness,
    full_gradient,
    gradient_variance,
    loss,
    max_gradient_norm,
    objective_summary,
    point_gradient,
    sample_batch,
    smoothness_ratio,
)
from spdsgd.symmat import compose

from conftest import random_invertible, random_spd, random_tangent


def cloud(rng, n, d, spread=0.4, center=None):
    center = np.eye(d) if center is None else center
    raw = rng.standard_normal((n, d, d)) * spread
    return Dataset(manifold.exp_map(center, 0.5 * (raw + raw.transpose(0, 2, 1))))


def fd_directional(value_fn, m, direction, t=1e-5):
    """Central-difference derivative of a scalar field along a geodesic."""
    up = value_fn(manifold.exp_map(m, t * direction))
    down = value_fn(manifold.exp_map(m, -t * direction))
    return (up - down) / (2.0 * t)


class TestLoss:
    def test_zero_at_single_point(self, rng):
        a = random_spd(rng, 3)
        assert loss(a, Dataset(a[None])) < 1e-24

    def test_diagonal_hand_value(self):
        data = Dataset(np.eye(3)[None])
        m = np.diag([np.e**2, 1.0, 1.0])
        assert loss(m, data) == pytest.approx(4.0, rel=1e-12)

    def test_equals_mean_squared_distance(self, rng):
        data = cloud(rng, 12, 3)
        m = random_spd(rng, 3)
        expected = np.mean([manifold.distance(m, a) ** 2 for a in data.points])
        assert loss(m, data) == pytest.approx(expected, rel=1e-12)

    def test_affine_invariance(self, rng):
        data = cloud(rng, 8, 3)
        m = random_spd(rng, 3)
        g = random_invertible(rng, 3)
        moved = Dataset(np.stack([g @ a @ g.T for a in data.points]))
        assert loss(g @ m @ g.T, moved) == pytest.approx(loss(m, data), rel=1e-10)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            loss(np.eye(4), cloud(rng, 4, 3))


class TestPointGradient:
    def test_zero_at_target(self, rng):
        a = random_spd(rng, 3)
        assert np.linalg.norm(point_gradient(a, a)) < 1e-12

    def test_diagonal_hand_value(self):
        out = point_gradient(np.eye(2), np.diag([np.e**2, 1.0]))
        np.testing.assert_allclose(out, np.diag([-4.0, 0.0]), atol=1e-14)

    def test_finite_difference_oracle(self, rng):
        for _ in range(10):
            m = random_spd(rng, 3)
            a = random_spd(rng, 3)
            x = random_tangent(rng, 3, 1.0)
            analytic = manifold.inner(m, point_gradient(m, a), x)
            numeric = fd_directional(lambda y: manifold.distance(y, a) ** 2, m, x)
            assert analytic == pytest.approx(numeric, rel=1e-5)


class TestFullGradient:
    def test_single_point_reduces(self, rng):
        a = random_spd(rng, 3)
        m = random_spd(rng, 3)
        np.testing.assert_allclose(
            full_gradient(m, Dataset(a[None])), point_gradient(m, a), rtol=1e-12, atol=1e-14
        )

    def test_symmetric_pair_cancels(self):
        data = Dataset(np.stack([np.diag([np.e, 1.0]), np.diag([1.0 / np.e, 1.0])]))
        assert np.linalg.norm(full_gradient(np.eye(2), data)) < 1e-12

    def test_finite_difference_oracle(self, rng):
        data = cloud(rng, 6, 3)
        for _ in range(10):
            m = random_spd(rng, 3)
            x = random_tangent(rng, 3, 1.0)
            analytic = manifold.inner(m, full_gradient(m, data), x)
            numeric = fd_directional(lambda y: loss(y, data), m, x)
            assert analytic == pytest.approx(numeric, rel=1e-5)

    def test_vanishes_at_centroid_of_commuting_pair(self):
        data = Dataset(np.stack([np.diag([np.e**2, 1.0]), np.diag([np.e**-2, 1.0])]))
        assert np.linalg.norm(full_gradient(np.eye(2), data)) < 1e-12


class TestBatchSampling:
    def test_deterministic_given_stream(self):
        a = sample_batch(np.random.default_rng(5), 100, 16)
        b = sample_batch(np.random.default_rng(5), 100, 16)
        np.testing.assert_array_equal(a, b)

    def test_indices_in_range(self, rng):
        batch = sample_batch(rng, 10, 1000)
        assert batch.min() >= 0 and batch.max() < 10

    def test_empirical_uniformity(self):
        # Binomial oracle: each of 8 indices should appear 12500 +- 3 sigma
        # times in 1e5 draws.
        draws = sample_batch(np.random.default_rng(123), 8, 10**5)
        counts = np.bincount(draws, minlength=8)
        expected = 10**5 / 8
        sigma = np.sqrt(10**5 * (1 / 8) * (7 / 8))
        assert np.all(np.abs(counts - expected) <= 3 * sigma)

    def test_invalid_arguments(self, rng):
        with pytest.raises(ValueError):
            sample_batch(rng, 0, 4)
        with pytest.raises(ValueError):
            sample_batch(rng, 4, 0)


class TestBatchGradient:
    def test_singleton_enumeration_matches_full(self, rng):
        data = cloud(rng, 10, 3)
        m = random_spd(rng, 3)
        singles = np.stack([batch_gradient(m, data, np.array([i])) for i in range(data.n)])
        np.testing.assert_allclose(
            singles.mean(axis=0), full_gradient(m, data), rtol=0, atol=1e-12
        )

    def test_single_index_is_point_gradient(self, rng):
        data = cloud(rng, 6, 3)
        m = random_spd(rng, 3)
        np.testing.assert_allclose(
            batch_gradient(m, data, np.array([4])),
            point_gradient(m, data.points[4]),
            rtol=1e-12,
            atol=1e-14,
        )

    def test_monte_carlo_unbiasedness(self):
        rng = np.random.default_rng(7)
        data = cloud(rng, 32, 3)
        m = random_spd(rng, 3)
        grads = -2.0 * manifold.log_map(m, data.points)
        full = grads.mean(axis=0)
        idx = np.random.default_rng(99).integers(0, data.n, size=(10**4, 4))
        means = grads[idx].mean(axis=1)
        se = means.std(axis=0, ddof=1) / np.sqrt(idx.shape[0])
        assert np.all(np.abs(means.mean(axis=0) - full) <= 4 * se + 1e-15)

    def test_invalid_index(self, rng):
        data = cloud(rng, 4, 3)
        with pytest.raises(ValueError, match="out of range"):
            batch_gradient(np.eye(3), data, np.array([4]))


def _whitened(m, x):
    _, w = manifold.sqrt_and_inv_sqrt(m)
    return w @ x @ w


class TestGradientVariance:
    def test_zero_for_identical_points(self, rng):
        a = random_spd(rng, 3)
        data = Dataset(np.repeat(a[None], 5, axis=0))
        assert gradient_variance(random_spd(rng, 3), data) == pytest.approx(0.0, abs=1e-20)

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_exactly_zero_for_identical_points_at_any_seed(self, d):
        # The identity 4f - ||grad f||^2 rounds to either sign; within its
        # rounding bound it is exactly 0.
        for seed in range(60):
            rng = np.random.default_rng(seed)
            data = Dataset(np.repeat(random_spd(rng, d)[None], 1 + seed % 7, axis=0))
            assert gradient_variance(random_spd(rng, d), data) == 0.0

    @pytest.mark.parametrize("n, d", [(2, 3), (24, 3), (257, 5)])
    def test_identity_matches_centred_form(self, rng, n, d):
        for _ in range(5):
            data = cloud(rng, n, d, spread=float(rng.uniform(0.05, 1.0)))
            m = random_spd(rng, d)
            dev = _whitened(m, -2.0 * manifold.log_map(m, data.points))
            dev -= dev.mean(axis=0)
            centred = np.einsum("nij,nij->", dev, dev) / n
            assert gradient_variance(m, data) == pytest.approx(centred, rel=1e-12)

    def test_monte_carlo_single_draws(self):
        rng = np.random.default_rng(11)
        data = cloud(rng, 24, 3)
        m = random_spd(rng, 3)
        grads = -2.0 * manifold.log_map(m, data.points)
        dev = _whitened(m, grads - grads.mean(axis=0))
        sq = np.einsum("nij,nij->n", dev, dev)
        draws = np.random.default_rng(12).integers(0, data.n, size=10**5)
        mc = sq[draws]
        se = mc.std(ddof=1) / np.sqrt(mc.size)
        assert abs(mc.mean() - gradient_variance(m, data)) <= 4 * se

    def test_batch_deviation_scales_inversely_with_batch(self):
        # Mean squared deviation of the batch gradient should sit at
        # sigma^2 / b (exact for i.i.d. draws), checked within 3 SE.
        rng = np.random.default_rng(21)
        data = cloud(rng, 32, 3)
        m = random_spd(rng, 3)
        sigma2 = gradient_variance(m, data)
        grads_w = _whitened(m, -2.0 * manifold.log_map(m, data.points))
        full_w = grads_w.mean(axis=0)
        for b in (2, 8):
            idx = np.random.default_rng(b).integers(0, data.n, size=(10**4, b))
            dev = grads_w[idx].mean(axis=1) - full_w
            sq = np.einsum("nij,nij->n", dev, dev)
            se = sq.std(ddof=1) / np.sqrt(sq.size)
            assert sq.mean() <= sigma2 / b + 3 * se


def test_second_moment_bound_over_batches():
    # E ||batch grad||^2 <= sigma^2 / b + ||full grad||^2 within 3 SE.
    rng = np.random.default_rng(31)
    data = cloud(rng, 48, 3)
    m = random_spd(rng, 3)
    sigma2 = gradient_variance(m, data)
    grads_w = _whitened(m, -2.0 * manifold.log_map(m, data.points))
    full_sq = float(np.einsum("ij,ij->", grads_w.mean(axis=0), grads_w.mean(axis=0)))
    b = 4
    idx = np.random.default_rng(32).integers(0, data.n, size=(10**4, b))
    bg = grads_w[idx].mean(axis=1)
    sq = np.einsum("nij,nij->n", bg, bg)
    se = sq.std(ddof=1) / np.sqrt(sq.size)
    assert sq.mean() <= sigma2 / b + full_sq + 3 * se


class TestMaxGradientNorm:
    def test_zero_gradient(self):
        assert max_gradient_norm([(np.eye(2), np.zeros((2, 2)))]) == 0.0

    def test_takes_maximum(self):
        trace = [
            (np.eye(2), np.diag([1.0, 0.0])),
            (np.eye(2), np.diag([3.0, 0.0])),
            (np.eye(2), np.diag([2.0, 0.0])),
        ]
        assert max_gradient_norm(trace) == pytest.approx(3.0)

    def test_monotone_in_trace_length(self, rng):
        trace = [(np.eye(3), random_tangent(rng, 3, 2.0)) for _ in range(6)]
        vals = [max_gradient_norm(trace[: k + 1]) for k in range(6)]
        assert np.all(np.diff(vals) >= 0)

    def test_empty_trace(self):
        with pytest.raises(ValueError):
            max_gradient_norm([])


class TestSmoothness:
    def test_commuting_ratio_is_exactly_two(self):
        data = Dataset(np.eye(2)[None])
        x = np.diag([np.e**0.7, np.e**-0.3])
        y = np.diag([np.e**0.2, np.e**0.5])
        assert smoothness_ratio(data, x, y) == pytest.approx(2.0, rel=1e-12)

    def test_nondecreasing_in_probes(self, rng):
        data = cloud(rng, 8, 3)
        region = Ball(np.eye(3), 1.0)
        l20 = estimate_smoothness(data, 20, np.random.default_rng(3), region)
        l60 = estimate_smoothness(data, 60, np.random.default_rng(3), region)
        assert l60 >= l20

    def test_descent_lemma_on_fresh_pairs(self, rng):
        # With the estimated constant, the quadratic upper model must
        # dominate the loss along fresh geodesics (slack >= -1e-8).
        data = cloud(rng, 12, 3, spread=0.3)
        region = Ball(np.eye(3), 1.0)
        l_hat = estimate_smoothness(data, 400, np.random.default_rng(5), region)
        fresh = np.random.default_rng(6)
        for _ in range(100):
            x = manifold.exp_map(region.center, random_tangent(fresh, 3, 1.0))
            xi = random_tangent(fresh, 3, 1.0)
            y = manifold.exp_map(x, xi)
            lhs = loss(y, data)
            rhs = (
                loss(x, data)
                + manifold.inner(x, full_gradient(x, data), xi)
                + 0.5 * l_hat * manifold.norm(x, xi) ** 2
            )
            assert rhs - lhs >= -1e-8

    def test_all_pairs_degenerate(self, rng):
        data = cloud(rng, 4, 3)
        with pytest.raises(ValueError):
            Ball(np.eye(3), 0.0)


class TestObjectiveSummary:
    def test_consistent_with_individual_functions(self, rng):
        data = cloud(rng, 16, 3)
        m = random_spd(rng, 3)
        summary = objective_summary(m, data)
        assert summary.value == loss(m, data)
        assert summary.sigma2 == gradient_variance(m, data)
        assert summary.grad_norm == pytest.approx(
            manifold.norm(m, full_gradient(m, data)), rel=1e-12
        )

    def test_batch_gradient_from_summary_bitwise(self, rng):
        data = cloud(rng, 16, 3)
        m = random_spd(rng, 3)
        summary = objective_summary(m, data)
        batch = np.array([3, 3, 7, 11])
        np.testing.assert_array_equal(
            batch_gradient_from_summary(summary, batch), batch_gradient(m, data, batch)
        )

    @pytest.mark.parametrize("n", [1, 2, 16])
    def test_batch_gradient_paths_bitwise(self, rng, n):
        # Rows decomposed alone, rows composed from the summary's spectra and
        # rows of the composed stack give the same floats, for single rows
        # and single-matrix datasets too (a lone spectrum must not take
        # numpy's scalar log while a stack takes the vectorized one).
        data = cloud(rng, n, 5)
        for _ in range(300):
            m = random_spd(rng, 5)
            batch = rng.integers(0, n, size=int(rng.choice([1, 2, 4])))
            summary = objective_summary(m, data)
            rows = batch_gradient_from_summary(summary, batch)
            summary.whitened_logs
            np.testing.assert_array_equal(batch_gradient_from_summary(summary, batch), rows)
            np.testing.assert_array_equal(batch_gradient(m, data, batch), rows)

    def test_summary_full_gradient_bitwise(self, rng):
        data = cloud(rng, 16, 3)
        m = random_spd(rng, 3)
        summary = objective_summary(m, data)
        np.testing.assert_array_equal(summary.gradient, full_gradient(m, data))

    @pytest.mark.parametrize("n", [1, 2, 257])
    def test_mean_log_matches_composed_mean(self, rng, n):
        # One matrix product over all eigenvectors in place of N compositions.
        data = cloud(rng, n, 5, spread=0.8)
        summary = objective_summary(random_spd(rng, 5), data)
        want = compose(summary.eigenvectors, summary.log_spectra).mean(axis=0)
        err = np.linalg.norm(summary._mean_log - want)
        assert err <= 1e-14 * np.linalg.norm(want)

    def test_full_gradient_from_summary_bitwise(self, rng):
        data = cloud(rng, 16, 3)
        m = random_spd(rng, 3)
        summary = objective_summary(m, data)
        np.testing.assert_array_equal(
            batch_gradient_from_summary(summary, np.arange(data.n)),
            full_gradient(m, data),
        )


class TestDataset:
    def test_rejects_non_spd(self):
        with pytest.raises(ValueError, match="index 1"):
            Dataset(np.stack([np.eye(2), np.diag([1.0, -1.0])]))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2, 4)))

    def test_read_only(self, rng):
        data = cloud(rng, 3, 2)
        with pytest.raises(ValueError):
            data.points[0, 0, 0] = 5.0

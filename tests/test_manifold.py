import mpmath
import numpy as np
import pytest

from spdsgd import manifold, symmat
from spdsgd.manifold import (
    SPD_CURVATURE_LOWER_BOUND,
    curvature_factor,
    distance,
    exp_map,
    inner,
    log_map,
    norm,
    parallel_transport,
    validate_spd,
)
from spdsgd.symmat import DomainError

from conftest import random_invertible, random_spd, random_tangent, triangle_slacks


class TestInnerProduct:
    def test_identity_base_reduces_to_trace(self, rng):
        x = random_tangent(rng, 3, 2.0)
        y = random_tangent(rng, 3, 2.0)
        np.testing.assert_allclose(inner(np.eye(3), x, y), np.trace(x @ y), rtol=1e-12)

    def test_diagonal_hand_value(self):
        # tr(X P^-1 X P^-1) with P = diag(4, 1), X = diag(1, 0) is 1/16.
        val = inner(np.diag([4.0, 1.0]), np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
        assert val == pytest.approx(1.0 / 16.0, rel=1e-12)

    def test_symmetry_and_positivity(self, rng):
        p = random_spd(rng, 4)
        x = random_tangent(rng, 4, 1.0)
        y = random_tangent(rng, 4, 1.0)
        assert inner(p, x, y) == pytest.approx(inner(p, y, x), rel=1e-12)
        assert inner(p, x, x) > 0
        assert inner(p, np.zeros((4, 4)), np.zeros((4, 4))) == 0.0

    def test_affine_invariance(self, rng):
        p = random_spd(rng, 4)
        x = random_tangent(rng, 4, 1.0)
        y = random_tangent(rng, 4, 1.0)
        g = random_invertible(rng, 4)
        lhs = inner(p, x, y)
        rhs = inner(g @ p @ g.T, g @ x @ g.T, g @ y @ g.T)
        assert rhs == pytest.approx(lhs, rel=1e-10)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            inner(random_spd(rng, 3), np.zeros((4, 4)), np.zeros((4, 4)))


class TestNorm:
    def test_zero(self, rng):
        assert norm(random_spd(rng, 3), np.zeros((3, 3))) == 0.0

    def test_identity_base_hand_value(self):
        assert norm(np.eye(2), np.diag([1.0, -1.0])) == pytest.approx(np.sqrt(2.0))

    def test_homogeneity(self, rng):
        p = random_spd(rng, 4)
        x = random_tangent(rng, 4, 1.5)
        for c in (-3.0, 0.25):
            assert norm(p, c * x) == pytest.approx(abs(c) * norm(p, x), rel=1e-12)


class TestExpLog:
    def test_exp_of_zero(self, rng):
        p = random_spd(rng, 4)
        np.testing.assert_allclose(exp_map(p, np.zeros((4, 4))), p, rtol=1e-12)

    def test_exp_diagonal(self):
        out = exp_map(np.eye(2), np.diag([1.0, -1.0]))
        np.testing.assert_allclose(out, np.diag([np.e, 1.0 / np.e]), rtol=1e-14)

    def test_log_at_base(self, rng):
        p = random_spd(rng, 4)
        assert np.linalg.norm(log_map(p, p)) < 1e-13

    def test_log_diagonal(self):
        out = log_map(np.eye(2), np.diag([np.e**2, 1.0]))
        np.testing.assert_allclose(out, np.diag([2.0, 0.0]), atol=1e-14)

    def test_round_trips(self, rng):
        for _ in range(30):
            p = random_spd(rng, 5, cond=1e4)
            x = random_tangent(rng, 5, 5.0)
            x_back = log_map(p, exp_map(p, x))
            assert np.linalg.norm(x_back - x) <= 1e-9 * max(1.0, np.linalg.norm(x))
            q = random_spd(rng, 5, cond=1e4)
            q_back = exp_map(p, log_map(p, q))
            assert np.linalg.norm(q_back - q) <= 1e-9 * np.linalg.norm(q)

    def test_exp_rejects_asymmetric(self, rng):
        with pytest.raises(ValueError):
            exp_map(random_spd(rng, 3), np.triu(np.ones((3, 3))))

    def test_broadcasts_over_stacks(self, rng):
        p = random_spd(rng, 3)
        qs = np.stack([random_spd(rng, 3) for _ in range(4)])
        logs = log_map(p, qs)
        assert logs.shape == (4, 3, 3)
        for i in range(4):
            np.testing.assert_array_equal(logs[i], log_map(p, qs[i]))


class TestDistance:
    def test_self_distance(self, rng):
        p = random_spd(rng, 4)
        assert distance(p, p) < 1e-13

    def test_diagonal_hand_value(self):
        assert distance(np.eye(2), np.diag([np.e**2, np.e**2])) == pytest.approx(
            2.0 * np.sqrt(2.0), rel=1e-14
        )

    def test_symmetry(self, rng):
        p, q = random_spd(rng, 4), random_spd(rng, 4)
        assert abs(distance(p, q) - distance(q, p)) < 1e-12

    def test_matches_log_norm(self, rng):
        p, q = random_spd(rng, 5), random_spd(rng, 5)
        assert norm(p, log_map(p, q)) == pytest.approx(distance(p, q), abs=1e-10)

    def test_affine_invariance(self, rng):
        p, q = random_spd(rng, 4), random_spd(rng, 4)
        g = random_invertible(rng, 4)
        assert distance(g @ p @ g.T, g @ q @ g.T) == pytest.approx(
            distance(p, q), rel=1e-10
        )

    def test_triangle_inequality(self, rng):
        for _ in range(100):
            p, q, r = (random_spd(rng, 3) for _ in range(3))
            assert distance(p, r) <= distance(p, q) + distance(q, r) + 1e-10


class TestParallelTransport:
    def test_same_point_is_identity(self, rng):
        p = random_spd(rng, 3)
        x = random_tangent(rng, 3, 1.0)
        np.testing.assert_allclose(parallel_transport(p, p, x), x, atol=1e-13)

    def test_hand_value(self):
        # From I to 4I the transport frame is sqrt(4I) = 2I.
        out = parallel_transport(np.eye(2), np.diag([4.0, 4.0]), np.diag([1.0, 0.0]))
        np.testing.assert_allclose(out, np.diag([4.0, 0.0]), rtol=1e-14)
        assert norm(np.diag([4.0, 4.0]), out) == pytest.approx(
            norm(np.eye(2), np.diag([1.0, 0.0])), rel=1e-12
        )

    def test_isometry(self, rng):
        for _ in range(30):
            p, q = random_spd(rng, 4), random_spd(rng, 4)
            x = random_tangent(rng, 4, 2.0)
            out = parallel_transport(p, q, x)
            assert norm(q, out) == pytest.approx(norm(p, x), rel=1e-10)


class TestCurvatureFactor:
    def test_flat_limit(self):
        for c in (0.1, 1.0, 7.5):
            assert curvature_factor(0.0, c) == 1.0

    def test_high_precision_values(self):
        # Independent oracle: evaluate sqrt(|k|) c / tanh(sqrt(|k|) c) at 50 digits.
        with mpmath.workdps(50):
            for kappa, c in ((-1.0, 1.0), (-0.5, 1.0), (-0.5, 3.7), (-2.0, 0.2)):
                t = mpmath.sqrt(-kappa) * c
                expected = float(t / mpmath.tanh(t))
                assert curvature_factor(kappa, c) == pytest.approx(expected, rel=1e-14)

    def test_at_least_one(self, rng):
        cs = rng.uniform(1e-6, 20.0, size=100)
        vals = curvature_factor(-0.5, cs)
        assert np.all(vals >= 1.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            curvature_factor(-1.0, 0.0)
        with pytest.raises(ValueError):
            curvature_factor(0.5, 1.0)


def test_triangle_comparison_inequality(rng):
    slacks = triangle_slacks(rng, 200, d=5, max_tangent_norm=2.5)
    assert slacks.min() >= -1e-8


def test_all_operations_affine_invariant(rng):
    p = random_spd(rng, 4)
    q = random_spd(rng, 4)
    x = random_tangent(rng, 4, 1.5)
    g = random_invertible(rng, 4)
    gp, gq = g @ p @ g.T, g @ q @ g.T
    gx = g @ x @ g.T

    exp_t = g @ exp_map(p, x) @ g.T
    np.testing.assert_allclose(exp_map(gp, gx), exp_t, rtol=1e-9, atol=1e-11)
    log_t = g @ log_map(p, q) @ g.T
    np.testing.assert_allclose(log_map(gp, gq), log_t, rtol=1e-9, atol=1e-11)
    pt_t = g @ parallel_transport(p, q, x) @ g.T
    np.testing.assert_allclose(parallel_transport(gp, gq, gx), pt_t, rtol=1e-9, atol=1e-11)


def test_validate_spd_rejects_indefinite():
    with pytest.raises(ValueError, match="positive definite"):
        validate_spd(np.diag([1.0, -1.0]))


def test_validate_spd_checks_a_stack_in_one_call(rng, monkeypatch):
    stack = np.stack([random_spd(rng, 3) for _ in range(4)])
    np.testing.assert_array_equal(validate_spd(stack), stack)
    stack[2] = np.diag([1.0, -2.0, 3.0])
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    with pytest.raises(DomainError, match="at index 2 is not positive definite") as err:
        validate_spd(stack)
    assert (err.value.index, err.value.eigenvalue) == (2, -2.0)
    assert calls == [(4, 3, 3)]


def test_log_map_decomposes_the_base_once(rng, monkeypatch):
    p, q = random_spd(rng, 3), random_spd(rng, 3)
    shapes = []
    eigh = symmat._eigh
    monkeypatch.setattr(symmat, "_eigh", lambda s: shapes.append(np.shape(s)) or eigh(s))
    log_map(p, q)
    assert shapes == [(3, 3), (3, 3)]  # P, then the whitened Q


def test_stacked_operands_get_their_lone_floats(rng):
    # Every row of a stacked operand takes the floats of its lone call, bit
    # for bit: distance(p, q)[i] == distance(p, q[i]).
    p = random_spd(rng, 5)
    tangents = np.stack([random_tangent(rng, 5, 3.0) for _ in range(300)])
    points = np.stack([exp_map(p, t) for t in tangents[::-1]])
    differ = {}
    for fn, operands in ((exp_map, tangents), (log_map, points), (distance, points)):
        stacked = fn(p, operands)
        differ[fn.__name__] = sum(np.asarray(fn(p, x)).tobytes() != stacked[i].tobytes()
                                  for i, x in enumerate(operands))
    assert differ == {"exp_map": 0, "log_map": 0, "distance": 0}


def test_manifold_curvature_constant():
    assert SPD_CURVATURE_LOWER_BOUND == -0.5

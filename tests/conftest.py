import numpy as np
import pytest

from spdsgd import manifold
from spdsgd.experiment import FitInputs, model_steps


def random_spd(rng: np.random.Generator, d: int, *, cond: float | None = None) -> np.ndarray:
    """Random SPD matrix; with ``cond`` given, its condition number is exact."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    if cond is None:
        lam = np.exp(rng.uniform(-1.0, 1.0, size=d))
    else:
        loglam = np.sort(rng.uniform(0.0, np.log(cond), size=d))
        loglam[0], loglam[-1] = 0.0, np.log(cond)
        lam = np.exp(loglam)
    return 0.5 * ((q * lam) @ q.T + ((q * lam) @ q.T).T)


def random_tangent(rng: np.random.Generator, d: int, max_norm: float) -> np.ndarray:
    g = rng.standard_normal((d, d))
    g = 0.5 * (g + g.T)
    fro = np.sqrt(np.sum(g * g))
    return g * (max_norm / fro) * rng.uniform(0.1, 1.0)


def random_invertible(rng: np.random.Generator, d: int) -> np.ndarray:
    q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
    q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q1 @ np.diag(np.exp(rng.uniform(-0.7, 0.7, size=d))) @ q2


def triangle_slacks(
    rng: np.random.Generator, n_triangles: int, d: int, max_tangent_norm: float
) -> np.ndarray:
    """Slack of the curvature-corrected law of cosines on random triangles.

    Vertices: a base point, and two exponential-map images of random
    tangents at it.  The slack (right side minus left side) must be
    nonnegative up to roundoff when the correction factor uses the cone's
    curvature lower bound of -1/2.
    """
    slacks = []
    while len(slacks) < n_triangles:
        base = random_spd(rng, d)
        u = random_tangent(rng, d, max_tangent_norm)
        v = random_tangent(rng, d, max_tangent_norm)
        p1 = manifold.exp_map(base, u)
        p2 = manifold.exp_map(base, v)
        side_a = manifold.distance(p1, p2)
        log1 = manifold.log_map(base, p1)
        log2 = manifold.log_map(base, p2)
        side_b = manifold.norm(base, log1)
        side_c = manifold.norm(base, log2)
        if side_b < 1e-14 or side_c < 1e-14:
            continue
        cos_theta = manifold.inner(base, log1, log2) / (side_b * side_c)
        zeta = manifold.curvature_factor(manifold.SPD_CURVATURE_LOWER_BOUND, side_c)
        rhs = zeta * side_b**2 + side_c**2 - 2.0 * side_b * side_c * cos_theta
        slacks.append(rhs - side_a**2)
    return np.asarray(slacks)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_fit_case(rng, case: int):
    """One seeded fit problem: (kind, points, inputs, label).

    Cases cycle through model-generated curves with and without noise, curves
    whose C1 sits just inside the constant-step domain, flat K(b) (the fit
    drives C1 to roundoff) and pure noise.
    """
    kind = ("constant", "staircase", "inverse_sqrt")[case % 3]
    shape = ("model", "edge", "noisy", "model", "edge", "flat", "model", "edge", "noise",
             "model", "edge", "model")[case // 3 % 12]
    inputs = FitInputs(
        sigma2=float(np.exp(rng.uniform(np.log(0.1), np.log(100.0)))),
        grad_bound=float(rng.uniform(0.1, 2.0)),
        alpha=float(np.exp(rng.uniform(np.log(1e-4), np.log(1e-2)))),
        eps=float(np.exp(rng.uniform(np.log(0.01), np.log(1.0)))),
        gamma=0.5,
        max_stage=int(rng.integers(1, 6)),
    )
    p = np.sort(rng.choice(np.arange(1, 11), size=int(rng.integers(2, 8)), replace=False))
    bs = 2.0**p
    if shape == "flat":
        ks = np.full(bs.shape, float(rng.integers(10, 5000)))
    elif shape == "noise":
        ks = np.exp(rng.uniform(0.0, 8.0, bs.shape))
    else:
        c2 = float(np.exp(rng.uniform(-2.0, 3.0)))
        if kind == "inverse_sqrt":
            c1 = float(np.exp(rng.uniform(-3.0, 3.0)))
        else:
            # A fraction of the largest C1 with a positive denominator at the smallest batch.
            noise_term = inputs.sigma2 + inputs.grad_bound**2 * bs[0]
            cap = inputs.eps * bs[0] / (inputs.alpha * noise_term)
            if shape == "edge":
                c1 = (1.0 - 10.0 ** rng.uniform(-6.0, -2.0)) * cap
            else:
                c1 = rng.uniform(0.01, 0.9) * cap
        ks = model_steps(kind, bs, c1, c2, inputs)
        if shape == "noisy":
            ks = ks * np.exp(rng.normal(0.0, 0.2, bs.shape))
    points = list(zip(bs.tolist(), np.atleast_1d(ks).tolist()))
    return kind, points, inputs, f"case {case} {kind} {shape}"


def capped_fit_case():
    """Case 6 of ``random_fit_case`` as the seeded simplex-search test draws it:
    a noisy constant-step curve whose fit stops at its 8000-evaluation cap."""
    rng = np.random.default_rng(20)
    for case in range(6):
        random_fit_case(rng, case)
        rng.integers(4, 60), rng.integers(1, 40)  # that test's two small caps
    return random_fit_case(rng, 6)[:3]

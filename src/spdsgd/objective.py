"""Riemannian centroid loss over a set of SPD matrices.

The objective is the mean squared geodesic distance

    f(M) = (1/N) sum_i d(M, A_i)^2,

whose Riemannian gradient at ``M`` is ``-(2/N) sum_i log_map(M, A_i)``.
Mini-batch gradients sample the terms i.i.d. uniformly with replacement, so
they are unbiased estimators of the full gradient with per-sample variance
shrinking as ``1/b`` in the batch size ``b``.

Everything funnels through one whitened eigendecomposition of the stack
``M^{-1/2} A_i M^{-1/2}`` (:func:`spdsgd.symmat.eigen_stack`), so evaluating
the loss, the full gradient, its norm, and the per-sample gradient variance
at the same point costs a single stacked ``eigh`` once ``M`` is decomposed
into its roots ``(M^{1/2}, M^{-1/2})``, which a summary keeps for the
optimizer's update.  The rest is O(N d) work: the mean whitened log is one
matrix product (:func:`_mean_whitened_log`), the variance an identity.  A
:class:`Dataset` is validated once, by one stacked check on construction.
The Riemannian Hessian has a closed form in the same eigenvectors and log
spectra (:func:`_whitened_hessian`), which the Newton centroid oracle uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import manifold
from .symmat import compose, eigen_stack, symmetrize
from .symmat import _eigh  # noqa: F401  (bench/bench_trace.py wraps this binding by name)


@dataclass(frozen=True)
class Dataset:
    """An immutable stack of SPD matrices of common dimension.

    ``points`` has shape ``(n, d, d)``; every matrix is validated as SPD at
    construction and the storage is marked read-only, so datasets can be
    shared freely across threads.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        if pts.ndim != 3 or pts.shape[-1] != pts.shape[-2]:
            raise ValueError(f"points must have shape (n, d, d), got {pts.shape}")
        if pts.shape[0] < 1:
            raise ValueError("dataset must contain at least one matrix")
        manifold.validate_spd(pts)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[-1]


@dataclass(frozen=True)
class ObjectiveSummary:
    """All per-point quantities at one base point, from one stacked eigh.

    The whitened stack ``M^{-1/2} A_i M^{-1/2} = V_i diag(w_i) V_i^T`` is kept
    as its eigenvectors and log spectra; the loss ``value`` is the mean of
    ``||log w_i||^2``.  The mean ``m`` of ``L_i = V_i diag(log w_i) V_i^T``
    (the whitened full gradient is ``-2 m``), ``grad_norm``, ``sigma2`` and
    the full ``gradient`` are computed once, on first read, without composing
    the ``L_i``; ``whitened_logs`` composes them.  Metric norms of tangents
    at ``M`` equal Frobenius norms of their whitened forms.  ``roots`` is the
    pair ``(M^{1/2}, M^{-1/2})`` that the manifold internals take.
    """

    value: float
    eigenvectors: np.ndarray = field(repr=False)
    log_spectra: np.ndarray = field(repr=False)
    roots: manifold._Roots = field(repr=False)

    @cached_property
    def whitened_logs(self) -> np.ndarray:
        return compose(self.eigenvectors, self.log_spectra)

    @cached_property
    def _mean_log(self) -> np.ndarray:
        return _mean_whitened_log(self.eigenvectors, self.log_spectra)

    @cached_property
    def grad_norm(self) -> float:
        return 2.0 * float(np.sqrt(np.einsum("ij,ij->", self._mean_log, self._mean_log)))

    @cached_property
    def sigma2(self) -> float:
        # (4/N) sum_i ||L_i - m||^2 by the identity 4 f - ||grad f||^2, set to 0
        # within its rounding.  To first order in u = 2^-53, with ||m||^2 <= f:
        # f is off by u (N + d + 1) f; ||dm||_F <= u (N d + 2) sqrt(d f) moves
        # ||m||^2 by 2 sqrt(d) times that, and its sum, root and square add
        # u (d^2 + 3) f; eigenvectors orthonormal to 2 d u move each ||L_i||^2
        # by 4 d u of it.  Rounding down only lowers rsgd's loss bound.
        n, d = self.log_spectra.shape
        rounding = 2.0**-51 * self.value * (n + d * d + 5 * d + 4 + 2 * np.sqrt(d) * (n * d + 2))
        excess = 4.0 * self.value - self.grad_norm**2
        return 0.0 if excess <= rounding else excess

    @cached_property
    def gradient(self) -> np.ndarray:
        """The full Riemannian gradient at ``M``."""
        return manifold._unwhiten(self.roots, -2.0 * self._mean_log)


def _whitened_hessian(summary: ObjectiveSummary):
    """Half the Riemannian Hessian of the loss at the summary's point, on whitened tangents.

    Returns ``eta -> (1/N) sum_i V_i (C_i o (V_i^T eta V_i)) V_i^T``, where
    ``o`` is the entrywise product, ``C_i[p, q] = h((mu_ip - mu_iq) / 2)``
    for the log spectrum ``mu_i`` of the ``i``-th whitened matrix, and
    ``h(s) = s coth s``, ``h(0) = 1``; the ``i``-th term is the Hessian of
    ``d(., A_i)^2 / 2``.  Every ``C_i >= 1``, so the operator is at least
    the identity, and it is the identity on tangents that commute with all
    the data.  A product is two ``(d, d) x (d, N d)`` matrix products and
    two batched ``(N, d, d)`` ones; its result is symmetrized.
    """
    v, mu = summary.eigenvectors, summary.log_spectra
    n, d = mu.shape
    s = 0.5 * (mu[:, :, None] - mu[:, None, :])
    c = np.divide(s, np.tanh(s), out=np.ones_like(s), where=s != 0.0)
    u = v.transpose(1, 0, 2).reshape(d, n * d)  # all N d eigenvectors as columns

    def product(eta: np.ndarray) -> np.ndarray:
        t = v.transpose(0, 2, 1) @ (eta @ u).reshape(d, n, d).transpose(1, 0, 2)
        t *= c  # C_i o (V_i^T eta V_i)
        return symmetrize((v @ t).transpose(1, 0, 2).reshape(d, n * d) @ u.T / n)

    return product


def _mean_whitened_log(v: np.ndarray, lw: np.ndarray) -> np.ndarray:
    """``mean_i V_i diag(lw_i) V_i^T`` as ``U diag(lw) U^T / N``, ``U`` all ``N d``
    eigenvectors as columns: the one mean of whitened logs, so equal rows give equal floats."""
    n, d = lw.shape
    u = v.transpose(1, 0, 2).reshape(d, n * d)
    return (u * lw.reshape(-1)) @ u.T / n


def _batch_gradients(roots: list[manifold._Roots], points: np.ndarray, batches: list,
                     cap: int) -> list:
    """Gradient of the terms ``points[batches[i]]`` alone at the point whose
    root pair is ``roots[i]``, for every ``i``.

    The whitened rows of all points are decomposed together, at most ``cap``
    of them per stacked ``eigh``, in one buffer that then holds their
    eigenvectors.  numpy decomposes and logs each row on its own (see
    :mod:`spdsgd.symmat`), so a point's gradient has the floats it has alone.
    """
    ends = np.cumsum([len(batch) for batch in batches])
    stack = np.empty((ends[-1], *points.shape[1:]))
    log_spectra = np.empty(stack.shape[:-1])
    for r, batch, hi in zip(roots, batches, ends):
        stack[hi - len(batch):hi] = manifold._whiten(r, points[batch])
    for lo in range(0, len(stack), cap):
        w, stack[lo:lo + cap] = eigen_stack(stack[lo:lo + cap], positive=True)
        log_spectra[lo:lo + cap] = np.log(w)
    return [_gradient(r, v, lw) for r, v, lw in
            zip(roots, np.split(stack, ends[:-1]), np.split(log_spectra, ends[:-1]))]


def _gradient(roots: manifold._Roots, v: np.ndarray, lw: np.ndarray) -> np.ndarray:
    """Riemannian gradient of the terms with whitened eigenvectors ``v`` and log spectra ``lw``."""
    return manifold._unwhiten(roots, -2.0 * _mean_whitened_log(v, lw))


def _check_base(m: np.ndarray, data: Dataset) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (data.dim, data.dim):
        raise ValueError(
            f"base point shape {m.shape} does not match dataset dimension {data.dim}"
        )
    return m


def loss(m: np.ndarray, data: Dataset) -> float:
    """Mean squared geodesic distance from ``m`` to the dataset."""
    return objective_summary(m, data).value


def point_gradient(m: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Riemannian gradient of ``d(., a)^2`` at ``m``: ``-2 log_map(m, a)``."""
    return -2.0 * manifold.log_map(m, a)


def full_gradient(m: np.ndarray, data: Dataset) -> np.ndarray:
    """Riemannian gradient of the centroid loss; zero exactly at the centroid."""
    return objective_summary(m, data).gradient


def sample_batch(rng: np.random.Generator, n: int, b: int) -> np.ndarray:
    """Draw ``b`` i.i.d. indices uniform over ``[0, n)`` (with replacement).

    Deterministic given the generator state.
    """
    if n < 1:
        raise ValueError("dataset size must be positive")
    if b < 1:
        raise ValueError("batch size must be positive")
    return rng.integers(0, n, size=b)


def batch_gradient(m: np.ndarray, data: Dataset, batch: np.ndarray) -> np.ndarray:
    """Mini-batch gradient: the mean of per-point gradients over ``batch``.

    Unbiased for :func:`full_gradient` under uniform sampling; duplicates in
    the batch are allowed (sampling is with replacement).
    """
    m = _check_base(m, data)
    batch = np.asarray(batch)
    if batch.ndim != 1 or batch.size < 1:
        raise ValueError("batch must be a nonempty 1-d index array")
    if batch.min() < 0 or batch.max() >= data.n:
        raise ValueError(f"batch index out of range [0, {data.n})")
    return _batch_gradients([manifold.sqrt_and_inv_sqrt(m)], data.points, [batch], batch.size)[0]


def gradient_variance(m: np.ndarray, data: Dataset) -> float:
    """Exact variance of a single-sample stochastic gradient at ``m``.

    ``(1/N) sum_i ||g_i - g_bar||_M^2`` where ``g_i`` is the per-point
    gradient; this is the tightest variance bound valid at ``m`` for uniform
    single-point sampling, and the batch-gradient deviation is exactly this
    divided by the batch size.
    """
    return objective_summary(m, data).sigma2


def max_gradient_norm(trace) -> float:
    """Largest gradient norm over a trace of ``(point, gradient)`` pairs.

    A surrogate upper bound for the expected gradient norm along a run;
    nondecreasing as the trace extends.
    """
    trace = list(trace)
    if not trace:
        raise ValueError("trace must be nonempty")
    return max(float(manifold.norm(p, g)) for p, g in trace)


def objective_summary(m: np.ndarray, data: Dataset) -> ObjectiveSummary:
    """Loss at ``m`` from one stacked eigendecomposition, and the means to
    read the gradient norm, the single-sample variance and mini-batch
    gradients (:func:`batch_gradient_from_summary`) off the same one."""
    roots = manifold.sqrt_and_inv_sqrt(_check_base(m, data))
    w, v = eigen_stack(manifold._whiten(roots, data.points), positive=True)
    lw = np.log(w)
    value = float(np.mean(np.einsum("nk,nk->n", lw, lw)))
    return ObjectiveSummary(value=value, eigenvectors=v, log_spectra=lw, roots=roots)


def batch_gradient_from_summary(summary: ObjectiveSummary, batch: np.ndarray) -> np.ndarray:
    """Mini-batch gradient reusing a precomputed :class:`ObjectiveSummary`.

    Bit-identical to :func:`batch_gradient` at the same point: the stacked
    eigendecomposition is computed per matrix, so the batch's rows of the
    summary's eigenvectors and log spectra are those of rows decomposed alone.
    """
    batch = np.asarray(batch)
    return _gradient(summary.roots, summary.eigenvectors[batch], summary.log_spectra[batch])


@dataclass(frozen=True)
class Ball:
    """A geodesic ball: sampling region for the smoothness estimator."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(
            self, "center", manifold.validate_spd(self.center, name="ball center")
        )
        if not self.radius > 0.0:
            raise ValueError("ball radius must be positive")


def _random_tangent(rng: np.random.Generator, dim: int, max_norm: float) -> np.ndarray:
    """Symmetric direction with Frobenius norm uniform in (0, max_norm]."""
    g = rng.standard_normal((dim, dim))
    g = 0.5 * (g + g.T)
    fro = np.sqrt(np.sum(g * g))
    if fro == 0.0:
        return g
    return g * (max_norm * rng.uniform() / fro)


def smoothness_ratio(data: Dataset, x: np.ndarray, y: np.ndarray) -> float:
    """Gradient-Lipschitz ratio between two points.

    ``||grad f(x) - transport(grad f(y))||_x / d(x, y)`` with the transport
    taken along the connecting geodesic; the supremum of this ratio over a
    region is the geodesic smoothness constant of the loss there.
    """
    dxy = manifold.distance(x, y)
    if dxy < 1e-12:
        raise ValueError("points too close for a smoothness ratio")
    return _smoothness_ratio(data, x, y, dxy)


def _smoothness_ratio(data: Dataset, x: np.ndarray, y: np.ndarray, dxy: float) -> float:
    """:func:`smoothness_ratio` given the distance ``dxy = d(x, y)``."""
    gx = full_gradient(x, data)
    gy = full_gradient(y, data)
    gap = gx - manifold.parallel_transport(y, x, gy)
    return float(manifold.norm(x, gap)) / float(dxy)


def estimate_smoothness(
    data: Dataset, probes: int, rng: np.random.Generator, region: Ball
) -> float:
    """Empirical geodesic smoothness constant of the loss on a ball.

    Samples ``probes`` point pairs inside ``region`` and returns the largest
    observed :func:`smoothness_ratio`.  A lower bound on the true constant;
    nondecreasing in ``probes`` for a fixed generator seed.  Degenerate pairs
    (distance below 1e-12) are skipped; if every pair degenerates, raises.
    """
    if probes < 1:
        raise ValueError("probes must be positive")
    dim = data.dim
    center_roots = manifold.sqrt_and_inv_sqrt(region.center)
    best = -1.0
    for _ in range(probes):
        x = manifold._exp_map(center_roots, _random_tangent(rng, dim, region.radius))
        x_roots = manifold.sqrt_and_inv_sqrt(x)
        y = manifold._exp_map(x_roots, _random_tangent(rng, dim, region.radius))
        dxy = manifold._distance(x_roots, y)
        if dxy < 1e-12:
            continue
        best = max(best, _smoothness_ratio(data, x, y, dxy))
    if best < 0.0:
        raise RuntimeError("all sampled pairs were degenerate; cannot estimate smoothness")
    return best

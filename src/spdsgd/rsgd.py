"""Riemannian stochastic gradient descent on the SPD manifold.

One iteration moves along the exponential map against a mini-batch gradient:

    x_{k+1} = exp_map(x_k, -alpha_k * batch_gradient(x_k, data, batch_k))

Three step-size schedules are supported: constant, ``1/sqrt(k+1)``, and a
staircase that multiplies a base step by ``gamma`` every ``period`` steps up
to ``max_stage`` decays.  Batches are drawn from a counter-based generator
keyed by ``(seed, step)``, so a run is a pure function of its configuration
and is bit-reproducible regardless of how many runs execute concurrently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from . import manifold, objective
from .objective import Dataset
from .symmat import NumericalError

_STEP_FAILURES = (ValueError, FloatingPointError, NumericalError)

_ORACLE_MAX_ITERS = 1_000_000


class ConvergenceError(RuntimeError):
    """The reference-centroid solver hit its iteration cap."""

    def __init__(self, message: str, grad_norm: float):
        super().__init__(message)
        self.grad_norm = grad_norm


class RunError(RuntimeError):
    """A geometry failure occurred mid-run; carries the last good state."""

    def __init__(self, message: str, step: int, last_point: np.ndarray):
        super().__init__(message)
        self.step = step
        self.last_point = last_point


_KINDS = ("constant", "inverse_sqrt", "staircase")


@dataclass(frozen=True)
class StepSchedule:
    """Tagged step-size rule producing ``alpha_k`` for each step index.

    kinds:
      - ``constant``: ``alpha_k = alpha``
      - ``inverse_sqrt``: ``alpha_k = 1 / sqrt(k + 1)``
      - ``staircase``: ``alpha_k = alpha * gamma**min(k // period, max_stage)``
    """

    kind: str
    alpha: float = 1.0
    gamma: float = 0.5
    period: int = 1
    max_stage: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind in ("constant", "staircase"):
            if not (0.0 < self.alpha <= 1.0):
                raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.kind == "staircase":
            if not (0.0 < self.gamma < 1.0):
                raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
            if self.period < 1:
                raise ValueError(f"period must be >= 1, got {self.period}")
            if self.max_stage < 0:
                raise ValueError(f"max_stage must be >= 0, got {self.max_stage}")

    @classmethod
    def constant(cls, alpha: float) -> "StepSchedule":
        return cls("constant", alpha=alpha)

    @classmethod
    def inverse_sqrt(cls) -> "StepSchedule":
        return cls("inverse_sqrt")

    @classmethod
    def staircase(cls, alpha: float, gamma: float, period: int, max_stage: int) -> "StepSchedule":
        return cls("staircase", alpha=alpha, gamma=gamma, period=period, max_stage=max_stage)

    @property
    def label(self) -> str:
        """Canonical spec string; distinct schedules get distinct labels."""
        if self.kind == "constant":
            return f"constant:{self.alpha:g}"
        if self.kind == "inverse_sqrt":
            return "inverse_sqrt"
        return f"staircase:{self.alpha:g},{self.gamma:g},{self.period},{self.max_stage}"

    @classmethod
    def parse(cls, text: str) -> "StepSchedule":
        """Inverse of :attr:`label`: ``constant:<alpha>``, ``inverse_sqrt``, or
        ``staircase:<alpha>,<gamma>,<period>,<max_stage>``."""
        kind, _, rest = text.partition(":")
        if kind == "constant":
            return cls.constant(float(rest))
        if kind == "inverse_sqrt":
            if rest:
                raise ValueError("inverse_sqrt takes no parameters")
            return cls.inverse_sqrt()
        if kind == "staircase":
            parts = rest.split(",")
            if len(parts) != 4:
                raise ValueError("staircase spec needs alpha,gamma,T,n")
            return cls.staircase(float(parts[0]), float(parts[1]), int(parts[2]), int(parts[3]))
        raise ValueError(f"unknown schedule kind {kind!r}")


def step_size(schedule: StepSchedule, k: int) -> float:
    """Step size at step index ``k`` (total function, k >= 0)."""
    if schedule.kind == "constant":
        return schedule.alpha
    if schedule.kind == "inverse_sqrt":
        return 1.0 / np.sqrt(k + 1.0)
    stage = min(k // schedule.period, schedule.max_stage)
    return schedule.alpha * schedule.gamma**stage


def step_rng(seed: int, k: int) -> Generator:
    """Counter-based generator for draw ``k`` of run ``seed``.

    Each (seed, step) pair owns a disjoint counter block, so batch draws do
    not depend on execution interleaving across runs.
    """
    return Generator(Philox(key=np.uint64(seed), counter=[0, 0, 0, k]))


def stationarity_gap(p: np.ndarray, grad: np.ndarray, ref: np.ndarray) -> float:
    """Variational stationarity measure ``<grad, -log_map(p, ref)>_p``.

    Nonpositive for every ``ref`` exactly when ``grad`` vanishes, so its
    running average gauges convergence without needing a smoothness constant.
    The inputs are not validated: ``p`` and ``ref`` must be SPD and ``grad``
    symmetric, as they are inside :func:`run`.
    """
    return _reference_metrics(manifold.sqrt_and_inv_sqrt(p), grad, ref)[0]


def _reference_metrics(roots: manifold._Roots, grad: np.ndarray, ref: np.ndarray) -> tuple:
    """Stationarity gap and distance to ``ref`` from one whitened log of ``ref``."""
    lw = manifold._whitened_log(roots, ref)
    gap = manifold._inner(roots, grad, -manifold._unwhiten(roots, lw))
    return float(gap), float(manifold._frobenius(lw))


@dataclass(frozen=True)
class RunConfig:
    """Inputs of a single optimizer run; the run is a pure function of this."""

    data: Dataset
    x0: np.ndarray
    schedule: StepSchedule
    batch_size: int
    seed: int
    max_steps: int
    epsilons: tuple[float, ...] = ()
    reference: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "x0", manifold.validate_spd(self.x0, name="x0"))
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.max_steps < 0:
            raise ValueError("max_steps must be nonnegative")
        eps = tuple(float(e) for e in self.epsilons)
        if not all(0.0 < e < np.inf for e in eps):
            raise ValueError("epsilons must be finite and strictly positive")
        if any(a <= b for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilons must be strictly descending")
        object.__setattr__(self, "epsilons", eps)
        if self.reference is not None:
            object.__setattr__(
                self, "reference", manifold.validate_spd(self.reference, name="reference")
            )


@dataclass(frozen=True)
class RunRecord:
    """Per-step trace of one run.

    Arrays are indexed by iterate: entry ``k`` was measured at ``x_k``, so a
    run of ``K`` steps yields arrays of length ``K + 1`` (``alpha`` has
    length ``K``).  ``stationarity`` and ``ref_distance`` are NaN when no
    reference point was supplied.
    """

    f: np.ndarray
    grad_norm: np.ndarray
    alpha: np.ndarray
    stationarity: np.ndarray
    ref_distance: np.ndarray
    steps_to_epsilon: dict[float, int | None]
    final_point: np.ndarray = field(repr=False)
    sigma2_initial: float
    sigma2_max: float
    grad_norm_max: float
    max_ref_distance: float
    wall_time_s: float

    @property
    def steps(self) -> int:
        return int(self.alpha.size)


def rsgd_step(
    x: np.ndarray, data: Dataset, batch: np.ndarray, alpha: float
) -> np.ndarray:
    """One descent step: exponential-map update against the batch gradient."""
    if not alpha > 0.0:
        raise ValueError("step size must be positive")
    return manifold.exp_map(x, -alpha * objective.batch_gradient(x, data, batch))


_BOUND_MARGIN = 1e-9  # relative slack on a threshold: absorbs rounding in f and step lengths


def _descend(config: RunConfig, observe=None) -> tuple[dict, float, np.ndarray, int]:
    """The RSGD loop; returns ``(steps_to_epsilon, final f, final point, steps)``.

    With ``observe``, every iterate is evaluated and its summary passed to
    ``observe``.  Without, only the last iterate and those where a threshold
    could be crossed are: ``sqrt(f)`` is the scaled l2 norm of 1-Lipschitz
    distances, so ``sqrt(f(x_{k+1})) >= sqrt(f(x_k)) - alpha_k ||g_B||_{x_k}``,
    and an iterate whose bound reaches ``sqrt(e (1 + 1e-9))`` for the largest
    remaining ``e`` takes its batch gradient from its ``b`` rows alone.  That
    gradient is bit-identical to a full evaluation's.
    """
    data = config.data
    eps_left = list(config.epsilons)
    hits: dict[float, int | None] = {e: None for e in config.epsilons}
    x, k = config.x0, 0
    root_f = -np.inf  # certified lower bound on sqrt(f(x_k))
    while True:
        summary = None
        certified = not eps_left or root_f >= np.sqrt(eps_left[0] * (1.0 + _BOUND_MARGIN))
        if observe is not None or k >= config.max_steps or not certified:
            try:
                summary = objective.objective_summary(x, data)
                if observe is not None:
                    observe(summary)
            except _STEP_FAILURES as exc:
                raise RunError(f"objective evaluation failed at step {k}: {exc}", k, x) from exc
            root_f = np.sqrt(summary.value)
            for e in list(eps_left):
                if summary.value < e:
                    hits[e] = k
                    eps_left.remove(e)

        if (config.epsilons and not eps_left) or k >= config.max_steps:
            return hits, summary.value, x, k

        a_k = step_size(config.schedule, k)
        batch = objective.sample_batch(step_rng(config.seed, k), data.n, config.batch_size)
        try:
            if summary is None:
                g, roots = objective._batch_gradient(x, data.points[batch])
            else:
                g, roots = objective.batch_gradient_from_summary(summary, batch), summary.roots
            step = -a_k * g
            x_next = manifold._exp_map(roots, step)
            if not np.all(np.isfinite(x_next)):
                raise FloatingPointError("iterate has non-finite entries")
        except _STEP_FAILURES as exc:
            raise RunError(f"update failed at step {k}: {exc}", k, x) from exc
        root_f -= manifold._frobenius(manifold._whiten(roots, step))
        x = x_next
        k += 1


def run(config: RunConfig) -> RunRecord:
    """Execute RSGD and record the full trace.

    Stops after ``max_steps`` steps, or as soon as the loss has dropped below
    every threshold in ``epsilons``.  ``steps_to_epsilon[eps]`` is the first
    iterate index with ``f(x_k) < eps`` (None if never reached).  The loss,
    the gradient norm and, with a reference point, the stationarity gap and
    the distance to the reference are evaluated at every iterate.  A failed
    evaluation or update, or a non-finite iterate, raises :class:`RunError`
    carrying the last finite iterate.  :func:`hitting_steps` runs the same
    loop for the hits alone.
    """
    t_start = time.perf_counter()
    rows: list[tuple[float, float, float, float, float]] = []

    def observe(summary: objective.ObjectiveSummary) -> None:
        gap = d_ref = np.nan
        if config.reference is not None:
            gap, d_ref = _reference_metrics(summary.roots, summary.gradient, config.reference)
        rows.append((summary.value, summary.grad_norm, gap, d_ref, summary.sigma2))

    hits, _, x, steps = _descend(config, observe)
    f, grad_norm, gap, d_ref, sigma2 = (np.asarray(col) for col in zip(*rows))
    return RunRecord(
        f=f,
        grad_norm=grad_norm,
        alpha=np.asarray([step_size(config.schedule, k) for k in range(steps)]),
        stationarity=gap,
        ref_distance=d_ref,
        steps_to_epsilon=hits,
        final_point=x,
        sigma2_initial=rows[0][4],
        sigma2_max=max(row[4] for row in rows),
        grad_norm_max=float(np.max(grad_norm)),
        max_ref_distance=float(np.max(d_ref)),
        wall_time_s=time.perf_counter() - t_start,
    )


def hitting_steps(config: RunConfig) -> tuple[dict[float, int | None], float, int, float]:
    """:func:`run`'s hits, evaluating the loss only where one can occur.

    Returns ``(steps_to_epsilon, final_f, steps, wall_s)``, equal to ``run``'s
    bit for bit (see :func:`_descend`).  An iterate the bound skips decomposes
    only its batch's rows, so a geometry failure in another row goes unseen.
    """
    t_start = time.perf_counter()
    hits, final_f, _, steps = _descend(config)
    return hits, final_f, steps, time.perf_counter() - t_start


def reference_centroid(data: Dataset, tol: float) -> np.ndarray:
    """High-accuracy Riemannian centroid by guaranteed-descent full-gradient steps.

    Starts from the arithmetic mean (always SPD), takes full-gradient steps
    with a constant step size that is halved whenever a step fails to
    decrease the loss, and stops once the gradient norm drops below ``tol``.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    x = np.mean(data.points, axis=0)
    summary = objective.objective_summary(x, data)
    alpha = 0.5
    for _ in range(_ORACLE_MAX_ITERS):
        if summary.grad_norm < tol:
            return x
        cand = manifold._exp_map(summary.roots, -alpha * summary.gradient)
        cand_summary = objective.objective_summary(cand, data)
        # Near the optimum the loss decrease drops below float resolution
        # while the gradient norm still contracts; either counts as progress.
        if cand_summary.value < summary.value or cand_summary.grad_norm < summary.grad_norm:
            x, summary = cand, cand_summary
        else:
            alpha *= 0.5
            if alpha < 1e-18:
                raise ConvergenceError(
                    f"step size collapsed with gradient norm {summary.grad_norm:.3e}",
                    summary.grad_norm,
                )
    raise ConvergenceError(
        f"no convergence in {_ORACLE_MAX_ITERS} iterations; gradient norm {summary.grad_norm:.3e}",
        summary.grad_norm,
    )

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from . import manifold, objective, symmat
from .objective import Dataset
from .symmat import NumericalError

_STEP_FAILURES = (ValueError, FloatingPointError, NumericalError)

_ORACLE_MAX_ITERS = 1_000_000

_SEED_LIMIT = 2**64  # seeds key a Philox generator with one 64-bit word


class ConvergenceError(RuntimeError):
    """The reference-centroid solver stalled: its step size collapsed or it hit its step cap."""

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
        if self.seed >= _SEED_LIMIT:
            raise ValueError(f"seed must be below 2^64 (a Philox key), got {self.seed}")
        if self.max_steps < 0:
            raise ValueError("max_steps must be nonnegative")
        eps = tuple(sorted({float(e) for e in self.epsilons}, reverse=True))
        if not all(0.0 < e < np.inf for e in eps):
            raise ValueError("epsilons must be finite and strictly positive")
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


_BOUND_MARGIN = 1e-9  # relative slack on a threshold and on the bound's terms


def _anchor(summary: objective.ObjectiveSummary) -> tuple:
    """What :func:`_loss_lower_bound` reads of an evaluated iterate ``x_a``:
    ``(f, root pair, mean whitened log m_a, sigma2)``."""
    return summary.value, summary.roots, summary._mean_log, summary.sigma2


def _loss_lower_bound(anchor: tuple, y: np.ndarray) -> tuple[float, float]:
    """``(lb, scale)``: ``lb <= f(y)`` from the :func:`_anchor` of ``x_a``.

    ``Log_{x_a}`` does not expand distances on the SPD cone (a Hadamard
    manifold), so with whitened logs ``L_y`` of ``y`` and ``L_i`` of the data
    at ``x_a``, ``d(y, A_i) >= ||L_y - L_i||_F``; averaging the squares about
    their mean ``m_a`` gives ``f(y) >= sigma2(x_a) / 4 + ||L_y - m_a||_F^2``.
    It is tight when the iterates and the data commute, and when ``x_a``,
    ``y`` and a lone data point lie on one geodesic.  ``scale = f(x_a) +
    d(x_a, y)^2`` bounds the size of the terms whose difference ``lb`` takes,
    and so its rounding.  One decomposition of the whitened ``y``.  With
    anchors stacked by :func:`_stack` and ``y`` a stack of as many points,
    ``lb`` and ``scale`` are arrays of the lone values.
    """
    value, roots, mean_log, sigma2 = anchor
    l_y = manifold._whitened_log(roots, y)
    gap = l_y - mean_log
    lb = sigma2 / 4.0 + np.einsum("...ij,...ij->...", gap, gap)
    return lb, value + np.einsum("...ij,...ij->...", l_y, l_y)


def _stack(values: list):
    """The values stacked on a new leading axis, tuples item by item, so
    that a stack of root pairs or anchors is a root pair or anchor of stacks
    (``np.array``: ``np.stack``'s result at a quarter of its overhead).  One
    value stacks like several: a stacked kernel gives each its lone floats."""
    if isinstance(values[0], tuple):
        return tuple(_stack(items) for items in zip(*values))
    return np.array(values)


def _unstack(value) -> list:
    """The values that :func:`_stack` stacked into ``value``."""
    return list(zip(*value)) if isinstance(value, tuple) else list(value)


def _each(kernel, items: list) -> list:
    """``kernel(items)``, one result per item.  If the stacked call fails,
    each item is retried alone, so that every failure is the one its lone
    call meets, and it stands in that item's result."""
    if not items:
        return []
    try:
        return kernel(items)
    except _STEP_FAILURES as exc:
        if len(items) == 1:
            return [exc]
        return [_each(kernel, [item])[0] for item in items]


def _failure(what: str, k: int, x: np.ndarray, exc: Exception) -> RunError:
    err = RunError(f"{what} failed at step {k}: {exc}", k, x)
    err.__cause__ = exc
    return err


@dataclass(eq=False)
class _Branch:
    """Trajectories that have taken the same steps so far, and their one state.

    Members share the dataset, ``x0``, batch size, seed, thresholds and step
    budget, so they draw the same batches; they part where their step sizes
    differ.  ``anchor`` is the :func:`_anchor` of the last evaluated iterate.
    """

    members: list[int]
    config: RunConfig
    x: np.ndarray
    eps_left: list[float]
    hits: dict[float, int | None]
    anchor: tuple | None = None


def _descend(configs: list[RunConfig], observe=None, jobs: int = 1) -> list:
    """The RSGD loop, advancing every run of ``configs`` in lockstep.

    Returns one outcome per config: ``(steps_to_epsilon, final f, final
    point, steps, seconds)``, the seconds counted from this call's start until
    the run stopped, or the :class:`RunError` that stopped it.  The configs
    must share one dataset.  Each run's floats are those it has alone.

    With ``observe``, every iterate is evaluated and its summary passed to
    ``observe``.  Without, a run with thresholds evaluates only its last
    iterate and those where a threshold could be crossed: the last evaluated
    iterate is an anchor, and a later iterate ``y`` whose
    :func:`_loss_lower_bound` from it reaches ``e (1 + 1e-9)`` (plus
    ``1e-9`` of the bound's scale) for the largest remaining ``e`` takes its
    batch gradient from its ``b`` rows alone.  That gradient is bit-identical
    to a full evaluation's, so a sweep cell's ``K`` and final ``f`` equal
    :func:`run`'s.  An iterate skipped this way decomposes only its batch's
    rows, so a geometry failure in another row goes unseen.

    Runs that differ only in their schedule share one state (a branch) while
    their step sizes are equal floats, and consecutive branches at equal
    points, such as all branches at a shared ``x0``, are evaluated once.
    Each step makes one stacked ``eigh`` per kernel over a thread's branches:
    the bounds, the root pairs and the batch rows (at most ``N`` rows a call)
    of the skipped iterates, and the exponential maps.  Full evaluations stay
    per branch.  A stacked kernel that fails is retried branch by branch, so
    that a failure stops only its own runs, with the message and step a lone
    run reports.  An evaluated branch keeps only its :func:`_anchor`: the
    summary goes once the batch gradient is taken from it.

    ``jobs > 1`` deals the branches round-robin to ``min(jobs, branches)``
    threads, each advancing its share in lockstep and evaluating a shared
    ``x0`` itself; ``jobs = 1`` starts no thread.
    """
    data = configs[0].data
    if any(c.data is not data for c in configs):
        raise ValueError("runs advanced in lockstep must share one dataset")
    t_start = time.perf_counter()
    outcomes: list = [None] * len(configs)
    shared: dict[tuple, list[int]] = {}
    for i, c in enumerate(configs):
        key = (c.x0.tobytes(), c.batch_size, c.seed, c.epsilons, c.max_steps)
        shared.setdefault(key, []).append(i)
    branches = [
        _Branch(members, configs[members[0]], configs[members[0]].x0,
                list(configs[members[0]].epsilons), dict.fromkeys(configs[members[0]].epsilons))
        for members in shared.values()
    ]

    def stop(branch: _Branch, outcome) -> None:
        for i in branch.members:
            outcomes[i] = outcome

    def bounds(brs: list[_Branch]) -> list:
        lb, scale = _loss_lower_bound(_stack([br.anchor for br in brs]),
                                      _stack([br.x for br in brs]))
        return list(zip(lb, scale))

    def batch_gradients(brs: list[tuple[_Branch, np.ndarray]]) -> list:
        roots = _unstack(manifold.sqrt_and_inv_sqrt(_stack([br.x for br, _ in brs])))
        batches = [batch for _, batch in brs]
        return list(zip(objective._batch_gradients(roots, data.points, batches, data.n), roots))

    def exp_maps(moves: list) -> list:
        roots, tangents = _stack([m[2] for m in moves]), _stack([m[3] for m in moves])
        return _unstack(manifold._exp_map(roots, tangents))

    def advance(branches: list[_Branch]) -> None:
        k = 0
        while branches:
            # Which iterates skip their evaluation.
            bounded = [br for br in branches if observe is None and k < br.config.max_steps
                       and br.eps_left and br.anchor is not None]
            skip = set()
            for br, bound in zip(bounded, _each(bounds, bounded)):
                if isinstance(bound, Exception):  # left for the full evaluation to report
                    continue
                lb, scale = bound
                if lb >= br.eps_left[0] * (1.0 + _BOUND_MARGIN) + _BOUND_MARGIN * scale:
                    skip.add(id(br))

            # Evaluate the others; a run stops at its last iterate or its last hit,
            # and otherwise takes its batch gradient from the summary.
            def batch(br: _Branch) -> np.ndarray:
                return objective.sample_batch(step_rng(br.config.seed, k), data.n,
                                              br.config.batch_size)

            last = (None, None)  # the point evaluated last, and its summary
            grads, skipped = [], []
            for br in branches:
                if id(br) in skip:
                    skipped.append(br)
                    continue
                point = br.x.tobytes()
                try:
                    if point != last[0]:
                        last = (point, objective.objective_summary(br.x, data))
                    summary = last[1]
                    if observe is not None:
                        observe(summary)
                except _STEP_FAILURES as exc:
                    stop(br, _failure("objective evaluation", k, br.x, exc))
                    continue
                for e in list(br.eps_left):
                    if summary.value < e:
                        br.hits[e] = k
                        br.eps_left.remove(e)
                if (br.config.epsilons and not br.eps_left) or k >= br.config.max_steps:
                    stop(br, (br.hits, summary.value, br.x, k, time.perf_counter() - t_start))
                    continue
                br.anchor = _anchor(summary)
                g = objective.batch_gradient_from_summary(summary, batch(br))
                grads.append((br, (g, summary.roots)))
            grads += zip(skipped, _each(batch_gradients, [(br, batch(br)) for br in skipped]))

            # One exponential map per branch and distinct step size.
            moves = []
            for br, grad in grads:
                if isinstance(grad, Exception):
                    stop(br, _failure("update", k, br.x, grad))
                    continue
                g, roots = grad
                by_alpha: dict[float, list[int]] = {}
                for i in br.members:
                    by_alpha.setdefault(step_size(configs[i].schedule, k), []).append(i)
                moves += [(br, members, roots, -a_k * g) for a_k, members in by_alpha.items()]
            branches = []
            for (br, members, _, _), x_next in zip(moves, _each(exp_maps, moves)):
                if not isinstance(x_next, Exception) and not np.all(np.isfinite(x_next)):
                    x_next = FloatingPointError("iterate has non-finite entries")
                child = _Branch(members, configs[members[0]], br.x, list(br.eps_left),
                                dict(br.hits), br.anchor)
                if isinstance(x_next, Exception):
                    stop(child, _failure("update", k, br.x, x_next))
                else:
                    child.x = x_next
                    branches.append(child)
            k += 1

    workers = min(jobs, len(branches))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(advance, [branches[w::workers] for w in range(workers)]))
    else:
        advance(branches)
    return outcomes


def run(config: RunConfig) -> RunRecord:
    """Execute RSGD and record the full trace.

    Stops after ``max_steps`` steps, or as soon as the loss has dropped below
    every threshold in ``epsilons``.  ``steps_to_epsilon[eps]`` is the first
    iterate index with ``f(x_k) < eps`` (None if never reached).  The loss,
    the gradient norm and, with a reference point, the stationarity gap and
    the distance to the reference are evaluated at every iterate.  A failed
    evaluation or update, or a non-finite iterate, raises :class:`RunError`
    carrying the last finite iterate.  A sweep runs the same loop,
    :func:`_descend`, for the hits alone.
    """
    rows: list[tuple[float, float, float, float, float]] = []

    def observe(summary: objective.ObjectiveSummary) -> None:
        gap = d_ref = np.nan
        if config.reference is not None:
            gap, d_ref = _reference_metrics(summary.roots, summary.gradient, config.reference)
        rows.append((summary.value, summary.grad_norm, gap, d_ref, summary.sigma2))

    (outcome,) = _descend([config], observe)
    if isinstance(outcome, RunError):
        raise outcome
    hits, _, x, steps, _ = outcome
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
    )


def _newton_direction(summary: objective.ObjectiveSummary) -> np.ndarray:
    """The whitened Newton direction at the summary's point, by conjugate gradients.

    Solves ``H eta = m`` for the mean whitened log ``m``, minus half the
    whitened gradient, with ``H`` half the whitened Hessian
    (:func:`objective._whitened_hessian`), starting from ``eta = 0``.  CG
    stops at a relative residual of ``min(1/2, ||m||)``, which keeps
    Newton's quadratic convergence, or after ``d (d + 1) / 2`` iterations,
    the dimension of the symmetric matrices, where it is exact.
    """
    m = symmat.symmetrize(summary._mean_log)  # H, symmetrized, maps a skew part to 0
    hess = objective._whitened_hessian(summary)
    eta, r, p = np.zeros_like(m), m, m
    rr = float(np.vdot(r, r))
    stop = min(0.25, rr) * rr
    for _ in range(len(m) * (len(m) + 1) // 2):
        if rr <= stop:
            break
        hp = hess(p)
        a = rr / float(np.vdot(p, hp))
        eta, r = eta + a * p, r - a * hp
        rr, rr_old = float(np.vdot(r, r)), rr
        p = r + (rr / rr_old) * p
    return eta


def reference_centroid(data: Dataset, tol: float) -> np.ndarray:
    """High-accuracy Riemannian centroid by Newton steps with a guaranteed-descent rule.

    Starts from the arithmetic mean (always SPD).  At each iterate ``x`` it
    takes the whitened Newton direction ``eta`` (:func:`_newton_direction`)
    and tries ``exp_x(2 alpha x^1/2 eta x^1/2)``, starting with
    ``alpha = 1/2``, the full Newton step.  The step is accepted when the
    loss or the gradient norm falls; otherwise ``alpha`` is halved, for this
    and every later step.  The Hessian is at least twice the metric, so
    ``eta`` is a descent direction no longer than the fixed-point step
    ``m``, the mean whitened log, and equals it where the data commute,
    where one step lands on the centroid.  Stops once the gradient norm
    drops below ``tol``.  Raises :class:`ConvergenceError`, carrying the last
    gradient norm, when ``alpha`` falls below ``1e-18`` or after
    ``_ORACLE_MAX_ITERS`` steps.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    x = np.mean(data.points, axis=0)
    summary = objective.objective_summary(x, data)
    alpha = 0.5
    for _ in range(_ORACLE_MAX_ITERS):
        if summary.grad_norm < tol:
            return x
        (e,) = symmat.spectral(2.0 * alpha * _newton_direction(summary), np.exp)
        cand = manifold._unwhiten(summary.roots, e)
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

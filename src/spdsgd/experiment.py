"""Batch-size sweep harness and steps-to-threshold models.

A sweep runs the optimizer over a grid of (schedule, batch size, seed) and
records, for each loss threshold, the number of steps ``K`` until the loss
first drops below it, together with the oracle complexity ``K * b``.  The
measured ``K(b)`` curves are then fit against closed-form models:

    constant step:   K = C2 b / (eps b - (sigma2 + G^2 b) alpha C1)
    1/sqrt(k+1):     K = ((2 C1 sigma2 + (2 C1 G^2 + C2) b) / (eps b))^2
    staircase:       constant-step K multiplied by 1 / (alpha gamma^n)

For each fitted model, ``K(b) * b`` is convex in ``b`` and its interior
minimizer is the critical batch size.  The boxed minimizer formulas that
circulate for these models disagree with differentiating them; this module
uses the derivative-consistent forms

    constant/staircase:  b* = 2 C1 sigma2 alpha / (eps - G^2 alpha C1)
    1/sqrt(k+1):         b* = 2 C1 sigma2 / (2 C1 G^2 + C2)

Because the curve is convex on a range inside the model's domain, the
critical batch on that range is the closed form clamped to it, and it is
reported as lying on the boundary when the clamp lands on an end.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .objective import Dataset
from .rsgd import RunConfig, RunError, StepSchedule, _SEED_LIMIT, _descend
from .rsgd import run  # noqa: F401  (bench/test_bench_harness.py traces this binding)


class FitDomainError(ValueError):
    """An observed batch size violates the fitted model's domain."""


class FitError(RuntimeError):
    """The two-parameter model fit failed to converge."""


# ---------------------------------------------------------------------------
# Sweep over (schedule, batch size, seed)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    data: Dataset
    x0: np.ndarray
    schedules: tuple[StepSchedule, ...]
    epsilons: tuple[float, ...]
    batch_sizes: tuple[int, ...]
    seeds: tuple[int, ...]
    max_steps: int
    n_jobs: int = 1

    def __post_init__(self):
        object.__setattr__(self, "schedules", tuple(self.schedules))
        object.__setattr__(self, "epsilons", tuple(dict.fromkeys(float(e) for e in self.epsilons)))
        object.__setattr__(self, "batch_sizes", tuple(int(b) for b in self.batch_sizes))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not self.schedules:
            raise ValueError("at least one schedule required")
        labels = [s.label for s in self.schedules]
        if len(set(labels)) != len(labels):
            raise ValueError(f"schedules must be distinct, got labels {labels}")
        if not self.epsilons or not all(0 < e < np.inf for e in self.epsilons):
            raise ValueError("epsilons must be finite and positive")
        b = self.batch_sizes
        if not b or any(x < 1 for x in b) or any(p >= q for p, q in zip(b, b[1:])):
            raise ValueError("batch_sizes must be ascending, distinct, positive")
        if len(self.seeds) < 2:
            raise ValueError("at least two seeds required for statistical aggregates")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if any(s < 0 for s in self.seeds):
            raise ValueError("seeds must be nonnegative")
        if any(s >= _SEED_LIMIT for s in self.seeds):
            raise ValueError("seeds must be below 2^64 (a Philox key)")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be positive")


@dataclass(frozen=True)
class CellResult:
    """Outcome of one (schedule, epsilon, batch, seed) cell.

    ``steps`` is None when the threshold was not reached within the step
    budget (censored) or when the run errored; errored cells carry the
    message so nothing is silently dropped.
    """

    steps: int | None
    sfo: int | None
    final_f: float
    wall_ms: float
    error: str | None = None

    @property
    def censored(self) -> bool:
        return self.steps is None and self.error is None


CellKey = tuple[str, float, int, int]  # (schedule label, epsilon, batch, seed)


@dataclass(frozen=True)
class SweepRecord:
    """A sweep's cells in grid order: ``product(schedules, epsilons, batch_sizes, seeds)``."""

    config: SweepConfig
    cells: dict[CellKey, CellResult] = field(repr=False)

    def aggregate(self, schedule_label: str, eps: float) -> list[tuple[int, float, float, int]]:
        """Per batch size: (b, mean K, median K, number censored-or-errored).

        Only uncensored cells enter the mean/median; a batch size with no
        uncensored cell reports NaN aggregates.
        """
        out = []
        for b in self.config.batch_sizes:
            steps = [self.cells[(schedule_label, eps, b, seed)].steps for seed in self.config.seeds]
            ks = [k for k in steps if k is not None]
            mean, median = (float(np.mean(ks)), float(np.median(ks))) if ks else (np.nan, np.nan)
            out.append((b, mean, median, len(steps) - len(ks)))
        return out


def sweep(config: SweepConfig) -> SweepRecord:
    """Run one optimizer trajectory per (schedule, batch, seed) grid point.

    Thresholds share a trajectory: the step count for each epsilon is read
    off the same run, which is exactly what separate runs would measure
    since batch draws are keyed by (seed, step) and do not depend on the
    threshold list.  The runs advance in lockstep through one call of
    :func:`spdsgd.rsgd._descend`, without an observer: the loss is
    evaluated only at the last iterate and where a lower bound on ``f``,
    taken in the tangent space of the last evaluated iterate, leaves a
    threshold within reach, and each cell's ``K`` and ``final_f`` equal
    :func:`spdsgd.rsgd.run`'s bit for bit.  Runs of one (batch, seed) share
    their steps until their step sizes differ, ``x0`` is evaluated once per
    thread, and every step decomposes all runs' small matrices in a few
    stacked calls.  A run that fails errors its own cells only.  ``wall_ms``
    is the time from the start of the ``_descend`` call until the run
    stopped.  ``n_jobs`` is ``_descend``'s ``jobs``, so the runs of one
    (batch, seed) share a thread.  Cells are filled in grid order, and each
    cell's ``K`` and ``final_f`` are the same at any ``n_jobs``.
    """
    c = config
    runs = {(s.label, b, seed): RunConfig(c.data, c.x0, s, b, seed, c.max_steps, c.epsilons)
            for s, b, seed in product(c.schedules, c.batch_sizes, c.seeds)}
    outcomes = dict(zip(runs, _descend(list(runs.values()), jobs=c.n_jobs)))

    cells: dict[CellKey, CellResult] = {}
    for s, e, b, seed in product(c.schedules, c.epsilons, c.batch_sizes, c.seeds):
        key = (s.label, e, b, seed)
        outcome = outcomes[(s.label, b, seed)]
        if isinstance(outcome, RunError):
            cells[key] = CellResult(None, None, np.nan, 0.0, error=str(outcome))
            continue
        hits, final_f, _, _, wall_s = outcome
        k = hits[e]
        cells[key] = CellResult(
            steps=k, sfo=None if k is None else k * b, final_f=final_f, wall_ms=wall_s * 1e3
        )
    return SweepRecord(config=config, cells=cells)


# ---------------------------------------------------------------------------
# Monotonicity / convexity diagnostics
# ---------------------------------------------------------------------------


def log_grid_second_differences(batches, values) -> np.ndarray:
    """Discrete second differences of ``values`` on the log-batch grid.

    Scaled so that on a uniform power-of-two grid this reduces to the plain
    second difference ``v[i+1] - 2 v[i] + v[i-1]``.
    """
    x = np.log2(np.asarray(batches, dtype=np.float64))
    v = np.asarray(values, dtype=np.float64)
    if v.size < 3:
        return np.empty(0)
    h = np.diff(x)
    left = (v[1:-1] - v[:-2]) / h[:-1]
    right = (v[2:] - v[1:-1]) / h[1:]
    dd = 2.0 * (right - left) / (h[1:] + h[:-1])
    return dd * float(np.mean(h)) ** 2


@dataclass(frozen=True)
class ConvexityReport:
    spearman_steps: float
    min_second_diff_steps: float
    min_second_diff_sfo: float
    steps_nonincreasing: bool
    monotone_pass: bool
    steps_convex_pass: bool
    sfo_convex_pass: bool

    @property
    def passed(self) -> bool:
        return self.monotone_pass and self.steps_convex_pass and self.sfo_convex_pass


def _average_ranks(x):
    """Ranks 1..n of ``x``, ties sharing the mean of the ranks they span."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - 0.5 * (counts - 1))[inverse]


def check_monotone_convex(
    points, *, spearman_max: float = -0.9, convexity_frac: float = 0.05
) -> ConvexityReport:
    """Check that measured K(b) decreases and that K and K*b are convex.

    ``points`` is a list of (batch, mean K) in ascending batch order.  The
    monotone check passes when the series is nonincreasing or its Spearman
    rank correlation with b is at most ``spearman_max``; each convexity
    check passes when the minimum second difference on the log-batch grid is
    at least ``-convexity_frac`` times the median of the series.
    """
    points = list(points)
    if len(points) < 3:
        raise ValueError("need at least 3 (batch, K) points")
    b = np.asarray([p[0] for p in points], dtype=np.float64)
    k = np.asarray([p[1] for p in points], dtype=np.float64)
    if np.any(np.diff(b) <= 0):
        raise ValueError("batch sizes must be ascending")
    sfo = k * b

    nonincreasing = bool(np.all(np.diff(k) <= 1e-12 * np.maximum(1.0, np.abs(k[:-1]))))
    if np.all(k == k[0]) or np.isnan([b, k]).any():
        rho_k = np.nan
    else:
        rho_k = float(np.corrcoef(_average_ranks(b), _average_ranks(k))[1, 0])

    d2_k = log_grid_second_differences(b, k)
    d2_sfo = log_grid_second_differences(b, sfo)
    min_d2_k = float(d2_k.min())
    min_d2_sfo = float(d2_sfo.min())

    monotone_pass = nonincreasing or (not np.isnan(rho_k) and rho_k <= spearman_max)
    k_floor = -convexity_frac * float(np.median(np.abs(k)))
    sfo_floor = -convexity_frac * float(np.median(np.abs(sfo)))
    return ConvexityReport(
        spearman_steps=rho_k,
        min_second_diff_steps=min_d2_k,
        min_second_diff_sfo=min_d2_sfo,
        steps_nonincreasing=nonincreasing,
        monotone_pass=monotone_pass,
        steps_convex_pass=min_d2_k >= k_floor,
        sfo_convex_pass=min_d2_sfo >= sfo_floor,
    )


# ---------------------------------------------------------------------------
# K(b) models, fitting, critical batch size
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitInputs:
    """Problem constants entering the K(b) models."""

    sigma2: float
    grad_bound: float
    alpha: float
    eps: float
    gamma: float | None = None
    max_stage: int | None = None

    def __post_init__(self):
        if not 0 <= self.sigma2 < np.inf:
            raise ValueError("sigma2 must be finite and nonnegative")
        # The models square G; a float product overflows to inf where ** raises.
        if not (0 <= self.grad_bound and self.grad_bound * self.grad_bound < np.inf):
            raise ValueError("grad_bound must be finite and nonnegative, with a finite square")
        for name in ("alpha", "eps"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive")


_CONVERGED = "Optimization terminated successfully."


@dataclass(frozen=True)
class FitResult:
    kind: str
    c1: float
    c2: float
    inputs: FitInputs
    residual_norm: float
    critical_numeric: float | None = None
    critical_closed_form: float | None = None
    critical_at_boundary: bool = False
    message: str = _CONVERGED  # why the simplex search stopped


def _scale(kind: str, inputs: FitInputs) -> float | None:
    """Divisor of the constant-step curve for ``kind``; None for ``inverse_sqrt``."""
    if kind == "constant":
        return 1.0
    if kind == "staircase":
        if inputs.gamma is None or inputs.max_stage is None:
            raise ValueError("staircase model needs gamma and max_stage")
        return inputs.alpha * inputs.gamma**inputs.max_stage
    if kind == "inverse_sqrt":
        return None
    raise ValueError(f"unknown model kind {kind!r}")


def _denominator(b, c1: float, inputs: FitInputs):
    # Constant-step curve K = C2 b / denominator; the domain is denominator > 0.
    return inputs.eps * b - (inputs.sigma2 + inputs.grad_bound**2 * b) * inputs.alpha * c1


def _margin(c1: float, inputs: FitInputs) -> float:
    # eps - G^2 alpha C1: the constant-step curve's large-b limit of denominator / b.
    return inputs.eps - inputs.grad_bound**2 * inputs.alpha * c1


def model_steps(kind: str, b, c1: float, c2: float, inputs: FitInputs):
    """Predicted steps-to-threshold at batch size(s) ``b`` for a fitted model."""
    b = np.asarray(b, dtype=np.float64)
    scale = _scale(kind, inputs)
    if scale is None:
        num = 2.0 * c1 * inputs.sigma2 + (2.0 * c1 * inputs.grad_bound**2 + c2) * b
        k = (num / (inputs.eps * b)) ** 2
    else:
        denom = _denominator(b, c1, inputs)
        with np.errstate(divide="ignore", invalid="ignore"):
            k = np.where(denom > 0, c2 * b / denom, np.nan) / scale
    return k if k.ndim else float(k)


def batch_lower_bound(kind: str, c1: float, inputs: FitInputs) -> float | None:
    """Smallest admissible batch size for the fitted model (None if unrestricted)."""
    if _scale(kind, inputs) is None:
        return None
    margin = _margin(c1, inputs)
    if margin <= 0:
        return np.inf
    return inputs.sigma2 * inputs.alpha * c1 / margin


def _init_constant(bs, ks, inputs: FitInputs, scale: float) -> tuple[float, float]:
    # 1/(K*scale) is affine in 1/b; invert the regression for (c1, c2).
    y = 1.0 / (ks * scale)
    design = np.column_stack([np.ones_like(bs), -1.0 / bs])
    (p, q), *_ = np.linalg.lstsq(design, y, rcond=None)
    # Largest c1 keeping the denominator positive at the smallest batch.
    b_min = bs.min()
    cap = inputs.eps * b_min / (inputs.alpha * (inputs.sigma2 + inputs.grad_bound**2 * b_min))
    if p > 0 and q > 0 and inputs.sigma2 > 0:
        c1 = q * inputs.eps / (inputs.alpha * (p * inputs.sigma2 + q * inputs.grad_bound**2))
        c2 = _margin(c1, inputs) * (1.0 / p)
        if 0 < c1 < cap and c2 > 0:
            return c1, c2
    # Fallback: park c1 mid-domain and solve c2 in closed form (exact log-LS).
    c1 = 0.5 * cap
    c2 = float(np.exp(np.mean(np.log(ks * scale) - np.log(bs / _denominator(bs, c1, inputs)))))
    return c1, c2


def _init_inverse_sqrt(bs, ks, inputs: FitInputs) -> tuple[float, float]:
    # sqrt(K) is affine in 1/b.
    y = np.sqrt(ks)
    design = np.column_stack([np.ones_like(bs), 1.0 / bs])
    (intercept, slope), *_ = np.linalg.lstsq(design, y, rcond=None)
    if inputs.sigma2 > 0 and slope > 0:
        c1 = slope * inputs.eps / (2.0 * inputs.sigma2)
        c2 = intercept * inputs.eps - 2.0 * c1 * inputs.grad_bound**2
        if c1 > 0 and c2 > 0:
            return c1, c2
    c1 = 1.0
    c2 = max(float(intercept) * inputs.eps - 2.0 * c1 * inputs.grad_bound**2, 1e-12)
    return c1, c2


class _OutOfEvaluations(Exception):
    """The simplex search asked for an evaluation beyond its budget."""


def _nelder_mead(func, x0, *, xatol: float, fatol: float, maxiter: int, maxfev: int):
    """Minimize ``func`` from ``x0`` by SciPy 1.17's Nelder-Mead, op for op.

    This is SciPy's ``minimize(method="Nelder-Mead")`` without bounds or
    adaptive coefficients: the same first simplex, steps, sorts and stopping
    tests, so it returns the same best vertex and value to the bit.  Returns
    ``(x, fun, message)``, with SciPy's message for why the search stopped.
    """
    n = len(x0)
    sim = np.tile(np.asarray(x0, dtype=np.float64), (n + 1, 1))
    for j in range(n):
        sim[j + 1, j] = 1.05 * sim[0, j] if sim[0, j] != 0 else 0.00025
    calls = 0

    def f(x) -> float:
        # An evaluation past the budget is refused, ending the current step.
        nonlocal calls
        if calls >= maxfev:
            raise _OutOfEvaluations
        calls += 1
        return func(x)

    fsim = np.full(n + 1, np.inf)
    try:
        for j in range(n + 1):
            fsim[j] = f(sim[j])
    except _OutOfEvaluations:
        pass
    # SciPy sorts the first simplex twice; numpy's argsort is not guaranteed stable.
    order = np.argsort(fsim)
    sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)
    iterations = 1
    while True:
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)
        if calls >= maxfev or iterations >= maxiter:
            break
        # inf - inf is NaN, which fails the test, when every vertex is infeasible.
        with np.errstate(invalid="ignore"):
            if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
        try:
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                else:
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = f(xc)
                    shrink = not fxc < fsim[-1]
                if shrink:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
                else:
                    sim[-1], fsim[-1] = xc, fxc
            iterations += 1
        except _OutOfEvaluations:
            pass
    if calls >= maxfev:
        message = "Maximum number of function evaluations has been exceeded."
    elif iterations >= maxiter:
        message = "Maximum number of iterations has been exceeded."
    else:
        message = _CONVERGED
    return sim[0], np.min(fsim), message


def fit_model(kind: str, points, inputs: FitInputs) -> FitResult:
    """Least-squares fit of (C1, C2) to measured (batch, K) pairs.

    The objective is the sum of squared log-residuals, so batch sizes whose
    step counts span orders of magnitude contribute evenly.  The fit starts
    from an exact linearization (the models are affine in transformed
    coordinates), then polishes with a Nelder-Mead simplex search over
    (log C1, log C2) that scores inf any (C1, C2) violating the model's
    domain at an observed batch size.  The result keeps the search's stop
    message, which names its iteration or evaluation cap if it reached one.
    """
    pts = sorted((float(b), float(k)) for b, k in points)
    if len(pts) < 2:
        raise ValueError("need at least 2 (batch, K) points to fit")
    bs = np.asarray([p[0] for p in pts])
    ks = np.asarray([p[1] for p in pts])
    if np.any(ks <= 0) or np.any(bs <= 0):
        raise ValueError("batch sizes and step counts must be positive")
    scale = _scale(kind, inputs)
    log_ks = np.log(ks)

    def obj(u) -> float:
        # Sum of squared log-residuals at (C1, C2) = exp(u).
        pred = model_steps(kind, bs, np.exp(u[0]), np.exp(u[1]), inputs)
        if np.any(~np.isfinite(pred)) or np.any(pred <= 0):
            return np.inf
        r = np.log(pred) - log_ks
        return float(r @ r)

    if scale is None:
        c1_0, c2_0 = _init_inverse_sqrt(bs, ks, inputs)
    else:
        c1_0, c2_0 = _init_constant(bs, ks, inputs, scale)
    # The start is a vertex of the first simplex, and the search returns its best vertex.
    u, fun, message = _nelder_mead(
        obj, np.log([c1_0, c2_0]), xatol=1e-14, fatol=1e-16, maxiter=4000, maxfev=8000
    )
    if not np.isfinite(fun):
        raise FitError(f"two-parameter search did not converge: {message}")
    c1, c2 = float(np.exp(u[0])), float(np.exp(u[1]))

    bound = batch_lower_bound(kind, c1, inputs)
    if bound is not None and bs.min() <= bound:
        raise FitDomainError(
            f"observed batch {bs.min():g} at or below the fitted model's "
            f"domain bound {bound:g}"
        )
    return FitResult(
        kind=kind, c1=c1, c2=c2, inputs=inputs, residual_norm=float(np.sqrt(fun)), message=message
    )


def closed_form_critical_batch(fit: FitResult) -> float | None:
    """Stationary point of the fitted ``K(b) * b``, from its derivative.

    None when the curve has no interior stationary point (e.g. zero gradient
    noise, where complexity grows monotonically in the batch size).
    """
    inp = fit.inputs
    if inp.sigma2 == 0:
        return None
    if _scale(fit.kind, inp) is None:
        return 2.0 * fit.c1 * inp.sigma2 / (2.0 * fit.c1 * inp.grad_bound**2 + fit.c2)
    margin = _margin(fit.c1, inp)
    if margin <= 0:
        return None
    return 2.0 * fit.c1 * inp.sigma2 * inp.alpha / margin


def critical_batch(fit: FitResult, b_range: tuple[float, float]) -> FitResult:
    """Locate the batch size minimizing fitted ``K(b) * b`` on ``b_range``.

    ``K(b) * b`` is convex on a range inside the model's domain, so its
    minimizer there is the closed-form stationary point clamped to the
    range, or ``lo`` when there is none (the curve then rises with ``b``).
    Returns a copy of ``fit`` carrying that minimizer, the closed form, and
    a flag set when the minimizer is an end of the range (no interior
    critical batch on this range).
    """
    lo, hi = float(b_range[0]), float(b_range[1])
    if not (0 < lo < hi):
        raise ValueError("b_range must satisfy 0 < lo < hi")
    bound = batch_lower_bound(fit.kind, fit.c1, fit.inputs)
    if bound is not None and lo <= bound:
        raise FitDomainError(
            f"range start {lo:g} is not above the model's domain bound {bound:g}"
        )
    closed = closed_form_critical_batch(fit)
    b_star = lo if closed is None else min(max(closed, lo), hi)
    return dataclasses.replace(
        fit,
        critical_numeric=b_star,
        critical_closed_form=closed,
        critical_at_boundary=b_star in (lo, hi),
    )

"""Command-line front end: datasets, runs, sweeps, and model fits.

Subcommands::

    spdsgd gen          synthesize an SPD matrix set
    spdsgd descriptors  covariance descriptors from a P5 image
    spdsgd run          one optimizer run -> per-step CSV
    spdsgd sweep        batch-size grid -> one CSV row per cell
    spdsgd fit          fit a K(b) model to a sweep CSV, locate b*

Exit codes: 0 success, 1 runtime or data error (an unwritable ``--out``,
found before any input is read), 2 usage error.  All randomness flows from
``--seed``; numbers are printed with 17 significant digits and a ``.``
decimal separator regardless of locale.

Each flag's default lives in its ``add_argument``, and each list flag is
parsed by its argparse ``type``, so bad flag text is a usage error.  For
``gen``, ``run`` and ``sweep``, a JSON object in ``--config`` sets the
defaults of any flag but ``--config`` and ``--out``, keyed by the flag's
name or dest and parsed by the flag's own ``type``; explicit flags win.
``fit`` reads the schedule's parameters from its label in the sweep CSV
(:meth:`StepSchedule.parse`).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys

import numpy as np
from numpy.random import Generator, Philox

from . import dataio, experiment, rsgd
from .dataio import DataError, FormatError
from .experiment import FitError, FitInputs
from .rsgd import ConvergenceError, RunError, StepSchedule
from .symmat import NumericalError, sym_eigen


_SWEEP_HEADER = ["schedule", "epsilon", "batch", "seed", "K", "censored", "sfo", "final_f", "wall_ms"]


def _write_csv(path: str, rows) -> None:
    """Write every CSV output, with standard quoting: a staircase label holds commas."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _check_out(path: str) -> None:
    """Fail before any work unless ``path`` names a file that can be written
    in an existing directory.  Nothing is created or truncated here."""
    if not path:
        raise OSError("cannot write an empty --out path")
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise OSError(f"cannot write {path}: it is a directory")
    if not os.path.isdir(parent):
        raise OSError(f"cannot write {path}: directory {parent} does not exist")
    if not os.access(parent, os.W_OK) or (os.path.exists(path) and not os.access(path, os.W_OK)):
        raise OSError(f"cannot write {path}: permission denied")


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _flag_type(parse):
    """``parse`` as an argparse ``type``: its ValueError becomes a usage error
    that keeps the message, where argparse would print only the function name."""

    @functools.wraps(parse)
    def flag_type(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return flag_type


@_flag_type
def float_list(text: str) -> list[float]:
    """Nonempty comma list of finite positive numbers: ``0.5,0.25``."""
    values = [float(t) for t in text.split(",") if t.strip()]
    if not values or not all(0 < v < math.inf for v in values):
        raise ValueError(f"expected a nonempty list of finite positive numbers, got {text!r}")
    return values


@_flag_type
def int_list(text: str) -> list[int]:
    """Comma list of integers: ``0,1,2``."""
    return [int(t) for t in text.split(",") if t.strip()]


@_flag_type
def parse_batches(text: str) -> list[int]:
    """Batch list grammar: ``16,32,64`` or a power range ``2^4..2^9``."""
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        if not (lo_s.startswith("2^") and hi_s.startswith("2^")):
            raise ValueError(f"range must look like 2^a..2^b, got {text!r}")
        lo, hi = int(lo_s[2:]), int(hi_s[2:])
        if not 0 <= lo <= hi <= 62:  # past 2^62 a range only builds huge integers
            raise ValueError(f"batch range needs 0 <= a <= b <= 62, got {text!r}")
        return [2**p for p in range(lo, hi + 1)]
    return int_list(text)


@_flag_type
def schedule_list(text: str) -> list[StepSchedule]:
    """One ``--schedule`` use of ``sweep``, as a list that later uses extend."""
    return [StepSchedule.parse(text)]


@_flag_type
def batch_range(text: str) -> tuple[float, float]:
    """``lo:hi`` with ``0 < lo < hi``, both finite."""
    try:
        lo, hi = (float(t) for t in text.split(":"))
    except ValueError:
        lo = hi = math.nan
    if not 0 < lo < hi < math.inf:
        raise ValueError(f"expected lo:hi with 0 < lo < hi < inf, got {text!r}")
    return lo, hi


@_flag_type
def _positive(text: str) -> float:
    """A finite number above 0: ``gen --spread``."""
    if not 0 < (value := float(text)) < math.inf:
        raise ValueError(f"expected a finite number above 0, got {text!r}")
    return value


@_flag_type
def _nonnegative(text: str) -> float:
    """A finite number of at least 0: ``descriptors --reg``."""
    if not 0 <= (value := float(text)) < math.inf:
        raise ValueError(f"expected a finite number of at least 0, got {text!r}")
    return value


@_flag_type
def center_spec(text: str) -> str | float:
    """``identity``, a matrix-set file, or ``scale:X`` with finite ``X > 0``,
    given as X; the file is read, and checked against ``--d``, by ``gen``."""
    return _positive(text[len("scale:"):]) if text.startswith("scale:") else text


class _Repeatable(argparse.Action):
    """A flag that may repeat, each use extending a list; the first use
    replaces the default, whether built in or set from ``--config``."""

    def __call__(self, parser, namespace, values, option_string=None):
        so_far = getattr(namespace, self.dest)
        setattr(namespace, self.dest, ([] if so_far is self.default else so_far) + values)


def _set_config_defaults(parser: argparse.ArgumentParser, path: str) -> None:
    """Make the JSON object in ``path`` the defaults of ``parser``'s flags.

    A key names a flag by option (``schedule``) or by dest (``schedules``);
    every flag but ``--config`` and ``--out`` may be set, and other keys are
    ignored.  Each value, or a list joined with ``,``, is parsed by the flag's
    own ``type``; each item of a repeatable flag is one use of it.  Input that
    is not a JSON object, or a value the flag rejects, is a usage error.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            conf = json.load(fh)
        except ValueError as exc:
            parser.error(f"config {path} is not valid JSON: {exc}")
    if not isinstance(conf, dict):
        parser.error(f"config {path} must hold a JSON object, got {type(conf).__name__}")
    defaults = {}
    for action in parser._actions:
        names = [action.dest, *(opt.lstrip("-") for opt in action.option_strings)]
        key = next((name for name in names if name in conf), None)
        if key is None or action.dest in ("help", "config", "out"):
            continue
        items = conf[key] if isinstance(conf[key], list) else [conf[key]]
        try:
            if isinstance(action, _Repeatable):
                value = [x for item in items for x in action.type(str(item))]
            else:
                text = ",".join(str(item) for item in items)
                value = action.type(text) if action.type else text
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"must be one of {', '.join(action.choices)}, got {value!r}")
        except (ValueError, argparse.ArgumentTypeError) as exc:
            parser.error(f"config {path}: {key!r}: {exc}")
        defaults[action.dest] = value
    parser.set_defaults(**defaults)


def _center_matrix(center: str | float, dim: int):
    if center == "identity":
        return np.eye(dim)
    if isinstance(center, float):
        return center * np.eye(dim)
    data = dataio.read_matrix_set(center)
    if data.n != 1:
        raise DataError(f"center file must hold exactly one matrix, found {data.n}")
    if data.dim != dim:
        raise DataError(f"center dimension {data.dim} does not match --d {dim}")
    return data.points[0]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args, parser) -> int:
    if args.n < 1 or args.d < 1:
        parser.error("--n and --d must be positive")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seed >= rsgd._SEED_LIMIT:
        parser.error("--seed must be below 2^64")

    center = _center_matrix(args.center, args.d)
    rng = Generator(Philox(key=np.uint64(args.seed)))
    data = dataio.generate_synthetic(rng, args.n, args.d, center, args.spread)
    dataio.write_matrix_set(args.out, data)
    eig = sym_eigen(data.points).eigenvalues
    print(
        f"wrote {data.n} SPD matrices of dimension {data.dim} to {args.out} "
        f"(eigenvalues in [{_fmt(eig.min())}, {_fmt(eig.max())}])"
    )
    return 0


def cmd_descriptors(args, parser) -> int:
    image = dataio.read_pgm(args.pgm)
    try:
        data = dataio.covariance_descriptors(image, args.grid, args.reg)
    except DataError:
        raise
    except ValueError as exc:  # a cell size or ridge the image cannot take
        parser.error(str(exc))
    dataio.write_matrix_set(args.out, data)
    spreads = data.points.max(axis=0) - data.points.min(axis=0)
    note = " (all descriptors identical)" if np.all(spreads == 0) else ""
    h, w = image.shape
    print(
        f"wrote {data.n} covariance descriptors ({data.dim}x{data.dim}) "
        f"from {w}x{h} image with {args.grid}x{args.grid} cells to {args.out}{note}"
    )
    return 0


def cmd_run(args, parser) -> int:
    if args.data is None:
        parser.error("--data is required")
    if args.batch < 1:
        parser.error("--batch must be positive")
    if args.steps < 0:
        parser.error("--steps must be nonnegative")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seed >= rsgd._SEED_LIMIT:
        parser.error("--seed must be below 2^64")

    data = dataio.read_matrix_set(args.data)
    period = math.ceil(data.n / args.batch) if args.T is None else args.T
    try:
        schedule = StepSchedule(args.schedule, args.alpha, args.gamma, period, args.n)
    except ValueError as exc:
        parser.error(str(exc))
    reference = rsgd.reference_centroid(data, tol=1e-9)
    config = rsgd.RunConfig(
        data=data,
        x0=np.eye(data.dim),
        schedule=schedule,
        batch_size=args.batch,
        seed=args.seed,
        max_steps=args.steps,
        epsilons=args.epsilons,
        reference=reference,
    )
    record = rsgd.run(config)

    rows = [["step", "f", "grad_norm", "alpha_k", "V_k", "dist_ref"]]
    for k in range(record.f.size):
        alpha_k = record.alpha[k] if k < record.alpha.size else np.nan
        rows.append([
            k, _fmt(record.f[k]), _fmt(record.grad_norm[k]), _fmt(alpha_k),
            _fmt(record.stationarity[k]), _fmt(record.ref_distance[k]),
        ])
    for e in config.epsilons:
        hit = record.steps_to_epsilon[e]
        rows.append(["K", _fmt(e), "censored" if hit is None else hit])
    _write_csv(args.out, rows)
    print(
        f"run: {schedule.label} b={args.batch} seed={args.seed} steps={record.steps} "
        f"final_f={_fmt(record.f[-1])} sigma2_x0={_fmt(record.sigma2_initial)} "
        f"grad_bound={_fmt(record.grad_norm_max)} max_ref_dist={_fmt(record.max_ref_distance)}"
    )
    return 0


def cmd_sweep(args, parser) -> int:
    if args.data is None:
        parser.error("--data is required")
    if args.steps < 1:
        parser.error("--steps must be positive")
    if args.jobs < 1:
        parser.error("--jobs must be positive")
    if any(seed >= rsgd._SEED_LIMIT for seed in args.seeds):
        parser.error("--seeds must be below 2^64")

    data = dataio.read_matrix_set(args.data)
    try:
        config = experiment.SweepConfig(
            data=data,
            x0=np.eye(data.dim),
            schedules=tuple(args.schedules),
            epsilons=tuple(args.epsilons),
            batch_sizes=tuple(args.batches),
            seeds=tuple(args.seeds),
            max_steps=args.steps,
            n_jobs=args.jobs,
        )
    except ValueError as exc:
        parser.error(str(exc))
    record = experiment.sweep(config)

    rows = [_SWEEP_HEADER]
    successes = 0
    for key, cell in record.cells.items():
        label, e, b, seed = key
        if cell.error is not None:
            rows.append([label, _fmt(e), b, seed, "error", "", "", "nan", "0"])
            print(f"cell {key}: error: {cell.error}", file=sys.stderr)
            continue
        successes += 1
        k_text = "" if cell.steps is None else str(cell.steps)
        sfo_text = "" if cell.sfo is None else str(cell.sfo)
        rows.append([
            label, _fmt(e), b, seed, k_text, "true" if cell.censored else "false",
            sfo_text, _fmt(cell.final_f), _fmt(cell.wall_ms),
        ])
        print(f"cell ({label}, eps={_fmt(e)}, b={b}, seed={seed}): "
              f"K={'censored' if cell.steps is None else cell.steps}")
    _write_csv(args.out, rows)
    return 0 if successes else 1


def _read_sweep_csv(path: str) -> tuple[dict[str, StepSchedule], list[tuple]]:
    """``(schedules by label, rows)`` of a sweep CSV, one ``(label, epsilon,
    batch, K)`` row per cell; ``K`` is None for a censored or errored cell.

    Anything but the header :func:`cmd_sweep` writes, rows of its width, a
    schedule label, a finite positive epsilon, a positive batch and a finite
    nonnegative or empty ``K`` is a :class:`FormatError` naming the line.
    """
    schedules: dict[str, StepSchedule] = {}
    rows = []
    try:
        with open(path, "r", encoding="ascii", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != _SWEEP_HEADER:
                raise FormatError(f"unexpected sweep CSV header {header}")
            for row in reader:
                if not row:
                    continue
                where = f"sweep CSV line {reader.line_num}"
                if len(row) != len(_SWEEP_HEADER):
                    raise FormatError(f"{where}: expected {len(_SWEEP_HEADER)} fields, "
                                      f"got {len(row)}")
                label, eps_text, batch_text, _, k_text, censored = row[:6]
                try:
                    if label not in schedules:
                        schedules[label] = StepSchedule.parse(label)
                    eps, batch = float(eps_text), int(batch_text)
                    k = None if k_text in ("", "error") or censored == "true" else float(k_text)
                except ValueError as exc:
                    raise FormatError(f"{where}: {exc}") from None
                if not (0.0 < eps < math.inf and batch > 0 and (k is None or 0.0 <= k < math.inf)):
                    raise FormatError(f"{where}: epsilon, batch or K out of range")
                rows.append((label, eps, batch, k))
    except UnicodeDecodeError as exc:
        raise FormatError(f"sweep CSV: non-ASCII byte {exc.object[exc.start]:#04x}") from None
    except csv.Error as exc:
        raise FormatError(f"sweep CSV: {exc}") from None
    return schedules, rows


def cmd_fit(args, parser) -> int:
    if not (0 <= args.sigma2 < math.inf and 0 <= args.G and args.G * args.G < math.inf
            and 0 < args.epsilon < math.inf):
        parser.error("--sigma2/--G must be finite and nonnegative (--G with a finite square), "
                     "--epsilon finite and positive")

    schedules, rows = _read_sweep_csv(args.sweep_csv)
    matches = [label for label, s in sorted(schedules.items())
               if args.schedule in (label, s.kind)]
    if not matches:
        parser.error(f"schedule {args.schedule!r} not present in CSV (found {sorted(schedules)})")
    if len(matches) > 1:
        parser.error(f"schedule {args.schedule!r} is ambiguous in CSV: {matches}")
    label = matches[0]
    schedule = schedules[label]

    selected = [
        (b, k)
        for row_label, e, b, k in rows
        if row_label == label and np.isclose(e, args.epsilon, rtol=1e-12, atol=0)
    ]
    if not selected:
        parser.error(f"no rows for schedule {label!r} at epsilon {args.epsilon}")

    per_batch: dict[int, list[float]] = {}
    for b, k in selected:
        if k is not None:
            per_batch.setdefault(b, []).append(k)
    if not per_batch:
        print("error: every selected row is censored or errored", file=sys.stderr)
        return 1
    points = [(b, float(np.mean(ks))) for b, ks in sorted(per_batch.items())]
    b_range = args.b_range or (float(points[0][0]), float(points[-1][0]))
    # The models' largest term is 2 G^2 b (constant-step: G^2 b, inverse_sqrt:
    # 2 C1 G^2 b); past overflow the search only meets inf and cannot converge.
    b_max = max(points[-1][0], b_range[1])
    if not 2.0 * args.G * args.G * b_max < math.inf:
        parser.error(f"--G {args.G:g} is too large: 2*G^2*b overflows at batch {b_max:g} "
                     f"(G must be below {math.sqrt(sys.float_info.max / (2.0 * b_max)):.3g})")

    inputs = FitInputs(
        sigma2=args.sigma2,
        grad_bound=args.G,
        alpha=schedule.alpha,
        eps=args.epsilon,
        gamma=schedule.gamma,
        max_stage=schedule.max_stage,
    )
    fit = experiment.fit_model(schedule.kind, points, inputs)
    fit = experiment.critical_batch(fit, b_range)
    bound = experiment.batch_lower_bound(schedule.kind, fit.c1, inputs)

    cf = fit.critical_closed_form
    report = [  # (printed line, --out column or None, text)
        ("schedule", "schedule", label),
        ("epsilon", "epsilon", _fmt(args.epsilon)),
        ("points", None, " ".join(f"({b},{_fmt(k)})" for b, k in points)),
        ("C1", "C1", _fmt(fit.c1)),
        ("C2", "C2", _fmt(fit.c2)),
        ("residual", "residual", _fmt(fit.residual_norm)),
        ("critical_batch_numeric", "critical_numeric", _fmt(fit.critical_numeric)),
        ("critical_batch_closed_form", "critical_closed_form", "none" if cf is None else _fmt(cf)),
        ("boundary", "boundary", "true" if fit.critical_at_boundary else "false"),
        ("batch_lower_bound", "batch_lower_bound", "none" if bound is None else _fmt(bound)),
    ]
    for line, _, text in report:
        print(f"{line}: {text}")
    if fit.message != experiment._CONVERGED:
        print(f"note: the (C1, C2) search stopped at its cap: {fit.message}", file=sys.stderr)
    if args.out:
        _write_csv(args.out, zip(*[(column, text) for _, column, text in report if column]))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdsgd",
        description="Mini-batch Riemannian SGD on the SPD manifold",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="synthesize an SPD matrix set")
    p.add_argument("--n", type=int, default=256, help="number of matrices (default %(default)s)")
    p.add_argument("--d", type=int, default=5, help="matrix dimension (default %(default)s)")
    p.add_argument("--spread", type=_positive, default=0.5,
                   help="tangent noise scale (default %(default)s)")
    p.add_argument("--center", type=center_spec, default="identity",
                   help="'identity', 'scale:X', or a matrix-set file with one matrix "
                        "(default %(default)s)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default %(default)s)")
    p.add_argument("--config", help="JSON file of flag defaults (explicit flags win)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen, parser=p)

    p = sub.add_parser("descriptors", help="covariance descriptors from a P5 image")
    p.add_argument("--pgm", required=True)
    p.add_argument("--grid", type=int, default=4,
                   help="cell side in pixels, at least 2 (default %(default)s)")
    p.add_argument("--reg", type=_nonnegative, default=None,
                   help="ridge added to each descriptor (default: scale-aware)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_descriptors, parser=p)

    p = sub.add_parser("run", help="single optimizer run -> per-step CSV")
    p.add_argument("--data", help="matrix-set file (required, as a flag or in --config)")
    p.add_argument("--schedule", default="constant", choices=rsgd._KINDS,
                   help="step-size rule (default %(default)s)")
    p.add_argument("--alpha", type=float, default=5e-4, help="base step (default %(default)s)")
    p.add_argument("--gamma", type=float, default=0.5,
                   help="staircase decay (default %(default)s)")
    p.add_argument("--T", type=int, default=None,
                   help="staircase stage length (default: one pass over the data)")
    p.add_argument("--n", type=int, default=10, help="staircase stage cap (default %(default)s)")
    p.add_argument("--batch", type=int, default=16, help="batch size (default %(default)s)")
    p.add_argument("--steps", type=int, default=10_000, help="step budget (default %(default)s)")
    p.add_argument("--epsilons", type=float_list, default="0.5,0.25",
                   help="comma list of loss thresholds (default %(default)s)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default %(default)s)")
    p.add_argument("--config", help="JSON file of flag defaults (explicit flags win)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run, parser=p)

    p = sub.add_parser("sweep", help="batch-size grid -> CSV of cells")
    p.add_argument("--data", help="matrix-set file (required, as a flag or in --config)")
    p.add_argument("--schedule", dest="schedules", action=_Repeatable, type=schedule_list,
                   default="constant:0.0005",
                   help="repeatable: constant:A | inverse_sqrt | staircase:A,G,T,N "
                        "(default %(default)s)")
    p.add_argument("--epsilons", type=float_list, default="0.5,0.25",
                   help="comma list (default %(default)s)")
    p.add_argument("--batches", type=parse_batches, default="2^4..2^9",
                   help="comma list or 2^a..2^b (default %(default)s)")
    p.add_argument("--seeds", type=int_list, default="0,1", help="comma list (default %(default)s)")
    p.add_argument("--steps", type=int, default=10_000, help="per-run budget (default %(default)s)")
    p.add_argument("--jobs", type=int, default=1, help="concurrent runs (default %(default)s)")
    p.add_argument("--config", help="JSON file of flag defaults (explicit flags win)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep, parser=p)

    p = sub.add_parser("fit", help="fit a K(b) model to a sweep CSV")
    p.add_argument("--sweep-csv", dest="sweep_csv", required=True)
    p.add_argument("--schedule", required=True,
                   help="schedule label from the CSV, or its kind if unambiguous; the fit "
                        "takes alpha, gamma and the stage cap from the label")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--sigma2", type=float, required=True,
                   help="single-sample gradient variance at the start point")
    p.add_argument("--G", type=float, required=True, help="gradient-norm bound along the runs")
    p.add_argument("--b-range", dest="b_range", type=batch_range,
                   help="lo:hi with 0 < lo < hi (default: the CSV's batch range)")
    p.add_argument("--out", help="optional CSV with the fit row")
    p.set_defaults(func=cmd_fit, parser=p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            _set_config_defaults(args.parser, args.config)
            args = parser.parse_args(argv)  # again: explicit flags win over the file
        if args.out is not None:
            _check_out(args.out)
        return args.func(args, args.parser)
    except (
        RunError, ConvergenceError, FitError, NumericalError, OSError, ValueError, MemoryError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

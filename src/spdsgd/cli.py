"""Command-line front end: datasets, runs, sweeps, and model fits.

Subcommands::

    spdsgd gen          synthesize an SPD matrix set
    spdsgd descriptors  covariance descriptors from a P5 image
    spdsgd run          one optimizer run -> per-step CSV
    spdsgd sweep        batch-size grid -> one CSV row per cell
    spdsgd fit          fit a K(b) model to a sweep CSV, locate b*

Exit codes: 0 success, 1 runtime or data error, 2 usage error.  All
randomness flows from ``--seed``; numbers are printed with 17 significant
digits and a ``.`` decimal separator regardless of locale.  A JSON config
file (``--config``) supplies defaults for flags not given explicitly;
explicit flags always win.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np
from numpy.random import Generator, Philox

from . import dataio, experiment, rsgd
from .dataio import DataError, FormatError
from .experiment import FitDomainError, FitError, FitInputs
from .rsgd import ConvergenceError, RunError, StepSchedule
from .symmat import sym_eigen


_SWEEP_HEADER = ["schedule", "epsilon", "batch", "seed", "K", "censored", "sfo", "final_f", "wall_ms"]


def _write_csv(path: str, rows) -> None:
    """Write every CSV output, with standard quoting: a staircase label holds commas."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _parse_floats(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip()]


def _parse_ints(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip()]


def parse_batches(text: str) -> list[int]:
    """Batch list grammar: ``16,32,64`` or a power range ``2^4..2^9``."""
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        if not (lo_s.startswith("2^") and hi_s.startswith("2^")):
            raise ValueError(f"range must look like 2^a..2^b, got {text!r}")
        lo, hi = int(lo_s[2:]), int(hi_s[2:])
        if lo > hi:
            raise ValueError(f"empty batch range {text!r}")
        return [2**p for p in range(lo, hi + 1)]
    return _parse_ints(text)


def parse_schedule_spec(text: str) -> StepSchedule:
    """Schedule grammar: ``constant:<alpha>``, ``inverse_sqrt``, or
    ``staircase:<alpha>,<gamma>,<T>,<n>``."""
    kind, _, rest = text.partition(":")
    if kind == "constant":
        return StepSchedule.constant(float(rest))
    if kind == "inverse_sqrt":
        if rest:
            raise ValueError("inverse_sqrt takes no parameters")
        return StepSchedule.inverse_sqrt()
    if kind == "staircase":
        parts = rest.split(",")
        if len(parts) != 4:
            raise ValueError("staircase spec needs alpha,gamma,T,n")
        return StepSchedule.staircase(
            float(parts[0]), float(parts[1]), int(parts[2]), int(parts[3])
        )
    raise ValueError(f"unknown schedule kind {kind!r}")


# JSON type of each scalar flag a config file may set, by destination.  The
# other flags take a string or a list, and parse its items as they parse flags.
_CONFIG_TYPES = {
    "n": int, "d": int, "T": int, "seed": int,
    "spread": float, "alpha": float, "gamma": float, "data": str, "schedule": str,
}


def _merge_config(args: argparse.Namespace, parser, keys: dict[str, str]) -> None:
    """Fill flag values left at None from the JSON config file ('flags win').

    A non-object config or a value that does not fit its flag is a usage error.
    """
    if not getattr(args, "config", None):
        return
    with open(args.config, "r", encoding="utf-8") as fh:
        conf = json.load(fh)
    if not isinstance(conf, dict):
        parser.error(f"config {args.config} must hold a JSON object, got {type(conf).__name__}")
    for key, dest in keys.items():
        if key not in conf or getattr(args, dest, None) is not None:
            continue
        value, kind = conf[key], _CONFIG_TYPES.get(dest, (str, list))
        fits = isinstance(value, (int, float) if kind is float else kind)
        if isinstance(value, bool) or not fits:
            want = kind.__name__ if isinstance(kind, type) else "str or list"
            parser.error(f"config {args.config}: {key!r} must be {want}, got {value!r}")
        if isinstance(value, list):  # the flag parses each item as its own text
            items = [str(v) for v in value]
            value = ",".join(items) if dest.endswith("_text") else items
        setattr(args, dest, value)


def _parse_center(spec: str, dim: int):
    if spec == "identity":
        return np.eye(dim)
    if spec.startswith("scale:"):
        s = float(spec[len("scale:"):])
        if s <= 0:
            raise ValueError(f"center scale must be positive, got {s}")
        return s * np.eye(dim)
    data = dataio.read_matrix_set(spec)
    if data.n != 1:
        raise DataError(f"center file must hold exactly one matrix, found {data.n}")
    if data.dim != dim:
        raise DataError(f"center dimension {data.dim} does not match --d {dim}")
    return data.points[0]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args, parser) -> int:
    _merge_config(args, parser, {"n": "n", "d": "d", "spread": "spread", "seed": "seed"})
    n = args.n if args.n is not None else 256
    d = args.d if args.d is not None else 5
    spread = args.spread if args.spread is not None else 0.5
    seed = args.seed if args.seed is not None else 0
    if n < 1 or d < 1:
        parser.error("--n and --d must be positive")
    if spread <= 0:
        parser.error("--spread must be positive")
    if seed < 0:
        parser.error("--seed must be nonnegative")

    center = _parse_center(args.center, d)
    rng = Generator(Philox(key=np.uint64(seed)))
    data = dataio.generate_synthetic(rng, n, d, center, spread)
    dataio.write_matrix_set(args.out, data)
    eig = sym_eigen(data.points).eigenvalues
    print(
        f"wrote {data.n} SPD matrices of dimension {data.dim} to {args.out} "
        f"(eigenvalues in [{_fmt(eig.min())}, {_fmt(eig.max())}])"
    )
    return 0


def cmd_descriptors(args, parser) -> int:
    image = dataio.read_pgm(args.pgm)
    h, w = image.shape
    if args.grid < 1 or h % args.grid or w % args.grid:
        parser.error(f"--grid {args.grid} does not tile a {w}x{h} image")
    if args.reg is not None and args.reg < 0:
        parser.error("--reg must be nonnegative")
    data = dataio.covariance_descriptors(image, args.grid, args.reg)
    dataio.write_matrix_set(args.out, data)
    spreads = data.points.max(axis=0) - data.points.min(axis=0)
    note = " (all descriptors identical)" if np.all(spreads == 0) else ""
    print(
        f"wrote {data.n} covariance descriptors ({data.dim}x{data.dim}) "
        f"from {w}x{h} image with {args.grid}x{args.grid} cells to {args.out}{note}"
    )
    return 0


def _schedule_from_run_flags(args, parser, n_points: int) -> StepSchedule:
    kind = args.schedule
    alpha = args.alpha if args.alpha is not None else 5e-4
    gamma = args.gamma if args.gamma is not None else 0.5
    stages = args.n if args.n is not None else 10
    batch = args.batch if args.batch is not None else 16
    period = args.T if args.T is not None else max(1, math.ceil(n_points / batch))
    try:
        if kind == "constant":
            return StepSchedule.constant(alpha)
        if kind == "inverse_sqrt":
            return StepSchedule.inverse_sqrt()
        return StepSchedule.staircase(alpha, gamma, period, stages)
    except ValueError as exc:
        parser.error(str(exc))


def cmd_run(args, parser) -> int:
    _merge_config(
        args,
        parser,
        {
            "data": "data",
            "schedule": "schedule",
            "alpha": "alpha",
            "gamma": "gamma",
            "T": "T",
            "n": "n",
            "epsilons": "epsilons_text",
        },
    )
    if args.data is None:
        parser.error("--data is required")
    if args.schedule is None:
        args.schedule = "constant"
    if args.schedule not in ("constant", "inverse_sqrt", "staircase"):
        parser.error(f"unknown schedule {args.schedule!r}")
    batch = args.batch if args.batch is not None else 16
    steps = args.steps if args.steps is not None else 10_000
    seed = args.seed if args.seed is not None else 0
    if batch < 1:
        parser.error("--batch must be positive")
    if steps < 0:
        parser.error("--steps must be nonnegative")
    if seed < 0:
        parser.error("--seed must be nonnegative")
    eps_text = args.epsilons_text if args.epsilons_text is not None else "0.5,0.25"
    epsilons = tuple(sorted(set(_parse_floats(eps_text)), reverse=True))
    if any(e <= 0 for e in epsilons):
        parser.error("epsilons must be positive")

    data = dataio.read_matrix_set(args.data)
    schedule = _schedule_from_run_flags(args, parser, data.n)
    reference = rsgd.reference_centroid(data, tol=1e-9)
    config = rsgd.RunConfig(
        data=data,
        x0=np.eye(data.dim),
        schedule=schedule,
        batch_size=batch,
        seed=seed,
        max_steps=steps,
        epsilons=epsilons,
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
    for e in epsilons:
        hit = record.steps_to_epsilon[e]
        rows.append(["K", _fmt(e), "censored" if hit is None else hit])
    _write_csv(args.out, rows)
    print(
        f"run: {schedule.label} b={batch} seed={seed} steps={record.steps} "
        f"final_f={_fmt(record.f[-1])} sigma2_x0={_fmt(record.sigma2_initial)} "
        f"grad_bound={_fmt(record.grad_norm_max)} max_ref_dist={_fmt(record.max_ref_distance)}"
    )
    return 0


def cmd_sweep(args, parser) -> int:
    _merge_config(
        args,
        parser,
        {
            "data": "data",
            "schedule": "schedules",
            "schedules": "schedules",
            "batches": "batches_text",
            "epsilons": "epsilons_text",
            "seeds": "seeds_text",
        },
    )
    if args.data is None:
        parser.error("--data is required")
    raw_schedules = args.schedules if args.schedules is not None else ["constant:0.0005"]
    if isinstance(raw_schedules, str):
        raw_schedules = [raw_schedules]
    try:
        schedules = tuple(parse_schedule_spec(s) for s in raw_schedules)
    except ValueError as exc:
        parser.error(str(exc))
    batches_text = args.batches_text if args.batches_text is not None else "2^4..2^9"
    try:
        batches = tuple(parse_batches(batches_text))
    except ValueError as exc:
        parser.error(str(exc))
    eps_text = args.epsilons_text if args.epsilons_text is not None else "0.5,0.25"
    epsilons = tuple(_parse_floats(eps_text))
    seeds_text = args.seeds_text if args.seeds_text is not None else "0,1"
    seeds = tuple(_parse_ints(seeds_text))
    steps = args.steps if args.steps is not None else 10_000
    jobs = args.jobs if args.jobs is not None else 1
    if steps < 1:
        parser.error("--steps must be positive")
    if jobs < 1:
        parser.error("--jobs must be positive")

    data = dataio.read_matrix_set(args.data)
    try:
        config = experiment.SweepConfig(
            data=data,
            x0=np.eye(data.dim),
            schedules=schedules,
            epsilons=epsilons,
            batch_sizes=batches,
            seeds=seeds,
            max_steps=steps,
            n_jobs=jobs,
        )
    except ValueError as exc:
        parser.error(str(exc))
    record = experiment.sweep(config)

    rows = [_SWEEP_HEADER]
    successes = 0
    for key in record.keys_in_grid_order():
        label, e, b, seed = key
        cell = record.cells[key]
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


def _read_sweep_csv(path: str):
    with open(path, "r", encoding="ascii", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if reader.fieldnames != _SWEEP_HEADER:
        raise FormatError(f"unexpected sweep CSV header {reader.fieldnames}")
    return rows


def cmd_fit(args, parser) -> int:
    if args.sigma2 is None or args.G is None or args.epsilon is None:
        parser.error("--sigma2, --G and --epsilon are required")
    if args.sigma2 < 0 or args.G < 0 or args.epsilon <= 0:
        parser.error("--sigma2/--G must be nonnegative and --epsilon positive")

    rows = _read_sweep_csv(args.sweep_csv)
    labels = sorted({r["schedule"] for r in rows})
    wanted = args.schedule
    matches = [lab for lab in labels if lab == wanted or lab.split(":")[0] == wanted]
    if not matches:
        parser.error(f"schedule {wanted!r} not present in CSV (found {labels})")
    if len(matches) > 1:
        parser.error(f"schedule {wanted!r} is ambiguous in CSV: {matches}")
    label = matches[0]
    kind = label.split(":")[0]

    selected = [
        r
        for r in rows
        if r["schedule"] == label
        and np.isclose(float(r["epsilon"]), args.epsilon, rtol=1e-12, atol=0)
    ]
    if not selected:
        parser.error(f"no rows for schedule {label!r} at epsilon {args.epsilon}")

    per_batch: dict[int, list[float]] = {}
    for r in selected:
        if r["K"] in ("", "error") or r["censored"] == "true":
            continue
        per_batch.setdefault(int(r["batch"]), []).append(float(r["K"]))
    if not per_batch:
        print("error: every selected row is censored or errored", file=sys.stderr)
        return 1
    points = [(b, float(np.mean(ks))) for b, ks in sorted(per_batch.items())]

    # Model parameters: explicit flags win over values embedded in the label.
    alpha, gamma, stages = args.alpha, args.gamma, args.n
    if ":" in label:
        parts = label.split(":", 1)[1].split(",")
        if alpha is None:
            alpha = float(parts[0])
        if kind == "staircase":
            if gamma is None:
                gamma = float(parts[1])
            if stages is None:
                stages = int(parts[3])
    if kind in ("constant", "staircase") and alpha is None:
        parser.error("--alpha is required for constant/staircase fits")
    if kind == "staircase" and (gamma is None or stages is None):
        parser.error("--gamma and --n are required for staircase fits")

    inputs = FitInputs(
        sigma2=args.sigma2,
        grad_bound=args.G,
        alpha=alpha if alpha is not None else 1.0,
        eps=args.epsilon,
        gamma=gamma,
        max_stage=stages,
    )
    fit = experiment.fit_model(kind, points, inputs)
    if args.b_range is not None:
        lo, hi = (float(x) for x in args.b_range.split(":"))
    else:
        lo, hi = float(points[0][0]), float(points[-1][0])
    fit = experiment.critical_batch(fit, (lo, hi))
    bound = experiment.batch_lower_bound(kind, fit.c1, inputs)

    print(f"schedule: {label}")
    print(f"epsilon: {_fmt(args.epsilon)}")
    print(f"points: {' '.join(f'({b},{_fmt(k)})' for b, k in points)}")
    print(f"C1: {_fmt(fit.c1)}")
    print(f"C2: {_fmt(fit.c2)}")
    print(f"residual: {_fmt(fit.residual_norm)}")
    print(f"critical_batch_numeric: {_fmt(fit.critical_numeric)}")
    cf = fit.critical_closed_form
    print(f"critical_batch_closed_form: {'none' if cf is None else _fmt(cf)}")
    print(f"boundary: {'true' if fit.critical_at_boundary else 'false'}")
    print(f"batch_lower_bound: {'none' if bound is None else _fmt(bound)}")
    if args.out:
        _write_csv(args.out, [
            ["schedule", "epsilon", "C1", "C2", "residual", "critical_numeric",
             "critical_closed_form", "boundary", "batch_lower_bound"],
            [
                label,
                _fmt(args.epsilon),
                _fmt(fit.c1),
                _fmt(fit.c2),
                _fmt(fit.residual_norm),
                _fmt(fit.critical_numeric),
                "none" if cf is None else _fmt(cf),
                "true" if fit.critical_at_boundary else "false",
                "none" if bound is None else _fmt(bound),
            ],
        ])
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
    p.add_argument("--n", type=int, default=None, help="number of matrices (default 256)")
    p.add_argument("--d", type=int, default=None, help="matrix dimension (default 5)")
    p.add_argument("--spread", type=float, default=None, help="tangent noise scale (default 0.5)")
    p.add_argument("--center", default="identity",
                   help="'identity', 'scale:X', or a matrix-set file with one matrix")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="JSON config file (flags win)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("descriptors", help="covariance descriptors from a P5 image")
    p.add_argument("--pgm", required=True)
    p.add_argument("--grid", type=int, default=4, help="cell side in pixels (default 4)")
    p.add_argument("--reg", type=float, default=None,
                   help="ridge added to each descriptor (default: scale-aware)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_descriptors)

    p = sub.add_parser("run", help="single optimizer run -> per-step CSV")
    p.add_argument("--data", default=None, help="matrix-set file")
    p.add_argument("--schedule", default=None,
                   choices=("constant", "inverse_sqrt", "staircase"))
    p.add_argument("--alpha", type=float, default=None, help="base step (default 5e-4)")
    p.add_argument("--gamma", type=float, default=None, help="staircase decay (default 0.5)")
    p.add_argument("--T", type=int, default=None,
                   help="staircase stage length (default: one pass over the data)")
    p.add_argument("--n", type=int, default=None, help="staircase stage cap (default 10)")
    p.add_argument("--batch", type=int, default=None, help="batch size (default 16)")
    p.add_argument("--steps", type=int, default=None, help="step budget (default 10000)")
    p.add_argument("--epsilons", dest="epsilons_text", default=None,
                   help="comma list of loss thresholds (default 0.5,0.25)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="JSON config file (flags win)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="batch-size grid -> CSV of cells")
    p.add_argument("--data", default=None)
    p.add_argument("--schedule", dest="schedules", action="append", default=None,
                   help="repeatable: constant:A | inverse_sqrt | staircase:A,G,T,N")
    p.add_argument("--epsilons", dest="epsilons_text", default=None,
                   help="comma list (default 0.5,0.25)")
    p.add_argument("--batches", dest="batches_text", default=None,
                   help="comma list or 2^a..2^b (default 2^4..2^9)")
    p.add_argument("--seeds", dest="seeds_text", default=None,
                   help="comma list (default 0,1)")
    p.add_argument("--steps", type=int, default=None, help="per-run budget (default 10000)")
    p.add_argument("--jobs", type=int, default=None, help="concurrent runs (default 1)")
    p.add_argument("--config", default=None, help="JSON config file (flags win)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fit", help="fit a K(b) model to a sweep CSV")
    p.add_argument("--sweep-csv", dest="sweep_csv", required=True)
    p.add_argument("--schedule", required=True,
                   help="schedule label from the CSV (bare kind accepted if unambiguous)")
    p.add_argument("--epsilon", type=float, default=None, required=True)
    p.add_argument("--sigma2", type=float, default=None, required=True,
                   help="single-sample gradient variance at the start point")
    p.add_argument("--G", type=float, default=None, required=True,
                   help="gradient-norm bound along the runs")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--b-range", dest="b_range", default=None, help="lo:hi (default: data range)")
    p.add_argument("--out", default=None, help="optional CSV with the fit row")
    p.set_defaults(func=cmd_fit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (
        FormatError,
        DataError,
        RunError,
        ConvergenceError,
        FitDomainError,
        FitError,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

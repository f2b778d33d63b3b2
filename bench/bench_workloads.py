"""The benchmark's workloads: inputs, set-up, main phase and output checks.

Every workload drives the public ``spdsgd`` command line in-process, so a
traced run sees the same calls an untraced one makes.  A workload has four
parts:

``make_inputs``  writes the input files from the workload seed (not timed);
``prepare``      derives flags such as loss thresholds from the set-up's
                 dataset and oracle (not timed);
``main``         the timed phase: the CLI calls, each made through the
                 ``call`` it is given (:func:`call_cli` or a timed wrapper),
                 and the little glue between them;
``check``        parses what ``main`` wrote and checks it (not timed).

Set-up, common to all three, is :func:`setup`: read the input matrix set
into a validated ``Dataset`` and compute its oracle centroid.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.random import Generator, Philox

from spdsgd import cli, dataio, objective, rsgd

ORACLE_TOL = 1e-9
# Relative tolerances for the expected values of the default seed.  Step
# counts and other integers must match exactly.
FINAL_F_RTOL = 1e-9
FIT_RTOL = 1e-6
# Report line of ``spdsgd fit`` for each fitted value that is checked.
FIT_LINES = {"C1": "C1", "C2": "C2", "b_star": "critical_batch_numeric"}
FIT_KEYS = tuple(FIT_LINES)
# Unreachable loss threshold for fixed-budget runs: the loss never goes
# below the centroid's, which is far above this for every input used here.
UNREACHABLE_EPS = "1e-06"
RUN_HEADER = ["step", "f", "grad_norm", "alpha_k", "V_k", "dist_ref"]
SWEEP_HEADER = ["schedule", "epsilon", "batch", "seed", "K", "censored", "sfo", "final_f", "wall_ms"]


def fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass
class CliCall:
    label: str
    argv: list[str]
    rc: int | None
    stdout: str
    stderr: str


def call_cli(label: str, argv) -> CliCall:
    """Run ``spdsgd`` in-process with its output captured.

    ``cli.main`` is looked up on every call so that a tracer installed on
    the module sees it.  An exception the CLI does not turn into an exit
    code is recorded with ``rc=None``.
    """
    argv = [str(a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    return CliCall(label, argv, rc, out.getvalue(), err.getvalue())


@dataclass
class Outcome:
    """Checked result of one main phase.

    ``ops`` maps each operation (a CLI call or a sweep cell) to an error
    message, or ``None`` when it succeeded and its output passed the check.
    ``outputs`` holds the values compared against the expected file.
    """

    steps: int = 0
    ops: dict[str, str | None] = field(default_factory=dict)
    outputs: dict[str, dict] = field(default_factory=dict)
    digest_lines: list[str] = field(default_factory=list)

    def fail(self, label: str, message: str) -> None:
        if self.ops.get(label) is None:
            self.ops[label] = message

    @property
    def failed(self) -> int:
        return sum(msg is not None for msg in self.ops.values())

    def digest(self) -> str:
        lines = [f"{label} {_canonical(values)}" for label, values in sorted(self.outputs.items())]
        blob = "\n".join(lines + self.digest_lines)
        return hashlib.sha256(blob.encode("ascii")).hexdigest()


def _canonical(values: dict) -> str:
    def one(key, v):
        if isinstance(v, float):
            return format(v, ".6g" if key in FIT_KEYS else ".9g")
        return str(v)
    return " ".join(f"{k}={one(k, v)}" for k, v in sorted(values.items()))


def compare_expected(outcome: Outcome, expected: dict[str, dict]) -> None:
    """Mark every operation whose outputs differ from ``expected`` as failed."""
    for label in sorted(set(expected) | set(outcome.outputs)):
        want, got = expected.get(label), outcome.outputs.get(label)
        if want is None or got is None:
            outcome.fail(label, "missing from " + ("expected values" if want is None else "outputs"))
            continue
        # A fit's values share an absolute floor set by the larger of C1 and
        # C2: where K(b) is flat the fit drives C1 to roundoff, and its last
        # digits then follow the last bits of sigma2 and G.
        fit_scale = max(abs(want.get("C1", 0.0)), abs(want.get("C2", 0.0)))
        for key in sorted(set(want) | set(got)):
            a, b = want.get(key), got.get(key)
            if isinstance(a, float) and isinstance(b, float):
                if key in FIT_KEYS:
                    same = math.isclose(a, b, rel_tol=FIT_RTOL, abs_tol=FIT_RTOL * fit_scale)
                else:
                    same = math.isclose(a, b, rel_tol=FINAL_F_RTOL, abs_tol=0.0)
            else:
                same = a == b
            if not same:
                outcome.fail(label, f"{key} is {b!r}, expected {a!r}")


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def setup(path: Path):
    """The timed set-up: validated dataset and oracle centroid."""
    t0 = time.perf_counter()
    data = dataio.read_matrix_set(path)
    star = rsgd.reference_centroid(data, tol=ORACLE_TOL)
    return data, star, time.perf_counter() - t0


def oracle_error(data, star) -> str | None:
    """Why the oracle is not a centroid to tolerance, or None if it is."""
    g = objective.objective_summary(star, data).grad_norm
    if not g < ORACLE_TOL:
        return f"oracle gradient norm {g:.3e} is not below {ORACLE_TOL:g}"
    return None


# ---------------------------------------------------------------------------
# Output parsing shared by the workloads
# ---------------------------------------------------------------------------


def check_run_csv(outcome: Outcome, label: str, call: CliCall, path: Path,
                  *, steps: int | None = None, censored: bool = False) -> list | None:
    """Check one ``spdsgd run`` call and its per-step CSV; return its rows.

    Every traced value must be finite (``alpha_k`` is NaN on the last row,
    which takes no step).  ``steps`` fixes the expected step count and
    ``censored`` requires every threshold to be missed.
    """
    if call.rc != 0:
        outcome.fail(label, f"exit code {call.rc}: {call.stderr.strip()[-500:]}")
        return None
    try:
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
        if lines[0].split(",") != RUN_HEADER:
            raise ValueError(f"header {lines[0]!r}")
        body = [ln.split(",") for ln in lines[1:]]
        rows = [[float(x) for x in r] for r in body if r[0] != "K"]
        footers = [r for r in body if r[0] == "K"]
    except (OSError, ValueError, IndexError) as exc:
        outcome.fail(label, f"unreadable run CSV: {exc}")
        return None
    trace = np.asarray(rows)
    k = len(rows) - 1
    if trace.shape != (k + 1, 6) or not np.array_equal(trace[:, 0], np.arange(k + 1)):
        outcome.fail(label, f"malformed run CSV with shape {trace.shape}")
        return None
    finite = np.isfinite(trace)
    finite[-1, 3] = True
    if not finite.all():
        outcome.fail(label, "non-finite value in the trace")
    if steps is not None and k != steps:
        outcome.fail(label, f"{k} steps, expected {steps}")
    hits = [r[2] for r in footers]
    if censored and any(h != "censored" for h in hits):
        outcome.fail(label, f"threshold reached on a fixed budget: {hits}")
    outcome.steps += k
    outcome.outputs[label] = {"steps": k, "final_f": float(trace[-1, 1]), "K": " ".join(hits)}
    outcome.digest_lines.extend(
        " ".join(format(x, ".9g") for x in row[1:]) for row in rows
    )
    return rows


def read_sweep_rows(path: Path) -> list[list[str]]:
    """Sweep CSV rows as ``SWEEP_HEADER`` fields.

    ``spdsgd sweep`` writes schedule labels unquoted, and a staircase label
    (``staircase:a,g,T,n``) contains commas; every field after the label is
    a single token, so the label is whatever precedes the last eight.
    """
    with open(path, encoding="ascii", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != SWEEP_HEADER:
        raise ValueError(f"unexpected sweep header {rows[0]}")
    out = []
    for r in rows[1:]:
        if len(r) < len(SWEEP_HEADER):
            raise ValueError(f"short sweep row {r}")
        tail = len(SWEEP_HEADER) - 1
        out.append([",".join(r[:-tail])] + r[-tail:])
    return out


def read_fit(stdout: str) -> dict[str, float]:
    """C1, C2 and the numeric critical batch from ``spdsgd fit``'s report.

    The report's lines are read rather than its ``--out`` CSV, whose
    schedule label is written unquoted like the sweep's.
    """
    lines = dict(ln.split(": ", 1) for ln in stdout.splitlines() if ": " in ln)
    return {key: float(lines[line]) for key, line in FIT_LINES.items()}


def write_quoted_sweep(rows: list[list[str]], path: Path) -> None:
    """Write sweep rows with standard CSV quoting, which ``spdsgd fit`` reads."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_HEADER)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def gen_inputs(work: Path, seed: int, n: int, center: str) -> dict:
    """``spdsgd gen`` of ``n`` 5x5 matrices with spread 0.5 around ``center``."""
    path = work / "data.msf"
    call = call_cli("gen", ["gen", "--n", n, "--d", 5, "--spread", 0.5,
                            "--center", center, "--seed", seed, "--out", path])
    if call.rc != 0:
        raise RuntimeError(f"input generation failed: {call.stderr}")
    return {"data": path}


@dataclass(frozen=True)
class SweepExcess:
    """The paper's experiment: a K(b) sweep to excess-loss thresholds, then fits.

    The data centre is ``scale * I`` with ``scale = exp(-0.5 / sqrt(5))``, at
    geodesic distance 0.5 from the start point ``I``.  The excess-loss gap is
    then set by that offset rather than by sampling noise, and the total step
    count of the sweep varies by about 3% across seeds (about 30% with the
    centre at ``I``).  The price is a K(b) that is nearly flat at the looser
    threshold: its fits put C1 at roundoff, and only the tighter threshold's
    fits have a C1 well above 0.
    """

    name: str = "sweep_excess"
    n: int = 256
    center: str = "scale:0.8"
    schedules: tuple[str, ...] = ("constant:0.005", "staircase:0.005,0.5,60,4")
    batches: str = "2^2..2^7"
    seeds: str = "0,1,2,3,4"
    max_steps: int = 20_000
    probe_batch: int = 32
    excess: tuple[float, ...] = (0.5, 0.25)

    def make_inputs(self, work: Path, seed: int) -> dict:
        return gen_inputs(work, seed, self.n, self.center)

    def prepare(self, inputs: dict, data, star) -> dict:
        eye = np.eye(data.dim)
        f_star, f0 = objective.loss(star, data), objective.loss(eye, data)
        return {
            "eps": [f_star + r * (f0 - f_star) for r in self.excess],
            "sigma2": objective.gradient_variance(eye, data),
        }

    def _probe_flags(self, spec: str) -> list:
        kind, _, rest = spec.partition(":")
        parts = rest.split(",")
        if kind == "constant":
            return ["--schedule", kind, "--alpha", parts[0]]
        return ["--schedule", kind, "--alpha", parts[0], "--gamma", parts[1],
                "--T", parts[2], "--n", parts[3]]

    def main(self, call, work: Path, inputs: dict, params: dict) -> list[CliCall]:
        """A probe run per schedule, one sweep of both, then one fit per threshold."""
        eps_text = ",".join(fmt(e) for e in params["eps"])
        calls, grad_bounds = [], {}
        for spec in self.schedules:
            kind = spec.split(":")[0]
            probe_run = call(f"run probe {kind}", [
                "run", "--data", inputs["data"], *self._probe_flags(spec),
                "--batch", self.probe_batch, "--seed", 0, "--steps", self.max_steps,
                "--epsilons", eps_text, "--out", work / f"probe_{kind}.csv"])
            calls.append(probe_run)
            if probe_run.rc == 0 and "grad_bound=" in probe_run.stdout:
                grad_bounds[kind] = probe_run.stdout.split("grad_bound=")[1].split()[0]
        schedule_flags = [x for spec in self.schedules for x in ("--schedule", spec)]
        calls.append(call("sweep", [
            "sweep", "--data", inputs["data"], *schedule_flags,
            "--batches", self.batches, "--seeds", self.seeds, "--steps", self.max_steps,
            "--epsilons", eps_text, "--out", work / "sweep.csv"]))
        try:
            write_quoted_sweep(read_sweep_rows(work / "sweep.csv"), work / "fit_input.csv")
        except (OSError, ValueError):
            return calls  # the check reports the sweep's exit code or its unreadable CSV
        for kind, grad_bound in grad_bounds.items():
            for i, e in enumerate(params["eps"]):
                calls.append(call(f"fit {kind} e{i}", [
                    "fit", "--sweep-csv", work / "fit_input.csv", "--schedule", kind,
                    "--epsilon", fmt(e), "--sigma2", fmt(params["sigma2"]),
                    "--G", grad_bound]))
        return calls

    def check(self, work: Path, params: dict, calls: list[CliCall]) -> Outcome:
        outcome = Outcome()
        by_label = {c.label: c for c in calls}
        eps_index = {fmt(e): i for i, e in enumerate(params["eps"])}
        rows = []
        for spec in self.schedules:
            kind = spec.split(":")[0]
            label = f"run probe {kind}"
            outcome.ops[label] = None
            if label not in by_label:
                outcome.fail(label, "not run")
            else:
                check_run_csv(outcome, label, by_label[label], work / f"probe_{kind}.csv")
                if outcome.ops[label] is None and "censored" in outcome.outputs[label]["K"]:
                    outcome.fail(label, "probe run missed a threshold")

        outcome.ops["sweep"] = None
        sweep = by_label.get("sweep")
        if sweep is None or sweep.rc != 0:
            outcome.fail("sweep", f"exit code {None if sweep is None else sweep.rc}")
        else:
            try:
                rows = read_sweep_rows(work / "sweep.csv")
            except (OSError, ValueError) as exc:
                outcome.fail("sweep", f"unreadable sweep CSV: {exc}")

        expected_cells = (len(self.schedules) * len(self.excess)
                          * len(cli.parse_batches(self.batches)) * len(self.seeds.split(",")))
        outcome.ops["sweep cells"] = None
        if len(rows) != expected_cells:
            outcome.fail("sweep cells", f"{len(rows)} cells, expected {expected_cells}")
        run_steps: dict[tuple[str, str, str], list[int]] = {}
        for label_, eps, b, seed, k, censored, _sfo, final_f, _wall in rows:
            i = eps_index.get(eps)
            label = f"cell {label_} e{i} b{b} s{seed}"
            outcome.ops[label] = None
            if k == "error":
                outcome.fail(label, "errored cell")
                continue
            if censored != "false" or not k:
                outcome.fail(label, "censored cell")
                continue
            if i is None or not math.isfinite(float(final_f)):
                outcome.fail(label, f"epsilon {eps} unknown or final f {final_f} not finite")
            run_steps.setdefault((label_, b, seed), []).append(int(k))
            outcome.outputs[label] = {"K": int(k), "final_f": float(final_f)}
        for key, ks in run_steps.items():
            if ks != sorted(ks):
                outcome.fail(f"cell {key[0]} e1 b{key[1]} s{key[2]}",
                             f"K decreases as the threshold tightens: {ks}")
            outcome.steps += max(ks)

        for spec in self.schedules:
            kind = spec.split(":")[0]
            for i in range(len(self.excess)):
                label = f"fit {kind} e{i}"
                outcome.ops[label] = None
                call = by_label.get(label)
                if call is None or call.rc != 0:
                    detail = "not run" if call is None else f"exit code {call.rc}: {call.stderr.strip()[-300:]}"
                    outcome.fail(label, detail)
                    continue
                try:
                    fit = read_fit(call.stdout)
                except (ValueError, KeyError) as exc:
                    outcome.fail(label, f"unreadable fit output: {exc}")
                    continue
                if not all(math.isfinite(v) and v > 0 for v in fit.values()):
                    outcome.fail(label, f"fit values not finite and positive: {fit}")
                outcome.outputs[label] = fit
        return outcome


@dataclass(frozen=True)
class FixedBudget:
    """Three ``spdsgd run`` calls to a fixed step budget; every iterate is output."""

    name: str = "fixed_budget"
    n: int = 256
    center: str = "scale:0.8"
    steps: int = 1500
    runs: tuple[tuple[str, tuple, int], ...] = (
        ("constant b16", ("--schedule", "constant", "--alpha", "0.005"), 16),
        ("constant b128", ("--schedule", "constant", "--alpha", "0.005"), 128),
        ("inverse_sqrt b32", ("--schedule", "inverse_sqrt"), 32),
    )

    def make_inputs(self, work: Path, seed: int) -> dict:
        return gen_inputs(work, seed, self.n, self.center)

    def prepare(self, inputs: dict, data, star) -> dict:
        return {}

    def main(self, call, work: Path, inputs: dict, params: dict) -> list[CliCall]:
        return [
            call(f"run {label}", [
                "run", "--data", inputs["data"], *flags, "--batch", batch, "--seed", 0,
                "--steps", self.steps, "--epsilons", UNREACHABLE_EPS,
                "--out", work / f"run_{i}.csv"])
            for i, (label, flags, batch) in enumerate(self.runs)
        ]

    def check(self, work: Path, params: dict, calls: list[CliCall]) -> Outcome:
        outcome = Outcome()
        for i, call in enumerate(calls):
            outcome.ops[call.label] = None
            check_run_csv(outcome, call.label, call, work / f"run_{i}.csv",
                          steps=self.steps, censored=True)
        if len(calls) != len(self.runs):
            outcome.fail("runs", f"{len(calls)} runs, expected {len(self.runs)}")
        return outcome


def texture(seed: int, side: int) -> np.ndarray:
    """A ``side`` x ``side`` 8-bit texture: four random gratings plus noise."""
    rng = Generator(Philox(key=np.uint64(seed)))
    u, v = np.mgrid[0:side, 0:side].astype(np.float64)
    img = np.zeros((side, side))
    for _ in range(4):
        fu, fv = rng.uniform(0.02, 0.25, 2)
        img += np.sin(fu * u + fv * v + rng.uniform(0.0, 2.0 * np.pi))
    img += 0.5 * rng.standard_normal((side, side))
    return np.round(255.0 * (img - img.min()) / (img.max() - img.min()))


@dataclass(frozen=True)
class DescriptorsLargeN:
    """Covariance descriptors of a texture (4096 at full size), then one run."""

    name: str = "descriptors_large_n"
    side: int = 256
    grid: int = 4
    steps: int = 150
    batch: int = 16

    def make_inputs(self, work: Path, seed: int) -> dict:
        pgm, msf = work / "texture.pgm", work / "descriptors.msf"
        dataio.write_pgm(pgm, texture(seed, self.side))
        call = call_cli("descriptors", ["descriptors", "--pgm", pgm, "--grid", self.grid,
                                        "--out", msf])
        if call.rc != 0:
            raise RuntimeError(f"input generation failed: {call.stderr}")
        return {"pgm": pgm, "data": msf}

    def prepare(self, inputs: dict, data, star) -> dict:
        return {}

    def main(self, call, work: Path, inputs: dict, params: dict) -> list[CliCall]:
        out = work / "main_descriptors.msf"
        desc = call("descriptors", ["descriptors", "--pgm", inputs["pgm"],
                                    "--grid", self.grid, "--out", out])
        if desc.rc != 0:
            return [desc]
        run = call("run", [
            "run", "--data", out, "--schedule", "constant", "--alpha", "0.005",
            "--batch", self.batch, "--seed", 0, "--steps", self.steps,
            "--epsilons", UNREACHABLE_EPS, "--out", work / "run.csv"])
        return [desc, run]

    def check(self, work: Path, params: dict, calls: list[CliCall]) -> Outcome:
        outcome = Outcome()
        by_label = {c.label: c for c in calls}
        outcome.ops["descriptors"] = outcome.ops["run"] = None
        desc = by_label["descriptors"]
        if desc.rc != 0:
            outcome.fail("descriptors", f"exit code {desc.rc}: {desc.stderr.strip()[-300:]}")
        else:
            # Same image and grid as the set-up input: the files must agree byte for byte.
            produced = (work / "main_descriptors.msf").read_bytes()
            if produced != (work / "descriptors.msf").read_bytes():
                outcome.fail("descriptors", "descriptors differ from the set-up input")
            header = produced.split(b"\n", 1)[0].decode("ascii")
            cells = (self.side // self.grid) ** 2
            if header != f"5 {cells}":
                outcome.fail("descriptors", f"header {header!r}, expected '5 {cells}'")
            outcome.outputs["descriptors"] = {"header": header}
            outcome.digest_lines.append(hashlib.sha256(produced).hexdigest())
        if "run" not in by_label:
            outcome.fail("run", "not run")
        else:
            check_run_csv(outcome, "run", by_label["run"], work / "run.csv",
                          steps=self.steps, censored=True)
        return outcome


WORKLOADS = {w.name: w for w in (SweepExcess(), FixedBudget(), DescriptorsLargeN())}

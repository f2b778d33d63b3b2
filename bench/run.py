"""Benchmark of the spdsgd K(b) pipeline.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload sweep_excess --seed 0 --seconds 40 --trace 0

``--trace 0`` repeats the workload's main phase for ``--seconds`` seconds
and prints the end-to-end metrics (medians over the repetitions).
``--trace 1`` runs the main phase once untraced and once traced, and prints
the per-layer metrics of the traced pass.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the environment block.  A fuller record
(environment, every repetition, output digest) and, for traced runs, the
spans are written under ``.bench_work/`` in the checkout.  See README.md in
this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Expected outputs are committed for this seed only; other seeds are checked
# against invariants.
EXPECTED_SEED = 0
# The set-up phase is repeated at least this often and for at least this
# long; setup_s is the median.
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 2.0


def load_spec() -> dict:
    """``BENCHMARK.json``: the workload names and every metric's name and unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_program():
    """Import spdsgd from this checkout's ``src``, and only from there."""
    if not (SRC / "spdsgd" / "__init__.py").is_file():
        sys.exit(f"error: no spdsgd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spdsgd

    if Path(spdsgd.__file__).resolve().parent != (SRC / "spdsgd").resolve():
        sys.exit(f"error: spdsgd imported from {spdsgd.__file__}, not {SRC}")


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, if it can be asked."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "libscipy_openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{deps.get('blas', {}).get('name')} {deps.get('blas', {}).get('version')}",
        "lapack": f"{deps.get('lapack', {}).get('name')} {deps.get('lapack', {}).get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "seed": seed,
    }


def run_setup(workload, inputs):
    """Repeat the timed set-up; return the last dataset and oracle, and all times."""
    import bench_workloads as bw

    times, errors = [], []
    while len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_SECONDS:
        data, star, seconds = bw.setup(inputs["data"])
        times.append(seconds)
        errors.append(bw.oracle_error(data, star))
    return data, star, times, errors


class TimedCli:
    """Makes the workload's CLI calls and sums their wall time.

    The benchmark's own glue between calls is not timed.
    """

    def __init__(self):
        self.seconds = 0.0

    def __call__(self, label, argv):
        import bench_workloads as bw

        t0 = time.perf_counter()
        call = bw.call_cli(label, argv)
        self.seconds += time.perf_counter() - t0
        return call


def checked(workload, work: Path, params, calls, expected):
    """The workload's check of one main phase, plus the expected values if any."""
    import bench_workloads as bw

    outcome = workload.check(work, params, calls)
    if expected is not None:
        bw.compare_expected(outcome, expected)
    return outcome


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run one benchmark measurement in ``work``; return the full record."""
    import bench_trace
    import bench_workloads as bw

    spec = load_spec()
    expected = None
    expected_path = HERE / "expected" / f"{workload.name}.json"
    if seed == EXPECTED_SEED and expected_path.is_file():
        expected = json.loads(expected_path.read_text())

    inputs = workload.make_inputs(work, seed)
    data, star, setup_times, setup_errors = run_setup(workload, inputs)
    params = workload.prepare(inputs, data, star)
    ops = {f"setup {i}": err for i, err in enumerate(setup_errors)}

    walls, outcomes = [], []
    t_main = time.perf_counter()
    while True:
        timed = TimedCli()
        calls = workload.main(timed, work, inputs, params)
        walls.append(timed.seconds)
        outcomes.append(checked(workload, work, params, calls, expected))
        elapsed = time.perf_counter() - t_main
        if trace or elapsed + statistics.median(walls) > seconds:
            break

    record = {"workload": workload.name, "seed": seed, "trace": int(trace),
              "setup_s": setup_times, "wall_s": walls}
    if trace:
        tracer = bench_trace.Tracer()
        with tracer.installed():
            t_data, t_star, _ = bw.setup(inputs["data"])
            timed = TimedCli()
            calls = workload.main(timed, work, inputs, params)
        record["traced_wall_s"] = timed.seconds
        ops["setup traced"] = bw.oracle_error(t_data, t_star)
        outcomes.append(checked(workload, work, params, calls, expected))
        summary = bench_trace.TraceSummary(tracer.spans)
        values = bench_trace.layer_metrics(summary, timed.seconds / walls[0] - 1.0)
        specs = spec["per_layer"]
        tracer.write(work.parent / f"spans-{workload.name}-seed{seed}.csv.gz")
    else:
        wall = statistics.median(walls)
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "steps_per_s": outcomes[0].steps / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        specs = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}

    for rep, outcome in enumerate(outcomes):
        ops.update({f"rep {rep}: {label}": msg for label, msg in outcome.ops.items()})
    failures = {label: msg for label, msg in ops.items() if msg is not None}
    digests = sorted({o.digest() for o in outcomes})
    if len(digests) > 1:
        failures["digest"] = f"repetitions produced different outputs: {digests}"
    record.update({
        "steps": outcomes[0].steps,
        "attempted": len(ops) + (len(digests) > 1),
        "failed": len(failures),
        "failures": failures,
        "digest": digests[0],
        "outputs": outcomes[0].outputs,
        "metrics": metrics,
    })
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in load_spec()["workloads"]])
    parser.add_argument("--seed", type=int, default=EXPECTED_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    import_program()
    import bench_workloads as bw

    env = environment(args.seed)
    out_dir = ROOT / ".bench_work"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        record = measure(bw.WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["environment"] = env
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    (out_dir / f"{stem}.outputs.json").write_text(
        json.dumps(record["outputs"], indent=1, sort_keys=True) + "\n")

    attempted, failed = record["attempted"], record["failed"]
    for label, msg in list(record["failures"].items())[:20]:
        print(f"FAIL {label}: {msg}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(record['wall_s'])} main phase(s), "
          f"{record['steps']} steps each, digest {record['digest'][:16]}")
    for name, m in record["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':36s} {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
